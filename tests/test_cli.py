"""Command line behavior: formats, exit codes, determinism, atomic output."""

import csv
import io
import json

import pytest

import qtreesearch.runner as runmod
import qtreesearch.statevector as svmod
from qtreesearch.cli import main
from qtreesearch.runner import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_UNVERIFIED


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FIVE_QUBIT = (
    "strategy: {strategy}\nm: 5\ng: 3\nupper_oracle: [2, -1]\n"
    'lower_oracle: [3, -2, 1]\ncandidates: ["011", "101"]\n'
    "shots: 512\nseed: 5\n"
)


class TestRun:
    def test_json_to_stdout(self, capsys):
        assert run_cli("run", "--config", "fig_a_basic_0", "--format", "json") == EXIT_OK
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["endianness"] == "little"
        assert artifact["config"]["endianness"] == "little"
        assert artifact["histogram"]["10011"]["probability"] == pytest.approx(0.5)
        assert artifact["histogram"]["10101"]["probability"] == pytest.approx(0.5)
        assert artifact["purity"][0]["purity"] == pytest.approx(1.0)

    def test_machine_output_has_no_wall_time(self, capsys):
        run_cli("run", "--config", "fig_a_basic_2", "--format", "json")
        out = capsys.readouterr().out
        assert "wall_time" not in out
        run_cli("run", "--config", "fig_a_basic_2", "--format", "csv")
        assert "wall_time" not in capsys.readouterr().out

    def test_text_output_has_wall_time(self, capsys):
        run_cli("run", "--config", "fig_a_basic_2", "--format", "text")
        out = capsys.readouterr().out
        assert "wall_time_s:" in out
        assert "endianness: little" in out

    def test_histogram_invariants(self, capsys):
        run_cli("run", "--config", "fig_a_basic_2", "--format", "json")
        artifact = json.loads(capsys.readouterr().out)
        histogram = artifact["histogram"]
        assert sum(e["count"] for e in histogram.values()) == artifact["config"]["shots"]
        assert sum(e["probability"] for e in histogram.values()) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_csv_histogram(self, capsys):
        run_cli("run", "--config", "fig_a_basic_0", "--format", "csv")
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["label", "count", "probability"]
        counts = {row[0]: int(row[1]) for row in rows[1:]}
        assert sum(counts.values()) == 4096
        probabilities = [float(row[2]) for row in rows[1:]]
        assert sum(probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_same_seed_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("run", "--config", "fig_a_basic_4", "--out", str(first))
        run_cli("run", "--config", "fig_a_basic_4", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_changes_counts(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("run", "--config", "fig_a_basic_0", "--out", str(first))
        run_cli("run", "--config", "fig_a_basic_0", "--seed", "99", "--out", str(second))
        assert first.read_bytes() != second.read_bytes()

    def test_shots_override(self, capsys):
        run_cli("run", "--config", "fig_a_basic_0", "--shots", "64", "--format", "json")
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["config"]["shots"] == 64
        assert sum(e["count"] for e in artifact["histogram"].values()) == 64

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        out = tmp_path / "artifact.json"
        run_cli("run", "--config", "fig_a_basic_0", "--out", str(out))
        assert out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_exhaustion_exits_two(self, tmp_path, capsys):
        # no candidate completes to the marked string, so every trial fails
        config = write_config(
            tmp_path,
            "strategy: iterative\nm: 5\ng: 3\nupper_oracle: [2, -1]\n"
            'lower_oracle: [3, -2, 1]\ncandidates: ["000", "110"]\n'
            "shots_per_trial: 128\nseed: 3\n",
        )
        assert run_cli("run", "--config", config, "--format", "json") == EXIT_UNVERIFIED
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["result"]["verified"] is False
        assert artifact["result"]["found"] is None
        assert artifact["result"]["trials"] == 2

    def test_config_error_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, "strategy: warp\n")
        assert run_cli("run", "--config", config) == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_name_exits_one(self, capsys):
        assert run_cli("run", "--config", "fig_unknown") == EXIT_CONFIG_ERROR
        assert "neither a bundled config" in capsys.readouterr().err

    def test_iterative_text_lists_trials(self, capsys):
        run_cli("run", "--config", "fig_a_basic_4", "--format", "text")
        out = capsys.readouterr().out
        assert "trial 1 candidate=011" in out
        assert "trial 2 candidate=101" in out
        assert "found=10101" in out

    def test_disentangled_text_lists_blocks(self, capsys):
        run_cli("run", "--config", "fig_a_basic_10", "--format", "text")
        out = capsys.readouterr().out
        assert "block 1 candidate=011" in out
        assert "block 2 candidate=101" in out
        assert "winning block: 1" in out

    def test_purity_cut_override(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            FIVE_QUBIT.format(strategy="product") + "purity_cuts: [[0, 1, 2], [3, 4]]\n",
        )
        run_cli("run", "--config", config, "--format", "json")
        artifact = json.loads(capsys.readouterr().out)
        cuts = {tuple(entry["qubits"]) for entry in artifact["purity"]}
        assert cuts == {(0, 1, 2), (3, 4)}

    def test_oversized_purity_cut_rejected(self, tmp_path):
        config = write_config(
            tmp_path, FIVE_QUBIT.format(strategy="product") + "purity_cuts: [[7]]\n"
        )
        assert run_cli("run", "--config", config) == EXIT_CONFIG_ERROR


class TestCost:
    def test_single_cell(self, capsys):
        code = run_cli(
            "cost", "--m-range", "4", "--v-range", "1",
            "--strategies", "iterative", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [
            {
                "strategy": "iterative",
                "m": 4,
                "g": 2,
                "v": 1,
                "total": 5.0,
                "valid": False,
                "margin": pytest.approx(-0.2),
                "times_ratio": None,
            }
        ]

    def test_csv_columns_fixed(self, capsys):
        run_cli("cost", "--m-range", "16", "--v-range", "4", "--format", "csv")
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [
            "strategy", "m", "g", "v", "total", "valid", "margin", "times_ratio",
        ]
        by_strategy = {row[0]: row for row in rows[1:]}
        assert float(by_strategy["disentangled"][7]) == pytest.approx(1.5)
        assert by_strategy["iterative"][5] == "true"

    def test_range_syntax(self, capsys):
        run_cli(
            "cost", "--m-range", "8:16:4", "--v-range", "2",
            "--strategies", "baseline", "--format", "json",
        )
        payload = json.loads(capsys.readouterr().out)
        assert [row["m"] for row in payload["rows"]] == [8, 12, 16]

    def test_invalid_budget_flagged(self, capsys):
        run_cli(
            "cost", "--m-range", "8", "--v-range", "8",
            "--strategies", "iterative", "--format", "json",
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["valid"] is False
        assert payload["rows"][0]["margin"] < 0

    def test_unknown_strategy_exits_one(self, capsys):
        assert (
            run_cli("cost", "--strategies", "quantum-annealing") == EXIT_CONFIG_ERROR
        )
        assert "unknown strategies" in capsys.readouterr().err

    def test_bad_range_exits_one(self, capsys):
        assert run_cli("cost", "--m-range", "4:x") == EXIT_CONFIG_ERROR
        assert "cannot parse" in capsys.readouterr().err


class TestVerify:
    def test_bundled_config_passes(self, capsys):
        code = run_cli("verify", "--config", "fig_a_basic_2", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["kernel_checks"]["max_deviation"] <= 1e-10
        assert report["kernel_checks"]["count"] > 0

    def test_permutation_config_includes_cnot_check(self, capsys):
        code = run_cli("verify", "--config", "fig_d_el_v_3_6", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["cnot_check"]["basis_states"] == 8
        assert report["cnot_check"]["max_deviation"] <= 1e-10

    def test_corrupted_mirror_detected(self, capsys, monkeypatch):
        # poison the diffusion reference so the kernels and mirror disagree
        original = svmod.dense_diffusion_matrix

        def poisoned(sv, on):
            out = original(sv, on)
            out[0] += 0.01
            return out

        monkeypatch.setattr(svmod, "dense_diffusion_matrix", poisoned)
        code = run_cli("verify", "--config", "fig_a_basic_2", "--format", "json")
        assert code == EXIT_UNVERIFIED
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["kernel_checks"]["max_deviation"] > 1e-10

    def test_wide_register_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "strategy: product\nm: 12\ng: 6\nupper_oracle: [6, -5, 4, -3, 2, 1]\n"
            'lower_oracle: [6, 5, -4, 3, -2, 1]\ncandidates: ["110101"]\n',
        )
        assert run_cli("verify", "--config", config, "--format", "json") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert list(report["kernel_checks"]["by_operation"]) == ["diffusion", "phase_flip"]

    def test_text_report(self, capsys):
        run_cli("verify", "--config", "fig_a_basic_0")
        out = capsys.readouterr().out
        assert "passed: true" in out
        assert "kernel checks:" in out

    def test_widest_composite_is_covered(self, tmp_path, capsys):
        # the disentangled composite has 4 + 2 * (4 + 1) = 14 qubits, and
        # every kernel kind it applies is checked on it
        config = write_config(
            tmp_path,
            "strategy: disentangled\nm: 8\ng: 4\nupper_oracle: [4, -3, -2, 1]\n"
            'lower_oracle: [-4, 3, -2, 1]\ncandidates: ["0011", "0101"]\n'
            "shots: 1024\nseed: 11\n",
        )
        code = run_cli("verify", "--config", config, "--format", "json")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert "skipped" not in report["kernel_checks"]
        assert list(report["kernel_checks"]["by_operation"]) == [
            "conditional_bit_flip", "diffusion", "phase_flip"
        ]
        run_cli("verify", "--config", config)
        assert "passed: true" in capsys.readouterr().out

    def test_too_wide_cnot_check_exits_one_before_the_replay(
        self, tmp_path, capsys, monkeypatch
    ):
        # g = 10 data qubits plus one flag per relabeling swap exceed the
        # controlled-not check's 12 qubits; nothing may be simulated first
        calls = []
        original = runmod.compacted_search_state

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runmod, "compacted_search_state", counted)
        config = write_config(
            tmp_path,
            "strategy: permutation\nm: 20\ng: 10\n"
            "upper_oracle: [10, -9, 8, -7, 6, -5, 4, -3, 2, -1]\n"
            "lower_oracle: [10, 9, -8, 7, -6, 5, -4, 3, -2, 1]\n"
            'candidates: ["0110101010", "1110101011", "1010101011", "1101010101"]\n',
        )
        assert run_cli("verify", "--config", config) == EXIT_CONFIG_ERROR
        assert "controlled-not check needs 14 qubits, limit is 12" in capsys.readouterr().err
        assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--config", "fig_a_basic_4"),
        # product and entangled never sample, so nothing downstream objects
        ("verify", "--config", "fig_a_basic_0"),
        ("verify", "--config", "fig_a_basic_2"),
        ("sweep",),
    ],
    ids=lambda argv: "-".join(argv),
)
def test_negative_seed_exits_one(argv, capsys):
    assert run_cli(*argv, "--seed", "-1", "--format", "json") == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert "seed must be non-negative, got -1" in captured.err
    assert captured.out == ""


class TestSweep:
    def test_all_placements_verify(self, capsys):
        assert run_cli("sweep", "--format", "json") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["all_verified"] is True
        assert len(report["rows"]) == 8
        for row in report["rows"]:
            assert row["verified"] is True
            assert row["found"] == "10" + row["lower_target"]
            assert row["oracle_calls"] <= row["budget"]
            assert row["decoy"] != row["lower_target"]

    def test_csv_format(self, capsys):
        run_cli("sweep", "--format", "csv")
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "lower_target"
        assert len(rows) == 9

    def test_seed_determinism(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("sweep", "--seed", "7", "--format", "json", "--out", str(first))
        run_cli("sweep", "--seed", "7", "--format", "json", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_split_exits_one(self, capsys):
        assert run_cli("sweep", "--m", "3", "--g", "3") == EXIT_CONFIG_ERROR
        assert "1 <= g < m" in capsys.readouterr().err
