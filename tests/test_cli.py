"""Command line behavior: formats, exit codes, determinism, atomic output."""

import csv
import io
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtreesearch.cli as climod
import qtreesearch.config as configmod
import qtreesearch.runner as runmod
import qtreesearch.statevector as svmod
from qtreesearch.cli import main, render_json, render_run_text
from qtreesearch.errors import ConfigurationError
from qtreesearch.runner import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_UNVERIFIED, Histogram


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_main_builds_its_parser_once():
    climod._parser.cache_clear()
    assert run_cli("cost", "--m-range", "8", "--v-range", "2") == EXIT_OK
    assert run_cli("cost", "--m-range", "8", "--v-range", "4") == EXIT_OK
    assert climod._parser.cache_info().misses == 1
    # a direct call still builds a fresh parser
    assert climod.build_parser() is not climod.build_parser()


FIVE_QUBIT = (
    "strategy: {strategy}\nm: 5\ng: 3\nupper_oracle: [2, -1]\n"
    'lower_oracle: [3, -2, 1]\ncandidates: ["011", "101"]\n'
    "shots: 512\nseed: 5\n"
)


def _count_problems(monkeypatch):
    """Count the SearchProblems that validating a config builds."""
    built = []
    real = configmod.SearchProblem

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(configmod, "SearchProblem", counting)
    return built


class TestRun:
    @pytest.mark.parametrize(
        "argv, problems",
        [
            # the bundled config already asks for json and seed 17
            (("run", "--format", "json"), 1),
            (("run", "--format", "json", "--seed", "17"), 1),
            (("verify", "--seed", "17"), 1),
            # an override that changes a field is validated again
            (("run", "--format", "json", "--seed", "18"), 2),
            (("verify", "--seed", "18"), 2),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
    )
    def test_only_an_override_that_changes_a_field_revalidates(
        self, monkeypatch, tmp_path, argv, problems
    ):
        built = _count_problems(monkeypatch)
        command, *rest = argv
        out = str(tmp_path / "out")
        assert run_cli(command, "--config", "fig_a_basic_0", *rest, "--out", out) == EXIT_OK
        assert len(built) == problems

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

    def test_shots_override_samples_every_iterative_trial(self, capsys):
        run_cli("run", "--config", "fig_a_basic_4", "--shots", "8192", "--format", "json")
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["config"]["shots"] == artifact["config"]["shots_per_trial"] == 8192
        for histogram in [artifact["histogram"]] + [t["histogram"] for t in artifact["trials"]]:
            assert sum(e["count"] for e in histogram.values()) == 8192

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

    def test_disentangled_text_without_a_winner_reports_no_result(self, tmp_path, capsys):
        # m - g = 1: both blocks end at 0.5, below the decision threshold,
        # so no candidate is recovered and the run exits unverified
        config = write_config(
            tmp_path,
            "strategy: disentangled\nm: 4\ng: 3\nupper_oracle: [1]\n"
            'lower_oracle: [-3, 2, 1]\ncandidates: ["011", "101"]\n',
        )
        assert run_cli("run", "--config", config, "--format", "text") == EXIT_UNVERIFIED
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:4] == [
            "result: verified=false found=- (no winning block)",
            "winning block: None",
        ]

    def test_purity_cut_override(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            FIVE_QUBIT.format(strategy="product") + "purity_cuts: [[0, 1, 2], [3, 4]]\n",
        )
        run_cli("run", "--config", config, "--format", "json")
        artifact = json.loads(capsys.readouterr().out)
        cuts = {tuple(entry["qubits"]) for entry in artifact["purity"]}
        assert cuts == {(0, 1, 2), (3, 4)}

    def test_text_top_ten_equals_a_full_sort_with_ties(self, capsys):
        run_cli("run", "--config", "fig_a_basic_0", "--format", "json")
        artifact = json.loads(capsys.readouterr().out)
        # 6 labels tie at the top and 20 tie below them, so 4 of those 20
        # make the cut by label; the levels are shuffled over a sparse
        # support, so index order is not probability order
        levels = [0.05] * 6 + [0.025] * 20 + [0.0] * 6
        rng = random.Random(3)
        rng.shuffle(levels)
        support = sorted(rng.sample(range(64), 32))
        counts = [rng.randrange(100) for _ in support]
        artifact["histogram"] = Histogram(6, support, counts, levels)
        lines = render_run_text(artifact).splitlines()
        start = lines.index("histogram (top 10 by probability):") + 1
        labels = [format(i, "06b") for i in support]
        ranked = sorted(zip(labels, counts, levels), key=lambda row: (-row[2], row[0]))
        expected = [
            f"  {label}  count={count:<6d} probability={p:.9f}"
            for label, count, p in ranked[:10]
        ]
        assert lines[start : start + 10] == expected
        assert lines[start + 10].startswith("purity ")

    @pytest.mark.parametrize(
        "cut, fault",
        [
            ("[7]", "exceeds the 5-qubit state"),
            ("[0, 1, 2, 3, 4]", "covers the whole 5-qubit state"),
        ],
    )
    def test_oversized_purity_cut_rejected(self, tmp_path, capsys, cut, fault):
        config = write_config(
            tmp_path, FIVE_QUBIT.format(strategy="product") + f"purity_cuts: [{cut}]\n"
        )
        assert run_cli("run", "--config", config) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {config}: field 'purity_cuts': cut {cut} {fault}\n"
        )


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--m-range", "0"), "--m-range: expected one or more values of at least 1, got '0'"),
            # baseline rows never read v, yet v = 0 is still rejected
            (
                ("--v-range", "0", "--strategies", "baseline"),
                "--v-range: expected one or more values of at least 1, got '0'",
            ),
            (("--m-range", ","), "--m-range: expected one or more values of at least 1, got ','"),
            (("--strategies", ","), "--strategies: cost table needs a non-empty strategy list"),
        ],
    )
    def test_out_of_range_input_exits_one(self, argv, message, capsys):
        assert run_cli("cost", *argv) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "m, strategies", [("1024", "all"), ("1024", "baseline"), ("4092", "iterative")]
    )
    def test_overflowing_register_exits_one(self, m, strategies, capsys):
        # 2**1024 overflows a float in the baseline term; at m = 4092 the
        # iterative total is infinite, which JSON cannot carry
        code = run_cli(
            "cost", "--m-range", m, "--v-range", "1", "--strategies", strategies,
            "--format", "json",
        )
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert f"--m-range/--v-range: m={m} (with v=1) makes the" in captured.err
        assert captured.out == ""

    def test_widest_finite_register_still_tabulates(self, capsys):
        assert run_cli("cost", "--m-range", "1020", "--format", "json") == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {row["m"] for row in rows} == {1020}


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
        # g = 16 data qubits plus one flag for each of the five relabeling
        # swaps exceed the simulator's 20 qubits; nothing may be simulated first
        calls = []
        original = runmod.compacted_search_state

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runmod, "compacted_search_state", counted)
        config = write_config(
            tmp_path,
            "strategy: permutation\nm: 20\ng: 16\n"
            "upper_oracle: [4, -3, 2, -1]\n"
            "lower_oracle: [16, -15, 14, -13, 12, -11, 10, -9, 8, -7, 6, -5, 4, -3, 2, -1]\n"
            'candidates: ["0110101010110101", "1110101011001011", "1010101011110000",'
            ' "1101010101001100", "0011001100110011"]\n',
        )
        assert run_cli("verify", "--config", config) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {config}: field 'candidates': controlled-not check needs 21 qubits, "
            "limit is 20\n"
        )
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
    assert captured.err == "error: field 'seed': seed must be non-negative, got -1\n"
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

    def test_every_row_runs_through_the_strategy_registry(self, monkeypatch, capsys):
        rows = []
        real = runmod.STRATEGY_RUNS["iterative"]

        def recording(config, problem, counter):
            rows.append(config.candidates)
            return real(config, problem, counter)

        monkeypatch.setitem(runmod.STRATEGY_RUNS, "iterative", recording)
        assert run_cli("sweep", "--m", "4", "--g", "2", "--format", "json") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert rows == [(row["decoy"], row["lower_target"]) for row in report["rows"]]
        assert rows == [("11", "00"), ("10", "01"), ("01", "10"), ("00", "11")]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--m", "3", "--g", "3"), "field 'g': need 1 <= g < m, got g=3, m=3"),
            (("--g", "0"), "field 'g': need 1 <= g < m, got g=0, m=5"),
            (("--g", "-1"), "field 'g': need 1 <= g < m, got g=-1, m=5"),
            (("--m", "21", "--g", "10"), "field 'm': m=21 exceeds the 20-qubit limit"),
            (
                ("--shots", "0"),
                "field 'shots_per_trial': shots_per_trial must be at least 1, got 0",
            ),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
    )
    def test_bad_input_exits_one_before_any_row_runs(self, argv, message, monkeypatch, capsys):
        calls = []
        real = runmod.iterative_search

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runmod, "iterative_search", counted)
        assert run_cli("sweep", *argv) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []


# quote, backslash, control characters, U+2028, non-ASCII in and beyond the BMP
_SPECIAL_CHARS = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\u2028", "\u00e9", "\U0001f600"]
)
_TEXT = st.text(st.one_of(_SPECIAL_CHARS, st.characters()), max_size=8)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1]),
)
_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(-5, 5))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_PAYLOADS = st.recursive(
    st.one_of(
        _SCALARS,
        # dict leaves shaped like a histogram's, and look-alikes with other
        # value types (a bool count, an int probability)
        st.fixed_dictionaries({"count": _INTS, "probability": _FLOATS}),
        st.fixed_dictionaries({"count": _SCALARS, "probability": _SCALARS}),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


# a small pool repeats values across labels, as amplification does; -0.0
# must not share a leaf with 0.0
_PROBABILITY_POOL = (0.0, -0.0, 5e-324, 1e-12, 1 / 3, 0.5, 1.0)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _sparse_histograms(draw):
    """Up to 64 labels of any register width, counts and probabilities drawn apiece."""
    width = draw(st.integers(1, svmod.MAX_QUBITS))
    support = sorted(
        draw(
            st.one_of(
                st.sets(st.integers(0, 2**width - 1), max_size=48),
                st.just(range(min(2**width, 64))),
            )
        )
    )
    size = len(support)
    counts = draw(
        st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 2**62)), min_size=size, max_size=size
        )
    )
    probabilities = draw(
        st.one_of(
            st.lists(st.sampled_from(_PROBABILITY_POOL), min_size=size, max_size=size),
            st.lists(_FINITE, min_size=size, max_size=size, unique=True),
        )
    )
    return Histogram(width, support, counts, probabilities)


@st.composite
def _crowded_histograms(draw):
    """1000 or more labels over a handful of counts and probabilities, the
    shape of an amplified run's histogram over 2**16 labels."""
    width = draw(st.integers(11, 16))
    size = draw(st.integers(1000, 1500))
    counts = draw(
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**62)), min_size=1, max_size=5)
    )
    probabilities = draw(
        st.lists(st.one_of(st.sampled_from(_PROBABILITY_POOL), _FINITE), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Histogram(
        width,
        np.sort(rng.choice(2**width, size, replace=False)),
        rng.choice(np.array(counts, dtype=np.int64), size),
        rng.choice(np.array(probabilities, dtype=np.float64), size),
    )


def _histograms():
    return st.one_of(_sparse_histograms(), _crowded_histograms())


_WITH_HISTOGRAMS = st.one_of(
    st.recursive(
        st.one_of(_SCALARS, _histograms()),
        lambda children: st.one_of(
            st.lists(children, max_size=3), st.dictionaries(_TEXT, children, max_size=3)
        ),
        max_leaves=8,
    ),
    # an artifact's shape: the top-level histogram and one per trial
    st.fixed_dictionaries(
        {
            "histogram": _histograms(),
            "trials": st.lists(
                st.fixed_dictionaries({"histogram": _histograms(), "accepted": st.booleans()}),
                max_size=3,
            ),
        }
    ),
)


def _blocks(value, size):
    """Blocks of at most ``size`` labels over every Histogram in ``value``."""
    if isinstance(value, Histogram):
        return -(-value.support.size // size)
    if isinstance(value, list):
        return sum(_blocks(item, size) for item in value)
    if isinstance(value, dict):
        return sum(_blocks(item, size) for item in value.values())
    return 0


def _dict_form(value):
    """``value`` with every Histogram replaced by its label-keyed dict."""
    if isinstance(value, Histogram):
        return {
            format(index, f"0{value.num_qubits}b"): {"count": count, "probability": p}
            for index, count, p in zip(
                value.support.tolist(), value.counts.tolist(), value.probabilities.tolist()
            )
        }
    if isinstance(value, list):
        return [_dict_form(item) for item in value]
    if isinstance(value, dict):
        return {key: _dict_form(item) for key, item in value.items()}
    return value


class TestRenderJson:
    @given(_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert render_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @given(_WITH_HISTOGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_histograms_match_json_dumps_of_their_dict_form(self, payload):
        expected = json.dumps(_dict_form(payload), indent=2, sort_keys=True) + "\n"
        assert render_json(payload) == expected

    @given(_WITH_HISTOGRAMS)
    @settings(max_examples=100, deadline=None)
    def test_pieces_join_to_the_whole_text_at_any_block_size(self, payload):
        whole = render_json(payload)
        for block in (1, 2, 3, climod._HISTOGRAM_BLOCK):
            pieces = []
            with mock.patch.object(climod, "_HISTOGRAM_BLOCK", block):
                assert render_json(payload, pieces.append) is None
            assert "".join(pieces) == whole
            # one piece per block of labels, each with the text pending
            # before it, and one for the text after the last block
            assert len(pieces) == 1 + _blocks(payload, block)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_names_its_key_path(self, bad):
        payload = {"trials": [{"histogram": {"01": {"count": 1, "probability": bad}}}]}
        path = r"at trials\[0\]\.histogram\.01\.probability "
        with pytest.raises(ConfigurationError, match=path):
            render_json(payload)
        with pytest.raises(ConfigurationError, match=r"at cost\.total "):
            render_json({"cost": {"total": bad, "m": 4}})
        with pytest.raises(ConfigurationError, match="at the top level"):
            render_json(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_histogram_probability_names_its_label(self, bad):
        # two bad values: the first in label order is the one named, as
        # json.dumps of the dict form would meet it first
        histogram = Histogram(2, [0, 1, 3], [1, 2, 3], [0.5, bad, float("nan")])
        path = r"at trials\[0\]\.histogram\.01\.probability "
        with pytest.raises(ConfigurationError, match=path):
            render_json({"trials": [{"histogram": histogram}]})

    def test_non_finite_artifact_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(
            climod, "run_experiment", lambda config: ({"purity": [float("nan")]}, EXIT_OK)
        )
        code = run_cli("run", "--config", "fig_a_basic_0", "--format", "json")
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert "at purity[0] as JSON" in captured.err
        assert captured.out == ""

    @pytest.fixture
    def later_nan(self, monkeypatch):
        """A run whose first histogram is fine and whose trial's holds a NaN,
        rendered a label at a time; yields the pieces that reached the file."""
        good = Histogram(3, [0, 2, 5, 7], [1, 0, 3, 0], [0.25, 0.25, 0.5, 0.0])
        bad = Histogram(3, [1, 6], [2, 2], [0.5, float("nan")])
        artifact = {"histogram": good, "trials": [{"histogram": bad}]}
        monkeypatch.setattr(climod, "run_experiment", lambda config: (artifact, EXIT_OK))
        monkeypatch.setattr(climod, "_HISTOGRAM_BLOCK", 1)
        written = []

        def recording(text, stream):
            written.append(text)
            stream.write(text)

        monkeypatch.setattr(climod, "write_output", recording)
        return written

    def test_later_nan_with_out_exits_one_keeping_the_old_file(
        self, later_nan, tmp_path, capsys
    ):
        out = tmp_path / "artifact.json"
        out.write_bytes(b"old bytes")
        code = run_cli("run", "--config", "fig_a_basic_0", "--format", "json", "--out", str(out))
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot write nan at trials[0].histogram.110.probability as JSON: "
            "not a finite number\n"
        )
        assert captured.out == ""
        # the first histogram was streamed before the NaN was met
        assert len(later_nan) == 4
        assert out.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_later_nan_without_out_prints_nothing(self, later_nan, capsys):
        code = run_cli("run", "--config", "fig_a_basic_0", "--format", "json")
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "at trials[0].histogram.110.probability as JSON" in captured.err
        assert captured.out == ""
        assert later_nan == []

    @pytest.mark.parametrize(
        "payload",
        [
            {1: "a"},
            {"a": {None: 1}},
            {"a": {1, 2}},
            [np.float32(1.0)],
            {"a": np.int64(3)},
            b"x",
        ],
        ids=["int-key", "none-key", "set", "float32", "int64", "bytes"],
    )
    def test_other_types_raise_type_error(self, payload):
        with pytest.raises(TypeError):
            render_json(payload)
