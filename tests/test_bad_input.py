"""Bad input: every faulty config, override and sweep flag exits 1 with one
field-level line, before any strategy runs."""

import json

import pytest

import qtreesearch.runner as runmod
from qtreesearch.cli import main
from qtreesearch.config import config_from_mapping
from qtreesearch.runner import EXIT_CONFIG_ERROR

PRODUCT = {
    "strategy": "product",
    "m": 5,
    "g": 3,
    "upper_oracle": [2, -1],
    "lower_oracle": [3, -2, 1],
    "candidates": ["011", "101"],
}
DISENTANGLED = dict(
    PRODUCT, strategy="disentangled", m=6, upper_oracle=[-3, -2, 1], lower_oracle=[-3, 2, 1]
)
WIDE_ENTANGLED = {
    "strategy": "entangled",
    "m": 20,
    "g": 10,
    "upper_oracle": [10, -9, 8, -7, 6, -5, 4, -3, 2, -1],
    "lower_oracle": [-10, 9, -8, 7, -6, 5, -4, 3, -2, 1],
    "candidates": ["0000000011", "0101010101", "1111100000", "1010101010"],
}
TOO_MANY_SHOTS = 100000000000000000000

# (base config, changed fields, field named in the message, message)
BAD_CONFIGS = {
    "strategy-unknown": (
        PRODUCT, {"strategy": "warp"}, "strategy",
        "strategy must be one of ('product', 'entangled', 'iterative', 'disentangled', "
        "'permutation'), got 'warp'",
    ),
    "m-not-an-integer": (PRODUCT, {"m": "five"}, "m", "expected an integer, got 'five'"),
    "m-too-wide": (PRODUCT, {"m": 21}, "m", "m=21 exceeds the 20-qubit limit"),
    "g-bool": (PRODUCT, {"g": True}, "g", "expected an integer, got True"),
    "g-not-below-m": (PRODUCT, {"g": 5}, "g", "need 1 <= g < m, got g=5, m=5"),
    "upper-empty": (
        PRODUCT, {"upper_oracle": []}, "upper_oracle",
        "expected a non-empty list of signed literals",
    ),
    "upper-outside-width": (
        PRODUCT, {"upper_oracle": [4, -1]}, "upper_oracle", "literal positions [3] outside width 2"
    ),
    "upper-zero-literal": (
        PRODUCT, {"upper_oracle": [2, 0]}, "upper_oracle",
        "signed literal must be a nonzero int, got 0",
    ),
    "upper-partial": (
        PRODUCT, {"upper_oracle": [2]}, "upper_oracle",
        "both halves of a concatenated oracle must mark exactly one string",
    ),
    "lower-float-literal": (
        PRODUCT, {"lower_oracle": [3, -2, 1.5]}, "lower_oracle", "literal 1.5 is not an integer"
    ),
    "lower-repeated-position": (
        PRODUCT, {"lower_oracle": [3, -3, 1]}, "lower_oracle",
        "duplicate literal positions: [0, 2, 2]",
    ),
    "lower-partial": (
        PRODUCT, {"lower_oracle": [3, -2]}, "lower_oracle",
        "both halves of a concatenated oracle must mark exactly one string",
    ),
    "candidates-empty": (
        PRODUCT, {"candidates": []}, "candidates", "expected a non-empty list of bit-strings"
    ),
    "candidates-unquoted": (
        PRODUCT, {"candidates": [11, 101]}, "candidates",
        "entry 11 is not a string (quote bit-strings in YAML)",
    ),
    "candidates-narrow": (
        PRODUCT, {"candidates": ["01", "10"]}, "candidates",
        "candidate '01' has width 2, expected g=3",
    ),
    "candidates-not-binary": (
        PRODUCT, {"candidates": ["0a1"]}, "candidates",
        "bit-string must contain only '0'/'1': '0a1'",
    ),
    "candidates-repeated": (
        PRODUCT, {"candidates": ["011", "011"]}, "candidates", "duplicate candidates: (3, 3)"
    ),
    "candidates-entangled-no-match": (
        PRODUCT, {"strategy": "entangled", "candidates": ["000", "110"]}, "candidates",
        "the oracle's lower string is not among the candidates",
    ),
    "candidates-disentangled-single": (
        DISENTANGLED, {"candidates": ["011"]}, "candidates",
        "block scoring needs at least two candidates",
    ),
    "candidates-disentangled-too-wide": (
        DISENTANGLED, {"candidates": ["000", "001", "010", "011", "100"]}, "candidates",
        "composite register of 23 qubits exceeds the 20-qubit cap",
    ),
    "shots-zero": (PRODUCT, {"shots": 0}, "shots", "shots must be at least 1, got 0"),
    "shots-beyond-int64": (
        PRODUCT, {"shots": TOO_MANY_SHOTS}, "shots",
        f"shots must be at most 9223372036854775807, got {TOO_MANY_SHOTS}",
    ),
    "shots_per_trial-beyond-int64": (
        PRODUCT, {"strategy": "iterative", "shots_per_trial": TOO_MANY_SHOTS}, "shots_per_trial",
        f"shots_per_trial must be at most 9223372036854775807, got {TOO_MANY_SHOTS}",
    ),
    "seed-negative": (PRODUCT, {"seed": -1}, "seed", "seed must be non-negative, got -1"),
    "format-unknown": (
        PRODUCT, {"format": "xml"}, "format",
        "format must be one of ('json', 'csv', 'text'), got 'xml'",
    ),
    "prep-unknown": (
        PRODUCT, {"prep": "magic"}, "prep", "prep must be one of ('grover', 'basis'), got 'magic'"
    ),
    "convention-unknown": (
        PRODUCT, {"convention": "big_endian"}, "convention",
        "convention must be one of ('standard', 'little_endian'), got 'big_endian'",
    ),
    "name-not-a-string": (PRODUCT, {"name": 5}, "name", "expected a string, got 5"),
    "purity_cuts-not-a-list": (
        PRODUCT, {"purity_cuts": "all"}, "purity_cuts", "expected a list of qubit lists"
    ),
    "purity_cuts-unsorted": (
        PRODUCT, {"purity_cuts": [[2, 0]]}, "purity_cuts",
        "cut [2, 0] must list its qubits in increasing order",
    ),
    "purity_cuts-beyond-state": (
        PRODUCT, {"purity_cuts": [[7]]}, "purity_cuts", "cut [7] exceeds the 5-qubit state"
    ),
    "purity_cuts-whole-state": (
        PRODUCT, {"purity_cuts": [[0, 1, 2, 3, 4]]}, "purity_cuts",
        "cut [0, 1, 2, 3, 4] covers the whole 5-qubit state",
    ),
    "purity_cuts-beyond-composite": (
        DISENTANGLED, {"purity_cuts": [[11]]}, "purity_cuts",
        "cut [11] exceeds the 11-qubit state",
    ),
    "purity_cuts-beyond-wide-state": (
        WIDE_ENTANGLED, {"purity_cuts": [[25]]}, "purity_cuts",
        "cut [25] exceeds the 20-qubit state",
    ),
    "v-mismatch": (PRODUCT, {"v": 3}, "v", "declared 3 but 2 candidates given"),
    "v-not-an-integer": (PRODUCT, {"v": "2"}, "v", "expected an integer, got '2'"),
    "endianness-big": (
        PRODUCT, {"endianness": "big"}, "endianness", "only 'little' is supported"
    ),
}

# (argv, field named in the message, message); no file is named
BAD_OVERRIDES = {
    "run-shots-zero": (
        ("run", "--config", "fig_a_basic_0", "--shots", "0"),
        "shots", "shots must be at least 1, got 0",
    ),
    "run-shots-beyond-int64": (
        ("run", "--config", "fig_a_basic_0", "--shots", str(TOO_MANY_SHOTS)),
        "shots", f"shots must be at most 9223372036854775807, got {TOO_MANY_SHOTS}",
    ),
    "verify-seed-negative": (
        ("verify", "--config", "fig_a_basic_4", "--seed", "-1"),
        "seed", "seed must be non-negative, got -1",
    ),
    "sweep-m-too-wide": (
        ("sweep", "--m", "21", "--g", "10"), "m", "m=21 exceeds the 20-qubit limit"
    ),
    "sweep-shots-beyond-int64": (
        ("sweep", "--shots", str(TOO_MANY_SHOTS)),
        "shots_per_trial",
        f"shots_per_trial must be at most 9223372036854775807, got {TOO_MANY_SHOTS}",
    ),
}


@pytest.fixture
def strategy_calls(monkeypatch):
    """Every call of a ``STRATEGY_RUNS`` entry, by strategy name."""
    calls = []
    for name, entry in runmod.STRATEGY_RUNS.items():

        def recording(*args, name=name, entry=entry):
            calls.append(name)
            return entry(*args)

        monkeypatch.setitem(runmod.STRATEGY_RUNS, name, recording)
    return calls


def _exits_one_with(argv, line, capsys, strategy_calls):
    assert main(list(argv)) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n"
    assert captured.out == ""
    assert strategy_calls == []


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_one_naming_file_and_field(
    case, command, tmp_path, capsys, strategy_calls
):
    base, changes, field, message = BAD_CONFIGS[case]
    path = tmp_path / "bad.yaml"
    path.write_text(json.dumps(dict(base, **changes)))
    _exits_one_with(
        (command, "--config", str(path)),
        f"{path}: field {field!r}: {message}",
        capsys,
        strategy_calls,
    )


@pytest.mark.parametrize("case", sorted(BAD_OVERRIDES))
def test_bad_override_exits_one_naming_the_field(case, capsys, strategy_calls):
    argv, field, message = BAD_OVERRIDES[case]
    _exits_one_with(argv, f"field {field!r}: {message}", capsys, strategy_calls)


@pytest.mark.parametrize("base", [PRODUCT, DISENTANGLED, WIDE_ENTANGLED])
def test_each_fault_is_the_only_one(base):
    # the bases are valid, so each case above has exactly one bad field
    config = config_from_mapping(base)
    assert config.problem() is config.problem()
