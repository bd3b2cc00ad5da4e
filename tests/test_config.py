"""Config parsing, validation diagnostics, and bundled presets."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from qtreesearch.config import (
    ExperimentConfig,
    STRATEGY_CHOICES,
    _UniqueKeyLoader,
    bundled_configs,
    config_from_mapping,
    load_config,
    resolve_config,
)
from qtreesearch.errors import ConfigurationError

MINIMAL = {
    "strategy": "product",
    "m": 5,
    "g": 3,
    "upper_oracle": [2, -1],
    "lower_oracle": [3, -2, 1],
    "candidates": ["011", "101"],
}


def test_minimal_mapping_defaults():
    config = config_from_mapping(dict(MINIMAL))
    assert config.shots == 1024
    assert config.seed == 0
    assert config.format == "json"
    assert config.prep == "grover"
    assert config.convention == "little_endian"
    assert config.shots_per_trial == 256
    assert config.v == 2


def test_echo_carries_endianness_and_v():
    config = config_from_mapping(dict(MINIMAL))
    echo = config.to_dict()
    assert echo["endianness"] == "little"
    assert echo["v"] == 2
    assert echo["candidates"] == ["011", "101"]


def test_problem_construction():
    config = config_from_mapping(dict(MINIMAL))
    problem = config.problem()
    assert problem.m == 5
    assert problem.g == 3
    assert np.flatnonzero(problem.global_oracle.mask()).tolist() == [0b10101]
    # built once, when the config was validated
    assert config.problem() is problem


def test_problem_stays_out_of_the_echo():
    config = config_from_mapping(dict(MINIMAL))
    assert "_problem" not in dataclasses.asdict(config)
    assert "_problem" not in config.to_dict()
    assert config == config_from_mapping(dict(MINIMAL))


def test_declared_v_must_match():
    data = dict(MINIMAL, v=3)
    with pytest.raises(ConfigurationError, match="field 'v'"):
        config_from_mapping(data)


def test_declared_v_accepted_when_consistent():
    assert config_from_mapping(dict(MINIMAL, v=2)).v == 2


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        config_from_mapping(dict(MINIMAL, qubits=7))


def test_unknown_keys_of_mixed_types_rejected():
    # a YAML key may parse as a number; the message still lists every key
    with pytest.raises(ConfigurationError) as caught:
        config_from_mapping({**MINIMAL, 1: 0, "qubits": 7})
    assert str(caught.value) == "<memory>: unknown keys [1, 'qubits']"


def test_missing_keys_named():
    data = dict(MINIMAL)
    del data["lower_oracle"]
    with pytest.raises(ConfigurationError, match="lower_oracle"):
        config_from_mapping(data)


def test_unquoted_bit_strings_get_a_hint():
    data = dict(MINIMAL, candidates=[11, 101])
    with pytest.raises(ConfigurationError, match="quote bit-strings"):
        config_from_mapping(data)


def test_bad_strategy_lists_choices():
    data = dict(MINIMAL, strategy="warp")
    with pytest.raises(ConfigurationError, match="strategy"):
        config_from_mapping(data)


def test_split_bounds_checked():
    with pytest.raises(ConfigurationError, match="1 <= g < m"):
        config_from_mapping(dict(MINIMAL, g=5))


def test_candidate_width_checked():
    data = dict(MINIMAL, candidates=["01", "10"])
    with pytest.raises(ConfigurationError, match="width"):
        config_from_mapping(data)


def test_oracle_width_mismatch_surfaces_with_source():
    data = dict(MINIMAL, upper_oracle=[4, -1])
    with pytest.raises(ConfigurationError, match="<memory>"):
        config_from_mapping(data)


def test_endianness_must_be_little():
    data = dict(MINIMAL, endianness="big")
    with pytest.raises(ConfigurationError, match="endianness"):
        config_from_mapping(data)


def test_zero_shots_rejected():
    with pytest.raises(ConfigurationError, match="shots"):
        config_from_mapping(dict(MINIMAL, shots=0))


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError) as caught:
        config_from_mapping(dict(MINIMAL, seed=-1))
    assert str(caught.value) == "<memory>: field 'seed': seed must be non-negative, got -1"


def test_negative_seed_override_rejected():
    # the run and verify --seed overrides replace the field on a loaded config
    config = config_from_mapping(dict(MINIMAL))
    with pytest.raises(ConfigurationError) as caught:
        dataclasses.replace(config, seed=-3)
    assert str(caught.value) == "field 'seed': seed must be non-negative, got -3"


def test_lists_are_kept_as_tuples():
    config = ExperimentConfig(
        strategy="product", m=5, g=3, upper_oracle=[2, -1], lower_oracle=[3, -2, 1],
        candidates=["011", "101"], purity_cuts=[[0, 1]],
    )
    assert config.upper_oracle == (2, -1)
    assert config.candidates == ("011", "101")
    assert config.purity_cuts == ((0, 1),)
    assert config == config_from_mapping(dict(MINIMAL, purity_cuts=[[0, 1]]))


def test_bool_not_accepted_as_int():
    with pytest.raises(ConfigurationError, match="integer"):
        config_from_mapping(dict(MINIMAL, seed=True))


def test_purity_cuts_normalized():
    config = config_from_mapping(dict(MINIMAL, purity_cuts=[[0, 1], [2]]))
    assert config.purity_cuts == ((0, 1), (2,))


@pytest.mark.parametrize(
    "cut, fault",
    [([], "is empty"), ([-1], "names a negative qubit"), ([1, 1], "repeats a qubit")],
)
def test_bad_purity_cut_names_the_field_and_the_cut(cut, fault):
    with pytest.raises(ConfigurationError) as caught:
        config_from_mapping(dict(MINIMAL, purity_cuts=[cut]))
    assert str(caught.value).endswith(f"field 'purity_cuts': cut {cut} {fault}")


def test_unsorted_purity_cut_rejected_at_load(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(json.dumps(dict(MINIMAL, purity_cuts=[[0, 1], [2, 0]])))
    with pytest.raises(ConfigurationError) as caught:
        load_config(path)
    assert str(caught.value) == (
        f"{path}: field 'purity_cuts': cut [2, 0] must list its qubits in increasing order"
    )


def test_top_level_must_be_mapping():
    with pytest.raises(ConfigurationError, match="mapping"):
        config_from_mapping(["not", "a", "mapping"])


def test_load_yaml_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "strategy: product\nm: 5\ng: 3\nupper_oracle: [2, -1]\n"
        'lower_oracle: [3, -2, 1]\ncandidates: ["011", "101"]\nseed: 9\n'
    )
    config = load_config(path)
    assert config.seed == 9
    assert config.strategy == "product"


def test_load_json_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(MINIMAL))
    assert load_config(path).m == 5
    if yaml.__with_libyaml__:
        # libyaml parses, and it takes JSON indented with tabs
        assert issubclass(_UniqueKeyLoader, yaml.CSafeLoader)
        path.write_text(json.dumps(MINIMAL, indent="\t"))
        assert load_config(path) == config_from_mapping(MINIMAL)


def test_parse_error_reports_path(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("strategy: product\ncandidates: [unclosed\n")
    with pytest.raises(ConfigurationError) as caught:
        load_config(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: parse error at line 3, column 1: ")
    assert "\n" not in message


def test_missing_file_reported():
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config("/nonexistent/config.yaml")


class TestBundled:
    def test_five_presets_exist(self):
        names = set(bundled_configs())
        assert names == {
            "fig_a_basic_0",
            "fig_a_basic_2",
            "fig_a_basic_4",
            "fig_a_basic_10",
            "fig_d_el_v_3_6",
        }

    def test_all_parse_and_stay_small(self):
        for name, path in bundled_configs().items():
            config = load_config(path)
            assert config.name == name
            assert config.m <= 6
            assert config.seed == 17

    def test_every_strategy_covered(self):
        strategies = {
            load_config(path).strategy for path in bundled_configs().values()
        }
        assert strategies == set(STRATEGY_CHOICES)

    def test_resolve_by_name_and_path(self, tmp_path):
        by_name = resolve_config("fig_a_basic_0")
        assert by_name.name == "fig_a_basic_0.yaml"
        path = tmp_path / "own.yaml"
        path.write_text("strategy: product\n")
        assert resolve_config(str(path)) == path

    def test_bundled_name_wins_over_a_file_and_a_separator_makes_a_path(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        Path("fig_a_basic_0").write_text("strategy: product\n")
        assert resolve_config("fig_a_basic_0") == bundled_configs()["fig_a_basic_0"]
        assert resolve_config("./fig_a_basic_0") == Path("fig_a_basic_0")
        # relative to the bundled directory this names a preset, but it is a path
        with pytest.raises(ConfigurationError, match="neither a bundled config"):
            resolve_config("../configs/fig_a_basic_0")

    def test_resolve_unknown(self):
        with pytest.raises(ConfigurationError) as caught:
            resolve_config("fig_nonexistent")
        assert str(caught.value) == (
            f"'fig_nonexistent' is neither a bundled config {sorted(bundled_configs())} "
            "nor a file"
        )
