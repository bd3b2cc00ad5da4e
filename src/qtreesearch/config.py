"""Experiment configuration: file loading, field validation, bundled presets.

Configs are flat YAML (JSON parses too, being a YAML subset). Bit-strings
must be quoted in YAML, otherwise they resolve as numbers. Unknown keys are
rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigurationError, ValidationError
from .oracles import ConcatenatedOracle, ConjunctionOracle, PartialCandidateSet
from .permutation import CONVENTIONS
from .statevector import MAX_QUBITS
from .strategies import SearchProblem

STRATEGY_CHOICES = ("product", "entangled", "iterative", "disentangled", "permutation")
OUTPUT_FORMATS = ("json", "csv", "text")
PREP_CHOICES = ("grover", "basis")

_REQUIRED_KEYS = ("strategy", "m", "g", "upper_oracle", "lower_oracle", "candidates")
_OPTIONAL_KEYS = (
    "v",
    "shots",
    "seed",
    "format",
    "prep",
    "convention",
    "shots_per_trial",
    "purity_cuts",
    "name",
    "description",
    "endianness",
)


def _field_error(source: str, name: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{source}: field {name!r}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a search problem plus execution and output settings."""

    strategy: str
    m: int
    g: int
    upper_oracle: tuple[int, ...]
    lower_oracle: tuple[int, ...]
    candidates: tuple[str, ...]
    shots: int = 1024
    seed: int = 0
    format: str = "json"
    prep: str = "grover"
    convention: str = "little_endian"
    shots_per_trial: int = 256
    purity_cuts: tuple[tuple[int, ...], ...] = ()
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_CHOICES:
            raise ConfigurationError(
                f"strategy must be one of {STRATEGY_CHOICES}, got {self.strategy!r}"
            )
        if not 1 <= self.g < self.m:
            raise ConfigurationError(f"need 1 <= g < m, got g={self.g}, m={self.m}")
        if self.m > MAX_QUBITS:
            raise ConfigurationError(f"m={self.m} exceeds the {MAX_QUBITS}-qubit limit")
        if self.shots < 1:
            raise ConfigurationError(f"shots must be at least 1, got {self.shots}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.shots_per_trial < 1:
            raise ConfigurationError(
                f"shots_per_trial must be at least 1, got {self.shots_per_trial}"
            )
        if self.format not in OUTPUT_FORMATS:
            raise ConfigurationError(
                f"format must be one of {OUTPUT_FORMATS}, got {self.format!r}"
            )
        if self.prep not in PREP_CHOICES:
            raise ConfigurationError(
                f"prep must be one of {PREP_CHOICES}, got {self.prep!r}"
            )
        if self.convention not in CONVENTIONS:
            raise ConfigurationError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )
        if not self.candidates:
            raise ConfigurationError("candidates must be a non-empty list")
        for bits in self.candidates:
            if len(bits) != self.g:
                raise ConfigurationError(
                    f"candidate {bits!r} has width {len(bits)}, expected g={self.g}"
                )
        for cut in self.purity_cuts:
            if not cut or any(q < 0 for q in cut):
                raise ConfigurationError(f"purity cut {cut} is not a valid qubit list")
            if len(set(cut)) != len(cut):
                raise ConfigurationError(f"purity cut {cut} repeats a qubit")
            if any(hi <= lo for lo, hi in zip(cut, cut[1:])):
                raise ConfigurationError(
                    f"field 'purity_cuts': cut {list(cut)} must list its qubits in "
                    "increasing order"
                )

    @property
    def v(self) -> int:
        return len(self.candidates)

    def problem(self) -> SearchProblem:
        upper = ConjunctionOracle.from_signed_literals(
            self.upper_oracle, width=self.m - self.g
        )
        lower = ConjunctionOracle.from_signed_literals(self.lower_oracle, width=self.g)
        return SearchProblem(
            global_oracle=ConcatenatedOracle(upper=upper, lower=lower),
            candidates=PartialCandidateSet.from_strings(self.candidates),
        )

    def to_dict(self) -> dict:
        """Echo for reports; bit order is stated explicitly."""
        data = dataclasses.asdict(self)
        data["upper_oracle"] = list(self.upper_oracle)
        data["lower_oracle"] = list(self.lower_oracle)
        data["candidates"] = list(self.candidates)
        data["purity_cuts"] = [list(cut) for cut in self.purity_cuts]
        data["v"] = self.v
        data["endianness"] = "little"
        return data


def _as_int(source: str, name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _field_error(source, name, f"expected an integer, got {value!r}")
    return value


def _as_literals(source: str, name: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _field_error(source, name, "expected a non-empty list of signed literals")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise _field_error(source, name, f"literal {item!r} is not an integer")
        out.append(item)
    return tuple(out)


def _as_bit_strings(source: str, name: str, value) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _field_error(source, name, "expected a non-empty list of bit-strings")
    out = []
    for item in value:
        if not isinstance(item, str):
            raise _field_error(
                source,
                name,
                f"entry {item!r} is not a string (quote bit-strings in YAML)",
            )
        out.append(item)
    return tuple(out)


def config_from_mapping(data, source: str = "<memory>") -> ExperimentConfig:
    """Build and validate a config from a parsed mapping."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{source}: expected a mapping at the top level")
    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"{source}: unknown keys {unknown}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ConfigurationError(f"{source}: missing required keys {missing}")

    if "endianness" in data and data["endianness"] != "little":
        raise _field_error(source, "endianness", "only 'little' is supported")

    kwargs = {
        "strategy": data["strategy"],
        "m": _as_int(source, "m", data["m"]),
        "g": _as_int(source, "g", data["g"]),
        "upper_oracle": _as_literals(source, "upper_oracle", data["upper_oracle"]),
        "lower_oracle": _as_literals(source, "lower_oracle", data["lower_oracle"]),
        "candidates": _as_bit_strings(source, "candidates", data["candidates"]),
    }
    for key in ("shots", "seed", "shots_per_trial"):
        if key in data:
            kwargs[key] = _as_int(source, key, data[key])
    for key in ("format", "prep", "convention", "name", "description"):
        if key in data:
            value = data[key]
            if not isinstance(value, str):
                raise _field_error(source, key, f"expected a string, got {value!r}")
            kwargs[key] = value
    if "purity_cuts" in data:
        cuts = data["purity_cuts"]
        if not isinstance(cuts, (list, tuple)):
            raise _field_error(source, "purity_cuts", "expected a list of qubit lists")
        normalized = []
        for cut in cuts:
            if not isinstance(cut, (list, tuple)):
                raise _field_error(
                    source, "purity_cuts", f"cut {cut!r} is not a qubit list"
                )
            normalized.append(tuple(_as_int(source, "purity_cuts", q) for q in cut))
        kwargs["purity_cuts"] = tuple(normalized)

    try:
        config = ExperimentConfig(**kwargs)
    except (ConfigurationError, ValidationError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc
    if "v" in data:
        declared = _as_int(source, "v", data["v"])
        if declared != config.v:
            raise _field_error(
                source, "v", f"declared {declared} but {config.v} candidates given"
            )
    try:
        config.problem()
    except (ConfigurationError, ValidationError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc
    return config


def load_config(path) -> ExperimentConfig:
    """Parse a YAML or JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: parse error: {exc}") from exc
    return config_from_mapping(data, source=str(path))


def bundled_config_dir() -> Path:
    return Path(__file__).resolve().parent / "configs"


def bundled_configs() -> dict[str, Path]:
    """Name to path for every preset shipped with the package."""
    directory = bundled_config_dir()
    return {path.stem: path for path in sorted(directory.glob("*.yaml"))}


def resolve_config(reference: str) -> Path:
    """Accept either a bundled preset name or a filesystem path."""
    bundled = bundled_configs()
    if reference in bundled:
        return bundled[reference]
    path = Path(reference)
    if path.exists():
        return path
    raise ConfigurationError(
        f"{reference!r} is neither a bundled config {sorted(bundled)} nor a file"
    )
