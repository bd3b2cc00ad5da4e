"""Experiment configuration: file loading, field validation, bundled presets.

Configs are flat YAML (JSON parses too, being a YAML subset). Bit-strings
must be quoted in YAML, otherwise they resolve as numbers. Unknown keys are
rejected so typos fail loudly instead of silently using defaults.

``ExperimentConfig`` is the one validator. Building one checks every
field's type and value, builds the search problem, and checks the width of
the simulated register and every purity cut against it, so a config that
exists can run; each fault is raised as ``field '<name>': <fault>``.
``config_from_mapping`` adds only the checks on the mapping itself and the
source prefix.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigurationError, PreconditionError, ValidationError
from .oracles import ConcatenatedOracle, ConjunctionOracle, PartialCandidateSet
from .permutation import CONVENTIONS
from .statevector import MAX_QUBITS
from .strategies import SearchProblem, disentangled_layout, require_matching_candidate

STRATEGY_CHOICES = ("product", "entangled", "iterative", "disentangled", "permutation")
OUTPUT_FORMATS = ("json", "csv", "text")
PREP_CHOICES = ("grover", "basis")
# numpy draws multinomial counts as int64
MAX_SHOTS = int(np.iinfo(np.int64).max)

_CHOICES = {
    "strategy": STRATEGY_CHOICES,
    "format": OUTPUT_FORMATS,
    "prep": PREP_CHOICES,
    "convention": CONVENTIONS,
}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@contextmanager
def _field(name: str):
    """Raise any fault found inside the block as a fault of field ``name``."""
    try:
        yield
    except (ConfigurationError, ValidationError, PreconditionError) as exc:
        raise ConfigurationError(f"field {name!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a search problem plus execution and output settings.

    List fields may be given as lists and are kept as tuples. The search
    problem is built once, here, and ``problem()`` returns it.
    """

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
        for name in ("strategy", "format", "prep", "convention", "name", "description"):
            value = getattr(self, name)
            with _field(name):
                if not isinstance(value, str):
                    raise ConfigurationError(f"expected a string, got {value!r}")
                if name in _CHOICES and value not in _CHOICES[name]:
                    raise ConfigurationError(
                        f"{name} must be one of {_CHOICES[name]}, got {value!r}"
                    )
        for name in ("m", "g", "shots", "seed", "shots_per_trial"):
            value = getattr(self, name)
            with _field(name):
                if not _is_integer(value):
                    raise ConfigurationError(f"expected an integer, got {value!r}")
                if name in ("shots", "shots_per_trial") and not 1 <= value <= MAX_SHOTS:
                    bound = "at least 1" if value < 1 else f"at most {MAX_SHOTS}"
                    raise ConfigurationError(f"{name} must be {bound}, got {value}")
        with _field("g"):
            if not 1 <= self.g < self.m:
                raise ConfigurationError(f"need 1 <= g < m, got g={self.g}, m={self.m}")
        with _field("m"):
            if self.m > MAX_QUBITS:
                raise ConfigurationError(f"m={self.m} exceeds the {MAX_QUBITS}-qubit limit")
        with _field("seed"):
            if self.seed < 0:
                raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

        upper = self._half("upper_oracle", self.m - self.g)
        lower = self._half("lower_oracle", self.g)
        with _field("upper_oracle" if upper.marked_count != 1 else "lower_oracle"):
            global_oracle = ConcatenatedOracle(upper=upper, lower=lower)
        with _field("candidates"):
            for bits in self._as_tuple("candidates", "bit-strings"):
                if not isinstance(bits, str):
                    raise ConfigurationError(
                        f"entry {bits!r} is not a string (quote bit-strings in YAML)"
                    )
                if len(bits) != self.g:
                    raise ConfigurationError(
                        f"candidate {bits!r} has width {len(bits)}, expected g={self.g}"
                    )
            problem = SearchProblem(
                global_oracle=global_oracle,
                candidates=PartialCandidateSet.from_strings(self.candidates),
            )
            width = self.m
            if self.strategy == "entangled":
                require_matching_candidate(problem)
            elif self.strategy == "disentangled":
                width = disentangled_layout(problem).total_qubits
        with _field("purity_cuts"):
            self._check_purity_cuts(width)
        object.__setattr__(self, "_problem", problem)

    def _half(self, name: str, width: int) -> ConjunctionOracle:
        """One half of the global oracle, from the signed literals of field ``name``."""
        with _field(name):
            literals = self._as_tuple(name, "signed literals")
            for item in literals:
                if not _is_integer(item):
                    raise ConfigurationError(f"literal {item!r} is not an integer")
            return ConjunctionOracle.from_signed_literals(literals, width=width)

    def _as_tuple(self, name: str, what: str) -> tuple:
        """The list field ``name`` as a tuple, which must not be empty."""
        value = getattr(self, name)
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigurationError(f"expected a non-empty list of {what}")
        value = tuple(value)
        object.__setattr__(self, name, value)
        return value

    def _check_purity_cuts(self, width: int) -> None:
        """Each cut: increasing qubits of the ``width``-qubit state, not all of them."""
        cuts = self.purity_cuts
        if not isinstance(cuts, (list, tuple)):
            raise ConfigurationError("expected a list of qubit lists")
        normalized = []
        for cut in cuts:
            if not isinstance(cut, (list, tuple)):
                raise ConfigurationError(f"cut {cut!r} is not a qubit list")
            for q in cut:
                if not _is_integer(q):
                    raise ConfigurationError(f"expected an integer, got {q!r}")
            if not cut:
                fault = "is empty"
            elif any(q < 0 for q in cut):
                fault = "names a negative qubit"
            elif len(set(cut)) != len(cut):
                fault = "repeats a qubit"
            elif any(hi <= lo for lo, hi in zip(cut, cut[1:])):
                fault = "must list its qubits in increasing order"
            elif cut[-1] >= width:
                fault = f"exceeds the {width}-qubit state"
            elif len(cut) == width:
                fault = f"covers the whole {width}-qubit state"
            else:
                normalized.append(tuple(cut))
                continue
            raise ConfigurationError(f"cut {list(cut)} {fault}")
        object.__setattr__(self, "purity_cuts", tuple(normalized))

    @property
    def v(self) -> int:
        return len(self.candidates)

    def problem(self) -> SearchProblem:
        """The search problem, built once when the config was."""
        return self._problem

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


# a field without a default is required; ``v`` and ``endianness`` are keys
# that only the mapping carries
_REQUIRED_KEYS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.default is dataclasses.MISSING
)
_OPTIONAL_KEYS = ("v", "endianness") + tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in _REQUIRED_KEYS
)


def config_from_mapping(data, source: str = "<memory>") -> ExperimentConfig:
    """Build and validate a config from a parsed mapping.

    Checks what only the mapping shows (its keys, a declared ``v``, the
    ``endianness``); ``ExperimentConfig`` checks every field. Each fault
    is prefixed with ``source``.
    """
    try:
        if not isinstance(data, dict):
            raise ConfigurationError("expected a mapping at the top level")
        known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
        unknown = sorted(set(data) - known, key=str)
        if unknown:
            raise ConfigurationError(f"unknown keys {unknown}")
        missing = [key for key in _REQUIRED_KEYS if key not in data]
        if missing:
            raise ConfigurationError(f"missing required keys {missing}")
        fields = dict(data)
        with _field("endianness"):
            if fields.pop("endianness", "little") != "little":
                raise ConfigurationError("only 'little' is supported")
        declared = fields.pop("v", None)
        config = ExperimentConfig(**fields)
        with _field("v"):
            if declared is not None and not _is_integer(declared):
                raise ConfigurationError(f"expected an integer, got {declared!r}")
            if declared not in (None, config.v):
                raise ConfigurationError(f"declared {declared} but {config.v} candidates given")
    except ConfigurationError as exc:
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
