"""Bit-string plumbing and the oracle families used by the search strategies.

Every oracle has one quantum form, ``mask()``: a boolean array of length
``2**width`` whose entry p says whether the oracle marks pattern p. The
kernels take only that mask. ``__call__`` is the classical query on one
int pattern, which measured strategies spend to check an outcome. No
oracle reads a label: ``bits_to_int`` parses a config's bit-strings, and
``int_to_bits`` formats a pattern where a report writes one.

Conventions, fixed package-wide:

* textual bit-strings are written most-significant bit first,
* integer patterns are little-endian: bit q of the integer is variable q,
* variable numbering in the signed-literal grammar is 1-based, so the
  signed literal ``-3`` means "variable 3 must be 0" and addresses bit 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, PreconditionError, ValidationError


def bits_to_int(bits: str) -> int:
    if not isinstance(bits, str) or any(c not in "01" for c in bits):
        raise ConfigurationError(f"bit-string must contain only '0'/'1': {bits!r}")
    if not bits:
        raise ConfigurationError("empty bit-string has no integer value")
    return int(bits, 2)


def int_to_bits(value: int, width: int) -> str:
    if width < 1:
        raise ConfigurationError(f"width must be positive, got {width}")
    if not 0 <= value < 2**width:
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


@dataclass(frozen=True)
class ConjunctionOracle:
    """Conjunction of signed literals over ``width`` variables.

    ``literals`` holds (position, required value) pairs with 0-based
    little-endian positions. Positions not mentioned are free, so the oracle
    marks ``2**(width - len(literals))`` patterns.
    """

    width: int
    literals: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError(f"oracle width must be >= 1, got {self.width}")
        positions = [p for p, _ in self.literals]
        if len(set(positions)) != len(positions):
            raise ValidationError(f"duplicate literal positions: {sorted(positions)}")
        bad = [p for p in positions if not 0 <= p < self.width]
        if bad:
            raise ConfigurationError(
                f"literal positions {bad} outside width {self.width}"
            )
        object.__setattr__(
            self, "literals", tuple((int(p), bool(v)) for p, v in self.literals)
        )

    @classmethod
    def from_signed_literals(cls, signed: Sequence[int], width: int) -> ConjunctionOracle:
        """Build from 1-based signed variable indices, e.g. [-3, 2, 1]."""
        literals = []
        for s in signed:
            if not isinstance(s, int) or s == 0:
                raise ConfigurationError(f"signed literal must be a nonzero int, got {s!r}")
            literals.append((abs(s) - 1, s > 0))
        return cls(width=width, literals=tuple(literals))

    @classmethod
    def marking(cls, pattern: int, width: int) -> ConjunctionOracle:
        """Fully specified conjunction marking exactly one pattern."""
        return cls(width, tuple((q, bool((pattern >> q) & 1)) for q in range(width)))

    @classmethod
    def matching(cls, bits: str) -> ConjunctionOracle:
        """Fully specified conjunction marking exactly one bit-string."""
        return cls.marking(bits_to_int(bits), len(bits))

    def __call__(self, pattern: int) -> bool:
        return all(((pattern >> p) & 1) == v for p, v in self.literals)

    def mask(self) -> np.ndarray:
        care = sum(1 << p for p, _ in self.literals)
        value = sum(int(v) << p for p, v in self.literals)
        return (np.arange(2**self.width) & care) == value

    @property
    def marked_count(self) -> int:
        return 2 ** (self.width - len(self.literals))

    @property
    def marked_state(self) -> int:
        """The single marked pattern; requires a fully specified conjunction."""
        if self.marked_count != 1:
            raise PreconditionError(
                f"oracle marks {self.marked_count} states, expected exactly 1"
            )
        value = 0
        for p, v in self.literals:
            value |= int(v) << p
        return value

    def signed_literals(self) -> list[int]:
        return sorted(((p + 1) if v else -(p + 1) for p, v in self.literals), key=abs)


@dataclass(frozen=True)
class ConcatenatedOracle:
    """Global oracle built as upper(z) AND lower(y) on an m-bit register.

    The lower part reads the low ``lower.width`` bits, the upper part the
    rest. Both parts must be fully specified so the oracle marks exactly one
    m-bit string, the concatenation of the two marked sub-strings.
    """

    upper: ConjunctionOracle
    lower: ConjunctionOracle

    def __post_init__(self) -> None:
        if self.upper.marked_count != 1 or self.lower.marked_count != 1:
            raise ValidationError(
                "both halves of a concatenated oracle must mark exactly one string"
            )

    @property
    def split(self) -> int:
        return self.lower.width

    @property
    def width(self) -> int:
        return self.upper.width + self.lower.width

    def __call__(self, pattern: int) -> bool:
        g = self.split
        return self.lower(pattern & ((1 << g) - 1)) and self.upper(pattern >> g)

    def mask(self) -> np.ndarray:
        """Pattern (z << split) | y is marked when upper marks z and lower y."""
        return np.outer(self.upper.mask(), self.lower.mask()).reshape(-1)


@dataclass(frozen=True)
class PartialCandidateSet:
    """Ordered set of distinct lower-register candidate patterns.

    Doubles as the membership oracle used when the candidate register is
    prepared by amplitude amplification.
    """

    width: int
    candidates: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError(f"candidate width must be >= 1, got {self.width}")
        values = tuple(int(c) for c in self.candidates)
        if len(set(values)) != len(values):
            raise ValidationError(f"duplicate candidates: {values}")
        if not values:
            raise ConfigurationError("candidate set may not be empty")
        bad = [c for c in values if not 0 <= c < 2**self.width]
        if bad:
            raise ConfigurationError(f"candidates {bad} outside width {self.width}")
        object.__setattr__(self, "candidates", values)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> PartialCandidateSet:
        strings = list(strings)
        if not strings:
            raise ConfigurationError("candidate set may not be empty")
        widths = {len(s) for s in strings}
        if len(widths) != 1:
            raise ConfigurationError(f"candidates must share one width, got {widths}")
        return cls(width=widths.pop(), candidates=tuple(bits_to_int(s) for s in strings))

    def __call__(self, pattern: int) -> bool:
        return pattern in self.candidates

    def mask(self) -> np.ndarray:
        marked = np.zeros(2**self.width, dtype=bool)
        marked[list(self.candidates)] = True
        return marked

    @property
    def size(self) -> int:
        return len(self.candidates)

    def candidate(self, k: int) -> int:
        """The k-th candidate, 1-based."""
        if not 1 <= k <= self.size:
            raise ConfigurationError(f"candidate index {k} outside 1..{self.size}")
        return self.candidates[k - 1]

    def strings(self) -> tuple[str, ...]:
        return tuple(int_to_bits(c, self.width) for c in self.candidates)

    def index_of(self, pattern: int) -> int | None:
        try:
            return self.candidates.index(pattern) + 1
        except ValueError:
            return None


def candidate_oracle(candidates: PartialCandidateSet, k: int) -> ConjunctionOracle:
    """Fully specified conjunction marking only the k-th candidate (1-based)."""
    return ConjunctionOracle.marking(candidates.candidate(k), candidates.width)
