"""Seeded instances and the job list of each benchmark workload.

An instance is a plain dict with the fields of a qtreesearch config. The
planted solution is the concatenation of the upper and lower oracle
strings, and the matching candidate is always listed last, so every
trial loop runs through all v candidates. Instance sizes are fixed per
workload; only the bit strings and the sampling seeds depend on the seed,
which keeps the work per job the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("amplify-wide", "cli-small", "verify-dense")
STRATEGIES = ("product", "entangled", "iterative", "disentangled", "permutation")
BUNDLED = (
    "fig_a_basic_0",
    "fig_a_basic_10",
    "fig_a_basic_2",
    "fig_a_basic_4",
    "fig_d_el_v_3_6",
)

# (strategy, m, g, v) per job, listed round-robin across strategies.
# Iterative stays at m=14 because m=16 takes 10-13 s per job; disentangled
# at m=8 already gives a 4 + 3 * (4 + 1) = 19-qubit composite register.
AMPLIFY_WIDE = (
    ("product", 16, 8, 3),
    ("entangled", 16, 8, 3),
    ("iterative", 14, 7, 3),
    ("disentangled", 8, 4, 3),
    ("permutation", 16, 8, 4),
)

# Small seeded sizes: g = ceil(m / 2) and disentangled composites of at most
# 4 + 2 * (4 + 1) = 14 qubits. Permutation uses v = 2**g / 4, a power of two
# whose candidate preparation is exact, so the compacted search starts
# uniform and the analytic law applies; at v = 2**g / 2 the idle block
# grows as much as the solution and the top outcome turns on the shots.
SMALL_MS = (5, 6, 7, 8)
SMALL_V = {"product": 3, "entangled": 3, "iterative": 3, "disentangled": 2}


def small_v(strategy: str, g: int) -> int:
    return 2**g // 4 if strategy == "permutation" else SMALL_V[strategy]


# Dense-verify sizes: every composite stays within 11 qubits, so no
# register is wider than the cross-check's 12-qubit limit.
VERIFY_SIZES = {
    "product": ((6, 3, 3), (8, 4, 3)),
    "entangled": ((6, 3, 3), (8, 4, 3)),
    "iterative": ((6, 3, 3), (8, 4, 3)),
    "disentangled": ((5, 3, 2), (6, 3, 2)),
    "permutation": ((6, 3, 2), (8, 4, 4)),
}

# The disentangled composite of this instance has 4 + 2 * (4 + 1) = 14
# qubits, beyond the cross-check's 12-qubit limit, so `verify` checks only
# the final 4-qubit lower search and still reports passed. Its inputs do
# not depend on the seed.
UNCOVERED_VERIFY = {
    "name": "uncovered_disentangled_m8",
    "strategy": "disentangled",
    "m": 8,
    "g": 4,
    "upper": "1001",
    "lower": "0101",
    "candidates": ["0011", "0101"],
    "shots": 1024,
    "shots_per_trial": 256,
    "seed": 11,
}


@dataclass
class Job:
    """One call of the command line entry point and what it must produce."""

    label: str
    kind: str  # "run", "verify" or "sweep"
    strategy: str | None
    argv: list[str]
    out: Path
    instance: dict
    # an operation that fails every time today; counted in `failed`
    known_failure: bool = False


def signed_literals(bits: str) -> list[int]:
    """Fully specified literals for an MSB-first bit string (1-based, LSB first)."""
    width = len(bits)
    return [(q + 1) if bits[width - 1 - q] == "1" else -(q + 1) for q in range(width)]


def bits_from_literals(literals, width: int) -> str:
    value = 0
    for literal in literals:
        if literal > 0:
            value |= 1 << (literal - 1)
    return format(value, f"0{width}b")


def _random_bits(rng: random.Random, width: int) -> str:
    return format(rng.getrandbits(width), f"0{width}b")


def seeded_instance(rng: random.Random, name: str, strategy: str, m: int, g: int, v: int) -> dict:
    """Random upper and lower strings; v - 1 distinct decoys, then the match."""
    lower = _random_bits(rng, g)
    decoys: list[str] = []
    while len(decoys) < v - 1:
        bits = _random_bits(rng, g)
        if bits != lower and bits not in decoys:
            decoys.append(bits)
    return {
        "name": name,
        "strategy": strategy,
        "m": m,
        "g": g,
        "upper": _random_bits(rng, m - g),
        "lower": lower,
        "candidates": decoys + [lower],
        "shots": 1024,
        "shots_per_trial": 256,
        "seed": rng.randrange(2**31),
    }


def bundled_instance(config_dir: Path, name: str) -> dict:
    """Read a bundled preset as data, so the checks know its planted solution."""
    data = yaml.safe_load((config_dir / f"{name}.yaml").read_text())
    m, g = data["m"], data["g"]
    return {
        "name": name,
        "strategy": data["strategy"],
        "m": m,
        "g": g,
        "upper": bits_from_literals(data["upper_oracle"], m - g),
        "lower": bits_from_literals(data["lower_oracle"], g),
        "candidates": list(data["candidates"]),
        "shots": data.get("shots", 1024),
        "shots_per_trial": data.get("shots_per_trial", 256),
        "seed": data.get("seed", 0),
    }


def config_yaml(inst: dict) -> str:
    def quoted(items):
        return "[" + ", ".join(f'"{item}"' for item in items) + "]"

    def ints(items):
        return "[" + ", ".join(str(item) for item in items) + "]"

    return "\n".join(
        [
            f"name: {inst['name']}",
            f"strategy: {inst['strategy']}",
            "endianness: little",
            f"m: {inst['m']}",
            f"g: {inst['g']}",
            f"v: {len(inst['candidates'])}",
            f"upper_oracle: {ints(signed_literals(inst['upper']))}",
            f"lower_oracle: {ints(signed_literals(inst['lower']))}",
            f"candidates: {quoted(inst['candidates'])}",
            f"shots: {inst['shots']}",
            f"shots_per_trial: {inst['shots_per_trial']}",
            f"seed: {inst['seed']}",
            "format: json",
            "",
        ]
    )


class JobBuilder:
    """Writes seeded configs into the work directory and assembles jobs."""

    def __init__(self, work: Path, config_dir: Path) -> None:
        self.work = work
        self.config_dir = config_dir
        self.jobs: list[Job] = []
        self.config_paths: list[str] = []

    def _out(self, label: str) -> Path:
        return self.work / "out" / f"{label}.json"

    def config_job(self, kind: str, inst: dict, bundled: bool = False, known_failure: bool = False) -> None:
        if bundled:
            reference = inst["name"]
            self.config_paths.append(str(self.config_dir / f"{reference}.yaml"))
        else:
            path = self.work / "configs" / f"{inst['name']}.yaml"
            path.write_text(config_yaml(inst))
            reference = str(path)
            self.config_paths.append(reference)
        label = f"{kind}-{inst['name']}"
        out = self._out(label)
        argv = [kind, "--config", reference, "--format", "json", "--out", str(out)]
        self.jobs.append(Job(label, kind, inst["strategy"], argv, out, inst, known_failure))

    def sweep_job(self, m: int, g: int, seed: int) -> None:
        label = f"sweep-m{m}-g{g}"
        out = self._out(label)
        argv = [
            "sweep", "--m", str(m), "--g", str(g), "--shots", "256",
            "--seed", str(seed), "--format", "json", "--out", str(out),
        ]
        inst = {"name": label, "m": m, "g": g, "shots_per_trial": 256}
        self.jobs.append(Job(label, "sweep", None, argv, out, inst))


def build_jobs(workload: str, seed: int, work: Path, config_dir: Path) -> JobBuilder:
    """The job list of one workload, interleaved round-robin across strategies."""
    (work / "configs").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    builder = JobBuilder(work, config_dir)
    if workload == "amplify-wide":
        for strategy, m, g, v in AMPLIFY_WIDE:
            inst = seeded_instance(rng, f"wide_{strategy}", strategy, m, g, v)
            builder.config_job("run", inst)
    elif workload == "cli-small":
        for name in BUNDLED:
            builder.config_job("run", bundled_instance(config_dir, name), bundled=True)
        for m in SMALL_MS:
            g = (m + 1) // 2
            for strategy in STRATEGIES:
                inst = seeded_instance(rng, f"small_{strategy}_m{m}", strategy, m, g, small_v(strategy, g))
                builder.config_job("run", inst)
            builder.sweep_job(m, g, rng.randrange(2**31))
    elif workload == "verify-dense":
        for name in BUNDLED:
            builder.config_job("verify", bundled_instance(config_dir, name), bundled=True)
        for size in range(2):
            for strategy in STRATEGIES:
                m, g, v = VERIFY_SIZES[strategy][size]
                inst = seeded_instance(rng, f"dense_{strategy}_m{m}", strategy, m, g, v)
                builder.config_job("verify", inst)
        builder.config_job("verify", dict(UNCOVERED_VERIFY), known_failure=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return builder
