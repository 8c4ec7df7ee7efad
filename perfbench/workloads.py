"""Seeded command lists for the four benchmark workloads.

A workload is one pass: a fixed list of CLI argument vectors. The seed picks
the values inside each command (angles, correction targets, RNG seeds) while
the shape of the pass (command order, sizes, formats and modes) stays fixed,
so different seeds cost about the same and their figures are comparable.
Each pass puts a block of same-sized commands in the middle of its latency
distribution, so that the median lands inside a block rather than between
two command sizes that noise can reorder.

Every pass also carries the seven edge-input probes of ROADMAP item 4. Each
probe must exit 2, raise nothing and leave no output file. They are scored in
`failed_ratio` but kept out of the latency and throughput figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep-analytic", "sweep-sampled", "export-tables", "verify-battery")

PROBES = (
    ["sweep", "--theta", "nan"],
    ["sweep", "--theta", "inf"],
    ["sweep", "--tolerance", "nan"],
    ["sweep", "--correction", "custom", "--target", "nan,0"],
    ["correct-search", "--theta-m", "nan"],
    ["simulate", "--theta", "nan", "--mode", "exact"],
    ["sweep", "--mode", "multinomial", "--shots", "0"],
)

_CORRECTIONS = ("none", "optimal", "custom")
_SHOTS = (10_000, 100_000, 1_000_000)


@dataclass
class Command:
    """One CLI invocation plus what the oracle needs to check its output."""

    argv: list
    kind: str  # subcommand name, or "probe"
    expect_exit: int = 0
    spec: dict = field(default_factory=dict)
    out_file: str | None = None  # probes only: a path that must not appear

    @property
    def is_probe(self) -> bool:
        return self.kind == "probe"


def _angle(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 180.0), 4)


def _target(rng: random.Random) -> tuple[float, float]:
    return _angle(rng), _angle(rng)


def _theta_grid(rng: random.Random, rows: int) -> tuple[str, list[float]]:
    """A grid spec with exactly `rows` angles and the angles it parses to.

    Ranges use multiples of 0.25 degrees, which are exact in binary, so
    start + k * step reproduces the CLI's own expansion bit for bit.
    """
    if rng.random() < 0.5:
        max_step = min(5.0, 180.0 / (rows - 1))
        step = 0.25 * rng.randint(2, int(max_step / 0.25))
        span = step * (rows - 1)
        start = 0.25 * rng.randint(0, int((180.0 - span) / 0.25))
        values = [start + k * step for k in range(rows)]
        return f"{start:g}:{start + span:g}:{step:g}", values
    values = [_angle(rng) for _ in range(rows)]
    return ",".join(repr(v) for v in values), values


def _sweep(rng, rows, mode, correction, fmt, shots=None) -> Command:
    spec_text, thetas = _theta_grid(rng, rows)
    argv = ["sweep", "--theta", spec_text, "--mode", mode, "--correction", correction,
            "--format", fmt]
    spec = {"thetas": thetas, "mode": mode, "correction": correction, "format": fmt}
    if correction == "custom":
        target = _target(rng)
        argv += ["--target", f"{target[0]!r},{target[1]!r}"]
        spec["target"] = target
    if mode != "analytic":
        seed = rng.randrange(1_000_000)
        argv += ["--shots", str(shots), "--seed", str(seed)]
        spec.update(shots=shots, seed=seed)
    return Command(argv, "sweep", spec=spec)


def _simulate(rng, family, mode, correction, efficiency, shots, fmt) -> Command:
    theta = _angle(rng)
    seed = rng.randrange(1_000_000)
    argv = ["simulate", "--theta", repr(theta), "--family", family, "--mode", mode,
            "--correction", correction, "--shots", str(shots), "--seed", str(seed),
            "--efficiency", repr(efficiency), "--format", fmt]
    spec = {"theta": theta, "family": family, "mode": mode, "correction": correction,
            "shots": shots, "efficiency": efficiency, "format": fmt}
    if correction == "custom":
        target = _target(rng)
        argv += ["--target", f"{target[0]!r},{target[1]!r}"]
        spec["target"] = target
    return Command(argv, "simulate", spec=spec)


def _sweep_analytic(rng):
    # 24 sweeps of 10-40 rows, the middle eight of 25 rows; the three
    # corrections and two formats take turns
    sizes = [10, 12, 15, 18, 20, 22, 25, 25, 25, 25, 25, 25, 25, 25, 28, 30, 32, 35, 38, 40,
             12, 20, 30, 40]
    return [
        _sweep(rng, rows, "analytic", _CORRECTIONS[i % 3], ("csv", "json")[i % 2])
        for i, rows in enumerate(sizes)
    ]


def _sweep_sampled(rng):
    cmds = []
    # eight sampled sweeps; the 8-row block holds the tail percentile
    for i, rows in enumerate([4, 6, 8, 8, 8, 8, 8, 10]):
        cmds.append(_sweep(rng, rows, ("multinomial", "poisson")[i % 2],
                           _CORRECTIONS[i % 3], ("csv", "json")[i // 4], _SHOTS[i % 3]))
    for i in range(32):
        efficiency = 1.0 if i % 2 == 0 else round(rng.uniform(0.5, 0.95), 3)
        cmds.append(_simulate(rng, ("A", "B")[i % 2], ("exact", "multinomial", "poisson")[i % 3],
                              _CORRECTIONS[(i // 3) % 3], efficiency, _SHOTS[(i // 2) % 3],
                              ("csv", "json")[(i // 4) % 2]))
    return cmds


def _export_tables(rng):
    # correct-search lattice steps in degrees (11k to 130k cells, every one
    # holding (90, 90)) and boundary sample counts; five 0.75-degree csv
    # lattices form the middle block
    plan = [("1.5,2", "csv"), ("1.25", "csv"), ("1", "csv"), (10_000, "csv"), ("1.5", "json"),
            ("0.75", "csv"), (10_000, "json"), ("0.75", "csv"), (20_000, "csv"), ("0.75", "csv"),
            ("1.25", "json"), ("0.75", "csv"), ("1", "json"), ("0.75", "csv"), ("0.5", "csv"),
            (100_000, "csv")]
    cmds = []
    for size, fmt in plan:
        if isinstance(size, int):
            cmds.append(Command(["boundary", "--samples", str(size), "--format", fmt],
                                "boundary", spec={"samples": size, "format": fmt}))
            continue
        theta_m = _angle(rng)
        cmds.append(Command(
            ["correct-search", "--theta-m", repr(theta_m), "--grid", size, "--format", fmt],
            "correct-search", spec={"theta_m": theta_m, "grid": size, "format": fmt}))
    return cmds


def _verify_battery(rng):
    cmds = []
    for trials in [10_000] * 4 + [20_000] * 2 + [50_000, 100_000]:
        shots, seed = rng.choice(_SHOTS), rng.randrange(1_000_000)
        cmds.append(Command(["verify", "--trials", str(trials), "--shots", str(shots),
                             "--seed", str(seed)], "verify",
                            spec={"control": False, "checks": 11}))
    # negative controls: a biased disturbance must trip the battery (exit 1)
    for trials in (0, 10_000):
        perturb = round(rng.uniform(0.01, 0.1), 4)
        cmds.append(Command(["verify", "--trials", str(trials), "--seed",
                             str(rng.randrange(1_000_000)), "--perturb-disturbance",
                             repr(perturb)], "verify", expect_exit=1,
                            spec={"control": True, "checks": 11 if trials else 10}))
    return cmds


_BUILDERS = {
    "sweep-analytic": _sweep_analytic,
    "sweep-sampled": _sweep_sampled,
    "export-tables": _export_tables,
    "verify-battery": _verify_battery,
}


def build_pass(workload: str, seed: int) -> list[Command]:
    """The workload's command list for `seed`, with the probes spread through
    it at fixed places. The order never depends on the seed, so the heap a
    command finds (and so peak RSS) does not either."""
    cmds = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    gap = len(cmds) / len(PROBES)
    for k, argv in reversed(list(enumerate(PROBES))):
        out = f"probe-{k}.out"
        cmds.insert(round(k * gap), Command(list(argv) + ["--out", out], "probe",
                                            expect_exit=2, out_file=out))
    return cmds
