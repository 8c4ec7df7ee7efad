"""Counting-statistics simulation of the two-measurement experiment and the
estimator that recovers noise and disturbance from the counts.

A run sends the two eigenstates of one observable (family "A": eigenstates
of A = sigma_z feeding the noise estimate; family "B": eigenstates of
B = sigma_y feeding the disturbance estimate) into the measurement apparatus
followed by a sharp B measurement, producing eight intensities
I[input, mu, beta'] per family.

Reproducibility contract: sampled modes draw from a numpy PCG64 generator,
default_rng(SeedSequence(words)). The key of a stream is the ints [seed,
family code, input index, axis bit patterns, correction target bit
patterns], and `words` is a uint32 array of their little-endian 32-bit
words, each int with its high zero words dropped (0 is the one word 0). That
is how SeedSequence reads the int list itself, so both give the same state.
Every (seed, configuration) pair therefore has its own independent stream,
identical across runs, platforms, and any order of evaluation, whether its
table is drawn alone or in one pass with every other table of a command, so
the counts are too. The estimate of H(input|out) is the plug-in conditional
entropy of the count joint n[input, out] / total, in elementwise arithmetic
with no BLAS call, so it does not depend on the BLAS kernel numpy picks. Its
logarithms do depend on the SIMD level numpy dispatches to at run time, so
the estimates can differ in the last bit between CPUs.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _A_AXIS, _B_AXIS, OUTCOMES, CorrectionMap, Observable
from .entropy import NDPoint, _cond_entropy_given_last, _eigen_pair, joint_tables
from .errors import EstimationError, ValidationError, _count, _float, _floats
from .tables import write_table

FAMILIES = ("A", "B")
MODES = ("exact", "multinomial", "poisson")

#: The most shots per input: 2**53 is the largest count a float64 holds
#: exactly, and the samplers overflow well above it.
MAX_SHOTS = 2**53

_FAMILY_CODE = {"A": 0, "B": 1}

CSV_HEADER = "family,input,mu,beta_prime,count"
_FAMILY, *_CELLS, _COUNT = CSV_HEADER.split(",")

# input, mu and beta_prime of the eight cells, in counts.ravel() order
_CELL_OUTCOMES = dict(zip(_CELLS, map(list, zip(*itertools.product(OUTCOMES, repeat=3)))))


def _int_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int with its high
    zero words dropped, and [0] for 0: the words SeedSequence makes of it."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _stream_words(seeds, families, key_floats):
    """The SeedSequence words of every stream of _draw_counts, in its order:
    for each seed, angle j, family and input index, a uint32 array of the
    _int_words of the ints [seed, family code, input index, bit patterns of
    key_floats[j, family]], from key_floats (n, len(families), m). A float64
    is thus its low word, then its high word unless that is zero; read as
    two uint32 words it would keep a zero high word."""
    bits = np.ascontiguousarray(key_floats, dtype=float).view(np.uint64)
    bits = bits.reshape(-1, bits.shape[-1])
    for seed in seeds:
        seed_words = _int_words(int(seed))
        heads = [[seed_words + [_FAMILY_CODE[family], i] for i in range(2)] for family in families]
        for j, key in enumerate(bits):
            tail = []
            for b in key.tolist():  # _int_words of a 64-bit pattern, inlined
                tail += (b & 0xFFFFFFFF, b >> 32) if b >> 32 else (b,)
            for head in heads[j % len(families)]:
                yield np.array(head + tail, np.uint32)


def _dot(u, v):
    """u . v over the last axis, summed left to right as BlochVector.dot."""
    uv = u * v
    return uv[..., 0] + uv[..., 1] + uv[..., 2]


def _draw_counts(seeds, families, axes, targets, shots, mode, efficiency=1.0) -> np.ndarray:
    """The counts (len(seeds), n, len(families), 2, 2, 2) of the intensity
    tables of n measurement axes (n, 3): for each seed and axis, one table of
    each family, re-prepared into its targets (n, len(families), 2, 3), the
    directions of the targets of mu = +1 and -1. Family "A" sends the
    eigenstates of sigma_z, "B" those of sigma_y, and sigma_y is the final
    measurement. Every table is the one simulate_intensities makes, counts
    and stream alike. One joint_tables call covers all of them; sampled modes
    then draw seed by seed, axis by axis, family by family and input by
    input, one stream each."""
    shots = _count("shots", shots, 1, MAX_SHOTS)
    seeds = [_count("seed", seed, 0) for seed in seeds]
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    for family in families:
        if family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
    efficiency = _float(efficiency)
    if not 0.0 < efficiency <= 1.0:
        raise ValidationError(f"efficiency must lie in (0, 1], got {efficiency!r}")

    inputs = np.array([_A_AXIS if family == "A" else _B_AXIS for family in families])
    # joint[j, family, i] is the joint distribution of (mu, beta') for input OUTCOMES[i]
    joint = joint_tables(_eigen_pair(_dot(inputs, axes[:, None])), _dot(targets, _B_AXIS))
    means = shots * efficiency * joint
    if mode == "exact":
        return means[None].repeat(len(seeds), axis=0)

    key_floats = np.empty(targets.shape[:2] + (9,))
    key_floats[..., :3] = axes[:, None]
    key_floats[..., 3:] = targets.reshape(targets.shape[:2] + (6,))
    # the Poisson cells and the binomial thinning are drawn one scalar call
    # per cell: the same sampler on the same stream, in the same order, as
    # one array call, without numpy's per-call checks of array arguments
    p, means = joint.reshape(-1, 4), means.reshape(-1, 4).tolist()
    counts = np.empty((len(seeds) * len(p), 4))
    for index, words in enumerate(_stream_words(seeds, families, key_floats)):
        rng = np.random.default_rng(np.random.SeedSequence(words))
        row = index % len(p)
        if mode == "multinomial":
            cells = rng.multinomial(shots, p[row])
            if efficiency < 1.0:
                cells = [rng.binomial(n, efficiency) for n in cells.tolist()]
        else:  # poisson
            cells = [rng.poisson(m) for m in means[row]]
        counts[index] = cells
    return counts.reshape((len(seeds),) + joint.shape)


def polar_angle(obs: Observable) -> float:
    """Polar angle of an observable's axis from +z, in radians (-pi, pi],
    signed by the axis's y component: the inverse of polar_observable."""
    a = obs.axis
    return math.atan2(math.copysign(math.hypot(a.x, a.y), a.y), a.z)


@dataclass(frozen=True, eq=False)
class IntensityTable:
    """Eight intensities for one input family.

    counts[i, j, k] is the intensity for input OUTCOMES[i], apparatus outcome
    mu = OUTCOMES[j], final outcome beta' = OUTCOMES[k]. Stored as float64:
    exact mode holds real-valued expected counts, sampled modes hold integer
    values. In exact and multinomial modes the counts for one input sum to at
    most `shots` (with equality when efficiency = 1); poisson cell draws are
    unbounded, so that invariant intentionally does not apply there. The
    table keeps its own read-only copy of the counts, so they stay as
    validated whatever the caller does to its array; theta, shots, seed and
    efficiency are converted and checked as simulate_intensities checks them.
    """

    family: str
    counts: np.ndarray
    theta: float
    shots: int
    seed: int
    mode: str
    correction: str = "identity"
    efficiency: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        arr = _floats(self.counts).copy()
        if arr.shape != (2, 2, 2):
            raise ValidationError(f"counts must have shape (2, 2, 2), got {arr.shape}")
        # written as a negated in-range test so that NaN fails it too
        if not np.all((arr >= 0.0) & (arr < np.inf)):
            raise ValidationError("counts must be finite and non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "theta", _float(self.theta))
        object.__setattr__(self, "shots", _count("shots", self.shots, 1, MAX_SHOTS))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        object.__setattr__(self, "efficiency", _float(self.efficiency))
        if not (math.isfinite(self.theta) and 0.0 < self.efficiency <= 1.0):
            raise ValidationError("theta must be finite and efficiency lie in (0, 1], got "
                                  f"{self.theta!r} and {self.efficiency!r}")

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta)

    def _write(self, fmt: str) -> str:
        """The table as CSV or JSON text; counts are integers in sampled
        modes and real expected values in exact mode."""
        counts = self.counts.ravel().tolist()
        if self.mode != "exact":
            counts = list(map(int, counts))
        columns = {**_CELL_OUTCOMES, _COUNT: counts}
        buf = io.StringIO()
        if fmt == "csv":
            write_table(buf, {_FAMILY: [self.family] * len(counts), **columns}, fmt)
        else:
            meta = {
                "family": self.family,
                "theta_deg": self.theta_deg,
                "shots": self.shots,
                "seed": self.seed,
                "mode": self.mode,
                "correction": self.correction,
                "efficiency": self.efficiency,
            }
            write_table(buf, columns, fmt, meta=meta, rows_key="counts")
        return buf.getvalue()

    def to_csv(self) -> str:
        return self._write("csv")

    def to_json(self) -> str:
        return self._write("json")


def simulate_intensities(
    measurement: Observable,
    correction: CorrectionMap | None,
    family: str,
    shots: int,
    seed: int = 0,
    mode: str = "exact",
    efficiency: float = 1.0,
    correction_label: str = None,
) -> IntensityTable:
    """Simulate the eight intensities of one input family: the eigenstates
    of sigma_z for family "A", of sigma_y for "B", each measured along
    `measurement`, re-prepared by `correction` and measured along sigma_y.

    Each of the two input eigenstates is sent with the same number of shots.
    mode "exact" emits the expected counts shots * efficiency * p as reals;
    "multinomial" draws the 4 outcome cells per input from a multinomial with
    `shots` trials (then thins each cell binomially if efficiency < 1);
    "poisson" draws every cell independently with mean shots * efficiency * p.
    """
    post_map = correction if correction is not None else CorrectionMap.identity_for(measurement)
    targets = np.array([[[post_map.target_plus.direction.as_tuple(),
                          post_map.target_minus.direction.as_tuple()]]])
    counts = _draw_counts([seed], [family], np.array([measurement.axis.as_tuple()]), targets,
                          shots, mode, efficiency)[0, 0, 0]
    if correction_label is None:
        correction_label = "identity" if correction is None else "custom"

    return IntensityTable(
        family=family,
        counts=counts,
        theta=polar_angle(measurement),
        shots=shots,
        seed=seed,
        mode=mode,
        correction=correction_label,
        efficiency=efficiency,
    )


def _count_joint(counts, families: str):
    """The counts n[..., input, out] of stacked intensity tables
    (..., k, 2, 2, 2), where table j of each stack is of family families[j]
    ("out" is mu for family A, beta' for family B), with their per-input and
    total sums. Counts must be finite and non-negative (ValidationError); the
    first table in C order with an empty input row raises EstimationError."""
    # a negated in-range test, so that NaN fails it too
    if not np.all((counts >= 0.0) & (counts < np.inf)):
        raise ValidationError("counts must be finite and non-negative")
    is_b = np.array([family == "B" for family in families])[:, None, None]
    n = np.where(is_b, counts[..., 0, :] + counts[..., 1, :], counts[..., 0] + counts[..., 1])
    per_input = n[..., 0] + n[..., 1]
    total = per_input[..., 0] + per_input[..., 1]
    empty = np.flatnonzero(np.any(per_input == 0.0, axis=-1))
    if empty.size:
        if total.flat[empty[0]] == 0.0:
            raise EstimationError("no counts in table")
        family = families[empty[0] % len(families)]
        raise EstimationError(
            f"input row with zero counts in family {family}; conditionals undefined")
    return n, per_input, total


def _input_entropy_given_out(counts, families: str) -> np.ndarray:
    """H(input|out) in bits of stacked intensity tables laid out as for
    _count_joint: the plug-in conditional entropy of n[input, out] / total."""
    n, _, total = _count_joint(counts, families)
    return _cond_entropy_given_last(n / total[..., None, None])


def nd_from_counts(table_a: IntensityTable, table_b: IntensityTable) -> NDPoint:
    """Noise H(A|M) and disturbance H(B|B') from one pair of intensity tables."""
    if table_a.family != "A" or table_b.family != "B":
        raise ValidationError(
            f"expected families ('A', 'B'), got ({table_a.family!r}, {table_b.family!r})"
        )
    n, d = _input_entropy_given_out(np.stack([table_a.counts, table_b.counts]), "AB")
    return NDPoint(
        noise=n,
        disturbance=d,
        theta=table_b.theta,
        corrected=table_b.correction != "identity",
    )
