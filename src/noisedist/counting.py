"""Counting-statistics simulation of the two-measurement experiment and the
estimator that recovers noise and disturbance from the counts.

A run sends the two eigenstates of one observable (family "A": eigenstates
of A feeding the noise estimate; family "B": eigenstates of B feeding the
disturbance estimate) into the measurement apparatus followed by a sharp B
measurement, producing eight intensities I[input, mu, beta'] per family.

Reproducibility contract: sampled modes draw from a numpy PCG64 generator
seeded with SeedSequence([seed, family code, input index, axis bit patterns,
correction target bit patterns]). Every (seed, configuration) pair therefore
has its own independent stream, identical across runs, platforms, and any
order of evaluation. The estimate of H(input|out) is the plug-in conditional
entropy of the count joint n[input, out] / total, in elementwise arithmetic
with no BLAS call, so it does not depend on the BLAS kernel numpy picks.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    OUTCOMES,
    SIGMA_Y,
    SIGMA_Z,
    CorrectionMap,
    Observable,
    ProjectiveInstrument,
)
from .entropy import NDPoint, _cond_entropy_given_last, joint_tables
from .errors import EstimationError, ValidationError
from .tables import write_table

FAMILIES = ("A", "B")
MODES = ("exact", "multinomial", "poisson")

#: The most shots per input: 2**53 is the largest count a float64 holds
#: exactly, and the samplers overflow well above it.
MAX_SHOTS = 2**53

_FAMILY_CODE = {"A": 0, "B": 1}

CSV_HEADER = "family,input,mu,beta_prime,count"

# input, mu and beta_prime of the eight cells, in counts.ravel() order
_CELL_OUTCOMES = dict(zip(("input", "mu", "beta_prime"),
                          map(list, zip(*itertools.product(OUTCOMES, repeat=3)))))


def _float_bits(*values) -> list[int]:
    """IEEE-754 bit patterns as non-negative ints, for seed-sequence keys."""
    return [struct.unpack("<Q", struct.pack("<d", float(v)))[0] for v in values]


def _stream(seed: int, family: str, input_index: int, measurement: Observable,
            post_map: CorrectionMap) -> np.random.Generator:
    """Independent reproducible substream for one (input state, apparatus)."""
    key = [int(seed), _FAMILY_CODE[family], int(input_index)]
    key += _float_bits(*measurement.axis.as_tuple())
    key += _float_bits(*post_map.target_plus.direction.as_tuple())
    key += _float_bits(*post_map.target_minus.direction.as_tuple())
    return np.random.default_rng(np.random.SeedSequence(key))


def _is_integer(value) -> bool:
    """A Python or numpy integer; booleans are not counts or seeds."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def polar_angle(obs: Observable) -> float:
    """Polar angle of an observable's axis from +z, in radians [0, pi]."""
    a = obs.axis
    return math.atan2(math.hypot(a.x, a.y), a.z)


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
    validated whatever the caller does to its array.
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
        arr = np.array(self.counts, dtype=float)
        if arr.shape != (2, 2, 2):
            raise ValidationError(f"counts must have shape (2, 2, 2), got {arr.shape}")
        # written as a negated in-range test so that NaN fails it too
        if not np.all((arr >= 0.0) & (arr < np.inf)):
            raise ValidationError("counts must be finite and non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta)

    def _write(self, fmt: str) -> str:
        """The table as CSV or JSON text; counts are integers in sampled
        modes and real expected values in exact mode."""
        counts = self.counts.ravel().tolist()
        if self.mode != "exact":
            counts = list(map(int, counts))
        columns = {**_CELL_OUTCOMES, "count": counts}
        buf = io.StringIO()
        if fmt == "csv":
            write_table(buf, {"family": [self.family] * len(counts), **columns}, fmt)
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

    @classmethod
    def from_json(cls, text: str) -> "IntensityTable":
        data = json.loads(text)
        counts = np.zeros((2, 2, 2))
        index = {1: 0, -1: 1}
        for row in data["counts"]:
            counts[index[row["input"]], index[row["mu"]], index[row["beta_prime"]]] = row["count"]
        return cls(
            family=data["family"],
            counts=counts,
            theta=math.radians(data["theta_deg"]),
            shots=data["shots"],
            seed=data["seed"],
            mode=data["mode"],
            correction=data.get("correction", "identity"),
            efficiency=data.get("efficiency", 1.0),
        )


def simulate_intensities(
    measurement: Observable,
    correction: CorrectionMap | None,
    family: str,
    shots: int,
    seed: int = 0,
    mode: str = "exact",
    a: Observable = SIGMA_Z,
    b: Observable = SIGMA_Y,
    efficiency: float = 1.0,
    correction_label: str = None,
) -> IntensityTable:
    """Simulate the eight intensities of one input family.

    Each of the two input eigenstates is sent with the same number of shots.
    mode "exact" emits the expected counts shots * efficiency * p as reals;
    "multinomial" draws the 4 outcome cells per input from a multinomial with
    `shots` trials (then thins each cell binomially if efficiency < 1);
    "poisson" draws every cell independently with mean shots * efficiency * p.
    """
    if not _is_integer(shots) or shots < 1:
        raise ValidationError(f"shots must be a positive integer, got {shots!r}")
    if shots > MAX_SHOTS:
        raise ValidationError(f"shots must be at most {MAX_SHOTS}, got {shots!r}")
    if not _is_integer(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
    if not 0.0 < efficiency <= 1.0:
        raise ValidationError(f"efficiency must lie in (0, 1], got {efficiency!r}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed!r}")

    inst = ProjectiveInstrument(measurement, correction)
    input_m = (a if family == "A" else b).axis.dot(measurement.axis)
    if correction_label is None:
        correction_label = "identity" if correction is None else "custom"

    # joint[i] is the joint distribution of (mu, beta') for input OUTCOMES[i]
    joint = joint_tables([input_m, -input_m], inst.post_map.overlaps(b))
    if mode == "exact":
        counts = shots * efficiency * joint
    else:
        counts = np.empty((2, 2, 2))
        for i in range(2):
            rng = _stream(seed, family, i, measurement, inst.post_map)
            if mode == "multinomial":
                cells = rng.multinomial(shots, joint[i].ravel()).reshape(2, 2)
                if efficiency < 1.0:
                    cells = rng.binomial(cells, efficiency)
            else:  # poisson
                cells = rng.poisson(shots * efficiency * joint[i])
            counts[i] = cells

    return IntensityTable(
        family=family,
        counts=counts,
        theta=polar_angle(measurement),
        shots=int(shots),
        seed=int(seed),
        mode=mode,
        correction=correction_label,
        efficiency=float(efficiency),
    )


@dataclass(frozen=True, eq=False)
class EstimatedProbabilities:
    """Probabilities recovered from one intensity table.

    Arrays are indexed in the (+1, -1) storage order. "out" is the apparatus
    outcome mu for family A and the final outcome beta' for family B.
    p_out and p_in_given_out are filled by bayes_invert; outcomes whose
    marginal is exactly zero are listed in `dropped` and their posterior rows
    zeroed, mirroring the conditional-entropy skip rule.
    """

    family: str
    p_input: np.ndarray
    p_out_given_in: np.ndarray
    p_out: np.ndarray = None
    p_in_given_out: np.ndarray = None
    dropped: tuple = ()


def _count_joint(counts, families: str):
    """The counts n[..., input, out] of stacked intensity tables
    (..., k, 2, 2, 2), where table j of each stack is of family families[j]
    ("out" is mu for family A, beta' for family B), with their per-input and
    total sums. Counts must be finite and non-negative (ValidationError); the
    first table in C order with an empty input row raises EstimationError."""
    counts = np.asarray(counts, dtype=float)
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


def estimate_probabilities(table: IntensityTable) -> EstimatedProbabilities:
    """Marginalization-ratio estimators for the input distribution and the
    forward conditionals.

    Family A: p(alpha) and p(mu|alpha), summing intensities over beta'.
    Family B: p(beta) and p(beta'|beta), summing intensities over mu.
    """
    n, per_input, total = _count_joint(table.counts[None], table.family)
    return EstimatedProbabilities(family=table.family, p_input=per_input[0] / total[0],
                                  p_out_given_in=n[0] / per_input[0, :, None])


def bayes_invert(est: EstimatedProbabilities) -> EstimatedProbabilities:
    """Fill the posterior p(in|out) = p(in) p(out|in) / p(out), with
    p(out) = sum_in p(in) p(out|in).

    Outcomes with p(out) = 0 are dropped (flagged, posterior row zeroed)
    rather than raised, consistent with the entropy convention.
    """
    joint = est.p_input[:, None] * est.p_out_given_in  # [in, out]
    p_out = joint.sum(axis=0)
    keep = p_out > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        p_in_given_out = np.where(keep[:, None], joint.T / p_out[:, None], 0.0)
    dropped = tuple(OUTCOMES[j] for j in np.flatnonzero(~keep))
    return replace(est, p_out=p_out, p_in_given_out=p_in_given_out, dropped=dropped)


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
    n, d = _input_entropy_given_out([table_a.counts, table_b.counts], "AB")
    return NDPoint(
        noise=n,
        disturbance=d,
        theta=table_b.theta,
        corrected=table_b.correction != "identity",
    )
