"""Entropy machinery and the information-theoretic noise/disturbance
functionals: one Born-rule kernel over Bloch overlaps (input . m of the input
states with the measurement axis m, target . b of the two re-preparation
targets with the final axis b) and its reductions.

All entropies are in bits (log base 2) and 0 * log 0 is taken as 0
throughout, which is what makes the exact eigenstate configurations
(theta = 0, 90, 180 degrees) come out exactly 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _SIGNS, CorrectionMap, Observable, ProjectiveInstrument, born
from .errors import DomainError, ValidationError

# Slack accepted on mathematical domain boundaries before raising.
DOMAIN_ATOL = 1e-12

# Newton steps of the entropy inverse. From the Topsoe start, six steps leave
# x within 4e-16 of the fully converged iterate for every y in [0, 1]
# (checked on 1.6e6 points from y = 1e-320 up to 1 - 1e-16).
_NEWTON_STEPS = 6
_LN2 = float(np.log(2.0))


def _neg_p_log2_p(p):
    """-p log2 p elementwise with the 0 log 0 = 0 convention."""
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, -p * np.log2(safe), 0.0)


def binary_entropy(x):
    """h(x) = -(1+x)/2 log2((1+x)/2) - (1-x)/2 log2((1-x)/2), in bits.

    x is the bias of a +1/-1 variable, so h(0) = 1, h(+-1) = 0 and
    h(-x) = h(x). Accepts scalars or arrays; |x| <= 1 up to 1e-12 slack.
    """
    arr = np.asarray(x, dtype=float)
    # written as a negated in-range test so that NaN fails it too
    if np.any(~(np.abs(arr) <= 1.0 + DOMAIN_ATOL)):
        raise DomainError("binary_entropy argument must satisfy |x| <= 1")
    arr = np.clip(arr, -1.0, 1.0)
    out = _neg_p_log2_p((1.0 + arr) / 2.0) + _neg_p_log2_p((1.0 - arr) / 2.0)
    return float(out) if np.ndim(x) == 0 else out


def binary_entropy_derivative(x):
    """h'(x) = (1/2) log2((1-x)/(1+x)); diverges at the endpoints, so the
    domain is the open interval |x| < 1."""
    arr = np.asarray(x, dtype=float)
    if np.any(~(np.abs(arr) < 1.0)):
        raise DomainError("binary_entropy_derivative requires |x| < 1")
    out = 0.5 * np.log2((1.0 - arr) / (1.0 + arr))
    return float(out) if np.ndim(x) == 0 else out


def binary_entropy_inverse(y):
    """g(y): the unique x in [0, 1] with h(x) = y.

    Solved by a fixed number of vectorized Newton steps in q = (1 - x)/2,
    where h is H(q) = -q log2 q - (1-q) log2(1-q): increasing and concave on
    [0, 1/2], with the finite slope log2((1-q)/q) where h'(x) diverges at
    x = 1. The start is the Topsoe bound x0 = sqrt(1 - y^(2 ln 2)) >= g(y),
    i.e. q0 <= q*, so the iterates rise monotonically to the root; each step
    is clamped to [current q, 1/2] against rounding. The h-residual is at the
    1e-15 level across [0, 1]. Endpoints are returned exactly: g(0) = 1,
    g(1) = 0.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(~((arr >= -DOMAIN_ATOL) & (arr <= 1.0 + DOMAIN_ATOL))):
        raise DomainError("binary_entropy_inverse argument must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)

    # q0 = (1 - x0)/2 written without the cancellation in 1 - x0; the floor
    # keeps log(q) finite when y^(2 ln 2) underflows
    t = arr ** (2.0 * _LN2)
    q = np.maximum(t / (2.0 * (1.0 + np.sqrt(1.0 - t))), np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):  # q = 1/2 has slope 0
        for _ in range(_NEWTON_STEPS):
            log_q = np.log(q)
            log_p = np.log1p(-q)
            excess = -(q * log_q + (1.0 - q) * log_p) / _LN2 - arr
            q = np.clip(q - excess * _LN2 / (log_p - log_q), q, 0.5)
    x = 1.0 - 2.0 * q
    x = np.where(arr == 0.0, 1.0, x)
    x = np.where(arr == 1.0, 0.0, x)
    return float(x) if np.ndim(y) == 0 else x


def _cond_entropy_given_last(p):
    """H(X|Y) in bits for arrays shaped (..., nx, ny), conditioning on the
    last axis. Zero cells contribute nothing; conditioning outcomes with zero
    marginal carry only zero cells and so are skipped automatically. The
    terms -p log2(p / marginal) are built in one work buffer."""
    marginal = p.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p / marginal
        np.log2(terms, out=terms)
        terms *= p
    np.negative(terms, out=terms)
    np.copyto(terms, 0.0, where=~(p > 0.0))
    return terms.sum(axis=(-2, -1))


def conditional_entropy(joint, given: str = "y") -> float:
    """Conditional Shannon entropy of a 2D joint table, in bits.

    given="y" returns H(X|Y), given="x" returns H(Y|X). The table p[i, j]
    is indexed in the (+1, -1) storage order; its entries must be
    non-negative and sum to 1 within 1e-9.
    """
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"joint table must be 2-D, got shape {arr.shape}")
    # negated in-range tests, so that NaN fails them too; entries that are
    # non-negative and sum to 1 are finite
    if not np.all(arr >= 0.0):
        raise ValidationError("joint table entries must be non-negative")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValidationError(f"joint table must sum to 1, got {total!r}")
    if given == "y":
        return float(_cond_entropy_given_last(arr))
    if given == "x":
        return float(_cond_entropy_given_last(arr.T))
    raise ValidationError(f"given must be 'x' or 'y', got {given!r}")


@dataclass(frozen=True)
class NDPoint:
    """A (noise, disturbance) pair for one apparatus configuration."""

    noise: float
    disturbance: float
    theta: float = None
    corrected: bool = False

    def __post_init__(self):
        object.__setattr__(self, "noise", float(self.noise))
        object.__setattr__(self, "disturbance", float(self.disturbance))
        for name in ("noise", "disturbance"):
            v = getattr(self, name)
            if not (-1e-12 <= v <= 1.0 + 1e-9):
                raise ValidationError(f"{name} must lie in [0, 1] bits, got {v!r}")


def _eigen_pair(overlap):
    """Overlaps (..., 2) of the two eigenstates +n, -n of one observable."""
    return np.asarray(overlap, dtype=float)[..., None] * _SIGNS


def _born_product(p_in, p_final, mu=slice(None)):
    """The Born-rule product p(mu | input) p(beta' | target_mu), from
    p_in = born(input . m) and p_final = born(target . b): indexed
    [..., input, mu, beta'], or [..., input, beta'] for one outcome index mu."""
    return p_in[..., :, mu, None] * p_final[..., None, mu, :]


def joint_tables(input_m, target_b) -> np.ndarray:
    """p(mu, beta' | input) as an (..., n_in, 2, 2) array indexed
    [input, mu, beta'], from input_m (..., n_in) and the overlaps target_b
    (..., 2) of the targets of mu = +1, -1. Overlaps outside [-1, 1] (or
    non-finite) raise ValidationError."""
    return _born_product(born(input_m), born(target_b))


def noise_bits(a_m):
    """Noise H(A|M) in bits for overlaps a . m (scalar or array): which of the
    uniformly sent eigenstates of A, given mu. It reduces p(mu | input) alone,
    which sums exactly where the table summed over beta' would not."""
    joint = born(_eigen_pair(a_m))
    joint *= 0.5
    h = _cond_entropy_given_last(joint)
    return float(h) if h.ndim == 0 else h


def disturbance_bits(b_m, target_b):
    """Disturbance H(B|B') in bits for overlaps b . m (...) and target
    overlaps target_b (..., 2), broadcast together: which of the uniformly
    sent eigenstates of B, given beta'. p(beta, beta') is summed over mu as
    0.5 (row(mu=+1) + row(mu=-1)), without the (..., 2, 2, 2) table."""
    p_in, p_final = born(_eigen_pair(b_m)), born(target_b)
    joint = _born_product(p_in, p_final, 0)
    joint += _born_product(p_in, p_final, 1)
    joint *= 0.5
    del p_in, p_final  # lattice-sized; freed before the entropy's work buffer
    h = _cond_entropy_given_last(joint)
    return float(h) if h.ndim == 0 else h


def noise(inst: ProjectiveInstrument, a: Observable) -> float:
    """Information-theoretic noise H(A|M): the conditional entropy of which
    eigenstate of `a` was sent (uniformly) given the instrument's outcome."""
    return noise_bits(a.axis.dot(inst.measured.axis))


def disturbance(
    inst: ProjectiveInstrument, b: Observable, correction: CorrectionMap = None
) -> float:
    """Information-theoretic disturbance H(B|B'): the conditional entropy of
    which eigenstate of `b` was sent (uniformly) given the outcome of a sharp
    `b` measurement performed after the instrument.

    `correction` overrides the instrument's post map when given, leaving the
    outcome statistics of the instrument itself untouched.
    """
    post = correction if correction is not None else inst.post_map
    return disturbance_bits(b.axis.dot(inst.measured.axis), post.overlaps(b))


# Closed-form theory curves for the y-z-plane configuration A = sigma_z,
# B = sigma_y, measurement axis at polar angle theta. These are what the
# kernel above must reproduce, so nothing in them may be derived from it.


def _finite_theta(theta):
    """theta as a float array; a non-finite angle raises DomainError before
    any trigonometry sees it."""
    arr = np.asarray(theta, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("theta must be finite")
    return arr


def theory_noise(theta):
    """N(theta) = h(cos(theta))."""
    return binary_entropy(np.cos(_finite_theta(theta)))


def theory_disturbance_uncorrected(theta):
    """D0(theta) = h(sin^2(theta)), no correction applied."""
    return binary_entropy(np.sin(_finite_theta(theta)) ** 2)


def theory_disturbance_optimal(theta):
    """Dopt(theta) = h(|sin(theta)|), optimal correction applied."""
    return binary_entropy(np.abs(np.sin(_finite_theta(theta))))
