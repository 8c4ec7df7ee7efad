"""Uncertainty-bound evaluation, optimal correction, the noise-disturbance
tradeoff boundary, and a brute-force ensemble oracle for it.

The measured pair is fixed: A = sigma_z and B = sigma_y, a complementary
pair, for which the general bound N + D >= c_AB of Buscemi, Hall, Ozawa and
Wilde (PRL 112, 050401 (2014)) is N + D >= 1 bit. Its tradeoff boundary is
the parametric curve (h(cos t), h(sin t)), t in [0, pi/2]; equivalently the
set where g[N]^2 + g[D]^2 = 1 with g the inverse of h on [0, 1]. Values of
g[N]^2 + g[D]^2 above 1 are prohibited, below 1 allowed but not optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import SIGMA_Y, BlochVector, CorrectionMap, Observable, polar_observable
from .entropy import (
    _eigen_pair,
    _entropy_inverse,
    binary_entropy,
    binary_entropy_derivative,
    disturbance_bits,
)
from .errors import DomainError, ValidationError, _count, _float, _floats
from .tables import _lattice_blocks, _per_distinct, _row_blocks

#: Size caps, checked before anything is allocated: cells of a
#: correction-target lattice, boundary samples or ensemble-oracle members
#: (trials x max_members), and ensemble-oracle trials.
MAX_SURFACE_CELLS = 10_000_000
MAX_TRIALS = 1_000_000


def optimal_correction(m_axis) -> CorrectionMap:
    """Disturbance-minimizing re-preparation after a sharp measurement along
    m_axis: outcome mu is sent to |mu b> when b.m >= 0 and to |-mu b>
    otherwise, b being the axis of B = sigma_y. The tie b.m = 0 takes the
    >= branch."""
    if isinstance(m_axis, BlochVector):
        m_axis = Observable(m_axis)  # which checks that it is a unit vector
    if not isinstance(m_axis, Observable):
        raise ValidationError(f"m_axis must be a BlochVector, got {type(m_axis).__name__}")
    plus, minus = SIGMA_Y.eigenstates()
    if SIGMA_Y.axis.dot(m_axis.axis) >= 0.0:
        return CorrectionMap(plus, minus)
    return CorrectionMap(minus, plus)


def disturbance_surface(theta_m: float, varthetas, phis) -> np.ndarray:
    """Disturbance of B = sigma_y for every re-preparation target
    psi(vartheta, phi).

    The instrument measures along (0, sin theta_m, cos theta_m); outcome +1
    is re-prepared as psi(vartheta, phi), outcome -1 as its antipode. Returns
    the H(B|B') surface with shape (len(varthetas), len(phis)), evaluated in
    the blocks of _lattice_blocks. The surface depends on the target only
    through its overlap with the y axis, sin(vartheta) sin(phi), and a
    lattice repeats overlaps often, so each block makes one disturbance_bits
    call over the overlaps that no earlier block of the lattice evaluated
    (see tables._per_distinct; the memo of evaluated overlaps lives for this
    call and holds one block's worth); the kernel is elementwise, so the
    values are those of evaluating every cell.
    Scalar axes count as one value; axes that are not numbers (text, ragged
    sequences), not finite, of more than one dimension, or of more than
    MAX_SURFACE_CELLS cells raise ValidationError.
    """
    m = polar_observable(theta_m)
    vt, ph = np.atleast_1d(_floats(varthetas), _floats(phis))
    if vt.ndim != 1 or ph.ndim != 1:
        raise ValidationError(
            f"vartheta and phi axes must be 1-D, got shapes {vt.shape} and {ph.shape}")
    if vt.size * ph.size > MAX_SURFACE_CELLS:
        raise ValidationError(
            f"lattice of {vt.size} x {ph.size} cells exceeds {MAX_SURFACE_CELLS} cells")
    if not (np.isfinite(vt).all() and np.isfinite(ph).all()):
        raise ValidationError("vartheta and phi axes must be finite")
    b_m = SIGMA_Y.axis.dot(m.axis)
    sin_vt, sin_ph = np.sin(vt), np.sin(ph)

    def bits_of(overlap):
        return disturbance_bits(b_m, _eigen_pair(overlap))

    memo = []  # the disturbance of each overlap seen, for the blocks that follow
    out = np.empty((vt.size, ph.size))
    for rows, cols in _lattice_blocks(vt.size, ph.size):
        # psi(vartheta, phi) . y for the +1 target; the -1 target is antipodal
        overlap = sin_vt[rows, None] * sin_ph[cols]
        out[rows, cols] = _per_distinct(bits_of, overlap, memo)
    return out


@dataclass(frozen=True, eq=False)
class GridSearchResult:
    """Disturbance surface over a correction-target lattice plus its argmin.

    Ties resolve to the first minimum in row-major order (vartheta outer,
    phi inner), so the result is deterministic for symmetric surfaces.
    """

    theta_m: float
    varthetas: np.ndarray
    phis: np.ndarray
    surface: np.ndarray
    best_vartheta: float
    best_phi: float
    d_min: float


def correction_grid_search(theta_m: float, varthetas, phis) -> GridSearchResult:
    """Evaluate the disturbance surface on a (vartheta, phi) lattice and
    locate its minimum."""
    vt, ph = np.atleast_1d(_floats(varthetas), _floats(phis))
    if vt.size == 0 or ph.size == 0:
        raise ValidationError("correction grid must be non-empty")
    surface = disturbance_surface(theta_m, vt, ph)
    # np.argmin returns the first occurrence in C (row-major) order
    flat = int(np.argmin(surface))
    i, j = divmod(flat, ph.size)
    return GridSearchResult(
        theta_m=theta_m,
        varthetas=vt,
        phis=ph,
        surface=surface,
        best_vartheta=float(vt[i]),
        best_phi=float(ph[j]),
        d_min=float(surface[i, j]),
    )


def _inverse_pair(n, d):
    """(g[N], g[D]) of the float arrays n and d, in their shapes, from one inverse-entropy call."""
    g = _entropy_inverse(np.concatenate([n.ravel(), d.ravel()]))
    return g[:n.size].reshape(n.shape), g[n.size:].reshape(d.shape)


def tight_value(noise_bits, disturbance_bits):
    """g[N]^2 + g[D]^2 for scalars or arrays of (noise, disturbance) bits,
    broadcast together.

    It is at most 1 for every physical point and exactly 1 on the tradeoff
    boundary. One inverse-entropy call covers both arguments; bits outside
    [0, 1] (beyond 1e-12 slack) raise DomainError.
    """
    return _tight(*_floats(noise_bits, disturbance_bits))


def _tight(n, d):
    """tight_value of the float64 arrays n and d, which the caller has converted."""
    g_n, g_d = _inverse_pair(n, d)
    tight = g_n * g_n + g_d * g_d
    return float(tight) if tight.ndim == 0 else tight


def check_bounds(noise_bits, disturbance_bits, tolerance: float = 1e-9):
    """(tight_value, satisfies_general, satisfies_tight) of (noise,
    disturbance) bits against the general bound N + D >= 1 and the tight
    qubit bound g[N]^2 + g[D]^2 <= 1 of the complementary pair (sigma_z,
    sigma_y): floats and bools for scalars, arrays for arrays, broadcast
    together.

    tolerance is the accepted slack, a number or an array that broadcasts
    with the bits: 1e-9 suits analytic inputs; sampled points should pass a
    few standard deviations' worth instead.
    """
    n, d, slack = _floats(noise_bits, disturbance_bits, tolerance)
    if not ((slack >= 0.0) & (slack < math.inf)).all():  # NaN fails both
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    tight = _tight(n, d)
    general = n + d >= 1.0 - slack
    satisfied = tight <= 1.0 + slack
    if general.ndim == 0:
        return tight, bool(general), bool(satisfied)
    return tight, general, satisfied


def variational_f(theta):
    """f(t) = (h'(sin t)/sin t) / (h'(cos t)/cos t) on the open interval
    (0, pi/2).

    This is the stationarity ratio of the boundary's variational problem:
    boundary ensembles have all members at angles where f equals the same
    multiplier. f increases monotonically from 0+ to +infinity and satisfies
    f(t) f(pi/2 - t) = 1. Endpoint input (or input close enough that sin or
    cos rounds to 1) raises DomainError.
    """
    arr = _floats(theta)
    # negated in-range tests, so that NaN fails them too
    if np.any(~((arr > 0.0) & (arr < math.pi / 2))):
        raise DomainError("variational_f is defined on the open interval (0, pi/2)")
    s, c = np.sin(arr), np.cos(arr)
    if np.any(~((s < 1.0) & (c < 1.0))):
        raise DomainError("variational_f input too close to an endpoint singularity")
    out = (binary_entropy_derivative(s) / s) / (binary_entropy_derivative(c) / c)
    return float(out) if arr.ndim == 0 else out


class BoundaryCurve(NamedTuple):
    """The optimal tradeoff boundary sampled at `theta`: the parametric curve
    (noise, disturbance) = (h(cos theta), h(sin theta))."""

    theta: np.ndarray
    noise: np.ndarray
    disturbance: np.ndarray


def boundary_curve(samples: int) -> BoundaryCurve:
    """Sample the boundary at `samples` equally spaced angles in [0, pi/2].

    Endpoints are (0, 1) and (1, 0) exactly; every point satisfies
    g[N]^2 + g[D]^2 = 1 within 1e-10. At most MAX_SURFACE_CELLS samples.
    """
    theta = np.linspace(0.0, math.pi / 2, _count("samples", samples, 2, MAX_SURFACE_CELLS))
    return BoundaryCurve(
        theta,
        _row_blocks(lambda t: binary_entropy(np.cos(t)), theta),
        _row_blocks(lambda t: binary_entropy(np.sin(t)), theta),
    )


def _boundary_disturbance_of_g(g_noise):
    """h(sqrt(1 - g_noise^2)): the disturbance of the boundary point whose
    noise N has g[N] = g_noise, the least the tight relation allows there."""
    return binary_entropy(np.sqrt(np.clip(1.0 - g_noise * g_noise, 0.0, 1.0)))


@dataclass(frozen=True)
class EnsembleMember:
    """One weighted qubit state of an ensemble; mixed states allowed."""

    weight: float
    state: BlochVector

    def __post_init__(self):
        object.__setattr__(self, "weight", _float(self.weight))
        if not isinstance(self.state, BlochVector):
            raise ValidationError(f"state must be a BlochVector, got {type(self.state).__name__}")
        if not -1e-12 <= self.weight <= 1.0 + 1e-12:
            raise ValidationError(f"weight must lie in [0, 1], got {self.weight!r}")
        n = self.state.norm()
        if not n <= 1.0 + 1e-12:  # NaN fails this too
            raise ValidationError(f"Bloch vector must satisfy |r| <= 1, got |r| = {n!r}")


@dataclass(frozen=True)
class OracleReport:
    """Extremes observed over the random-ensemble trials.

    min_signed_distance is the worst (most negative) vertical distance below
    the boundary; max_tight_excess the worst g[N]^2 + g[D]^2 - 1. The
    projection fields bound how far any trial strayed from the pure-state
    reduction (noise must not increase, disturbance must be preserved),
    member-wise and ensemble-wise.

    Single-member trials can never go below the boundary (a single state has
    r_y^2 + r_z^2 <= 1, hence g[N]^2 + g[D]^2 <= 1), and
    min_single_member_distance records that. Mixing members whose angles sit
    at the two endpoint states does beat the curve, down to the straight
    N + D = 1 segment: e.g. the ensemble {(1/2, |+z>), (1/2, |+y>)} sits at
    (0.5, 0.5), 0.195 bits below the boundary. boundary_violations counts the
    sampled trials below the boundary by more than 1e-9, and worst_ensemble
    holds the members of the worst one for auditing. What does hold for
    every ensemble is that segment: the Maassen-Uffink relation
    H(sigma_z) + H(sigma_y) >= 1 bit holds for each member, mixed states
    included, so min_entropy_sum, the least N* + D* over the trials, is at
    least 1.
    """

    trials: int
    max_members: int
    seed: int
    min_signed_distance: float
    max_tight_excess: float
    boundary_violations: int
    min_single_member_distance: float
    max_projection_noise_increase: float
    max_member_noise_increase: float
    max_projection_disturbance_shift: float
    worst_ensemble: tuple
    min_entropy_sum: float


def _member_sum(values):
    """values.sum(axis=1) of a (rows, members) array, bit for bit. numpy sums
    fewer than 8 terms left to right from +0.0, so below 8 members adding
    whole columns one by one to +0.0 gives the same sums in a few passes,
    about ten times faster than the per-row reduction at 4 members; from 8
    members on numpy sums pairwise, so that case keeps .sum(axis=1)."""
    if values.shape[1] >= 8:
        return values.sum(axis=1)
    total = values[:, 0] + 0.0  # a row of -0.0 sums to +0.0
    for k in range(1, values.shape[1]):
        total += values[:, k]
    return total


def ensemble_boundary_oracle(trials: int, max_members: int = 4, seed: int = 0) -> OracleReport:
    """Brute-force survey of random ensembles against the boundary.

    Samples `trials` ensembles with 1..max_members members, weights flat on
    the simplex and Bloch vectors uniform in the unit ball (mixed states
    included), computes their (N*, D*) points, and records the extremes of
    the signed boundary distance together with the pure-state-projection
    diagnostics. Vectorized over blocks of trials; deterministic for fixed
    arguments. The sizes, gammas and normals are drawn whole; the uniforms,
    the stream's last draws, a block at a time, so the oracle holds the
    first three (sizes in their least dtype), a distance per trial and one
    block's temporaries. At most MAX_TRIALS trials and MAX_SURFACE_CELLS
    members (trials x max_members).

    Expected outcome (see OracleReport): the projection lemma holds for every
    member of every trial and single-member points never fall below the
    boundary, but multi-member mixtures occasionally do - the entropy-average
    region is bounded below by the straight N + D = 1 segment, not by the
    curve.
    """
    trials = _count("trials", trials, 1, MAX_TRIALS)
    max_members = _count("max_members", max_members, 1)
    _count("trials x max_members", trials * max_members, 1, MAX_SURFACE_CELLS)
    rng = np.random.default_rng(np.random.SeedSequence(_count("seed", seed, 0)))

    # sizes, gammas and normals whole; the uniforms, the stream's last draws,
    # a block at a time, which gives the numbers of one whole draw, so the
    # stream does not depend on the blocks. sizes are kept in the least
    # dtype that holds max_members; the normals become Bloch vectors and
    # gamma the weights in place. exponential(1.0), normal() and uniform()
    # draw the same stream and scale it by exact ones (a standard normal of
    # exactly -0.0, one draw in 2**53, would come out +0.0 from normal())
    sizes = rng.integers(1, max_members + 1, size=trials).astype(np.min_scalar_type(max_members))
    gamma = rng.standard_exponential(size=(trials, max_members))
    normals = rng.standard_normal(size=(trials, max_members, 3))

    # what the report needs across blocks besides the distances: the largest
    # tight excess, projection noise increase, member noise increase and
    # disturbance shift, and the least N* + D*
    highs = np.full(4, -np.inf)
    least_sum = np.full(1, np.inf)

    def trial_rows(size, weights, bloch):
        active = np.arange(max_members, dtype=size.dtype)[None, :] < size[:, None]
        weights *= active
        weights /= _member_sum(weights)[:, None]
        # the sum of squares as np.linalg.norm associates it, without its passes
        x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
        bloch /= np.maximum(np.sqrt((x * x + y * y) + z * z), 1e-300)[..., None]
        bloch *= (rng.random(size=weights.shape) ** (1.0 / 3.0))[..., None]

        h_z = binary_entropy(bloch[..., 2])
        n_star = _member_sum(weights * h_z)
        d_star = _member_sum(weights * binary_entropy(bloch[..., 1]))

        # the pure state that keeps r_y, with its r_y taken back from its r_z,
        # so the disturbance shift measures how well the projection keeps r_y;
        # each temporary goes once it has been used for the last time
        ry = bloch[..., 1]
        rz_proj = np.where(bloch[..., 2] >= 0.0, 1.0, -1.0) * np.sqrt(np.clip(1.0 - ry * ry, 0.0, None))
        h_z_proj = binary_entropy(rz_proj)
        member_increase = np.max(np.where(active, h_z_proj - h_z, -np.inf))
        del h_z
        n_proj = _member_sum(weights * h_z_proj)
        del h_z_proj
        ry_proj = np.copysign(np.sqrt(np.clip(1.0 - rz_proj * rz_proj, 0.0, None)), ry)
        del rz_proj
        d_proj = _member_sum(weights * binary_entropy(ry_proj))
        del ry_proj

        # one inverse call serves both the tight excess and the boundary distance
        g_n, g_d = _inverse_pair(n_star, d_star)
        np.maximum(highs, [np.max(g_n * g_n + g_d * g_d - 1.0), np.max(n_proj - n_star),
                           member_increase, np.max(np.abs(d_proj - d_star))], out=highs)
        np.minimum(least_sum, np.min(n_star + d_star), out=least_sum)
        return d_star - _boundary_disturbance_of_g(g_n)

    distances = _row_blocks(trial_rows, sizes, gamma, normals)
    weights, bloch = gamma, normals
    single = sizes == 1
    worst = int(np.argmin(distances))
    worst_members = tuple(
        EnsembleMember(float(weights[worst, k]), BlochVector(*bloch[worst, k]))
        for k in range(int(sizes[worst]))
    )
    return OracleReport(
        trials=trials,
        max_members=max_members,
        seed=int(seed),
        min_signed_distance=float(np.min(distances)),
        max_tight_excess=float(highs[0]),
        boundary_violations=int(np.sum(distances < -1e-9)),
        min_single_member_distance=float(np.min(distances[single])) if np.any(single) else float("nan"),
        max_projection_noise_increase=float(highs[1]),
        max_member_noise_increase=float(highs[2]),
        max_projection_disturbance_shift=float(highs[3]),
        worst_ensemble=worst_members,
        min_entropy_sum=float(least_sum[0]),
    )


@dataclass(frozen=True)
class MaassenUffinkReport:
    """Comparison of the boundary against the flat entropy bound
    H(sigma_y) + H(sigma_z) >= 1 bit.

    The pure state psi(theta, pi/2) in the y-z plane has r_z = cos(theta)
    and r_y = sin(theta), so its entropy sum h(r_z) + h(r_y) is the
    boundary's N + D at theta, and boundary_curve gives both:
    min_state_sum and min_boundary_sum are the one minimum of that sum. It
    equals 1 bit, attained at the eigenstate endpoints only;
    min_interior_gap is the smallest interior excess over 1 bit.
    """

    min_state_sum: float
    min_boundary_sum: float
    argmin_theta: float
    min_interior_gap: float
    samples: int


def maassen_uffink_compare(samples: int) -> MaassenUffinkReport:
    """Sweep y-z-plane pure states at `samples` angles in [0, pi/2] and
    compare the entropy sum H(sigma_z) + H(sigma_y) against the flat bound
    of 1 bit (the sweep covers all such states up to the h(x) = h(-x)
    symmetry). At most MAX_SURFACE_CELLS samples."""
    curve = boundary_curve(samples)
    sums = curve.noise + curve.disturbance
    argmin = int(np.argmin(sums))
    least = float(sums[argmin])
    return MaassenUffinkReport(
        min_state_sum=least,
        min_boundary_sum=least,
        argmin_theta=float(curve.theta[argmin]),
        min_interior_gap=float(sums[1:-1].min() - 1.0) if sums.size > 2 else float("nan"),
        samples=int(samples),
    )
