"""Reference oracles for the array kernels.

For the Born-rule kernel: the per-branch scalar arithmetic that noise,
disturbance, the sequential joint distribution and the correction surface
used before they became reductions of one array kernel. The kernel is
specified to reproduce these values bit for bit, so tests compare against
them with ==.

For the count estimator: the ratio estimators and Bayes inversion that
recovered H(input|out) from an intensity table before it became the plug-in
entropy of the count joint. The two routes round differently, so tests
compare them within 1e-15.

For the sampler: the table-by-table draw that simulate_intensities made
before every table of a command was drawn in one pass, each stream seeded
with SeedSequence of the list of Python ints [seed, family code, input
index, float bit patterns], and each input's cells drawn by numpy's
array-argument samplers (one poisson call on its four means, one binomial
call thinning its four multinomial cells). The batched draw, which draws
cell by cell with scalar calls, must give the same counts, so tests compare
them with ==.

For the ensemble oracle: the member-by-member pure-state projection behind
its projection fields, and the entropy pair of one ensemble, the boundary's
disturbance at a noise and the signed distance to the boundary, which the
oracle computes for whole blocks of trials. These take their entropies from
this module's binary_entropy and its inverse by bisection.

For the binary entropy: the two masked np.where terms that binary_entropy
evaluated before both terms shared one buffer. The array form must give the
same bits, so tests compare int64 views of the two.

For the boundary's variational problem: the stationary members of the
ensembles behind one boundary point and their two multipliers, from the
closed forms, with the stationarity ratio f in scalar math arithmetic.

For the serializers: the counts of an intensity table read back from its
JSON text.

Nothing here calls the kernel (`born`, `joint_tables`, `noise_bits`,
`disturbance_bits`), the count estimator, the conditional-entropy helper
they share or the package's binary entropy and its inverse.
"""

import json
import math
import struct

import numpy as np

from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    DomainError,
    EnsembleMember,
    ProjectiveInstrument,
    ValidationError,
)
from noisedist.bloch import OUTCOMES
from noisedist.entropy import DOMAIN_ATOL


def scalar_born(state, obs, outcome):
    """p(outcome) = (1 + outcome * r . axis) / 2, clamped to [0, 1]."""
    p = 0.5 * (1.0 + outcome * state.direction.dot(obs.axis))
    return min(max(p, 0.0), 1.0)


def cond_entropy_given_last(p):
    """H(X|Y) in bits for (..., nx, ny) arrays, conditioning on the last
    axis, in the masked np.where formulation."""
    p = np.asarray(p, dtype=float)
    marginal = p.sum(axis=-2, keepdims=True)
    safe_p = np.where(p > 0.0, p, 1.0)
    safe_m = np.where(marginal > 0.0, marginal, 1.0)
    # unnormalized test tables can overflow or underflow the ratio
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(safe_p / safe_m), 0.0)
    return terms.sum(axis=(-2, -1))


def _neg_p_log2_p(p):
    """-p log2 p elementwise with the 0 log 0 = 0 convention."""
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, -p * np.log2(safe), 0.0)


def binary_entropy(x):
    """h(x) = -(1+x)/2 log2((1+x)/2) - (1-x)/2 log2((1-x)/2) in bits, one
    masked term per probability; |x| <= 1 up to DOMAIN_ATOL, else (NaN
    included) DomainError."""
    arr = np.asarray(x, dtype=float)
    if np.any(~(np.abs(arr) <= 1.0 + DOMAIN_ATOL)):
        raise DomainError("binary_entropy argument must satisfy |x| <= 1")
    arr = np.clip(arr, -1.0, 1.0)
    out = _neg_p_log2_p((1.0 + arr) / 2.0) + _neg_p_log2_p((1.0 - arr) / 2.0)
    return float(out) if np.ndim(x) == 0 else out


def binary_entropy_inverse(y):
    """g(y), the x in [0, 1] with h(x) = y, by bisection on binary_entropy,
    which falls on [0, 1]; 100 halvings leave a bracket 2**-100 wide. y
    outside [0, 1] up to DOMAIN_ATOL (NaN included) raises DomainError."""
    arr = np.asarray(y, dtype=float)
    if np.any(~((arr >= -DOMAIN_ATOL) & (arr <= 1.0 + DOMAIN_ATOL))):
        raise DomainError("binary_entropy_inverse argument must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    lo, hi = np.zeros(arr.shape), np.ones(arr.shape)
    for _ in range(100):
        mid = (lo + hi) / 2.0
        above = binary_entropy(mid) > arr  # h(mid) > y: the root lies right of mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    x = np.where(arr == 1.0, 0.0, np.where(arr == 0.0, 1.0, (lo + hi) / 2.0))
    return float(x) if np.ndim(y) == 0 else x


def scalar_joint(state, inst, second):
    """Joint distribution [mu, outcome2] of the instrument followed by a
    sharp measurement of `second`, one branch at a time."""
    joint = np.empty((2, 2))
    for i, mu in enumerate(OUTCOMES):
        p_mu = scalar_born(state, inst.measured, mu)
        emitted = inst.post_map.target(mu)
        for j, out2 in enumerate(OUTCOMES):
            joint[i, j] = p_mu * scalar_born(emitted, second, out2)
    return joint


def scalar_noise(inst, a):
    joint = np.empty((2, 2))
    for i, alpha in enumerate(OUTCOMES):
        for j, mu in enumerate(OUTCOMES):
            joint[i, j] = 0.5 * scalar_born(a.eigenstate(alpha), inst.measured, mu)
    return float(cond_entropy_given_last(joint))


def scalar_disturbance(inst, b, correction=None):
    post = correction if correction is not None else inst.post_map
    effective = ProjectiveInstrument(inst.measured, post)
    joint = np.zeros((2, 2))
    for i, beta in enumerate(OUTCOMES):
        joint[i] = 0.5 * scalar_joint(b.eigenstate(beta), effective, b).sum(axis=0)
    return float(cond_entropy_given_last(joint))


def scalar_exact_counts(measurement, correction, input_obs, b, shots, efficiency=1.0):
    """Exact-mode intensities [input, mu, beta'] for the inputs +-input_obs."""
    inst = ProjectiveInstrument(measurement, correction)
    return np.array([
        shots * efficiency * scalar_joint(input_obs.eigenstate(outcome), inst, b)
        for outcome in OUTCOMES
    ])


def bayes_entropy(counts, family):
    """H(input|out) in bits of one intensity table [input, mu, beta'], where
    "out" is mu for family "A" and beta' for family "B": p(input) and
    p(out|input) from the counts, p(out) = p(input) @ p(out|input), the
    posterior p(input|out) one kept outcome at a time (outcomes with
    p(out) = 0 are dropped), then the joint p(input|out) p(out)."""
    counts = np.asarray(counts, dtype=float)
    per_input = counts.sum(axis=(1, 2))
    p_input = per_input / per_input.sum()
    p_out_given_in = counts.sum(axis=2 if family == "A" else 1) / per_input[:, None]
    p_out = p_input @ p_out_given_in
    posterior = np.zeros((2, 2))
    for j in np.flatnonzero(p_out > 0.0):
        posterior[j] = p_input * p_out_given_in[:, j] / p_out[j]
    return float(cond_entropy_given_last(posterior.T * p_out[None, :]))


def int_list_key(seed, family, input_index, measurement, post_map):
    """The SeedSequence key of one stream as a list of Python ints: the
    seed, the family code, the input index and the IEEE-754 bit patterns of
    the measurement axis and of the two correction targets."""
    floats = (*measurement.axis.as_tuple(), *post_map.target_plus.direction.as_tuple(),
              *post_map.target_minus.direction.as_tuple())
    return [int(seed), {"A": 0, "B": 1}[family], int(input_index),
            *(struct.unpack("<Q", struct.pack("<d", v))[0] for v in floats)]


def per_table_counts(measurement, correction, family, shots, seed, mode, efficiency=1.0):
    """Counts [input, mu, beta'] of one intensity table (inputs the
    eigenstates of sigma_z for family A, of sigma_y for B, then a sigma_y
    measurement), drawn input by input from the stream keyed by
    int_list_key, over the scalar joint, with one array-argument poisson or
    binomial call per input."""
    inst = ProjectiveInstrument(measurement, correction)
    input_obs = SIGMA_Z if family == "A" else SIGMA_Y
    joint = np.array([scalar_joint(input_obs.eigenstate(outcome), inst, SIGMA_Y)
                      for outcome in OUTCOMES])
    if mode == "exact":
        return shots * efficiency * joint
    counts = np.empty((2, 2, 2))
    for i in range(2):
        key = int_list_key(seed, family, i, measurement, inst.post_map)
        rng = np.random.default_rng(np.random.SeedSequence(key))
        if mode == "multinomial":
            cells = rng.multinomial(shots, joint[i].ravel()).reshape(2, 2)
            if efficiency < 1.0:
                cells = rng.binomial(cells, efficiency)
        else:  # poisson
            cells = rng.poisson(shots * efficiency * joint[i])
        counts[i] = cells
    return counts


def pure_state_projection(members):
    """Project each member onto the pure y-z state with the same y component:
    r' = (0, r_y, s sqrt(1 - r_y^2)) with s = +1 when r_z >= 0 and -1
    otherwise. This never increases H(sigma_z) and preserves H(sigma_y)."""
    out = []
    for m in members:
        ry = m.state.y
        sign = 1.0 if m.state.z >= 0.0 else -1.0
        rz = sign * math.sqrt(max(1.0 - ry * ry, 0.0))
        out.append(EnsembleMember(m.weight, BlochVector(0.0, ry, rz)))
    return out


def ensemble_point(members):
    """(sum_m p_m h(r_m . z), sum_m p_m h(r_m . y)) of a list of
    EnsembleMembers, member by member; weights that do not sum to 1 within
    1e-9 raise ValidationError."""
    total = sum(m.weight for m in members)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"ensemble weights must sum to 1, got {total!r}")
    n = sum(m.weight * binary_entropy(m.state.z) for m in members)
    d = sum(m.weight * binary_entropy(m.state.y) for m in members)
    return (float(n), float(d))


def boundary_disturbance(noise_bits):
    """h(sqrt(1 - g[N]^2)): the least disturbance the tight relation allows
    at noise N, the boundary's disturbance there."""
    g = binary_entropy_inverse(noise_bits)
    return binary_entropy(np.sqrt(np.clip(1.0 - g * g, 0.0, 1.0)))


def signed_boundary_distance(noise_bits, disturbance_bits):
    """D - boundary_disturbance(N) in bits, negative below the boundary. N
    and D must both lie in [0, 1] bits (DomainError)."""
    binary_entropy_inverse(disturbance_bits)  # the domain check of D
    return disturbance_bits - boundary_disturbance(noise_bits)


def stationary_members(theta):
    """(members, kappa, lam) of the boundary point (h(cos theta), h(sin
    theta)) for theta in (0, pi/2), with members r = (0, cos t, sin t).

    The angle condition f(t) = kappa, with f(t) = (h'(sin t)/sin t) /
    (h'(cos t)/cos t) and h'(x) = (1/2) log2((1-x)/(1+x)), has the four
    solutions t = +-pi/2 +- theta, all with kappa = f(pi/2 - theta); the
    weight condition h(sin t) + kappa h(cos t) = -lam then fixes
    lam = -(h(cos theta) + kappa h(sin theta)). Any mixture of the members
    lands on the boundary point."""
    def h_prime_over_x(x):
        return 0.5 * math.log2((1.0 - x) / (1.0 + x)) / x

    mirror = math.pi / 2 - theta
    kappa = h_prime_over_x(math.sin(mirror)) / h_prime_over_x(math.cos(mirror))
    members = (math.pi / 2 - theta, math.pi / 2 + theta, -math.pi / 2 + theta,
               -math.pi / 2 - theta)
    lam = -(binary_entropy(math.cos(theta)) + kappa * binary_entropy(math.sin(theta)))
    return members, kappa, lam


def counts_from_json(text):
    """The counts [input, mu, beta'] of an intensity table's JSON text."""
    counts = np.zeros((2, 2, 2))
    index = {1: 0, -1: 1}
    for row in json.loads(text)["counts"]:
        counts[index[row["input"]], index[row["mu"]], index[row["beta_prime"]]] = row["count"]
    return counts
