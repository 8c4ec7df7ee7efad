"""Robustness of the library: every public numeric function returns finite,
in-domain values or raises NoiseDistError, over all floats with NaN and
+-inf included. A NaN must never come back as a number of bits."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from noisedist import (
    SIGMA_Y,
    BlochVector,
    CorrectionMap,
    DomainError,
    EnsembleMember,
    IntensityTable,
    NDPoint,
    NoiseDistError,
    PureState,
    ValidationError,
    binary_entropy,
    binary_entropy_derivative,
    binary_entropy_inverse,
    boundary_curve,
    check_bounds,
    correction_grid_search,
    disturbance_bits,
    disturbance_surface,
    ensemble_boundary_oracle,
    joint_tables,
    noise_bits,
    polar_observable,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
    tight_value,
    variational_f,
)
from noisedist.bounds import MAX_SURFACE_CELLS, MAX_TRIALS


def _targets(cmap):
    return cmap.target_plus.direction.as_tuple() + cmap.target_minus.direction.as_tuple()


# name -> (function of float arguments, number of them, range of its values,
# whether it also takes arrays)
FUNCTIONS = {
    "binary_entropy": (binary_entropy, 1, (0.0, 1.0), True),
    "binary_entropy_derivative": (binary_entropy_derivative, 1, (-math.inf, math.inf), True),
    "binary_entropy_inverse": (binary_entropy_inverse, 1, (0.0, 1.0), True),
    "tight_value": (tight_value, 2, (0.0, 2.0), True),
    "check_bounds": (lambda n, d: check_bounds(n, d)[0], 2, (0.0, 2.0), True),
    "variational_f": (variational_f, 1, (0.0, math.inf), True),
    "theory_noise": (theory_noise, 1, (0.0, 1.0), True),
    "theory_disturbance_uncorrected": (theory_disturbance_uncorrected, 1, (0.0, 1.0), True),
    "theory_disturbance_optimal": (theory_disturbance_optimal, 1, (0.0, 1.0), True),
    "polar_observable": (lambda t: polar_observable(t).axis.as_tuple(), 1, (-1.0, 1.0), False),
    "PureState.from_angles": (
        lambda t, p: PureState.from_angles(t, p).direction.as_tuple(), 2, (-1.0, 1.0), False),
    "CorrectionMap.from_rotation_angles": (
        lambda t, p: _targets(CorrectionMap.from_rotation_angles(t, p)), 2, (-1.0, 1.0), False),
    "noise_bits": (noise_bits, 1, (0.0, 1.0), True),
    # the overlaps as list items, so that each argument reaches the function as
    # drawn; the entropy sum may round an ulp above 1 bit, e.g.
    # disturbance_bits(3.8174625892765704e-14, [0.001953125, 0.5]) = 1 + 2**-52
    "disturbance_bits": (
        lambda m, t: disturbance_bits(m, [t, t]), 2, (0.0, 1.0 + 1e-12), True),
    "joint_tables": (lambda i, t: joint_tables([i, i], [t, t]), 2, (0.0, 1.0), True),
}


def _finite_in_range(values, low, high):
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(values) & (values >= low) & (values <= high)))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@given(x=st.floats(), y=st.floats())
@example(x=math.nan, y=0.5)
@example(x=0.5, y=math.nan)
@example(x=math.inf, y=0.5)
@example(x=0.5, y=-math.inf)
@example(x=1.0 + 5e-13, y=-5e-13)
@example(x=2.0, y=0.5)
@settings(max_examples=200, deadline=None)
def test_finite_in_domain_or_raises(name, x, y):
    func, arity, (low, high), takes_arrays = FUNCTIONS[name]
    args = (x, y)[:arity]
    calls = [args]
    if takes_arrays:
        # NaN inside an array must fail the same checks as a scalar NaN
        calls.append(tuple(np.array([a, 0.5]) for a in args))
    for call in calls:
        try:
            values = func(*call)
        except NoiseDistError:
            continue
        assert _finite_in_range(values, low, high), (call, values)


@pytest.mark.parametrize("func", [
    theory_noise, theory_disturbance_uncorrected, theory_disturbance_optimal])
@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, [0.5, -math.inf]])
def test_theory_curves_reject_non_finite_theta_before_any_warning(func, theta):
    # np.cos(inf) warns "invalid value"; under -W error that warning, not a
    # NoiseDistError, would escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="theta must be finite"):
            func(theta)


sizes = st.one_of(st.integers(-3, 300), st.floats(), st.booleans())


@given(samples=sizes)
@settings(max_examples=150, deadline=None)
def test_boundary_curve_is_finite_or_raises(samples):
    try:
        curve = boundary_curve(samples)
    except NoiseDistError:
        return
    assert len(curve.theta) == samples
    assert _finite_in_range(curve.theta, 0.0, math.pi / 2)
    assert _finite_in_range(curve.noise, 0.0, 1.0)
    assert _finite_in_range(curve.disturbance, 0.0, 1.0)


@given(trials=sizes, max_members=st.one_of(st.integers(-1, 6), st.floats()),
       seed=st.one_of(st.integers(-2, 2**70), st.floats(), st.booleans()))
@settings(max_examples=150, deadline=None)
def test_ensemble_boundary_oracle_is_finite_or_raises(trials, max_members, seed):
    try:
        report = ensemble_boundary_oracle(trials, max_members, seed)
    except NoiseDistError:
        return
    assert (report.trials, report.max_members, report.seed) == (trials, max_members, seed)
    assert _finite_in_range([report.min_signed_distance], -1.0, 1.0)
    assert _finite_in_range([report.max_tight_excess], -1.0, 1.0)
    assert _finite_in_range([report.min_entropy_sum], 1.0 - 1e-12, 2.0)
    assert 0 <= report.boundary_violations <= trials
    assert 1 <= len(report.worst_ensemble) <= max_members
    # a minimum over the single-member trials: NaN when a run drew none, which
    # cannot happen when every trial has one member
    single = report.min_single_member_distance
    assert (math.isnan(single) and max_members > 1) or _finite_in_range([single], -1e-9, 1.0)


# Lattice axes are 1-D; a scalar axis counts as one value, and both functions
# apply the same rule. Shapes of more than one dimension raise
# ValidationError, not numpy's broadcasting ValueError or an IndexError.
NOT_1D_AXES = {
    "varthetas-2d": ([[0.1, 0.2]], [0.3]),
    "phis-2d": ([0.1], [[0.2, 0.3]]),
    "both-2d": ([[0.1], [0.2]], [[0.3]]),
    "varthetas-3d": (np.zeros((1, 1, 1)), [0.3]),
}


@pytest.mark.parametrize("func", [
    lambda vt, ph: disturbance_surface(0.5, vt, ph),
    lambda vt, ph: correction_grid_search(0.5, vt, ph),
], ids=["disturbance_surface", "correction_grid_search"])
@pytest.mark.parametrize("name", sorted(NOT_1D_AXES))
def test_lattice_axes_of_more_than_one_dimension_raise(func, name):
    with pytest.raises(ValidationError, match="1-D"):
        func(*NOT_1D_AXES[name])


# Axes that are not numbers raise ValidationError, not numpy's bare
# ValueError ("could not convert string to float", "setting an array element
# with a sequence").
NON_NUMERIC_AXES = {
    "varthetas-text": ("abc", [0.1]),
    "phis-text": ([0.1], "abc"),
    "varthetas-ragged": ([0.1, [0.2]], [0.1]),
    "phis-ragged": ([0.1], [0.1, [0.2]]),
}


@pytest.mark.parametrize("func", [
    lambda vt, ph: disturbance_surface(0.5, vt, ph),
    lambda vt, ph: correction_grid_search(0.5, vt, ph),
], ids=["disturbance_surface", "correction_grid_search"])
@pytest.mark.parametrize("name", sorted(NON_NUMERIC_AXES))
def test_non_numeric_lattice_axes_raise(func, name):
    with pytest.raises(ValidationError, match="must hold numbers"):
        func(*NON_NUMERIC_AXES[name])


# Non-finite axes raise ValidationError before any sin of them: no numpy
# RuntimeWarning ("invalid value encountered in sin", an error under this
# suite's filter) comes first, and a NaN axis is named as such, not as a
# non-finite Bloch overlap.
NON_FINITE_AXES = {
    f"{axis}-{label}": ([value, 0.1], [0.2]) if axis == "varthetas" else ([0.2], [0.1, value])
    for axis in ("varthetas", "phis")
    for label, value in (("inf", math.inf), ("neg-inf", -math.inf), ("nan", math.nan))
}


@pytest.mark.parametrize("func", [
    lambda vt, ph: disturbance_surface(0.5, vt, ph),
    lambda vt, ph: correction_grid_search(0.5, vt, ph),
], ids=["disturbance_surface", "correction_grid_search"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_AXES))
def test_non_finite_lattice_axes_raise(func, name):
    with pytest.raises(ValidationError, match="axes must be finite"):
        func(*NON_FINITE_AXES[name])


def test_scalar_lattice_axes_count_as_one_value():
    surface = disturbance_surface(0.5, 0.1, 0.2)
    assert surface.shape == (1, 1)
    result = correction_grid_search(0.5, 0.1, 0.2)
    assert result.surface.tobytes() == surface.tobytes()
    assert (result.best_vartheta, result.best_phi, result.d_min) == (0.1, 0.2, surface[0, 0])
    assert surface.tobytes() == disturbance_surface(0.5, [0.1], [0.2]).tobytes()


# Sizes are capped before anything is allocated: a request above the cap
# raises ValidationError, not numpy's MemoryError, and allocates next to
# nothing first. The arguments are built outside the traced span.
OVERSIZED = {
    "boundary-curve-1e13": (boundary_curve, lambda: (10**13,)),
    "boundary-curve-cap+1": (boundary_curve, lambda: (MAX_SURFACE_CELLS + 1,)),
    "oracle-1e10": (ensemble_boundary_oracle, lambda: (10**10,)),
    "oracle-cap+1": (ensemble_boundary_oracle, lambda: (MAX_TRIALS + 1,)),
    "oracle-members-1e13": (ensemble_boundary_oracle, lambda: (1, 10**13)),
    "oracle-members-cap+1": (
        ensemble_boundary_oracle, lambda: (MAX_TRIALS, MAX_SURFACE_CELLS // MAX_TRIALS + 1)),
    "oracle-members-int64-max": (ensemble_boundary_oracle, lambda: (2, np.int64(2**63 - 1))),
    "grid-search-1e6-squared": (
        correction_grid_search, lambda: (0.5, np.zeros(10**6), np.zeros(10**6))),
    "surface-cap+1": (
        disturbance_surface, lambda: (0.5, np.zeros(MAX_SURFACE_CELLS // 1000 + 1),
                                      np.zeros(1000))),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_requests_raise_before_allocating(name):
    func, make_args = OVERSIZED[name]
    args = make_args()
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="exceeds|at most"):
            func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Every public numeric entry point, with valid arguments of which the property
# below replaces any set: name -> (function, valid arguments, the argument
# positions that must hold numbers). Each FUNCTIONS entry takes 0.5 at every
# position. IntensityTable converts its counts and its theta, shots, seed and
# efficiency labels.
ENTRY_POINTS = {
    **{name: (func, (0.5,) * arity, range(arity))
       for name, (func, arity, _, _) in FUNCTIONS.items()},
    "check_bounds(tolerance)": (
        lambda n, d, t: check_bounds(n, d, tolerance=t), (0.5, 0.5, 1e-9), range(3)),
    "disturbance_bits(direct)": (disturbance_bits, (0.5, [0.5, -0.5]), range(2)),
    "joint_tables(direct)": (joint_tables, ([0.5, -0.5], [0.5, -0.5]), range(2)),
    "BlochVector": (BlochVector, (0.0, 0.6, 0.8), range(3)),
    "NDPoint": (NDPoint, (0.5, 0.5), range(2)),
    "EnsembleMember": (EnsembleMember, (1.0, BlochVector(0.0, 0.0, 1.0)), range(2)),
    "IntensityTable": (
        lambda counts, theta, shots, seed, efficiency: IntensityTable(
            "A", counts, theta, shots, seed, "exact", efficiency=efficiency),
        (np.ones((2, 2, 2)), 0.5, 10, 0, 1.0), range(5)),
}

# Values that are not numbers: text (a number's too), None, complex, objects
# and ragged sequences.
NOT_NUMBERS = st.sampled_from([
    "0.5", "abc", "", b"1", None, 0.5 + 0.2j, np.array([0.5 + 0.2j, 0.5]), [None, 0.5],
    np.array([0.5, "0.5"], dtype=object), [0.1, [0.2]], [[0.1], [0.2, 0.3]], {"x": 0.5},
])
# Numbers of every shape the entry points may not expect: 0-d, empty, 1-D of
# mismatched lengths and 2-D arrays, plus bools and the edges of the floats.
NUMBERS = st.one_of(
    npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
                elements=st.floats(-2.0, 2.0) | st.sampled_from([math.nan, math.inf, -1.0])),
    st.booleans(),
    st.sampled_from([math.nan, -math.inf, 0.0, 1.0, 10**30, np.int64(3), np.float32(0.5)]),
)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_only_noisedist_errors_escape(name, data):
    func, valid, numeric = ENTRY_POINTS[name]
    args = list(valid)
    replaced = data.draw(st.sets(st.sampled_from(range(len(args))), min_size=1), "positions")
    not_numbers = False
    for k in sorted(replaced):
        if data.draw(st.booleans(), f"argument {k} is not a number"):
            args[k] = data.draw(NOT_NUMBERS, f"argument {k}")
            not_numbers |= k in numeric
        else:
            args[k] = data.draw(NUMBERS, f"argument {k}")
    try:
        func(*args)
    except NoiseDistError:
        return
    # text, None, complex, objects and ragged sequences are never read as numbers
    assert not not_numbers, args
