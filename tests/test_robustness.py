"""Robustness of the library: every public numeric function returns finite,
in-domain values or raises NoiseDistError, over all floats with NaN and
+-inf included. A NaN must never come back as a number of bits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisedist import (
    CorrectionMap,
    NoiseDistError,
    PureState,
    binary_entropy,
    binary_entropy_derivative,
    binary_entropy_inverse,
    boundary_curve,
    boundary_disturbance,
    check_bounds,
    ensemble_boundary_oracle,
    maassen_uffink_compare,
    polar_observable,
    signed_boundary_distance,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
    tight_value,
    variational_f,
)


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
    "boundary_disturbance": (boundary_disturbance, 1, (0.0, 1.0), True),
    # the disturbance may sit 1e-12 outside [0, 1] bits, and the distance with it
    "signed_boundary_distance": (
        signed_boundary_distance, 2, (-1.0 - 1e-12, 1.0 + 1e-12), True),
    "variational_f": (variational_f, 1, (0.0, math.inf), True),
    "theory_noise": (theory_noise, 1, (0.0, 1.0), True),
    "theory_disturbance_uncorrected": (theory_disturbance_uncorrected, 1, (0.0, 1.0), True),
    "theory_disturbance_optimal": (theory_disturbance_optimal, 1, (0.0, 1.0), True),
    "polar_observable": (lambda t: polar_observable(t).axis.as_tuple(), 1, (-1.0, 1.0), False),
    "PureState.from_angles": (
        lambda t, p: PureState.from_angles(t, p).direction.as_tuple(), 2, (-1.0, 1.0), False),
    "CorrectionMap.from_rotation_angles": (
        lambda t, p: _targets(CorrectionMap.from_rotation_angles(t, p)), 2, (-1.0, 1.0), False),
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


@given(samples=sizes)
@settings(max_examples=150, deadline=None)
def test_maassen_uffink_compare_is_finite_or_raises(samples):
    try:
        report = maassen_uffink_compare(samples)
    except NoiseDistError:
        return
    assert report.samples == samples
    assert _finite_in_range([report.min_state_sum, report.min_boundary_sum], 1.0, 2.0)
    assert _finite_in_range([report.argmin_theta], 0.0, math.pi / 2)
    assert _finite_in_range([report.route_max_diff], 0.0, 1.0)
    # the interior gap is a minimum over the interior angles, none for 2 samples
    if samples > 2:
        assert _finite_in_range([report.min_interior_gap], 0.0, 1.0)
    else:
        assert math.isnan(report.min_interior_gap)


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
