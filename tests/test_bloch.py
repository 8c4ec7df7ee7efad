"""Tests for the Bloch-vector state/observable/instrument algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    CorrectionMap,
    NoiseDistError,
    Observable,
    ProjectiveInstrument,
    PureState,
    ValidationError,
    noise,
    polar_observable,
)
from noisedist.bloch import OUTCOMES, born
from scalar_reference import scalar_born

# direct trigonometric evaluation for the 50-degree axis
SIN50 = 0.76604444311897804
COS50 = 0.64278760968653933

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
azimuths = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def random_state(theta, phi):
    return PureState.from_angles(theta, phi)


def born_probability(state, obs, outcome):
    return ProjectiveInstrument(obs).outcome_probability(state, outcome)


class TestEigenstates:
    def test_sigma_z(self):
        plus, minus = SIGMA_Z.eigenstates()
        assert plus.direction.as_tuple() == (0.0, 0.0, 1.0)
        assert minus.direction.as_tuple() == (0.0, 0.0, -1.0)

    def test_sigma_y(self):
        plus, minus = SIGMA_Y.eigenstates()
        assert plus.direction.as_tuple() == (0.0, 1.0, 0.0)
        assert minus.direction.as_tuple() == (0.0, -1.0, 0.0)

    def test_tilted_axis_50_degrees(self):
        obs = polar_observable(math.radians(50.0))
        plus, minus = obs.eigenstates()
        assert plus.direction.y == pytest.approx(SIN50, abs=1e-12)
        assert plus.direction.z == pytest.approx(COS50, abs=1e-12)
        assert minus.direction.y == pytest.approx(-SIN50, abs=1e-12)
        assert minus.direction.z == pytest.approx(-COS50, abs=1e-12)

    def test_eigenstate_direction_is_exactly_the_axis(self):
        obs = polar_observable(1.234)
        assert obs.eigenstate(1).direction == obs.axis
        assert obs.eigenstate(-1).direction == -obs.axis

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValidationError):
            Observable(BlochVector(0.0, 0.0, 2.0))

    def test_degenerate_vector_rejected_not_normalized(self):
        with pytest.raises(ValidationError):
            PureState(BlochVector(1e-12, 0.0, 0.0))

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValidationError):
            SIGMA_Z.eigenstate(0)


class TestBornProbability:
    def test_eigenstate_measurement_is_certain(self):
        state = SIGMA_Z.eigenstate(1)
        assert born_probability(state, polar_observable(0.0), 1) == 1.0

    def test_complementary_axis_is_even_odds(self):
        # p(alpha|mu) = 1/2 for all alpha, mu in the symmetric configuration
        state = SIGMA_Z.eigenstate(1)
        assert born_probability(state, polar_observable(math.pi / 2), 1) == 0.5

    def test_sixty_degrees(self):
        state = SIGMA_Z.eigenstate(1)
        p = born_probability(state, polar_observable(math.radians(60.0)), 1)
        assert p == pytest.approx(0.75, abs=1e-15)

    @given(theta=angles, phi=azimuths, ax_theta=angles, ax_phi=azimuths)
    @settings(max_examples=200, deadline=None)
    def test_outcome_probabilities_sum_to_one(self, theta, phi, ax_theta, ax_phi):
        state = random_state(theta, phi)
        obs = Observable(random_state(ax_theta, ax_phi).direction)
        total = born_probability(state, obs, 1) + born_probability(state, obs, -1)
        assert abs(total - 1.0) <= 1e-12

    @given(theta=angles, phi=azimuths, ax_theta=angles, ax_phi=azimuths)
    @settings(max_examples=200, deadline=None)
    def test_veneer_and_array_equal_scalar_formula(self, theta, phi, ax_theta, ax_phi):
        state = random_state(theta, phi)
        obs = Observable(random_state(ax_theta, ax_phi).direction)
        overlap = state.direction.dot(obs.axis)
        p = born(np.array([overlap, -overlap]))
        assert p.shape == (2, 2)
        for i, mu in enumerate(OUTCOMES):
            assert born_probability(state, obs, mu) == scalar_born(state, obs, mu)
            assert p[0, i] == scalar_born(state, obs, mu)
            assert p[1, i] == scalar_born(state.antipode(), obs, mu)

    def test_conditional_matches_closed_form_on_grid(self):
        # p(mu|alpha) = (1 + mu alpha cos(theta)) / 2 on a 181-point grid
        for theta in np.radians(np.arange(181.0)):
            obs = polar_observable(float(theta))
            for alpha in OUTCOMES:
                state = SIGMA_Z.eigenstate(alpha)
                for mu in OUTCOMES:
                    expect = 0.5 * (1.0 + mu * alpha * math.cos(theta))
                    assert born_probability(state, obs, mu) == pytest.approx(expect, abs=1e-12)


class TestInstrument:
    def test_eigenstate_passes_through(self):
        inst = ProjectiveInstrument(polar_observable(math.pi / 2))
        prob, out = inst.apply(SIGMA_Y.eigenstate(1), 1)
        assert prob == 1.0
        assert out.direction.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_default_post_map_prepares_measured_eigenstate(self):
        inst = ProjectiveInstrument(polar_observable(math.pi / 2))
        prob, out = inst.apply(SIGMA_Z.eigenstate(1), 1)
        assert prob == 0.5
        assert out.direction.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_optimal_branch_example_50_degrees(self):
        # measuring |+m> with the m-instrument is deterministic; the optimal
        # map (uncrossed, since y.m = sin50 > 0) re-prepares |+y>
        from noisedist import optimal_correction

        m = polar_observable(math.radians(50.0))
        inst = ProjectiveInstrument(m, optimal_correction(m.axis))
        prob, out = inst.apply(m.eigenstate(1), 1)
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert out.direction == SIGMA_Y.axis

    @given(theta=angles, phi=azimuths, m_theta=angles)
    @settings(max_examples=200, deadline=None)
    def test_branch_probabilities_sum_to_one(self, theta, phi, m_theta):
        inst = ProjectiveInstrument(polar_observable(m_theta))
        state = random_state(theta, phi)
        total = sum(inst.apply(state, mu)[0] for mu in OUTCOMES)
        assert abs(total - 1.0) <= 1e-12


class TestAngleParametrization:
    @given(theta=st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
           phi=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, theta, phi):
        state = PureState.from_angles(theta, phi)
        d = state.direction
        t, p = math.atan2(math.hypot(d.x, d.y), d.z), math.atan2(d.y, d.x)
        again = PureState.from_angles(t, p)
        for a, b in zip(state.direction.as_tuple(), again.direction.as_tuple()):
            assert abs(a - b) <= 1e-10

    def test_antipode_matches_rotated_angles(self):
        state = PureState.from_angles(0.7, 1.1)
        partner = PureState.from_angles(math.pi - 0.7, 1.1 + math.pi)
        for a, b in zip(state.antipode().direction.as_tuple(), partner.direction.as_tuple()):
            assert abs(a - b) <= 1e-15

    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValidationError):
            PureState(BlochVector(0.5, 0.0, 0.5))


class TestCorrectionMap:
    def test_identity_reproduces_measured_eigenstates_exactly(self):
        obs = polar_observable(math.radians(37.0))
        cmap = CorrectionMap.identity_for(obs)
        plus, minus = obs.eigenstates()
        assert cmap.target(1) == plus
        assert cmap.target(-1) == minus

    def test_rotation_angles_90_90_is_plus_y(self):
        cmap = CorrectionMap.from_rotation_angles(math.pi / 2, math.pi / 2)
        assert cmap.target_plus.direction.y == pytest.approx(1.0, abs=1e-15)
        assert cmap.target_minus.direction.y == pytest.approx(-1.0, abs=1e-15)

    def test_targets_are_antipodal(self):
        cmap = CorrectionMap.from_rotation_angles(0.4, 2.2)
        tp, tm = cmap.target_plus.direction, cmap.target_minus.direction
        assert tp.dot(tm) == pytest.approx(-1.0, abs=1e-12)


def test_observables_are_immutable_and_hashable():
    seen = {SIGMA_Y, SIGMA_Z, Observable(BlochVector(0.0, 1.0, 0.0))}
    assert len(seen) == 2


class TestNonFiniteInput:
    """NaN fails every `abs(n - 1) > atol` test, so the unit-norm checks are
    written as `not abs(n - 1) <= atol`."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_unit_norm_checks_reject_non_finite(self, bad):
        with pytest.raises(ValidationError):
            PureState(BlochVector(0.0, bad, 1.0))
        with pytest.raises(ValidationError):
            Observable(BlochVector(bad, 0.0, 0.0))

    @pytest.mark.parametrize("angles", [(math.inf, 0.0), (0.3, -math.inf), (math.nan, 0.0)])
    def test_non_finite_angles_rejected(self, angles):
        with pytest.raises(ValidationError):
            PureState.from_angles(*angles)
        with pytest.raises(ValidationError):
            CorrectionMap.from_rotation_angles(*angles)

    def test_nan_axis_is_not_zero_bits_of_noise(self):
        with pytest.raises(ValidationError):
            noise(ProjectiveInstrument(polar_observable(math.nan)), SIGMA_Z)

    @given(theta=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=300)
    def test_polar_observable_is_valid_or_raises(self, theta):
        try:
            obs = polar_observable(theta)
        except NoiseDistError:
            assert not math.isfinite(theta)
            return
        assert abs(obs.axis.norm() - 1.0) <= 1e-12
        assert all(math.isfinite(c) for c in obs.axis.as_tuple())
