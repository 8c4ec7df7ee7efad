"""Tests for bound evaluation, optimal correction, the tradeoff boundary,
and the ensemble oracle."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import noisedist.bounds
import noisedist.entropy
import noisedist.tables
from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    CorrectionMap,
    DomainError,
    EnsembleMember,
    Observable,
    ProjectiveInstrument,
    PureState,
    ValidationError,
    binary_entropy,
    boundary_curve,
    check_bounds,
    correction_grid_search,
    disturbance,
    disturbance_surface,
    ensemble_boundary_oracle,
    optimal_correction,
    polar_observable,
    tight_value,
    variational_f,
)
from noisedist.bounds import _boundary_blocks, _boundary_disturbance_of_g, _member_sum
from noisedist.cli import main
from noisedist.tables import write_table
from scalar_reference import (
    boundary_disturbance,
    ensemble_point,
    pure_state_projection,
    scalar_disturbance,
    signed_boundary_distance,
    stationary_members,
)

H_HALF = 0.81127812445913286
H_SIN45 = 0.6008760366928561
H_SIN50 = 0.52061073185482543
F_30 = 0.72244234467782804        # f at 30 degrees
MU_SUM_45 = 1.2017520733857122    # 2 h(cos 45)


class TestOptimalCorrection:
    def test_uncrossed_at_50_degrees(self):
        cmap = optimal_correction(polar_observable(math.radians(50.0)).axis)
        assert cmap.target_plus.direction == SIGMA_Y.axis
        assert cmap.target_minus.direction == -SIGMA_Y.axis

    def test_exact_tie_takes_uncrossed_branch(self):
        # b.m = 0 exactly for m = -z
        cmap = optimal_correction(BlochVector(0.0, 0.0, -1.0))
        assert cmap.target_plus.direction == SIGMA_Y.axis

    def test_crossed_branch_below_the_plane(self):
        # theta = 225 deg has y.m = sin(225) < 0
        m = polar_observable(math.radians(225.0))
        cmap = optimal_correction(m.axis)
        assert cmap.target_plus.direction == -SIGMA_Y.axis
        assert cmap.target_minus.direction == SIGMA_Y.axis
        inst = ProjectiveInstrument(m)
        d = disturbance(inst, SIGMA_Y, cmap)
        assert d == pytest.approx(binary_entropy(abs(math.sin(math.radians(225.0)))), abs=1e-12)

    def test_130_degrees_matches_50(self):
        m = polar_observable(math.radians(130.0))
        cmap = optimal_correction(m.axis)
        assert cmap.target_plus.direction == SIGMA_Y.axis  # sin(130) > 0: uncrossed
        d = disturbance(ProjectiveInstrument(m), SIGMA_Y, cmap)
        assert d == pytest.approx(H_SIN50, abs=1e-12)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValidationError):
            optimal_correction(BlochVector(0.0, 0.0, 0.5))
        with pytest.raises(ValidationError):
            optimal_correction((0.0, 0.0, 1.0))
        with pytest.raises(ValidationError):
            optimal_correction(BlochVector(0.0, math.nan, 1.0))


class TestGridSearch:
    COARSE = np.radians(np.arange(0.0, 180.1, 22.5))

    def test_reproduces_published_argmin(self):
        res = correction_grid_search(math.radians(50.0), self.COARSE, self.COARSE)
        assert math.degrees(res.best_vartheta) == 90.0
        assert math.degrees(res.best_phi) == 90.0
        assert res.d_min == pytest.approx(H_SIN50, abs=1e-9)

    def test_surface_matches_independent_closed_form(self):
        # oracle: D = h(sin(theta_m) sin(vartheta) sin(phi)) for B = sigma_y
        theta_m = math.radians(50.0)
        res = correction_grid_search(theta_m, self.COARSE, self.COARSE)
        expected = binary_entropy(
            math.sin(theta_m) * np.outer(np.sin(self.COARSE), np.sin(self.COARSE)))
        assert np.max(np.abs(res.surface - expected)) <= 1e-12

    def test_vectorized_surface_agrees_with_scalar_pipeline(self):
        theta_m = math.radians(50.0)
        surface = disturbance_surface(theta_m, self.COARSE[2:5], self.COARSE[3:6])
        inst = ProjectiveInstrument(polar_observable(theta_m))
        for i, vt in enumerate(self.COARSE[2:5]):
            for j, ph in enumerate(self.COARSE[3:6]):
                cmap = CorrectionMap.from_rotation_angles(float(vt), float(ph))
                assert surface[i, j] == disturbance(inst, SIGMA_Y, cmap)

    @pytest.mark.parametrize("theta_m_deg", [0.0, 37.3, 50.0, 90.0, 151.0])
    def test_surface_equals_scalar_reference(self, theta_m_deg):
        theta_m = math.radians(theta_m_deg)
        lattice = np.radians(np.arange(0.0, 180.1, 7.5))
        surface = disturbance_surface(theta_m, lattice, lattice[::2])
        inst = ProjectiveInstrument(polar_observable(theta_m))
        for i, vt in enumerate(lattice):
            for j, ph in enumerate(lattice[::2]):
                cmap = CorrectionMap.from_rotation_angles(float(vt), float(ph))
                assert surface[i, j] == scalar_disturbance(inst, SIGMA_Y, cmap)

    def test_measuring_b_allows_zero_disturbance(self):
        res = correction_grid_search(math.pi / 2, self.COARSE, self.COARSE)
        assert res.d_min == 0.0
        assert (math.degrees(res.best_vartheta), math.degrees(res.best_phi)) == (90.0, 90.0)

    def test_refining_the_grid_never_beats_the_optimum(self):
        fine = np.radians(np.arange(80.0, 100.1, 1.0))
        res = correction_grid_search(math.radians(50.0), fine, fine)
        assert res.d_min >= H_SIN50 - 1e-9
        assert res.d_min == pytest.approx(H_SIN50, abs=1e-9)

    @pytest.mark.parametrize("theta_m_deg", [20.0, 50.0, 70.0, 130.0])
    def test_refinement_fixed_point_at_other_angles(self, theta_m_deg):
        floor = binary_entropy(abs(math.sin(math.radians(theta_m_deg))))
        fine = np.radians(np.arange(80.0, 100.1, 1.0))
        res = correction_grid_search(math.radians(theta_m_deg), fine, fine)
        assert res.d_min >= floor - 1e-9
        assert res.d_min == pytest.approx(floor, abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            correction_grid_search(1.0, [], [0.1])

    def test_csv_export(self):
        res = correction_grid_search(math.radians(50.0), self.COARSE, self.COARSE)
        buf = io.StringIO()
        write_table(buf, {"vartheta_deg": np.degrees(res.varthetas)[:, None],
                          "phi_deg": np.degrees(res.phis)[None, :], "D": res.surface}, "csv")
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "vartheta_deg,phi_deg,D"
        assert len(lines) == 1 + 9 * 9
        assert lines[1].startswith("0.0,0.0,")
        # row-major: the second line is the next phi of the first vartheta
        assert lines[2].startswith("0.0,22.5,")
        assert lines[1 + 9].startswith("22.5,0.0,")


class TestCheckBounds:
    def test_extremal_point_saturates_both(self):
        assert check_bounds(0.0, 1.0) == (1.0, True, True)

    def test_optimal_pair_at_45_saturates_tight(self):
        tight, general, satisfied = check_bounds(H_SIN45, H_SIN45)
        assert abs(tight - 1.0) <= 1e-9
        assert general and satisfied

    def test_uncorrected_pair_at_45_has_slack(self):
        tight, general, satisfied = check_bounds(H_SIN45, H_HALF)
        assert tight == pytest.approx(0.75, abs=1e-9)
        assert general and satisfied

    def test_violations_are_flagged(self):
        _, general, satisfied = check_bounds(0.2, 0.2)
        assert not satisfied
        assert not general

    def test_tight_value_on_arrays_matches_scalar_reports(self):
        n = np.array([0.0, H_SIN45, H_SIN45, 0.2, 1.0])
        d = np.array([1.0, H_SIN45, H_HALF, 0.2, 0.0])
        tight = tight_value(n, d)
        assert tight.shape == (5,)
        checked = check_bounds(n, d)
        for k in range(5):
            scalar = check_bounds(n[k], d[k])
            assert tight[k] == scalar[0] == checked[0][k]
            assert (checked[1][k], checked[2][k]) == scalar[1:]
        assert isinstance(tight_value(H_SIN45, H_HALF), float)

    def test_complementary_pair_is_one_bit(self):
        # c_AB of (sigma_z, sigma_y) is 1 bit: N + D = 1 passes the general
        # bound, and 2e-9 bits less fails it at the default 1e-9 slack
        assert check_bounds(0.4, 0.6)[1]
        assert not check_bounds(0.4, 0.6 - 2e-9)[1]

    def test_scalar_input_gives_a_float_and_two_bools(self):
        tight, general, satisfied = check_bounds(0.3, 0.9)
        assert type(tight) is float
        assert type(general) is bool and type(satisfied) is bool

    def test_broadcasts_noise_against_stacked_disturbances(self):
        # one noise row against two disturbance rows, as the sweep checks D0 and Dcorr
        n = np.array([0.0, H_SIN45, 0.2])
        d = np.array([[1.0, H_HALF, 0.2], [1.0, H_SIN45, 0.9]])
        tight, general, satisfied = check_bounds(n, d)
        assert tight.shape == general.shape == satisfied.shape == (2, 3)
        assert general.tolist() == [[True, True, False], [True, True, True]]
        for i in range(2):
            for k in range(3):
                assert tight[i, k] == tight_value(n[k], d[i, k])

    def test_tolerance_is_the_accepted_slack(self):
        # N + D = 0.4 passes the general bound once 0.6 bits of slack are allowed
        assert not check_bounds(0.2, 0.2, tolerance=0.59)[1]
        assert check_bounds(0.2, 0.2, tolerance=0.61)[1]
        tight = check_bounds(0.2, 0.2)[0]
        assert check_bounds(0.2, 0.2, tolerance=tight - 1.0)[2]

    def test_array_tolerance_gives_the_flags_of_per_row_calls(self):
        n = np.array([0.5, 0.6, 0.2, 0.2, 0.0])
        d = np.array([0.6, 0.5, 0.2, 0.2, 1.0])
        tolerance = np.array([1e-9, 1e-9, 0.59, 0.61, 0.0])
        tight, general, satisfied = check_bounds(n, d, tolerance=tolerance)
        for k in range(n.size):
            scalar = check_bounds(n[k], d[k], tolerance=float(tolerance[k]))
            assert (tight[k], general[k], satisfied[k]) == scalar
        # one noise row, two disturbance rows, a slack per column
        stacked = check_bounds(n, np.stack([d, d]), tolerance=tolerance)
        assert stacked[1].tolist() == [general.tolist()] * 2

    @pytest.mark.parametrize("tolerance", [
        -1e-9, math.nan, math.inf,
        np.array([1e-9, -1e-9]), np.array([1e-9, math.nan]), np.array([math.inf, 1e-9]),
        "abc", [1e-9, [1e-9]],
    ])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValidationError):
            check_bounds(0.5, 0.5, tolerance=tolerance)
        with pytest.raises(ValidationError):
            check_bounds(np.array([0.5, 0.6]), np.array([0.6, 0.5]), tolerance=tolerance)

    def test_bits_outside_the_unit_interval_raise(self):
        # the inverse entropy checks its domain with 1e-12 slack, so 2 bits
        # is an error rather than being clipped to 1 bit
        with pytest.raises(DomainError):
            tight_value(2.0, 0.5)
        with pytest.raises(DomainError):
            check_bounds(0.5, -0.1)
        assert tight_value(1.0 + 1e-13, 0.5) == tight_value(1.0, 0.5)


class TestVariationalF:
    def test_symmetric_point_is_one(self):
        assert variational_f(math.pi / 4) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value_at_30_degrees(self):
        assert variational_f(math.radians(30.0)) == pytest.approx(F_30, abs=1e-12)

    def test_reciprocal_symmetry(self):
        t = math.radians(30.0)
        assert variational_f(t) * variational_f(math.pi / 2 - t) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_on_1000_interior_points(self):
        ts = np.array([(k / 1001.0) * (math.pi / 2) for k in range(1, 1001)])
        vals = variational_f(ts)
        assert np.all(np.diff(vals) > 0.0)

    def test_reciprocal_identity_on_grid(self):
        ts = np.linspace(0.01, math.pi / 2 - 0.01, 500)
        assert np.max(np.abs(variational_f(ts) * variational_f(math.pi / 2 - ts) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.1, math.pi])
    def test_endpoints_rejected(self, theta):
        with pytest.raises(DomainError):
            variational_f(theta)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, theta):
        with pytest.raises(DomainError):
            variational_f(theta)
        with pytest.raises(DomainError):
            variational_f(np.array([0.3, theta]))


class TestCorrectionOrdering:
    def test_optimal_never_exceeds_uncorrected(self):
        grid = np.radians(np.arange(181.0))
        equal_at = []
        for theta in grid:
            m = polar_observable(float(theta))
            inst = ProjectiveInstrument(m)
            d0 = disturbance(inst, SIGMA_Y)
            dopt = disturbance(inst, SIGMA_Y, optimal_correction(m.axis))
            assert dopt <= d0 + 1e-12
            if abs(d0 - dopt) <= 1e-12:
                equal_at.append(round(math.degrees(float(theta))))
        assert equal_at == [0, 90, 180]


class TestVariationalSolverState:
    """The stationary solution of the boundary's variational problem, from
    the closed forms of scalar_reference.stationary_members, against
    variational_f and the entropies of the package."""

    def test_multiplier_matches_f_at_the_mirror_angle(self):
        theta = math.radians(30.0)
        members, kappa, _ = stationary_members(theta)
        assert kappa == pytest.approx(variational_f(math.pi / 2 - theta), abs=1e-12)
        # the four members +-pi/2 +- theta all mirror theta: |cos t| = sin theta
        assert len(members) == 4
        assert np.allclose(np.abs(np.cos(members)), math.sin(theta), rtol=0.0, atol=1e-12)

    def test_weight_multiplier_balances_the_weight_condition(self):
        theta = math.radians(25.0)
        members, kappa, lam = stationary_members(theta)
        point = binary_entropy(math.cos(theta)), binary_entropy(math.sin(theta))
        # every member sits at the boundary point, where
        # h(sin t_m) + kappa h(cos t_m) = -lam
        for t in members:
            n, d = binary_entropy(math.sin(t)), binary_entropy(math.cos(t))
            assert (n, d) == pytest.approx(point, abs=1e-12)
            assert n + kappa * d == pytest.approx(-lam, abs=1e-9)
        # and holds with f's own multiplier at the mirror angle
        assert point[0] + variational_f(math.pi / 2 - theta) * point[1] == pytest.approx(
            -lam, abs=1e-9)

    def test_any_mixture_of_members_lands_on_the_boundary_point(self):
        theta = math.radians(35.0)
        members, kappa, lam = stationary_members(theta)
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = rng.dirichlet(np.ones(4))
            n, d = ensemble_point([EnsembleMember(wi, BlochVector(0.0, math.cos(t), math.sin(t)))
                                   for wi, t in zip(w, members)])
            assert n == pytest.approx(binary_entropy(math.cos(theta)), abs=1e-12)
            assert d == pytest.approx(binary_entropy(math.sin(theta)), abs=1e-12)
            # and meets the weight condition with kappa, which is f's multiplier
            for multiplier in (kappa, variational_f(math.pi / 2 - theta)):
                assert n + multiplier * d == pytest.approx(-lam, abs=1e-9)

    @pytest.mark.parametrize("theta_deg", [5.0, 25.0, 45.0, 60.0, 85.0])
    def test_folded_members_are_stationary(self, theta_deg):
        members, kappa, _ = stationary_members(math.radians(theta_deg))
        # f depends on t only through |sin t| and |cos t| (h'(x)/x is even),
        # so each member folds into (0, pi/2), where f of it is the multiplier
        t = np.array(members)
        folded = np.arctan2(np.abs(np.sin(t)), np.abs(np.cos(t)))
        assert np.all(np.abs(variational_f(folded) - kappa) <= 1e-8)


class TestBoundaryCurve:
    def test_endpoints_exact(self):
        curve = boundary_curve(91)
        assert (curve.noise[0], curve.disturbance[0]) == (0.0, 1.0)
        assert (curve.noise[-1], curve.disturbance[-1]) == (1.0, 0.0)

    def test_midpoint(self):
        curve = boundary_curve(91)
        i = 45  # theta = 45 deg on the 91-sample grid
        assert curve.noise[i] == pytest.approx(H_SIN45, abs=1e-12)
        assert curve.disturbance[i] == pytest.approx(H_SIN45, abs=1e-12)

    def test_parametric_and_implicit_forms_agree(self):
        from noisedist import binary_entropy_inverse

        curve = boundary_curve(1001)
        g_n = binary_entropy_inverse(curve.noise)
        g_d = binary_entropy_inverse(curve.disturbance)
        assert np.max(np.abs(g_n**2 + g_d**2 - 1.0)) <= 1e-10

    def test_boundary_distance_of_boundary_points_is_zero(self):
        curve = boundary_curve(181)
        dist = signed_boundary_distance(curve.noise, curve.disturbance)
        assert np.max(np.abs(dist)) <= 1e-10

    def test_boundary_disturbance_endpoints(self):
        assert boundary_disturbance(0.0) == 1.0
        assert boundary_disturbance(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_route_matches_the_scalar_boundary_disturbance(self):
        # the route ensemble_boundary_oracle takes from N to the boundary's D
        from noisedist import binary_entropy_inverse

        n = np.concatenate([[0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0], np.linspace(0.0, 1.0, 257)])
        routed = _boundary_disturbance_of_g(binary_entropy_inverse(n))
        assert np.max(np.abs(routed - boundary_disturbance(n))) <= 1e-12
        assert (routed[0], routed[4]) == (1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, -0.5])
    def test_signed_distance_rejects_disturbance_outside_the_bits(self, bad):
        # the oracle's inverse-entropy call checks the bits, as tight_value's does
        with pytest.raises(DomainError):
            signed_boundary_distance(0.5, bad)
        with pytest.raises(DomainError):
            tight_value(0.5, bad)

    def test_sample_validation(self):
        with pytest.raises(ValidationError):
            boundary_curve(1)

    def test_points_iterator(self):
        theta, noise, disturbance = boundary_curve(11)
        assert len(theta) == len(noise) == len(disturbance) == 11

    @pytest.mark.parametrize("samples", [math.nan, 2.5, True, "3"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValidationError):
            boundary_curve(samples)

    def test_csv_export(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["boundary", "--samples", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta_deg,N,D,mu_line_D,tight_value"
        assert lines[1] == "0.0,0.0,1.0,1.0,1.0"
        assert lines[-1] == "90.0,1.0,0.0,0.0,1.0"


class TestEnsembles:
    def test_single_pure_state_at_45(self):
        state = PureState.from_angles(math.pi / 4, math.pi / 2).direction
        n, d = ensemble_point([EnsembleMember(1.0, state)])
        assert n == pytest.approx(H_SIN45, abs=1e-12)
        assert d == pytest.approx(H_SIN45, abs=1e-12)

    def test_maximally_mixed_state(self):
        assert ensemble_point([EnsembleMember(1.0, BlochVector(0, 0, 0))]) == (1.0, 1.0)

    def test_z_eigenstate(self):
        assert ensemble_point([EnsembleMember(1.0, BlochVector(0, 0, 1))]) == (0.0, 1.0)

    def test_two_y_eigenstates_sit_on_the_boundary(self):
        members = [EnsembleMember(0.5, BlochVector(0, 1, 0)),
                   EnsembleMember(0.5, BlochVector(0, -1, 0))]
        assert ensemble_point(members) == (1.0, 0.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ensemble_point([EnsembleMember(0.7, BlochVector(0, 0, 1))])

    def test_member_validation(self):
        with pytest.raises(ValidationError):
            EnsembleMember(1.2, BlochVector(0, 0, 1))
        with pytest.raises(ValidationError):
            EnsembleMember(0.5, BlochVector(0, 1.2, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_member_rejected(self, bad):
        with pytest.raises(ValidationError):
            EnsembleMember(0.5, BlochVector(0, bad, 0))

    def test_projection_lemma_on_random_members(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(200, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs *= rng.uniform(size=(200, 1)) ** (1 / 3)
        members = [EnsembleMember(1.0 / 200, BlochVector(*v)) for v in vecs]
        projected = pure_state_projection(members)
        for m, p in zip(members, projected):
            assert p.state.x == 0.0
            assert p.state.norm() == pytest.approx(1.0, abs=1e-12)
            assert p.state.y == m.state.y  # disturbance coordinate preserved
            assert binary_entropy(p.state.z) <= binary_entropy(m.state.z) + 1e-15
        n, d = ensemble_point(members)
        n_p, d_p = ensemble_point(projected)
        assert n_p <= n + 1e-12
        assert d_p == pytest.approx(d, abs=1e-15)


class TestEnsembleOracle:
    def test_report_structure_and_true_invariants(self):
        report = ensemble_boundary_oracle(20000, max_members=4, seed=0)
        assert report.trials == 20000
        # single states can never beat the curve
        assert report.min_single_member_distance >= -1e-9
        # projection lemma holds member-wise and ensemble-wise
        assert report.max_member_noise_increase <= 1e-12
        assert report.max_projection_noise_increase <= 1e-12
        assert report.max_projection_disturbance_shift <= 1e-12

    def test_entropy_sums_stay_on_or_above_the_segment(self):
        # Maassen-Uffink holds member by member, so N* + D* >= 1 for every
        # ensemble; 100k trials at seed 0 come within 0.0092 bits of it
        report = ensemble_boundary_oracle(100_000, max_members=4, seed=0)
        assert report.min_entropy_sum >= 1.0 - 1e-12
        assert report.min_entropy_sum == pytest.approx(1.0091, abs=1e-4)
        assert report.boundary_violations > 0  # below the curve, not the segment

    def test_known_counterexample_beats_the_curve(self):
        # equal mixture of |+z> and |+y>: entropy averages reach the straight
        # N + D = 1 segment, 0.195 bits below the curve at its midpoint
        members = [EnsembleMember(0.5, BlochVector(0, 0, 1)),
                   EnsembleMember(0.5, BlochVector(0, 1, 0))]
        n, d = ensemble_point(members)
        assert (n, d) == (0.5, 0.5)
        assert signed_boundary_distance(n, d) < -0.19

    def test_worst_ensemble_is_reproducible(self):
        report = ensemble_boundary_oracle(20000, max_members=4, seed=0)
        if report.boundary_violations:
            n, d = ensemble_point(list(report.worst_ensemble))
            assert signed_boundary_distance(n, d) == pytest.approx(
                report.min_signed_distance, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ensemble_boundary_oracle(0)
        with pytest.raises(ValidationError):
            ensemble_boundary_oracle(10, max_members=0)

    @pytest.mark.parametrize("kwargs", [
        {"trials": 1.5}, {"trials": math.nan}, {"trials": True},
        {"trials": 10, "max_members": 2.5}, {"trials": 10, "seed": -1},
        {"trials": 10, "seed": 0.5},
    ], ids=["trials-1.5", "trials-nan", "trials-true", "max-members-2.5", "seed-negative",
            "seed-0.5"])
    def test_integer_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            ensemble_boundary_oracle(**kwargs)

    def test_projection_fields_bound_the_worst_ensemble(self):
        # the scalar projection of the worst ensemble stays within the report's
        # extremes, which are taken over every trial
        report = ensemble_boundary_oracle(5000, max_members=4, seed=2)
        members = list(report.worst_ensemble)
        n, d = ensemble_point(members)
        n_p, d_p = ensemble_point(pure_state_projection(members))
        assert n_p - n <= report.max_projection_noise_increase + 1e-15
        assert abs(d_p - d) <= report.max_projection_disturbance_shift + 1e-15


def _member_values(rows, members):
    """Seeded (rows, members) values over ten decades, so that any change in
    the order of the adds shows; the first row is all -0.0, which numpy sums
    to +0.0, and the second, if any, holds -0.0 among other values."""
    rng = np.random.default_rng(rows * 100 + members)
    values = rng.standard_normal((rows, members)) * 10.0 ** rng.uniform(-5, 5, (rows, members))
    values[0] = -0.0
    values[1:2, ::2] = -0.0
    return values


MEMBER_SUM_CASES = [(rows, members) for rows in (1, 7, 16_385) for members in range(1, 21)]


def member_sum_mismatches():
    """The (rows, members) cases of MEMBER_SUM_CASES where _member_sum and
    .sum(axis=1) differ in any bit."""
    return [(rows, members) for rows, members in MEMBER_SUM_CASES
            if not np.array_equal(_member_sum(_member_values(rows, members)).view(np.int64),
                                  _member_values(rows, members).sum(axis=1).view(np.int64))]


class TestMemberSum:
    def test_same_bits_as_the_row_sum(self):
        assert member_sum_mismatches() == []

    def test_column_adds_alone_would_differ_from_8_members(self):
        # the case _member_sum leaves to numpy: there numpy sums pairwise
        for members in range(8, 21):
            values = _member_values(16_385, members)
            columns = values[:, 0].copy()
            for k in range(1, members):
                columns += values[:, k]
            assert not np.array_equal(columns, values.sum(axis=1))

    def test_same_bits_at_the_lower_dispatch_level(self):
        """binary_entropy against its reference and _member_sum against the
        row sum, rerun in a child with numpy's AVX512 kernels off: numpy
        picks its masked log2(where=) loop per SIMD level too. The setting
        acts on the child alone; on a CPU without those features the child
        runs at its own level, and a numpy that refuses the setting skips."""
        tests = Path(__file__).resolve().parent
        src = str(Path(noisedist.bounds.__file__).resolve().parents[1])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR,AVX512_ICL,X86_V4")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(tests), env.get("PYTHONPATH")]))
        script = (
            "import numpy as np\n"
            "from noisedist import binary_entropy\n"
            "from scalar_reference import binary_entropy as reference\n"
            "from test_bounds import member_sum_mismatches\n"
            "from test_entropy import entropy_grid\n"
            "x = entropy_grid()\n"
            "print(int(np.sum(binary_entropy(x).view(np.int64) != reference(x).view(np.int64))))\n"
            "print(member_sum_mismatches())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES here")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0", "[]"]


def _traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn() runs. numpy reports its
    buffers to tracemalloc, so the figure is deterministic."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    """The surface, the boundary with its tight_value column, the sweep
    rows and the oracle are evaluated in blocks of tables._BLOCK_SIZE items.
    Every value is a per-cell, per-sample, per-angle or per-trial
    computation, and every sampled stream is keyed by its angle, so no block
    size may change a bit, and the peaks scale with the results, not the
    temporaries. The boundary and sweep commands write their tables a block
    at a time, so they hold no result whole but a sweep's angles."""

    COMMANDS = (
        ["boundary", "--samples", "301", "--format", "json"],
        ["sweep", "--theta", "0:180:7.5"],
        ["sweep", "--theta", "0:180:15", "--mode", "multinomial", "--shots", "3000",
         "--seed", "6", "--format", "json"],
        ["sweep", "--theta", "0:180:15", "--mode", "poisson", "--shots", "4000", "--seed", "2",
         "--correction", "custom", "--target", "37.5,121.25"],
    )

    @classmethod
    def _outputs(cls, tmp_path):
        grid = np.radians(np.arange(0.0, 180.1, 7.5))
        written = []
        for argv in cls.COMMANDS:
            out = tmp_path / "out"
            assert main(argv + ["--out", str(out)]) == 0
            written.append(out.read_bytes())
        return (
            disturbance_surface(0.7, grid, grid[::2]).tobytes(),
            [column.tobytes() for column in boundary_curve(301)],
            written,
            repr(ensemble_boundary_oracle(300, max_members=5, seed=8)),
            repr(ensemble_boundary_oracle(200, max_members=1, seed=2)),
        )

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_changes_no_bit(self, block, monkeypatch, tmp_path):
        monkeypatch.setattr(noisedist.tables, "_BLOCK_SIZE", 10**9)
        whole = self._outputs(tmp_path)
        monkeypatch.setattr(noisedist.tables, "_BLOCK_SIZE", block)
        assert self._outputs(tmp_path) == whole

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_first_empty_sweep_table_raises_whatever_the_blocks(self, block, monkeypatch,
                                                               capsys):
        # at seed 2 the first table with an empty input row is family B's at
        # 60 degrees, and a later one family A's at 150 degrees
        argv = ["sweep", "--theta", "0:180:15", "--mode", "poisson", "--shots", "4",
                "--seed", "2"]
        monkeypatch.setattr(noisedist.tables, "_BLOCK_SIZE", block)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "input row with zero counts in family B" in capsys.readouterr().err

    def test_surface_evaluates_at_most_its_distinct_overlaps(self, monkeypatch):
        """The 0.75 degree lattice at theta_m = 37.3 degrees has 58,081 cells
        but far fewer distinct target overlaps sin(vartheta) sin(phi); the
        kernel evaluates no more cells than that, and its values are bit for
        bit those of one call over every cell."""
        grid = np.radians(np.arange(0.0, 180.375, 0.75))
        theta_m = math.radians(37.3)
        evaluated = []
        kernel = noisedist.bounds.disturbance_bits

        def counted(b_m, target_b):
            evaluated.append(np.size(target_b) // 2)
            return kernel(b_m, target_b)

        monkeypatch.setattr(noisedist.bounds, "disturbance_bits", counted)
        surface = disturbance_surface(theta_m, grid, grid)
        monkeypatch.undo()
        overlaps = np.sin(grid)[:, None] * np.sin(grid)[None, :]
        distinct = np.unique(overlaps.view(np.int64)).size
        assert sum(evaluated) <= distinct < surface.size // 3
        b_m = SIGMA_Y.axis.dot(polar_observable(theta_m).axis)
        whole = kernel(b_m, noisedist.entropy._eigen_pair(overlaps))
        assert surface.tobytes() == whole.tobytes()

    # what the oracle holds whole: per trial its size (one byte below 256
    # members), per member a gamma and three normals, and its distance; the
    # uniforms are drawn a block at a time
    @staticmethod
    def _oracle_held(trials, members):
        return trials * (1 + 8 * members * 4 + 8)

    def test_oracle_peak_is_set_by_its_draws(self):
        trials, members = 100_000, 4
        peak = _traced_peak(lambda: ensemble_boundary_oracle(trials, members, seed=0))
        assert peak < 1.5 * self._oracle_held(trials, members)

    def test_oracle_holds_one_block_of_temporaries(self):
        # above what it holds whole, the oracle holds the temporaries of one
        # block of trials: 4 to 5 MiB here, against about 8 MiB for blocks
        # of twice the size
        trials, members = 100_000, 4
        peak = _traced_peak(lambda: ensemble_boundary_oracle(trials, members, seed=0))
        assert peak - self._oracle_held(trials, members) < 6 * 2**20

    def test_sweep_peak_is_its_angles_plus_one_block(self, tmp_path):
        # a sweep holds its angles (8 bytes each) and one block of rows, its
        # temporaries and its strings: about 6.2 MB above the angles at
        # 20,001 angles (two blocks) and at 90,001 (six). Holding the value
        # columns whole, as the whole-table writer did, put 90,001 angles
        # 10.8 MB above them
        excess = []
        for step, angles in (("0.009", 20_001), ("0.002", 90_001)):
            argv = ["sweep", "--theta", f"0:180:{step}", "--out", str(tmp_path / "s.csv")]
            excess.append(_traced_peak(lambda: main(argv)) - 8 * angles)
        assert max(excess) < 7 * 2**20
        assert abs(excess[1] - excess[0]) < 2**19

    def test_sampled_sweep_peak_per_angle(self, tmp_path):
        # 9,001 angles in one block, six streams an angle: about 1,420 traced
        # bytes an angle, 384 of them the pools and the hash's temporary (64
        # bytes a stream). A SeedSequence object kept per stream adds 2,900
        angles = 9_001
        argv = ["sweep", "--theta", "0:180:0.02", "--mode", "multinomial", "--shots", "1000",
                "--out", str(tmp_path / "s.csv")]
        assert _traced_peak(lambda: main(argv)) < 1_800 * angles

    def test_surface_peak_is_a_small_multiple_of_the_surface(self):
        grid = np.radians(np.arange(0.0, 180.25, 0.5))  # 361 x 361 cells
        peak = _traced_peak(lambda: disturbance_surface(math.radians(37.5), grid, grid))
        assert peak < 4 * 8 * grid.size**2

    def test_long_row_surface_peak_is_a_small_multiple_of_the_surface(self):
        # 2 x 180,001 cells: a block is part of one vartheta row
        varthetas, phis = np.radians([0.0, 180.0]), np.radians(np.arange(0.0, 180.0005, 0.001))
        peak = _traced_peak(lambda: disturbance_surface(math.radians(37.5), varthetas, phis))
        assert peak < 4 * 8 * varthetas.size * phis.size

    def test_boundary_peak_is_a_small_multiple_of_its_columns(self):
        samples = 100_000
        assert _traced_peak(lambda: boundary_curve(samples)) < 2 * 3 * 8 * samples

    def test_boundary_command_peak_does_not_grow_with_samples(self, tmp_path):
        # the command computes and writes one block at a time: about 3.3 MB
        # at 100,000 samples and at 400,000 (with its six columns held
        # whole, 8.0 and 22.4 MB)
        peaks = [_traced_peak(lambda: main(["boundary", "--samples", str(samples),
                                            "--out", str(tmp_path / "b.csv")]))
                 for samples in (100_000, 400_000)]
        assert peaks[0] < 4 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**20

    @pytest.mark.parametrize("samples", [2, 3, 91, 16_384, 16_385, 100_001])
    def test_boundary_block_angles_are_linspace(self, samples):
        blocks = list(_boundary_blocks(samples))
        assert [span.start for span, _ in blocks] == list(range(0, samples, 16_384))
        theta = np.concatenate([curve.theta for _, curve in blocks])
        assert theta.tobytes() == np.linspace(0.0, math.pi / 2, samples).tobytes()
        assert boundary_curve(samples).theta.tobytes() == theta.tobytes()


class TestMaassenUffink:
    """The boundary against the flat bound H(sigma_z) + H(sigma_y) >= 1 bit:
    N + D of boundary_curve at theta is the entropy sum of the y-z-plane
    pure state psi(theta, pi/2)."""

    @staticmethod
    def sums(samples):
        curve = boundary_curve(samples)
        return curve.theta, curve.noise + curve.disturbance

    def test_minimum_is_one_bit_at_the_endpoints_only(self):
        theta, sums = self.sums(721)
        assert sums.min() == 1.0
        assert sums[0] == sums[-1] == 1.0
        assert theta[np.argmin(sums)] in (0.0, math.pi / 2)
        assert sums[1:-1].min() - 1.0 > 0.0

    def test_state_at_45_exceeds_the_flat_bound(self):
        state = PureState.from_angles(math.pi / 4, math.pi / 2).direction
        n, d = ensemble_point([EnsembleMember(1.0, state)])
        assert n + d == pytest.approx(MU_SUM_45, abs=1e-12)

    @pytest.mark.parametrize("samples", [2, 157, 1572])
    def test_states_are_those_of_from_angles(self, samples, monkeypatch):
        # the r_z and r_y whose entropies are summed are, bit for bit, the
        # Bloch vectors of the states PureState.from_angles builds; they are
        # the last two calls, boundary_curve's
        seen = []
        real = noisedist.bounds.binary_entropy

        def recorded(x):
            seen.append(np.array(x))
            return real(x)

        monkeypatch.setattr(noisedist.bounds, "binary_entropy", recorded)
        boundary_curve(samples)
        states = [PureState.from_angles(t, math.pi / 2).direction
                  for t in np.linspace(0.0, math.pi / 2, samples).tolist()]
        assert np.array_equal(seen[-2], [state.z for state in states])
        assert np.array_equal(seen[-1], [state.y for state in states])

    def test_matches_the_ensemble_point_loop(self):
        thetas = np.linspace(0.0, math.pi / 2, 157)
        sums = np.array([
            sum(ensemble_point([EnsembleMember(
                1.0, PureState.from_angles(t, math.pi / 2).direction)]))
            for t in thetas
        ])
        theta, curve_sums = self.sums(157)
        assert curve_sums.min() == sums.min()
        assert theta[np.argmin(curve_sums)] == thetas[np.argmin(sums)]
        assert curve_sums[1:-1].min() - 1.0 == sums[1:-1].min() - 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            boundary_curve(1)

    @pytest.mark.parametrize("samples", [math.nan, 2.5])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValidationError):
            boundary_curve(samples)


def test_x_axis_observable_has_maximal_noise_everywhere():
    # sigma_x is complementary to both sigma_z and sigma_y
    from noisedist import noise

    inst = ProjectiveInstrument(Observable(BlochVector(1.0, 0.0, 0.0)))
    assert noise(inst, SIGMA_Z) == 1.0
    assert disturbance(inst, SIGMA_Y) == 1.0
