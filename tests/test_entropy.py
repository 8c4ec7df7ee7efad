"""Tests for the entropy machinery and the noise/disturbance functionals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    CorrectionMap,
    BlochVector,
    DomainError,
    NDPoint,
    NoiseDistError,
    ProjectiveInstrument,
    PureState,
    ValidationError,
    binary_entropy,
    binary_entropy_derivative,
    binary_entropy_inverse,
    disturbance,
    disturbance_bits,
    joint_tables,
    noise,
    noise_bits,
    optimal_correction,
    polar_observable,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
)
from noisedist.bloch import OUTCOMES, born
from noisedist.entropy import DOMAIN_ATOL, _cond_entropy_given_last
from scalar_reference import binary_entropy as reference_binary_entropy
from scalar_reference import (
    cond_entropy_given_last,
    scalar_disturbance,
    scalar_joint,
    scalar_noise,
)

# frozen with a 30-digit evaluation of the defining formulas
H_HALF = 0.81127812445913286      # h(1/2)
H_SIN45 = 0.6008760366928561      # h(sin 45 deg)
H_SIN50 = 0.52061073185482543     # h(sin 50 deg)

GRID = np.radians(np.arange(181.0))


def unit_state(x, y, z):
    """The pure state along (x, y, z), scaled onto the sphere."""
    v = BlochVector(x, y, z)
    n = v.norm()
    return PureState(BlochVector(v.x / n, v.y / n, v.z / n))


def _bisect_inverse(y):
    """Reference inverse of h on [0, 1]: bisection on the bracket [0, 1] until
    it is below 1e-15 wide (about 50 steps). h is strictly decreasing there,
    so this is unconditionally robust, if slow."""
    arr = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
    lo = np.zeros_like(arr)
    hi = np.ones_like(arr)
    for _ in range(200):
        if not np.any(hi - lo > 1e-15):
            break
        mid = 0.5 * (lo + hi)
        go_right = binary_entropy(mid) > arr  # root is where h crosses y
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    x = 0.5 * (lo + hi)
    x = np.where(arr == 0.0, 1.0, x)
    return np.where(arr == 1.0, 0.0, x)


class TestBinaryEntropy:
    @pytest.mark.parametrize("x,expected", [(0.0, 1.0), (1.0, 0.0), (-1.0, 0.0)])
    def test_exact_endpoints(self, x, expected):
        assert binary_entropy(x) == expected

    def test_half_bias(self):
        assert binary_entropy(0.5) == pytest.approx(H_HALF, abs=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.0 + 1e-9)
        with pytest.raises(DomainError):
            binary_entropy(np.array([0.5, math.nan]))

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 1.0, 0.5]))
        assert out.shape == (3,)
        assert out[0] == 1.0 and out[1] == 0.0

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_even_and_bounded(self, x):
        hx = binary_entropy(x)
        assert 0.0 <= hx <= 1.0
        assert abs(hx - binary_entropy(-x)) <= 1e-15


# the edges of binary_entropy's domain: signed zeros and ends, the doubles
# next to the ends, subnormals and the slack past the ends
ENTROPY_EDGES = [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 5e-324, -5e-324,
                 2.2250738585072009e-308, -2.2250738585072009e-308,
                 1.0 + DOMAIN_ATOL, -1.0 - DOMAIN_ATOL]
# what binary_entropy must reject
ENTROPY_OUTSIDE = [math.nan, math.inf, -math.inf, 1.0 + 1e-11, -1.0 - 1e-11]


def entropy_grid():
    """About 600k arguments of binary_entropy: uniform on [-1, 1], log-spaced
    towards 0 and towards both ends, and the edges, in an odd count so that
    every SIMD loop has a tail."""
    toward_zero = np.logspace(-320.0, 0.0, 100_001)
    toward_end = 1.0 - np.logspace(-17.0, 0.0, 100_001)
    uniform = np.random.default_rng(19).uniform(-1.0, 1.0, 100_001)
    half = np.concatenate([toward_zero, toward_end, uniform, ENTROPY_EDGES])
    return np.concatenate([half, -half, [0.5]])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBinaryEntropyReference:
    """binary_entropy gives the bits of the two-term formula in
    scalar_reference, and rejects what it rejects."""

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                  elements=st.one_of(st.floats(-1.0 - DOMAIN_ATOL, 1.0 + DOMAIN_ATOL),
                                     st.sampled_from(ENTROPY_EDGES))))
    @example(np.array(ENTROPY_EDGES))
    @example(np.array(ENTROPY_EDGES).reshape(3, 4))
    @example(np.empty(0))
    @example(np.empty((2, 0)))
    @example(np.array(-0.0))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_reference(self, x):
        new, ref = binary_entropy(x), reference_binary_entropy(x)
        assert type(new) is type(ref)
        assert np.shape(new) == np.shape(ref)
        assert np.array_equal(_bits(new), _bits(ref))

    @given(st.one_of(st.floats(-1.0 - DOMAIN_ATOL, 1.0 + DOMAIN_ATOL),
                     st.sampled_from(ENTROPY_EDGES)))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_for_python_floats(self, x):
        new, ref = binary_entropy(x), reference_binary_entropy(x)
        assert type(new) is float and type(ref) is float
        assert _bits(new) == _bits(ref)

    def test_same_bits_on_a_dense_grid(self):
        x = entropy_grid()
        assert np.array_equal(_bits(binary_entropy(x)), _bits(reference_binary_entropy(x)))
        x = x[1:].reshape(-1, 5)
        assert np.array_equal(_bits(binary_entropy(x)), _bits(reference_binary_entropy(x)))

    @pytest.mark.parametrize("bad", ENTROPY_OUTSIDE, ids=repr)
    @pytest.mark.parametrize("shape", ["scalar", "0-d", "1-D", "2-D"])
    def test_same_domain_error(self, bad, shape):
        x = {"scalar": bad, "0-d": np.array(bad), "1-D": np.array([0.5, bad, -1.0]),
             "2-D": np.array([[0.0, 0.25], [bad, 1.0]])}[shape]
        messages = []
        for fn in (binary_entropy, reference_binary_entropy):
            with pytest.raises(DomainError) as info:
                fn(x)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestEntropyInverse:
    @pytest.mark.parametrize("y,expected", [(0.0, 1.0), (1.0, 0.0)])
    def test_exact_endpoints(self, y, expected):
        assert binary_entropy_inverse(y) == expected

    def test_half(self):
        assert binary_entropy_inverse(H_HALF) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            binary_entropy_inverse(-0.001)
        with pytest.raises(DomainError):
            binary_entropy_inverse(1.001)
        with pytest.raises(DomainError):
            binary_entropy_inverse(np.array([0.5, math.nan]))

    def test_round_trip_on_seeded_uniforms(self):
        x = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
        err = np.abs(binary_entropy_inverse(binary_entropy(x)) - x)
        assert err.max() <= 1e-10

    @given(st.floats(min_value=1e-4, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, x):
        assert abs(binary_entropy_inverse(binary_entropy(x)) - x) <= 1e-10

    def test_residual_within_bisection_tolerance(self):
        y = np.linspace(0.0, 1.0, 257)
        resid = np.abs(binary_entropy(binary_entropy_inverse(y)) - y)
        assert resid.max() <= 1e-12

    def test_matches_bisection_on_grid(self):
        y = np.linspace(0.0, 1.0 - 1e-6, 100_001)
        assert np.max(np.abs(binary_entropy_inverse(y) - _bisect_inverse(y))) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_property(self, y):
        assert abs(binary_entropy_inverse(y) - float(_bisect_inverse(y))) <= 1e-12

    @pytest.mark.parametrize("y", [
        np.logspace(-300.0, -1.0, 100_001),     # x -> 1, where h' diverges
        1.0 - np.logspace(-16.0, -1.0, 100_001),  # x -> 0, where h' vanishes
        np.linspace(0.0, 1.0, 100_001),
    ], ids=["y-to-0", "y-to-1", "uniform"])
    def test_residual_at_double_precision(self, y):
        # the bisection reference reaches 1.2e-14 on these grids
        resid = np.abs(binary_entropy(binary_entropy_inverse(y)) - y)
        assert resid.max() <= 1e-13


@pytest.mark.parametrize("func,in_domain", [
    (binary_entropy, lambda v: abs(v) <= 1.0 + DOMAIN_ATOL),
    (binary_entropy_derivative, lambda v: abs(v) < 1.0),
    (binary_entropy_inverse, lambda v: -DOMAIN_ATOL <= v <= 1.0 + DOMAIN_ATOL),
], ids=["h", "h-prime", "g"])
@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@settings(max_examples=300, deadline=None)
def test_finite_value_or_domain_error(func, in_domain, v):
    # NaN is outside every domain: it must raise, never become "0 bits"
    if in_domain(v):
        assert math.isfinite(func(v))
    else:
        with pytest.raises(DomainError):
            func(v)


class TestDerivative:
    def test_zero_slope_at_symmetric_point(self):
        assert binary_entropy_derivative(0.0) == 0.0

    def test_value(self):
        # h'(1/2) = (1/2) log2(1/3)
        assert binary_entropy_derivative(0.5) == pytest.approx(-math.log2(3.0) / 2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy_derivative(1.0)


class TestConditionalEntropy:
    def test_perfectly_correlated(self):
        assert _cond_entropy_given_last(np.array([[0.5, 0.0], [0.0, 0.5]])) == 0.0

    def test_uniform_independent(self):
        assert _cond_entropy_given_last(np.full((2, 2), 0.25)) == 1.0

    def test_binary_symmetric_channel_at_60_degrees(self):
        c = math.cos(math.radians(60.0))
        p = 0.5 * np.array([[(1 + c) / 2, (1 - c) / 2], [(1 - c) / 2, (1 + c) / 2]])
        assert _cond_entropy_given_last(p) == pytest.approx(H_HALF, abs=1e-12)

    def test_zero_marginal_column_skipped(self):
        assert _cond_entropy_given_last(np.array([[0.5, 0.0], [0.5, 0.0]])) == 1.0

    @given(st.lists(st.sampled_from([0.0, 1e-300, 1e-17, 0.25, 1.0]) | st.floats(0.0, 1.0),
                    min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_work_buffer_matches_masked_formulation(self, cells):
        # batches of 2x2 and 3x2 tables, empty cells and columns included
        for shape in ((3, 2, 2), (2, 3, 2)):
            p = np.array(cells).reshape(shape)
            assert np.array_equal(_cond_entropy_given_last(p), cond_entropy_given_last(p))


class TestNoise:
    @pytest.mark.parametrize("deg,expected", [(0.0, 0.0), (90.0, 1.0), (180.0, 0.0)])
    def test_endpoints_exact(self, deg, expected):
        inst = ProjectiveInstrument(polar_observable(math.radians(deg)))
        assert noise(inst, SIGMA_Z) == expected

    def test_matches_closed_form_on_grid(self):
        for theta in GRID:
            inst = ProjectiveInstrument(polar_observable(float(theta)))
            assert noise(inst, SIGMA_Z) == pytest.approx(theory_noise(theta), abs=1e-12)

    def test_relabeling_invariance(self):
        # flipping the measurement axis permutes the outcome labels only
        for deg in (10.0, 35.0, 75.0):
            m = polar_observable(math.radians(deg))
            m_flipped = polar_observable(math.radians(deg + 180.0))
            n1 = noise(ProjectiveInstrument(m), SIGMA_Z)
            n2 = noise(ProjectiveInstrument(m_flipped), SIGMA_Z)
            assert n1 == pytest.approx(n2, abs=1e-12)


class TestDisturbance:
    @pytest.mark.parametrize("deg,expected", [(0.0, 1.0), (90.0, 0.0), (180.0, 1.0)])
    def test_endpoints_exact(self, deg, expected):
        inst = ProjectiveInstrument(polar_observable(math.radians(deg)))
        assert disturbance(inst, SIGMA_Y) == expected

    def test_45_degrees_identity_and_optimal(self):
        m = polar_observable(math.radians(45.0))
        inst = ProjectiveInstrument(m)
        assert disturbance(inst, SIGMA_Y) == pytest.approx(H_HALF, abs=1e-12)
        copt = optimal_correction(m.axis, SIGMA_Y)
        assert disturbance(inst, SIGMA_Y, copt) == pytest.approx(H_SIN45, abs=1e-12)

    def test_matches_closed_forms_on_grid(self):
        for theta in GRID:
            m = polar_observable(float(theta))
            inst = ProjectiveInstrument(m)
            d0 = disturbance(inst, SIGMA_Y)
            dopt = disturbance(inst, SIGMA_Y, optimal_correction(m.axis, SIGMA_Y))
            assert d0 == pytest.approx(theory_disturbance_uncorrected(theta), abs=1e-12)
            assert dopt == pytest.approx(theory_disturbance_optimal(theta), abs=1e-12)

    def test_mirror_symmetry_about_90_degrees(self):
        for deg in np.arange(0.0, 90.1, 7.5):
            a = ProjectiveInstrument(polar_observable(math.radians(deg)))
            b = ProjectiveInstrument(polar_observable(math.radians(180.0 - deg)))
            assert noise(a, SIGMA_Z) == pytest.approx(noise(b, SIGMA_Z), abs=1e-12)
            assert disturbance(a, SIGMA_Y) == pytest.approx(disturbance(b, SIGMA_Y), abs=1e-12)

    def test_no_correction_beats_the_optimal_one(self):
        # 1000 random re-preparation pairs at each of 19 angles
        rng = np.random.default_rng(42)
        thetas = np.radians(np.linspace(0.0, 180.0, 19))
        for theta in thetas:
            m = polar_observable(float(theta))
            inst = ProjectiveInstrument(m)
            d_opt = disturbance(inst, SIGMA_Y, optimal_correction(m.axis, SIGMA_Y))
            vecs = rng.normal(size=(1000, 2, 3))
            vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
            for pair in vecs:
                cmap = CorrectionMap(
                    unit_state(*pair[0]), unit_state(*pair[1]))
                assert disturbance(inst, SIGMA_Y, cmap) >= d_opt - 1e-12


class TestJointTables:
    def test_rows_reproduce_single_measurement_marginals(self):
        for theta in np.radians(np.arange(0.0, 180.1, 11.25)):
            m = polar_observable(float(theta))
            inst = ProjectiveInstrument(m)
            state = PureState.from_angles(0.9, 0.4)
            joint = joint_tables([state.direction.dot(m.axis)], inst.post_map.overlaps(SIGMA_Y))
            assert joint.shape == (1, 2, 2)
            for i, mu in enumerate(OUTCOMES):
                assert joint[0, i].sum() == pytest.approx(
                    inst.outcome_probability(state, mu), abs=1e-12)
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    @given(theta=st.floats(0.0, math.pi), phi=st.floats(-math.pi, math.pi),
           m_theta=st.floats(0.0, math.pi), targets=st.lists(
               st.floats(0.0, math.pi), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_reference(self, theta, phi, m_theta, targets):
        state = PureState.from_angles(theta, phi)
        m = polar_observable(m_theta)
        cmap = CorrectionMap(PureState.from_angles(*targets[:2]),
                             PureState.from_angles(*targets[2:]))
        inst = ProjectiveInstrument(m, cmap)
        joint = joint_tables([state.direction.dot(m.axis)], cmap.overlaps(SIGMA_Y))
        assert np.array_equal(joint[0], scalar_joint(state, inst, SIGMA_Y))


class TestKernelReductions:
    """noise_bits and disturbance_bits (and the noise/disturbance veneers
    over them) equal the per-branch scalar pipeline bit for bit."""

    THETAS = np.concatenate([GRID, np.random.default_rng(3).uniform(-7.0, 7.0, 200)])

    def test_noise_equals_scalar_reference(self):
        for theta in self.THETAS:
            inst = ProjectiveInstrument(polar_observable(float(theta)))
            for a in (SIGMA_Z, SIGMA_Y):
                assert noise(inst, a) == scalar_noise(inst, a)

    def test_disturbance_equals_scalar_reference(self):
        for theta in self.THETAS:
            m = polar_observable(float(theta))
            inst = ProjectiveInstrument(m)
            assert disturbance(inst, SIGMA_Y) == scalar_disturbance(inst, SIGMA_Y)
            copt = optimal_correction(m.axis, SIGMA_Y)
            assert disturbance(inst, SIGMA_Y, copt) == scalar_disturbance(inst, SIGMA_Y, copt)

    def test_disturbance_with_random_target_pairs(self):
        rng = np.random.default_rng(7)
        for theta in np.radians(np.linspace(0.0, 180.0, 19)):
            inst = ProjectiveInstrument(polar_observable(float(theta)))
            vecs = rng.normal(size=(100, 2, 3))
            for pair in vecs:
                cmap = CorrectionMap(
                    unit_state(*pair[0]), unit_state(*pair[1]))
                assert disturbance(inst, SIGMA_Y, cmap) == scalar_disturbance(
                    inst, SIGMA_Y, cmap)

    def test_array_calls_equal_scalar_calls(self):
        a_m = np.cos(self.THETAS)
        targets = np.stack([np.sin(self.THETAS), -np.cos(self.THETAS)], axis=-1)
        n = noise_bits(a_m)
        d = disturbance_bits(a_m, targets)
        assert n.shape == d.shape == a_m.shape
        for k in range(a_m.size):
            assert n[k] == noise_bits(float(a_m[k]))
            assert d[k] == disturbance_bits(float(a_m[k]), targets[k])

    def test_broadcasts_one_target_pair_over_many_angles(self):
        b_m = np.sin(self.THETAS)
        d = disturbance_bits(b_m, [0.3, -0.3])
        assert np.array_equal(d, disturbance_bits(b_m, np.tile([0.3, -0.3], (b_m.size, 1))))

    def test_scalar_input_gives_float(self):
        assert isinstance(noise_bits(0.5), float)
        assert isinstance(disturbance_bits(0.5, (1.0, -1.0)), float)


# every array entry point of the kernel, called with x in every overlap slot
KERNEL_ENTRY_POINTS = {
    "born": lambda x: born(x),
    "joint_tables": lambda x: joint_tables([x, 0.5], [x, -0.25]),
    "noise_bits": lambda x: noise_bits(x),
    "disturbance_bits-input": lambda x: disturbance_bits(x, [0.5, -0.5]),
    "disturbance_bits-target": lambda x: disturbance_bits(0.5, [0.5, x]),
}


@pytest.mark.parametrize("name", sorted(KERNEL_ENTRY_POINTS))
@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(1.0 + 2e-12)
@settings(max_examples=300, deadline=None)
def test_kernel_is_finite_or_raises(name, x):
    # overlaps of unit vectors lie in [-1, 1]; NaN must never become 0 bits
    func = KERNEL_ENTRY_POINTS[name]
    if abs(x) <= 1.0 + 1e-12:
        assert np.all(np.isfinite(func(x)))
    else:
        with pytest.raises(NoiseDistError):
            func(x)


class TestNDPoint:
    def test_stores_floats(self):
        p = NDPoint(0.25, 0.75, theta=0.1, corrected=True)
        assert p.noise == 0.25 and p.disturbance == 0.75 and p.corrected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            NDPoint(-0.5, 0.5)
        with pytest.raises(ValidationError):
            NDPoint(0.5, 1.5)
