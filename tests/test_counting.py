"""Tests for the counting simulation and the intensity-ratio estimators."""

import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    CorrectionMap,
    EstimationError,
    IntensityTable,
    ValidationError,
    nd_from_counts,
    optimal_correction,
    polar_angle,
    polar_observable,
    simulate_intensities,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
)
import noisedist.counting
from noisedist.cli import _make_correction, _sweep_targets
from noisedist.counting import (
    CSV_HEADER,
    MAX_SHOTS,
    MODES,
    _count_joint,
    _draw_counts,
    _input_entropy_given_out,
    _int_words,
    _state_row_type,
    _state_words,
    _stream_words,
)
from noisedist.entropy import _cond_entropy_given_last
from scalar_reference import (
    bayes_entropy,
    counts_from_json,
    per_table_counts,
    scalar_exact_counts,
)

H_SIN45 = 0.6008760366928561

PAPER_GRID_DEG = list(range(0, 91, 10)) + list(range(100, 181, 20))


def make_tables(theta_deg, shots, seed, mode, corrected=False):
    m = polar_observable(math.radians(theta_deg))
    if corrected:
        corr = optimal_correction(m.axis)
        label = "optimal"
    else:
        corr, label = None, "identity"
    table_a = simulate_intensities(m, None, "A", shots, seed, mode)
    table_b = simulate_intensities(m, corr, "B", shots, seed, mode, correction_label=label)
    return table_a, table_b


class TestSimulate:
    def test_exact_theta_zero_family_a(self):
        # alpha=+1 always gives mu=+1, then beta' is even odds: 500/500 per input
        table = simulate_intensities(polar_observable(0.0), None, "A", 1000, 0, "exact")
        expected = np.array([
            [[500.0, 500.0], [0.0, 0.0]],
            [[0.0, 0.0], [500.0, 500.0]],
        ])
        assert np.array_equal(table.counts, expected)

    def test_exact_theta_90_family_b_is_repeatable(self):
        # M = B: all counts land on mu = beta' = beta
        table = simulate_intensities(polar_observable(math.pi / 2), None, "B", 1000, 0, "exact")
        assert table.counts[0, 0, 0] == pytest.approx(1000.0, abs=1e-9)
        assert table.counts[1, 1, 1] == pytest.approx(1000.0, abs=1e-9)
        assert table.counts.sum() == pytest.approx(2000.0, abs=1e-9)

    def test_exact_counts_match_joint_distribution(self):
        for deg in (30.0, 50.0, 120.0):
            m = polar_observable(math.radians(deg))
            table_a, table_b = make_tables(deg, 1234, 0, "exact")
            for table, input_obs in ((table_a, SIGMA_Z), (table_b, SIGMA_Y)):
                per_input = table.counts.sum(axis=(1, 2))
                assert per_input == pytest.approx([1234.0, 1234.0], abs=1e-9)
                expected = scalar_exact_counts(m, None, input_obs, SIGMA_Y, 1234)
                assert np.array_equal(table.counts, expected)

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_exact_counts_equal_scalar_reference(self, family):
        # every correction kind, with detector thinning
        input_obs = SIGMA_Z if family == "A" else SIGMA_Y
        rng = np.random.default_rng(11)
        for deg in np.concatenate([np.arange(0.0, 181.0, 7.5), rng.uniform(0, 360, 20)]):
            m = polar_observable(math.radians(deg))
            custom = CorrectionMap.from_rotation_angles(*rng.uniform(0.0, math.pi, 2))
            for corr in (None, optimal_correction(m.axis), custom):
                table = simulate_intensities(m, corr, family, 777, 0, "exact", efficiency=0.7)
                expected = scalar_exact_counts(m, corr, input_obs, SIGMA_Y, 777, 0.7)
                assert np.array_equal(table.counts, expected)

    def test_multinomial_is_seed_deterministic(self):
        a1, b1 = make_tables(50.0, 10000, 7, "multinomial")
        a2, b2 = make_tables(50.0, 10000, 7, "multinomial")
        assert np.array_equal(a1.counts, a2.counts)
        assert np.array_equal(b1.counts, b2.counts)
        a3, _ = make_tables(50.0, 10000, 8, "multinomial")
        assert not np.array_equal(a1.counts, a3.counts)

    def test_multinomial_rows_sum_to_shots(self):
        table, _ = make_tables(50.0, 10000, 3, "multinomial")
        assert np.array_equal(table.counts.sum(axis=(1, 2)), [10000.0, 10000.0])

    def test_identity_and_corrected_streams_are_independent(self):
        m = polar_observable(math.radians(50.0))
        plain = simulate_intensities(m, None, "B", 10000, 5, "multinomial")
        corr = simulate_intensities(m, optimal_correction(m.axis), "B", 10000, 5,
                                    "multinomial", correction_label="optimal")
        assert not np.array_equal(plain.counts, corr.counts)

    def test_poisson_reproducible_and_unconstrained(self):
        t1, _ = make_tables(50.0, 10000, 11, "poisson")
        t2, _ = make_tables(50.0, 10000, 11, "poisson")
        assert np.array_equal(t1.counts, t2.counts)
        # cell totals fluctuate around shots rather than being capped by it
        assert t1.counts.sum() == pytest.approx(20000.0, rel=0.05)

    def test_efficiency_thins_uniformly(self):
        m = polar_observable(math.radians(50.0))
        exact = simulate_intensities(m, None, "B", 1000, 0, "exact", efficiency=0.5)
        full = simulate_intensities(m, None, "B", 1000, 0, "exact")
        assert np.allclose(exact.counts, 0.5 * full.counts, atol=1e-12)
        thinned = simulate_intensities(m, None, "B", 1000, 0, "multinomial", efficiency=0.5)
        assert thinned.counts.sum() < 2000.0

    def test_validation(self):
        m = polar_observable(0.3)
        with pytest.raises(ValidationError):
            simulate_intensities(m, None, "A", 0, 0, "exact")
        with pytest.raises(ValidationError):
            simulate_intensities(m, None, "C", 10, 0, "exact")
        with pytest.raises(ValidationError):
            simulate_intensities(m, None, "A", 10, 0, "gaussian")
        with pytest.raises(ValidationError):
            simulate_intensities(m, None, "A", 10, -1, "multinomial")
        with pytest.raises(ValidationError):
            simulate_intensities(m, None, "A", 10, 0, "exact", efficiency=0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_shot_cap(self, mode):
        # above the cap the samplers overflow (OverflowError in multinomial,
        # "lam value too large" in poisson); at it every count is exact
        m = polar_observable(0.7)
        for shots in (10**20, MAX_SHOTS + 1):
            with pytest.raises(ValidationError, match="at most"):
                simulate_intensities(m, None, "B", shots, 0, mode)
        table = simulate_intensities(m, None, "B", MAX_SHOTS, 0, mode)
        assert np.all(np.isfinite(table.counts))
        if mode == "multinomial":
            assert np.all(table.counts.sum(axis=(1, 2)) == MAX_SHOTS)

    @pytest.mark.parametrize("shots", [True, False, 10.0, np.float64(10.0)])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValidationError):
            simulate_intensities(polar_observable(0.3), None, "A", shots, 0, "multinomial")

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), 2.0, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            simulate_intensities(polar_observable(0.3), None, "A", 10, seed, "multinomial")

    @pytest.mark.parametrize("seed", [2, np.int64(2), np.uint32(2)])
    def test_integer_seeds_accepted_and_equal(self, seed):
        m = polar_observable(0.3)
        table = simulate_intensities(m, None, "A", np.int32(10), seed, "multinomial")
        reference = simulate_intensities(m, None, "A", 10, 2, "multinomial")
        assert np.array_equal(table.counts, reference.counts)
        assert type(table.seed) is int and type(table.shots) is int

    def test_polar_angle_round_trip(self):
        for deg in (0.0, 50.0, 90.0, 180.0, -30.0, -150.0):
            assert math.degrees(polar_angle(polar_observable(math.radians(deg)))) == (
                pytest.approx(deg, abs=1e-12))


def _state(key):
    """The first words a PCG64 seeded from SeedSequence(key) takes."""
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


def _bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70]
# signed zeros, subnormals whose high word is zero (5e-324, 1e-320) and not
# (1e-310), the least normal, and the unit values of the axes
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 0.5]
KEY_FLOATS = st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False)),
                      min_size=9, max_size=9)


class TestStreamKeys:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("floats", [EDGE_FLOATS, [0.0] * 9, [-0.0] * 9,
                                        [5e-324, -5e-324, 1e-320] * 3, [1.0, -1.0, 0.0] * 3])
    def test_edge_keys_give_the_int_list_state(self, seed, floats):
        self._check(seed, "AB", [floats, floats[::-1]])

    @given(st.integers(0, 2**80), st.lists(KEY_FLOATS, min_size=1, max_size=3),
           st.text("AB", min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_word_key_gives_the_int_list_state(self, seed, floats, families):
        self._check(seed, families, floats)

    @staticmethod
    def _check(seed, families, floats):
        """Each stream's words give the state of its key as a list of ints:
        for every angle, family and input index, in that order."""
        key_floats = np.broadcast_to(np.array(floats)[:, None], (len(floats), len(families), 9))
        streams = list(_stream_words([seed], families, key_floats))
        assert len(streams) == 2 * len(floats) * len(families)
        keys = itertools.product(floats, families, range(2))
        for words, (values, family, i) in zip(streams, keys):
            assert words.dtype == np.uint32
            int_key = [seed, "AB".index(family), i, *map(_bits, values)]
            assert np.array_equal(_state(words), _state(int_key))

    def test_float_words_keep_no_zero_high_word(self):
        # 0.0 is the one word 0 in the int-list key, while viewing it as two
        # uint32 words gives [0, 0] and another state
        (words, _) = _stream_words([0], "A", np.zeros((1, 1, 9)))
        assert words.tolist() == [0] * 12
        as_halves = np.concatenate([[0, 0, 0], np.zeros(9).view(np.uint32)]).astype(np.uint32)
        assert not np.array_equal(_state(words), _state(as_halves))


# word lists as _stream_words makes them, with the words of the edge seeds
# and of the edge floats' bit patterns among the random ones
_EDGE_WORDS = sorted({w for n in EDGE_SEEDS + list(map(_bits, EDGE_FLOATS))
                      for w in _int_words(n)})
_WORD_LISTS = st.lists(st.one_of(st.sampled_from(_EDGE_WORDS), st.integers(0, 2**32 - 1)),
                       min_size=1, max_size=24)


class TestStateWords:
    """The state words hashed for every stream at once, and the Generator
    built on them, against numpy's own SeedSequence, which is the oracle."""

    @given(st.lists(_WORD_LISTS, min_size=1, max_size=6))
    @example([[0], [2**32 - 1] * 24, _EDGE_WORDS])
    @settings(max_examples=200, deadline=None)
    def test_equal_numpy_seed_sequence(self, keys):
        sequences = [np.random.SeedSequence(np.array(words, np.uint32)) for words in keys]
        pools = np.empty((len(keys), 8), np.uint32)
        pools[:, :4] = [seq.pool for seq in sequences]
        state_row = _state_row_type()
        for row, seq in zip(_state_words(pools), sequences):
            assert np.array_equal(row, seq.generate_state(4, np.uint64))
            rng = np.random.Generator(np.random.PCG64(state_row(row)))
            assert rng.bit_generator.state == np.random.default_rng(seq).bit_generator.state

    def test_state_row_serves_pcg64s_request_only(self):
        row = _state_words(np.zeros((1, 8), np.uint32))[0]
        seq = _state_row_type()(row)
        assert seq.generate_state(4, np.uint64) is row
        assert seq.generate_state(4, "u8") is row
        for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.int64)):
            with pytest.raises(ValueError):
                seq.generate_state(n_words, dtype)


_ANGLES = st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=4)
_SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**70))
_EFFICIENCIES = st.one_of(st.just(1.0), st.floats(0.05, 1.0, exclude_max=True))


class TestBatchedDraw:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["none", "optimal", "custom"])
    @given(thetas_deg=_ANGLES, seed=_SEEDS, efficiency=_EFFICIENCIES,
           shots=st.sampled_from([1, 7, 1000, 10**6]),
           target=st.tuples(st.floats(0.0, 180.0), st.floats(-180.0, 360.0)))
    # 0 and 90 degrees hold cells of probability 0: Poisson means of 0, and
    # multinomial cells of n = 0 for the thinning to draw from; below 10
    # shots every mean is below 10, where numpy's Poisson sampler multiplies
    # uniforms instead of running its rejection method. The package draws
    # the cells one scalar call each, the reference one array call per input
    @example(thetas_deg=[0.0, 30.0, 90.0, 135.0], seed=5, efficiency=0.4, shots=3,
             target=(30.0, 60.0))
    @example(thetas_deg=[0.0, 90.0, 135.0], seed=2**64, efficiency=1.0, shots=10,
             target=(90.0, 90.0))
    @settings(max_examples=25, deadline=None)
    def test_counts_equal_the_per_table_loop(self, kind, mode, thetas_deg, seed, efficiency,
                                             shots, target):
        # a sweep's tables (A under the correction, B without, B under it)
        # for two seeds, against the table-by-table draw and simulate_intensities
        axes, targets = _sweep_targets(thetas_deg, kind, target)
        identity, corrected = targets[:, 0], targets[:, -1]
        seeds = [seed, seed + 1]
        counts = _draw_counts(seeds, "ABB", axes, np.stack([corrected, identity, corrected], 1),
                              shots, mode, efficiency)
        assert counts.shape == (2, len(thetas_deg), 3, 2, 2, 2)
        for (s, seed_), (j, theta_deg) in itertools.product(enumerate(seeds),
                                                             enumerate(thetas_deg)):
            m = polar_observable(math.radians(theta_deg))
            corr, _ = _make_correction(kind, target, m)
            for f, (family, post) in enumerate(zip("ABB", (corr, None, corr))):
                expected = per_table_counts(m, post, family, shots, seed_, mode, efficiency)
                assert np.array_equal(counts[s, j, f], expected)
                table = simulate_intensities(m, post, family, shots, seed_, mode,
                                             efficiency=efficiency)
                assert np.array_equal(table.counts, expected)

    def test_one_kernel_call_for_every_table(self, monkeypatch):
        calls = []
        real = noisedist.counting.joint_tables

        def counted(input_m, target_b):
            calls.append(np.shape(input_m))
            return real(input_m, target_b)

        monkeypatch.setattr(noisedist.counting, "joint_tables", counted)
        axes, targets = _sweep_targets([0.0, 45.0, 170.0], "optimal", None)
        for mode in MODES:
            _draw_counts([3, 4], "AB", axes, targets, 100, mode)
        assert calls == [(3, 2, 2)] * 3

    def test_validation_covers_every_table(self):
        axes, targets = _sweep_targets([10.0, 20.0], "none", None)
        targets = targets.repeat(2, axis=1)
        for seeds, families in (([1, -1], "AB"), ([1, 2.0], "AB"), ([1], "AC")):
            with pytest.raises(ValidationError):
                _draw_counts(seeds, families, axes, targets, 10, "multinomial")


def _channel(table):
    """p(input) and p(out|input) of one table, from the count joint."""
    n, per_input, total = _count_joint(table.counts[None], table.family)
    return per_input[0] / total[0], n[0] / per_input[0, :, None]


def _posterior(table):
    """p(out) and p(input|out) of one table, indexed [out, input], from the count joint."""
    n, _, total = _count_joint(table.counts[None], table.family)
    return n[0].sum(axis=0) / total[0], (n[0] / n[0].sum(axis=0)).T


class TestEstimators:
    def test_theta_zero_is_deterministic_channel(self):
        table, _ = make_tables(0.0, 1000, 0, "exact")
        p_input, p_out_given_in = _channel(table)
        assert np.allclose(p_out_given_in, np.eye(2), atol=1e-15)
        assert np.allclose(p_input, [0.5, 0.5], atol=1e-15)
        assert _input_entropy_given_out(table.counts[None], "A")[0] == 0.0

    def test_sixty_degrees(self):
        table, _ = make_tables(60.0, 1000, 0, "exact")
        assert _channel(table)[1][0, 0] == pytest.approx(0.75, abs=1e-12)
        assert _input_entropy_given_out(table.counts[None], "A")[0] == pytest.approx(
            theory_noise(math.radians(60.0)), abs=1e-12)

    def test_family_b_identity_channel_is_sin_squared(self):
        # p(beta'|beta) = (1 + beta' beta sin^2(50 deg)) / 2
        _, table = make_tables(50.0, 1000, 0, "exact")
        s2 = math.sin(math.radians(50.0)) ** 2
        expected = np.array([[(1 + s2) / 2, (1 - s2) / 2], [(1 - s2) / 2, (1 + s2) / 2]])
        assert np.allclose(_channel(table)[1], expected, atol=1e-12)
        assert _input_entropy_given_out(table.counts[None], "B")[0] == pytest.approx(
            theory_disturbance_uncorrected(math.radians(50.0)), abs=1e-12)

    def test_rows_are_normalized(self):
        for mode in ("exact", "multinomial", "poisson"):
            table, _ = make_tables(40.0, 2000, 1, mode)
            p_input, p_out_given_in = _channel(table)
            assert np.allclose(p_out_given_in.sum(axis=1), 1.0, atol=1e-9)
            assert p_input.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_input_row_raises(self):
        counts = np.zeros((2, 2, 2))
        counts[0, 0, 0] = 10.0
        with pytest.raises(EstimationError):
            _input_entropy_given_out(counts[None], "A")


class TestBayes:
    """The posterior p(input|out) read off the count joint, as the ratio and
    Bayes route of scalar_reference.bayes_entropy computes it."""

    def test_symmetric_channel_posterior_equals_forward(self):
        for deg in (20.0, 50.0, 70.0):
            table, _ = make_tables(deg, 1000, 0, "exact")
            p_out, p_in_given_out = _posterior(table)
            assert np.allclose(p_in_given_out, _channel(table)[1].T, atol=1e-12)
            assert np.allclose(p_out, [0.5, 0.5], atol=1e-12)

    def test_degenerate_prior_pins_posterior(self):
        # only input +1 sent: the output leaves no doubt about the input
        joint = np.array([[0.7, 0.3], [0.0, 0.0]])  # p(input, out)
        assert _cond_entropy_given_last(joint) == 0.0

    def test_sampled_family_b_posterior_matches_channel_formula(self):
        # p(beta|beta') for the uncorrected chain is (1 + beta' beta sin^2(50))/2,
        # up to counting noise
        _, table = make_tables(50.0, 10**6, 0, "multinomial")
        s2 = math.sin(math.radians(50.0)) ** 2
        expected = np.array([[(1 + s2) / 2, (1 - s2) / 2], [(1 - s2) / 2, (1 + s2) / 2]])
        assert np.max(np.abs(_posterior(table)[1] - expected)) < 0.01

    def test_bayes_consistency_for_sampled_tables(self):
        # p(in|out) p(out) == p(out|in) p(in), and the count estimator's
        # entropy is the Bayes route's
        for mode in ("multinomial", "poisson"):
            for deg in PAPER_GRID_DEG:
                table, _ = make_tables(float(deg), 5000, 2, mode)
                p_input, p_out_given_in = _channel(table)
                p_out, p_in_given_out = _posterior(table)
                lhs = p_in_given_out * p_out[:, None]
                rhs = (p_out_given_in * p_input[:, None]).T
                assert np.allclose(lhs, rhs, atol=1e-9)
                h = _input_entropy_given_out(table.counts[None], "A")[0]
                assert abs(h - bayes_entropy(table.counts, "A")) <= 1e-15


class TestNDFromCounts:
    def test_exact_endpoints(self):
        a0, b0 = make_tables(0.0, 1000, 0, "exact")
        point = nd_from_counts(a0, b0)
        assert (point.noise, point.disturbance) == (0.0, 1.0)
        a90, b90 = make_tables(90.0, 1000, 0, "exact")
        point = nd_from_counts(a90, b90)
        assert (point.noise, point.disturbance) == (1.0, 0.0)

    def test_exact_pipeline_equals_analytic_on_grid(self):
        for deg in PAPER_GRID_DEG:
            theta = math.radians(deg)
            a, b0 = make_tables(float(deg), 10**6, 0, "exact")
            _, bc = make_tables(float(deg), 10**6, 0, "exact", corrected=True)
            plain = nd_from_counts(a, b0)
            corrected = nd_from_counts(a, bc)
            assert plain.noise == pytest.approx(theory_noise(theta), abs=1e-12)
            assert plain.disturbance == pytest.approx(
                theory_disturbance_uncorrected(theta), abs=1e-12)
            assert corrected.disturbance == pytest.approx(
                theory_disturbance_optimal(theta), abs=1e-12)
            assert corrected.corrected and not plain.corrected

    def test_multinomial_converges_at_45_degrees(self):
        a, b = make_tables(45.0, 10**6, 0, "multinomial", corrected=True)
        point = nd_from_counts(a, b)
        assert abs(point.noise - H_SIN45) < 0.01
        assert abs(point.disturbance - H_SIN45) < 0.01

    def test_estimator_error_shrinks_with_shots(self):
        # max error over the grid is non-increasing along the shots ladder
        for seed in (0, 1, 2):
            max_err = []
            for shots in (10**3, 10**4, 10**5, 10**6):
                worst = 0.0
                for deg in PAPER_GRID_DEG:
                    theta = math.radians(deg)
                    a, b = make_tables(float(deg), shots, seed, "multinomial")
                    point = nd_from_counts(a, b)
                    worst = max(worst, abs(point.noise - theory_noise(theta)),
                                abs(point.disturbance - theory_disturbance_uncorrected(theta)))
                max_err.append(worst)
            assert max_err[-1] < 0.01
            assert all(a >= b for a, b in zip(max_err, max_err[1:])), (seed, max_err)

    def test_family_mismatch_rejected(self):
        a, b = make_tables(30.0, 100, 0, "exact")
        with pytest.raises(ValidationError):
            nd_from_counts(b, a)

    def test_nan_count_is_not_zero_bits_of_disturbance(self):
        # a NaN marginal used to be dropped as a zero-mass outcome, and the
        # table then read 0 bits of disturbance
        # the table's own counts are read-only, so the NaN goes in past them
        a, b = make_tables(math.degrees(0.7), 1000, 0, "exact")
        bad = b.counts.copy()
        bad[0, 0, 0] = math.nan
        object.__setattr__(b, "counts", bad)
        with pytest.raises(ValidationError):
            nd_from_counts(a, b)


# count tables with both input rows reached: zero cells are common, so whole
# outcomes go uncounted too; integer (sampled) and real (exact) counts
_COUNT = st.one_of(st.just(0.0), st.integers(1, 10**6).map(float),
                   st.floats(1e-3, 1e6, allow_nan=False))
COUNT_TABLES = st.lists(_COUNT, min_size=8, max_size=8).map(
    lambda cells: np.reshape(cells, (2, 2, 2))).filter(
    lambda counts: np.all(counts.sum(axis=(1, 2)) > 0.0))


def _dropping(family, outcome):
    """A table in which no count reached one outcome of `family`."""
    counts = np.arange(1.0, 9.0).reshape(2, 2, 2)
    if family == "A":
        counts[:, outcome, :] = 0.0
    else:
        counts[:, :, outcome] = 0.0
    return counts


class TestCountEstimator:
    @given(COUNT_TABLES, st.sampled_from("AB"))
    @example(_dropping("A", 0), "A")
    @example(_dropping("B", 1), "B")
    @example(np.array([[[5.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 3.0]]]), "A")
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_bayes_route(self, counts, family):
        h = _input_entropy_given_out(counts[None], family)
        assert h.shape == (1,)
        assert abs(h[0] - bayes_entropy(counts, family)) <= 1e-15

    def test_uncounted_outcome_is_skipped(self):
        # the dropped outcome of the Bayes route: the remaining one still
        # tells the inputs apart by their count ratio
        for family, outcome in (("A", 0), ("A", 1), ("B", 0), ("B", 1)):
            counts = _dropping(family, outcome)
            h = _input_entropy_given_out(counts[None], family)[0]
            assert 0.0 < h < 1.0
            assert abs(h - bayes_entropy(counts, family)) <= 1e-15

    @given(st.lists(COUNT_TABLES, min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_batched_equals_per_table(self, tables):
        stack = np.reshape(tables, (2, 3, 2, 2, 2))
        h = _input_entropy_given_out(stack, "ABB")
        assert h.shape == (2, 3)
        for i in range(2):
            for j, family in enumerate("ABB"):
                assert _input_entropy_given_out(stack[i, j][None], family)[0] == h[i, j]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_count_raises(self, bad):
        counts = np.ones((3, 2, 2, 2))
        counts[1, 1, 0, 1] = bad
        with pytest.raises(ValidationError, match="finite and non-negative"):
            _input_entropy_given_out(counts, "ABB")
        a, b = make_tables(40.0, 1000, 0, "exact")
        object.__setattr__(b, "counts", counts[1])
        with pytest.raises(ValidationError):
            nd_from_counts(a, b)

    def test_empty_input_row_raises(self):
        counts = np.ones((2, 2, 2))
        counts[1] = 0.0
        for family in "AB":
            with pytest.raises(EstimationError, match=f"zero counts in family {family}"):
                _input_entropy_given_out(counts[None], family)
        with pytest.raises(EstimationError, match="no counts in table"):
            _input_entropy_given_out(np.zeros((1, 2, 2, 2)), "B")

    def test_first_table_with_an_empty_row_is_reported(self):
        # tables [angle, family]: an empty B row at angle 1 comes before an
        # empty A row and an empty table at angle 2
        counts = np.ones((3, 3, 2, 2, 2))
        counts[1, 1, 0] = 0.0
        counts[2, 0, 1] = 0.0
        counts[2, 2] = 0.0
        with pytest.raises(EstimationError, match="family B"):
            _input_entropy_given_out(counts, "ABB")
        counts[1, 1, 0] = 1.0
        with pytest.raises(EstimationError, match="family A"):
            _input_entropy_given_out(counts, "ABB")
        counts[2, 0, 1] = 1.0
        with pytest.raises(EstimationError, match="no counts in table"):
            _input_entropy_given_out(counts, "ABB")


class TestSerialization:
    def test_csv_header_and_shape(self):
        table, _ = make_tables(50.0, 1000, 4, "multinomial")
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "A" and first[1] == "1" and first[2] == "1" and first[3] == "1"
        # sampled counts serialize as integers
        assert all("." not in line.split(",")[4] for line in lines[1:])

    def test_exact_mode_serializes_reals(self):
        table, _ = make_tables(45.0, 1000, 0, "exact")
        assert any("." in line.split(",")[4] for line in table.to_csv().strip().split("\n")[1:])

    def test_json_round_trip(self):
        _, table = make_tables(50.0, 1000, 4, "multinomial", corrected=True)
        data = json.loads(table.to_json())
        assert data["family"] == "B"
        assert data["theta_deg"] == pytest.approx(50.0, abs=1e-12)
        assert data["shots"] == 1000 and data["seed"] == 4
        assert data["mode"] == "multinomial" and data["correction"] == "optimal"
        assert len(data["counts"]) == 8
        assert np.array_equal(counts_from_json(table.to_json()), table.counts)

    def test_counts_shape_validated(self):
        with pytest.raises(ValidationError):
            IntensityTable("A", np.zeros((2, 2)), 0.0, 10, 0, "exact")
        with pytest.raises(ValidationError):
            IntensityTable("A", -np.ones((2, 2, 2)), 0.0, 10, 0, "exact")

    @pytest.mark.parametrize("label", [
        {"theta": "0.5"}, {"theta": math.inf}, {"shots": 0}, {"shots": 10.0}, {"seed": -1},
        {"efficiency": [1, 2]}, {"efficiency": 0.0}, {"efficiency": 1.5},
    ], ids=["theta-text", "theta-inf", "shots-0", "shots-float", "seed-negative",
            "efficiency-list", "efficiency-0", "efficiency-1.5"])
    def test_labels_are_checked(self, label):
        labels = {"theta": 0.5, "shots": 10, "seed": 0, "efficiency": 1.0, **label}
        with pytest.raises(ValidationError):
            IntensityTable("A", np.ones((2, 2, 2)), mode="exact", **labels)

    def test_labels_are_converted(self):
        t = IntensityTable("A", np.ones((2, 2, 2)), np.float64(0.5), np.int64(10), np.uint8(3),
                           "exact", efficiency=1)
        assert [type(v) for v in (t.theta, t.shots, t.seed, t.efficiency)] == [float, int, int, float]
        assert json.loads(t.to_json())["efficiency"] == 1.0

    def test_table_keeps_its_own_counts(self):
        counts = np.ones((2, 2, 2))
        t = IntensityTable("A", counts, 0.0, 10, 0, "exact")
        counts[0, 0, 0] = math.nan
        assert np.array_equal(t.counts, np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            t.counts[0, 0, 0] = math.nan

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, bad):
        counts = np.ones((2, 2, 2))
        counts[1, 0, 1] = bad
        with pytest.raises(ValidationError):
            IntensityTable("A", counts, 0.0, 10, 0, "exact")
