"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them inline).

Every tolerance is pinned here. Criterion 6 contains a deliberately red
assertion: its curve-optimality clause for multi-member ensembles is
mathematically false (entropy averages are bounded below by the straight
N + D = 1 segment, not by the curve; the equal mixture of |+z> and |+y>
reaches (0.5, 0.5), 0.195 bits below the curve). The assertion states the
clause as specified and the failure message carries the counterexample.
All clauses of criterion 6 that are true (the pure-state projection lemma,
single-member boundary optimality) are asserted and pass.
"""

import math
import time

import numpy as np

from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    ProjectiveInstrument,
    binary_entropy_inverse,
    boundary_curve,
    correction_grid_search,
    disturbance,
    ensemble_boundary_oracle,
    nd_from_counts,
    noise,
    optimal_correction,
    polar_observable,
    simulate_intensities,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
    variational_f,
)

PAPER_GRID_DEG = [float(t) for t in list(range(0, 91, 10)) + list(range(100, 181, 20))]
FINE_GRID_DEG = [float(t) for t in range(181)]

H_SIN50 = 0.52061073185482543  # h(sin 50 deg), the grid-search optimum


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def analytic_triples(grid_deg):
    """(N, D0, Dopt) per angle through the instrument pipeline."""
    out = np.empty((len(grid_deg), 3))
    for i, deg in enumerate(grid_deg):
        m = polar_observable(math.radians(deg))
        inst = ProjectiveInstrument(m)
        out[i, 0] = noise(inst, SIGMA_Z)
        out[i, 1] = disturbance(inst, SIGMA_Y)
        out[i, 2] = disturbance(inst, SIGMA_Y, optimal_correction(m.axis))
    return out


def test_criterion_1_theory_curve_reproduction():
    start = time.perf_counter()
    triples = analytic_triples(PAPER_GRID_DEG)
    thetas = np.radians(PAPER_GRID_DEG)
    dev = max(
        np.max(np.abs(triples[:, 0] - theory_noise(thetas))),
        np.max(np.abs(triples[:, 1] - theory_disturbance_uncorrected(thetas))),
        np.max(np.abs(triples[:, 2] - theory_disturbance_optimal(thetas))),
    )
    by_deg = {deg: triples[i] for i, deg in enumerate(PAPER_GRID_DEG)}
    endpoints = (
        tuple(by_deg[0.0]) == (0.0, 1.0, 1.0)
        and tuple(by_deg[90.0]) == (1.0, 0.0, 0.0)
        and tuple(by_deg[180.0]) == (0.0, 1.0, 1.0)
    )
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-12 and endpoints and elapsed < 1.0
    report(1, "theory-curve reproduction", ok,
           f"max dev {dev:.2e}, endpoints exact={endpoints}, {elapsed:.3f}s")
    assert dev <= 1e-12
    assert endpoints
    assert elapsed < 1.0


def test_criterion_2_general_bound():
    start = time.perf_counter()
    grid = sorted(set(PAPER_GRID_DEG) | set(FINE_GRID_DEG))
    triples = analytic_triples(grid)
    slack = min(
        np.min(triples[:, 0] + triples[:, 1]) - 1.0,
        np.min(triples[:, 0] + triples[:, 2]) - 1.0,
    )
    elapsed = time.perf_counter() - start
    ok = slack >= -1e-9 and elapsed < 1.0
    report(2, "general bound N+D >= 1 bit", ok,
           f"min slack {slack:.2e} over {len(grid)} angles, {elapsed:.3f}s")
    assert slack >= -1e-9
    assert elapsed < 1.0


def test_criterion_3_tight_bound_saturation():
    start = time.perf_counter()
    grid = sorted(set(PAPER_GRID_DEG) | set(FINE_GRID_DEG))
    triples = analytic_triples(grid)
    g_n = binary_entropy_inverse(np.clip(triples[:, 0], 0.0, 1.0))
    g_d = binary_entropy_inverse(np.clip(triples[:, 2], 0.0, 1.0))
    dev = float(np.max(np.abs(g_n**2 + g_d**2 - 1.0)))
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-9 and elapsed < 1.0
    report(3, "tight-bound saturation with optimal correction", ok,
           f"max |g[N]^2+g[Dopt]^2-1| = {dev:.2e}, {elapsed:.3f}s")
    assert dev <= 1e-9
    assert elapsed < 1.0


def test_criterion_4_correction_grid_search():
    start = time.perf_counter()
    lattice = np.radians(np.arange(0.0, 180.1, 22.5))
    res = correction_grid_search(math.radians(50.0), lattice, lattice)
    argmin_deg = (math.degrees(res.best_vartheta), math.degrees(res.best_phi))
    dev = abs(res.d_min - H_SIN50)
    elapsed = time.perf_counter() - start
    ok = argmin_deg == (90.0, 90.0) and dev <= 1e-9 and elapsed < 1.0
    report(4, "correction grid search at 50 deg", ok,
           f"argmin {argmin_deg}, |Dmin - h(sin50)| = {dev:.2e}, {elapsed:.3f}s")
    assert argmin_deg == (90.0, 90.0)
    assert dev <= 1e-9
    assert elapsed < 1.0


def test_criterion_5_counting_pipeline():
    start = time.perf_counter()
    exact_dev = 0.0
    for deg in PAPER_GRID_DEG:
        theta = math.radians(deg)
        m = polar_observable(theta)
        c_opt = optimal_correction(m.axis)
        table_a = simulate_intensities(m, None, "A", 10**6, 0, "exact")
        table_b0 = simulate_intensities(m, None, "B", 10**6, 0, "exact")
        table_bc = simulate_intensities(m, c_opt, "B", 10**6, 0, "exact",
                                        correction_label="optimal")
        plain = nd_from_counts(table_a, table_b0)
        corrected = nd_from_counts(table_a, table_bc)
        exact_dev = max(
            exact_dev,
            abs(plain.noise - theory_noise(theta)),
            abs(plain.disturbance - theory_disturbance_uncorrected(theta)),
            abs(corrected.disturbance - theory_disturbance_optimal(theta)),
        )

    sampled_dev = 0.0
    for seed in (0, 1, 2):
        for deg in PAPER_GRID_DEG:
            theta = math.radians(deg)
            m = polar_observable(theta)
            c_opt = optimal_correction(m.axis)
            table_a = simulate_intensities(m, None, "A", 10**6, seed, "multinomial")
            table_b0 = simulate_intensities(m, None, "B", 10**6, seed, "multinomial")
            table_bc = simulate_intensities(m, c_opt, "B", 10**6, seed, "multinomial",
                                            correction_label="optimal")
            plain = nd_from_counts(table_a, table_b0)
            corrected = nd_from_counts(table_a, table_bc)
            sampled_dev = max(
                sampled_dev,
                abs(plain.noise - theory_noise(theta)),
                abs(plain.disturbance - theory_disturbance_uncorrected(theta)),
                abs(corrected.disturbance - theory_disturbance_optimal(theta)),
            )
    elapsed = time.perf_counter() - start
    ok = exact_dev <= 1e-12 and sampled_dev < 0.01 and elapsed < 30.0
    report(5, "counting pipeline oracle equivalence", ok,
           f"exact dev {exact_dev:.2e}, multinomial dev {sampled_dev:.4f} bits "
           f"at 1e6 shots x 3 seeds, {elapsed:.2f}s")
    assert exact_dev <= 1e-12
    assert sampled_dev < 0.01
    assert elapsed < 30.0


def test_criterion_6_ensemble_boundary_oracle():
    start = time.perf_counter()
    rep = ensemble_boundary_oracle(100_000, max_members=4, seed=0)
    elapsed = time.perf_counter() - start

    # pure-state projection clause: true and enforced
    assert rep.max_member_noise_increase <= 1e-12, "projection increased a member's noise term"
    assert rep.max_projection_noise_increase <= 1e-12
    assert rep.max_projection_disturbance_shift <= 1e-12
    # single-member points never fall below the curve: true and enforced
    assert rep.min_single_member_distance >= -1e-9
    assert elapsed < 60.0

    below_ok = rep.min_signed_distance >= -1e-9
    report(6, "ensemble boundary oracle", below_ok,
           f"projection lemma holds for all {rep.trials} trials; min signed distance "
           f"{rep.min_signed_distance:.4f} bits, {rep.boundary_violations} trials below "
           f"the curve, {elapsed:.2f}s")
    assert below_ok, (
        "multi-member ensembles legitimately reach below the curve: entropy averages "
        "are bounded by the straight N+D=1 segment, not by the curve itself. "
        "Counterexample: the equal mixture of |+z> and |+y> sits at (0.5, 0.5), "
        "0.195 bits below it. Worst sampled ensemble "
        f"(distance {rep.min_signed_distance:.4f} bits): {rep.worst_ensemble}"
    )


def test_criterion_7_variational_f_structure():
    start = time.perf_counter()
    ts = np.array([(k / 1001.0) * (math.pi / 2) for k in range(1, 1001)])
    vals = variational_f(ts)
    monotone = bool(np.all(np.diff(vals) > 0.0))
    recip_dev = float(np.max(np.abs(vals * variational_f(math.pi / 2 - ts) - 1.0)))
    elapsed = time.perf_counter() - start
    ok = monotone and recip_dev <= 1e-9 and elapsed < 1.0
    report(7, "variational stationarity ratio f", ok,
           f"monotone={monotone}, max |f(t)f(90-t)-1| = {recip_dev:.2e}, {elapsed:.3f}s")
    assert monotone
    assert recip_dev <= 1e-9
    assert elapsed < 1.0


def test_criterion_8_flat_bound_improvement():
    # N + D of the boundary at theta is the entropy sum H(sigma_z) + H(sigma_y)
    # of the y-z-plane pure state psi(theta, pi/2)
    start = time.perf_counter()
    curve = boundary_curve(1572)  # ~1e-3 rad resolution
    sums = curve.noise + curve.disturbance
    least, argmin_theta = sums.min(), curve.theta[np.argmin(sums)]
    interior_gap = sums[1:-1].min() - 1.0
    elapsed = time.perf_counter() - start
    endpoint_only = (
        least == 1.0
        and sums[0] == sums[-1] == 1.0
        and argmin_theta in (0.0, math.pi / 2)
        and interior_gap > 0.0
    )
    ok = endpoint_only and elapsed < 5.0
    report(8, "improvement over the flat 1-bit entropy bound", ok,
           f"min sum {least} at theta={argmin_theta:g}, interior gap "
           f">= {interior_gap:.2e}, {elapsed:.2f}s")
    assert least == 1.0
    assert sums[0] == sums[-1] == 1.0
    assert argmin_theta in (0.0, math.pi / 2)
    assert interior_gap > 0.0
    assert elapsed < 5.0
