"""Independent output oracle: checks CLI output against closed forms.

Everything here uses the standard library's `math`, never the package's
`theory_*` curves or kernels, so a defect in the package's arithmetic cannot
hide by agreeing with itself.

For a measurement along m = (0, sin t, cos t) that re-prepares outcome mu
with a state whose y component is mu * r, the joint distribution of the sent
and the final sigma_y outcome is (1 + beta beta' r sin t) / 4, so
H(B|B') = h(r sin t). The correction fixes r: sin t without correction,
+1 or -1 (the sign that keeps r sin t >= 0) for the optimal one, and
sin(vartheta) sin(phi) for a custom target.
"""

from __future__ import annotations

import json
import math

# Sampled N and D estimates: the plug-in conditional entropy has a standard
# deviation below 0.7 / sqrt(shots) bits for every angle, so 8 / sqrt(shots)
# is more than ten standard deviations.
SAMPLED_TOL = 8.0

SWEEP_HEADER = "theta_deg,N,D0,Dcorr,sum_ND,tight_value,general_ok,tight_ok"
SURFACE_HEADER = "vartheta_deg,phi_deg,D"
BOUNDARY_HEADER = "theta_deg,N,D,mu_line_D,tight_value"
INTENSITY_HEADER = "family,input,mu,beta_prime,count"
OUTCOMES = (1, -1)


def h(x: float) -> float:
    """Binary entropy of a +1/-1 variable with bias x, in bits."""
    out = 0.0
    for p in ((1.0 + x) / 2.0, (1.0 - x) / 2.0):
        if p > 0.0:
            out -= p * math.log2(p)
    return out


def correction_bias(theta_deg: float, correction: str, target=None) -> float:
    """r for the correction: the y component the +1 outcome is re-prepared to."""
    s = math.sin(math.radians(theta_deg))
    if correction == "none":
        return s
    if correction == "optimal":
        return 1.0 if s >= 0.0 else -1.0
    vt, phi = target
    return math.sin(math.radians(vt)) * math.sin(math.radians(phi))


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return [line.split(",") for line in lines[1:-1]]


def _close(errors, name, at, got, want, tol):
    if not abs(got - want) <= tol:
        errors.append(f"{name}@{at}={got!r}, expected {want!r} within {tol:g}")


# ------------------------------------------------------------------ sweep


def check_sweep(spec, out, err) -> list[str]:
    if spec["format"] == "csv":
        rows = [
            dict(zip(SWEEP_HEADER.split(","),
                     [float(v) for v in r[:6]] + [r[6] == "true", r[7] == "true"]))
            for r in _csv_rows(out, SWEEP_HEADER)
        ]
    else:
        payload = json.loads(out)
        rows = payload["rows"]
        if payload["config"]["mode"] != spec["mode"]:
            return [f"config mode {payload['config']['mode']!r}"]
    thetas = spec["thetas"]
    if len(rows) != len(thetas):
        return [f"{len(rows)} rows, expected {len(thetas)}"]
    analytic = spec["mode"] == "analytic"
    tol = 1e-12 if analytic else SAMPLED_TOL / math.sqrt(spec["shots"])
    errors: list[str] = []
    for row, theta in zip(rows, thetas):
        if row["theta_deg"] != theta:
            errors.append(f"theta_deg={row['theta_deg']!r}, expected {theta!r}")
            continue
        t = math.radians(theta)
        s = math.sin(t)
        r = correction_bias(theta, spec["correction"], spec.get("target"))
        _close(errors, "N", theta, row["N"], h(math.cos(t)), tol)
        _close(errors, "D0", theta, row["D0"], h(s * s), tol)
        _close(errors, "Dcorr", theta, row["Dcorr"], h(r * s), tol)
        _close(errors, "sum_ND", theta, row["sum_ND"], row["N"] + row["Dcorr"], 1e-12)
        if analytic:
            # g[h(x)] = |x|, so the tight value is cos^2 t + (r sin t)^2
            c = math.cos(t)
            _close(errors, "tight_value", theta, row["tight_value"], c * c + (r * s) ** 2, 1e-9)
            if not (row["general_ok"] and row["tight_ok"]):
                errors.append(f"bound flags false at {theta}")
    return errors


# --------------------------------------------------------------- simulate


def cell_probabilities(theta_deg, family, correction, target=None):
    """p[input][mu][beta'] in (+1, -1) storage order, from the closed form."""
    t = math.radians(theta_deg)
    r = correction_bias(theta_deg, correction, target)
    # family A sends sigma_z eigenstates, family B sigma_y eigenstates
    along_m = math.cos(t) if family == "A" else math.sin(t)
    return [
        [[(1.0 + mu * inp * along_m) / 2.0 * (1.0 + bp * mu * r) / 2.0 for bp in OUTCOMES]
         for mu in OUTCOMES]
        for inp in OUTCOMES
    ]


def check_simulate(spec, out, err) -> list[str]:
    if spec["format"] == "csv":
        rows = _csv_rows(out, INTENSITY_HEADER)
        families = [r[0] for r in rows]
        keys = [(int(r[1]), int(r[2]), int(r[3])) for r in rows]
        counts = [r[4] for r in rows]
    else:
        payload = json.loads(out)
        for key in ("family", "mode", "shots"):
            if payload[key] != spec[key]:
                return [f"json {key}={payload[key]!r}, expected {spec[key]!r}"]
        rows = payload["counts"]
        families = [spec["family"]] * len(rows)
        keys = [(r["input"], r["mu"], r["beta_prime"]) for r in rows]
        counts = [repr(r["count"]) for r in rows]
    expected_keys = [(i, m, b) for i in OUTCOMES for m in OUTCOMES for b in OUTCOMES]
    if keys != expected_keys or set(families) != {spec["family"]}:
        return [f"cells {keys} / families {set(families)} out of order"]
    mode, shots, eff = spec["mode"], spec["shots"], spec["efficiency"]
    probs = cell_probabilities(spec["theta"], spec["family"], spec["correction"],
                               spec.get("target"))
    mean = [shots * eff * probs[i][m][b] for i in range(2) for m in range(2) for b in range(2)]
    errors: list[str] = []
    if mode == "exact":
        for k, (c, mu_) in enumerate(zip(counts, mean)):
            _close(errors, "count", k, float(c), mu_, 1e-9 * shots)
        return errors
    if not all(c.isdigit() for c in counts):
        return [f"{mode} counts are not non-negative integers: {counts}"]
    values = [int(c) for c in counts]
    if mode == "multinomial":
        for i in range(2):
            total = sum(values[4 * i:4 * i + 4])
            if (eff == 1.0 and total != shots) or total > shots:
                errors.append(f"input {OUTCOMES[i]} sums to {total}, shots={shots}, "
                              f"efficiency={eff}")
    for k, (c, mu_) in enumerate(zip(values, mean)):
        var = mu_ * (1.0 - mu_ / shots) if mode == "multinomial" else mu_
        _close(errors, "count", k, c, mu_, 8.0 * math.sqrt(var) + 8.0)
    return errors


# --------------------------------------------------------- correct-search


def lattice(step: float) -> list[float]:
    """The CLI's lattice np.arange(0, 180 + step / 2, step), element k = k * step."""
    return [k * step for k in range(math.ceil((180.0 + step / 2.0) / step))]


def check_correct_search(spec, out, err) -> list[str]:
    steps = [float(s) for s in spec["grid"].split(",")]
    if len(steps) == 1:
        steps *= 2
    v_lat, p_lat = lattice(steps[0]), lattice(steps[1])
    tm = math.radians(spec["theta_m"])
    d_floor = h(abs(math.sin(tm)))
    errors: list[str] = []
    try:
        d_min = float(err.rsplit("D_min=", 1)[1].split()[0])
    except (IndexError, ValueError):
        return [f"no D_min on stderr: {err!r}"]
    if d_min < d_floor - 1e-9:
        errors.append(f"D_min={d_min!r} below h(|sin theta_m|)={d_floor!r}")
    if 90.0 in v_lat and 90.0 in p_lat:
        _close(errors, "D_min", "(90, 90)", d_min, d_floor, 1e-9)
    if spec["format"] == "csv":
        cells = [(float(a), float(b), float(c)) for a, b, c in _csv_rows(out, SURFACE_HEADER)]
    else:
        payload = json.loads(out)
        if payload["argmin"]["D"] != d_min:
            errors.append(f"json argmin D={payload['argmin']['D']!r} != stderr {d_min!r}")
        cells = [(c["vartheta_deg"], c["phi_deg"], c["D"]) for c in payload["surface"]]
    if len(cells) != len(v_lat) * len(p_lat):
        return errors + [f"{len(cells)} cells, expected {len(v_lat)} x {len(p_lat)}"]
    sin_tm = math.sin(tm)
    for vt, phi, d in cells:
        x = math.sin(math.radians(vt)) * math.sin(math.radians(phi)) * sin_tm
        _close(errors, "D", (vt, phi), d, h(x), 1e-9)
        if len(errors) > 5:
            break
    if cells and min(c[2] for c in cells) != d_min:
        errors.append("surface minimum differs from the reported D_min")
    return errors


# --------------------------------------------------------------- boundary


def check_boundary(spec, out, err) -> list[str]:
    if spec["format"] == "csv":
        rows = [[float(v) for v in r] for r in _csv_rows(out, BOUNDARY_HEADER)]
    else:
        payload = json.loads(out)
        rows = [[r[k] for k in BOUNDARY_HEADER.split(",")] for r in payload["rows"]]
    if len(rows) != spec["samples"]:
        return [f"{len(rows)} rows, expected {spec['samples']}"]
    errors: list[str] = []
    for theta, n, d, mu_line, tight in rows:
        t = math.radians(theta)
        _close(errors, "tight_value", theta, tight, 1.0, 1e-9)
        _close(errors, "N", theta, n, h(math.cos(t)), 1e-10)
        _close(errors, "D", theta, d, h(math.sin(t)), 1e-10)
        _close(errors, "mu_line_D", theta, mu_line, 1.0 - n, 1e-12)
        if len(errors) > 5:
            break
    return errors


# ----------------------------------------------------------------- verify


def check_verify(spec, out, err) -> list[str]:
    lines = out.splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    verdict = lines[-1] if lines else ""
    if spec["control"]:
        # the perturbed battery must fail, on the bound checks at least
        if not verdict.startswith("verification: FAIL"):
            return [f"negative control did not fail: {verdict!r}"]
        return []
    if not verdict.startswith("verification: PASS"):
        return [f"verdict {verdict!r}"] + [line for line in checks if line.startswith("FAIL")]
    if len(checks) != spec["checks"] or len(lines) != spec["checks"] + 1:
        return [f"unexpected check lines: {lines}"]
    return []


CHECKS = {
    "sweep": check_sweep,
    "simulate": check_simulate,
    "correct-search": check_correct_search,
    "boundary": check_boundary,
    "verify": check_verify,
}


def records(cmd) -> int:
    """Data records the command writes: sweep rows, surface cells, boundary
    samples, intensity cells or verify check lines. The checks above confirm
    the output holds exactly this many."""
    spec = cmd.spec
    if cmd.kind == "sweep":
        return len(spec["thetas"])
    if cmd.kind == "simulate":
        return 8
    if cmd.kind == "correct-search":
        steps = [float(s) for s in spec["grid"].split(",")]
        return len(lattice(steps[0])) * len(lattice(steps[-1]))
    if cmd.kind == "boundary":
        return spec["samples"]
    return spec["checks"]  # verify


def check(cmd, out: str, err: str) -> list[str]:
    """Errors found in one command's output; empty when it is correct."""
    try:
        return CHECKS[cmd.kind](cmd.spec, out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
