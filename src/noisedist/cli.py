"""Command-line front end: sweeps, correction search, boundary export,
invariant verification, and raw intensity export.

Angles are taken in degrees on the command line and converted to radians
internally. Output is deterministic: identical (config, seed) pairs produce
byte-identical files. Exit codes: 0 success, 1 verification failure, 2 usage
error.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import __version__
from .bloch import _A_AXIS, _B_AXIS, CorrectionMap, polar_observable
from .bounds import (
    MAX_SURFACE_CELLS,
    MAX_TRIALS,
    _boundary_blocks,
    boundary_curve,
    check_bounds,
    correction_grid_search,
    ensemble_boundary_oracle,
    optimal_correction,
    tight_value,
    variational_f,
)
from .counting import (MAX_SHOTS, _dot, _draw_counts, _input_entropy_given_out,
                       simulate_intensities)
from .entropy import (
    binary_entropy,
    binary_entropy_derivative,
    binary_entropy_inverse,
    disturbance_bits,
    noise_bits,
    theory_disturbance_optimal,
    theory_disturbance_uncorrected,
    theory_noise,
)
from .errors import NoiseDistError, ValidationError
from .tables import _lattice_blocks, write_table

if TYPE_CHECKING:  # a valid command line never imports argparse (see main)
    import argparse

ENV_OUTDIR = "NOISEDIST_OUTDIR"

#: The standard sweep grid: 0-90 degrees in steps of 10, 100-180 in steps of 20.
DEFAULT_THETA_SPEC = "0:90:10,100:180:20"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

#: Size caps, checked arithmetically before anything is allocated: points of
#: a --theta grid, cells of a correct-search lattice or boundary samples
#: (bounds.MAX_SURFACE_CELLS), and ensemble-oracle trials (bounds.MAX_TRIALS;
#: about 172 MB peak at the cap). The library checks the last two again.
#: Shots are capped by counting.MAX_SHOTS. A sweep holds its grid whole (8
#: bytes a point, 8 MB at the cap) and computes and writes its rows one
#: block at a time, as boundary does its samples, so neither holds its table.
MAX_THETA_POINTS = 1_000_000

SWEEP_CSV_HEADER = "theta_deg,N,D0,Dcorr,sum_ND,tight_value,general_ok,tight_ok"
BOUNDARY_CSV_HEADER = "theta_deg,N,D,mu_line_D,tight_value"


def parse_theta_spec(text: str) -> np.ndarray:
    """Parse a theta grid: comma-separated values and start:stop:step ranges
    (inclusive of both ends), all in degrees, into one float64 array. Every
    number must be finite, and the grid may hold at most MAX_THETA_POINTS
    points. Point k of a range is start + k * step."""
    pieces, total = [[]], 0  # lists of single values and arrays of range points, in order
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad range {token!r}, expected start:stop:step")
            start, stop, step = (_finite_float(p) for p in parts)
            if step <= 0 or stop < start:
                raise ValueError(f"invalid grid range {token!r}")
            span = (stop - start) / step + 1e-9
            if not span < MAX_THETA_POINTS - total:
                raise ValueError(f"grid range {token!r} exceeds {MAX_THETA_POINTS} points")
            count = int(math.floor(span)) + 1
            grid = np.arange(count, dtype=float)  # k exactly, then scaled and shifted in place
            grid *= step
            grid += start
            pieces += [grid, []]
        else:
            pieces[-1].append(_finite_float(token))
            count = 1
        total += count
        if total > MAX_THETA_POINTS:
            raise ValueError(f"theta grid exceeds {MAX_THETA_POINTS} points")
    pieces = [np.asarray(piece, dtype=float) for piece in pieces if len(piece)]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces or [[]])


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def load_config(path: str) -> dict[str, str]:
    """Read a `key = value` config file; '#' starts a comment. A file that
    cannot be read, or a line without '=', raises ValidationError."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


class Option(NamedTuple):
    """One option of a command, declared once. The flag `--name` (with '-'
    for '_') and the config key `name` both parse with `type`. A value must
    be finite if it is a float, one of `choices` if any are given, and pass
    each (requirement, test) rule, else `--name must <requirement>`."""

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple = ()
    rules: tuple = ()


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _at_least(low):
    return (f"be >= {low}", lambda value: value >= low)


def _at_most(high):
    return (f"be <= {high}", lambda value: value <= high)


def _shots(text):
    return Option("shots", int, 1_000_000, text, rules=(_at_least(1), _at_most(MAX_SHOTS)))


def _seed(text):
    return Option("seed", int, 0, text, rules=(_at_least(0),))


_CORRECTIONS = ("none", "optimal", "custom")
_TARGET = Option("target", help="VARTHETA,PHI degrees for --correction custom")
_OUT = Option("out", help="output path (default stdout)")
_FORMAT = Option("format", default="csv", choices=("csv", "json"))

#: Every subcommand: (help, its options in --help order). The parser, the
#: config-file keys and option validation are all built from this table.
COMMANDS = {
    "sweep": ("noise/disturbance values over a theta grid", (
        Option("theta", default=DEFAULT_THETA_SPEC,
               help="grid in degrees: values and start:stop:step ranges, "
                    f"comma separated (default {DEFAULT_THETA_SPEC})"),
        _shots("shots per input state for sampled modes"),
        Option("mode", default="analytic", choices=("analytic", "multinomial", "poisson")),
        Option("correction", default="optimal", choices=_CORRECTIONS),
        _TARGET,
        _seed("base RNG seed for sampled modes"),
        Option("tolerance", float, help="bound-check slack (default: 1e-9 analytic, "
                                        "3/sqrt(shots) sampled)", rules=(_at_least(0),)),
        _OUT,
        _FORMAT,
    )),
    "correct-search": ("disturbance surface over re-preparation targets", (
        Option("theta_m", float, 50.0, "measurement polar angle in degrees (default 50)"),
        Option("grid", default="22.5",
               help="lattice step(s) in degrees: STEP or VSTEP,PSTEP (default 22.5)"),
        _OUT,
        _FORMAT,
    )),
    "boundary": ("export the optimal tradeoff boundary", (
        Option("samples", int, 91, "number of boundary samples (default 91)",
               rules=(_at_least(2), _at_most(MAX_SURFACE_CELLS))),
        _OUT,
        _FORMAT,
    )),
    "simulate": ("raw intensity table for one configuration", (
        Option("theta", float, 50.0, "measurement polar angle in degrees"),
        Option("family", default="B", help="A (noise inputs) | B (disturbance inputs)",
               choices=("A", "B")),
        _shots("shots per input state"),
        Option("mode", default="multinomial", choices=("exact", "multinomial", "poisson")),
        Option("correction", default="none", choices=_CORRECTIONS),
        _TARGET,
        _seed("RNG seed"),
        Option("efficiency", float, 1.0, "uniform detector thinning in (0, 1]",
               rules=(("lie in (0, 1]", lambda value: 0.0 < value <= 1.0),)),
        _OUT,
        _FORMAT,
    )),
    "verify": ("run the invariant battery; exit 1 on any failure", (
        Option("trials", int, 100_000, "ensemble-oracle trials (0 skips the section)",
               rules=(_at_least(0), _at_most(MAX_TRIALS))),
        _shots("shots for the sampled-estimator check"),
        _seed("base RNG seed"),
        Option("perturb_disturbance", float, 0.0,
               "debug: lower disturbance by this many bits inside the bound checks "
               "(negative control; any nonzero value should FAIL them)"),
    )),
}


def _resolve_options(args) -> SimpleNamespace:
    """Apply the precedence CLI flag > config file > built-in default, then
    check each value in table order."""
    options = COMMANDS[args.command][1]
    config = load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - {option.name for option in options})
    if unknown:
        raise ValidationError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    resolved = {}
    for option in options:
        value = getattr(args, option.name)
        if value is None and option.name in config:
            try:
                value = option.type(config[option.name])
            except ValueError:
                raise ValidationError(f"config key {option.name!r}: cannot parse "
                                      f"{config[option.name]!r}") from None
        elif value is None:
            value = option.default
        resolved[option.name] = value
        if value is None:
            continue
        flag = _flag(option.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{flag} must be a finite number, got {value!r}")
        if option.choices and value not in option.choices:
            raise ValidationError(
                f"{flag} must be one of {', '.join(option.choices)}; got {value!r}")
        for requirement, test in option.rules:
            if not test(value):
                raise ValidationError(f"{flag} must {requirement}, got {value!r}")
    return SimpleNamespace(**resolved)


def resolve_out_path(out: str | None) -> Path | None:
    """Relative output paths land under $NOISEDIST_OUTDIR when it is set."""
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(ENV_OUTDIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


@contextlib.contextmanager
def _output(out: str | None):
    """The output stream: the --out file, or stdout. Enter it only after all
    validation and, for a table written in row blocks, after its first block
    is computed, so a usage error or a failing first block leaves no file
    behind and writes nothing. A later block that raises, or a write that
    fails, removes the partial file; a failed write raises ValidationError.
    On stdout the rows already written stay, and the error still exits 2. A
    reader that stops early (`| head`) ends the output quietly and the
    command keeps its exit code."""
    path = resolve_out_path(out)
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            # point stdout's descriptor at os.devnull, so that what is still
            # buffered, and the interpreter's final flush, go nowhere instead
            # of raising again
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        stream = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write output path {path}: {exc}") from exc
    try:
        with stream:
            yield stream
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write output path {path}: {exc}") from exc
        raise


def _parse_target(kind, target_spec):
    """(vartheta_deg, phi_deg) of --target for --correction custom, else None."""
    if kind != "custom":
        return None
    if not target_spec:
        raise ValidationError("--correction custom requires --target VARTHETA,PHI (degrees)")
    try:
        vt_deg, phi_deg = (_finite_float(p) for p in str(target_spec).split(","))
    except ValueError:
        raise ValidationError(
            f"--target expects 'VARTHETA,PHI' as finite degrees, got {target_spec!r}") from None
    return vt_deg, phi_deg


def _make_correction(kind, target, m_obs):
    """(CorrectionMap or None, label) for a correction choice; `target` is
    the parsed --target of a custom correction."""
    if kind == "none":
        return None, "identity"
    if kind == "optimal":
        return optimal_correction(m_obs.axis), "optimal"
    cmap = CorrectionMap.from_rotation_angles(*map(math.radians, target))
    return cmap, "custom({:g},{:g})".format(*target)


# ---------------------------------------------------------------- sweep


#: The re-preparation targets (mu = +1, -1) of the optimal correction, indexed
#: by b . m < 0: optimal_correction sends mu to |mu b> where b . m >= 0, else
#: to |-mu b>.
_OPTIMAL_PAIRS = np.array([[_B_AXIS, -_B_AXIS], [-_B_AXIS, _B_AXIS]])


def _sweep_targets(thetas_deg, correction_kind, target):
    """Measurement axes (n, 3) over a theta grid in degrees, and the
    re-preparation targets (n, k, 2, 3) of mu = +1, -1 in one buffer: those
    of no correction (+m and -m), then those of the chosen one unless it is
    none. All are bit for bit those of polar_observable,
    CorrectionMap.identity_for and _make_correction: numpy's radians, sin
    and cos give math's bits at both SIMD levels the golden tests pin."""
    radians = np.radians(thetas_deg)
    targets = np.zeros((radians.size, 1 if correction_kind == "none" else 2, 2, 3))
    axes = targets[:, 0, 0]
    np.sin(radians, out=axes[:, 1])
    np.cos(radians, out=axes[:, 2])
    np.negative(axes, out=targets[:, 0, 1])
    if correction_kind == "optimal":
        targets[:, 1] = _OPTIMAL_PAIRS[(_dot(axes, _B_AXIS) < 0.0).astype(int)]
    elif correction_kind == "custom":
        corr_map = CorrectionMap.from_rotation_angles(*map(math.radians, target))
        targets[:, 1] = [corr_map.target_plus.direction.as_tuple(),
                         corr_map.target_minus.direction.as_tuple()]
    return axes, targets


def _sweep_columns(thetas_deg, mode, correction_kind, target, shots, seed):
    """(N, D0, Dcorr) arrays over a theta grid in degrees; without a
    correction, Dcorr is D0. Analytic mode evaluates the kernel on the
    overlaps of the axes and targets, one call for D0 and Dcorr. The other
    modes draw the intensity tables of every angle in one pass (A under the
    correction, B without it, then B under it) and make one estimator call."""
    axes, targets = _sweep_targets(thetas_deg, correction_kind, target)
    if mode == "analytic":  # b . m is the overlap of the first target of D0
        overlaps = _dot(targets, _B_AXIS)
        d = disturbance_bits(overlaps[:, :1, 0], overlaps)
        return noise_bits(_dot(axes, _A_AXIS)), d[:, 0], d[:, -1]
    # A under the last targets (they key its stream, not N), then B under each
    families = "A" + "B" * targets.shape[1]
    counts = _draw_counts([seed], families, axes, np.concatenate([targets[:, -1:], targets], 1),
                          shots, mode)
    h = _input_entropy_given_out(counts[0], families)
    return h[:, 0], h[:, 1], h[:, -1]


def _bound_flags(n, d0, dcorr, tolerance):
    """(tight_value, general_ok, tight_ok) arrays of a sweep's rows, the one
    row model of sweep and verify: the tight bound of Dcorr alone, the
    general one of D0 and Dcorr."""
    tight, general_ok, tight_ok = check_bounds(n, dcorr, tolerance=tolerance)
    general_ok &= n + d0 >= 1.0 - tolerance
    return tight, general_ok, tight_ok


def run_sweep(opt) -> int:
    try:
        thetas = parse_theta_spec(opt.theta)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if not thetas.size:
        raise ValidationError("empty theta grid")
    target = _parse_target(opt.correction, opt.target)
    # analytic rows are exact; sampled rows get a 3-sigma-style slack
    tolerance = opt.tolerance
    if tolerance is None:
        tolerance = 1e-9 if opt.mode == "analytic" else 3.0 / math.sqrt(opt.shots)

    def sweep_rows(thetas_deg):
        n, d0, dcorr = _sweep_columns(thetas_deg, opt.mode, opt.correction, target, opt.shots,
                                      opt.seed)
        return [thetas_deg, n, d0, dcorr, n + dcorr, *_bound_flags(n, d0, dcorr, tolerance)]

    # row-blocked: a sampled stream is keyed by its angle, so the blocks
    # change no count, and they run in order, so the first empty table raises
    blocks = (sweep_rows(thetas[span]) for span, _ in _lattice_blocks(thetas.size, 1))
    config = {
        "mode": opt.mode,
        "correction": opt.correction if opt.correction != "custom" else f"custom({opt.target})",
        "shots": int(opt.shots),
        "seed": int(opt.seed),
        "tolerance": tolerance,
    }
    return _write_blocks(opt, SWEEP_CSV_HEADER, blocks, {"config": config})


def _write_blocks(opt, header, blocks, meta) -> int:
    """Write a table of row blocks (see tables.write_table) to opt.out in
    opt.format. The first block is computed before the output is opened,
    each later one after the block before it is written, and no block is
    held once it is written."""
    blocks = iter(blocks)
    held = [next(blocks)]

    def in_turn():
        yield held.pop()
        yield from blocks

    with _output(opt.out) as stream:
        write_table(stream, (header.split(","), in_turn()), opt.format, meta=meta)
    return EXIT_OK


# ------------------------------------------------------- correct-search


def run_correct_search(opt) -> int:
    try:
        steps = [_finite_float(p) for p in str(opt.grid).split(",")]
    except ValueError:
        raise ValidationError(
            f"--grid expects STEP or VSTEP,PSTEP in degrees, got {opt.grid!r}") from None
    if len(steps) == 1:
        steps = steps * 2
    if len(steps) != 2 or steps[0] <= 0 or steps[1] <= 0:
        raise ValidationError(f"invalid grid steps {opt.grid!r}")
    # the lengths np.arange will give, capped so a tiny step cannot overflow
    sizes = [math.ceil(min((180.0 + step / 2) / step, MAX_SURFACE_CELLS + 1.0))
             for step in steps]
    if sizes[0] * sizes[1] > MAX_SURFACE_CELLS:
        raise ValidationError(f"--grid {opt.grid} exceeds {MAX_SURFACE_CELLS} lattice cells")
    varthetas_deg = np.arange(0.0, 180.0 + steps[0] / 2, steps[0])
    phis_deg = np.arange(0.0, 180.0 + steps[1] / 2, steps[1])

    result = correction_grid_search(
        math.radians(opt.theta_m), np.radians(varthetas_deg), np.radians(phis_deg))
    best_vt = math.degrees(result.best_vartheta)
    best_phi = math.degrees(result.best_phi)
    print(
        f"correct-search: theta_m={opt.theta_m:g} deg, argmin vartheta={best_vt:g} deg "
        f"phi={best_phi:g} deg, D_min={result.d_min!r}",
        file=sys.stderr,
    )

    meta = {"theta_m_deg": float(opt.theta_m),
            "argmin": {"vartheta_deg": best_vt, "phi_deg": best_phi, "D": result.d_min}}
    columns = {"vartheta_deg": varthetas_deg[:, None], "phi_deg": phis_deg[None, :],
               "D": result.surface}
    with _output(opt.out) as stream:
        write_table(stream, columns, opt.format, meta=meta, rows_key="surface")
    return EXIT_OK


# ------------------------------------------------------------- boundary


def run_boundary(opt) -> int:
    blocks = ([np.degrees(curve.theta), curve.noise, curve.disturbance, 1.0 - curve.noise,
               tight_value(curve.noise, curve.disturbance)]
              for _, curve in _boundary_blocks(opt.samples))
    return _write_blocks(opt, BOUNDARY_CSV_HEADER, blocks, {"samples": int(opt.samples)})


# ------------------------------------------------------------- simulate


def run_simulate(opt) -> int:
    target = _parse_target(opt.correction, opt.target)
    m = polar_observable(math.radians(opt.theta))
    corr_map, corr_label = _make_correction(opt.correction, target, m)
    table = simulate_intensities(
        m, corr_map, opt.family, opt.shots, opt.seed, opt.mode,
        efficiency=opt.efficiency, correction_label=corr_label)
    text = table.to_csv() if opt.format == "csv" else table.to_json()
    with _output(opt.out) as stream:
        stream.write(text)
    return EXIT_OK


# --------------------------------------------------------------- verify


def _verify_context():
    """What the checks of VERIFY_CHECKS share, computed once: the analytic
    pipeline's rows N, D0 and Dopt over 0..180 degrees in steps of 1, and
    the same rows on the paper grid (DEFAULT_THETA_SPEC), read off them."""
    grid_deg = [float(t) for t in range(181)]
    pipe = np.stack(_sweep_columns(grid_deg, "analytic", "optimal", None, 1, 0))
    paper_deg = parse_theta_spec(DEFAULT_THETA_SPEC)  # a part of the integer grid
    return SimpleNamespace(grid_deg=grid_deg, pipe=pipe, paper_deg=paper_deg,
                           paper=pipe[:, paper_deg.astype(int)])


def _check_theory_curves(opt, ctx):
    thetas = np.radians(ctx.grid_deg)
    theory = (theory_noise(thetas), theory_disturbance_uncorrected(thetas),
              theory_disturbance_optimal(thetas))
    dev = max(np.max(np.abs(row - curve)) for row, curve in zip(ctx.pipe, theory))
    endpoints = ctx.pipe[:, [0, 90, 180]].T.tolist()
    endpoints_exact = endpoints == [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    return (dev <= 1e-12 and endpoints_exact,
            f"max|pipeline-closed form|={dev:.3e}, endpoints exact={endpoints_exact}")


def _checked_bounds(opt, ctx):
    """N + D of (D0, Dopt), and the _bound_flags of the rows, with the
    disturbances lowered by opt.perturb_disturbance: the documented negative
    control of this battery, which must trip the two bound checks."""
    n, d_chk = ctx.pipe[0], np.clip(ctx.pipe[1:] - opt.perturb_disturbance, 0.0, 1.0)
    return n + d_chk, _bound_flags(n, *d_chk, 1e-9)


def _check_general_bound(opt, ctx):
    sums, (_, general_ok, _) = _checked_bounds(opt, ctx)
    return (bool(general_ok.all()), f"min(N+D)-c_AB={np.min(sums) - 1.0:.3e} over "
                                    f"{sums.shape[1]} angles, both corrections")


def _check_tight_saturation(opt, ctx):
    tight_dev = np.max(np.abs(_checked_bounds(opt, ctx)[1][0] - 1.0))
    return tight_dev <= 1e-9, f"max|g[N]^2+g[Dopt]^2-1|={tight_dev:.3e}"


def _check_correction_ordering(opt, ctx):
    _, d0, dopt = ctx.pipe
    order_ok = bool(np.all(dopt <= d0 + 1e-12))
    equal_at = [ctx.grid_deg[i] for i in np.flatnonzero(np.abs(d0 - dopt) <= 1e-12)]
    return (order_ok and equal_at == [0.0, 90.0, 180.0],
            f"Dopt<=D0 everywhere={order_ok}, equality at {equal_at}")


def _check_correction_search(opt, ctx):
    coarse = np.radians(np.arange(0.0, 180.1, 22.5))
    res = correction_grid_search(math.radians(50.0), coarse, coarse)
    expect = binary_entropy(math.sin(math.radians(50.0)))
    argmin = (math.degrees(res.best_vartheta), math.degrees(res.best_phi))
    refine = np.radians(np.arange(80.0, 100.1, 1.0))
    res_fine = correction_grid_search(math.radians(50.0), refine, refine)
    return (argmin == (90.0, 90.0) and abs(res.d_min - expect) <= 1e-9
            and res_fine.d_min >= expect - 1e-9,
            f"argmin=({argmin[0]:g},{argmin[1]:g}), |Dmin-h(sin50)|={abs(res.d_min - expect):.3e}")


def _check_estimator_exact(opt, ctx):
    exact = np.stack(_sweep_columns(ctx.paper_deg, "exact", "optimal", None, 10**6, 0))
    exact_dev = float(np.max(np.abs(exact - ctx.paper)))
    return exact_dev <= 1e-12, f"max|counts pipeline-analytic|={exact_dev:.3e}"


def _check_estimator_sampled(opt, ctx):
    # A without a correction and B under the optimal one, for 3 seeds
    axes, targets = _sweep_targets(ctx.paper_deg, "optimal", None)
    counts = _draw_counts([opt.seed, opt.seed + 1, opt.seed + 2], "AB", axes, targets,
                          opt.shots, "multinomial")
    sampled = _input_entropy_given_out(counts, "AB")
    sampled_dev = float(np.max(np.abs(sampled - ctx.paper[[0, 2]].T)))
    # the 0.01-bit tolerance is stated at 1e6 shots; scale it as 1/sqrt(shots)
    # when the battery is run with fewer shots for speed
    sampled_tol = 0.01 * max(1.0, math.sqrt(1e6 / opt.shots))
    return (sampled_dev < sampled_tol,
            f"max dev={sampled_dev:.4f} bits at {opt.shots} shots, 3 seeds "
            f"(tol {sampled_tol:.4f})")


def _check_ensemble_oracle(opt, ctx):
    """None, and a note on stderr, for --trials 0: the check is left out."""
    if opt.trials <= 0:
        print("note: ensemble-oracle section skipped (trials=0)", file=sys.stderr)
        return None
    report = ensemble_boundary_oracle(opt.trials, max_members=4, seed=opt.seed)
    # single-member points, the projection lemma (member-wise and so
    # ensemble-wise) and N* + D* >= 1 are the provable invariants;
    # multi-member mixtures legitimately reach down to the straight N+D=1
    # segment, so their distance to the curve is reported, not gated
    oracle_ok = (not report.min_single_member_distance < -1e-9  # NaN: no single-member trial
                 and report.max_member_noise_increase <= 1e-12
                 and report.max_projection_noise_increase <= 1e-12
                 and report.max_projection_disturbance_shift <= 1e-12
                 and report.min_entropy_sum >= 1.0 - 1e-12)
    print(f"note: min signed distance to the curve over all trials = "
          f"{report.min_signed_distance:.4f} bits ({report.boundary_violations} of "
          f"{report.trials} trials below it; entropy averages are only bounded "
          "by the N+D=1 segment, not by the curve: min N*+D* = "
          f"{report.min_entropy_sum:.4f} bits)", file=sys.stderr)
    return (oracle_ok,
            f"{report.trials} trials: single-member min dist="
            f"{report.min_single_member_distance:.3e}, projection lemma "
            f"max increase={report.max_member_noise_increase:.3e}")


def _check_variational_f(opt, ctx):
    ts = np.array([(k / 1001.0) * (math.pi / 2) for k in range(1, 1001)])
    f_vals = variational_f(ts)
    mono = bool(np.all(np.diff(f_vals) > 0.0))
    recip_dev = float(np.max(np.abs(variational_f(math.pi / 2 - ts) * f_vals - 1.0)))
    return mono and recip_dev <= 1e-9, f"monotone={mono}, max|f(t)f(90-t)-1|={recip_dev:.3e}"


def _check_maassen_uffink(opt, ctx):
    # the boundary's N + D at theta is the entropy sum H(sigma_z) + H(sigma_y)
    # of the y-z-plane pure state psi(theta, pi/2); the flat bound is 1 bit
    curve = boundary_curve(1572)  # ~1e-3 rad resolution on [0, pi/2]
    sums = curve.noise + curve.disturbance
    argmin = int(np.argmin(sums))
    least, theta = float(sums[argmin]), float(curve.theta[argmin])
    gap = float(sums[1:-1].min() - 1.0)
    return (abs(least - 1.0) <= 1e-12 and gap > 0.0 and theta in (0.0, math.pi / 2),
            f"min sum={least:.6f} at theta={theta:g}, interior gap>={gap:.3e}")


def _check_entropy_roundtrip(opt, ctx):
    x = np.random.default_rng(opt.seed).uniform(0.0, 1.0, 1000)
    rt = np.abs(binary_entropy_inverse(binary_entropy(x)) - x)
    # g is ill conditioned where h is flat: an error of 1e-15 in h(x) moves g
    # by 1e-15 / |h'(x)|, allowed on top of 1e-10 (it exceeds it for x < 7e-6)
    rt_ok = np.all((rt - 1e-10) * np.abs(binary_entropy_derivative(x)) <= 1e-15)
    return bool(rt_ok), f"max|g(h(x))-x|={np.max(rt):.3e} over 1000 uniforms"


#: verify's invariant battery, in report order: (name, check). A check takes
#: the resolved options and the shared _verify_context() and returns (passed,
#: detail), or None to be left out of the report.
VERIFY_CHECKS = (
    ("theory-curves", _check_theory_curves),
    ("general-bound", _check_general_bound),
    ("tight-saturation", _check_tight_saturation),
    ("correction-ordering", _check_correction_ordering),
    ("correction-search", _check_correction_search),
    ("estimator-exact", _check_estimator_exact),
    ("estimator-sampled", _check_estimator_sampled),
    ("ensemble-oracle", _check_ensemble_oracle),
    ("variational-f", _check_variational_f),
    ("maassen-uffink", _check_maassen_uffink),
    ("entropy-roundtrip", _check_entropy_roundtrip),
)


def run_verify(opt) -> int:
    """Run every check of VERIFY_CHECKS, then print one line per check and
    the verdict."""
    context = _verify_context()
    checks = [(name, *result) for name, check in VERIFY_CHECKS
              if (result := check(opt, context)) is not None]
    width = max(len(name) for name, _, _ in checks)
    failures, total = sum(not ok for _, ok, _ in checks), len(checks)
    with _output(None) as stream:
        for name, ok, detail in checks:
            stream.write(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}\n")
        stream.write(
            f"verification: {'PASS' if failures == 0 else 'FAIL'} ({total - failures}/{total})\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------- main


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """--config and the options of `command`. Flags default to None so that
    _resolve_options can tell a given flag from an absent one."""
    parser.add_argument("--config", help="key = value config file; CLI flags take precedence")
    for option in COMMANDS[command][1]:
        parser.add_argument(_flag(option.name), type=option.type,
                            help=option.help or " | ".join(option.choices))


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand of COMMANDS. It writes every help
    text, usage line and error the program prints."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="noisedist",
        description="Noise-disturbance tradeoffs for successive qubit measurements: "
                    "sweeps, correction search, tradeoff boundary, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=text), name)
    return parser


#: Per command, the flags _read_args takes: {flag: (dest, type)}.
_FLAGS = {
    command: {"--config": ("config", str),
              **{_flag(option.name): (option.name, option.type) for option in options}}
    for command, (_, options) in COMMANDS.items()
}


def _read_args(argv):
    """The namespace build_parser().parse_args(argv) gives, read without a
    parser; or None unless argv is a command followed by full flags, as
    `--flag value` or `--flag=value`, each at most once, with a value that
    does not start with '-' and that the flag's type converts. argparse
    parses whatever this returns None for, so it alone prints help, usage
    and errors."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = dict.fromkeys(dest for dest, _ in flags.values())
    index, end = 1, len(argv)
    while index < end:
        name, eq, value = argv[index].partition("=")
        index += 1
        if not eq:
            if index == end:
                return None
            value = argv[index]
            index += 1
        dest, convert = flags.get(name, (None, None))
        if dest is None or values[dest] is not None or value.startswith("-"):
            return None
        try:
            values[dest] = convert(value)
        except ValueError:
            return None
    return SimpleNamespace(command=argv[0], **values)


_RUNNERS = {
    "sweep": run_sweep,
    "correct-search": run_correct_search,
    "boundary": run_boundary,
    "simulate": run_simulate,
    "verify": run_verify,
}


def main(argv=None) -> int:
    """Run one command. _read_args reads a valid command line; argparse
    parses everything else (help, --version, a prefix, a repeat, an unknown
    or malformed argument) and reports it, as it reports every error raised
    after parsing."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](_resolve_options(args))
    except NoiseDistError as exc:
        build_parser().error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
