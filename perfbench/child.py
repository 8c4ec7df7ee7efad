"""One workload run in a fresh interpreter; started by run.py, not by hand.

Usage: child.py ROOT OUTDIR WORKLOAD SEED SECONDS TRACE

Runs the workload's command list through `noisedist.cli.main(argv)` in a
closed loop with one client: a warm-up pass, then timed passes until SECONDS
have passed (at least MIN_PASSES). Each timed command is followed by one run
of the reference task (calibrate.py), and its latency is scaled by the mean
of the reference times just before and just after it. With TRACE=1 the
timed passes alternate between untraced and traced. Prints one JSON object on stdout and a
human-readable report on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import oracle
import tracing
from workloads import build_pass

MIN_PASSES = 3
HARD_LIMIT_S = 120.0  # stop starting passes after this, whatever SECONDS says


def tail_percentile(n_valid_per_pass: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    every run: a run holds at least MIN_PASSES passes of the valid commands.
    Fixed per workload, so runs and commits compare the same percentile."""
    return math.floor(100.0 * (1.0 - 10.0 / (MIN_PASSES * n_valid_per_pass)))


def nearest_rank(sorted_values, pct):
    return sorted_values[max(1, math.ceil(pct / 100.0 * len(sorted_values))) - 1]


def digest(rc, exc, paths) -> str:
    """Hash of an exit code, an exception name and output files, the files
    read in chunks so that no whole output is ever held in memory."""
    h = hashlib.sha256(f"{rc}\0{exc}\0".encode())
    for path in paths:
        with open(path, "rb") as f:
            h.update(f"{os.fstat(f.fileno()).st_size}\0".encode())
            while chunk := f.read(1 << 16):
                h.update(chunk)
    return h.hexdigest()


@dataclass
class WarmUp:
    """A valid command's warm-up result: what every timed run must repeat."""

    digest: str
    exit_ok: bool
    errors: list = field(default_factory=list)


@dataclass
class Tally:
    """What the timed passes measured."""

    latencies: list = field(default_factory=list)  # untraced valid commands, scaled
    wall: list = field(default_factory=list)  # the same latencies, unscaled
    references: list = field(default_factory=list)  # reference task times
    records: int = 0  # records written by the untraced valid commands
    execs: dict = field(default_factory=dict)  # command index -> timed runs
    fails: dict = field(default_factory=dict)  # command index -> failed timed runs
    probes: int = 0
    probes_failed: int = 0
    command_s: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})  # scaled, by traced
    traced_out_bytes: int = 0
    passes: int = 0
    traced_passes: int = 0


class Runner:
    def __init__(self, cli, outdir: Path, cmds):
        self.cli = cli
        self.outdir = outdir
        self.cmds = cmds
        self.reference_s = None  # the last reference task time

    def paths(self, stem):
        return self.outdir / f"{stem}.out", self.outdir / f"{stem}.err"

    def execute(self, cmd, stem):
        """Run one command with its stdout and stderr written to STEM.out and
        STEM.err in the outdir, as a shell redirect would, so the harness
        holds no copy of the output and peak RSS stays the program's own.
        Returns (exit code, exception name, seconds, stdout bytes)."""
        exc = None
        out_path, err_path = self.paths(stem)
        with open(out_path, "w", encoding="utf-8") as out, \
                open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(cmd.argv))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
            except Exception as e:  # any uncaught error fails the command
                rc, exc = None, type(e).__name__
            out.flush()
            err.flush()
            dt = time.perf_counter() - t0
            out_bytes = os.fstat(out.fileno()).st_size
        return rc, exc, dt, out_bytes

    def probe_ok(self, cmd, rc, exc) -> bool:
        """Exit 2, no exception, no output file (removed if one appeared)."""
        path = self.outdir / cmd.out_file
        leaked = path.exists()
        if leaked:
            path.unlink()
        return rc == 2 and exc is None and not leaked

    def warm_up(self):
        """Run every command once; keep hashes, and outputs for the oracle."""
        warm, probe_failures = {}, []
        for i, cmd in enumerate(self.cmds):
            if cmd.is_probe:
                rc, exc, _, _ = self.execute(cmd, "probe")
                if not self.probe_ok(cmd, rc, exc):
                    probe_failures.append(f"{' '.join(cmd.argv[:-2])}: exit {rc}"
                                          + (f", raised {exc}" if exc else ""))
                continue
            # the warm-up files stay for the oracle
            rc, exc, _, _ = self.execute(cmd, f"warm-{i}")
            w = warm[i] = WarmUp(digest(rc, exc, self.paths(f"warm-{i}")),
                                 rc == cmd.expect_exit and exc is None)
            if not w.exit_ok:
                w.errors.append(f"exit {rc}, exception {exc}, expected {cmd.expect_exit}")
        self.reference_s = calibrate.time_reference(repeats=5)
        return warm, probe_failures

    def timed_pass(self, warm, tally: Tally, tracer=None) -> None:
        """One pass over the commands; traced when a tracer is given."""
        latencies, wall = [], []
        for i, cmd in enumerate(self.cmds):
            if cmd.is_probe:
                # probes run untraced and stay out of every timing figure
                rc, exc, _, _ = self.execute(cmd, "probe")
                tally.probes += 1
                tally.probes_failed += not self.probe_ok(cmd, rc, exc)
                continue
            if tracer:
                tracer.enabled = True
            rc, exc, dt, out_bytes = self.execute(cmd, "cmd")
            if tracer:
                tracer.enabled = False
                tally.traced_out_bytes += out_bytes
            before, self.reference_s = self.reference_s, calibrate.time_reference()
            tally.references.append(self.reference_s)
            scaled = calibrate.scaled(dt, (before + self.reference_s) / 2)
            if not tracer:
                latencies.append(scaled)
                wall.append(dt)
                tally.records += oracle.records(cmd)
            tally.command_s[tracer is not None] += scaled
            same = digest(rc, exc, self.paths("cmd")) == warm[i].digest
            tally.execs[i] = tally.execs.get(i, 0) + 1
            tally.fails[i] = tally.fails.get(i, 0) + (not (same and warm[i].exit_ok))
            if not same and not warm[i].errors:
                warm[i].errors.append(f"output differs from the warm-up pass (exit {rc})")
        tally.passes += 1
        if tracer:
            tally.traced_passes += 1
        else:
            tally.latencies.extend(latencies)
            tally.wall.extend(wall)

    def check_outputs(self, warm, tally: Tally) -> None:
        """The oracle, on the warm-up outputs. A command whose output is wrong
        was wrong in every pass."""
        for i, w in warm.items():
            out = (self.outdir / f"warm-{i}.out").read_text()
            err = (self.outdir / f"warm-{i}.err").read_text()
            w.errors.extend(oracle.check(self.cmds[i], out, err))
            if w.errors:
                tally.fails[i] = tally.execs.get(i, 0)


def traced_report(workload, tracer, tally, valid, info) -> dict:
    a = tracing.Analysis(tracer.spans)
    untraced_passes = tally.passes - tally.traced_passes
    overhead = ((tally.command_s[True] / tally.traced_passes)
                / (tally.command_s[False] / untraced_passes))
    span_cost = tracing.Tracer.span_cost()
    info.append(f"traced passes {tally.traced_passes}, spans {len(tracer.spans)}, "
                f"overhead ratio {overhead:.3f}, tracing cost {span_cost * 1e6:.2f} us per span")
    info.append("self-time share per layer: " + ", ".join(
        f"{layer} {100 * a.share(layer):.1f}%" for layer in tracing.LAYERS))
    info.extend(f"cross-check {line}" for line in tracing.cross_check(a, span_cost))
    n_boundary = sum(1 for c in valid if c.kind == "boundary") * tally.traced_passes
    for held, text in tracing.predictions(workload, a, n_boundary):
        info.append(f"prediction {'HELD' if held else 'NOT HELD'}: {text}")
    return tracing.per_layer_metrics(a, tally.traced_passes, tally.traced_out_bytes, overhead)


def end_to_end(tally, n_valid, peak_rss_mb, info) -> dict:
    pct = tail_percentile(n_valid)
    lat = sorted(tally.latencies)
    attempted, failed = sum(tally.execs.values()), sum(tally.fails.values())
    info.append(f"latency samples {len(lat)}; tail percentile p{pct} "
                f"({len(lat) - math.ceil(pct / 100 * len(lat))} samples beyond)")
    info.append(f"reference task: median {1e3 * statistics.median(tally.references):.3f} ms "
                f"(nominal {1e3 * calibrate.REFERENCE_S:g} ms) over {len(tally.references)} "
                f"runs; unscaled wall latency: median {1e3 * statistics.median(tally.wall):.4g} "
                f"ms, p{pct} {1e3 * nearest_rank(sorted(tally.wall), pct):.4g} ms, "
                f"{tally.records / math.fsum(tally.wall):.6g} rows/s")
    info.append(f"failed {failed} of {attempted} commands and {tally.probes_failed} of "
                f"{tally.probes} probes")
    # every time is scaled to the reference speed (calibrate.py)
    return {
        "cmd_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "cmd_tail_ms": {"value": nearest_rank(lat, pct) * 1e3, "unit": "ms"},
        "rows_per_s": {"value": tally.records / math.fsum(lat), "unit": "rows/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "failed_ratio": {"value": (failed + tally.probes_failed) / (attempted + tally.probes),
                         "unit": "ratio"},
    }


def main(argv) -> int:
    root, outdir = Path(argv[0]), Path(argv[1])
    workload, seed, seconds, trace = argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import noisedist.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"noisedist imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    os.environ["NOISEDIST_OUTDIR"] = str(outdir)
    runner = Runner(cli, outdir, build_pass(workload, seed))
    valid = [c for c in runner.cmds if not c.is_probe]
    started = time.perf_counter()
    warm, probe_failures = runner.warm_up()

    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    timed_from = time.perf_counter()
    while True:
        now = time.perf_counter()
        enough = tally.passes >= MIN_PASSES and (not trace or tally.traced_passes >= 1)
        if enough and (now - timed_from >= seconds or now - started >= HARD_LIMIT_S):
            break
        if trace and tally.passes % 2 == 1:
            tracer.install()
            runner.timed_pass(warm, tally, tracer)
            tracer.uninstall()
        else:
            runner.timed_pass(warm, tally)
    # read before the oracle parses anything, so the figure is the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_outputs(warm, tally)

    info = [
        f"workload {workload}, seed {seed}: {tally.passes} timed passes of {len(valid)} "
        f"commands + {len(runner.cmds) - len(valid)} probes in "
        f"{time.perf_counter() - started:.1f} s with the warm-up; closed loop, one client",
        f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}",
    ]
    info.extend(f"probe failed: {msg}" for msg in probe_failures)
    for i, w in warm.items():
        info.extend(f"FAILED {' '.join(runner.cmds[i].argv)[:120]}: {e}" for e in w.errors[:3])
    failed = sum(tally.fails.values())
    wrong = sum(1 for w in warm.values() if w.errors)
    result = {"correct": wrong == 0 and failed == 0,
              "attempted": sum(tally.execs.values()), "failed": failed}
    if trace:
        tracer.write(root / ".perfbench_out" / f"spans-{workload}-{seed}.csv")
        result["metrics"] = traced_report(workload, tracer, tally, valid, info)
    else:
        result["metrics"] = end_to_end(tally, len(valid), peak_rss_mb, info)
    for line in info:
        print(f"[perfbench] {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
