"""noisedist benchmark: one workload run, result as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is the checkout's own
`src/noisedist`; nothing is installed. With --trace 0 the run first times
several fresh interpreters importing `noisedist.cli` and building its parser
(setup_s), then runs the workload in one more fresh interpreter (child.py)
and prints the end-to-end metrics. With --trace 1 it prints the per-layer
metrics of a traced run instead. Children get one BLAS/OpenMP thread each,
run one at a time and stay on one CPU; the report of each run goes to
stderr. Every end-to-end time is scaled to a reference machine speed
(calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
DEADLINE_S = 170.0

# after "ready" the same interpreter times the reference task, which is
# outside the measured span
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import noisedist.cli as c; "
    "c.build_parser(); print('ready', flush=True); sys.path.insert(0, sys.argv[2]); "
    "import calibrate; print(calibrate.time_reference(repeats=3), flush=True)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds(env) -> list[tuple[float, float]]:
    """Wall time from starting a fresh interpreter until it has imported
    noisedist.cli and built the parser, and the time of the reference task
    in that interpreter right afterwards, once per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"),
                               str(HERE)], stdout=subprocess.PIPE, env=env, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                reference = proc.stdout.readline()
                rc = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
            if rc != 0 or line.strip() != "ready":
                raise RuntimeError("setup interpreter failed")
        times.append((elapsed, float(reference)))
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "noisedist" / "cli.py").is_file():
        print(f"perfbench: no noisedist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    calibrate.pin_to_one_cpu()
    env = child_env()
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else setup_seconds(env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ROOT), str(outdir), args.workload,
             str(args.seed), str(args.seconds), str(args.trace)],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup:
        scaled = statistics.median(calibrate.scaled(s, r) for s, r in setup)
        result["metrics"]["setup_s"] = {"value": scaled, "unit": "s"}
        print("[perfbench] setup_s samples, wall/reference task (s): "
              + ", ".join(f"{s:.4f}/{r:.5f}" for s, r in setup), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
