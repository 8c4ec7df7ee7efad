"""Span tracing around the calls into each noisedist layer, from outside it.

`Tracer.install` wraps every public function of the five working modules
(`cli`, `bloch`, `entropy`, `counting`, `bounds`) plus the listed methods.
A wrapper replaces the function wherever a module of the package holds it,
not only at its home module: `cli`, `bounds` and `counting` bind names with
`from .entropy import ...`, and `cli._RUNNERS` holds the `run_*` functions in
a dict, so patching the home attribute alone would miss those calls.

Each call records a span (name, start, end, parent). Spans stay in memory
and are written out at the end; self time, call counts and element counts
are derived from them afterwards, so the wrappers do as little as possible.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "bloch", "entropy", "counting", "bounds")

# Public function -> metric group. Unlisted public functions fall in
# "<layer>.other", so their time still counts toward their layer.
GROUPS = {
    "cli.main": "cli.main",
    "cli.build_parser": "cli.parse",
    "cli.parse_theta_spec": "cli.parse",
    "cli.load_config": "cli.parse",
    "cli.run_sweep": "cli.runner",
    "cli.run_correct_search": "cli.runner",
    "cli.run_boundary": "cli.runner",
    "cli.run_simulate": "cli.runner",
    "cli.run_verify": "cli.runner",
    "cli.resolve_out_path": "cli.runner",
    "entropy.binary_entropy": "entropy.h",
    "entropy.binary_entropy_inverse": "entropy.inverse",
    "entropy.noise": "entropy.functional",
    "entropy.disturbance": "entropy.functional",
    "entropy.sequential_joint": "entropy.functional",
    "entropy.conditional_entropy": "entropy.functional",
    "counting.simulate_intensities": "counting.simulate",
    "counting.polar_angle": "counting.simulate",
    "counting.estimate_probabilities": "counting.estimate",
    "counting.bayes_invert": "counting.estimate",
    "counting.nd_from_counts": "counting.estimate",
    "counting.IntensityTable.to_csv": "counting.serialize",
    "counting.IntensityTable.to_json": "counting.serialize",
    "bounds.check_bounds": "bounds.check",
    "bounds.c_ab": "bounds.check",
    "bounds.correction_grid_search": "bounds.surface",
    "bounds.disturbance_surface": "bounds.surface",
    "bounds.surface_to_csv": "bounds.serialize",
    "bounds.boundary_to_csv": "bounds.serialize",
    "bounds.ensemble_boundary_oracle": "bounds.oracle",
    "bounds.signed_boundary_distance": "bounds.oracle",
    "bounds.boundary_disturbance": "bounds.oracle",
    "bounds.boundary_curve": "bounds.curve",
    "bounds.maassen_uffink_compare": "bounds.curve",
    "bounds.variational_f": "bounds.curve",
    "bounds.ensemble_point": "bounds.curve",
}

# Methods traced as part of their layer: eigenstate, correction and
# instrument construction and application in bloch, serializers in counting.
METHODS = {
    "bloch": {
        "Observable": ("eigenstate", "eigenstates"),
        "PureState": ("from_angles", "antipode"),
        "CorrectionMap": ("identity_for", "from_rotation_angles", "target"),
        "ProjectiveInstrument": ("__init__", "apply", "outcome_probability"),
    },
    "counting": {"IntensityTable": ("to_csv", "to_json")},
}


def _size(x) -> int:
    return getattr(x, "size", 1)


# Element counts taken at the call: array sizes for the entropy functions,
# lattice cells for the surface, trials for the oracle.
COUNTERS = {
    "entropy.binary_entropy": lambda a, k: _size(a[0] if a else k["x"]),
    "entropy.binary_entropy_inverse": lambda a, k: _size(a[0] if a else k["y"]),
    "bounds.disturbance_surface": lambda a, k: len(a[1]) * len(a[2]),
    "bounds.ensemble_boundary_oracle": lambda a, k: int(a[0] if a else k["trials"]),
}


class Spans:
    """Spans in flat arrays, so recording them creates no objects for the
    garbage collector to walk: name id, start, end, parent index, elements."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.elems = array("q")

    def __len__(self):
        return len(self.name_id)

    def __iter__(self):
        names = self.names
        for k, t0, t1, p, n in zip(self.name_id, self.start, self.end, self.parent, self.elems):
            yield names[k], t0, t1, p, n


class Tracer:
    """Records spans while `enabled`; `install`/`uninstall` patch the package."""

    def __init__(self):
        self.spans = Spans()
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self.enabled = False

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        name_id = len(spans.names)
        spans.names.append(name)
        ids, starts, ends, parents, elems = (
            spans.name_id, spans.start, spans.end, spans.parent, spans.elems)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            elems.append(counter(args, kwargs) if counter else 1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self, package: str = "noisedist") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        namespaces = [vars(importlib.import_module(package))]
        namespaces += [vars(m) for m in modules.values()]
        # dicts held by modules (cli._RUNNERS) are import sites too
        namespaces += [v for ns in list(namespaces) for v in ns.values() if isinstance(v, dict)]
        replace = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    replace[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = vars(cls)[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    setattr(cls, meth, wrapped)
                    self._patches.append((cls, meth, raw, wrapped))
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    ns[attr] = replace[id(value)][1]
                    self._patches.append((ns, attr, value, ns[attr]))

    @staticmethod
    def span_cost(calls: int = 50_000) -> float:
        """Seconds a traced call adds to its caller's span: a wrapped no-op
        with tracing on, less the same no-op called directly."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("calibration", noop)
        probe.enabled = True
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            wrapped()
        t1 = clock()
        for _ in range(calls):
            noop()
        t2 = clock()
        return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as CSV: index, name, start, end, parent, elems."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,elems\n")
            for i, (name, t0, t1, parent, n) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{n}\n")


def group_of(name: str) -> str:
    return GROUPS.get(name, name.split(".", 1)[0] + ".other")


class Analysis:
    """Self time, calls and element counts per group, derived from spans.

    A span's self time is its duration minus the durations of its children;
    children of one span never overlap, since the program is single-threaded.
    """

    def __init__(self, spans):
        spans = list(spans)
        n = len(spans)
        child = [0.0] * n
        root = [0] * n
        descendants = [0] * n
        for i in range(n - 1, -1, -1):
            if spans[i][3] >= 0:
                descendants[spans[i][3]] += descendants[i] + 1
        for i, (_, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        self.calls = defaultdict(int)
        self.elems = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost spans of a group only
        self.by_name = defaultdict(list)  # name -> [(duration, elems, descendants)]
        self.root_self = defaultdict(lambda: defaultdict(float))  # root -> group -> s
        self.roots = []
        self.h_under_inverse = 0
        groups = [group_of(s[0]) for s in spans]
        for i, (name, t0, t1, parent, elems) in enumerate(spans):
            g = groups[i]
            dur = t1 - t0
            self.calls[g] += 1
            self.elems[g] += elems
            self.self_s[g] += dur - child[i]
            self.by_name[name].append((dur, elems, descendants[i]))
            self.root_self[root[i]][g] += dur - child[i]
            if parent < 0:
                self.roots.append((i, dur))
            elif g == "entropy.h" and groups[parent] == "entropy.inverse":
                self.h_under_inverse += 1
            if parent < 0 or not self._inside(groups, spans, parent, g):
                self.incl_s[g] += dur
        self.total_s = sum(d for _, d in self.roots)

    @staticmethod
    def _inside(groups, spans, i, g):
        while i >= 0:
            if groups[i] == g:
                return True
            i = spans[i][3]
        return False

    def layer_self(self, layer):
        return sum(v for g, v in self.self_s.items() if g.split(".")[0] == layer)

    def share(self, layer):
        return self.layer_self(layer) / self.total_s if self.total_s else 0.0

    def fast_half_share(self, group):
        """Self-time share of `group` within the commands at or below the
        median command latency (the ones cmd_p50_ms describes)."""
        if not self.roots:
            return 0.0
        durs = sorted(d for _, d in self.roots)
        median = durs[(len(durs) - 1) // 2]
        fast = [i for i, d in self.roots if d <= median]
        total = sum(d for i, d in self.roots if d <= median)
        part = sum(self.root_self[i].get(group, 0.0) for i in fast)
        return part / total if total else 0.0


def per_layer_metrics(a: Analysis, passes: int, out_bytes: int, overhead: float) -> dict:
    """The per_layer metrics of BENCHMARK.json, per traced pass."""
    per = 1.0 / passes
    m = {
        "cli.parse.calls": (a.calls["cli.parse"] * per, "count"),
        "cli.parse.self_s": (a.self_s["cli.parse"] * per, "s"),
        "cli.runner.self_s": (a.self_s["cli.runner"] * per, "s"),
        "cli.out_bytes": (out_bytes * per, "bytes"),
        "bloch.calls": (sum(v for g, v in a.calls.items() if g.startswith("bloch")) * per,
                        "count"),
        "bloch.self_s": (a.layer_self("bloch") * per, "s"),
    }
    for g in ("entropy.h", "entropy.inverse"):
        m[f"{g}.calls"] = (a.calls[g] * per, "count")
        m[f"{g}.elems"] = (a.elems[g] * per, "count")
        m[f"{g}.self_s"] = (a.self_s[g] * per, "s")
    calls_inv = a.calls["entropy.inverse"]
    m["entropy.inverse.h_calls_per_call"] = (
        a.h_under_inverse / calls_inv if calls_inv else 0.0, "count")
    for g in ("entropy.functional", "counting.simulate", "counting.estimate", "bounds.check"):
        m[f"{g}.calls"] = (a.calls[g] * per, "count")
        m[f"{g}.self_s"] = (a.self_s[g] * per, "s")
    m["counting.serialize.self_s"] = (a.self_s["counting.serialize"] * per, "s")
    m["bounds.surface.cells"] = (
        sum(e for _, e, _ in a.by_name["bounds.disturbance_surface"]) * per, "count")
    m["bounds.surface.self_s"] = (a.self_s["bounds.surface"] * per, "s")
    m["bounds.serialize.self_s"] = (a.self_s["bounds.serialize"] * per, "s")
    m["bounds.oracle.trials"] = (
        sum(e for _, e, _ in a.by_name["bounds.ensemble_boundary_oracle"]) * per, "count")
    m["bounds.oracle.self_s"] = (a.self_s["bounds.oracle"] * per, "s")
    m["bounds.curve.self_s"] = (a.self_s["bounds.curve"] * per, "s")
    for layer in LAYERS:
        m[f"{layer}.share"] = (a.share(layer), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ROADMAP item 1's per-call table (one core busy of two), for the cross-check.
ROADMAP_MEANS = (
    ("check_bounds", "bounds.check_bounds", None, 5.0e-3),
    ("noise", "entropy.noise", None, 57e-6),
    ("disturbance", "entropy.disturbance", None, 88e-6),
    ("simulate_intensities", "counting.simulate_intensities", None, 194e-6),
    ("nd_from_counts", "counting.nd_from_counts", None, 195e-6),
    ("binary_entropy_inverse (scalar)", "entropy.binary_entropy_inverse", 1, 2.96e-3),
)


def _fmt_s(x):
    if x >= 1e-3:
        return f"{x * 1e3:.3g} ms"
    return f"{x * 1e6:.3g} us"


def cross_check(a: Analysis, span_cost_s: float) -> list[str]:
    """Per-call means next to ROADMAP item 1's table. A traced call also pays
    for the spans of everything it calls; `span_cost_s` (Tracer.span_cost)
    per nested span estimates that share."""
    lines = []
    for label, name, elems, roadmap in ROADMAP_MEANS:
        calls = [(d, k) for d, e, k in a.by_name[name] if elems is None or e == elems]
        if not calls:
            continue
        mean = math.fsum(d for d, _ in calls) / len(calls)
        nested = sum(k for _, k in calls) / len(calls)
        net = mean - nested * span_cost_s
        lines.append(f"{label}: traced mean {_fmt_s(mean)} over {len(calls)} calls with "
                     f"{nested:.0f} nested spans each; less their tracing cost "
                     f"{_fmt_s(net)}; ROADMAP {_fmt_s(roadmap)} (ratio {net / roadmap:.2f})")
    return lines


def predictions(workload: str, a: Analysis, n_boundary: int) -> list[tuple[bool, str]]:
    """Where the benchmark predicts time goes, checked against the spans."""
    def pct(x):
        return f"{100 * x:.1f}%"

    def incl(g):  # share of command time inside the group's outermost spans
        return a.incl_s[g] / a.total_s if a.total_s else 0.0

    def selfsh(g):
        return a.self_s[g] / a.total_s if a.total_s else 0.0

    counting_calls = sum(v for g, v in a.calls.items() if g.startswith("counting"))
    out = []
    if workload in ("sweep-analytic", "export-tables"):
        out.append((counting_calls == 0,
                    f"counting does no work here ({counting_calls} calls)"))
    if workload != "verify-battery":
        trials = sum(e for _, e, _ in a.by_name["bounds.ensemble_boundary_oracle"])
        out.append((trials == 0, f"the ensemble oracle does not run here ({trials} trials)"))
    if workload == "sweep-analytic":
        out.append((incl("bounds.check") > 0.5,
                    f"entropy.inverse plus bounds.check dominate: check_bounds spans cover "
                    f"{pct(incl('bounds.check'))} of command time, entropy.inverse spans "
                    f"{pct(incl('entropy.inverse'))}"))
        out.append((selfsh("cli.runner") < 0.05,
                    f"cli.runner self time is small here ({pct(selfsh('cli.runner'))})"))
    elif workload == "sweep-sampled":
        out.append((a.calls["counting.simulate"] > 0 and a.calls["bounds.check"] > 0,
                    f"counting and bounds.check both work here "
                    f"({a.calls['counting.simulate']} simulate, {a.calls['bounds.check']} "
                    f"check calls; counting share {pct(a.share('counting'))})"))
        fast = a.fast_half_share("cli.parse")
        out.append((fast > 0.2,
                    f"cli.parse is a large part of the commands at or below the median "
                    f"latency ({pct(fast)} of their time)"))
    elif workload == "export-tables":
        dom = selfsh("cli.runner") + selfsh("bounds.serialize")
        out.append((dom > 0.5, f"cli.runner plus bounds.serialize dominate ({pct(dom)} of "
                               f"self time)"))
        scalar = a.calls["bounds.check"] + a.calls["entropy.functional"]
        out.append((scalar == 0, f"the scalar pipeline is not touched ({scalar} check or "
                                 f"functional calls)"))
        per_cmd = a.calls["entropy.inverse"] / n_boundary if n_boundary else 0.0
        out.append((per_cmd == 1.0, f"boundary makes one array entropy-inverse call per "
                                    f"command ({per_cmd:g} calls per boundary command)"))
        out.append((selfsh("cli.parse") < 0.01,
                    f"cli.parse is negligible here ({pct(selfsh('cli.parse'))})"))
    elif workload == "verify-battery":
        both = incl("bounds.oracle") + incl("bounds.curve")
        out.append((both > 0.5, f"bounds.oracle plus bounds.curve take most of the time "
                                f"({pct(incl('bounds.oracle'))} + {pct(incl('bounds.curve'))})"))
    return out
