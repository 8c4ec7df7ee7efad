"""The public surface of noisedist, its import graph, the README's library
quickstart, and the names the benchmark's span tracer
(perfbench/tracing.py) patches by name. A name
removed from the package must be removed from this list on purpose; a name
the tracer lists must keep resolving, or traced benchmark runs break, unless
STALE_TRACED lists it. tracing.py is only read here."""

import ast
import graphlib
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import noisedist
import noisedist.counting
from test_tracing import _load_tracing

PUBLIC_NAMES = [
    "BlochVector", "BoundaryCurve", "CorrectionMap", "DomainError",
    "EnsembleMember", "EstimationError", "GridSearchResult", "IntensityTable",
    "NDPoint", "NoiseDistError", "OUTCOMES", "Observable", "OracleReport",
    "ProjectiveInstrument", "PureState", "SIGMA_Y", "SIGMA_Z",
    "ValidationError", "binary_entropy", "binary_entropy_derivative", "binary_entropy_inverse",
    "boundary_curve", "check_bounds", "correction_grid_search", "disturbance",
    "disturbance_bits", "disturbance_surface", "ensemble_boundary_oracle", "joint_tables",
    "nd_from_counts", "noise", "noise_bits", "optimal_correction",
    "polar_angle", "polar_observable", "simulate_intensities", "theory_disturbance_optimal",
    "theory_disturbance_uncorrected", "theory_noise", "tight_value", "variational_f",
]

# GROUPS keys naming functions the package no longer has; their groups read 0
STALE_TRACED = {
    "entropy.sequential_joint", "entropy.conditional_entropy", "counting.estimate_probabilities",
    "counting.bayes_invert", "bounds.surface_to_csv", "bounds.boundary_to_csv",
    "bounds.ensemble_point", "bounds.signed_boundary_distance", "bounds.boundary_disturbance",
    "bounds.c_ab", "bounds.maassen_uffink_compare",
}


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(noisedist).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_experiment_functions_take_no_observable():
    # A = sigma_z and B = sigma_y are constants of the experiment layer
    functions = [noisedist.check_bounds, noisedist.simulate_intensities,
                 noisedist.counting._draw_counts, noisedist.disturbance_surface,
                 noisedist.correction_grid_search, noisedist.optimal_correction]
    assert {f.__name__: {"a", "b"} & set(inspect.signature(f).parameters)
            for f in functions} == {f.__name__: set() for f in functions}


def test_readme_quickstart_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].endswith(" True True")


def _resolves(dotted: str) -> bool:
    layer, *path = dotted.split(".")
    obj = importlib.import_module(f"noisedist.{layer}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    traced = set(tracing.GROUPS)
    traced |= {f"{layer}.{cls}.{method}" for layer, classes in tracing.METHODS.items()
               for cls, methods in classes.items() for method in methods}
    assert {name for name in traced if not _resolves(name)} == STALE_TRACED


def test_package_imports_form_no_cycle():
    """Every relative import of the package's modules, at module level or
    inside a function, is an edge; `from . import x` goes to module x or,
    for a name of the package, to __init__. A lazy import is fine, a cycle
    is not."""
    package = Path(noisedist.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        graph[path.stem] = targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets |= {a.name if a.name in modules else "__init__" for a in node.names}
    assert {"tables", "entropy"} <= graph["counting"]
    # bounds needs nothing of counting, so counting can load lazily where it is used
    assert "counting" not in graph["bounds"]
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail("import cycle: " + " -> ".join(reversed(err.args[1])))
