"""The benchmark's span tracer (perfbench/tracing.py) patches the package
by name: every public function of its layers and the methods it lists. A
removed or renamed name it relies on breaks traced benchmark runs, so
installing and uninstalling it must keep working."""

import importlib.util
from pathlib import Path

import noisedist.bloch
import noisedist.cli
import noisedist.entropy

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys):
    tracing = _load_tracing()
    originals = {cls: dict(vars(cls)) for cls in (
        noisedist.bloch.Observable, noisedist.bloch.ProjectiveInstrument)}
    noise_bits = noisedist.entropy.noise_bits
    tracer = tracing.Tracer()
    tracer.install("noisedist")
    try:
        assert noisedist.entropy.noise_bits is not noise_bits
        tracer.enabled = True
        assert noisedist.cli.main(["sweep", "--theta", "10,50"]) == 0
        assert noisedist.cli.main(["simulate", "--mode", "exact"]) == 0
        # a prefix flag falls back to the parser
        assert noisedist.cli.main(["sweep", "--the", "10"]) == 0
        tracer.enabled = False
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert noisedist.entropy.noise_bits is noise_bits
    for cls, attrs in originals.items():
        assert dict(vars(cls)) == attrs
    names = {name for name, *_ in tracer.spans}
    assert {"cli.main", "cli.build_parser", "entropy.noise_bits",
            "counting.simulate_intensities"} <= names


def test_build_parser_offers_every_command():
    # the benchmark's setup_s times build_parser() with no arguments, and its
    # cli.parse group traces it, so it must keep building the full parser
    parser = noisedist.cli.build_parser()
    for command in ("sweep", "correct-search", "boundary", "simulate", "verify"):
        assert parser.parse_args([command]).command == command
