"""Tests for the command-line interface: outputs, determinism, config
precedence, schemas, and exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import noisedist.bounds
import noisedist.cli
import noisedist.entropy
import noisedist.tables
from noisedist import (
    SIGMA_Y,
    SIGMA_Z,
    CorrectionMap,
    NoiseDistError,
    ProjectiveInstrument,
    disturbance,
    noise,
    optimal_correction,
    polar_observable,
)
from noisedist.cli import (
    COMMANDS,
    DEFAULT_THETA_SPEC,
    ENV_OUTDIR,
    EXIT_VERIFY_FAILED,
    MAX_SURFACE_CELLS,
    MAX_THETA_POINTS,
    MAX_TRIALS,
    SWEEP_CSV_HEADER,
    main,
    parse_theta_spec,
)
from noisedist.counting import MAX_SHOTS
from scalar_reference import counts_from_json

H_SIN45 = 0.6008760366928561
H_HALF = 0.81127812445913286
H_SIN50 = 0.52061073185482543

PAPER_GRID = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 120, 140, 160, 180]


def schema(name):
    path = resources.files("noisedist") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def run_ok(argv):
    assert main(argv) == 0


def run_usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


class TestThetaSpec:
    def test_default_grid_is_the_standard_one(self):
        assert parse_theta_spec(DEFAULT_THETA_SPEC).tolist() == [float(t) for t in PAPER_GRID]

    def test_mixed_values_and_ranges(self):
        assert parse_theta_spec("5, 0:20:10, 45").tolist() == [5.0, 0.0, 10.0, 20.0, 45.0]

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            parse_theta_spec("0:90")
        with pytest.raises(ValueError):
            parse_theta_spec("0:90:-10")
        with pytest.raises(ValueError):
            parse_theta_spec("90:0:10")
        with pytest.raises(ValueError):
            parse_theta_spec("0:inf:1")
        with pytest.raises(ValueError):
            parse_theta_spec("nan:90:10")

    def test_point_cap_is_exact(self):
        assert len(parse_theta_spec(f"0:{MAX_THETA_POINTS - 1}:1")) == MAX_THETA_POINTS
        with pytest.raises(ValueError, match="exceeds"):
            parse_theta_spec(f"0:{MAX_THETA_POINTS}:1")
        with pytest.raises(ValueError, match="exceeds"):
            parse_theta_spec(f"5,0:{MAX_THETA_POINTS - 1}:1")

    def test_overflowing_range_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            parse_theta_spec("-1e308:1e308:1e-300")

    def test_grid_is_held_as_one_float64_array(self):
        # 900,001 points take 7.2 MB as float64; as a list of Python floats
        # they took 29.1 MB
        tracemalloc.start()
        try:
            grid = parse_theta_spec("0:180:0.0002")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.dtype == np.float64 and grid.size == 900_001
        assert peak < 1.5 * grid.nbytes and held < 1.1 * grid.nbytes


class TestSweep:
    def test_default_analytic_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(PAPER_GRID)
        row0 = lines[1].split(",")
        assert [row0[0], row0[1], row0[2], row0[3]] == ["0.0", "0.0", "1.0", "1.0"]
        assert row0[6] == "true" and row0[7] == "true"

    def test_45_degree_row_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--theta", "45", "--out", str(out)])
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(H_SIN45, abs=1e-12)
        assert float(row[2]) == pytest.approx(H_HALF, abs=1e-12)
        assert float(row[3]) == pytest.approx(H_SIN45, abs=1e-12)
        assert float(row[5]) == pytest.approx(1.0, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--mode", "multinomial", "--shots", "20000", "--seed", "11"]
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_sampled_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(["sweep", "--theta", "45", "--mode", "multinomial", "--shots", "20000",
                "--seed", "1", "--out", str(a)])
        run_ok(["sweep", "--theta", "45", "--mode", "multinomial", "--shots", "20000",
                "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_json_output_validates_schema(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_ok(["sweep", "--theta", "0:90:30", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema("sweep"))
        assert len(payload["rows"]) == 4

    def test_custom_correction_equals_optimal_at_its_argmin(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(["sweep", "--theta", "50", "--correction", "custom", "--target", "90,90",
                "--out", str(a)])
        run_ok(["sweep", "--theta", "50", "--correction", "optimal", "--out", str(b)])
        dcorr_custom = float(a.read_text().strip().split("\n")[1].split(",")[3])
        dcorr_opt = float(b.read_text().strip().split("\n")[1].split(",")[3])
        assert dcorr_custom == pytest.approx(dcorr_opt, abs=1e-12)
        assert dcorr_opt == pytest.approx(H_SIN50, abs=1e-12)

    @pytest.mark.parametrize("mode", [[], ["--mode", "multinomial", "--shots", "1000",
                                           "--seed", "4"]], ids=["analytic", "multinomial"])
    def test_rows_follow_the_theta_order_with_repeats(self, mode, tmp_path):
        # a sampled stream belongs to a (configuration, seed) pair, not to a row
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--theta", "50,10,50", "--out", str(out)] + mode)
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["50.0", "10.0", "50.0"]
        assert rows[0] == rows[2] != rows[1]

    @given(thetas_deg=st.lists(st.floats(0.0, 180.0), max_size=8),
           correction=st.sampled_from(["none", "optimal", "custom"]),
           target=st.tuples(st.floats(0.0, 180.0), st.floats(-180.0, 360.0)))
    @settings(max_examples=150, deadline=None)
    def test_analytic_sweep_equals_the_scalar_object_path(self, thetas_deg, correction,
                                                          target):
        thetas_deg = [0.0, 90.0, 180.0] + thetas_deg
        argv = ["sweep", "--theta", ",".join(map(repr, thetas_deg)),
                "--correction", correction, "--format", "json"]
        if correction == "custom":
            argv += ["--target", ",".join(map(repr, target))]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            run_ok(argv)
        rows = json.loads(stdout.getvalue())["rows"]
        for theta_deg, row in zip(thetas_deg, rows, strict=True):
            m = polar_observable(math.radians(theta_deg))
            inst = ProjectiveInstrument(m)
            post = {"none": None,
                    "optimal": optimal_correction(m),
                    "custom": CorrectionMap.from_rotation_angles(*map(math.radians, target)),
                    }[correction]
            assert (row["theta_deg"], row["N"], row["D0"], row["Dcorr"]) == (
                theta_deg, noise(inst, SIGMA_Z), disturbance(inst, SIGMA_Y),
                disturbance(inst, SIGMA_Y, post))

    def test_correction_none_duplicates_d0(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--theta", "45", "--correction", "none", "--out", str(out)])
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[2] == row[3]

    def test_usage_errors(self):
        run_usage_error(["sweep", "--mode", "quantum"])
        run_usage_error(["sweep", "--theta", "0:90"])
        run_usage_error(["sweep", "--theta", " "])
        run_usage_error(["sweep", "--correction", "custom"])  # missing --target
        run_usage_error(["sweep", "--shots", "0"])
        run_usage_error(["sweep", "--seed", "-3"])

    def test_negative_tolerance_rejected(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_usage_error(["sweep", "--theta", "45", "--tolerance", "-1", "--out", str(out)])
        assert not out.exists()
        run_ok(["sweep", "--theta", "45", "--tolerance", "0", "--out", str(out)])
        assert out.exists()

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_empty_table_writes_no_file(self, seed, tmp_path):
        # seed 0 meets an empty table, 1 and 2 an empty input row
        out = tmp_path / "sweep.csv"
        run_usage_error(["sweep", "--mode", "poisson", "--shots", "1", "--theta", "0:180:10",
                         "--seed", seed, "--out", str(out)])
        assert not out.exists()

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        run_usage_error(["sweep", "--theta", "45", "--out", str(blocker / "sub" / "y.csv")])


class TestConfigPrecedence:
    def test_config_supplies_defaults_and_cli_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep settings\nmode = multinomial\nshots = 5000\nseed = 9\n")
        out1 = tmp_path / "one.csv"
        run_ok(["sweep", "--theta", "45", "--config", str(cfg), "--out", str(out1)])
        out2 = tmp_path / "two.csv"
        run_ok(["sweep", "--theta", "45", "--config", str(cfg), "--mode", "analytic",
                "--out", str(out2)])
        sampled = float(out1.read_text().strip().split("\n")[1].split(",")[1])
        analytic = float(out2.read_text().strip().split("\n")[1].split(",")[1])
        assert analytic == pytest.approx(H_SIN45, abs=1e-12)
        assert sampled != analytic  # counting noise present under the config mode

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelength = 2.02\n")
        run_usage_error(["sweep", "--config", str(cfg)])

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        run_usage_error(["sweep", "--config", str(cfg)])

    def test_unparseable_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shots = many\n")
        run_usage_error(["sweep", "--config", str(cfg)])


# A small value for every option of every command; "table.out" lands in
# the temporary directory through NOISEDIST_OUTDIR.
CONFIG_VALUES = {
    "sweep": {"theta": "10,50", "shots": "2000", "mode": "multinomial",
              "correction": "custom", "target": "30,60", "seed": "3", "tolerance": "0.5",
              "out": "table.out", "format": "json"},
    "correct-search": {"theta_m": "30", "grid": "45,90", "out": "table.out",
                       "format": "json"},
    "boundary": {"samples": "5", "out": "table.out", "format": "json"},
    "simulate": {"theta": "30", "family": "A", "shots": "1000", "mode": "poisson",
                 "correction": "custom", "target": "20,70", "seed": "3", "efficiency": "0.8",
                 "out": "table.out", "format": "json"},
    "verify": {"trials": "0", "shots": "10000", "seed": "2", "perturb_disturbance": "0.05"},
}


@pytest.mark.parametrize("command,key", [
    (command, option.name) for command, (_, options) in COMMANDS.items() for option in options
])
def test_every_option_reads_the_same_from_a_config_file(
        command, key, tmp_path, monkeypatch, capsys):
    assert set(CONFIG_VALUES[command]) == {option.name for option in COMMANDS[command][1]}
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {CONFIG_VALUES[command][key]}\n")

    def run(given):
        argv = [command]
        for name, value in CONFIG_VALUES[command].items():
            if name in given:
                argv += [f"--{name.replace('_', '-')}", value]
        if key not in given:
            argv += ["--config", str(cfg)]
        code = main(argv)
        out_file = tmp_path / "table.out"
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return code, capsys.readouterr().out, written

    every = set(CONFIG_VALUES[command])
    assert run(every - {key}) == run(every)


class TestOutDirEnv:
    def test_relative_out_lands_in_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
        run_ok(["boundary", "--samples", "3", "--out", "curve.csv"])
        assert (tmp_path / "curve.csv").exists()

    def test_absolute_out_ignores_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        run_ok(["boundary", "--samples", "3", "--out", str(target)])
        assert target.exists()


class TestCorrectSearch:
    def test_default_reproduces_published_argmin(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        run_ok(["correct-search", "--out", str(out)])
        captured = capsys.readouterr()
        assert "argmin vartheta=90 deg phi=90 deg" in captured.err
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "vartheta_deg,phi_deg,D"
        assert len(lines) == 1 + 9 * 9

    def test_refined_grid_minimum(self, tmp_path):
        out = tmp_path / "surface.json"
        run_ok(["correct-search", "--grid", "1", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema("surface"))
        assert payload["argmin"]["vartheta_deg"] == 90.0
        assert payload["argmin"]["phi_deg"] == 90.0
        assert abs(payload["argmin"]["D"] - H_SIN50) < 1e-6
        assert len(payload["surface"]) == 181 * 181

    def test_measuring_b_directly_reaches_zero(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        run_ok(["correct-search", "--theta-m", "90", "--out", str(out)])
        captured = capsys.readouterr()
        assert "argmin vartheta=90 deg phi=90 deg, D_min=0.0" in captured.err

    def test_anisotropic_grid(self, tmp_path):
        out = tmp_path / "surface.csv"
        run_ok(["correct-search", "--grid", "45,90", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 5 * 3

    def test_invalid_grid(self):
        run_usage_error(["correct-search", "--grid", "0"])
        run_usage_error(["correct-search", "--grid", "-5"])
        run_usage_error(["correct-search", "--grid", "a,b"])
        run_usage_error(["correct-search", "--grid", "nan"])
        run_usage_error(["correct-search", "--grid", "inf,10"])


class TestBoundary:
    def test_endpoints_and_tight_diagnostics(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(["boundary", "--samples", "91", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta_deg,N,D,mu_line_D,tight_value"
        assert lines[1].split(",")[:3] == ["0.0", "0.0", "1.0"]
        assert lines[-1].split(",")[:3] == ["90.0", "1.0", "0.0"]
        for line in lines[1:]:
            assert abs(float(line.split(",")[4]) - 1.0) <= 1e-9

    def test_json_validates_schema(self, tmp_path):
        out = tmp_path / "curve.json"
        run_ok(["boundary", "--samples", "7", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema("boundary"))

    def test_cross_command_consistency_at_45(self, tmp_path):
        curve_out = tmp_path / "curve.csv"
        sweep_out = tmp_path / "sweep.csv"
        run_ok(["boundary", "--samples", "91", "--out", str(curve_out)])
        run_ok(["sweep", "--theta", "45", "--out", str(sweep_out)])
        curve_rows = [ln.split(",") for ln in curve_out.read_text().strip().split("\n")[1:]]
        row45 = next(r for r in curve_rows if float(r[0]) == 45.0)
        sweep_row = sweep_out.read_text().strip().split("\n")[1].split(",")
        assert float(row45[1]) == pytest.approx(float(sweep_row[1]), abs=1e-12)
        assert float(row45[2]) == pytest.approx(float(sweep_row[3]), abs=1e-12)

    def test_sample_validation(self):
        run_usage_error(["boundary", "--samples", "1"])


class TestSimulate:
    def test_csv_deterministic(self, tmp_path):
        argv = ["simulate", "--theta", "50", "--family", "B", "--shots", "1000",
                "--seed", "5", "--mode", "multinomial"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("family,input,mu,beta_prime,count\n")

    def test_json_validates_schema_and_round_trips(self, tmp_path):
        out = tmp_path / "table.json"
        run_ok(["simulate", "--theta", "50", "--family", "B", "--shots", "1000",
                "--seed", "5", "--mode", "multinomial", "--correction", "optimal",
                "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema("intensities"))
        assert payload["family"] == "B" and payload["correction"] == "optimal"
        assert counts_from_json(out.read_text()).sum() == 2000.0

    def test_exact_optimal_disturbance_channel(self, tmp_path):
        out = tmp_path / "table.json"
        run_ok(["simulate", "--theta", "50", "--family", "B", "--shots", "1000000",
                "--mode", "exact", "--correction", "optimal", "--format", "json",
                "--out", str(out)])
        counts = counts_from_json(out.read_text())
        # p(beta'|beta) = (1 + beta' beta sin(50 deg))/2 for the corrected chain
        p = counts[0].sum(axis=0)[0] / counts[0].sum()
        assert p == pytest.approx((1 + math.sin(math.radians(50.0))) / 2, abs=1e-12)

    def test_theta_label_keeps_the_sign_of_the_axis(self, tmp_path):
        # +-30 degrees are different axes with different counts
        labels = {}
        for theta in ("30", "-30", "200"):
            out = tmp_path / f"{theta}.json"
            run_ok(["simulate", "--theta", theta, "--mode", "exact", "--shots", "100",
                    "--format", "json", "--out", str(out)])
            labels[theta] = json.loads(out.read_text())["theta_deg"]
        assert labels["30"] == pytest.approx(30.0, abs=1e-12)
        assert labels["-30"] == pytest.approx(-30.0, abs=1e-12)
        assert labels["200"] == pytest.approx(-160.0, abs=1e-12)

    def test_validation(self):
        run_usage_error(["simulate", "--family", "Q"])
        run_usage_error(["simulate", "--efficiency", "0"])
        run_usage_error(["simulate", "--mode", "analytic"])  # analytic is sweep-only


class TestVerify:
    def test_fast_battery_passes(self, capsys):
        assert main(["verify", "--trials", "2000", "--shots", "20000"]) == 0
        captured = capsys.readouterr()
        assert "verification: PASS" in captured.out
        assert "FAIL" not in captured.out

    def test_perturbation_is_caught(self, capsys):
        assert main(["verify", "--trials", "0", "--shots", "20000",
                     "--perturb-disturbance", "0.05"]) == 1
        captured = capsys.readouterr()
        assert "FAIL  general-bound" in captured.out
        assert "FAIL  tight-saturation" in captured.out

    def test_zero_trials_skips_oracle(self, capsys):
        assert main(["verify", "--trials", "0", "--shots", "20000"]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        assert "ensemble-oracle" not in captured.out

    def test_ill_conditioned_roundtrip_is_not_a_failure(self, capsys):
        # seed 517086 draws x = 1.75e-7, where h is so flat that rounding h(x)
        # to a double alone moves g by 3.5e-10
        assert main(["verify", "--seed", "517086", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS  entropy-roundtrip    max|g(h(x))-x|=3.490e-10 over" in out

    # each gated oracle report field, at a value just outside its gate
    OUT_OF_RANGE = {"min_single_member_distance": -1e-8, "max_member_noise_increase": 1e-9,
                    "max_projection_disturbance_shift": 1e-9, "min_entropy_sum": 1.0 - 1e-9}

    @pytest.mark.parametrize("field", OUT_OF_RANGE)
    def test_a_gated_field_out_of_range_fails_the_oracle(self, field, monkeypatch, capsys):
        real = noisedist.cli.ensemble_boundary_oracle

        def broken(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), **{field: self.OUT_OF_RANGE[field]})

        monkeypatch.setattr(noisedist.cli, "ensemble_boundary_oracle", broken)
        assert main(["verify", "--trials", "500", "--shots", "20000"]) == 1
        captured = capsys.readouterr()
        assert "FAIL  ensemble-oracle" in captured.out
        if field == "min_entropy_sum":
            assert "min N*+D* = 1.0000 bits" in captured.err

    def test_unconverged_inverse_fails_roundtrip(self, monkeypatch, capsys):
        monkeypatch.setattr(noisedist.entropy, "_NEWTON_STEPS", 2)
        assert main(["verify", "--seed", "517086", "--trials", "0", "--shots", "20000"]) == 1
        assert "FAIL  entropy-roundtrip" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta", "nan"],
    ["sweep", "--theta", "inf"],
    ["sweep", "--tolerance", "nan"],
    ["sweep", "--correction", "custom", "--target", "nan,0"],
    ["correct-search", "--theta-m", "nan"],
    ["simulate", "--theta", "nan", "--mode", "exact"],
], ids=" ".join)
def test_non_finite_number_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    run_usage_error(argv + ["--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta", "0:180:5", "--correction", "none"],
    ["sweep", "--theta", "0:90:15", "--mode", "multinomial", "--shots", "2000"],
    ["boundary", "--samples", "500", "--format", "json"],
], ids=" ".join)
def test_one_inverse_entropy_call_per_command(argv, tmp_path, monkeypatch):
    import noisedist.bounds
    import noisedist.cli

    calls = []
    real = noisedist.bounds._entropy_inverse

    def counted(y):
        calls.append(np.size(y))
        return real(y)

    # bounds reaches the inverse through the private kernel, cli through the public name
    monkeypatch.setattr(noisedist.bounds, "_entropy_inverse", counted)
    monkeypatch.setattr(noisedist.cli, "binary_entropy_inverse", counted)
    run_ok(argv + ["--out", str(tmp_path / "out")])
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta", "0:180:0.25", "--correction", "none"],
    ["sweep", "--theta", "0:180:0.25"],
    ["sweep", "--theta", "0:180:0.25", "--correction", "custom", "--target", "30,60"],
    ["verify", "--trials", "0", "--shots", "10000"],
], ids=["sweep-none", "sweep-optimal", "sweep-custom", "verify"])
def test_analytic_pipeline_makes_one_kernel_call_per_quantity(argv, monkeypatch, capsys):
    # D0 and Dcorr come from one disturbance_bits call over both target pairs
    seen = {"noise_bits": 0, "disturbance_bits": 0}
    for name in seen:
        def counted(*args, _real=getattr(noisedist.cli, name), _name=name):
            seen[_name] += 1
            return _real(*args)
        monkeypatch.setattr(noisedist.cli, name, counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == {"noise_bits": 1, "disturbance_bits": 1}


@pytest.mark.parametrize("argv,families", [
    (["sweep", "--theta", "0:180:15", "--mode", "multinomial", "--shots", "2000"], "ABB"),
    (["sweep", "--theta", "0:180:15", "--mode", "poisson", "--correction", "none"], "AB"),
    (["sweep", "--theta", "5,50", "--mode", "poisson", "--correction", "custom",
      "--target", "30,60"], "ABB"),
], ids=["sweep-optimal", "sweep-none", "sweep-custom"])
def test_sampled_sweep_makes_one_estimator_call(argv, families, monkeypatch, capsys):
    calls = []
    real = noisedist.cli._input_entropy_given_out

    def counted(counts, fams):
        calls.append((np.shape(counts), fams))
        return real(counts, fams)

    monkeypatch.setattr(noisedist.cli, "_input_entropy_given_out", counted)
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert calls == [((len(rows), len(families), 2, 2, 2), families)]


@pytest.mark.parametrize("argv,draws", [
    (["sweep", "--theta", "0:180:15", "--mode", "multinomial", "--shots", "2000"],
     [([0], "ABB", 13)]),
    (["sweep", "--theta", "5,50", "--mode", "poisson", "--correction", "none", "--seed", "9"],
     [([9], "AB", 2)]),
    (["verify", "--trials", "0", "--shots", "2000", "--seed", "7"],
     [([0], "ABB", 15), ([7, 8, 9], "AB", 15)]),
], ids=["sweep-optimal", "sweep-none", "verify"])
def test_every_table_of_a_command_is_drawn_in_one_pass(argv, draws, monkeypatch, capsys):
    # one _draw_counts call each for a sampled sweep and for the exact and
    # sampled estimator checks of verify, and no table drawn on its own
    calls = []
    real = noisedist.cli._draw_counts

    def counted(seeds, families, axes, *args):
        calls.append((list(seeds), families, len(axes)))
        return real(seeds, families, axes, *args)

    monkeypatch.setattr(noisedist.cli, "_draw_counts", counted)
    monkeypatch.setattr(noisedist.cli, "simulate_intensities", _must_not_run)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == draws


def test_unknown_command_is_usage_error():
    run_usage_error(["polarize"])


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


# ------------------------------------------------------------- argv reader


def _value(option):
    """A value of the option's type that its parser accepts."""
    if option.choices:
        return option.choices[-1]
    return {int: "3", float: "2.5"}.get(option.type, "1,2")


def _prefix(flag, flags):
    """The shortest prefix of `flag` that no other flag starts with, or None
    when only the whole flag is unambiguous."""
    for end in range(3, len(flag)):
        if not any(other.startswith(flag[:end]) for other in flags if other != flag):
            return flag[:end]
    return None


def _parse_cases():
    """argv of each command alone, and with each of its options given as
    `--flag value`, `--flag=value` and a prefix (where one exists)."""
    cases = [[command] for command in COMMANDS]
    for command, (_, options) in COMMANDS.items():
        given = [("--config", "run.cfg")]
        given += [(noisedist.cli._flag(o.name), _value(o)) for o in options]
        flags = ["--help"] + [flag for flag, _ in given]
        for flag, value in given:
            cases += [[command, flag, value], [command, f"{flag}={value}"]]
            prefix = _prefix(flag, flags)
            if prefix:
                cases.append([command, prefix, value])
    return cases


PARSE_CASES = _parse_cases()
FULL_FLAGS = {"--config"} | {noisedist.cli._flag(o.name)
                             for _, options in COMMANDS.values() for o in options}


def _is_prefix_case(argv):
    return len(argv) == 3 and argv[1] not in FULL_FLAGS


def _by_repr(namespace):
    """The attributes of a namespace by repr, so that NaN equals NaN."""
    return {name: repr(value) for name, value in vars(namespace).items()}


def _full_parse(argv):
    """build_parser().parse_args(argv) by repr, or None where it exits."""
    try:
        return _by_repr(noisedist.cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


def _assert_reads_as_the_full_parser(argv):
    """_read_args(argv) is None, or the full parser's namespace."""
    read = noisedist.cli._read_args(argv)
    if read is not None:
        assert _by_repr(read) == _full_parse(argv)


def test_every_flag_is_also_given_as_a_prefix():
    prefixed = [argv for argv in PARSE_CASES if _is_prefix_case(argv)]
    assert len(prefixed) == sum(len(options) + 1 for _, options in COMMANDS.values())


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_command_parser_reads_argv_as_the_full_parser(argv):
    read = noisedist.cli._read_args(argv)
    if _is_prefix_case(argv):
        assert read is None
    else:
        assert read is not None and _by_repr(read) == _full_parse(argv)


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1", "--seed", "2"],
    ["sweep", "--seed=1", "--seed", "1"],
    ["sweep", "--", "--theta", "10"],
    ["sweep", "--theta", "10", "--"],
    ["sweep", "--theta", "--"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--theta", "-5"],
    ["sweep", "--theta=-5"],
    ["sweep", "--theta", ""],
    ["sweep", "--theta="],
    ["sweep", "--shots="],
    ["sweep", "--theta", "10", "--seed"],
    ["sweep", "--theta"],
    ["sweep", "-h"],
    ["sweep", "--help"],
    ["sweep", "--version"],
    ["-h"],
    ["--version"],
    [],
    ["swee"],
    ["boundary", "extra"],
    ["sweep", "--bogus", "1"],
    ["sweep", "--target", "x=y", "--out=a=b"],
    ["sweep", "--tolerance", "nan", "--theta", "nan"],
    ["verify", "--shots", "1e3"],
    ["verify", "--trials", " 7 ", "--perturb-disturbance", "1e3"],
], ids=repr)
def test_reader_falls_back_or_matches_the_full_parser(argv):
    _assert_reads_as_the_full_parser(argv)


READER_VALUES = ["", "-3", "nan", "--", "1e3", "x=y", "0:90:10", "7", "2.5", "-", "json",
                 "custom", "10,50", " 4 ", "-h", "A"]


@st.composite
def _argv(draw):
    """A command (or a stray word), then distinct flags of that command, each
    as `--flag value` or `--flag=value` with a value from READER_VALUES or
    one its type takes, and at most one stray token among them: a repeated
    flag, a prefix, -h, --, --version, a positional or a flag without a
    value."""
    command = draw(st.sampled_from([*COMMANDS, "bogus", "--help"]))
    options = COMMANDS.get(command, ("", ()))[1]
    valid = {"--config": "run.cfg"} | {noisedist.cli._flag(o.name): _value(o) for o in options}
    flags = list(valid)
    tokens = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5, unique=True)):
        value = draw(st.sampled_from(READER_VALUES) | st.just(valid[flag]))
        tokens += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    strays = flags + [f[:max(3, len(f) - 2)] for f in flags] + ["-h", "--", "--version", "extra"]
    for stray in draw(st.lists(st.sampled_from(strays), max_size=1)):
        tokens.insert(draw(st.integers(0, len(tokens))), stray)
    return [command] + tokens


@given(argv=_argv())
@settings(max_examples=300, deadline=None)
def test_reader_is_none_or_the_full_parser(argv):
    _assert_reads_as_the_full_parser(argv)


def _recorded_parsers(monkeypatch):
    """The arguments of every build_parser call main makes."""
    calls = []
    real = noisedist.cli.build_parser

    def recorder(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(noisedist.cli, "build_parser", recorder)
    return calls


@pytest.mark.parametrize("argv,code,parsers", [
    (["sweep", "--theta", "10"], 0, []),
    # an error after parsing is reported by the full parser
    (["sweep", "--theta", "nan"], 2, [()]),
    # argv the reader does not take is parsed and reported by it too
    (["sweep", "--bogus", "1"], 2, [()]),
    (["--help"], 0, [()]),
], ids=["sweep", "sweep-error", "sweep-unknown-flag", "help"])
def test_main_builds_a_parser_only_to_fall_back(argv, code, parsers, monkeypatch, capsys):
    calls = _recorded_parsers(monkeypatch)
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    capsys.readouterr()
    assert calls == parsers


def test_valid_command_does_not_import_argparse():
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from noisedist.cli import main\n"
        "assert main(['sweep', '--theta', '10,50']) == 0\n"
        "assert 'argparse' not in sys.modules\n"
        "assert main(['sweep', '--the', '10']) == 0\n"
        "assert 'argparse' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(SWEEP_CSV_HEADER) == 2


def test_csv_commands_do_not_import_json():
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from noisedist.cli import main\n"
        "assert main(['sweep', '--theta', '10,50']) == 0\n"
        "assert main(['correct-search', '--grid', '30']) == 0\n"
        "assert 'json' not in sys.modules\n"
        "assert main(['sweep', '--theta', '10,50', '--format', 'json']) == 0\n"
        "assert 'json' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(SWEEP_CSV_HEADER) == 1
    assert proc.stdout.count('"rows": [') == 1


def test_only_sampled_commands_import_numpy_random():
    # numpy.random adds 11-15 ms to an import; only a sampled draw needs it
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from noisedist.cli import main\n"
        "assert 'numpy.random' not in sys.modules\n"
        "for argv in (['sweep', '--theta', '10,50'], ['correct-search', '--grid', '30'],\n"
        "             ['boundary', '--samples', '11'], ['simulate', '--mode', 'exact']):\n"
        "    assert main(argv) == 0\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
        "assert main(['sweep', '--theta', '10,50', '--mode', 'multinomial']) == 0\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(SWEEP_CSV_HEADER) == 2


#: Values per option that keep each command to milliseconds (small shots,
#: trials and samples, coarse grids), with malformed and out-of-range ones.
#: "{tmp}" stands for a scratch directory.
ROBUST_VALUES = {
    "config": ["{tmp}/run.cfg", "{tmp}/missing.cfg"],
    "theta": ["10,50", "0:180:45", "45", "", "nan", "0:90:0", "x", "-5", "200"],
    "shots": ["1", "2", "100", "10000", "0", "-1", "many", "1e3"],
    "mode": ["analytic", "multinomial", "poisson", "exact", "bogus"],
    "correction": ["none", "optimal", "custom", "bogus"],
    "target": ["30,60", "90,90", "nan,0", "1", "", "a,b"],
    "seed": ["0", "7", str(2**40), "-1", "x"],
    "tolerance": ["0", "0.1", "-1", "nan", "1e-9"],
    "out": ["out.csv", "sub/out.json", "."],
    "format": ["csv", "json", "xml"],
    "theta_m": ["50", "0", "90", "nan", "-30", "inf"],
    "grid": ["45", "30,60", "22.5", "0", "-1", "nan", "10,x", "1e-4"],
    "samples": ["2", "91", "1000", "1", "-3", "x"],
    "family": ["A", "B", "C"],
    "efficiency": ["1", "0.6", "0", "1.5", "nan"],
    "trials": ["0", "10", "1000", "-1", str(10**7)],
    "perturb_disturbance": ["0", "0.1", "-0.1", "nan"],
}


@st.composite
def _command_line(draw):
    """A command with distinct options from ROBUST_VALUES, as `--flag value`
    or `--flag=value`, and at most one stray token: a prefix, a flag without
    a value, -h, --version, -- or a positional."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    names = ["config"] + [o.name for o in COMMANDS.get(command, ("", ()))[1]]
    chosen = draw(st.lists(st.sampled_from(names), max_size=6, unique=True))
    if command == "verify" and "trials" not in chosen:
        chosen.append("trials")  # the default of 100,000 trials takes 0.2 s
    tokens = []
    for name in chosen:
        flag, value = noisedist.cli._flag(name), draw(st.sampled_from(ROBUST_VALUES[name]))
        tokens += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    strays = ["--" + name[:3] for name in names] + ["--seed", "-h", "--version", "--", "extra"]
    for stray in draw(st.lists(st.sampled_from(strays), max_size=1)):
        tokens.insert(draw(st.integers(0, len(tokens))), stray)
    return [command] + tokens


@given(argv=_command_line())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_command_line_exits_cleanly(argv, tmp_path, monkeypatch, capsys):
    # every command line ends in exit 0, 1 or 2, never in a traceback
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
    (tmp_path / "run.cfg").write_text("seed = 3\nshots = 500\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err


def _module_cli(args):
    """`python -m noisedist.cli ARGS` at 80 columns, as a subprocess."""
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "noisedist.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _closed_reader(args, read_lines):
    """`python -m noisedist.cli ARGS` with stdout on a pipe whose reader
    reads `read_lines` lines and then closes it, as `| head` does: (exit
    code, lines read, stderr)."""
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        with subprocess.Popen([sys.executable, "-m", "noisedist.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env) as proc:
            os.close(write_end)
            lines = [reader.readline() for _ in range(read_lines)]
            reader.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    return code, lines, err


@pytest.mark.parametrize("args,first_line", [
    (["correct-search", "--grid", "1"], b"vartheta_deg,phi_deg,D\n"),
    (["correct-search", "--grid", "1", "--format", "json"], b"{\n"),
], ids=["csv", "json"])
def test_reader_that_stops_early_is_not_an_error(args, first_line):
    # about 1 MB of output, far more than a pipe buffers, so the writes meet
    # the closed pipe
    code, lines, err = _closed_reader(args, 1)
    assert lines == [first_line]
    assert code == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err.startswith("correct-search: theta_m=50 deg")


def test_closed_stdout_keeps_verify_failure_code():
    # the negative control fails its checks: exit 1 whether or not anyone
    # reads the report
    code, lines, err = _closed_reader(
        ["verify", "--trials", "0", "--seed", "4", "--perturb-disturbance", "0.05"], 0)
    assert code == EXIT_VERIFY_FAILED
    assert err == "note: ensemble-oracle section skipped (trials=0)\n"


def test_module_entry_point_reads_sys_argv(capsys):
    argv = ["sweep", "--theta", "10,50"]
    proc = _module_cli(argv)
    assert main(argv) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_module_entry_point_without_arguments():
    proc = _module_cli([])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: noisedist [-h] [--version]\n"
                                  "                 {sweep,correct-search,boundary,simulate,"
                                  "verify} ...\n")


def _must_not_run(*args, **kwargs):
    raise AssertionError("allocation or kernel reached past a size cap")


class TestSizeCaps:
    """Each cap fires before its allocation: the allocator or kernel behind it
    is patched to fail, so the giant request is never made."""

    def test_theta_grid_cap(self, tmp_path, monkeypatch):
        # parse_theta_spec would fill an array of 1e18 floats with np.arange
        monkeypatch.setattr(np, "arange", _must_not_run)
        monkeypatch.setattr(noisedist.cli, "_sweep_columns", _must_not_run)
        out = tmp_path / "out"
        run_usage_error(["sweep", "--theta", "0:1e9:1e-9", "--out", str(out)])
        run_usage_error(["sweep", "--theta", "0:1e9:1e-9", "--mode", "multinomial",
                         "--out", str(out)])
        assert not out.exists()

    def test_surface_cell_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "arange", _must_not_run)
        monkeypatch.setattr(noisedist.cli, "correction_grid_search", _must_not_run)
        monkeypatch.setattr(noisedist.bounds, "disturbance_surface", _must_not_run)
        out = tmp_path / "out"
        for grid in ("1e-4", "1e-300", "0.05", "0.1,0.001"):
            run_usage_error(["correct-search", "--grid", grid, "--out", str(out)])
        assert not out.exists()

    def test_fine_grid_stays_allowed(self, monkeypatch):
        class Reached(Exception):
            pass

        def stop(theta_m, varthetas, phis):
            raise Reached(varthetas.size * phis.size)

        monkeypatch.setattr(noisedist.cli, "correction_grid_search", stop)
        with pytest.raises(Reached) as reached:
            main(["correct-search", "--grid", "0.1"])
        assert reached.value.args[0] == 1801 * 1801 <= MAX_SURFACE_CELLS

    def test_shot_cap(self, tmp_path, monkeypatch, capsys):
        # numpy's samplers overflow above MAX_SHOTS, which used to exit 1
        monkeypatch.setattr(noisedist.cli, "simulate_intensities", _must_not_run)
        monkeypatch.setattr(noisedist.cli, "_draw_counts", _must_not_run)
        monkeypatch.setattr(noisedist.cli, "ensemble_boundary_oracle", _must_not_run)
        out = tmp_path / "out"
        for shots in (10**20, MAX_SHOTS + 1):
            for argv in (["sweep", "--mode", "multinomial", "--out", str(out)],
                         ["sweep", "--mode", "poisson", "--out", str(out)],
                         ["simulate", "--mode", "poisson", "--out", str(out)],
                         ["verify"]):
                run_usage_error(argv + ["--shots", str(shots)])
                err = capsys.readouterr().err
                assert f"--shots must be <= {MAX_SHOTS}" in err and "Traceback" not in err
        assert not out.exists()

    def test_trial_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(noisedist.cli, "simulate_intensities", _must_not_run)
        monkeypatch.setattr(noisedist.cli, "_draw_counts", _must_not_run)
        monkeypatch.setattr(noisedist.cli, "ensemble_boundary_oracle", _must_not_run)
        for trials in (10**11, MAX_TRIALS + 1):
            run_usage_error(["verify", "--trials", str(trials)])
            err = capsys.readouterr().err
            assert f"--trials must be <= {MAX_TRIALS}" in err and "Traceback" not in err

    def test_boundary_sample_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(noisedist.cli, "_boundary_blocks", _must_not_run)
        out = tmp_path / "out"
        run_usage_error(["boundary", "--samples", str(10**12), "--out", str(out)])
        run_usage_error(["boundary", "--samples", str(MAX_SURFACE_CELLS + 1), "--out", str(out)])
        assert not out.exists()


class TestOutputFile:
    def test_failed_computation_creates_no_file(self, tmp_path, monkeypatch):
        def fail(samples):
            raise NoiseDistError("kernel failed")

        monkeypatch.setattr(noisedist.cli, "_boundary_blocks", fail)
        out = tmp_path / "curve.csv"
        run_usage_error(["boundary", "--out", str(out)])
        assert not out.exists()

    # at seed 2 and 4 shots the first table with an empty input row is family
    # B's at 60 degrees, the fifth angle of this grid
    STARVED = ["sweep", "--theta", "0:180:15", "--mode", "poisson", "--shots", "4",
               "--seed", "2"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_first_block_writes_nothing(self, fmt, tmp_path, capsys):
        # one block: it is computed, and fails, before the output is opened
        out = tmp_path / "s.out"
        out.write_text("kept")
        run_usage_error(self.STARVED + ["--format", fmt, "--out", str(out)])
        assert out.read_text() == "kept"
        run_usage_error(self.STARVED + ["--format", fmt])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input row with zero counts in family B" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_later_block_removes_the_out_file(self, fmt, tmp_path, monkeypatch, capsys):
        # blocks of two angles: 0 and 15, 30 and 45 are written, 60 fails
        monkeypatch.setattr(noisedist.tables, "_BLOCK_SIZE", 2)
        out = tmp_path / "s.out"
        run_usage_error(self.STARVED + ["--format", fmt, "--out", str(out)])
        assert not out.exists()
        assert "input row with zero counts in family B" in capsys.readouterr().err

    def test_failed_later_block_keeps_the_rows_written_on_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(noisedist.tables, "_BLOCK_SIZE", 2)
        run_usage_error(self.STARVED)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "15.0", "30.0", "45.0"]

    def test_write_error_removes_partial_file(self, tmp_path, monkeypatch, capsys):
        real = noisedist.cli.write_table

        def disk_full(stream, *args, **kwargs):
            real(stream, *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(noisedist.cli, "write_table", disk_full)
        out = tmp_path / "curve.csv"
        run_usage_error(["boundary", "--samples", "5000", "--out", str(out)])
        assert not out.exists()
        err = capsys.readouterr().err
        assert "No space left on device" in err and "Traceback" not in err
