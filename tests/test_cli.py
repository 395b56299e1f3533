import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oldroydb import verification
from oldroydb.cli import main
from oldroydb.fields import SymTensorField, random_scalar, random_sym_tensor
from oldroydb.grid import TorusGrid
from oldroydb.littlewood_paley import besov_norm, build_partition, hybrid_norm
from oldroydb.snapshots import read_field, write_field

SRC = Path(__file__).resolve().parents[1] / "src"


def _config(tmp_path, **overrides):
    doc = {
        "d": 2, "n": 16, "dt": 0.05, "t_end": 0.2,
        "re": 1.0, "we": 1.0, "omega": 0.5, "alpha": 1.0,
        "init": {"kind": "random_band", "amplitude": 0.001,
                 "band": [1, 4], "seed": 0},
        "output": {"stride": 1, "dir": str(tmp_path / "out")},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _last_record(capsys):
    lines = [ln for ln in capsys.readouterr().out.strip().splitlines() if ln]
    return json.loads(lines[-1])


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["simulate", str(cfg)]) == 0
    rec = _last_record(capsys)
    assert rec["event"] == "simulated"
    out = tmp_path / "out"
    for name in ("ledger.csv", "initial_u.field", "final_u.field",
                 "initial_tau.field", "final_tau.field"):
        assert (out / name).exists()


def test_simulate_reports_t_end_as_steps_times_dt(tmp_path, capsys):
    # twenty steps of 0.05 summed one by one reach 1.0000000000000002
    cfg = _config(tmp_path, t_end=1.0)
    assert main(["simulate", str(cfg)]) == 0
    rec = _last_record(capsys)
    assert rec["steps"] == 20
    assert rec["t_end"] == rec["steps"] * 0.05 == 1.0


def test_simulate_zero_horizon(tmp_path, capsys):
    cfg = _config(tmp_path, t_end=0.0)
    assert main(["simulate", str(cfg)]) == 0
    rec = _last_record(capsys)
    assert rec["rows"] == 1


def test_simulate_outputs_bitwise_reproducible(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["simulate", str(cfg)]) == 0
    first = (tmp_path / "out" / "ledger.csv").read_bytes()
    first_u = (tmp_path / "out" / "final_u.field").read_bytes()
    assert main(["simulate", str(cfg)]) == 0
    assert (tmp_path / "out" / "ledger.csv").read_bytes() == first
    assert (tmp_path / "out" / "final_u.field").read_bytes() == first_u


def test_out_dir_env_override(tmp_path, capsys, monkeypatch):
    cfg = _config(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("OLDROYD_OUT_DIR", str(override))
    assert main(["simulate", str(cfg)]) == 0
    assert (override / "ledger.csv").exists()


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["simulate", str(path)]) == 2
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    rec = _last_record(capsys)
    assert rec["event"] == "error"


@pytest.mark.parametrize("overrides", [
    {"init": 5},
    {"output": []},
    {"init": {"kind": "random_band", "band": "ab"}},
    {"init": {"kind": "random_band", "band": [4, 1]}},
    {"tend": 1.0},
    {"d": 2.7},
    {"dt": float("nan")},
    {"t_end": 0.12},
    {"dt": 10**400},
    {"init": {"kind": "random_band", "seed": -1}},
    {"s": 0.0},
    {"d": 3, "s": -1.5},
], ids=["init-not-object", "output-not-object", "band-not-numbers",
        "band-reversed", "unknown-key", "fractional-d", "nan-dt",
        "t_end-not-whole-steps", "dt-too-large-for-float", "negative-seed",
        "s-at-upper-end-2d", "s-at-lower-end-3d"])
def test_malformed_config_values_exit_2(tmp_path, capsys, overrides):
    cfg = _config(tmp_path, **overrides)
    assert main(["simulate", str(cfg)]) == 2
    rec = _last_record(capsys)
    assert rec["event"] == "error"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("period", [1e300, 1e-300])
def test_extreme_period_exits_2_without_warning(tmp_path, capsys, recwarn, period):
    # 1e300 overflowed the box volume (OverflowError traceback), 1e-300 the
    # wavenumbers (a RuntimeWarning, then an error that blamed dt)
    cfg = _config(tmp_path, n=8, t_end=0.1, period=period)
    assert main(["simulate", str(cfg)]) == 2
    rec = _last_record(capsys)
    assert rec["event"] == "error"
    assert "period" in rec["message"]
    assert not recwarn.list
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["norms", "{field}", "--s", "0", "--r", "abc"],
    ["norms", "{field}", "--s", "nan"],
    ["norms", "{field}", "--s", "1e300"],
    ["norms", "{field}", "--s", "400", "--r", "inf"],
    ["stability", "{config}", "--delta", "-1"],
    ["stability", "{config}", "--delta", "nan"],
    ["stability", "{config}", "--delta", "inf"],
    ["verify", "linear", "--seed", "-1"],
    ["bench-estimates", "all", "--samples", "0"],
    ["bench-estimates", "all", "--samples", "-3"],
    ["bench-estimates", "product_besov", "--seed", "-1"],
    ["bench-estimates", "product_hs", "--samples", "1", "--n", "64"],
    ["bench-estimates", "product_hs", "--samples", "1", "--n", "8", "--n", "8"],
], ids=["r-not-a-number", "nan-s", "huge-s", "large-s-r-inf", "negative-delta",
        "nan-delta", "inf-delta", "negative-seed", "zero-samples", "negative-samples",
        "negative-bench-seed", "one-resolution", "repeated-resolution"])
def test_bad_arguments_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("OLDROYD_OUT_DIR", str(tmp_path / "out"))
    field = tmp_path / "zero.field"
    write_field(field, SymTensorField.zero(TorusGrid(2, 16)))
    paths = {"field": str(field), "config": str(_config(tmp_path, t_end=0.1))}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert _last_record(capsys)["event"] == "error"
    assert not (tmp_path / "out").exists()


def test_norms_zero_field(tmp_path, capsys):
    grid = TorusGrid(2, 16)
    path = tmp_path / "zero.field"
    write_field(path, SymTensorField.zero(grid))
    assert main(["norms", str(path), "--s", "0", "--hybrid"]) == 0
    rec = _last_record(capsys)
    assert rec["value"] == 0.0
    assert rec["norm_kind"] == "hybrid"


def test_norms_malformed_header_exits_2(tmp_path, capsys):
    headers = ([1], {"schema": "field-v1", "kind": "scalar", "n": 16, "components": 1},
               {"schema": "field-v1", "kind": "scalar", "d": "two", "n": 16,
                "components": 1})
    for header in headers:
        path = tmp_path / "bad.field"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * (256 * 8))
        assert main(["norms", str(path), "--s", "0"]) == 2
        assert _last_record(capsys)["event"] == "error"


def test_norms_besov_inf(tmp_path, capsys, rng):
    grid = TorusGrid(2, 16)
    f = random_scalar(grid, rng, band=(1.0, 5.0))
    path = tmp_path / "f.field"
    write_field(path, f)
    assert main(["norms", str(path), "--s", "0.5", "--r", "inf"]) == 0
    rec = _last_record(capsys)
    assert rec["value"] == pytest.approx(besov_norm(f, s=0.5, r=np.inf), rel=1e-12)


@pytest.mark.parametrize("d,n,cls", [(2, 32, random_scalar), (3, 16, random_sym_tensor)])
def test_norms_hybrid_is_the_library_value(tmp_path, capsys, rng, d, n, cls):
    f = cls(TorusGrid(d, n), rng, band=(1.0, n / 3))
    path = tmp_path / "f.field"
    write_field(path, f)
    assert main(["norms", str(path), "--s", "0.25", "--hybrid"]) == 0
    rec = _last_record(capsys)
    # the snapshot stores physical samples, so compare with the field it reads back
    snap = read_field(path)
    part = build_partition(snap.grid)
    assert (rec["value"], rec["low_part"], rec["high_part"]) == hybrid_norm(snap, 0.25)
    assert rec["q_range"] == [part.q_min, part.q_max]
    assert (rec["norm_kind"], rec["p"], rec["r"]) == ("hybrid", 2.0, 1.0)


def test_norms_unsupported_p(tmp_path, capsys, rng):
    grid = TorusGrid(2, 16)
    path = tmp_path / "f.field"
    write_field(path, random_scalar(grid, rng))
    with pytest.raises(SystemExit) as exc:
        main(["norms", str(path), "--s", "0.5", "--p", "4"])
    assert exc.value.code == 2


def test_verify_passing_suite(capsys):
    assert main(["verify", "cancellation", "--seed", "7"]) == 0
    rec = _last_record(capsys)
    assert rec["suite"] == "cancellation"
    assert rec["passed"] is True
    assert rec["max_residual"] <= 1e-12


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_stability_command(tmp_path, capsys):
    cfg = _config(tmp_path, t_end=0.1)
    assert main(["stability", str(cfg), "--delta", "1e-6"]) == 0
    rec = _last_record(capsys)
    assert rec["delta"] == 1e-6
    assert "fit" in rec and "fit_tenth" in rec
    assert (tmp_path / "out" / "stability.json").exists()


def test_bench_estimates_small(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OLDROYD_OUT_DIR", str(tmp_path))
    code = main(["bench-estimates", "product_besov", "--samples", "5",
                 "--n", "16", "--n", "32"])
    rec = _last_record(capsys)
    assert code in (0, 1)  # tiny sample count is not held to the growth bar
    assert rec["resolutions"] == [16, 32]
    assert (tmp_path / "estimates.json").exists()


def test_verify_small_data_runs_the_given_seeds(capsys, monkeypatch):
    simulate = verification.simulate
    seeds = []

    def short_simulate(config):
        seeds.append(config.init.seed)
        return simulate(replace(config, n=16, t_end=0.0))

    monkeypatch.setattr(verification, "simulate", short_simulate)
    main(["verify", "small-data", "--seed", "5"])
    assert seeds == [5, 6, 7, 8, 9]
    assert _last_record(capsys)["seeds"] == seeds


@pytest.mark.parametrize("command", [["simulate"], ["stability", "--delta", "1e-6"]])
def test_divergence_event_names_the_field(tmp_path, capsys, command):
    cfg = _config(tmp_path, dt=0.1, t_end=2.0,
                  init={"amplitude": 1e4, "band": [1, 5], "seed": 1})
    assert main([command[0], str(cfg)] + command[1:]) == 3
    rec = _last_record(capsys)
    assert rec["event"] == "diverged"
    # the ledger row, or the twin experiment's distance sample, meets the
    # overflowing state one step before the step does
    want = (7, "E") if command[0] == "simulate" else (7, "distance")
    assert (rec["step"], rec["field"]) == want


def test_diverging_run_warns_nothing(tmp_path):
    # the step's finiteness checks are the one divergence contract: under
    # -W error::RuntimeWarning a numpy warning would end the run in a
    # traceback before the diverged event
    doc = verification.small_data_config(0, t_end=5.0, n=64, amplitude=400.0).to_dict()
    doc["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = "import sys; from oldroydb.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           "simulate", str(path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.stderr == ""
    assert proc.returncode == 3
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (rec["event"], rec["step"], rec["field"]) == ("diverged", 11, "nu")
    # the step's time, not a running sum (0.5499999999999999)
    assert rec["t"] == 11 * 0.05


def test_norms_takes_a_negative_s_in_exponent_form(tmp_path, capsys, rng):
    path = tmp_path / "f.field"
    write_field(path, random_scalar(TorusGrid(2, 16), rng, band=(1.0, 5.0)))
    assert main(["norms", str(path), "--s", "-1e-3"]) == 0
    assert _last_record(capsys)["s"] == -0.001


def test_stability_rejects_a_negative_delta_in_exponent_form(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OLDROYD_OUT_DIR", str(tmp_path / "out"))
    cfg = _config(tmp_path, t_end=0.1)
    assert main(["stability", str(cfg), "--delta", "-1e-3"]) == 2
    rec = _last_record(capsys)
    assert rec["event"] == "error"
    assert "delta" in rec["message"]
