import hashlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holonomy_lab import cli, spin_model, sweep, verify
from holonomy_lab.config import build_config, parse_config_text
from holonomy_lab.errors import ConfigError
from holonomy_lab.phases import circular_distance
from holonomy_lab.sweep import (
    CSV_BANNER,
    CSV_COLUMNS,
    eta_grid,
    rows_from_csv,
    rows_to_csv,
    rows_to_json,
    run_point,
    run_sweep,
)


def run_cli(*args, config_text=None, tmp_path=None):
    cmd = [sys.executable, "-m", "holonomy_lab.cli", *args]
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        cmd += ["--config", str(cfg)]
    return subprocess.run(cmd, capture_output=True, text=True)


# --- config parsing ---------------------------------------------------------


def test_parse_key_value_text():
    mapping = parse_config_text(
        """
        # comment line
        theta = 1.0471975511965976
        eta = 1.0
        steps = 2048
        sweep.log = true
        output.format = csv
        tol.cyclicity = 1e-7
        """
    )
    assert mapping["theta"] == pytest.approx(np.pi / 3)
    assert mapping["steps"] == 2048
    assert mapping["sweep.log"] is True
    assert mapping["output.format"] == "csv"
    assert mapping["tol.cyclicity"] == 1e-7


def test_parse_json_document():
    mapping = parse_config_text(
        json.dumps({"theta": 0.5, "sweep": {"eta_min": 0.1, "eta_max": 10, "points": 5}})
    )
    assert mapping == {"theta": 0.5, "sweep.eta_min": 0.1, "sweep.eta_max": 10, "sweep.points": 5}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"theta": 1.0, "eta": 1.0, "spin": 2})
    with pytest.raises(ConfigError, match="unknown tolerance"):
        build_config({"theta": 1.0, "eta": 1.0, "tol.bogus": 1e-3})


def test_exactly_one_of_omega_eta():
    with pytest.raises(ConfigError, match="exactly one"):
        build_config({"theta": 1.0, "omega": 2.0, "eta": 1.0})
    cfg = build_config({"theta": 1.0, "omega": 3.0, "mu": 1.5, "b_field": 1.0})
    assert cfg.require_single_point() == pytest.approx(1.0)  # omega / (2 mu B)
    with pytest.raises(ConfigError, match="exactly one"):
        build_config({"theta": 1.0}).require_single_point()


def test_config_bounds():
    with pytest.raises(ConfigError, match="steps"):
        build_config({"theta": 1.0, "eta": 1.0, "steps": 8})
    with pytest.raises(ConfigError, match="points"):
        build_config({"theta": 1.0, "sweep.eta_min": 0.1, "sweep.eta_max": 1.0, "sweep.points": 1})
    with pytest.raises(ConfigError, match="eta_min"):
        build_config({"theta": 1.0, "sweep.eta_min": 2.0, "sweep.eta_max": 1.0, "sweep.points": 4})
    with pytest.raises(ConfigError, match="format"):
        build_config({"theta": 1.0, "eta": 1.0, "output.format": "xml"})
    with pytest.raises(ConfigError, match="theta"):
        build_config({"theta": 5, "eta": 1.0})
    with pytest.raises(ConfigError, match="eta"):
        build_config({"theta": 1.0, "eta": -1})
    with pytest.raises(ConfigError, match="omega"):
        build_config({"theta": 1.0, "omega": 0})
    with pytest.raises(ConfigError, match="steps"):
        build_config({"theta": 1.0, "eta": 1.0, "steps": "x"})
    with pytest.raises(ConfigError, match="tol.cyclicity"):
        build_config({"theta": 1.0, "eta": 1.0, "tol.cyclicity": "x"})
    with pytest.raises(ConfigError, match="tol.max_dim"):
        build_config({"theta": 1.0, "eta": 1.0, "tol.max_dim": 8.5})


@pytest.mark.parametrize(
    "mapping, match",
    [
        ({"steps": 1e12}, "steps"),
        ({"steps": (1 << 21) + 2}, "steps"),
        ({"tol.cyclicity": -1}, "tol.cyclicity"),
        ({"tol.two_route": 0}, "tol.two_route"),
        ({"tol.hermiticity": float("inf")}, "tol.hermiticity"),
        ({"tol.overlap_floor": float("nan")}, "tol.overlap_floor"),
        ({"tol.max_dim": 0}, "tol.max_dim"),
        ({"theta": float("nan")}, "theta"),
        ({"mu": float("inf")}, "mu"),
        ({"b_field": float("nan")}, "b_field"),
        ({"hbar": float("inf")}, "hbar"),
        ({"eta": float("inf")}, "eta"),
        ({"eta": None, "omega": float("inf")}, "omega"),
        ({"sweep.eta_min": 1e-3, "sweep.eta_max": float("inf"), "sweep.points": 4}, "sweep.eta_max"),
        ({"eta": None, "omega": 1e308, "mu": 1e-10}, "eta = omega"),
        ({"eta": 1e300, "mu": 1e10}, "omega = 2 mu b_field eta "),
        ({"mu": 1e10, "sweep.eta_min": 1e-3, "sweep.eta_max": 1e300, "sweep.points": 4}, "sweep.eta_max"),
    ],
)
def test_config_rejects_unbounded_values(mapping, match):
    base = {"theta": 1.0, "eta": 1.0}
    base.update(mapping)
    with pytest.raises(ConfigError, match=match):
        build_config({k: v for k, v in base.items() if v is not None})


def test_steps_cap_is_the_sweep_cap():
    assert build_config({"theta": 1.0, "eta": 1.0, "steps": 1 << 21}).steps == 1 << 21
    with pytest.raises(ConfigError, match="steps"):
        build_config({"theta": 1.0, "eta": 1.0}, steps=(1 << 21) + 1)
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1e-9)
    assert spin_model.steps_for_phase_tolerance(params, 1e-12) == 1 << 21


def test_tolerance_overrides_reach_record():
    cfg = build_config({"theta": 1.0, "eta": 1.0, "tol.cyclicity": 1e-5, "tol.max_dim": 8})
    tol = cfg.tolerances()
    assert tol.cyclicity == 1e-5
    assert tol.max_dim == 8


def test_cli_override_precedence():
    cfg = build_config({"theta": 1.0, "eta": 1.0, "steps": 1024}, steps=256)
    assert cfg.steps == 256


# --- sweep engine -----------------------------------------------------------


def test_run_point_matches_exact():
    row = run_point(np.pi / 3, 1.0, base_steps=1024)
    assert row.status == "ok"
    assert row.deviation_from_exact <= 1e-5
    assert row.endpoint_fidelity >= 1 - 1e-8
    assert row.steps_used >= 1024 and row.steps_used % 2 == 0
    assert row.alpha == pytest.approx(np.pi / 6, rel=1e-12)
    assert row.berry_limit_plus == pytest.approx(3 * np.pi / 2, rel=1e-12)


def test_run_point_raises_steps_in_adiabatic_regime():
    row = run_point(np.pi / 3, 1e-3, base_steps=4096)
    assert row.steps_used > 4096
    assert row.deviation_from_exact <= 1e-5


@pytest.mark.parametrize("n_periods", [2, 3])
def test_run_point_multiple_periods_matches_exact(n_periods):
    row = run_point(np.pi / 3, 0.5, base_steps=1024, n_periods=n_periods)
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=0.5)
    assert row.geom_phase_exact_plus == spin_model.geometric_phase_exact(params, +1, n_periods)
    assert row.deviation_from_exact <= 1e-5
    assert row.status == "ok"


def test_row_over_deviation_target_is_flagged(monkeypatch):
    # a step model that asks for too few steps (as at its cap) must not yield an ok row
    monkeypatch.setattr(spin_model, "steps_for_phase_tolerance", lambda *args, **kwargs: 16)
    row = run_point(np.pi / 3, 1.0, base_steps=256)
    assert row.deviation_from_exact > 1e-5
    assert row.status == "over_target"


def test_sweep_csv_bytes_are_pinned():
    # SHA-256 of this sweep's CSV since dim-2 steps took the closed-form
    # exponential; the digest depends on numpy's floating-point build
    rows = run_sweep(np.pi / 3, eta_grid(1e-3, 1e3, 12), base_steps=4096)
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == "0ed06c4199dc2b2788c0528a3a736a968482f181193dcf198b46850aee8c4009"


def test_full_default_sweep_csv_bytes_are_pinned():
    # SHA-256 of the 200-row default grid that the sweep-adiabatic benchmark
    # runs, so every one of its rows (up to 59,048 steps) is held to its bytes;
    # the digest depends on numpy's floating-point build
    rows = run_sweep(np.pi / 3, eta_grid(1e-3, 1e3, 200), base_steps=4096)
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == "3b1bcc0c17dd004713cdc402f24a7fe2d7efc4c1f9dfce21b0e6373f91a8444b"


# The same sweep's CSV at commit 6f5c38c, when dim-2 steps went through eigh
# and the scan through batched matmul
SWEEP_FIXTURE = Path(__file__).parent / "data" / "sweep_12rows_6f5c38c.csv"


def test_sweep_stays_within_round_off_of_eigh_kernel_fixture():
    # the propagator's round-off may move the phase columns by a tenth of the
    # 1e-5 row budget and the fidelity by 1e-9; nothing else may move
    old_rows = rows_from_csv(SWEEP_FIXTURE.read_text())
    new_rows = run_sweep(np.pi / 3, eta_grid(1e-3, 1e3, 12), base_steps=4096)
    assert len(new_rows) == len(old_rows) == 12
    for old, new in zip(old_rows, new_rows):
        for name in ("eta", "theta", "alpha", "geom_phase_exact_plus", "berry_limit_plus", "steps_used", "status"):
            assert getattr(new, name) == getattr(old, name), name
        assert circular_distance(new.geom_phase_plus, old.geom_phase_plus) <= 1e-6
        assert circular_distance(new.geom_phase_minus, old.geom_phase_minus) <= 1e-6
        assert abs(new.deviation_from_exact - old.deviation_from_exact) <= 1e-6
        assert abs(new.endpoint_fidelity - old.endpoint_fidelity) <= 1e-9


def test_sweep_theta_zero_all_trivial():
    rows = run_sweep(0.0, eta_grid(0.5, 2.0, 3), base_steps=256)
    for row in rows:
        assert row.status == "ok"
        assert circular_distance(row.geom_phase_plus, 0.0) <= 1e-8
        assert circular_distance(row.geom_phase_minus, 0.0) <= 1e-8


def test_sweep_rows_sorted_and_isolated():
    rows = run_sweep(np.pi / 3, [2.0, 0.5, 1.0], base_steps=512)
    assert [r.eta for r in rows] == [0.5, 1.0, 2.0]
    assert all(r.status == "ok" for r in rows)
    # rows share no state: each equals an independent single-point run
    for row in rows:
        assert row == run_point(np.pi / 3, row.eta, base_steps=512)


def test_sweep_survives_bad_row():
    rows = run_sweep(np.pi / 3, [1.0, -1.0], base_steps=256)
    by_eta = {r.eta: r for r in rows}
    assert by_eta[1.0].status == "ok"
    assert by_eta[-1.0].status.startswith("error:")
    assert np.isnan(by_eta[-1.0].geom_phase_plus)


def test_sweep_does_not_swallow_bugs(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(sweep, "propagate", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(np.pi / 3, [1.0], base_steps=256)


def test_csv_banner_header_and_roundtrip():
    rows = run_sweep(np.pi / 3, [0.5, 1.0], base_steps=512)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_BANNER == "# holonomy-lab v1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert (
        lines[1]
        == "eta,theta,alpha,geom_phase_plus,geom_phase_minus,geom_phase_exact_plus,"
        "berry_limit_plus,deviation_from_exact,endpoint_fidelity,steps_used,status"
    )
    parsed = rows_from_csv(text)
    assert parsed == rows  # exact float round-trip at 17 significant digits


def test_json_rows_parse():
    rows = [run_point(np.pi / 3, 1.0, base_steps=256)]
    doc = json.loads(rows_to_json(rows))
    assert doc["rows"][0]["eta"] == 1.0
    assert doc["rows"][0]["status"] == "ok"


# --- CLI --------------------------------------------------------------------


def test_cli_evolve_json(tmp_path):
    res = run_cli(
        "evolve",
        "--format",
        "json",
        "--quiet",
        config_text="theta = 1.0471975511965976\neta = 1.0\nsteps = 2048\n",
        tmp_path=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["model"]["eta"] == pytest.approx(1.0)
    assert doc["model"]["tilt_alpha"] == pytest.approx(np.pi / 6)
    assert doc["deviation_from_exact"] <= 1e-5
    assert doc["fidelity_vs_exact"] >= 1 - 1e-8
    report = doc["phase_report"]
    assert report["cyclic"] is True
    assert circular_distance(report["geometric"], 5.86229169994112) <= 1e-5


@pytest.mark.parametrize(
    "n_periods, fmt, digest",
    [
        (1, "json", "b83407260afe482c6a0b8629f97c53ca8d740b1d3af7529d42dbeff3f38d84d7"),
        (1, "csv", "af49b2ab0aa99257e1bbfebf38005067e9ca9772a3a50e4f34287807c2864699"),
        (3, "json", "70414ac847d53215d85c9576a4d7d187d5471b207ecdab5eaea5e32674024ca4"),
        (3, "csv", "ae12e157d9fbac4ae34a34357b683718f172d9d9b2a5afa054e937a8c87e27b9"),
    ],
    ids=["1-json", "1-csv", "3-json", "3-csv"],
)
def test_cli_evolve_bytes_are_pinned(tmp_path, n_periods, fmt, digest):
    # SHA-256 of evolve output since dim-2 steps took the closed-form
    # exponential; like the sweep digest, it depends on numpy's floating-point build
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"theta = 1.0471975511965976\neta = 0.5\nsteps = 2048\nn_periods = {n_periods}\n")
    out = tmp_path / f"out.{fmt}"
    assert cli.main(["evolve", "--config", str(cfg), "--format", fmt, "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_evolve_theta_zero_trivial(tmp_path):
    res = run_cli(
        "evolve", "--format", "json", "--quiet",
        config_text="theta = 0.0\neta = 0.5\nsteps = 1024\n", tmp_path=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert circular_distance(doc["phase_report"]["geometric"], 0.0) <= 1e-8


def test_cli_evolve_two_periods(tmp_path):
    res = run_cli(
        "evolve", "--format", "json", "--quiet",
        config_text="theta = 1.0471975511965976\neta = 1.0\nsteps = 4096\nn_periods = 2\n",
        tmp_path=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    alpha = np.pi / 6
    expected = (2 * np.pi * (1 + np.cos(np.pi / 3 - alpha))) % (2 * np.pi)
    assert circular_distance(doc["phase_report"]["geometric"], expected) <= 1e-5
    assert doc["trajectory"]["steps"] == 4096
    assert doc["trajectory"]["norm_drift"] <= 1e-10


def test_cli_evolve_csv_banner(tmp_path):
    res = run_cli(
        "evolve", "--quiet",
        config_text="theta = 0.7\neta = 2.0\nsteps = 1024\noutput.format = csv\n",
        tmp_path=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == CSV_BANNER


def test_cli_evolve_without_config_is_usage_error(tmp_path):
    res = run_cli("evolve", "--quiet")
    assert res.returncode == 2
    assert "config" in res.stderr


def test_cli_bad_config_key_is_usage_error(tmp_path):
    res = run_cli("evolve", "--quiet", config_text="theta = 1.0\nbogus = 2\n", tmp_path=tmp_path)
    assert res.returncode == 2


@pytest.mark.parametrize(
    "command, config_text",
    [
        ("evolve", "theta = 5\neta = 1.0\n"),
        ("evolve", "theta = 1.0\neta = -1\n"),
        ("evolve", "theta = 1.0\neta = 1.0\nsteps = x\n"),
        ("evolve", "theta = 1.0\neta = 1.0\ntol.cyclicity = x\n"),
        ("evolve", "theta = 1.0\neta = 1.0\nsteps = 1e12\n"),
        ("evolve", "theta = 1.0\neta = 1.0\ntol.cyclicity = -1\n"),
        ("evolve", "theta = 1.0\neta = inf\n"),
        ("evolve", "theta = 1.0\nomega = 1e308\nmu = 1e-10\n"),
        ("sweep", "theta = 1.0\nsweep.eta_min = 1e-3\nsweep.eta_max = inf\nsweep.points = 4\n"),
        ("evolve", "theta = 1.0\neta = 1.0\ntol.heff_hermiticity = 1\n"),
        ("evolve", "theta = 1.0\neta = 1e300\nmu = 1e10\n"),
        ("sweep", "theta = 1.0\nmu = 1e10\nsweep.eta_min = 1e-3\nsweep.eta_max = 1e300\nsweep.points = 4\n"),
    ],
    ids=[
        "theta-out-of-range", "negative-eta", "steps-not-a-number", "tolerance-not-a-number",
        "steps-over-cap", "negative-tolerance", "infinite-eta", "overflowing-eta",
        "infinite-sweep-bound", "removed-tolerance", "overflowing-omega", "overflowing-sweep-omega",
    ],
)
def test_cli_bad_config_value_is_usage_error(tmp_path, command, config_text):
    res = run_cli(command, "--quiet", config_text=config_text, tmp_path=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr


def test_cli_steps_flag_over_cap_is_usage_error(tmp_path):
    res = run_cli(
        "evolve", "--quiet", "--steps", str(10**12),
        config_text="theta = 1.0471975511965976\neta = 1.0\n", tmp_path=tmp_path,
    )
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "steps" in res.stderr


def test_cli_coarse_grid_is_numerical_failure(tmp_path):
    # 16 steps per period cannot hold the cyclicity tolerance
    res = run_cli(
        "evolve", "--quiet", "--steps", "16",
        config_text="theta = 1.0471975511965976\neta = 1.0\n", tmp_path=tmp_path,
    )
    assert res.returncode == 1
    assert "numerical failure" in res.stderr


def test_cli_sweep_writes_deterministic_csv(tmp_path):
    config_text = (
        "theta = 1.0471975511965976\n"
        "steps = 256\n"
        "sweep.eta_min = 0.5\nsweep.eta_max = 2.0\nsweep.points = 3\n"
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli("sweep", "--quiet", "--out", str(out), config_text=config_text, tmp_path=tmp_path)
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = rows_from_csv(outputs[0].decode())
    assert len(rows) == 3 and all(r.status == "ok" for r in rows)


def test_cli_sweep_json_format(tmp_path):
    res = run_cli(
        "sweep", "--quiet", "--format", "json",
        config_text=(
            "theta = 0.5\nsteps = 256\n"
            "sweep.eta_min = 0.5\nsweep.eta_max = 2.0\nsweep.points = 2\n"
        ),
        tmp_path=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["rows"]) == 2


def test_cli_sweep_without_spec_is_usage_error(tmp_path):
    res = run_cli("sweep", "--quiet", config_text="theta = 0.5\neta = 1.0\n", tmp_path=tmp_path)
    assert res.returncode == 2


def test_verify_checks_share_one_signature():
    for fn in verify.ACCEPTANCE + verify.EXTRAS:
        assert list(inspect.signature(fn).parameters) == ["tol", "quick", "seed"], fn.__name__


@pytest.mark.slow
def test_cli_verify_quick_deterministic_and_green(tmp_path):
    reports = []
    for _ in range(2):
        res = run_cli("verify", "--quick", "--seed", "7", "--quiet")
        assert res.returncode == 0, res.stdout + res.stderr
        reports.append(res.stdout)
    assert reports[0] == reports[1]
    assert "FAIL" not in reports[0]


@pytest.mark.slow
def test_cli_verify_tolerance_override_forces_failure(tmp_path):
    # a tolerance-only config is enough for verify
    res = run_cli(
        "verify", "--quick", "--quiet",
        config_text="tol.unitarity = 1e-20\n", tmp_path=tmp_path,
    )
    assert res.returncode == 1
    assert "FAIL" in res.stdout
