import errno
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from holonomy_lab import cli, config, evolution, spin_model, sweep, verify
from holonomy_lab.config import _parse_config_text, build_config
from holonomy_lab.errors import ConfigError
from holonomy_lab.phases import circular_distance
from holonomy_lab.tolerances import DEFAULT
from holonomy_lab.sweep import (
    CSV_BANNER,
    CSV_COLUMNS,
    SweepRow,
    eta_grid,
    rows_from_csv,
    rows_to_csv,
    rows_to_json,
    run_point,
    run_sweep,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, config_text=None, tmp_path=None, cwd=None):
    """The CLI in a child process, which finds the package from any working directory."""
    cmd = [sys.executable, "-m", "holonomy_lab.cli", *args]
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        cmd += ["--config", str(cfg)]
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env)


# --- config parsing ---------------------------------------------------------


def test_parse_key_value_text():
    mapping = _parse_config_text(
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
    mapping = _parse_config_text(
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


@pytest.mark.parametrize("key, value", [("theta", 5.0), ("mu", -1.0), ("b_field", math.inf), ("hbar", 0.0)])
def test_a_config_with_no_eta_still_checks_the_model_values(key, value):
    # verify reads a full run config that sets no eta, for its tolerances and
    # output path; a model value it holds is refused all the same
    with pytest.raises(ConfigError, match=f"^{key} must "):
        build_config({"theta": 1.0, key: value})


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
        ({"eta": None, "omega": 1e308, "mu": 1e-10}, r"omega = 1e[+]308: eta must be positive and finite, got inf$"),
        ({"eta": 1e300, "mu": 1e10}, r"eta = 1e[+]300: omega must be positive and finite, got inf$"),
        ({"mu": 1e10, "sweep.eta_min": 1e-3, "sweep.eta_max": 1e300, "sweep.points": 4}, "sweep.eta_max"),
        ({"n_periods": 0}, r"^n_periods must be an integer in \[1, 9007199254740992\], got 0$"),
        ({"sweep.eta_min": 1e-3, "sweep.points": 4}, r"^incomplete sweep spec, missing \['sweep.eta_max'\]$"),
    ],
)
def test_config_rejects_unbounded_values(mapping, match):
    base = {"theta": 1.0, "eta": 1.0}
    base.update(mapping)
    with pytest.raises(ConfigError, match=match):
        build_config({k: v for k, v in base.items() if v is not None})


def nested(mapping):
    """The JSON object of a flat dotted-key mapping."""
    doc = {}
    for key, value in mapping.items():
        *parents, leaf = key.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return doc


@pytest.mark.parametrize("key", ["theta", "sweep.eta_min", "tol.cyclicity"])
@pytest.mark.parametrize("form", ["key-value", "json"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_for_a_number_is_config_error(key, form, value):
    # bool is an int subclass: float(True) would read `true` as 1.0
    mapping = {"theta": 1.0, "eta": 1.0}
    if key.startswith("sweep."):
        mapping = {"theta": 1.0, "sweep.eta_min": 1e-3, "sweep.eta_max": 1.0, "sweep.points": 4}
    mapping[key] = value
    if form == "json":
        text = json.dumps(nested(mapping))
    else:
        text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in mapping.items())
    with pytest.raises(ConfigError, match=f"{key} must be a number, got {value!r}"):
        build_config(_parse_config_text(text))


@pytest.mark.parametrize("key", ["theta", "tol.cyclicity"])
@pytest.mark.parametrize("form", ["key-value", "json"])
def test_integer_past_float_range_is_config_error(tmp_path, monkeypatch, capsys, key, form):
    # float() of a 401-digit integer raises OverflowError, which used to end
    # the run as a numerical failure (exit 1)
    refuse_to_run(monkeypatch)
    mapping = {"theta": 1.0, "eta": 1.0, key: 10**400}
    if form == "json":
        text = json.dumps(nested(mapping))
    else:
        text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in mapping.items())
    with pytest.raises(ConfigError, match=f"{key} must be a number, got 1000"):
        build_config(_parse_config_text(text))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["evolve", "--config", str(cfg), "--quiet"]) == 2
    assert f"config error: {key} must be a number" in capsys.readouterr().err


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


def test_run_point_over_several_dim2_blocks_is_ok():
    # 186,764 steps: three scan blocks
    row = run_point(np.pi / 3, 1e-4)
    assert row.steps_used > 2 * evolution._SCAN_BLOCK_STEPS
    assert row.status == "ok"
    assert row.deviation_from_exact <= DEFAULT.sweep_deviation


def test_long_row_memory_guard():
    # the longest row that still propagates (1,078,302 steps, over its
    # target): the node energies are formed block by block, so no row holds
    # a node stack beside both branches' states; 148.1 MiB traced, 181.2 MiB
    # with the stack
    tracemalloc.start()
    try:
        row = run_point(np.pi / 3, 3e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (row.steps_used, row.status) == (1_078_302, "over_target")
    assert peak <= 160 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def test_row_over_target_says_so_when_its_routes_disagree(monkeypatch):
    # too few steps and an error estimate of 0, so the route check keeps its
    # default width: the row is over its target, and its routes disagree
    monkeypatch.setattr(spin_model, "steps_for_phase_tolerance", lambda *args, **kwargs: 16)
    monkeypatch.setattr(spin_model, "midpoint_phase_error_estimate", lambda *args, **kwargs: 0.0)
    (row,) = run_sweep(np.pi / 3, [1.0], base_steps=256)
    assert row.status == "over_target"
    assert row.deviation_from_exact > DEFAULT.sweep_deviation


def test_row_within_target_keeps_the_route_check(monkeypatch):
    # at eta = 10 the row meets its target, but with an error estimate of 0 its
    # 5.6e-7 route gap exceeds the check's default width
    monkeypatch.setattr(spin_model, "midpoint_phase_error_estimate", lambda *args, **kwargs: 0.0)
    with pytest.raises(ValueError, match=r"^geometric-phase routes disagree by .* rad \(allowed 6.283e-08\); "
                       r"decomposition gave .*, connection route gave "):
        run_point(np.pi / 3, 10.0, base_steps=256)


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


def test_sweep_rows_at_tiny_eta_end_as_at_1e_150(monkeypatch):
    # below eta = 1e-150 the step-error estimate passes the float range; such
    # rows take the capped step count (shrunk here, so no row runs 2^21 steps)
    # and fail the cyclicity check as eta = 1e-150 does, not with an OverflowError
    monkeypatch.setattr(spin_model, "_MAX_STEPS", 256)
    for row in run_sweep(np.pi / 3, [1e-150, 1e-200, 1e-300], base_steps=16):
        assert row.status.startswith("error: not cyclic at tolerance"), row.status


def test_sweep_does_not_swallow_bugs(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(sweep, "propagate", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(np.pi / 3, [1.0], base_steps=256)


# --- rows on two threads -----------------------------------------------------

# the digest of test_sweep_csv_bytes_are_pinned
PINNED_12_ROWS = "0ed06c4199dc2b2788c0528a3a736a968482f181193dcf198b46850aee8c4009"


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_bug_in_a_helper_row_propagates_and_no_thread_outlives_the_sweep(monkeypatch, capfd):
    two_cpus(monkeypatch)
    etas = eta_grid(1e-3, 1e3, 12)
    real_run_point = sweep.run_point
    highest_started = threading.Event()
    raised_on = []

    def run_point_with_a_bug(theta, eta, **kwargs):
        if eta == etas[-1]:
            highest_started.set()
            raised_on.append(threading.get_ident())
            raise TypeError("a bug, not a numerical failure")
        if eta == etas[0]:
            highest_started.wait(timeout=10)  # the calling thread holds its first row until the helper starts its
        return real_run_point(theta, eta, **kwargs)

    before = threading.active_count()
    assert len(run_sweep(np.pi / 3, [2.0, 0.5, 1.0], base_steps=256)) == 3
    assert threading.active_count() == before
    assert run_sweep(np.pi / 3, [1.0, -1.0], base_steps=256)[0].status.startswith("error:")
    assert threading.active_count() == before
    monkeypatch.setattr(sweep, "run_point", run_point_with_a_bug)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(np.pi / 3, etas, base_steps=4096)
    assert raised_on and raised_on[0] != threading.get_ident()
    assert threading.active_count() == before
    assert "Exception in thread" not in capfd.readouterr().err


def test_bug_in_the_calling_thread_stops_both_threads(monkeypatch):
    two_cpus(monkeypatch)
    etas = eta_grid(1e-3, 1e3, 12)
    calls = []

    def run_point_with_a_bug(theta, eta, **kwargs):
        calls.append(eta)
        if eta == etas[0]:
            raise KeyError("a bug in the first row")
        time.sleep(0.05)
        return sweep.SweepRow(eta, theta, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 16)

    monkeypatch.setattr(sweep, "run_point", run_point_with_a_bug)
    with pytest.raises(KeyError, match="first row"):
        run_sweep(np.pi / 3, etas, base_steps=16)
    # the helper ends after the row it was running when the bug was raised
    assert len(calls) <= 3


def test_rows_run_in_the_callers_context(monkeypatch):
    two_cpus(monkeypatch)
    real_run_point = sweep.run_point
    seen = {}

    def recording_run_point(theta, eta, **kwargs):
        seen[eta] = (np.geterr()["under"], threading.get_ident())
        return real_run_point(theta, eta, **kwargs)

    monkeypatch.setattr(sweep, "run_point", recording_run_point)
    etas = eta_grid(1e-3, 1e3, 12)
    with np.errstate(under="raise"):
        run_sweep(np.pi / 3, etas, base_steps=4096)
    assert sorted(seen) == sorted(float(e) for e in etas)
    assert all(under == "raise" for under, _ in seen.values())
    assert seen[float(etas[-1])][1] != threading.get_ident()


def refuse_threads(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)


def test_one_cpu_runs_every_row_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    refuse_threads(monkeypatch)
    rows = run_sweep(np.pi / 3, eta_grid(1e-3, 1e3, 12), base_steps=4096)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == PINNED_12_ROWS


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, set(range(64))])
def test_one_row_starts_no_thread(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    refuse_threads(monkeypatch)
    assert run_sweep(np.pi / 3, [1.0], base_steps=256)[0].status == "ok"


def test_cpu_count_without_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    refuse_threads(monkeypatch)
    assert [r.status for r in run_sweep(np.pi / 3, [2.0, 0.5], base_steps=256)] == ["ok", "ok"]


def test_sweep_runs_on_the_calling_thread_when_no_thread_can_start(monkeypatch):
    two_cpus(monkeypatch)
    def cannot_start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    rows = run_sweep(np.pi / 3, [2.0, 0.5, 1.0], base_steps=512)
    assert rows == [run_point(np.pi / 3, eta, base_steps=512) for eta in (0.5, 1.0, 2.0)]


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


@pytest.mark.parametrize(
    "edit, fields",
    [(lambda line: line.rsplit(",", 5)[0], 6), (lambda line: line + ",1", 12)],
    ids=["too-few-fields", "extra-field"],
)
def test_rows_from_csv_refuses_a_row_of_the_wrong_field_count(edit, fields):
    row = SweepRow(1.0, 0.5, 0.25, 1.0, 2.0, 1.0, 3.0, 1e-7, 1.0, 4096)
    lines = rows_to_csv([row, row]).splitlines()
    assert rows_from_csv("\n".join(lines)) == [row, row]
    lines[3] = edit(lines[3])
    with pytest.raises(ValueError, match=f"line 4: expected 11 fields, got {fields}"):
        rows_from_csv("\n".join(lines))


@pytest.mark.parametrize("column, raw, kind", [("steps_used", "40x96", "int"), ("eta", "abc", "float")],
                         ids=["int", "float"])
def test_rows_from_csv_names_a_field_that_does_not_parse(column, raw, kind):
    row = SweepRow(1.0, 0.5, 0.25, 1.0, 2.0, 1.0, 3.0, 1e-7, 1.0, 4096)
    lines = rows_to_csv([row, row]).splitlines()
    parts = lines[3].split(",")
    parts[CSV_COLUMNS.index(column)] = raw
    lines[3] = ",".join(parts)
    with pytest.raises(ValueError, match=f"^line 4, column {column}: cannot parse '{raw}' as {kind}$"):
        rows_from_csv("\n".join(lines))


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
        ("evolve", "theta = 1.0\neta = 1.0\noutput.path = 123\n"),
        ("evolve", "theta = 1.0\neta = 1.0\noutput.path = true\n"),
        ("sweep", "theta = 1.0\nsweep.eta_min = 0.5\nsweep.eta_max = 2.0\nsweep.points = 2\noutput.path = 123\n"),
        ("sweep", "theta = 1.0\nsweep.eta_min = 0.5\nsweep.eta_max = 2.0\nsweep.points = 2\noutput.path = true\n"),
        ("evolve", "theta = true\neta = 1.0\n"),
        ("sweep", '{"theta": 1.0, "sweep": {"eta_min": true, "eta_max": 2.0, "points": 2}}'),
    ],
    ids=[
        "theta-out-of-range", "negative-eta", "steps-not-a-number", "tolerance-not-a-number",
        "steps-over-cap", "negative-tolerance", "infinite-eta", "overflowing-eta",
        "infinite-sweep-bound", "removed-tolerance", "overflowing-omega", "overflowing-sweep-omega",
        "evolve-numeric-output-path", "evolve-boolean-output-path",
        "sweep-numeric-output-path", "sweep-boolean-output-path",
        "boolean-theta", "json-boolean-sweep-bound",
    ],
)
def test_cli_bad_config_value_is_usage_error(tmp_path, command, config_text):
    # run where a relative output path would land, which must stay empty
    res = run_cli(command, "--quiet", config_text=config_text, tmp_path=tmp_path, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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


@pytest.mark.parametrize("eta", ["1e-150", "1e-200"])
def test_cli_evolve_at_tiny_eta_is_numerical_failure_not_overflow(tmp_path, eta):
    # at eta = 1e-200 the step-error estimate used to overflow into a bare
    # "(34, 'Numerical result out of range')"; 64 steps keep the run short
    res = run_cli(
        "evolve", "--quiet", "--steps", "64",
        config_text=f"theta = 1.0\neta = {eta}\n", tmp_path=tmp_path,
    )
    assert res.returncode == 1
    assert "numerical failure: not cyclic at tolerance" in res.stderr, res.stderr


@pytest.mark.parametrize("eta", ["1e160", "1e300"])
def test_rows_past_the_square_of_omega_are_ok_as_at_1e_150(tmp_path, capsys, eta):
    # from eta = 6.8e153 omega^2 is past the float range, and the step-error
    # estimate ended the row and evolve in "(34, 'Numerical result out of
    # range')"; such a row takes the base steps and is ok, as at eta = 1e150
    row = sweep.run_point(np.pi / 3, float(eta))
    assert (row.status, row.steps_used) == ("ok", 4096)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"theta = 1.0\neta = {eta}\n")
    assert cli.main(["evolve", "--config", str(cfg), "--quiet"]) == 0, capsys.readouterr().err


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


# --- output path and per-command flags -----------------------------------------

EVOLVE_CONFIG = "theta = 1.0471975511965976\neta = 1.0\nsteps = 2048\n"
SWEEP_CONFIG = "theta = 1.0471975511965976\nsteps = 256\nsweep.eta_min = 0.5\nsweep.eta_max = 2.0\nsweep.points = 3\n"


def test_cli_sweep_with_linear_grid_from_json_string(tmp_path):
    # a JSON config may give sweep.log as the string "false": rows on np.linspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": 1.0471975511965976, "steps": 256, "sweep": {
        "eta_min": 0.5, "eta_max": 1.5, "points": 3, "log": "false"}}))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = rows_from_csv(out.read_text())
    assert [r.eta for r in rows] == list(np.linspace(0.5, 1.5, 3))
    assert [r.status for r in rows] == ["ok"] * 3


@pytest.mark.parametrize(
    "command, config_text", [("evolve", EVOLVE_CONFIG), ("sweep", SWEEP_CONFIG)], ids=["evolve", "sweep"]
)
def test_cli_writes_to_config_output_path_unless_out_flag_given(tmp_path, capsys, command, config_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text + f"output.path = {tmp_path / 'config.csv'}\n")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "flag.csv"), "--quiet"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flag.csv", "run.cfg"]
    assert cli.main([command, "--config", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


@pytest.mark.slow
def test_cli_verify_honours_full_config_output_path(tmp_path, capsys):
    target = tmp_path / "report.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EVOLVE_CONFIG + f"output.path = {target}\n")
    assert cli.main(["verify", "--quick", "--config", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert "PASS" in target.read_text() and "FAIL" not in target.read_text()


@pytest.mark.parametrize(
    "argv",
    [["evolve", "--seed", "1"], ["sweep", "--seed", "1"], ["verify", "--steps", "16"], ["verify", "--format", "json"]],
    ids=["evolve-seed", "sweep-seed", "verify-steps", "verify-format"],
)
def test_cli_unread_flag_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def refuse_to_run(monkeypatch):
    def ran(*args, **kwargs):
        pytest.fail("the command ran")

    for module, name in ((sweep, "_solve"), (sweep, "run_sweep"), (verify, "run_suite")):
        monkeypatch.setattr(module, name, ran)


@pytest.mark.parametrize("command, config_text", [("evolve", EVOLVE_CONFIG), ("sweep", SWEEP_CONFIG),
                                                  ("verify", EVOLVE_CONFIG)], ids=["evolve", "sweep", "verify"])
@pytest.mark.parametrize("via", ["--out", "output.path"])
@pytest.mark.parametrize("target, match", [("missing/out.csv", "does not exist"), (".", "is a directory")],
                         ids=["missing-directory", "directory"])
def test_cli_unwritable_output_path_is_usage_error_before_the_run(
    tmp_path, monkeypatch, capsys, command, config_text, via, target, match
):
    refuse_to_run(monkeypatch)
    out = tmp_path / target
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text + (f"output.path = {out}\n" if via == "output.path" else ""))
    argv = [command, "--config", str(cfg), "--quiet"] + (["--out", str(out)] if via == "--out" else [])
    assert cli.main(argv) == 2
    assert match in capsys.readouterr().err


def test_cli_verify_negative_seed_is_usage_error(monkeypatch, capsys):
    refuse_to_run(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_verify_reports_a_raising_check_as_failed_and_runs_the_rest(monkeypatch):
    def check_that_raises(tol, quick, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "ACCEPTANCE", (check_that_raises,))
    monkeypatch.setattr(verify, "EXTRAS", (verify.check_tilt_identity,))
    results = verify.run_suite(quick=True)
    assert [r.name for r in results] == ["check_that_raises", "tilt_identity"]
    assert not results[0].passed and np.isnan(results[0].measured) and np.isnan(results[0].threshold)
    assert results[1].passed
    lines = verify.render_report(results).splitlines()
    assert lines[0] == ("FAIL  check_that_raises            measured nan  allowed nan  "
                        "raised RuntimeError('boom')")
    assert lines[-1] == "1/2 checks passed"


def test_a_tolerance_override_reaches_every_propagation_of_verify(monkeypatch):
    # max_dim = 1 refuses the model's dim-2 states, so each check that
    # propagates the model fails when verify passes its tol on to propagate
    propagating = (verify.check_oracle_fidelity, verify.check_berry_limit, verify.check_trivial_limit,
                   verify.check_gauge_invariance, verify.check_convergence_order, verify.check_two_route,
                   verify.check_unitarity_drift)
    monkeypatch.setattr(verify, "ACCEPTANCE", propagating)
    monkeypatch.setattr(verify, "EXTRAS", ())
    results = verify.run_suite(DEFAULT.replace(max_dim=1), quick=True)
    assert len(results) == len(propagating)
    for result in results:
        assert not result.passed and "exceeds configured cap 1" in result.detail, result.line()


def triviality_rows(values, deviations, statuses):
    """SweepRows with the given geometric phases, deviations and statuses."""
    return [sweep.SweepRow(eta=float(k), theta=math.pi / 3, alpha=0.0, geom_phase_plus=v, geom_phase_minus=0.0,
                           geom_phase_exact_plus=v, berry_limit_plus=0.0, deviation_from_exact=d,
                           endpoint_fidelity=1.0, steps_used=4096, status=s)
            for k, (v, d, s) in enumerate(zip(values, deviations, statuses))]


def crafted_triviality(case):
    """40 rows (the quick grid) that pass, or that break one rule of check_sweep_triviality."""
    values = np.linspace(spin_model.berry_limit_phase(math.pi / 3, +1), 2.0 * math.pi, 40)
    deviations = np.full(40, 1e-7)
    statuses = ["ok"] * 40
    if case == "one row failed":
        statuses[7], deviations[7] = "error: crafted", math.nan
    elif case == "every row failed":
        values[:], deviations[:], statuses[:] = math.nan, math.nan, ["error: crafted"] * 40
    elif case == "jump":
        values[:20] = values[0]
        values[20:] = values[-1]
    elif case == "not monotone":
        values[20] = values[19] - 1e-9
    elif case == "deviation":
        deviations[3] = 2e-5
    elif case == "adiabatic endpoint":
        values[0] -= 0.01
    elif case == "trivial endpoint":
        values[-1] -= 1e-3
    return triviality_rows(values.tolist(), deviations.tolist(), statuses)


@pytest.mark.parametrize("case, problem", [
    ("pass", None),
    ("one row failed", "1 rows failed"),
    ("every row failed", "40 rows failed"),
    ("jump", "max adjacent jump 1.571e+00"),
    ("not monotone", "not monotone in eta"),
    ("deviation", "per-row deviation 2.000e-05"),
    ("adiabatic endpoint", "adiabatic endpoint off by 1.000e-02"),
    ("trivial endpoint", "trivial endpoint off by 1.000e-03"),
])
def test_sweep_triviality_names_each_broken_rule(monkeypatch, case, problem):
    # the warnings filter turns a RuntimeWarning into an error, as CI's verify step does
    rows = crafted_triviality(case)
    monkeypatch.setattr(sweep, "run_sweep", lambda theta, etas, base_steps, tol: rows)
    result = verify.check_sweep_triviality(DEFAULT, quick=True)
    assert result.detail == "40 rows" + ("" if problem is None else f"; {problem}")
    assert result.passed == (problem is None)
    if case == "every row failed":
        assert math.isnan(result.measured)
    else:
        assert result.measured == max(r.deviation_from_exact for r in rows if r.status == "ok")


@pytest.mark.parametrize("name", ["unitarity", "orthonormality", "norm_preservation", "gauge_invariance",
                                  "holonomy_modulus", "diagonality", "parallel_transport", "tilt_residual"])
def test_cli_verify_refuses_a_tolerance_of_a_fixed_pass_line(tmp_path, monkeypatch, capsys, name):
    # verify's pass lines are fixed, so a tol.* key that would move only one is unknown
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol.{name} = 1e-3\n")
    assert cli.main(["verify", "--config", str(cfg), "--quiet"]) == 2
    assert f"unknown tolerance 'tol.{name}'" in capsys.readouterr().err


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


def test_verify_quick_report_bytes_are_pinned(tmp_path):
    # SHA-256 of the default `verify --quick` report, which holds no wall-clock
    # text; like the sweep digests, it depends on numpy's floating-point build
    out = tmp_path / "report.txt"
    assert cli.main(["verify", "--quick", "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2998a45a37f9705902c0658e27a215562b228ff1fda51fd5681cfe0531c440c6"
    )


@pytest.mark.slow
def test_cli_verify_tolerance_override_forces_failure(tmp_path):
    # a tolerance-only config is enough for verify
    res = run_cli(
        "verify", "--quick", "--quiet",
        config_text="tol.cyclicity = 1e-20\n", tmp_path=tmp_path,
    )
    assert res.returncode == 1
    assert "FAIL" in res.stdout


# --- config text, grid bounds and output the OS refuses ------------------------


def test_readme_config_block_builds_and_names_every_key():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Config files are .*?```\n(.*?)```", readme, flags=re.S)[1]
    build_config(_parse_config_text(block))
    # a key may appear in a comment, as omega does beside eta
    named = set(re.findall(r"([\w.]+) = ", block))
    assert set(config._KEYS) <= named
    assert any(key.startswith("tol.") for key in named)


@pytest.mark.parametrize(
    "line, key, value",
    [
        ('output.path = "out#1.csv"', "output.path", "out#1.csv"),
        ("theta = 1.0  # comment", "theta", 1.0),
        ("output.path = sweep.csv  # a string; --out takes precedence", "output.path", "sweep.csv"),
        (r'output.path = "a\"#b"  # c', "output.path", 'a"#b'),
    ],
)
def test_hash_starts_a_comment_only_outside_a_json_string(line, key, value):
    assert _parse_config_text(line + "\n") == {key: value}


@pytest.mark.parametrize("line", ['output.path = "abc.csv  # note', 'output.path = abc.csv"  # note'],
                         ids=["open-quote", "close-quote"])
def test_value_with_an_unbalanced_quote_is_config_error(tmp_path, monkeypatch, capsys, line):
    # either line used to name a file with a quote (and the comment) in its name
    with pytest.raises(ConfigError, match=r"^line 2: a value with a '\"' must parse as JSON, got "):
        _parse_config_text("theta = 1.0\n" + line + "\n")
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EVOLVE_CONFIG + line + "\n", encoding="utf-8")
    assert cli.main(["evolve", "--config", str(cfg), "--quiet"]) == 2
    assert "config error: line 4: a value with a '\"' must parse as JSON" in capsys.readouterr().err


def test_quoted_output_path_with_a_hash_is_written_whole(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EVOLVE_CONFIG + f'output.path = "{tmp_path / "out#1.csv"}"\n', encoding="utf-8")
    assert cli.main(["evolve", "--config", str(cfg), "--quiet"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out#1.csv", "run.cfg"]


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, monkeypatch, capsys):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(EVOLVE_CONFIG.encode() + b"\xff\n")
    assert cli.main(["evolve", "--config", str(cfg), "--quiet"]) == 2
    assert f"config error: cannot read config file {cfg}: 'utf-8' codec" in capsys.readouterr().err


def test_cli_reads_and_writes_utf8_without_the_locale_encoding(tmp_path):
    # the second flag turns every read or write that falls back on the
    # locale's encoding into an error
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    for command, config_text in (("evolve", EVOLVE_CONFIG), ("sweep", SWEEP_CONFIG)):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("# θ = π/3\n" + config_text, encoding="utf-8")
        out = tmp_path / f"{command}.out"
        res = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "holonomy_lab.cli", command, "--config", str(cfg), "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        assert out.read_text(encoding="utf-8").startswith(CSV_BANNER)


def test_sweep_points_past_the_bound_is_config_error(tmp_path, monkeypatch, capsys):
    spec = {"theta": 1.0, "sweep.eta_min": 1e-3, "sweep.eta_max": 1e3}
    assert build_config({**spec, "sweep.points": 100_000}).sweep.points == 100_000
    with pytest.raises(ConfigError, match=r"^sweep.points must be an integer in \[2, 100000\], got 100001$"):
        build_config({**spec, "sweep.points": 100_001})
    refuse_to_run(monkeypatch)
    monkeypatch.setattr(sweep, "eta_grid", lambda *args, **kwargs: pytest.fail("the grid was built"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 1.0\nsweep.eta_min = 1e-3\nsweep.eta_max = 1e3\nsweep.points = 1000000000000\n")
    assert cli.main(["sweep", "--config", str(cfg), "--quiet"]) == 2
    assert "config error: sweep.points must be an integer in [2, 100000], got 1000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, text", [
    ("evolve", "eta", "theta = 1.0\neta = 1e-320\n"),
    ("evolve", "omega", "theta = 1.0\nomega = 1e-320\n"),
    ("sweep", "sweep.eta_min", "theta = 1.0\nsweep.eta_min = 1e-320\nsweep.eta_max = 1e-319\nsweep.points = 2\n"),
], ids=["evolve-eta", "evolve-omega", "sweep-eta_min"])
def test_a_period_past_the_float_range_is_config_error(tmp_path, monkeypatch, capsys, command, key, text):
    # the config builds the model at each eta it runs, so an omega too small
    # for a finite period 2 pi / omega is a config error before the run, not a
    # numerical failure of evolve or error rows of a sweep
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key} = 1e-320: omega = ")
    assert captured.err.endswith(" gives a period 2 pi / omega past the float range\n")


@pytest.mark.parametrize("command, key, text", [
    ("evolve", "eta", "theta = 1.0\neta = 1e-300\nn_periods = 1000000000\n"),
    ("sweep", "sweep.eta_min",
     "theta = 1.0\nsweep.eta_min = 1e-300\nsweep.eta_max = 1e-299\nsweep.points = 2\nn_periods = 1000000000\n"),
], ids=["evolve", "sweep"])
def test_a_run_length_past_the_float_range_is_config_error(tmp_path, capsys, command, key, text):
    # each period is finite, but n_periods of them are not: the config builds
    # the run's grid at each eta it runs, so this is refused before the run,
    # where evolve failed numerically and a sweep wrote error rows, with a
    # RuntimeWarning from the step model's error estimate on the way
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {key} = 1e-300: t_end must be positive and finite, got inf\n"


@pytest.mark.parametrize("log", [True, False])
def test_eta_grid_refuses_an_infinite_bound(log):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="< inf"):
            eta_grid(1e-3, math.inf, 4, log=log)


def refuse(*args, **kwargs):
    raise AssertionError("reached")


@pytest.mark.parametrize("points", [3.0, True, 1, 100_001, 10**400])
def test_eta_grid_refuses_points_before_allocating(monkeypatch, points):
    monkeypatch.setattr(np, "logspace", refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    with pytest.raises(ValueError, match=r"^points must be an integer in \[2, 100000\], got "):
        eta_grid(1e-3, 1.0, points)


@pytest.mark.parametrize("eta_min, eta_max", [(1j, 1.0), ("0.1", 1.0), (1e-3, 10**400), (None, 1.0)])
def test_eta_grid_refuses_a_bound_that_is_not_a_real(eta_min, eta_max):
    with pytest.raises(ValueError, match="^need 0 < eta_min < eta_max < inf, got "):
        eta_grid(eta_min, eta_max, 4)


@pytest.mark.parametrize("n_periods", [2.5, 0, True, np.float64(1.0)])
def test_run_point_refuses_a_period_count_before_sampling(monkeypatch, n_periods):
    monkeypatch.setattr(spin_model, "schedule", refuse)
    with pytest.raises(ValueError, match=r"^n_periods must be an integer in \[1, "):
        run_point(1.0, 1.0, n_periods=n_periods)


def test_output_name_the_os_refuses_is_usage_error_before_the_run(tmp_path, monkeypatch, capsys):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EVOLVE_CONFIG)
    out = tmp_path / ("x" * 300)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}")
    assert str(out) in err


def test_output_write_the_os_refuses_is_usage_error(tmp_path, monkeypatch, capsys):
    def disk_full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SWEEP_CONFIG)
    monkeypatch.setattr(Path, "write_text", disk_full)
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out}'\n"
