"""The benchmark's three workloads.

Each workload has three parts:

* `generate(seed, out_dir)` builds every input from the seed, and computes
  whatever reference the gates need, outside the timed region;
* `run(inputs, rec)` is the timed pass: calls into the library's public
  entry points only, with every item's exception caught and kept;
* `check(inputs, out)` applies the correctness gates to one pass and returns
  a `Checked` record.

Accuracy thresholds are fixed here, not read from the library's tolerance
record, so a change cannot pass the gates by loosening a library default.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from holonomy_lab import cli, evolution, frames, phases, spin_model, sweep

TWO_PI = 2.0 * math.pi

# Accuracy gates: the library's default tolerances at the commit that
# defined the benchmark, and the limits used by its acceptance checks.
SWEEP_DEVIATION = 1e-5     # per row, |geom_phase_plus - closed form|
BERRY_ENDPOINT = 5e-3      # first row vs pi (1 + cos theta)
TRIVIAL_ENDPOINT = 1e-4    # last row vs 0 mod 2 pi
NORM_PRESERVATION = 1e-10  # trajectory norm drift
GAUGE_INVARIANCE = 1e-10   # holonomy and Berry phase vs closed form
DIAGONALITY = 1e-10        # off-diagonal effective Hamiltonian vs mu B + omega


@dataclass
class Checked:
    """Gate outcome of one pass: item counts, problems and workload stats."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)


def circular_distance(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def closed_form_phase(theta: float, eta: float) -> float:
    """pi (1 + cos(theta - alpha)) with tan(alpha) = eta sin(theta) / (1 + eta cos(theta))."""
    alpha = math.atan2(eta * math.sin(theta), 1.0 + eta * math.cos(theta))
    return (math.pi * (1.0 + math.cos(theta - alpha))) % TWO_PI


def _attempt(fn, *args, **kwargs):
    """(result, None) or (None, formatted exception); an item that raises is kept, not dropped."""
    try:
        return fn(*args, **kwargs), None
    except Exception:  # noqa: BLE001 - a raising item is a failed item
        return None, traceback.format_exc()


# --------------------------------------------------------------------------
# sweep-adiabatic: the paper's eta-interpolation curve through the CLI


class SweepAdiabatic:
    name = "sweep-adiabatic"
    points = 200
    # Sweep cost scales with sin(theta), so seeds draw theta from a narrow
    # band around the ROADMAP grid's pi/3 to keep the work per run constant.
    theta_band = 0.03

    def generate(self, seed: int, out_dir: Path) -> dict:
        offset = np.random.default_rng(seed).uniform(-self.theta_band, self.theta_band)
        theta = math.pi / 3 + (offset if seed != 0 else 0.0)
        cfg = out_dir / f"sweep-seed{seed}.cfg"
        cfg.write_text(
            f"theta = {theta!r}\n"
            "eta = 1.0\nmu = 1.0\nb_field = 1.0\nhbar = 1.0\n"
            "steps = 4096\nn_periods = 1\n"
            f"sweep.eta_min = 1e-3\nsweep.eta_max = 1e3\nsweep.points = {self.points}\n"
            "sweep.log = true\noutput.format = csv\n"
        )
        return {"theta": theta, "config": str(cfg), "csv": str(out_dir / f"sweep-seed{seed}.csv"),
                "etas": np.logspace(-3.0, 3.0, self.points), "first_csv": None}

    def run(self, inputs: dict, rec) -> dict:
        argv = ["sweep", "--config", inputs["config"], "--out", inputs["csv"], "--quiet"]
        rc, error = _attempt(cli.main, argv)
        return {"rc": rc, "error": error}

    def check(self, inputs: dict, out: dict) -> Checked:
        n = self.points
        if out["error"] is not None or out["rc"] != 0:
            return Checked(n, n, [f"cli.main returned {out['rc']}: {out['error']}"])
        text = Path(inputs["csv"]).read_text()
        if inputs["first_csv"] is None:
            inputs["first_csv"] = text
        problems = []
        if text != inputs["first_csv"]:
            problems.append("CSV bytes differ between passes")
        rows, error = _attempt(sweep.rows_from_csv, text)
        if error is not None:
            return Checked(n, n, problems + [f"CSV does not parse back: {error}"])
        if len(rows) != n or not np.allclose([r.eta for r in rows], inputs["etas"], rtol=1e-12, atol=0):
            return Checked(n, n, problems + [f"expected {n} rows on the eta grid, got {len(rows)}"])

        theta = inputs["theta"]
        failed = 0
        over_target = []
        for r in rows:
            dev = circular_distance(r.geom_phase_plus, closed_form_phase(theta, r.eta))
            over_target.append(max(dev, r.deviation_from_exact) / SWEEP_DEVIATION)
            if r.status != "ok" or not over_target[-1] <= 1.0:
                failed += 1
        if failed:
            problems.append(f"{failed} rows not ok or off the closed form by more than {SWEEP_DEVIATION}")
        values = np.unwrap([r.geom_phase_plus for r in rows])
        if np.any(np.diff(values) < -1e-12):
            problems.append("geom_phase_plus is not monotone in eta")
        lo = circular_distance(rows[0].geom_phase_plus, math.pi * (1.0 + math.cos(theta)))
        hi = circular_distance(rows[-1].geom_phase_plus, 0.0)
        if not lo <= BERRY_ENDPOINT:
            problems.append(f"adiabatic endpoint off the Berry limit by {lo:.3e}")
        if not hi <= TRIVIAL_ENDPOINT:
            problems.append(f"fast endpoint off the trivial limit by {hi:.3e}")
        stats = {
            "sweep.steps_used.sum": sum(r.steps_used for r in rows),
            "sweep.rows_failed": sum(r.status != "ok" for r in rows),
            "sweep.deviation_over_target.median": float(np.median(over_target)),
            "sweep.deviation_over_target.max": float(np.max(over_target)),
        }
        return Checked(n, failed, problems, stats)


# --------------------------------------------------------------------------
# dense-driven: few steps, large dimension


def _random_hermitian(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return h * (norm / np.linalg.norm(h, 2))


def _reference_phase(h0, h1, h2, omega: float, psi0: np.ndarray) -> float:
    """Pancharatnam phase over one period from scipy's DOP853 at rtol 1e-12.

    The dynamical phase rides along as an extra ODE component, so nothing
    here shares code with the library.
    """
    from scipy.integrate import solve_ivp

    dim = psi0.size

    def rhs(t, y):
        psi = y[:dim]
        h_psi = (h0 + h1 * math.cos(omega * t) + h2 * math.sin(omega * t)) @ psi
        return np.concatenate([-1j * h_psi, [np.vdot(psi, h_psi).real]])

    y0 = np.concatenate([psi0, [0.0]]).astype(complex)
    sol = solve_ivp(rhs, (0.0, TWO_PI / omega), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    end = sol.y[:, -1]
    return (float(np.angle(np.vdot(psi0, end[:dim]))) + float(end[dim].real)) % TWO_PI


class DenseDriven:
    name = "dense-driven"
    dims = (4, 8, 16, 32, 64)
    step_counts = (256, 1024)
    omega = 1.0
    # The midpoint rule's phase gap measured at most 0.25 dt^2 on these
    # schedules (|H| <= 2, seeds 0-11); 3 dt^2 admits any second-order rule,
    # while a first-order rule's O(dt) gap exceeds it.
    phase_bound_per_dt2 = 3.0

    def generate(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        period = TWO_PI / self.omega
        items = []
        for dim in self.dims:
            h0 = _random_hermitian(rng, dim, 1.0)
            h1 = _random_hermitian(rng, dim, 0.5)
            h2 = _random_hermitian(rng, dim, 0.5)
            w = self.omega

            def evaluate(t, h0=h0, h1=h1, h2=h2):
                return h0 + h1 * np.cos(w * t) + h2 * np.sin(w * t)

            def evaluate_many(ts, h0=h0, h1=h1, h2=h2):
                return h0 + h1 * np.cos(w * ts)[:, None, None] + h2 * np.sin(w * ts)[:, None, None]

            sched = evolution.HamiltonianSchedule(evaluate=evaluate, dim=dim, evaluate_many=evaluate_many)
            psi0 = np.ascontiguousarray(np.linalg.eigh(h0 + h1)[1][:, 0])
            ref = _reference_phase(h0, h1, h2, w, psi0)
            for steps in self.step_counts:
                grid = evolution.TimeGrid(t_end=period, steps=steps)
                items.append({"id": f"dim{dim}-steps{steps}", "schedule": sched, "psi0": psi0,
                              "grid": grid, "reference": ref})
        return {"items": items}

    def run(self, inputs: dict, rec) -> list:
        results = []
        for item in inputs["items"]:
            if rec is not None:
                rec.item = item["id"]
            traj, error = _attempt(evolution.propagate, item["schedule"], item["psi0"], item["grid"])
            report = None
            if error is None:
                report, error = _attempt(phases.noncyclic_geometric_phase, traj, item["schedule"])
            results.append((traj, report, error))
        return results

    def check(self, inputs: dict, out: list) -> Checked:
        problems = []
        for item, (traj, report, error) in zip(inputs["items"], out):
            if error is not None:
                problems.append(f"{item['id']} raised: {error}")
                continue
            drift = traj.norm_drift()
            gap = circular_distance(report.geometric, item["reference"])
            bound = self.phase_bound_per_dt2 * item["grid"].dt ** 2
            if not drift <= NORM_PRESERVATION:
                problems.append(f"{item['id']}: norm drift {drift:.3e}")
            elif not gap <= bound:
                problems.append(f"{item['id']}: phase off the reference by {gap:.3e} (bound {bound:.3e})")
        return Checked(len(out), len(problems), problems)


# --------------------------------------------------------------------------
# gauge-holonomy: the frames layer's scalar-callback path


class GaugeHolonomy:
    name = "gauge-holonomy"
    draws = 8
    steps = 2048
    heff_nodes = 64

    def generate(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        theta, eta = math.pi / 3, 1.0
        if seed != 0:
            theta = rng.uniform(math.pi / 6, math.pi / 2)
            eta = 10.0 ** rng.uniform(-1.0, 1.0)
        params = spin_model.ModelParams.from_eta(theta=theta, eta=eta)
        gauges = [frames.random_periodic_gauge(params.period, rng) for _ in range(self.draws)]
        return {
            "params": params,
            "frame": spin_model.tilted_frame(params),
            "schedule": spin_model.schedule(params),
            "gauges": gauges,
            "heff_times": np.linspace(0.0, params.period, self.heff_nodes, endpoint=False),
            "exact": closed_form_phase(theta, eta),
        }

    def _draw(self, frame, gauge):
        transformed = frames.gauge_transform(frame, gauge)
        return (frames.holonomy(transformed, 0, steps=self.steps),
                phases.adiabatic_berry_phase(transformed, 0, steps=self.steps))

    def _transport(self, frame):
        fixed = frames.parallel_transport_fix(frame, 0, steps=self.steps)
        return frames.holonomy(fixed, 0, steps=self.steps)

    def _heff(self, frame, schedule, hbar, ts):
        return [frames.eff_hamiltonian_matrix(frame, schedule, t, hbar=hbar) for t in ts]

    def run(self, inputs: dict, rec) -> dict:
        frame = inputs["frame"]
        draws = []
        for k, gauge in enumerate(inputs["gauges"]):
            if rec is not None:
                rec.item = f"draw{k}"
            draws.append(_attempt(self._draw, frame, gauge))
        if rec is not None:
            rec.item = "transport"
        transport = _attempt(self._transport, frame)
        if rec is not None:
            rec.item = "heff"
        heff = _attempt(self._heff, frame, inputs["schedule"], inputs["params"].hbar, inputs["heff_times"])
        return {"draws": draws, "transport": transport, "heff": heff}

    def check(self, inputs: dict, out: dict) -> Checked:
        target = complex(np.exp(1j * inputs["exact"]))
        problems = []
        for k, (result, error) in enumerate(out["draws"]):
            if error is not None:
                problems.append(f"draw{k} raised: {error}")
                continue
            hol, berry = result
            gap = max(abs(hol - target), circular_distance(berry, inputs["exact"]))
            if not gap <= GAUGE_INVARIANCE:
                problems.append(f"draw{k}: holonomy or Berry phase off the closed form by {gap:.3e}")
        hol, error = out["transport"]
        if error is not None:
            problems.append(f"transport raised: {error}")
        elif not abs(hol - target) <= GAUGE_INVARIANCE:
            problems.append(f"transported holonomy off the closed form by {abs(hol - target):.3e}")
        mats, error = out["heff"]
        if error is not None:
            problems.append(f"heff raised: {error}")
        else:
            p = inputs["params"]
            scale = p.magnetic_energy + p.hbar * p.omega
            off = max(max(abs(m[0, 1]), abs(m[1, 0])) for m in mats) / scale
            if not off <= DIAGONALITY:
                problems.append(f"effective Hamiltonian off-diagonal {off:.3e}")
        return Checked(len(out["draws"]) + 2, len(problems), problems)


WORKLOADS = {w.name: w for w in (SweepAdiabatic(), DenseDriven(), GaugeHolonomy())}
