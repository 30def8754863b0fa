"""Adiabaticity sweeps over the rotating-spin model, with CSV/JSON emission.

Each row propagates both branches over one period at a given eta, extracts
the cyclic geometric phases, and compares the + branch against the closed
form. Step counts are refined per row (`steps_used`) so the deviation stays
inside the configured bound even deep in the adiabatic regime, where the
midpoint integrator's secular phase error grows like 1/eta at fixed steps.
Rows are independent; a failed row is reported through its status field and
does not stop the sweep.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import spin_model
from .evolution import TimeGrid, TrajectoryBlock, propagate
from .phases import PhaseReport, circular_distance, cyclic_geometric_phase
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "CSV_BANNER",
    "CSV_COLUMNS",
    "SweepRow",
    "run_point",
    "eta_grid",
    "run_sweep",
    "rows_to_csv",
    "csv_value",
    "rows_from_csv",
    "rows_to_json",
]

CSV_BANNER = "# holonomy-lab v1"
CSV_COLUMNS = (
    "eta",
    "theta",
    "alpha",
    "geom_phase_plus",
    "geom_phase_minus",
    "geom_phase_exact_plus",
    "berry_limit_plus",
    "deviation_from_exact",
    "endpoint_fidelity",
    "steps_used",
    "status",
)


@dataclass(frozen=True)
class SweepRow:
    eta: float
    theta: float
    alpha: float
    geom_phase_plus: float
    geom_phase_minus: float
    geom_phase_exact_plus: float
    berry_limit_plus: float
    deviation_from_exact: float
    endpoint_fidelity: float
    steps_used: int
    status: str = "ok"


def csv_value(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _solve(
    params: spin_model.ModelParams,
    branches: tuple[int, ...],
    base_steps: int,
    n_periods: int,
    deviation_target: float | None,
    tol: Tolerances,
) -> tuple[TrajectoryBlock, list[PhaseReport]]:
    """Propagate the exact initial states of `branches` as one block and report
    each branch's cyclic phase.

    `base_steps` is rounded up to even and is a floor; when
    `deviation_target` is given (sweep rows pass tol.sweep_deviation) the step
    count is raised until the estimated integrator phase error sits a factor
    3 below the target. The two-route consistency check is widened to the
    same estimate, since both effects share the secular error.
    """
    steps = base_steps + (base_steps % 2)
    if deviation_target is not None:
        steps = max(steps, spin_model.steps_for_phase_tolerance(params, deviation_target / 3.0, n_periods))
    sched = spin_model.schedule(params)
    grid = TimeGrid(t_end=n_periods * params.period, steps=steps)
    err_estimate = spin_model.midpoint_phase_error_estimate(params, steps, n_periods)
    route_tol = tol.replace(two_route=max(tol.two_route, 6.0 * err_estimate))
    psi0 = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in branches])
    trajs = propagate(sched, psi0, grid, hbar=params.hbar, tol=tol)
    node_hams = sched.sample(grid.nodes())  # shared by every branch's dynamical phase
    reports = [
        cyclic_geometric_phase(traj, node_hams, hbar=params.hbar, tol=route_tol)
        for traj in trajs
    ]
    return trajs, reports


def run_point(
    theta: float,
    eta: float,
    mu: float = 1.0,
    b_field: float = 1.0,
    hbar: float = 1.0,
    base_steps: int = 4096,
    n_periods: int = 1,
    tol: Tolerances = DEFAULT,
) -> SweepRow:
    """One sweep row: propagate both branches at eta and compare to the closed form.

    Both branches are propagated as one block through the same step
    unitaries. `base_steps` is a floor; the step count is refined against
    tol.sweep_deviation, and a row whose measured deviation still exceeds it
    (the estimate was optimistic, or the step count hit its cap) gets status
    `over_target`.
    """
    params = spin_model.ModelParams.from_eta(theta=theta, eta=eta, mu=mu, b_field=b_field, hbar=hbar)
    trajs, reports = _solve(params, (+1, -1), base_steps, n_periods, tol.sweep_deviation, tol)
    exact_end = spin_model.exact_solution(params, +1, trajs.grid.nodes()[-1:])[0]
    endpoint_fid = float(abs(np.vdot(exact_end, trajs[0].states[-1])) ** 2)

    exact_plus = spin_model.geometric_phase_exact(params, +1, n_periods)
    deviation = circular_distance(reports[0].geometric, exact_plus)
    return SweepRow(
        eta=eta,
        theta=theta,
        alpha=spin_model.tilt_angle(params).alpha,
        geom_phase_plus=reports[0].geometric,
        geom_phase_minus=reports[1].geometric,
        geom_phase_exact_plus=exact_plus,
        berry_limit_plus=spin_model.berry_limit_phase(theta, +1),
        deviation_from_exact=deviation,
        endpoint_fidelity=endpoint_fid,
        steps_used=trajs.grid.steps,
        status="over_target" if deviation > tol.sweep_deviation else "ok",
    )


def eta_grid(eta_min: float, eta_max: float, points: int, log: bool = True) -> np.ndarray:
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if not (0 < eta_min < eta_max):
        raise ValueError(f"need 0 < eta_min < eta_max, got {eta_min}, {eta_max}")
    if log:
        return np.logspace(np.log10(eta_min), np.log10(eta_max), points)
    return np.linspace(eta_min, eta_max, points)


def run_sweep(
    theta: float,
    etas,
    mu: float = 1.0,
    b_field: float = 1.0,
    hbar: float = 1.0,
    base_steps: int = 4096,
    n_periods: int = 1,
    tol: Tolerances = DEFAULT,
) -> list[SweepRow]:
    """Independent rows, ascending in eta. Row failures land in `status`.

    A row that raises ValueError (every library error) or ArithmeticError
    becomes an `error:` row; any other exception is a bug and propagates.
    """
    rows = []
    for eta in sorted(float(e) for e in np.asarray(etas)):
        try:
            rows.append(
                run_point(
                    theta,
                    eta,
                    mu=mu,
                    b_field=b_field,
                    hbar=hbar,
                    base_steps=base_steps,
                    n_periods=n_periods,
                    tol=tol,
                )
            )
        except (ValueError, ArithmeticError) as exc:  # numerical and domain failures stay in their row
            status = f"error: {exc}".replace(",", ";").replace("\n", " ")  # keep the CSV rectangular
            rows.append(
                SweepRow(
                    eta=eta,
                    theta=theta,
                    alpha=math.nan,
                    geom_phase_plus=math.nan,
                    geom_phase_minus=math.nan,
                    geom_phase_exact_plus=math.nan,
                    berry_limit_plus=math.nan,
                    deviation_from_exact=math.nan,
                    endpoint_fidelity=math.nan,
                    steps_used=base_steps,
                    status=status,
                )
            )
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Versioned CSV: banner comment, fixed column order, 17-significant-digit
    floats (value-exact on parse-back)."""
    buf = io.StringIO()
    buf.write(CSV_BANNER + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        rec = asdict(row)
        buf.write(",".join(csv_value(rec[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV columns: {header}")
    types = {f.name: f.type for f in fields(SweepRow)}
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",", maxsplit=len(CSV_COLUMNS) - 1)
        kwargs = {}
        for name, raw in zip(CSV_COLUMNS, parts):
            if types[name] == "int":
                kwargs[name] = int(raw)
            elif types[name] == "float":
                kwargs[name] = float(raw)
            else:
                kwargs[name] = raw
        rows.append(SweepRow(**kwargs))
    return rows


def rows_to_json(rows: list[SweepRow]) -> str:
    return json.dumps(
        {"format": CSV_BANNER.lstrip("# "), "rows": [asdict(r) for r in rows]},
        indent=2,
        allow_nan=True,
    )
