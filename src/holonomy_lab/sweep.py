"""Adiabaticity sweeps over the rotating-spin model, with CSV/JSON emission.

Each row propagates both branches over one period at a given eta, extracts
the cyclic geometric phases, and compares the + branch against the closed
form. Step counts are refined per row (`steps_used`) so the deviation stays
inside the configured bound even deep in the adiabatic regime, where the
midpoint integrator's secular phase error grows like 1/eta at fixed steps.
Rows are independent, and may run on two threads with identical results; a
failed row is reported through its status field and does not stop the sweep.
"""

from __future__ import annotations

import collections
import contextvars
import io
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import spin_model
from .evolution import TimeGrid, Trajectory, propagate
from .hilbert import _is_integer
from .phases import PhaseReport, _phase_reports, _require_routes_agree, circular_distance
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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


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
) -> tuple[tuple[Trajectory, ...], list[PhaseReport]]:
    """Propagate the exact initial states of `branches` as one block and report
    each branch's cyclic phase.

    `base_steps` is rounded up to even and is a floor; when
    `deviation_target` is given (sweep rows pass tol.sweep_deviation) the step
    count is raised until the estimated integrator phase error sits a factor
    3 below the target. The two-route consistency check is widened to the
    same estimate, since both effects share the secular error. It is made
    once every branch is reported, and skipped when the first branch's phase
    is off the closed form by more than `deviation_target`: that row is over
    its target, which run_point reports. A `base_steps` that is not an integer
    in [_MIN_STEPS, _MAX_STEPS] raises ValueError before anything is sampled.
    """
    if not (_is_integer(base_steps) and spin_model._MIN_STEPS <= base_steps <= spin_model._MAX_STEPS):
        raise ValueError(
            f"base_steps must be an integer in [{spin_model._MIN_STEPS}, {spin_model._MAX_STEPS}], "
            f"got {base_steps!r}"
        )
    steps = base_steps + (base_steps % 2)
    if deviation_target is not None:
        steps = max(steps, spin_model.steps_for_phase_tolerance(params, deviation_target / 3.0, n_periods))
    sched = spin_model.schedule(params)
    grid = TimeGrid(t_end=n_periods * params.period, steps=steps)
    err_estimate = spin_model.midpoint_phase_error_estimate(params, steps, n_periods)
    route_tol = tol.replace(two_route=max(tol.two_route, 6.0 * err_estimate))
    psi0 = np.stack([spin_model.exact_solution(params, branch, 0.0) for branch in branches])
    trajs = propagate(sched, psi0, grid, hbar=params.hbar, tol=tol)
    reports = _phase_reports(trajs, sched, params.hbar, tol, cyclic=True)
    if deviation_target is None or circular_distance(
        reports[0].geometric, spin_model.geometric_phase_exact(params, branches[0], n_periods)
    ) <= deviation_target:
        for traj, report in zip(trajs, reports):
            _require_routes_agree(report, traj, route_tol)
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
    unitaries. `base_steps`, an integer in [16, 2^21], is a floor; the step
    count is refined against tol.sweep_deviation, and a row whose measured
    deviation still exceeds it (the estimate was optimistic, or the step
    count hit its cap) gets status `over_target`.
    """
    params = spin_model.ModelParams.from_eta(theta=theta, eta=eta, mu=mu, b_field=b_field, hbar=hbar)
    trajs, reports = _solve(params, (+1, -1), base_steps, n_periods, tol.sweep_deviation, tol)
    exact_end = spin_model.exact_solution(params, +1, trajs[0].grid.nodes()[-1:])[0]
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
        steps_used=trajs[0].grid.steps,
        status="over_target" if deviation > tol.sweep_deviation else "ok",
    )


def eta_grid(eta_min: float, eta_max: float, points: int, log: bool = True) -> np.ndarray:
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if not (0 < eta_min < eta_max < math.inf):
        raise ValueError(f"need 0 < eta_min < eta_max < inf, got {eta_min}, {eta_max}")
    if log:
        return np.logspace(np.log10(eta_min), np.log10(eta_max), points)
    return np.linspace(eta_min, eta_max, points)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    With two rows or more, on a process that may run on two CPUs or more,
    one helper thread runs rows too: the calling thread takes rows from the
    low-eta end of one deque, which need the most steps, and the helper from
    the high-eta end, until it is empty. So two of the largest rows never run at once,
    and their buffers stay in the calling thread's malloc arena. The helper
    runs in a copy of the caller's context (np.errstate holds there too).
    Each row is computed alone, so the rows are the same on one thread or
    two. A bug in either thread stops both after their current row, and is
    raised here once the helper has ended, the calling thread's own first.
    """
    etas = sorted(float(e) for e in np.asarray(etas))
    rows: list[SweepRow | None] = [None] * len(etas)
    pending = collections.deque(range(len(etas)))  # pops from either end are thread-safe
    helper_errors: list[BaseException] = []

    def run_rows(take) -> None:
        while True:
            try:
                k = take()
            except IndexError:  # no row left
                return
            try:
                rows[k] = run_point(
                    theta,
                    etas[k],
                    mu=mu,
                    b_field=b_field,
                    hbar=hbar,
                    base_steps=base_steps,
                    n_periods=n_periods,
                    tol=tol,
                )
            except (ValueError, ArithmeticError) as exc:  # numerical and domain failures stay in their row
                rows[k] = _error_row(theta, etas[k], base_steps, exc)
            except BaseException:
                pending.clear()  # the other thread stops after its current row
                raise

    def run_helper() -> None:
        try:
            run_rows(pending.pop)
        except BaseException as exc:  # raised in the caller, never to threading.excepthook
            helper_errors.append(exc)

    helper = None
    if len(etas) >= 2 and _cpu_count() >= 2:
        helper = threading.Thread(target=contextvars.copy_context().run, args=(run_helper,))
        try:
            helper.start()
        except RuntimeError:  # no thread to be had: the calling thread runs every row
            helper = None
    try:
        run_rows(pending.popleft)
    finally:
        if helper is not None:
            helper.join()
    if helper_errors:
        raise helper_errors[0]
    return rows


def _error_row(theta: float, eta: float, base_steps: int, exc: Exception) -> SweepRow:
    """A failed row: NaN in every column but eta, theta, steps_used and status."""
    status = f"error: {exc}".replace(",", ";").replace("\n", " ")  # keep the CSV rectangular
    values = dict.fromkeys(CSV_COLUMNS, math.nan)
    values.update(eta=eta, theta=theta, steps_used=base_steps, status=status)
    return SweepRow(**values)


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
    """Rows of rows_to_csv's text. run_sweep keeps commas out of statuses, so
    a row of any other field count than the columns' raises ValueError naming
    its line, and a field that does not parse as its column's type one naming
    its line and column."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0][1].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV columns: {header}")
    types = {f.name: f.type for f in fields(SweepRow)}
    parsers = {"int": int, "float": float, "str": str}
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(parts)}")
        kwargs = {}
        for name, raw in zip(CSV_COLUMNS, parts):
            try:
                kwargs[name] = parsers[types[name]](raw)
            except ValueError:
                raise ValueError(f"line {lineno}, column {name}: cannot parse {raw!r} as "
                                 f"{types[name]}") from None
        rows.append(SweepRow(**kwargs))
    return rows


def rows_to_json(rows: list[SweepRow]) -> str:
    return json.dumps(
        {"format": CSV_BANNER.lstrip("# "), "rows": [asdict(r) for r in rows]},
        indent=2,
        allow_nan=True,
    )
