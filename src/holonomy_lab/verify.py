"""Verification suite: every library-level invariant as a named check.

Each check returns a CheckResult with the worst measured value and its
threshold, so the CLI can render one pass/fail line per check and the test
suite can assert on the same numbers. Checks are deterministic for a fixed
seed and avoid wall-clock content in their details (except the explicitly
timed oracle check), keeping reports byte-identical across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import hilbert, spin_model
from .evolution import TimeGrid, fidelity, propagate
from .frames import (
    adiabatic_berry_phase,
    connection,
    eff_hamiltonian_matrix,
    gauge_transform,
    holonomy,
    orthonormality_defect,
    parallel_transport_fix,
    random_periodic_gauge,
)
from .phases import circular_distance, cyclic_geometric_phase
from .tolerances import DEFAULT, Tolerances

__all__ = ["CheckResult", "run_suite", "render_report"]

THETAS = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)
ETAS = (1e-2, 1.0, 1e2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"{status}  {self.name:<28} measured {self.measured:.6e}  allowed {self.threshold:.6e}{extra}"


def _run_model(theta: float, eta: float, steps: int, branch: int = +1):
    params = spin_model.ModelParams.from_eta(theta=theta, eta=eta)
    sched = spin_model.schedule(params)
    grid = TimeGrid(t_end=params.period, steps=steps)
    psi0 = spin_model.exact_solution(params, branch, 0.0)
    traj = propagate(sched, psi0, grid)
    return params, sched, grid, traj


def check_oracle_fidelity(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Propagated states reproduce the closed-form solution across the
    theta x eta grid at 4096 steps, within a 2 s budget."""
    thetas = (np.pi / 3,) if quick else THETAS
    started = time.perf_counter()
    worst = 0.0
    for theta in thetas:
        for eta in ETAS:
            params, _, grid, traj = _run_model(theta, eta, 4096)
            exact = spin_model.exact_trajectory(params, +1, grid)
            worst = max(worst, 1.0 - fidelity(traj, exact))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-8 and (quick or elapsed < 2.0)
    return CheckResult(
        name="oracle_fidelity",
        passed=passed,
        measured=worst,
        threshold=1e-8,
        detail=f"{3 * len(thetas)} runs, steps=4096"
        + ("" if quick else f", budget 2 s{' exceeded' if elapsed >= 2.0 else ' kept'}"),
    )


def check_berry_limit(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Adiabatic regime reproduces the adiabatic-loop value pi (1 + cos theta)."""
    theta = np.pi / 3
    _, sched, _, traj = _run_model(theta, 1e-3, 8192)
    report = cyclic_geometric_phase(traj, sched, tol=tol.replace(two_route=math.inf))
    dist = circular_distance(report.geometric, spin_model.berry_limit_phase(theta, +1))
    return CheckResult("berry_limit", dist <= 5e-3, dist, 5e-3, "theta=pi/3, eta=1e-3, steps=8192")


def check_trivial_limit(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Fast-rotation regime gives a trivial geometric phase (0 mod 2 pi)."""
    _, sched, _, traj = _run_model(np.pi / 3, 1e3, 8192)
    report = cyclic_geometric_phase(traj, sched, tol=tol.replace(two_route=math.inf))
    dist = circular_distance(report.geometric, 0.0)
    return CheckResult("trivial_limit", dist <= 1e-4, dist, 1e-4, "theta=pi/3, eta=1e3, steps=8192")


def check_sweep_triviality(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """The geometric phase interpolates smoothly and monotonically between the
    adiabatic and trivial limits over six decades of eta."""
    from .sweep import eta_grid, run_sweep

    points = 40 if quick else 200
    theta = np.pi / 3
    rows = run_sweep(theta, eta_grid(1e-3, 1e3, points), base_steps=4096, tol=tol)
    problems = []
    bad_rows = [r for r in rows if r.status != "ok"]
    if bad_rows:
        problems.append(f"{len(bad_rows)} rows failed")
    values = np.array([r.geom_phase_plus for r in rows])
    jumps = np.abs(np.diff(values))
    allowed_jump = 0.1 * (199.0 / (points - 1))  # 0.1 rad at the 200-point resolution
    if jumps.size and float(np.max(jumps)) > allowed_jump:
        problems.append(f"max adjacent jump {np.max(jumps):.3e}")
    if np.any(np.diff(values) < -1e-12):
        problems.append("not monotone in eta")
    deviations = np.array([r.deviation_from_exact for r in rows])
    deviations = deviations[~np.isnan(deviations)]  # a failed row's NaN, with no all-NaN warning
    max_dev = float(deviations.max()) if deviations.size else math.nan
    if max_dev > tol.sweep_deviation:
        problems.append(f"per-row deviation {max_dev:.3e}")
    lo = circular_distance(values[0], spin_model.berry_limit_phase(theta, +1))
    hi = circular_distance(values[-1], 0.0)
    if lo > 5e-3:
        problems.append(f"adiabatic endpoint off by {lo:.3e}")
    if hi > 1e-4:
        problems.append(f"trivial endpoint off by {hi:.3e}")
    return CheckResult(
        name="sweep_triviality",
        passed=not problems,
        measured=max_dev,
        threshold=tol.sweep_deviation,
        detail=f"{points} rows" + ("; " + "; ".join(problems) if problems else ""),
    )


def check_tilt_identity(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Defining identity of the tilt angle across twelve decades of eta."""
    worst = 0.0
    for eta in np.logspace(-6, 6, 50):
        params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=eta)
        scale = max(2 * params.mu * params.hbar * params.b_field, params.hbar * params.omega)
        worst = max(worst, spin_model.tilt_identity_residual(params) / scale)
    return CheckResult("tilt_identity", worst <= 1e-12, worst, 1e-12, "50 points, eta in [1e-6, 1e6]")


def check_diagonality(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """The tilted frame diagonalizes the effective Hamiltonian at all times."""
    worst = 0.0
    for theta in THETAS:
        for eta in ETAS:
            params = spin_model.ModelParams.from_eta(theta=theta, eta=eta)
            frame = spin_model.tilted_frame(params)
            sched = spin_model.schedule(params)
            scale = params.magnetic_energy + params.hbar * params.omega
            for t in np.linspace(0.0, params.period, 32, endpoint=False):
                m = eff_hamiltonian_matrix(frame, sched, t, hbar=params.hbar, tol=tol)
                off = max(abs(m[0, 1]), abs(m[1, 0]))
                worst = max(worst, off / scale)
    return CheckResult("heff_diagonality", worst <= 1e-10, worst, 1e-10, "12 parameter sets, 32 times each")


def check_gauge_invariance(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Holonomy and phase reports are blind to local gauge choices and to a
    constant ray phase on the initial state."""
    rng = np.random.default_rng(seed)
    n_gauges = 10 if quick else 100
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    frame = spin_model.tilted_frame(params)
    base_hol = holonomy(frame, 0, steps=2048, tol=tol)
    base_berry = adiabatic_berry_phase(frame, 0, steps=2048, tol=tol)
    worst = 0.0
    for _ in range(n_gauges):
        gauge = random_periodic_gauge(params.period, rng)
        transformed = gauge_transform(frame, gauge)
        worst = max(worst, abs(holonomy(transformed, 0, steps=2048, tol=tol) - base_hol))
        worst = max(
            worst,
            circular_distance(
                adiabatic_berry_phase(transformed, 0, steps=2048, tol=tol), base_berry
            ),
        )
    # constant ray phase on the initial state
    sched = spin_model.schedule(params)
    grid = TimeGrid(t_end=params.period, steps=2048)
    psi0 = spin_model.exact_solution(params, +1, 0.0)
    record_gap = tol.replace(two_route=math.inf)
    base = cyclic_geometric_phase(propagate(sched, psi0, grid), sched, tol=record_gap)
    for _ in range(3):
        c = rng.uniform(-np.pi, np.pi)
        shifted = cyclic_geometric_phase(
            propagate(sched, np.exp(1j * c) * psi0, grid), sched, tol=record_gap
        )
        worst = max(
            worst,
            circular_distance(shifted.total, base.total),
            abs(shifted.dynamical - base.dynamical),
            circular_distance(shifted.geometric, base.geometric),
        )
    return CheckResult("gauge_invariance", worst <= 1e-10, worst, 1e-10, f"{n_gauges} random periodic gauges")


def check_parallel_transport(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """After the parallel-transport fix the connection vanishes at interior nodes."""
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    frame = spin_model.tilted_frame(params)
    steps = 512 if quick else 2048
    fixed = parallel_transport_fix(frame, 0, steps=steps, tol=tol)
    interior = np.linspace(0.0, params.period, steps + 1)[1:-1]
    rates = connection(fixed, 0, interior, tol=tol)
    worst = float(np.max(np.abs(rates))) / params.omega
    return CheckResult("parallel_transport", worst <= 1e-8, worst, 1e-8, "relative to omega, interior nodes")


def check_convergence_order(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """The propagator's trajectory error shrinks at second order in the step.

    Error metric: angular distance of the propagated state from the exact
    ray, sqrt(1 - fidelity). (The fidelity deficit itself falls at twice this
    order, being quadratic in the state error.)
    """
    theta, eta = np.pi / 3, 1e-2
    errors = []
    for steps in (256, 512, 1024, 2048):
        params, _, grid, traj = _run_model(theta, eta, steps)
        exact = spin_model.exact_trajectory(params, +1, grid)
        errors.append(math.sqrt(max(1.0 - fidelity(traj, exact), 1e-300)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    worst = max(abs(o - 2.0) for o in orders)
    return CheckResult(
        name="convergence_order",
        passed=worst <= 0.2,
        measured=worst,
        threshold=0.2,
        detail="orders " + ", ".join(f"{o:.3f}" for o in orders) + " over steps 256..2048",
    )


def check_two_route(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Decomposition route and connection route agree on the cyclic phase.

    Steps are chosen per point so the integrator's secular phase error sits
    below the agreement tolerance; the routes are then compared at full
    strictness.
    """
    etas = (1e-2, 1.0) if quick else ETAS
    thetas = (np.pi / 6, np.pi / 2) if quick else THETAS
    worst = 0.0
    for theta in thetas:
        for eta in etas:
            params = spin_model.ModelParams.from_eta(theta=theta, eta=eta)
            steps = max(4096, spin_model.steps_for_phase_tolerance(params, tol.two_route / 3.0))
            _, sched, _, traj = _run_model(theta, eta, steps)
            report = cyclic_geometric_phase(traj, sched, tol=tol.replace(two_route=math.inf))
            worst = max(worst, report.route_agreement)
    return CheckResult("two_route_agreement", worst <= tol.two_route, worst, tol.two_route,
                       f"{len(thetas) * len(etas)} grid points, adaptive steps")


def check_unitarity_drift(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Norm drift over 10^4 propagation steps stays at round-off."""
    steps = 2000 if quick else 10000
    _, _, _, traj = _run_model(np.pi / 3, 1.0, steps)
    drift = traj.norm_drift()
    return CheckResult("unitarity_drift", drift <= 1e-10, drift, 1e-10, f"{steps} steps")


def check_expi_properties(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Unitarity, the semigroup law, and inner-product preservation of the
    Hermitian exponential, on random Hermitian matrices up to dimension 8."""
    rng = np.random.default_rng(seed)
    draws = 5 if quick else 20
    worst_u = worst_semi = worst_inner = 0.0
    for _ in range(draws):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        dt1, dt2 = rng.uniform(-2, 2, size=2)
        u1 = hilbert.expi_hermitian(h, dt1, tol=tol)
        u2 = hilbert.expi_hermitian(h, dt2, tol=tol)
        u12 = hilbert.expi_hermitian(h, dt1 + dt2, tol=tol)
        worst_u = max(worst_u, hilbert.unitarity_defect(u1))
        worst_semi = max(worst_semi, float(np.max(np.abs(u1 @ u2 - u12))))
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        worst_inner = max(worst_inner, abs(hilbert.inner(u1 @ x, u1 @ y) - hilbert.inner(x, y)))
    measured = max(worst_u, worst_semi / 10.0, worst_inner)  # semigroup tolerance is 10x
    passed = worst_u <= 1e-12 and worst_semi <= 1e-11 and worst_inner <= 1e-12
    return CheckResult("unitary_exponential", passed, measured, 1e-12,
                       f"{draws} random Hermitian draws, dim <= 8")


def check_frame_orthonormality(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    worst = 0.0
    for theta in THETAS:
        for eta in ETAS:
            params = spin_model.ModelParams.from_eta(theta=theta, eta=eta)
            ts = np.linspace(0.0, params.period, 17)
            worst = max(worst, orthonormality_defect(spin_model.tilted_frame(params), ts))
    return CheckResult("frame_orthonormality", worst <= 1e-10, worst, 1e-10, "model frames on 17-node grids")


def check_gauge_covariance(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """Under a local gauge the diagonal of the effective Hamiltonian shifts by
    hbar d(alpha)/dt and off-diagonal moduli are untouched."""
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    frame = spin_model.tilted_frame(params)
    sched = spin_model.schedule(params)
    w = 2 * np.pi / params.period

    def gauge(n, t):
        return (0.3 + 0.7 * np.sin(w * t), 0.7 * w * np.cos(w * t)) if n == 0 else (0.0, 0.0)

    transformed = gauge_transform(frame, gauge)
    worst = 0.0
    for t in np.linspace(0.0, params.period, 9):
        m0 = eff_hamiltonian_matrix(frame, sched, t, hbar=params.hbar, tol=tol)
        m1 = eff_hamiltonian_matrix(transformed, sched, t, hbar=params.hbar, tol=tol)
        shift = (m1[0, 0] - m0[0, 0]).real - params.hbar * gauge(0, t)[1]
        worst = max(worst, abs(shift), abs(abs(m1[0, 1]) - abs(m0[0, 1])))
    return CheckResult("heff_gauge_covariance", worst <= 1e-10, worst, 1e-10,
                       "diagonal shift vs hbar d(alpha)/dt")


def check_transport_holonomy(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> CheckResult:
    """For a parallel-transported frame the holonomy reduces to the bare
    endpoint overlap (the exponential factor is 1)."""
    params = spin_model.ModelParams.from_eta(theta=np.pi / 3, eta=1.0)
    frame = spin_model.tilted_frame(params)
    fixed = parallel_transport_fix(frame, 0, steps=2048, tol=tol)
    hol = holonomy(fixed, 0, steps=2048, tol=tol)
    bare = hilbert.inner(fixed.value(0, 0.0), fixed.value(0, params.period))
    measured = abs(hol - bare)
    return CheckResult("transport_holonomy", measured <= 1e-10, measured, 1e-10, "exp factor collapses to 1")


ACCEPTANCE = (
    check_oracle_fidelity,
    check_berry_limit,
    check_trivial_limit,
    check_sweep_triviality,
    check_tilt_identity,
    check_diagonality,
    check_gauge_invariance,
    check_parallel_transport,
    check_convergence_order,
    check_two_route,
)

EXTRAS = (
    check_unitarity_drift,
    check_expi_properties,
    check_frame_orthonormality,
    check_gauge_covariance,
    check_transport_holonomy,
)


def run_suite(tol: Tolerances = DEFAULT, quick: bool = False, seed: int = 0) -> list[CheckResult]:
    results = []
    for fn in ACCEPTANCE + EXTRAS:
        try:
            results.append(fn(tol, quick, seed))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check, not a crash of the suite
            results.append(CheckResult(fn.__name__, False, math.nan, math.nan, f"raised {exc!r}"))
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
