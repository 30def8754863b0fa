"""The paper's hidden local symmetry, on random Hermitian schedules of dims 2 to 64.

H -> H + c(t) I multiplies psi by exp(-i Int c dt / hbar). The total and the
dynamical phase move by the same amount, so the geometric phase does not
move. The same holds for a unitary change of basis, H -> Q H Q^H started
from Q psi_0, and for the reparametrisation H(t) -> 2 H(2 t) on [0, T / 2].
On the grid, a constant shift and these two laws hold to round-off. A shift
c(t) that varies in time moves the discrete phase by exactly the difference
of its two quadratures: the propagator integrates c at the step midpoints,
the dynamical phase by the trapezoid rule over the nodes.

Every bound is the worst-case round-off model of phase_roundoff, summed over
the two runs a law compares.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from holonomy_lab.evolution import HamiltonianSchedule, TimeGrid, propagate
from holonomy_lab.phases import circular_distance, noncyclic_geometric_phase

EPS = np.finfo(float).eps
# the spectral norms of the schedule's three terms, h0 + cos t h1 + sin t h2
NORMS = (1.0, 0.5, 0.5)

SYMMETRY = settings(derandomize=True, database=None, max_examples=12, deadline=None)


def phase_roundoff(dim, steps, h_norm, t_end, hbar, overlap, raw):
    """Worst-case round-off of one noncyclic geometric phase.

    A step applies at most 18 products of length dim + 1 (the step series'
    degree cap; a unitary from eigh takes fewer), each with a relative error
    of at most gamma = (dim + 1) eps (Higham's gamma_n) on a vector of norm
    1 + |H| dt / hbar at most, and the steps' errors add. The endpoint
    overlap's argument turns a state error into a phase error divided by
    |overlap|. Each node energy <psi|H|psi> is off by at most 2 gamma |H|,
    and the trapezoid sum of `steps` of them by a further steps eps |H|,
    both over t_end / hbar. Reducing the unreduced phase mod 2 pi costs
    eps |raw|.
    """
    gamma = (dim + 1) * EPS
    state = 18 * steps * gamma * (1.0 + h_norm * t_end / (steps * hbar))
    energies = (2.0 * gamma + steps * EPS) * h_norm * t_end / hbar
    return state / overlap + energies + EPS * abs(raw)


def random_hermitian(rng, dim, norm):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    return h * (norm / np.linalg.norm(h, 2))


def schedule(many, dim):
    return HamiltonianSchedule(evaluate=lambda t: many(np.array([t]))[0], dim=dim, evaluate_many=many)


class Case:
    """A random schedule h0 + cos t h1 + sin t h2, a random start, a grid and
    an hbar, with the report of the noncyclic phase and its round-off."""

    def __init__(self, dim, steps, t_end, hbar, seed):
        rng = np.random.default_rng(seed)
        self.dim, self.steps, self.t_end, self.hbar = dim, steps, t_end, hbar
        self.terms = [random_hermitian(rng, dim, norm) for norm in NORMS]
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        self.psi0 = psi0 / np.linalg.norm(psi0)
        self.grid = TimeGrid(t_end, steps)

    def hamiltonians(self, ts, terms=None):
        h0, h1, h2 = self.terms if terms is None else terms
        ts = np.asarray(ts, dtype=float)[:, None, None]
        return h0 + np.cos(ts) * h1 + np.sin(ts) * h2

    def report(self, many, psi0=None, grid=None, h_norm=sum(NORMS)):
        """The noncyclic phase report of a run, and its round-off bound."""
        sched = schedule(many, self.dim)
        grid = self.grid if grid is None else grid
        traj = propagate(sched, self.psi0 if psi0 is None else psi0, grid, hbar=self.hbar)
        report = noncyclic_geometric_phase(traj, sched, hbar=self.hbar)
        bound = phase_roundoff(self.dim, grid.steps, h_norm, grid.t_end, self.hbar,
                               report.endpoint_overlap_modulus, report.geometric_raw)
        return report, bound


@st.composite
def cases(draw):
    case = Case(dim=draw(st.integers(2, 64)), steps=draw(st.sampled_from([16, 64, 256])),
                t_end=draw(st.floats(0.5, 4.0)), hbar=draw(st.floats(0.5, 2.0)),
                seed=draw(st.integers(0, 2**32 - 1)))
    return case


def laws_hold(base, shifted):
    (a, bound_a), (b, bound_b) = base, shifted
    return circular_distance(a.geometric, b.geometric) <= bound_a + bound_b


@SYMMETRY
@given(cases(), st.floats(-2.0, 2.0))
def test_a_constant_shift_leaves_the_geometric_phase(case, c):
    base = case.report(case.hamiltonians)
    eye = np.eye(case.dim)
    shifted = case.report(lambda ts: case.hamiltonians(ts) + c * eye, h_norm=sum(NORMS) + abs(c))
    assert laws_hold(base, shifted)


@SYMMETRY
@given(cases(), st.integers(0, 2**32 - 1))
def test_a_unitary_change_of_basis_leaves_the_geometric_phase(case, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(case.dim, case.dim)) + 1j * rng.normal(size=(case.dim, case.dim)))
    # Q h Q^H, made Hermitian to the last bit; forming it errs by O(dim eps |h|)
    rotated = [(m + m.conj().T) / 2 for m in (q @ h @ q.conj().T for h in case.terms)]
    base = case.report(case.hamiltonians)
    turned = case.report(lambda ts: case.hamiltonians(ts, rotated), psi0=q @ case.psi0)
    assert laws_hold(base, turned)


@SYMMETRY
@given(cases())
def test_running_twice_as_fast_for_half_the_time_leaves_the_geometric_phase(case):
    base = case.report(case.hamiltonians)
    fast = case.report(lambda ts: 2.0 * case.hamiltonians(2.0 * np.asarray(ts)),
                       grid=TimeGrid(case.t_end / 2.0, case.steps), h_norm=2.0 * sum(NORMS))
    assert laws_hold(base, fast)


@SYMMETRY
@given(cases(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.5, 4.0))
def test_a_local_shift_moves_the_phase_by_its_quadrature_difference(case, a, b, w):
    def c(ts):
        return a + b * np.sin(w * np.asarray(ts, dtype=float))

    base, base_bound = case.report(case.hamiltonians)
    eye = np.eye(case.dim)
    shifted, shifted_bound = case.report(lambda ts: case.hamiltonians(ts) + c(ts)[:, None, None] * eye,
                                         h_norm=sum(NORMS) + abs(a) + abs(b))
    dt = case.grid.dt
    moved = (np.trapezoid(c(case.grid.nodes()), dx=dt) - dt * np.sum(c(case.grid.midpoints()))) / case.hbar
    # the expected move is itself a sum of steps + 1 terms of size |c| dt
    expected_bound = 2 * (case.steps + 1) * EPS * (abs(a) + abs(b)) * case.t_end / case.hbar
    gap = circular_distance(shifted.geometric, (base.geometric + moved) % (2 * math.pi))
    assert gap <= base_bound + shifted_bound + expected_bound
