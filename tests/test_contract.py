"""The input contract, fuzzed. Whatever a config file holds, reading it gives
a flat mapping or a ConfigError, and building a run from any mapping of known
keys gives a RunConfig or a ConfigError (exit 2). The library entry points
return or raise ValueError (or a documented subclass), a sweep CSV gives back
its float bits, and the command line exits 0, 1 or 2; none raises another
exception."""

import json
import math
import struct
import sys
from dataclasses import fields, is_dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from holonomy_lab import cli, config, hilbert, spin_model, sweep
from holonomy_lab.errors import ConfigError, NonHermitianError
from holonomy_lab.evolution import HamiltonianSchedule, TimeGrid, Trajectory, propagate
from holonomy_lab.frames import (MovingFrame, eff_hamiltonian_matrix, finite_difference_frame,
                                 random_periodic_gauge)
from holonomy_lab.hilbert import expi_hermitian
from holonomy_lab.phases import dynamical_phase, noncyclic_geometric_phase
from holonomy_lab.tolerances import Tolerances

KEYS = sorted(config._KEYS) + [f"tol.{f.name}" for f in fields(Tolerances)]

NUMERIC_TEXT = ["nan", "-inf", "1e400", "-1e-400", "true", "False", " 2 ", "1_000", "0x10", "", "1e3", "64"]

SCALARS = st.one_of(
    st.floats(),
    st.integers(min_value=-10**500, max_value=10**500),
    st.booleans(),
    st.none(),
    st.text(max_size=12),
    st.sampled_from(NUMERIC_TEXT),
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)

# a mapping that builds, so that most draws test the value they add rather
# than stop at a missing theta
VALID = {"theta": 1.0, "eta": 1.0}

CONTRACT = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def build_or_refuse(mapping):
    try:
        cfg = config.build_config(mapping)
        cfg.tolerances()
        cfg.require_single_point()
    except ConfigError:
        return None
    return cfg


@CONTRACT
@given(st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=5), st.booleans())
@example({"theta": 1.0, "omega": 1.0, "mu": 1e-200, "b_field": 1e-200}, False)
@example({"steps": 10**500, "n_periods": -10**500}, True)
@example({"tol.max_dim": 1e300, "sweep.points": float("nan")}, True)
def test_any_values_of_the_known_keys_build_or_raise_config_error(mapping, on_a_valid_config):
    cfg = build_or_refuse({**VALID, **mapping} if on_a_valid_config else mapping)
    assert cfg is None or isinstance(cfg, config.RunConfig)


# 0, the subnormals, every normal exponent and inf
FLOAT_RANGE = st.floats(min_value=0.0)
UNIT_MODEL = {"mu": 1.0, "b_field": 1.0, "hbar": 1.0}


@CONTRACT
@given(st.fixed_dictionaries({"mu": FLOAT_RANGE, "b_field": FLOAT_RANGE, "hbar": FLOAT_RANGE}),
       st.one_of(st.none(), st.tuples(st.sampled_from(["eta", "omega"]), FLOAT_RANGE)),
       st.one_of(st.none(), st.lists(FLOAT_RANGE, min_size=2, max_size=2).map(sorted)))
@example(UNIT_MODEL, ("eta", 1e-320), None)
@example(UNIT_MODEL, ("omega", 1e-320), None)
@example(UNIT_MODEL, None, [1e-320, 1e-319])
@example({**UNIT_MODEL, "mu": 1e-200, "b_field": 1e-200}, ("omega", 1.0), None)
def test_a_config_that_builds_can_run_the_model_at_each_of_its_etas(model, point, bounds):
    # the config's checks are the model's: a command never refuses a model
    # that the config let through
    mapping = {"theta": 1.0, **model}
    if point is not None:
        mapping[point[0]] = point[1]
    if bounds is not None:
        mapping.update({"sweep.eta_min": bounds[0], "sweep.eta_max": bounds[1], "sweep.points": 2})
    try:
        cfg = config.build_config(mapping)
    except ConfigError:
        return
    etas = [] if bounds is None else [cfg.sweep.eta_min, cfg.sweep.eta_max]
    if point is not None:
        etas.append(cfg.require_single_point())
    for eta in etas:
        spin_model.ModelParams.from_eta(cfg.theta, eta, cfg.mu, cfg.b_field, cfg.hbar)


LINE_VALUES = st.one_of(
    st.text(max_size=16),
    st.sampled_from(NUMERIC_TEXT + ['"a#b"', '"open', 'close"', '[1, 2', "{}", '"\\u12"', "[" * 3000]),
    st.integers(min_value=1, max_value=6000).map(lambda digits: "7" * digits),
)
LINES = st.tuples(st.sampled_from(KEYS + ["unknown", "", "a.b.c"]), st.sampled_from([" = ", "=", " "]),
                  LINE_VALUES, st.sampled_from(["", "  # note", "#", " \\"]))
TEXTS = st.one_of(
    st.text(max_size=60),
    st.lists(LINES, max_size=5).map(lambda lines: "\n".join("".join(parts) for parts in lines)),
    st.builds(lambda inner: "{" + inner, st.text(max_size=40)),
)


@CONTRACT
@given(TEXTS)
@example("x = " + "1" * 5000)
@example('{"x": ' + "1" * 5000 + "}")
@example("{" + '"a": {' * 3000)
@example("{" + '"a": {' * 900 + "}" * 901)
@example("x = " + "[" * 3000)
def test_any_text_parses_to_a_mapping_or_raises_config_error(text):
    try:
        mapping = config._parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(mapping, dict)


# The library entry points: whatever numbers they are given, each returns or
# raises ValueError (or one of its documented subclasses), never TypeError or
# OverflowError from a check.

NUMPY_SCALARS = st.sampled_from(["float16", "float32", "float64", "longdouble", "int8", "int64", "uint64",
                                 "bool"]).flatmap(lambda name: hnp.from_dtype(np.dtype(name)))
NUMBERS = st.one_of(st.floats(), st.integers(min_value=-10**500, max_value=10**500), NUMPY_SCALARS)
SMALL_INTS = st.one_of(st.integers(min_value=-2, max_value=5), NUMBERS)

# fewer draws than the config tests, so that these add about 2 s to the suite
LIBRARY = settings(CONTRACT, max_examples=60)


def returns_or_raises_value_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


@LIBRARY
@given(NUMBERS, SMALL_INTS)
@example(10**300, 4)
@example(10**500, 4)
def test_time_grid_builds_or_raises_value_error(t_end, steps):
    returns_or_raises_value_error(TimeGrid, t_end, steps)


@LIBRARY
@given(st.lists(NUMBERS, min_size=5, max_size=5))
@example([math.inf, 1.0, 1.0, 1.0, 1.0])
@example([1.0, 1.0, 10**500, 1.0, 1.0])
@example([1.0, 1.0, 5e-324, 1.0, 1.0])
def test_model_params_build_or_raise_value_error(values):
    params = returns_or_raises_value_error(spin_model.ModelParams, *values)
    if params is not None:
        assert 0.0 < params.period < math.inf


def frame_fn(n, t):
    return np.array([1.0, 0.0]), 0.0


@LIBRARY
@given(SMALL_INTS, SMALL_INTS, st.one_of(st.none(), NUMBERS), st.one_of(st.none(), NUMBERS))
@example(2, 1.5, None, None)
@example(2, 1, 10**500, None)
@example(2, 1, None, 10**500)
def test_frames_and_gauges_build_or_raise_value_error(dim, count, period, fd_step):
    returns_or_raises_value_error(MovingFrame, dim, count, frame_fn, period)
    returns_or_raises_value_error(finite_difference_frame, dim, count, lambda n, t: frame_fn(n, t)[0],
                                  period, fd_step)
    returns_or_raises_value_error(random_periodic_gauge, period, np.random.default_rng(0))


def hermitian(a):
    """The Hermitian matrix of a square array's upper triangle and real
    diagonal, formed without arithmetic that could overflow."""
    upper = np.triu(a, 1)
    return upper + upper.conj().T + np.diag(a.diagonal().real)


def arrays(dtypes, max_side):
    """Arrays of any of `dtypes`, of 0 to 3 dims of at most max_side each."""
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=max_side)
    return st.sampled_from(dtypes).flatmap(lambda dtype: hnp.arrays(dtype, shapes))


@LIBRARY
@given(arrays(["bool", "int64", "float16", "float64", "complex64", "complex128"], 3), st.booleans(), NUMBERS,
       NUMBERS)
@example(1e308 * np.eye(2), False, 1.0, 1.0)
@example(np.eye(2), False, 10**500, 1.0)
@example(np.zeros((0, 0)), False, 1.0, 1.0)
@example(1e10 * np.diag([1.0, -1.0, 0.0]), False, 1e300, 1.0)
def test_expi_hermitian_returns_a_unitary_or_raises_value_error(h, make_hermitian, dt, hbar):
    if make_hermitian and h.ndim == 2 and h.shape[0] == h.shape[1]:
        h = hermitian(h.astype(complex))
    u = returns_or_raises_value_error(expi_hermitian, h, dt, hbar)
    if u is not None:
        assert u.shape == h.shape and np.isfinite(u).all()


def constant_schedule(h):
    return HamiltonianSchedule(evaluate=lambda t: h, dim=h.shape[0])


# numbers and strings; an object array of anything else is a TypeError, as
# numpy gives it
STATES = st.one_of(arrays(["bool", "int8", "float32", "float64", "complex128", "U3"], 9),
                   st.sampled_from([(), (1,), (2,)]))


@LIBRARY
@given(st.sampled_from([2, 3, 8]), st.sampled_from([1.0, 1e154, 1e308]), st.integers(0, 2**32 - 1), STATES,
       NUMBERS)
@example(2, 1e308, 0, (), 1.0)
@example(8, 1.0, 0, (2,), 1e-300)
def test_propagate_returns_finite_states_or_raises_value_error(dim, scale, seed, psi0, hbar):
    rng = np.random.default_rng(seed)
    h = hermitian(scale * (rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))))
    if isinstance(psi0, tuple):  # a normalized state or block of that lead shape, which reaches the steps
        psi0 = np.broadcast_to(np.eye(dim)[0], psi0 + (dim,))
    got = returns_or_raises_value_error(propagate, constant_schedule(h), psi0, TimeGrid(1.0, 4), hbar)
    if got is not None:
        for traj in got if isinstance(got, tuple) else (got,):
            assert np.isfinite(traj.states).all()


@LIBRARY
@given(st.one_of(st.floats(), st.integers(max_value=15), st.integers(min_value=2**21 + 1, max_value=10**500),
                 st.booleans(), NUMPY_SCALARS))
@example(1.5)
@example(2**21 + 1)
@example(4096.0)
def test_run_point_refuses_base_steps_outside_the_config_range(base_steps):
    integer = isinstance(base_steps, (int, np.integer)) and not isinstance(base_steps, bool)
    assume(not (integer and 16 <= base_steps <= 2**21))
    with mock.patch.object(spin_model, "schedule", side_effect=AssertionError("sampled")):
        with pytest.raises(ValueError, match="base_steps must be an integer"):
            sweep.run_point(1.0, 1.0, base_steps=base_steps)


def test_exponential_of_a_hamiltonian_near_the_float_maximum_is_refused_naming_its_time(tmp_path, capsys):
    with pytest.raises(NonHermitianError, match="exp\\(-i H dt / hbar\\) overflows"):
        expi_hermitian(1e308 * np.eye(2), 1.0)
    assert np.isfinite(expi_hermitian(1e308 * np.eye(3), 1.0)).all()  # eigh does not overflow there
    with pytest.raises(NonHermitianError, match="too large for its step at t = 0.125:"):
        propagate(constant_schedule(1e308 * np.eye(2)), [1.0, 0.0], TimeGrid(1.0, 4))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0.1\neta = 1\nhbar = 1e308\n", encoding="utf-8")
    assert cli.main(["evolve", "--config", str(cfg), "--quiet"]) == 1
    assert "numerical failure: Hamiltonian too large for its step at t = " in capsys.readouterr().err


def test_dynamical_phase_past_the_float_range_is_refused_naming_its_time():
    traj = Trajectory(TimeGrid(4.0, 4), np.tile([1.0, 0.0], (5, 1)))
    with pytest.raises(NonHermitianError, match="too large for the dynamical phase at t = 0.0: 1e[+]308"):
        dynamical_phase(traj, constant_schedule(np.diag([1e308, -1e308])))


# A sweep CSV gives back every float bit it holds, and a mutated text parses
# or raises ValueError.

FLOAT_COLUMNS = [f.name for f in fields(sweep.SweepRow) if f.type == "float"]
# statuses as run_sweep writes them: no comma and nothing str.splitlines breaks at
STATUSES = st.text(st.characters(exclude_characters=",", exclude_categories=("Cc", "Zl", "Zp")), max_size=12)
ROWS = st.lists(st.builds(sweep.SweepRow, **{name: st.floats() for name in FLOAT_COLUMNS},
                          steps_used=st.integers(), status=STATUSES), max_size=3)


def float_bits(x):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


@LIBRARY
@given(ROWS)
@example([sweep.SweepRow(-0.0, 5e-324, math.inf, -math.inf, -math.nan, 2.2250738585072014e-308, -1e-320,
                         1.7976931348623157e308, math.nan, 0, "")])
def test_csv_gives_back_every_float_bit(rows):
    back = sweep.rows_from_csv(sweep.rows_to_csv(rows))
    assert len(back) == len(rows)
    for got, row in zip(back, rows):
        assert [float_bits(getattr(got, c)) for c in FLOAT_COLUMNS] == [float_bits(getattr(row, c))
                                                                        for c in FLOAT_COLUMNS]
        assert (got.steps_used, got.status) == (row.steps_used, row.status)


MUTATIONS = st.tuples(st.integers(0, 10**6), st.integers(0, 12), st.text(max_size=8))


@LIBRARY
@given(ROWS, st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_csv_parses_or_raises_value_error(rows, mutations):
    text = sweep.rows_to_csv(rows)
    for at, cut, insert in mutations:
        at %= len(text) + 1
        text = text[:at] + insert + text[at + cut:]
    returns_or_raises_value_error(sweep.rows_from_csv, text)


# The command line on configs that build exits 0, 1 or 2 and raises nothing:
# hbar, mu and b_field range over the floats, the rest is kept small.

SCALES = st.one_of(st.floats(min_value=0.0, max_value=1.7976931348623157e308, exclude_min=True),
                   st.sampled_from([1e308, 1.7976931348623157e308, 5e-324, 1e-300, 1.0]))
ETAS = st.floats(min_value=1e-3, max_value=1e3)
CLI_CONFIGS = st.fixed_dictionaries(
    {"theta": st.floats(min_value=0.0, max_value=math.pi), "eta": ETAS},
    optional={"mu": SCALES, "b_field": SCALES, "hbar": SCALES, "steps": st.integers(16, 256),
              "n_periods": st.integers(1, 3), "output.format": st.sampled_from(["csv", "json"])},
)
SWEEP_KEYS = st.fixed_dictionaries({"sweep.eta_min": ETAS, "sweep.eta_max": ETAS,
                                    "sweep.points": st.integers(2, 3), "sweep.log": st.booleans()})


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@LIBRARY
@given(st.sampled_from(["evolve", "sweep"]), CLI_CONFIGS, SWEEP_KEYS)
@example("evolve", {"theta": 0.1, "eta": 1.0, "hbar": 1e308}, {})
@example("sweep", {"theta": 1.0, "eta": 1.0, "hbar": 1e307, "steps": 16},
         {"sweep.eta_min": 1e-3, "sweep.eta_max": 1e-2, "sweep.points": 3, "sweep.log": True})
def test_cli_on_a_config_that_builds_exits_0_1_or_2(cli_dir, command, mapping, sweep_keys):
    if command == "sweep":
        mapping = {**mapping, **sweep_keys}
        mapping.pop("eta")
    assume(build_or_refuse(mapping) is not None)
    cfg = cli_dir / "run.json"
    cfg.write_text(json.dumps(mapping), encoding="utf-8")
    assert cli.main([command, "--config", str(cfg), "--out", str(cli_dir / "out"), "--quiet"]) in (0, 1, 2)


# The numeric boundary: a numpy float16, float32, float64 or longdouble
# scalar, or a Python int, gives every entry the types and bits of the call
# with float(x), and a numpy integer those of the call with int(n).

def reals(lo, hi, int_hi):
    """Numpy float16, float32, float64 and longdouble scalars in [lo, hi],
    bounds float16 holds exactly, and Python ints in [ceil(lo), int_hi]."""
    floats = st.floats(lo, hi)
    # one longdouble step towards hi takes the value off the float64 grid
    longdoubles = floats.map(lambda v: np.nextafter(np.longdouble(v), np.longdouble(hi)))
    return st.one_of(*[floats.map(t) for t in (np.float16, np.float32, np.float64)], longdoubles,
                     st.integers(math.ceil(lo), int_hi))


def counts(lo, hi):
    """Numpy integer scalars of every width, and Python ints, in [lo, hi]."""
    types = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
    return st.one_of(*[st.integers(lo, min(hi, int(np.iinfo(t).max))).map(t) for t in types],
                     st.integers(lo, hi))


def bits(value):
    """The types and bytes of a result, through dataclasses (but a frame's
    callback), sequences and arrays."""
    if is_dataclass(value):
        return type(value).__name__, [bits(getattr(value, f.name)) for f in fields(value) if f.name != "fn"]
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if isinstance(value, str):
        return value
    array = np.asarray(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


SPIN = spin_model.ModelParams.from_eta(theta=1.0, eta=1.0)
E0 = np.array([1.0, 0.0])
TS = np.array([0.0, 0.3, 1.7])
H2 = hermitian(np.arange(4).reshape(2, 2) * (1 + 0.5j) / 4)
H3 = hermitian(np.arange(9).reshape(3, 3) * (1 - 0.5j) / 9)
SCHED3 = constant_schedule(H3)
TRAJ3 = propagate(SCHED3, np.eye(3)[0], TimeGrid(1.0, 8))


def rotating(n, t):
    """e^{it} e_0 and its derivative."""
    vec = np.exp(1j * t)[..., None] * E0
    return vec, 1j * vec


def evaluated(frame):
    return frame, frame.value_and_derivative(0, TS)


def fd_frame(**kwargs):
    return evaluated(finite_difference_frame(2, 1, lambda n, t: rotating(n, t)[0], **kwargs))


def heff(t=0.3, hbar=1.0):
    return eff_hamiltonian_matrix(spin_model.tilted_frame(SPIN), spin_model.schedule(SPIN), t, hbar=hbar)


def model(**kwargs):
    params = spin_model.ModelParams(**{"mu": 1.0, "b_field": 1.0, "omega": 1.0, "theta": 1.0, **kwargs})
    return params, params.period


def from_eta(**kwargs):
    params = spin_model.ModelParams.from_eta(**{"theta": 1.0, "eta": 1.0, **kwargs})
    return params, params.period


def run_point(**kwargs):
    return sweep.run_point(**{"theta": 1.0, "eta": 1.0, "base_steps": 16, **kwargs})


def grid(t_end=1.0, steps=8):
    g = TimeGrid(t_end, steps)
    return g, g.dt, g.nodes()


BIG = 2**53
POSITIVE = reals(0.25, 4.0, BIG)
SIGNED = reals(-2.0, 2.0, BIG)
BOUNDARY_ENTRIES = {
    "TimeGrid.t_end": (POSITIVE, lambda x: grid(t_end=x)),
    "TimeGrid.steps": (counts(1, 64), lambda n: grid(steps=n)),
    **{f"ModelParams.{name}": (POSITIVE, lambda x, name=name: model(**{name: x}))
       for name in ("mu", "b_field", "omega", "hbar")},
    "ModelParams.theta": (reals(0.0, 2.0, 2), lambda x: model(theta=x)),
    **{f"from_eta.{name}": (POSITIVE, lambda x, name=name: from_eta(**{name: x}))
       for name in ("eta", "mu", "b_field", "hbar")},
    "from_eta.theta": (reals(0.0, 2.0, 2), lambda x: from_eta(theta=x)),
    "MovingFrame.period": (POSITIVE, lambda x: evaluated(MovingFrame(2, 1, rotating, x))),
    "MovingFrame.dim": (counts(2, 64), lambda n: MovingFrame(n, 1, rotating)),
    "MovingFrame.count": (counts(1, 4), lambda n: MovingFrame(4, n, rotating)),
    "finite_difference_frame.period": (POSITIVE, lambda x: fd_frame(period=x)),
    "finite_difference_frame.fd_step": (POSITIVE, lambda x: fd_frame(fd_step=x)),
    "random_periodic_gauge.period": (POSITIVE,
                                     lambda x: random_periodic_gauge(x, np.random.default_rng(0))(0, TS)),
    "propagate.hbar": (POSITIVE, lambda x: propagate(SCHED3, np.eye(3)[0], TimeGrid(1.0, 8), hbar=x)),
    "dynamical_phase.hbar": (POSITIVE, lambda x: dynamical_phase(TRAJ3, SCHED3, hbar=x)),
    "noncyclic_geometric_phase.hbar": (POSITIVE,
                                       lambda x: noncyclic_geometric_phase(TRAJ3, SCHED3, hbar=x)),
    "expi_hermitian.dt": (SIGNED, lambda x: [expi_hermitian(h, x) for h in (H2, H3)]),
    "expi_hermitian.hbar": (POSITIVE, lambda x: [expi_hermitian(h, 0.7, hbar=x) for h in (H2, H3)]),
    "eff_hamiltonian_matrix.t": (SIGNED, lambda x: heff(t=x)),
    "eff_hamiltonian_matrix.hbar": (POSITIVE, lambda x: heff(hbar=x)),
    "run_point.theta": (reals(0.125, 2.0, 2), lambda x: run_point(theta=x)),
    "run_point.eta": (reals(0.5, 2.0, 2), lambda x: run_point(eta=x)),
    "run_point.hbar": (POSITIVE, lambda x: run_point(hbar=x)),
    "run_point.base_steps": (counts(16, 64), lambda n: run_point(base_steps=n)),
    "run_point.n_periods": (counts(1, 2), lambda n: run_point(n_periods=n)),
    "geometric_phase_exact.n_periods": (counts(1, BIG),
                                        lambda n: spin_model.geometric_phase_exact(SPIN, 1, n)),
    "midpoint_phase_error_estimate.steps": (counts(1, BIG),
                                            lambda n: spin_model.midpoint_phase_error_estimate(SPIN, n)),
    "eta_grid.points": (counts(2, 64), lambda n: sweep.eta_grid(0.5, 2.0, n)),
    "eta_grid.eta_min": (reals(0.25, 1.0, 1), lambda x: sweep.eta_grid(x, 4.0, 5)),
    "eta_grid.eta_max": (reals(2.0, 4.0, BIG), lambda x: sweep.eta_grid(1.0, x, 5)),
}


@pytest.mark.parametrize("entry", sorted(BOUNDARY_ENTRIES))
@settings(CONTRACT, max_examples=12)
@given(data=st.data())
def test_numpy_scalars_and_ints_give_the_bits_of_the_python_number(entry, data):
    values, call = BOUNDARY_ENTRIES[entry]
    x = data.draw(values)
    exact = int(x) if isinstance(x, (int, np.integer)) else float(x)
    assert bits(call(x)) == bits(call(exact))


def test_a_float32_theta_or_a_float16_hbar_sweeps_as_float64():
    rows = sweep.run_sweep(1.0, [0.5, 1.0])
    assert [row.status for row in rows] == ["ok", "ok"]
    assert bits(sweep.run_sweep(np.float32(1.0), [0.5, 1.0])) == bits(rows)
    assert bits(sweep.run_sweep(1.0, [0.5, 1.0], hbar=np.float16(1.0))) == bits(rows)


def test_an_error_row_holds_python_numbers():
    (row,) = sweep.run_sweep(np.float32(4.0), [1.0], base_steps=np.int16(16))
    assert row.status == "error: theta must lie in [0; pi]; got 4.0"
    assert (type(row.theta), type(row.steps_used)) == (float, int)
    assert json.loads(sweep.rows_to_json([row]))["rows"][0]["theta"] == 4.0


@pytest.mark.parametrize("kwargs, match", [
    ({"theta": math.nan}, "^theta must be a real finite scalar, got nan$"),
    ({"base_steps": 1.5}, r"^base_steps must be an integer in \[16, "),
])
def test_sweep_refuses_a_bad_theta_or_base_steps_before_any_row(monkeypatch, kwargs, match):
    monkeypatch.setattr(sweep, "run_point", None)
    with pytest.raises(ValueError, match=match):
        sweep.run_sweep(**{"theta": 1.0, "etas": [0.5, 1.0], **kwargs})


def test_grid_steps_past_two_to_the_53_are_refused_at_construction():
    TimeGrid(1.0, 2**53)  # dt is finite, and so is every node
    for steps in (2**53 + 1, 10**400):
        with pytest.raises(ValueError, match=r"^steps must be an integer in \[1, 9007199254740992\], got "):
            TimeGrid(1.0, steps)


@pytest.fixture
def default_int_digit_limit():
    """Python's default limit of 4300 digits on int-to-text conversion, for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("call, match", [
    (lambda: TimeGrid(1.0, -10**5000), r"^steps must be an integer in \[1, 9007199254740992\], "
                                      r"got a negative int of 5001 digits$"),
    (lambda: TimeGrid(10**4301 - 1, 8), r"^t_end must be positive and finite, got an int of 4301 digits$"),
    (lambda: hilbert._real("x", 10**5000), r"^x must be a real finite scalar, got an int of 5001 digits$"),
    (lambda: hilbert._real("x", -10**5000 + 1, optional=True),
     r"^x must be None or a real finite scalar, got a negative int of 5000 digits$"),
    (lambda: expi_hermitian(np.eye(2), 1.0, hbar=10**4300), r"^hbar must be positive and finite, got an int of 4301 digits$"),
    (lambda: MovingFrame(10**5000, 1, None), r"^dim must be an integer in \[1, 9007199254740992\], got an int of 5001 digits$"),
], ids=["steps", "t_end", "real", "optional-real", "hbar", "dim"])
def test_an_int_too_long_to_print_is_named_by_its_digits(default_int_digit_limit, call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("hbar", [math.nan, 1j, 10**400, 0.0, None],
                         ids=["nan", "complex", "past-float", "zero", "none"])
def test_heff_refuses_a_bad_hbar_before_evaluating_h_or_the_frame(hbar):
    calls = []
    tilted = spin_model.tilted_frame(SPIN)
    frame = MovingFrame(2, 2, lambda n, t: calls.append("frame") or tilted.fn(n, t), SPIN.period)
    hamiltonian = HamiltonianSchedule(lambda t: calls.append("H") or spin_model.hamiltonian(SPIN, t), 2)
    with pytest.raises(ValueError, match=r"^hbar must be positive and finite, got "):
        eff_hamiltonian_matrix(frame, hamiltonian, 0.3, hbar=hbar)
    assert calls == []
