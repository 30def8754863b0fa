"""The config contract: whatever a config file holds, reading it gives a flat
mapping or a ConfigError, and building a run from any mapping of known keys
gives a RunConfig or a ConfigError (exit 2), never another exception."""

from dataclasses import fields

from hypothesis import example, given, settings, strategies as st

from holonomy_lab import config
from holonomy_lab.errors import ConfigError
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
