"""Fuzzing the ``--set`` boundary (hypothesis) with arbitrary ``key=value`` text.

``--set`` values are untrusted input.  The CLI parses each one with
``_parse_scalar`` (int, else float, else the text itself) and the
registries coerce it against the parameter's default
(:func:`repro.params.coerce_override`).  The contract checked here:

* coercion, alone or through :meth:`ScenarioSpec.merge_params`, either
  returns a value within bounds (finite as a float, at most its size
  maximum) or raises one :class:`~repro.errors.ConfigurationError`;
* through :func:`repro.cli.main`, ``scenarios sweep`` and ``topologies
  build`` either exit 2 with exactly one ``ERROR`` line and no
  traceback, or get as far as building, which a patched builder turns
  into a sentinel exception so that nothing is built.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.cli import _parse_scalar, main
from repro.errors import ConfigurationError
from repro.network.topology import family as family_module
from repro.network.topology import get_family, list_families
from repro.params import coerce_override
from repro.scenarios import ScenarioSpec, get_scenario, list_scenarios
from repro.scenarios.spec import SIZE_MAXIMA

#: Text that parses to the awkward numbers: non-finite, beyond the float
#: range, negative zero, underscores, exponents, non-ASCII digits.
_AWKWARD = [
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
    "1" + "0" * 400, "-" + "9" * 400, "-0", "0.0", "1_000", "1e5", "2.5",
    "1e-400", "3000000000", "100000", "100001", "0x10", "١٢", " 7 ", "",
    "true", "None",
]

_values = st.one_of(
    st.sampled_from(_AWKWARD),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)

#: Three in four ``--set`` items name a real parameter.
_known_key = st.sampled_from([True, True, True, False])

_SCENARIOS = [spec.name for spec in list_scenarios()]
_FAMILIES = [family.name for family in list_families()]


def _assert_within_bounds(value, maximum=None):
    """A coerced number is finite as a float and at most its maximum."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    assert math.isfinite(float(value)), value
    if maximum is not None:
        assert value <= maximum, value


class _Built(Exception):
    """Raised by the patched builders: the overrides got through."""


def _run_cli(argv):
    """``main(argv)`` -> (exit code or ``None`` when a build started, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except _Built:
            code = None
    return code, err.getvalue()


def _assert_fails_closed(code, err):
    if code is None:
        return
    assert code == 2, err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1 and "ERROR" in lines[0], err
    assert "Traceback" not in err


class TestCoercion:
    @settings(max_examples=300, deadline=None)
    @given(
        _values,
        st.sampled_from([0, 7, 1.5, None, "text", True]),
        st.sampled_from([None, 100_000, 1e8]),
    )
    def test_coerce_override_bounded_or_one_error(self, text, default, maximum):
        try:
            value = coerce_override(
                _parse_scalar(text), default, where="p", maximum=maximum
            )
        except ConfigurationError:
            return
        _assert_within_bounds(value, maximum)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_SCENARIOS), st.data())
    def test_merge_params_bounded_or_one_error(self, name, data):
        spec = get_scenario(name)
        keys = st.sampled_from(sorted(spec.defaults)) | st.text(max_size=8)
        overrides = data.draw(
            st.dictionaries(keys, _values.map(_parse_scalar), max_size=3)
        )
        try:
            merged = spec.merge_params(overrides)
        except ConfigurationError:
            return
        for key, value in merged.items():
            _assert_within_bounds(value, SIZE_MAXIMA.get(key))


class TestCommandLine:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(_SCENARIOS),
        st.lists(
            st.tuples(st.text(max_size=8), st.lists(_values, max_size=3)),
            max_size=3,
        ),
        st.data(),
    )
    def test_scenarios_sweep(self, name, items, data):
        known = sorted(get_scenario(name).defaults)
        argv = ["scenarios", "sweep", name, "--seeds", "0"]
        for key, values in items:
            if data.draw(_known_key):
                key = data.draw(st.sampled_from(known))
            argv.append(f"--set={key}={','.join(values)}")

        def build(*_args, **_kwargs):
            raise _Built

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScenarioSpec, "instantiate", build)
            _assert_fails_closed(*_run_cli(argv))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(_FAMILIES),
        st.lists(st.tuples(st.text(max_size=8), _values), max_size=3),
        st.data(),
    )
    def test_topologies_build(self, name, items, data):
        family = get_family(name)
        known = sorted(param.name for param in family.schema) or ["seed"]
        argv = ["topologies", "build", name]
        for key, value in items:
            if data.draw(_known_key):
                key = data.draw(st.sampled_from(known))
            argv.append(f"--set={key}={value}")

        def build(_params):
            raise _Built

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(
                family_module._FAMILIES,
                name,
                dataclasses.replace(family, builder=build),
            )
            _assert_fails_closed(*_run_cli(argv))
