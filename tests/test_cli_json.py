"""The JSON writer of the CLI: cli._json must give, byte for byte, the text
json.dumps gives for the record conversion in helpers.jsonable_oracle,
on random nested values and on the records of the four commands."""

import dataclasses
import enum
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtriangle import cli
from chtriangle.cli import _json, main
from helpers import jsonable_oracle

INF = math.inf


def oracle_text(value) -> str:
    return json.dumps(jsonable_oracle(value), indent=2, allow_nan=False)


class Seconds(float):
    """A float subclass that prints itself with a unit."""

    def __repr__(self):
        return f"{float(self)!r} s"

    __str__ = __repr__


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class Leaf:
    value: object


@dataclasses.dataclass(frozen=True)
class Pair:
    first: object
    second: object


floats = st.floats(allow_nan=True, allow_infinity=True)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    floats,
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 5e-324, 1e16, 1e-7]),
    floats.map(Seconds),
    floats.map(np.float64),
    st.sampled_from(Level),
    st.text(max_size=8),
    # finite parts only: the oracle leaves the parts unconverted, so
    # json.dumps refuses a non-finite one (see the layout examples)
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
# keys of distinct str forms, so the oracle's str(k) merges none
keys = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none())


def str_key(item):
    return str(item[0])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.tuples(keys, children), max_size=5, unique_by=str_key).map(dict),
        st.builds(Leaf, children),
        st.builds(Pair, children, children),
    )


values = st.recursive(leaves, containers, max_leaves=20)


# the warning is hypothesis writing out the nested strategy's repr
@pytest.mark.filterwarnings("ignore:Generating overly large repr")
@settings(max_examples=300, deadline=None)
@given(values)
def test_json_matches_oracle(value):
    assert _json(value) == oracle_text(value)


@pytest.mark.parametrize(
    "value, text",
    [
        (None, "null"),
        (True, "true"),
        (False, "false"),
        (2**70, "1180591620717411303424"),
        (-0.0, "-0.0"),
        (INF, '"inf"'),
        (-INF, '"-inf"'),
        (math.nan, '"nan"'),
        ("é\U0001d11e", '"\\u00e9\\ud834\\udd1e"'),
        ([], "[]"),
        ((), "[]"),
        ({}, "{}"),
        ([1, [2]], "[\n  1,\n  [\n    2\n  ]\n]"),
        ({"a": ()}, '{\n  "a": []\n}'),
        (1 - 2j, '{\n  "real": 1.0,\n  "imag": -2.0\n}'),
        (complex(INF, math.nan), '{\n  "real": "inf",\n  "imag": "nan"\n}'),
        (Pair(Level.HIGH, Seconds(0.5)), '{\n  "first": 2,\n  "second": 0.5\n}'),
        (np.float64(0.5), "0.5"),
    ],
)
def test_json_layout_examples(value, text):
    assert _json(value) == text


@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.bool_(True), {1, 2}, object(), {"a": [np.int64(1)]}, Leaf(np.bool_(False))],
    ids=["np.int64", "np.bool_", "set", "object", "nested np.int64", "np.bool_ field"],
)
def test_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


# a fixed slice of the CLI output space: the three tables, every 7th
# survey scan, galois for every 4th refute pair at two bounds, and a few
# classify calls, all through main
SCAN_SLICE = [
    (test, m, n)
    for test in ("re", "jorgensen", "shimizu")
    for m in tuple(range(3, 21)) + (INF,)
    for n in range(3, 201)
][::7]
REFUTE_SLICE = [
    (m, n) for m in tuple(range(3, 17)) + (INF,) for n in range(3, 31) if m != n
][::4]


def order_text(order) -> str:
    return "inf" if order == INF else str(order)


def sweep_argvs():
    for which in (1, 2, 3):
        yield ["tables", str(which)]
    for test, m, n in SCAN_SLICE:
        yield ["scan", "--test", test, "--m", order_text(m), "--n", str(n)]
    for i, (m, n) in enumerate(REFUTE_SLICE):
        max_l = 16 if i % 2 else 36
        yield ["galois", "--m", order_text(m), "--n", str(n), "--max-l", str(max_l)]
    for m, n, theta, word in [
        ("inf", "4", "pi/4", "123"),
        ("inf", "7", "acos(0.9)", "3132"),
        ("8", "11", "acos(-0.25)", "12312"),
        ("5", "5", "1.2", "1"),
        ("3", "12", "pi", "231"),
    ]:
        yield ["classify", "--m", m, "--n", n, "--theta", theta, "--word", word]


def test_cli_json_records_match_oracle(monkeypatch):
    records = []

    def keep(handler):
        def run(args):
            out = handler(args)
            records.append(out[0])
            return out

        return run

    for name, handler in list(cli._HANDLERS.items()):
        monkeypatch.setitem(cli._HANDLERS, name, keep(handler))
    commands = set()
    for argv in sweep_argvs():
        stdout = io.StringIO()
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(argv + ["--format", "json"]) == 0
        assert stdout.getvalue() == oracle_text(records[-1]) + "\n"
        commands.add(argv[0])
    assert commands == {"tables", "scan", "galois", "classify"}
    assert len(records) == 3 + len(SCAN_SLICE) + len(REFUTE_SLICE) + 5
