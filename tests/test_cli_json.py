"""The JSON writer of the CLI: cli._write must write, byte for byte, the text
json.dumps gives for the record conversion in helpers.jsonable_oracle,
on random nested values of the types it writes and on the records of the
four commands, and refuse every other type."""

import collections
import dataclasses
import enum
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtriangle import cli
from chtriangle.classify import classify
from chtriangle.cli import main
from chtriangle.criteria import SCAN_TESTS, nondiscreteness_report, scan_intervals
from chtriangle.cyclotomic import refute_finite_order
from chtriangle.triangles import TriangleType, build_mn_inf
from helpers import json_text, jsonable_oracle

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


class Other:
    @dataclasses.dataclass(frozen=True)
    class Pair:
        """Named like the Pair above, with other fields."""

        left: object
        middle: object
        right: object


class Tag(str):
    """A str subclass whose str() differs from its text."""

    def __str__(self):
        return "tag:" + self


class Count(int):
    """A plain int subclass that prints itself with its type."""

    def __repr__(self):
        return f"Count({int(self)})"


class Row(list):
    pass


Point = collections.namedtuple("Point", "x y")


floats = st.floats(allow_nan=True, allow_infinity=True)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    floats,
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 5e-324, 1e16, 1e-7]),
    st.sampled_from(Level),
    st.text(max_size=8),
    # finite parts only: the oracle leaves the parts unconverted, so
    # json.dumps refuses a non-finite one (see the layout examples)
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


def containers(children):
    items = st.dictionaries(st.text(max_size=8), children, max_size=5)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        items,
        st.builds(Leaf, children),
        st.builds(Pair, children, children),
        st.builds(Other.Pair, children, children, children),
    )


values = st.recursive(leaves, containers, max_leaves=20)


# the warning is hypothesis writing out the nested strategy's repr
@pytest.mark.filterwarnings("ignore:Generating overly large repr")
@settings(max_examples=300, deadline=None)
@given(values)
def test_json_matches_oracle(value):
    assert json_text(value) == oracle_text(value)


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
        (Pair(Level.HIGH, 0.5), '{\n  "first": 2,\n  "second": 0.5\n}'),
    ],
)
def test_json_layout_examples(value, text):
    assert json_text(value) == text


@pytest.mark.parametrize(
    "value",
    [
        np.int64(3), np.bool_(True), {1, 2}, object(), {"a": [np.int64(1)]},
        Leaf(np.bool_(False)), Leaf, [Pair], b"ab", {"a": b""},
        np.float64(0.5), np.complex128(1j), Seconds(0.5), Count(3), Tag("a"),
        Row([1]), Point(1, 2), collections.OrderedDict(a=1), [Leaf(Seconds(0.5))],
        {1: 2}, {True: 2}, {None: 2}, {Tag("a"): 2},
    ],
    ids=[
        "np.int64", "np.bool_", "set", "object", "nested np.int64", "np.bool_ field",
        "dataclass class", "nested dataclass class", "bytes", "nested bytes",
        "np.float64", "np.complex128", "float subclass", "int subclass", "str subclass",
        "list subclass", "namedtuple", "OrderedDict", "nested float subclass",
        "int key", "bool key", "None key", "str subclass key",
    ],
)
def test_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_json_keys_field_names_on_the_dataclass_type():
    # two dataclass types of one __name__: the field keys are per type object
    other = Other.Pair(1, Pair(2, 3), 4)
    assert type(other).__name__ == Pair.__name__
    record = [Pair(other, Leaf(5)), other, Pair(6, other)]
    text = json_text(record)
    assert text == oracle_text(record)
    assert text.count('"left": 1') == 3 and text.count('"first": ') == 5


def test_json_writes_a_report_built_from_numpy_integers():
    report = refute_finite_order(8, np.int64(11), max_l=np.int64(20))
    assert json_text(report) == json_text(refute_finite_order(8, 11, max_l=20))
    assert json_text(report) == oracle_text(report)


def test_json_writes_a_scan_built_from_numpy_integers():
    scan = scan_intervals("re", np.int64(8), 11)
    assert type(scan.m) is int
    assert json_text(scan) == json_text(scan_intervals("re", 8, 11))
    assert json_text(scan) == oracle_text(scan)


def test_json_writes_a_point_report_built_from_numpy_integers():
    report = nondiscreteness_report(np.int64(8), np.int64(11), 0.3)
    assert (type(report.m), type(report.n)) == (int, int)
    assert json_text(report) == json_text(nondiscreteness_report(8, 11, 0.3))
    assert json_text(report) == oracle_text(report)
    ttype = TriangleType(np.int64(8), np.int64(11), 0.3)
    assert (type(ttype.m), type(ttype.n)) == (int, int)
    assert json_text(ttype) == json_text(TriangleType(8, 11, 0.3))
    assert json_text(ttype) == oracle_text(ttype)


@pytest.mark.parametrize("make, name", [
    (lambda f: scan_intervals("re", f(8.5), 11), "m"),
    (lambda f: refute_finite_order(f(8.0), 11, 10), "m"),
    (lambda f: nondiscreteness_report(8, 11, f(0.3)), "theta"),
    (lambda f: build_mn_inf(5, 7, f(0.3)).ttype, "theta"),
], ids=["scan m", "refutation m", "point report theta", "triangle type theta"])
def test_json_writes_records_built_from_numpy_floats(make, name):
    # a non-integer order and theta are stored as Python floats, which the
    # writer takes; a numpy float it refuses
    record = make(np.float64)
    assert type(getattr(record, name)) is float
    assert json_text(record) == json_text(make(float))
    assert json_text(record) == oracle_text(record)


@pytest.mark.parametrize(
    "make",
    [lambda: nondiscreteness_report(INF, 7, 0.3), lambda: classify(np.eye(3))],
    ids=["word_3132 tag", "classify tag"],
)
def test_json_writes_records_holding_an_isometry_class(make):
    record = make()
    assert '"tag": "' in json_text(record)
    assert json_text(record) == oracle_text(record)


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


@pytest.fixture
def records(monkeypatch):
    """The list of records the command handlers return, in call order."""
    kept = []

    def keep(handler):
        def run(args):
            out = handler(args)
            kept.append(out[0])
            return out

        return run

    for name, handler in list(cli._HANDLERS.items()):
        monkeypatch.setitem(cli._HANDLERS, name, keep(handler))
    return kept


def test_cli_json_records_match_oracle(monkeypatch, records):
    commands = set()
    for argv in sweep_argvs():
        stdout = io.StringIO()
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(argv + ["--format", "json"]) == 0
        assert stdout.getvalue() == oracle_text(records[-1]) + "\n"
        commands.add(argv[0])
    assert commands == {"tables", "scan", "galois", "classify"}
    assert len(records) == 3 + len(SCAN_SLICE) + len(REFUTE_SLICE) + 5


def test_galois_json_record_with_shared_scans_matches_oracle(monkeypatch, records):
    # many near-misses, and each order's ConjugateScan is shared by its near-misses
    stdout = io.StringIO()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["galois", "--m", "8", "--n", "11", "--max-l", "120", "--format", "json"]) == 0
    near = records[0]["results"]["near_misses"]
    assert len(near) == 148
    assert len({id(t.conjugates) for t in near}) < len(near)
    assert stdout.getvalue() == oracle_text(records[0]) + "\n"


class CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_galois_json_record_is_written_while_it_is_walked(monkeypatch):
    # memory is traced from the moment the handler has built the record:
    # writing it holds no output text, so it allocates far less than it writes
    handler = cli._HANDLERS["galois"]

    def run(args):
        out = handler(args)
        tracemalloc.start()
        return out

    monkeypatch.setitem(cli._HANDLERS, "galois", run)
    sink = CountingSink()
    monkeypatch.setattr("sys.stdout", sink)
    try:
        assert main(["galois", "--m", "8", "--n", "11", "--max-l", "120", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 80_000
    assert peak < sink.chars / 10


# the types the writer takes as they are; a dataclass instance or an enum
# member is checked apart, and a dict's keys must be exact str
EXACT_TYPES = (float, int, str, type(None), bool, list, tuple, dict, complex)


def _assert_exact_types(value, path="record"):
    cls = type(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _assert_exact_types(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, enum.Enum):
        _assert_exact_types(value.value, f"{path}.value")
    else:
        assert cls in EXACT_TYPES, (path, cls)
        if cls is dict:
            for k, v in value.items():
                assert type(k) is str, (path, type(k))
                _assert_exact_types(v, f"{path}[{k!r}]")
        elif cls is list or cls is tuple:
            for i, v in enumerate(value):
                _assert_exact_types(v, f"{path}[{i}]")


def test_cli_records_hold_exact_types(monkeypatch, records):
    # the writer relies on this: it writes no subclass and no numpy scalar
    argvs = [["tables", str(which)] for which in (1, 2, 3)]
    argvs += [["scan", "--test", test, "--m", "8", "--n", "11"] for test in SCAN_TESTS]
    argvs += [
        ["galois", "--m", "8", "--n", "11", "--max-l", "120"],
        ["classify", "--m", "8", "--n", "11", "--theta", "acos(-0.25)", "--word", "12312"],
    ]
    monkeypatch.setattr("sys.stdout", io.StringIO())
    for argv in argvs:
        assert main(argv + ["--format", "json"]) == 0
    assert [r["command"] for r in records] == [argv[0] for argv in argvs]
    for record in records:
        _assert_exact_types(record)
