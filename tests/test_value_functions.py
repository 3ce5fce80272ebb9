"""The defining functions of the three criteria take one scalar a and
evaluate it on Python floats.  That path must give the bits of the 0-d
array evaluation in helpers.py, and the scans built on it must equal scans
that read every midpoint sign from a 1-d array and agree with the point
criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtriangle import criteria
from chtriangle.criteria import (
    SCAN_TESTS,
    TABLE_ROWS,
    jorgensen_applies,
    jorgensen_condition,
    regular_elliptic_criterion,
    reproduce_table,
    scan_intervals,
    shimizu_condition,
)
from helpers import (
    VALUE_ORACLES,
    make_rng,
    regular_elliptic_value_oracle,
    scan_intervals_array_oracle,
)

INF = math.inf
ORDERS = (3, 4, 5, 7, 8, 11, 20, 200, 3.5, 7.25, 12.5, INF)
# every (test, m, n) the survey benchmark can draw: 11,286 scans
SURVEY_SPACE = [
    (test, m, n)
    for test in SCAN_TESTS
    for m in tuple(range(3, 21)) + (INF,)
    for n in range(3, 201)
]

POINT_CRITERIA = {
    "re": lambda m, n, theta: regular_elliptic_criterion(m, n, theta).fires,
    "jorgensen": jorgensen_condition,
    "shimizu": shimizu_condition,
}


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(SCAN_TESTS),
    st.sampled_from(ORDERS),
    st.sampled_from(ORDERS),
    st.one_of(
        st.floats(min_value=-1.0, max_value=1.0),
        st.sampled_from([-1.0, 1.0, 0.0, -0.0]),
    ),
)
def test_scalar_value_is_bit_equal_to_the_0d_array_path(test, m, n, a):
    if test == "jorgensen" and not jorgensen_applies(n):
        return
    value = criteria._VALUE_FUNCTIONS[test]
    want = VALUE_ORACLES[test](m, n, a)
    got = value(m, n, a)
    assert type(got) is float
    assert same_bits(got, want), (test, m, n, a)
    # numpy scalars and 0-d arrays take the float path too
    for other in (np.float64(a), np.float32(a), np.array(a)):
        got = value(m, n, other)
        assert type(got) is float
        assert same_bits(got, VALUE_ORACLES[test](m, n, other))
    # an array is refused, not evaluated elementwise
    for batch in (np.array([a, 0.5 * a, -a]), np.array([a])):
        with pytest.raises(TypeError):
            value(m, n, batch)


def test_every_survey_scan_equals_the_array_path_oracle(monkeypatch):
    got_scans = [scan_intervals(*key) for key in SURVEY_SPACE]
    got_tables = [reproduce_table(which) for which in TABLE_ROWS]
    # the oracle polishes roots with the 0-d evaluation and reads the
    # midpoint signs from one 1-d array
    monkeypatch.setattr(criteria, "regular_elliptic_value", regular_elliptic_value_oracle)
    want_scans = [scan_intervals_array_oracle(*key) for key in SURVEY_SPACE]
    monkeypatch.setattr(criteria, "scan_intervals", scan_intervals_array_oracle)
    want_tables = [reproduce_table(which) for which in TABLE_ROWS]
    assert len(got_scans) == 11_286
    assert got_scans == want_scans
    assert got_tables == want_tables


def test_scans_agree_with_the_point_criteria():
    rng = make_rng(307)
    checked = {test: 0 for test in SCAN_TESTS}
    for _ in range(600):
        test, m, n = SURVEY_SPACE[rng.randint(len(SURVEY_SPACE))]
        if test == "jorgensen" and not jorgensen_applies(n):
            continue
        scan = scan_intervals(test, m, n)
        value = criteria._VALUE_FUNCTIONS[test]
        # random points, and points just inside and outside every endpoint
        samples = list(rng.uniform(-1.0, 1.0, size=8))
        for lo, hi in scan.intervals:
            samples += [lo - 1e-5, lo + 1e-5, hi - 1e-5, hi + 1e-5]
        for a in samples:
            a = float(a)
            if not -1.0 < a < 1.0 or abs(value(m, n, a)) < 1e-6:
                continue
            fires = POINT_CRITERIA[test](m, n, math.acos(a))
            assert scan.contains(a) == fires, (test, m, n, a)
            checked[test] += 1
    assert min(checked.values()) >= 1000, checked


def test_re_point_criterion_firing_implies_the_scan_contains_a():
    # one way only: the scan fires where f < 0, the point criterion where
    # the discriminant of tr(123), built from e^{i theta}, is below
    # -EPS_DISCRIMINANT, so just inside an endpoint the scan may contain
    # an a at which the point criterion does not fire
    checked = 0
    for test, m, n in SURVEY_SPACE:
        if test != "re":
            continue
        scan = scan_intervals(test, m, n)
        for lo, hi in scan.intervals:
            for end in (lo, hi):
                for j in range(-30, 31):
                    a = end + j * 1e-10
                    if not -1.0 <= a <= 1.0:
                        continue
                    if regular_elliptic_criterion(m, n, math.acos(a)).fires:
                        assert scan.contains(a), (m, n, a)
                    checked += 1
    assert checked == 329_034


@pytest.mark.parametrize("test", SCAN_TESTS)
def test_scan_midpoints_take_the_float_path(monkeypatch, test):
    seen = []
    value = criteria._VALUE_FUNCTIONS[test]

    def spy(m, n, a):
        seen.append(type(a))
        return value(m, n, a)

    monkeypatch.setitem(criteria._VALUE_FUNCTIONS, test, spy)
    scan_intervals(test, 8, 20)
    assert 1 <= len(seen) <= 4
    assert set(seen) == {float}
