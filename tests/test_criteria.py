import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtriangle import criteria
from chtriangle.classify import IsometryClass, classify
from chtriangle.closed import corner_cos, trace_word_123, trace_word_3132
from chtriangle.criteria import (
    SCAN_TESTS,
    jorgensen_condition,
    jorgensen_value,
    nondiscreteness_report,
    order_k_locus,
    regular_elliptic_criterion,
    regular_elliptic_value,
    reproduce_table,
    scan_intervals,
    shimizu_condition,
    shimizu_value,
    word_3132_analysis,
    word_order_cos_window,
)
from chtriangle.cyclotomic import refute_finite_order
from chtriangle.heisenberg import shimizu_violation
from chtriangle.triangles import TriangleType, build_mn_inf, build_n_inf_inf
from helpers import json_text, make_rng, scan_intervals_oracle

INF = math.inf


def test_ideal_triangle_re_scan_is_goldman_parker_threshold():
    # 61/64 = -cos(2A) with tan^2 A = 125/3: Goldman and Parker's bound
    assert scan_intervals("re", INF, INF).intervals == ((61 / 64, 1.0),)
    assert -math.cos(2 * math.atan(math.sqrt(125 / 3))) == pytest.approx(61 / 64, rel=1e-15)


def test_regular_elliptic_criterion_inside_and_outside():
    assert regular_elliptic_criterion(8, 11, math.acos(0.931)).fires
    assert not regular_elliptic_criterion(8, 11, math.acos(0.92)).fires
    for a in np.linspace(-1, 1, 201):
        assert not regular_elliptic_criterion(8, 10, math.acos(float(a))).fires


def test_regular_elliptic_tangent_threshold():
    for n in range(3, 26):
        theta = math.acos(corner_cos(n))
        fires = regular_elliptic_criterion(INF, n, theta).fires
        assert fires == (n >= 10), n


def test_jorgensen_condition_values_and_precondition():
    assert jorgensen_condition(8, 7, math.acos(0.995))
    assert not jorgensen_condition(8, 7, math.acos(0.99))
    with pytest.raises(ValueError):
        jorgensen_condition(8, 6, 0.5)
    with pytest.raises(ValueError):
        jorgensen_value(8, INF, 0.5)


def test_jorgensen_tangent_threshold():
    for n in range(7, 31):
        theta = math.acos(corner_cos(n))
        assert jorgensen_condition(INF, n, theta) == (n >= 19), n


def test_shimizu_condition_examples():
    assert shimizu_condition(8, 4, math.acos(0.9999))
    assert not shimizu_condition(8, 4, math.acos(0.9))
    for a in np.linspace(-1, 1, 201):
        assert not shimizu_condition(8, 3, math.acos(float(a)))


def test_shimizu_tangent_threshold_with_matrix_oracle():
    # the closed inequality and the matrix-level Shimizu certificate agree;
    # at a = cos(pi/n) both first fire at n = 31
    first = None
    for n in range(3, 45):
        theta = math.acos(corner_cos(n))
        fires = shimizu_condition(INF, n, theta)
        group = build_mn_inf(n, math.inf, theta)
        matrix_fires = shimizu_violation(group.word("23"), group.involutions[0])
        assert fires == matrix_fires, n
        if fires and first is None:
            first = n
    assert first == 31


@pytest.mark.parametrize("m, n", [(2, 8), (1, 8), (8, 2), (8, -3), (math.nan, 8), (8, math.nan)])
def test_point_criteria_reject_corner_orders_below_3(m, n):
    for criterion in (regular_elliptic_criterion, jorgensen_condition, shimizu_condition):
        with pytest.raises(ValueError, match="must be >= 3 or infinity"):
            criterion(m, n, 0.3)


@pytest.mark.parametrize("theta", [math.nan, -0.1, math.pi + 0.1])
@pytest.mark.parametrize("criterion", [regular_elliptic_criterion, jorgensen_condition,
                                       shimizu_condition])
def test_point_criteria_reject_theta_outside_0_pi(criterion, theta):
    # NaN used to answer "does not fire", with trace nan+nanj
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\]$"):
        criterion(8, 20, theta)


def test_scan_rejects_bad_parameters():
    with pytest.raises(ValueError):
        scan_intervals("nope", 8, 11)


@pytest.mark.parametrize("test, m, n", [
    ("re", 1, 8), ("shimizu", 2, 2), ("jorgensen", 8, 2), ("re", 0, 11),
    ("re", 8, -5), ("shimizu", 2.9, 11), ("re", math.nan, 11),
    # -inf is no order: the m = inf interval must not come back
    ("re", -INF, 8), ("jorgensen", -INF, 8), ("shimizu", 8, -INF),
])
def test_scan_rejects_corner_orders_below_3(test, m, n):
    with pytest.raises(ValueError, match="must be >= 3 or infinity"):
        scan_intervals(test, m, n)


def test_scan_accepts_equal_and_non_integer_orders():
    # the survey tables scan m = n, and the criteria are continuous in n
    assert scan_intervals("re", 8, 8).intervals == scan_intervals("re", 8.0, 8.0).intervals
    assert scan_intervals("shimizu", math.inf, 3).test == "shimizu"
    assert scan_intervals("re", 8, 10.5).intervals


def test_scan_regular_elliptic_regression():
    scan = scan_intervals("re", 8, 11)
    assert len(scan.intervals) == 1
    lo, hi = scan.intervals[0]
    assert lo == pytest.approx(0.9309670, abs=1e-6)
    assert hi == pytest.approx(0.9311444, abs=1e-6)
    assert scan_intervals("re", 8, 10).intervals == ()


def test_scan_jorgensen_rows():
    scan = scan_intervals("jorgensen", 8, 100)
    assert len(scan.intervals) == 1
    assert scan.intervals[0][0] == pytest.approx(0.99911, abs=1e-4)
    assert scan.intervals[0][1] == pytest.approx(1.0, abs=1e-12)
    assert scan_intervals("jorgensen", 8, 6).intervals == ()
    assert scan_intervals("jorgensen", 8, 130).intervals == ()
    assert scan_intervals("jorgensen", 8, 200).intervals == ()


def test_scan_shimizu_rows():
    scan = scan_intervals("shimizu", 8, 200)
    assert len(scan.intervals) == 1
    assert scan.intervals[0][0] == pytest.approx(0.99481, abs=1e-4)
    scan = scan_intervals("shimizu", 8, 5)
    assert scan.intervals[0][0] == pytest.approx(0.99419, abs=1e-4)


def test_scan_intervals_are_sound():
    fns = {
        "re": regular_elliptic_value,
        "jorgensen": jorgensen_value,
        "shimizu": shimizu_value,
    }
    rng = make_rng(103)
    for test, m, n in (
        ("re", 8, 12),
        ("re", INF, 9),
        ("jorgensen", 8, 8),
        ("shimizu", 8, 4),
        ("shimizu", INF, 5),
    ):
        scan = scan_intervals(test, m, n)
        assert list(scan.intervals) == sorted(scan.intervals)
        for lo, hi in scan.intervals:
            assert -1 <= lo < hi <= 1
            assert fns[test](m, n, 0.5 * (lo + hi)) < 0
            for _ in range(20):
                a = float(rng.uniform(lo + 1e-9, hi - 1e-9))
                assert fns[test](m, n, a) < 0
        for (a, b), (c, d) in zip(scan.intervals, scan.intervals[1:]):
            assert b < c


def test_scan_endpoints_bracket_sign_changes():
    scan = scan_intervals("re", 8, 12)
    (lo, hi), = scan.intervals
    eps = 1e-7
    assert regular_elliptic_value(8, 12, lo - eps) > 0
    assert regular_elliptic_value(8, 12, lo + eps) < 0
    assert regular_elliptic_value(8, 12, hi - eps) < 0
    assert regular_elliptic_value(8, 12, hi + eps) > 0


def _assert_scan_matches_oracle(test, m, n):
    got = scan_intervals(test, m, n).intervals
    want = scan_intervals_oracle(test, m, n).intervals
    assert len(got) == len(want), (test, m, n, got, want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-8), (test, m, n, got, want)


@pytest.mark.parametrize("test", SCAN_TESTS)
def test_scan_matches_grid_oracle(test):
    # every m = n case included: there a = 1 is an exact root of the
    # regular elliptic discriminant
    for m in tuple(range(3, 21)) + (INF,):
        for n in sorted({3, 7, 11, 19, 31, 60, 113, 200} | ({m} - {INF})):
            _assert_scan_matches_oracle(test, m, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    test=st.sampled_from(SCAN_TESTS),
    m=st.one_of(st.integers(3, 60), st.just(INF)),
    n=st.integers(3, 300),
)
def test_scan_matches_grid_oracle_property(test, m, n):
    _assert_scan_matches_oracle(test, m, n)


orders = st.one_of(st.floats(3, 1e300), st.just(INF))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    test=st.sampled_from(SCAN_TESTS),
    m=orders,
    n=orders,
    extra=st.lists(st.floats(-1, 1), max_size=6),
)
def test_extra_breakpoints_never_change_a_scan(test, m, n, extra):
    # an extra breakpoint only splits a piece of one sign, so the scan
    # stays byte-equal while it keeps clear of the merge distance of every
    # true breakpoint and of -1 and 1
    closed_form = criteria._closed_form
    form = closed_form(test, m, n)
    true = (form.breakpoints(form.value) if form else []) + [-1.0, 1.0]
    extra = [x for x in extra if all(abs(x - b) > 2 * criteria.MERGE_TOL for b in true)]
    want = scan_intervals(test, m, n)

    def with_extra(*key):
        form = closed_form(*key)
        return form and form._replace(breakpoints=lambda value: form.breakpoints(value) + extra)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria, "_closed_form", with_extra)
        got = scan_intervals(test, m, n)
    assert repr(got) == repr(want)


def _defining_value_mp(test, m, n, a):
    """The three defining functions in mpmath arithmetic."""
    pi = mpmath.pi
    s1 = mpmath.cos(pi / n)
    s2 = mpmath.cos(pi / m)
    sin_theta = mpmath.sqrt(1 - a * a)
    if test == "re":
        c = -5 - 2 * mpmath.cos(2 * pi / m) - 2 * mpmath.cos(2 * pi / n)
        tau = c + 8 * s1 * s2 * mpmath.mpc(a, sin_theta)
        return abs(tau) ** 4 - 8 * (tau**3).real + 18 * abs(tau) ** 2 - 27
    if test == "jorgensen":
        return abs(s1 * s1 + 2 * s2 * s2 - 4 * s1 * s2 * a + 1) - mpmath.sin(pi / n) / 2
    u = s1 * s1 + s2 * s2 - 2 * s1 * s2 * a
    return abs(mpmath.mpc(u, -2 * s1 * s2 * sin_theta)) + 4 * u - mpmath.mpf(1) / 4


@pytest.mark.parametrize(
    "test, m, n",
    [
        # roots of the monomial cubic alone are off by up to 2e-10 here
        ("re", INF, 178),
        ("re", INF, 191),
        ("re", INF, 200),
        ("re", 8, 11),
        ("jorgensen", 8, 100),
        ("shimizu", 8, 200),
    ],
)
def test_scan_endpoints_match_40_digit_roots(test, m, n):
    scan = scan_intervals(test, m, n)
    ends = [x for iv in scan.intervals for x in iv if -1.0 < x < 1.0]
    assert ends
    with mpmath.workdps(40):
        f = lambda a: _defining_value_mp(test, m, n, a)
        step = mpmath.mpf("1e-7")
        for x in ends:
            root = mpmath.findroot(f, (x - step, x + step), solver="anderson")
            assert abs(root - x) <= scan.tol / 2, (test, m, n, x, root)


def test_scan_finds_intervals_narrower_than_the_grid_step(monkeypatch):
    # just after the regular elliptic interval for m = 8 is born between
    # n = 10 and 11 it is 5e-7 wide, below the 2e-5 step of the grid scan
    n = 10.2379
    (lo, hi), = scan_intervals("re", 8, n).intervals
    assert 0 < hi - lo < 1e-6
    assert regular_elliptic_value(8, n, lo - 1e-8) > 0 > regular_elliptic_value(8, n, lo + 1e-8)
    assert regular_elliptic_value(8, n, hi - 1e-8) < 0 < regular_elliptic_value(8, n, hi + 1e-8)
    assert scan_intervals_oracle("re", 8, n).intervals == ()
    # roots closer than MERGE_TOL merge: at 1e-6 the interval is below resolution
    monkeypatch.setattr(criteria, "MERGE_TOL", 1e-6)
    assert scan_intervals("re", 8, n).intervals == ()


def test_reproduce_table_structure():
    table = reproduce_table(2)
    assert table.columns == ("jorgensen_lo", "shimizu_lo")
    byn = {row.n: row.cells for row in table.rows}
    assert byn[4]["jorgensen_lo"] is None
    assert byn[200]["jorgensen_lo"] is None
    assert byn[4]["shimizu_lo"] == pytest.approx(0.99961, abs=1e-4)
    with pytest.raises(ValueError):
        reproduce_table(4)


def test_reproduce_table_refuses_bool():
    # True == 1 is a key of TABLE_ROWS, but no table index
    with pytest.raises(ValueError, match="^table index must be 1, 2 or 3$"):
        reproduce_table(True)


@pytest.mark.parametrize("which", [1.0, 2.0, np.float64(3.0), "1"])
def test_reproduce_table_refuses_non_integers(which):
    # 1.0 == 1 is a key of TABLE_ROWS, but no table index
    with pytest.raises(ValueError, match="^table index must be 1, 2 or 3$"):
        reproduce_table(which)


def test_reproduce_table_accepts_numpy_integers():
    table = reproduce_table(np.int64(1))
    assert type(table.table) is int
    assert table == reproduce_table(1)


def test_reproduce_table_1_values():
    table = reproduce_table(1)
    byn = {row.n: row.cells for row in table.rows}
    assert byn[12]["elliptic_lo"] == pytest.approx(0.93226, abs=1e-4)
    assert byn[12]["elliptic_hi"] == pytest.approx(0.93268, abs=1e-4)


def test_word_3132_analysis_boundary_values():
    for n in (4, 7, 12):
        s = corner_cos(n)
        at_tangent = word_3132_analysis(n, s)
        assert at_tangent.trace == pytest.approx(3.0, abs=1e-12)
        assert at_tangent.tag is IsometryClass.UNIPOTENT_PARABOLIC
    upper = (1 + 4 * corner_cos(3) ** 2) / (4 * corner_cos(3))
    at_upper = word_3132_analysis(3, upper)
    assert at_upper.trace == pytest.approx(-1.0, abs=1e-12)
    assert at_upper.tag is IsometryClass.BOUNDARY_ELLIPTIC
    # s = 0.5 + 1e-7 puts the order-2 locus 2e-14 above a = 1, within the
    # boundary tolerance: the geometric a next to it take its class
    n = math.pi / math.acos(0.5 + 1e-7)
    assert 1.0 < (1 + 4 * corner_cos(n) ** 2) / (4 * corner_cos(n)) < 1.0 + 1e-12
    for a in (1.0, 1.0 - 1e-13):
        assert word_3132_analysis(n, a).tag is IsometryClass.BOUNDARY_ELLIPTIC


def test_word_3132_analysis_matches_matrix_classification():
    rng = make_rng(107)
    done = 0
    while done < 100:
        n = int(rng.randint(3, 20))
        a = float(rng.uniform(-0.999, 0.999))
        s = corner_cos(n)
        # stay away from the two transition points, where the closed-form
        # tag is exact but the matrix route is numerically borderline
        upper = (1 + 4 * s * s) / (4 * s)
        if min(abs(a - s), abs(a - upper)) < 1e-4:
            continue
        analysis = word_3132_analysis(n, a)
        group = build_mn_inf(n, math.inf, math.acos(a))
        word = group.word("3132")
        assert analysis.trace == pytest.approx(trace_word_3132(n, a), abs=1e-12)
        assert classify(word).tag is analysis.tag, (n, a)
        done += 1


def test_order_k_locus_values():
    s = corner_cos(7)
    expected = (8 * s * s - math.cos(2 * math.pi / 5) + 1) / (8 * s)
    a = order_k_locus(7, 5)
    assert a == pytest.approx(expected, abs=1e-15)
    assert a == pytest.approx(0.9968355274288683, abs=1e-12)
    assert trace_word_3132(7, a) == pytest.approx(
        1 + 2 * math.cos(2 * math.pi / 5), abs=1e-12
    )
    with pytest.raises(ValueError):
        order_k_locus(7, 1)
    with pytest.raises(ValueError):
        order_k_locus(7, 3)  # no parameter in [-1, 1]


@pytest.mark.parametrize("k", [math.nan, 1, 1.5, 0, -INF])
def test_order_k_locus_rejects_k_below_2_and_nan(k):
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        order_k_locus(7, k)


@pytest.mark.parametrize("k", [7.5, 2.5, 1e9 + 0.5, True, False])
def test_order_k_locus_rejects_non_integer_k_and_bools(k):
    with pytest.raises(ValueError, match="^k must be "):
        order_k_locus(7, k)


def test_order_k_locus_at_infinite_k_is_the_parabolic_point():
    # trace 3: the word 3132 is unipotent parabolic at a = cos(pi/n)
    for n in (3, 4, 5, 7, 8, 11, 100):
        assert order_k_locus(n, INF) == math.cos(math.pi / n)
    assert order_k_locus(7, INF) == 0.9009688679024191
    assert order_k_locus(7, np.int64(5)) == order_k_locus(7, 5.0) == order_k_locus(7, 5)


@pytest.mark.parametrize("n", [math.nan, INF, 2, 1, -3])
def test_word_3132_analysis_and_order_k_locus_reject_bad_orders(n):
    with pytest.raises(ValueError, match="^n must be"):
        word_3132_analysis(n, 0.9)
    with pytest.raises(ValueError, match="^n must be"):
        order_k_locus(n, 5)
    with pytest.raises(ValueError, match="^n must be"):
        word_order_cos_window(n)


@pytest.mark.parametrize("call, message", [
    (lambda: word_3132_analysis(7, 1.5), r"^a = cos\(theta\) must lie in \[-1, 1\]$"),
    (lambda: word_3132_analysis(7, -1.5), r"^a = cos\(theta\) must lie in \[-1, 1\]$"),
    (lambda: word_3132_analysis(7, math.nan), r"^a = cos\(theta\) must lie in \[-1, 1\]$"),
    (lambda: word_3132_analysis(7, np.float64(1.5)), r"^a = cos\(theta\) must lie in \[-1, 1\]$"),
    (lambda: word_order_cos_window(3), "^no certified interval reaching a = 1 for n = 3$"),
    (lambda: word_order_cos_window(4), "^no certified interval reaching a = 1 for n = 4$"),
], ids=["a-above-1", "a-below-minus-1", "a-nan", "a-np.float64-above-1", "window-n3",
        "window-n4"])
def test_word_3132_functions_refuse_out_of_range_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("a, plain", [
    (np.float64(0.5), 0.5), (np.float32(0.25), 0.25), (np.int64(1), 1.0), (True, 1.0),
], ids=["np.float64", "np.float32", "np.int64", "bool"])
def test_word_3132_analysis_takes_a_through_float(a, plain):
    # a is taken as the value functions take it, so the record holds a
    # Python float that the JSON writer accepts
    got = word_3132_analysis(7, a)
    assert type(got.trace) is float
    assert got == word_3132_analysis(7, plain)
    assert json_text(got) == json_text(word_3132_analysis(7, plain))


def test_word_3132_analysis_accepts_non_integer_orders():
    # the closed forms are continuous in n
    analysis = word_3132_analysis(7.5, 0.9)
    assert analysis.trace == pytest.approx(trace_word_3132(7.5, 0.9), abs=1e-15)
    assert -1.0 <= order_k_locus(7.5, 6) <= 1.0


def test_word_order_window_maps_the_certified_ends_through_the_3132_trace():
    # bit for bit the former relation cos(2 pi/k) = 8 s^2 + 1 - 8 s a
    for n in range(5, 301):
        pieces = []
        for test in SCAN_TESTS:
            pieces.extend(scan_intervals(test, INF, n).intervals)
        a_lo = criteria._merge_intervals(pieces)[-1][0]
        s = corner_cos(n)
        assert word_order_cos_window(n) == (8 * s * s + 1 - 8 * s, 8 * s * s + 1 - 8 * s * a_lo), n


def test_word_order_window_for_seven():
    lo, hi = word_order_cos_window(7)
    assert lo == pytest.approx(0.2862083, abs=1e-6)
    assert hi == pytest.approx(0.3204880, abs=1e-6)
    assert lo < math.cos(2 * math.pi / 5) < hi


def test_nondiscreteness_report_examples():
    report = nondiscreteness_report(INF, 7, math.acos(order_k_locus(7, 5)))
    assert report.certified
    assert report.verdict == "certified non-discrete"
    assert "shimizu" in report.fired
    assert report.word_3132.tag is IsometryClass.REGULAR_ELLIPTIC

    quiet = nondiscreteness_report(INF, 4, math.pi / 4)
    assert not quiet.certified
    assert quiet.verdict == "no certificate"
    assert quiet.fired == ()
    assert quiet.jorgensen is None

    table_point = nondiscreteness_report(8, 11, math.acos(0.931))
    assert table_point.certified
    assert "re" in table_point.fired


@pytest.mark.parametrize(
    "m, n, theta",
    [
        (5, 7, math.nan),
        (5, 7, -0.1),
        (5, 7, math.pi + 1e-9),
        (INF, 7, math.nan),
        (2, 7, 0.3),
        (5, 2, 0.3),
        (math.nan, 7, 0.3),
        (5, math.nan, 0.3),
        (1, INF, 0.3),
    ],
)
def test_nondiscreteness_report_rejects_bad_inputs(m, n, theta):
    with pytest.raises(ValueError, match="must"):
        nondiscreteness_report(m, n, theta)


def test_nondiscreteness_report_accepts_endpoints_and_non_integer_orders():
    for m, n, theta in ((8, 11, 0.0), (8, 11, math.pi), (INF, 7.5, 0.3), (3.5, 4, 1.0)):
        report = nondiscreteness_report(m, n, theta)
        assert report.a == math.cos(theta)
        assert report.verdict in ("certified non-discrete", "no certificate")


def test_point_criteria_traces_equal_the_closed_forms():
    for m, n in ((8, 11), (INF, 7), (3.5, 4)):
        report = nondiscreteness_report(m, n, 0.3)
        assert report.regular_elliptic.trace == trace_word_123(m, n, 0.3)
    report = nondiscreteness_report(INF, 7, 0.3)
    assert report.word_3132.trace == trace_word_3132(7, math.cos(0.3))


HUGE = 8 * 10**400  # above the largest float: pi/HUGE has no float value


@pytest.mark.parametrize("name, call", [
    ("m", lambda: scan_intervals("re", HUGE, 11)),
    ("n", lambda: scan_intervals("shimizu", INF, HUGE)),
    ("n", lambda: nondiscreteness_report(8, HUGE, 0.3)),
    ("m", lambda: refute_finite_order(HUGE, 11)),
    ("n", lambda: refute_finite_order(8, HUGE)),
    ("n", lambda: build_mn_inf(8, HUGE, 0.3)),
    ("n", lambda: build_n_inf_inf(HUGE, 0.3)),
    ("m", lambda: TriangleType(HUGE, 7, 0.3)),
    ("m", lambda: trace_word_123(HUGE, 7, 0.3)),
    ("n", lambda: trace_word_3132(HUGE, 0.3)),
    ("n", lambda: word_3132_analysis(HUGE, 0.5)),
    ("n", lambda: order_k_locus(HUGE, 5)),
    ("k", lambda: order_k_locus(7, HUGE)),
], ids=["scan_intervals", "scan_intervals-inf", "nondiscreteness_report", "refute-m", "refute-n",
        "build_mn_inf", "build_n_inf_inf", "TriangleType", "trace_word_123", "trace_word_3132",
        "word_3132_analysis", "order_k_locus-n", "order_k_locus-k"])
def test_orders_too_large_for_a_float_are_refused(name, call):
    # each used to raise OverflowError from cos(pi/order)
    with pytest.raises(ValueError, match=f"^{name} is too large for a float; pass inf"):
        call()


def test_orders_up_to_the_largest_float_are_accepted():
    big = 10**300
    assert order_k_locus(7, big) == order_k_locus(7, INF)
    assert scan_intervals("re", big, 11).intervals == scan_intervals("re", INF, 11).intervals
