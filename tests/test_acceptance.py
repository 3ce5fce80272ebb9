"""Acceptance suite: one test per criterion, each at its stated tolerance.

A terminal-summary hook in conftest.py prints one pass/fail line per
criterion at the end of the run.
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from chtriangle.classify import discriminant, trace
from chtriangle.closed import corner_cos, trace_word_123, trace_word_3132
from chtriangle.criteria import (
    jorgensen_condition,
    nondiscreteness_report,
    order_k_locus,
    regular_elliptic_criterion,
    reproduce_table,
    scan_intervals,
    shimizu_condition,
    shimizu_value,
    word_order_cos_window,
)
from chtriangle.cyclotomic import CyclotomicInt, refute_finite_order, trace_circle_rightmost
from chtriangle.heisenberg import (
    HeisenbergPoint,
    boundary_action,
    heis_mul,
    isometric_sphere,
    shimizu_violation,
    translation_of,
)
from chtriangle.linalg import hermitian_form
from chtriangle.triangles import build_mn_inf
from helpers import make_rng

INF = math.inf
TOL = 1e-4

# The printed table gives 0.93067 as the n = 11 lower endpoint: 0.93097
# with a digit dropped.  The discriminant is positive at 0.93067, so it
# is no endpoint; test_criterion_01_n11_row_without_grid_scan holds the
# evidence for the corrected value.
PRINTED_TABLE1_N11_LO = 0.93067

EXPECTED_TABLE1 = {
    11: (0.93097, 0.93114),
    12: (0.93226, 0.93268),
    13: (0.93318, 0.93377),
    14: (0.93386, 0.93454),
    15: (0.93437, 0.93512),
    20: (0.93575, 0.93654),
    30: (0.93662, 0.93733),
    40: (0.93690, 0.93757),
    100: (0.93719, 0.93780),
    200: (0.93723, 0.93783),
}

EXPECTED_TABLE2_JORGENSEN = {
    7: 0.99170, 8: 0.98685, 9: 0.98459, 10: 0.98363,
    20: 0.98750, 30: 0.99147, 100: 0.99911,
}

EXPECTED_TABLE2_SHIMIZU = {
    4: 0.99961, 5: 0.99419, 6: 0.99289, 7: 0.99279, 8: 0.99299, 9: 0.99323,
    10: 0.99346, 20: 0.99442, 30: 0.99464, 100: 0.99480, 200: 0.99481,
}

# The printed Shimizu threshold for the tangent family a = cos(pi/n) is
# 61, about twice the value its own inequality gives: the defining
# function changes sign between n = 30 and n = 31, and the matrix-level
# certificate agrees (test_criterion_04_shimizu_threshold_matrix_certificate).
PRINTED_SHIMIZU_TANGENT_THRESHOLD = 61
SHIMIZU_TANGENT_THRESHOLD = 31

# elliptic_lo, elliptic_hi, jorgensen_lo, shimizu_lo; None marks a dash
EXPECTED_TABLE3 = {
    4: (None, None, None, None),
    5: (None, None, None, 0.99857),
    6: (None, None, None, 0.99624),
    7: (None, None, 0.99748, 0.99524),
    8: (0.93724, 0.93784, 0.99099, 0.99482),
    9: (0.94201, 0.94794, 0.98756, 0.99463),
    10: (0.94476, 0.95631, 0.98575, 0.99454),
    15: (0.94993, 0.97914, 0.98472, 0.99451),
    20: (0.95142, 0.98799, 0.98647, 0.99455),
    40: (0.95272, 0.99694, 0.99171, 0.99461),
    100: (0.95306, 0.99951, 0.99632, 0.99463),
    200: (0.95311, 0.99988, 0.99809, 0.99464),
}


def _check_cell(mismatches, label, got, want, tol=TOL):
    if want is None:
        if got is not None:
            mismatches.append(f"{label}: expected dash, got {got:.6f}")
    elif got is None:
        mismatches.append(f"{label}: expected {want}, got dash")
    elif abs(got - want) > tol:
        mismatches.append(f"{label}: expected {want}, got {got:.6f} (off {abs(got - want):.2e})")


def test_criterion_01_table1_reproduction():
    start = time.perf_counter()
    mismatches = []
    for n, (lo_want, hi_want) in EXPECTED_TABLE1.items():
        scan = scan_intervals("re", 8, n)
        if len(scan.intervals) != 1:
            mismatches.append(f"n={n}: expected one interval, got {scan.intervals}")
            continue
        lo, hi = scan.intervals[0]
        _check_cell(mismatches, f"n={n} lo", lo, lo_want)
        _check_cell(mismatches, f"n={n} hi", hi, hi_want)
    if scan_intervals("re", 8, 10).intervals != ():
        mismatches.append("n=10: expected no interval")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"table 1 took {elapsed:.1f}s"
    assert not mismatches, "table 1 cells outside tolerance: " + "; ".join(mismatches)


def _discriminant_123_mp(m, n, a):
    """f(tr 123) for finite m, n at a = cos(theta), evaluated in mpmath
    from the closed-form trace -5 - 2cos(2pi/m) - 2cos(2pi/n)
    + 8 cos(pi/m) cos(pi/n) e^(i theta)."""
    a = mpmath.mpf(a)
    pi = mpmath.pi
    c = -5 - 2 * mpmath.cos(2 * pi / m) - 2 * mpmath.cos(2 * pi / n)
    r = 8 * mpmath.cos(pi / m) * mpmath.cos(pi / n)
    tau = c + r * mpmath.mpc(a, mpmath.sqrt(1 - a * a))
    return abs(tau) ** 4 - 8 * (tau**3).real + 18 * abs(tau) ** 2 - 27


def test_criterion_01_n11_row_without_grid_scan():
    lo_want, hi_want = EXPECTED_TABLE1[11]
    with mpmath.workdps(40):
        f = lambda a: _discriminant_123_mp(8, 11, a)
        below, inside, above = mpmath.mpf("0.9305"), mpmath.mpf("0.9310"), mpmath.mpf("0.9315")
        assert f(below) > 0 > f(inside) and f(above) > 0
        lo = mpmath.findroot(f, (below, inside), solver="anderson")
        hi = mpmath.findroot(f, (inside, above), solver="anderson")
        # each root is isolated by a sign change across a 2e-12 bracket
        eps = mpmath.mpf("1e-12")
        assert f(lo - eps) > 0 > f(lo + eps)
        assert f(hi - eps) < 0 < f(hi + eps)
        printed = f(PRINTED_TABLE1_N11_LO)
    assert abs(float(lo) - lo_want) <= TOL
    assert abs(float(hi) - hi_want) <= TOL
    (scan,) = scan_intervals("re", 8, 11).intervals
    assert abs(scan[0] - float(lo)) <= 1e-6
    assert abs(scan[1] - float(hi)) <= 1e-6

    # the printed lower endpoint lies outside the interval: 123 is not
    # regular elliptic there, by a margin far above float error
    group = build_mn_inf(8, 11, math.acos(PRINTED_TABLE1_N11_LO))
    at_printed = discriminant(trace(group.word("123")))
    assert at_printed > 0
    assert at_printed == pytest.approx(float(printed), rel=1e-3)

    # the interval opens between n = 10 and n = 11 and widens with n; the
    # printed endpoint would make the n = 11 row wider than the n = 12 row
    widths = [EXPECTED_TABLE1[n][1] - EXPECTED_TABLE1[n][0] for n in range(11, 16)]
    assert widths == sorted(widths)
    assert hi_want - PRINTED_TABLE1_N11_LO > widths[1]


def test_criterion_02_table2_reproduction():
    start = time.perf_counter()
    mismatches = []
    for n, want in EXPECTED_TABLE2_JORGENSEN.items():
        scan = scan_intervals("jorgensen", 8, n)
        got = scan.intervals[-1][0] if scan.intervals else None
        _check_cell(mismatches, f"jorgensen n={n}", got, want)
    for n in (6, 200):
        if scan_intervals("jorgensen", 8, n).intervals != ():
            mismatches.append(f"jorgensen n={n}: expected empty")
    for n, want in EXPECTED_TABLE2_SHIMIZU.items():
        scan = scan_intervals("shimizu", 8, n)
        got = scan.intervals[-1][0] if scan.intervals else None
        _check_cell(mismatches, f"shimizu n={n}", got, want)
    if scan_intervals("shimizu", 8, 3).intervals != ():
        mismatches.append("shimizu n=3: expected empty")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"table 2 took {elapsed:.1f}s"
    assert not mismatches, "table 2 cells outside tolerance: " + "; ".join(mismatches)


def test_criterion_03_table3_reproduction():
    start = time.perf_counter()
    table = reproduce_table(3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"table 3 took {elapsed:.1f}s"
    mismatches = []
    byn = {row.n: row.cells for row in table.rows}
    assert set(byn) == set(EXPECTED_TABLE3)
    for n, (lo, hi, jor, shi) in EXPECTED_TABLE3.items():
        cells = byn[n]
        _check_cell(mismatches, f"n={n} elliptic_lo", cells["elliptic_lo"], lo)
        _check_cell(mismatches, f"n={n} elliptic_hi", cells["elliptic_hi"], hi)
        _check_cell(mismatches, f"n={n} jorgensen", cells["jorgensen_lo"], jor)
        _check_cell(mismatches, f"n={n} shimizu", cells["shimizu_lo"], shi)
    assert not mismatches, "table 3 cells outside tolerance: " + "; ".join(mismatches)


def test_criterion_04_tangent_family_thresholds():
    re_fires = {}
    jor_fires = {}
    shi_fires = {}
    for n in range(3, 121):
        theta = math.acos(corner_cos(n))
        re_fires[n] = regular_elliptic_criterion(INF, n, theta).fires
        if n >= 7:
            jor_fires[n] = jorgensen_condition(INF, n, theta)
        shi_fires[n] = shimizu_condition(INF, n, theta)

    re_bad = [n for n, fired in re_fires.items() if fired != (n >= 10)]
    assert not re_bad, f"regular elliptic threshold 10 violated at n = {re_bad}"
    jor_bad = [n for n, fired in jor_fires.items() if fired != (n >= 19)]
    assert not jor_bad, f"jorgensen threshold 19 violated at n = {jor_bad}"
    threshold = SHIMIZU_TANGENT_THRESHOLD
    shi_bad = [n for n, fired in shi_fires.items() if fired != (n >= threshold)]
    first = min((n for n, fired in shi_fires.items() if fired), default=None)
    assert not shi_bad, (
        f"shimizu threshold {threshold} violated at n = {shi_bad} "
        f"(criterion first fires at n = {first})"
    )


def _shimizu_value_mp(n):
    """|u - 2iv| + 4u - 1/4 at m = inf and a = cos(pi/n), in mpmath."""
    s = mpmath.cos(mpmath.pi / n)
    u = 1 - s * s
    v = s * mpmath.sqrt(1 - s * s)
    return abs(mpmath.mpc(u, -2 * v)) + 4 * u - mpmath.mpf(1) / 4


def test_criterion_04_shimizu_threshold_matrix_certificate():
    # the matrix-level certificate decides from the group matrices alone;
    # it fires from n = 31 on, so the printed threshold 61 cannot hold
    for n in range(3, 121):
        theta = math.acos(corner_cos(n))
        group = build_mn_inf(n, math.inf, theta)
        matrix_fires = shimizu_violation(group.word("23"), group.involutions[0])
        assert matrix_fires == shimizu_condition(INF, n, theta), n
        assert matrix_fires == (n >= SHIMIZU_TANGENT_THRESHOLD), n

    # signed margins on both sides of the threshold, far above float error
    with mpmath.workdps(40):
        for n, margin in ((30, 1.9034e-3), (31, -7.5013e-3)):
            exact = float(_shimizu_value_mp(n))
            got = shimizu_value(INF, n, corner_cos(n))
            assert abs(got - exact) <= 1e-12, n
            assert abs(got - margin) <= 1e-7, n


def test_criterion_05_exact_integer_group():
    group = build_mn_inf(4, math.inf, math.pi / 4)
    displayed = (
        np.diag([-1, 1, -1]).astype(complex),
        np.array([[1, -2, -2], [-2, 1, 2], [2, -2, -3]], dtype=complex),
        np.array([[1, -1 - 1j, -1 - 1j], [-1 + 1j, 0, 1], [1 - 1j, -1, -2]], dtype=complex),
    )
    for got, want in zip(group.involutions, displayed):
        gaussian = np.round(got.real) + 1j * np.round(got.imag)
        assert np.abs(got - gaussian).max() <= 1e-12
        np.testing.assert_allclose(got, want, atol=1e-12)
    report = nondiscreteness_report(INF, 4, math.pi / 4)
    assert report.fired == ()
    assert report.verdict == "no certificate"


def test_criterion_06_order5_word_window():
    a = order_k_locus(7, 5)
    # the scans find no regular elliptic interval for n = 7; the certified
    # window reaching a = 1 comes from the one-sided criteria
    assert scan_intervals("re", INF, 7).intervals == ()
    report = nondiscreteness_report(INF, 7, math.acos(a))
    assert report.certified, "locus must sit inside the certified window"
    lo, hi = word_order_cos_window(7)
    assert lo < math.cos(2 * math.pi / 5) < hi
    assert abs(lo - 0.28621) <= TOL
    assert abs(hi - 0.32052) <= TOL


def test_criterion_07_closed_forms_match_matrix_traces():
    rng = make_rng(211)
    checked = 0
    while checked < 100:
        theta = float(rng.uniform(0.0, math.pi))
        m = int(rng.randint(3, 25))
        n = int(rng.randint(3, 25))
        if m == n and theta < 1e-9:
            continue
        group = build_mn_inf(m, n, theta)
        assert abs(trace_word_123(m, n, theta) - trace(group.word("123"))) <= 1e-10
        ideal = build_mn_inf(n, math.inf, theta)
        assert abs(trace_word_123(INF, n, theta) - trace(ideal.word("123"))) <= 1e-10
        a = math.cos(theta)
        assert abs(trace_word_3132(n, a) - trace(ideal.word("3132"))) <= 1e-10
        checked += 1


def test_criterion_08_identity_suites():
    rng = make_rng(223)
    group = build_mn_inf(6, 5, 0.9)
    for invol in group.involutions:
        np.testing.assert_allclose(invol @ invol, np.eye(3), atol=1e-10)
        for _ in range(10):
            x = rng.randn(3) + 1j * rng.randn(3)
            y = rng.randn(3) + 1j * rng.randn(3)
            assert hermitian_form(invol @ x, invol @ y) == pytest.approx(
                hermitian_form(x, y), abs=1e-9
            )
    sphere = isometric_sphere(group.involutions[0])
    assert sphere.radius == pytest.approx(1.0, abs=1e-12)
    assert sphere.center.xi == pytest.approx(0, abs=1e-12)
    assert sphere.center.v == pytest.approx(0, abs=1e-12)

    m, n, theta = 6, 5, 0.9
    g = group.word("23")
    shift = HeisenbergPoint(
        2 * (corner_cos(n) - corner_cos(m) * cmath.exp(1j * theta)),
        8 * math.sin(theta) * corner_cos(n) * corner_cos(m),
    )
    got_shift = translation_of(g)
    assert got_shift.xi == pytest.approx(shift.xi, abs=1e-10)
    assert got_shift.v == pytest.approx(shift.v, abs=1e-10)
    for x in np.linspace(-2, 2, 10):
        for v in np.linspace(-3, 3, 10):
            p = HeisenbergPoint(complex(x, -x / 2), float(v))
            image = boundary_action(g, p)
            want = heis_mul(shift, p)
            assert abs(image.xi - want.xi) <= 1e-10
            assert abs(image.v - want.v) <= 1e-10


def test_criterion_09_discriminant_identities():
    rng = make_rng(227)
    for _ in range(200):
        a = float(rng.uniform(-1, 1))
        s = float(rng.uniform(0.05, 1.0))
        # the traces of 123 and 3132 at (inf, n), s = cos(pi/n); for n >= 3,
        # the orders the closed traces take, they are those closed traces
        tau = -(4 * s * s + 5) + 8 * s * cmath.exp(1j * math.acos(a))
        t = 3 + 16 * s * s - 16 * s * a
        n = math.pi / math.acos(s)
        if n >= 3:
            assert abs(trace_word_123(INF, n, math.acos(a)) - tau) <= 1e-12 * abs(tau)
            assert abs(trace_word_3132(n, a) - t) <= 1e-12 * max(1.0, abs(t))
        expanded = (
            2048 - 10240 * a * s + 1792 * s**2 + 21760 * a**2 * s**2
            - 16384 * a * s**3 - 16384 * a**3 * s**3 + 7680 * s**4
            + 22528 * a**2 * s**4 - 18944 * a * s**5 + 3840 * s**6
            + 4096 * a**2 * s**6 - 2048 * a * s**7 + 256 * s**8
        )
        assert abs(discriminant(tau) - expanded) <= 1e-8 * max(1.0, abs(expanded))
        factored = 16384 * (a - s) ** 3 * s**3 * (-1 + 4 * (a - s) * s)
        assert abs(discriminant(t) - factored) <= 1e-8 * max(1.0, abs(factored))


def test_criterion_10_galois_refutation():
    start = time.perf_counter()
    for m, n in ((8, 11), (INF, 7)):
        report = refute_finite_order(m, n, max_l=60)
        assert report.survivors == (), (m, n)
        for miss in report.near_misses:
            assert miss.conjugates is not None
            assert miss.conjugates.all_strictly_below
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"refutation took {elapsed:.1f}s"

    rng = make_rng(229)
    done = 0
    while done < 1000:
        s1 = float(rng.uniform(-1, 1))
        s2 = float(rng.uniform(-1, 1))
        if abs(abs(s1) - abs(s2)) < 1e-6:
            continue
        assert trace_circle_rightmost(s1, s2) < -1
        done += 1

    for d in range(1, 101):
        total = CyclotomicInt(d)
        for k in range(1, d + 1):
            if math.gcd(k, d) == 1:
                total = total + CyclotomicInt.root(d, k)
        value = total.evaluate()
        nearest = round(value.real)
        assert nearest in (-1, 0, 1)
        assert abs(value - nearest) <= 1e-10


def test_criterion_11_cross_table_limit_consistency():
    narrow = scan_intervals("re", 8, 200).intervals[0]
    ideal = scan_intervals("re", INF, 8).intervals[0]
    assert abs(narrow[0] - ideal[0]) <= 2e-5
    assert abs(narrow[1] - ideal[1]) <= 2e-5
