import cmath
import json
import math

import numpy as np
import pytest

from chtriangle.classify import IsometryClass, classify, discriminant, trace
from chtriangle.cli import main
from chtriangle.closed import corner_cos, is_infinite, trace_word_123, trace_word_3132
from chtriangle.heisenberg import HeisenbergPoint, boundary_action, heis_mul, translation_of
from chtriangle.linalg import INFINITY, hermitian_form, is_unitary_for_form
from chtriangle.triangles import TriangleType, build_mn_inf, build_n_inf_inf
from helpers import angular_invariant_oracle, build_n_inf_inf_oracle, make_rng


def displayed_involutions(m, n, theta):
    """The three side involutions written out entrywise: the oracle the
    builders are checked against."""
    s1, s2 = corner_cos(n), corner_cos(m)
    w = s2 * cmath.exp(1j * theta)
    i1 = np.diag([-1, 1, -1]).astype(complex)
    i2 = np.array(
        [
            [1, -2 * s1, -2 * s1],
            [-2 * s1, 2 * s1**2 - 1, 2 * s1**2],
            [2 * s1, -2 * s1**2, -2 * s1**2 - 1],
        ],
        dtype=complex,
    )
    i3 = np.array(
        [
            [1, -2 * w, -2 * w],
            [-2 * w.conjugate(), 2 * s2**2 - 1, 2 * s2**2],
            [2 * w.conjugate(), -2 * s2**2, -2 * s2**2 - 1],
        ],
        dtype=complex,
    )
    return i1, i2, i3


def test_triangle_type_validation():
    with pytest.raises(ValueError):
        TriangleType(2, 5, 0.5)
    with pytest.raises(ValueError):
        TriangleType(5, 4.5, 0.5)
    with pytest.raises(ValueError):
        TriangleType(5, 5, -0.1)
    with pytest.raises(ValueError):
        TriangleType(5, 5, 3.5)
    # -inf is no order, so it is refused rather than read as m = inf
    with pytest.raises(ValueError, match="^m must be an integer >= 3 or infinity$"):
        TriangleType(-math.inf, 5, 0.3)
    with pytest.raises(ValueError, match="^n must be an integer >= 3 or infinity$"):
        TriangleType(5, -math.inf, 0.3)
    assert TriangleType(math.inf, 7, 0.5).a == pytest.approx(math.cos(0.5))


def test_build_rejects_bad_orders():
    with pytest.raises(ValueError):
        build_mn_inf(2, 5, 0.5)
    with pytest.raises(ValueError):
        build_n_inf_inf(2, 0.5)
    with pytest.raises(ValueError, match="^the finite corner order n must be finite$"):
        build_n_inf_inf(math.inf, 0.3)


def test_only_plus_inf_is_the_infinite_order():
    assert is_infinite(math.inf) and is_infinite(np.float64(math.inf))
    for order in (-math.inf, -np.float64(math.inf), math.nan, 8, 8.0):
        assert not is_infinite(order)


def test_build_rejects_coincident_sides():
    with pytest.raises(ValueError):
        build_mn_inf(4, 4, 0.0)
    # a finite order whose corner cosine rounds to 1 meets the ideal
    # corner's side at theta = 0, and so do two ideal corners
    for call in (lambda: build_mn_inf(10**9, math.inf, 0.0),
                 lambda: build_mn_inf(math.inf, 10**9, 0.0),
                 lambda: build_n_inf_inf(10**9, 0.0),
                 lambda: build_mn_inf(math.inf, math.inf, 0.0)):
        with pytest.raises(ValueError, match="^degenerate configuration: two sides coincide$"):
            call()


def test_builder_matches_displayed_matrices():
    rng = make_rng(61)
    for _ in range(25):
        m = int(rng.randint(3, 25))
        n = int(rng.randint(3, 25))
        theta = float(rng.uniform(0.05, math.pi))
        group = build_mn_inf(m, n, theta)
        for got, want in zip(group.involutions, displayed_involutions(m, n, theta)):
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_one_finite_corner_builder_matches_displayed_matrices():
    # the same display with an infinite order, in the slot it is passed in
    rng = make_rng(67)
    for _ in range(25):
        k = int(rng.randint(3, 25))
        theta = float(rng.uniform(0.0, math.pi))
        for m, n in ((k, math.inf), (math.inf, k)):
            group = build_mn_inf(m, n, theta)
            for got, want in zip(group.involutions, displayed_involutions(m, n, theta)):
                np.testing.assert_allclose(got, want, atol=1e-12)


def test_ideal_triangle_builds_with_two_infinite_orders():
    # (inf, inf): the ideal triangle, whose tr(123) is 8 e^(i theta) - 9
    for k in range(1, 181):
        theta = k * math.pi / 180
        group = build_mn_inf(math.inf, math.inf, theta)
        assert (group.ttype.m, group.ttype.n) == (math.inf, math.inf)
        displayed = displayed_involutions(math.inf, math.inf, theta)
        for got, want in zip(group.involutions, displayed):
            np.testing.assert_allclose(got, want, atol=1e-12)
        tr = trace(group.word("123"))
        assert abs(tr - trace_word_123(math.inf, math.inf, theta)) <= 1.1e-14


def test_ideal_triangle_123_is_regular_elliptic_exactly_above_61_64():
    # Goldman-Parker's threshold: I1 I2 I3 is regular elliptic exactly for
    # a > 61/64, on a grid of step 1e-3 away from that end
    checked = 0
    for k in range(-999, 1000):
        a = k / 1000
        if abs(a - 61 / 64) < 1e-3:
            continue
        group = build_mn_inf(math.inf, math.inf, math.acos(a))
        tag = classify(group.word("123")).tag
        assert (tag is IsometryClass.REGULAR_ELLIPTIC) == (a > 61 / 64), a
        checked += 1
    assert checked == 1997


def test_ideal_corner_builds_equal_the_separate_normalisation():
    # (n, inf, inf) was built by a builder of its own; build_mn_inf with
    # n in the m slot gives its involutions and words bit for bit, and its
    # polars and vertices up to the sign of an exact zero
    for n in range(3, 40):
        for k in range(37):
            theta = k * math.pi / 36
            group = build_mn_inf(n, math.inf, theta)
            oracle = build_n_inf_inf_oracle(n, theta)
            for got, want in zip(group.involutions, oracle.involutions):
                assert got.tobytes() == want.tobytes()
            for word in ("123", "3132", "1231", "23", "12312", "2131"):
                assert group.word(word).tobytes() == oracle.word(word).tobytes()
            for got, want in zip(group.polars + group.vertices, oracle.polars + oracle.vertices):
                assert np.array_equal(got, want)


def test_build_n_inf_inf_is_the_builder_with_n_in_the_m_slot():
    for n, theta in ((3, 0.0), (4, math.pi / 4), (7, 0.4), (29, 3.0)):
        got, want = build_n_inf_inf(n, theta), build_mn_inf(n, math.inf, theta)
        assert got.ttype == want.ttype == TriangleType(n, math.inf, theta)
        for a, b in zip(got.polars + got.vertices + got.involutions,
                        want.polars + want.vertices + want.involutions):
            assert a.tobytes() == b.tobytes()


def test_infinite_order_sits_in_the_slot_it_is_passed_in(capsys):
    # with the finite order k in the m slot the word 3132 has the closed
    # trace of the (n, inf, inf) family; with k in the n slot, sides 2 and
    # 3 trade places and that trace is the word 1232's; the word 2131 has
    # it in both
    for k in range(3, 31):
        for theta in (0.05, 0.3, 1.0, math.pi / k, 2.0, 3.1):
            want = trace_word_3132(k, math.cos(theta))
            assert abs(trace(build_mn_inf(k, math.inf, theta).word("3132")) - want) <= 1e-12
            assert abs(trace(build_mn_inf(math.inf, k, theta).word("1232")) - want) <= 1e-12
            for group in (build_mn_inf(k, math.inf, theta), build_mn_inf(math.inf, k, theta)):
                assert abs(trace(group.word("2131")) - want) <= 1e-12
    # classify reads --m and --n as the builder's slots: --m inf --n k
    # builds (inf, k), and --m k --n inf builds (k, inf)
    want = trace_word_3132(4, math.cos(0.3))
    for m, n, word in (("inf", "4", "1232"), ("4", "inf", "3132")):
        assert main(["classify", "--m", m, "--n", n, "--theta", "0.3", "--word", word,
                     "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["results"]["trace"]
        assert abs(complex(got["real"], got["imag"]) - want) <= 1e-12


def test_exact_integer_matrices_at_n4():
    group = build_mn_inf(4, math.inf, math.pi / 4)
    i1, i2, i3 = group.involutions
    np.testing.assert_allclose(i1, np.diag([-1, 1, -1]), atol=1e-13)
    np.testing.assert_allclose(
        i2, [[1, -2, -2], [-2, 1, 2], [2, -2, -3]], atol=1e-13
    )
    np.testing.assert_allclose(
        i3, [[1, -1 - 1j, -1 - 1j], [-1 + 1j, 0, 1], [1 - 1j, -1, -2]], atol=1e-13
    )


def test_vertices_norms_and_incidence():
    rng = make_rng(71)
    for _ in range(20):
        m = int(rng.randint(3, 15))
        n = int(rng.randint(3, 15))
        theta = float(rng.uniform(0.05, math.pi))
        group = build_mn_inf(m, n, theta)
        u1, u2, u3 = group.vertices
        p1, p2, p3 = group.polars
        assert hermitian_form(u1, u1) == pytest.approx(0, abs=1e-12)
        assert hermitian_form(u2, u2).real == pytest.approx(
            corner_cos(m) ** 2 - 1, abs=1e-12
        )
        assert hermitian_form(u3, u3).real == pytest.approx(
            corner_cos(n) ** 2 - 1, abs=1e-12
        )
        for vertex, (qa, qb) in ((u1, (p2, p3)), (u2, (p3, p1)), (u3, (p1, p2))):
            assert abs(hermitian_form(vertex, qa)) < 1e-12
            assert abs(hermitian_form(vertex, qb)) < 1e-12


def test_one_finite_corner_vertices():
    group = build_mn_inf(6, math.inf, 0.8)
    u1, u2, u3 = group.vertices
    s = corner_cos(6)
    assert hermitian_form(u1, u1) == pytest.approx(0, abs=1e-12)
    assert hermitian_form(u2, u2).real == pytest.approx(s * s - 1, abs=1e-12)
    assert hermitian_form(u3, u3) == pytest.approx(0, abs=1e-12)


def test_involutions_preserve_form_and_infinity_pattern():
    group = build_mn_inf(7, 4, 1.1)
    for invol in group.involutions:
        assert is_unitary_for_form(invol)
        assert np.linalg.det(invol) == pytest.approx(1, abs=1e-10)
    assert boundary_action(group.involutions[0], INFINITY) is not INFINITY
    assert boundary_action(group.involutions[1], INFINITY) is INFINITY
    assert boundary_action(group.involutions[2], INFINITY) is INFINITY


def test_angular_invariant_recovers_theta():
    rng = make_rng(73)
    for _ in range(100):
        theta = float(rng.uniform(0.01, math.pi - 0.01))
        if rng.rand() < 0.5:
            group = build_mn_inf(int(rng.randint(3, 30)), int(rng.randint(3, 30)), theta)
        else:
            group = build_mn_inf(int(rng.randint(3, 30)), math.inf, theta)
        assert angular_invariant_oracle(*group.polars) == pytest.approx(theta, abs=1e-12)


def test_word_evaluation_validates_input():
    group = build_mn_inf(5, 4, 0.9)
    # only a nonempty str is a word: no list, tuple or bytes of letters
    for letters in ("", "124", "1 2", ["1", "2"], ("1",), [1], b"12", 12, None):
        with pytest.raises(ValueError, match="nonempty string"):
            group.word(letters)


def test_two_vertical_sides_compose_to_translation():
    rng = make_rng(79)
    for _ in range(10):
        m = int(rng.randint(3, 12))
        n = int(rng.randint(3, 12))
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        group = build_mn_inf(m, n, theta)
        g = group.word("23")
        s1, s2 = corner_cos(n), corner_cos(m)
        expected = HeisenbergPoint(
            2 * (s1 - s2 * cmath.exp(1j * theta)), 8 * math.sin(theta) * s1 * s2
        )
        got = translation_of(g)
        assert got.xi == pytest.approx(expected.xi, abs=1e-10)
        assert got.v == pytest.approx(expected.v, abs=1e-10)
        for _ in range(5):
            p = HeisenbergPoint(complex(rng.randn(), rng.randn()), float(rng.randn()))
            image = boundary_action(g, p)
            want = heis_mul(expected, p)
            assert image.xi == pytest.approx(want.xi, abs=1e-10)
            assert image.v == pytest.approx(want.v, abs=1e-10)


def test_trace_word_123_special_values():
    theta = 0.4321
    assert trace_word_123(math.inf, math.inf, theta) == pytest.approx(
        8 * cmath.exp(1j * theta) - 9
    )
    for n in (4, 7, 10):
        theta = math.acos(corner_cos(n))
        want = complex(
            -3 + 2 * math.cos(2 * math.pi / n), 4 * math.sin(2 * math.pi / n)
        )
        assert trace_word_123(math.inf, n, theta) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("order", [2.9, 2.5, 2, 1, 0, -3, math.nan, -math.inf])
def test_closed_traces_reject_orders_below_3_and_nan(order):
    # one order domain with the criteria: >= 3 or infinity
    with pytest.raises(ValueError, match="^m must be >= 3 or infinity$"):
        trace_word_123(order, 8, 0.3)
    with pytest.raises(ValueError, match="^n must be >= 3 or infinity$"):
        trace_word_123(8, order, 0.3)
    with pytest.raises(ValueError, match="^n must be >= 3 or infinity$"):
        trace_word_3132(order, 0.3)


@pytest.mark.parametrize("theta", [-0.1, math.pi + 1e-9, 10.0, math.nan, math.inf])
def test_trace_word_123_rejects_theta_outside_0_pi(theta):
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\]$"):
        trace_word_123(8, 11, theta)


@pytest.mark.parametrize("a", [5.0, -1.5, 1 + 1e-12, math.nan, math.inf])
def test_trace_word_3132_rejects_a_outside_unit_interval(a):
    with pytest.raises(ValueError, match=r"^a = cos\(theta\) must lie in \[-1, 1\]$"):
        trace_word_3132(7, a)


def test_closed_traces_accept_non_integer_orders_from_3():
    # the closed forms are continuous in the orders, as the criteria are
    s1, s2 = corner_cos(8), corner_cos(3.5)
    want = -(4 * (s1 * s1 + s2 * s2) + 1) + 8 * s1 * s2 * cmath.exp(0.3j)
    assert trace_word_123(3.5, 8, 0.3) == pytest.approx(want, abs=1e-12)
    assert trace_word_3132(3.5, 0.3) == pytest.approx(3 + 16 * s2 * s2 - 16 * s2 * 0.3)
    # the ends of the domain: order 3 and infinity, theta 0 and pi, a -1 and 1
    assert trace_word_123(3, math.inf, 0.0) == pytest.approx(-2, abs=1e-12)
    assert trace_word_123(math.inf, 3, math.pi) == pytest.approx(-10, abs=1e-12)
    assert trace_word_3132(3, 1.0) == pytest.approx(-1, abs=1e-12)
    assert trace_word_3132(math.inf, -1.0) == pytest.approx(35, abs=1e-12)


def test_trace_closed_forms_match_matrix_products():
    rng = make_rng(83)
    for _ in range(100):
        theta = float(rng.uniform(0.0, math.pi))
        if rng.rand() < 0.5:
            m = int(rng.randint(3, 30))
            n = int(rng.randint(3, 30))
            if m == n and theta < 1e-12:
                continue
            group = build_mn_inf(m, n, theta)
            closed = trace_word_123(m, n, theta)
        else:
            n = int(rng.randint(3, 30))
            group = build_mn_inf(n, math.inf, theta)
            closed = trace_word_123(math.inf, n, theta)
            a = math.cos(theta)
            assert abs(trace_word_3132(n, a) - trace(group.word("3132"))) <= 1e-10
        assert abs(closed - trace(group.word("123"))) <= 1e-10


def _expanded_discriminant(a, s):
    return (
        2048 - 10240 * a * s + 1792 * s**2 + 21760 * a**2 * s**2
        - 16384 * a * s**3 - 16384 * a**3 * s**3 + 7680 * s**4
        + 22528 * a**2 * s**4 - 18944 * a * s**5 + 3840 * s**6
        + 4096 * a**2 * s**6 - 2048 * a * s**7 + 256 * s**8
    )


def test_expanded_discriminant_identity():
    rng = make_rng(97)
    for _ in range(200):
        a = float(rng.uniform(-1, 1))
        s = float(rng.uniform(0.05, 1.0))
        # the trace of 123 at (inf, n), s = cos(pi/n); for n >= 3, the
        # orders the closed trace takes, it is trace_word_123
        tau = -(4 * s * s + 5) + 8 * s * cmath.exp(1j * math.acos(a))
        n = math.pi / math.acos(s)
        if n >= 3:
            assert abs(trace_word_123(math.inf, n, math.acos(a)) - tau) <= 1e-12 * abs(tau)
        lhs = discriminant(tau)
        rhs = _expanded_discriminant(a, s)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_word_3132_discriminant_factorisation():
    rng = make_rng(101)
    for _ in range(200):
        a = float(rng.uniform(-1, 1))
        s = float(rng.uniform(0.05, 1.0))
        t = 3 + 16 * s * s - 16 * s * a
        lhs = discriminant(t)
        rhs = 16384 * (a - s) ** 3 * s**3 * (-1 + 4 * (a - s) * s)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
