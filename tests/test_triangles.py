import cmath
import math

import numpy as np
import pytest

from chtriangle.classify import discriminant, trace
from chtriangle.closed import corner_cos, is_infinite, trace_word_123, trace_word_3132
from chtriangle.heisenberg import (
    HeisenbergPoint,
    boundary_action,
    fixes_infinity,
    heis_mul,
    translation_of,
)
from chtriangle.linalg import hermitian_form, is_unitary_for_form
from chtriangle.triangles import (
    TriangleType,
    angular_invariant,
    build_mn_inf,
    build_n_inf_inf,
    parameter_t,
)
from helpers import make_rng


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
        build_mn_inf(math.inf, 5, 0.5)
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
    rng = make_rng(67)
    for _ in range(25):
        n = int(rng.randint(3, 25))
        theta = float(rng.uniform(0.0, math.pi))
        group = build_n_inf_inf(n, theta)
        # same display with the finite corner cosine in the rotated slot
        want = displayed_involutions(n, math.inf, theta)
        for got, exp in zip(group.involutions, want):
            np.testing.assert_allclose(got, exp, atol=1e-12)


def test_exact_integer_matrices_at_n4():
    group = build_n_inf_inf(4, math.pi / 4)
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
    group = build_n_inf_inf(6, 0.8)
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
    assert not fixes_infinity(group.involutions[0])
    assert fixes_infinity(group.involutions[1])
    assert fixes_infinity(group.involutions[2])


def test_angular_invariant_recovers_theta():
    rng = make_rng(73)
    for _ in range(100):
        theta = float(rng.uniform(0.01, math.pi - 0.01))
        if rng.rand() < 0.5:
            group = build_mn_inf(int(rng.randint(3, 30)), int(rng.randint(3, 30)), theta)
        else:
            group = build_n_inf_inf(int(rng.randint(3, 30)), theta)
        assert angular_invariant(*group.polars) == pytest.approx(theta, abs=1e-12)


def test_word_evaluation_validates_input():
    group = build_mn_inf(5, 4, 0.9)
    with pytest.raises(ValueError):
        group.word("")
    with pytest.raises(ValueError):
        group.word("124")


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


@pytest.mark.parametrize("order", [2, 1, 0, -3, math.nan, -math.inf])
def test_closed_traces_reject_orders_up_to_2_and_nan(order):
    with pytest.raises(ValueError, match="^m must be > 2 or infinity$"):
        trace_word_123(order, 8, 0.3)
    with pytest.raises(ValueError, match="^n must be > 2 or infinity$"):
        trace_word_123(8, order, 0.3)
    with pytest.raises(ValueError, match="^n must be > 2 or infinity$"):
        trace_word_3132(order, 0.3)


def test_closed_traces_accept_non_integer_orders_above_2():
    # the closed forms are continuous in the orders wherever cos(pi/n) > 0
    s1, s2 = corner_cos(8), corner_cos(2.5)
    want = -(4 * (s1 * s1 + s2 * s2) + 1) + 8 * s1 * s2 * cmath.exp(0.3j)
    assert trace_word_123(2.5, 8, 0.3) == pytest.approx(want, abs=1e-12)
    assert trace_word_3132(2.5, 0.3) == pytest.approx(3 + 16 * s2 * s2 - 16 * s2 * 0.3)


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
            group = build_n_inf_inf(n, theta)
            closed = trace_word_123(math.inf, n, theta)
            a = math.cos(theta)
            assert abs(trace_word_3132(n, a) - trace(group.word("3132"))) <= 1e-10
        assert abs(closed - trace(group.word("123"))) <= 1e-10


def test_parameter_t_roundtrip():
    assert parameter_t(math.pi / 2) == pytest.approx(1.0)
    rng = make_rng(89)
    for _ in range(50):
        theta = float(rng.uniform(1e-3, math.pi - 1e-3))
        t = parameter_t(theta)
        assert (t * t - 1) / (t * t + 1) == pytest.approx(math.cos(theta), abs=1e-12)
    with pytest.raises(ValueError):
        parameter_t(0.0)
    with pytest.raises(ValueError):
        parameter_t(math.pi)


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
        n = math.pi / math.acos(s)
        tau = trace_word_123(math.inf, n, math.acos(a))
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
