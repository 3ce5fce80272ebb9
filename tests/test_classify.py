import cmath
import inspect
import math

import numpy as np
import pytest

from chtriangle import criteria, cyclotomic, heisenberg, linalg
from chtriangle.classify import (
    EPS_DISCRIMINANT,
    IsometryClass,
    _second_invariant,
    classify,
    cubic_roots,
    discriminant,
    trace,
)
from chtriangle.linalg import normalize_to_su
from chtriangle.triangles import build_mn_inf
from helpers import make_rng, random_form_unitary


def test_discriminant_values():
    assert discriminant(3) == pytest.approx(0, abs=1e-12)
    assert discriminant(0) == pytest.approx(-27)
    assert discriminant(-1) == pytest.approx(0, abs=1e-12)


def test_discriminant_vectorised():
    z = np.array([3.0, 0.0, -1.0], dtype=complex)
    np.testing.assert_allclose(discriminant(z), [0, -27, 0], atol=1e-12)


def test_trace_values():
    assert trace(np.eye(3)) == 3
    assert trace(np.diag([-1, 1, -1])) == -1


@pytest.mark.parametrize("M", [np.eye(4), np.eye(2), 1.0, np.ones(3), np.ones((1, 3, 3))],
                         ids=["4x4", "2x2", "scalar", "vector", "stacked"])
def test_trace_refuses_any_shape_but_3x3(M):
    # read unchecked, a 4x4 matrix gives the sum of its first three diagonal
    # entries and a 2x2 one an IndexError
    with pytest.raises(ValueError, match="3x3"):
        trace(M)


def test_trace_of_elliptic_rotation_word():
    for n in range(3, 13):
        group = build_mn_inf(8, n, 1.0)
        got = trace(group.word("12"))
        assert got == pytest.approx(2 * math.cos(2 * math.pi / n) + 1, abs=1e-12)


def test_cubic_roots_against_lapack():
    rng = make_rng(31)
    for _ in range(100):
        m = random_form_unitary(rng)
        c1 = _second_invariant(m.tolist())
        mine = sorted(cubic_roots(trace(m), c1, complex(np.linalg.det(m))),
                      key=lambda z: (round(z.real, 7), round(z.imag, 7)))
        ref = sorted(np.linalg.eigvals(m),
                     key=lambda z: (round(z.real, 7), round(z.imag, 7)))
        np.testing.assert_allclose(mine, ref, atol=1e-7)


def test_classify_complex_reflection_is_boundary_elliptic():
    assert classify(np.diag([-1, 1, -1])).tag is IsometryClass.BOUNDARY_ELLIPTIC


def test_classify_exact_integer_group_word_is_loxodromic():
    group = build_mn_inf(4, math.inf, math.pi / 4)
    result = classify(group.word("123"))
    assert result.tag is IsometryClass.LOXODROMIC
    assert str(result.tag) == "loxodromic"
    assert result.trace == pytest.approx(-3 + 4j, abs=1e-12)


def test_classify_unipotent_word_at_tangent_parameter():
    for n in (4, 5, 7, 9):
        theta = math.acos(math.cos(math.pi / n))
        group = build_mn_inf(n, math.inf, theta)
        result = classify(group.word("3132"))
        assert result.tag is IsometryClass.UNIPOTENT_PARABOLIC, n
        assert result.trace == pytest.approx(3, abs=1e-10)


def test_classify_ellipto_parabolic_is_parabolic():
    # a rotation about the vertical chain times a vertical translation:
    # f = 0, a repeated eigenvalue with a one-dimensional eigenspace
    for phi, v in ((0.9, 1.0), (0.9, 2.0), (2.0, 0.5)):
        rotation = np.diag([cmath.exp(1j * phi), 1, 1])
        M = normalize_to_su(rotation @ heisenberg.heisenberg_translation(0, v))
        assert classify(M).tag is IsometryClass.PARABOLIC, (phi, v)


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7])
def test_classify_band_element_with_distinct_eigenvalues_is_regular_elliptic(delta):
    # three distinct unit eigenvalues put f inside the band; M - lambda0 I
    # has rank 3, and these used to be tagged parabolic
    M = np.diag([cmath.exp(0.7j), cmath.exp((0.7 + delta) * 1j),
                 cmath.exp(-(1.4 + delta) * 1j)])
    result = classify(M)
    assert -EPS_DISCRIMINANT <= result.discriminant < 0.0
    assert result.tag is IsometryClass.REGULAR_ELLIPTIC


def test_classify_band_element_with_a_large_modulus_is_loxodromic():
    # a boost by r = 1 + 1e-6 times a rotation: f is inside the band, the
    # eigenvalues are distinct, and their moduli r and 1/r decide
    t = math.log(1.0 + 1e-6)
    u = cmath.exp(0.7j)
    M = np.array([[u ** -2, 0, 0],
                  [0, u * math.cosh(t), u * math.sinh(t)],
                  [0, u * math.sinh(t), u * math.cosh(t)]])
    result = classify(M)
    assert 0.0 < result.discriminant <= EPS_DISCRIMINANT
    assert result.tag is IsometryClass.LOXODROMIC


def test_classify_identity():
    assert classify(np.eye(3)).tag is IsometryClass.IDENTITY
    w = cmath.exp(2j * math.pi / 3)
    assert classify(w * np.eye(3)).tag is IsometryClass.IDENTITY


def test_classify_rejects_non_unitary():
    with pytest.raises(ValueError):
        classify(np.diag([2, 1, 1]))


def _random_regular_elliptic_words(count, seed):
    rng = make_rng(seed)
    found = []
    while len(found) < count:
        m = int(rng.randint(3, 20))
        n = int(rng.randint(3, 20))
        theta = float(rng.uniform(0.0, math.pi))
        word = build_mn_inf(m, n, theta).word("123")
        if discriminant(trace(word)) < -1e-6:
            found.append(word)
    return found


def test_negative_discriminant_forces_distinct_unimodular_spectrum():
    for word in _random_regular_elliptic_words(100, seed=13):
        result = classify(word)
        assert result.tag is IsometryClass.REGULAR_ELLIPTIC
        eigs = result.eigenvalues
        for value in eigs:
            assert abs(value) == pytest.approx(1, abs=1e-8)
        gaps = [abs(eigs[i] - eigs[j]) for i in range(3) for j in range(i + 1, 3)]
        assert min(gaps) > 1e-4


def test_classify_invariant_under_conjugation_and_unit_scaling():
    rng = make_rng(17)
    samples = [
        build_mn_inf(8, 5, 0.8).word("123"),
        build_mn_inf(4, 4, math.pi / 4).word("12"),
        build_mn_inf(4, math.inf, math.pi / 4).word("123"),
        np.diag([-1, 1, -1]).astype(complex),
    ]
    w = cmath.exp(2j * math.pi / 3)
    for m in samples:
        tag = classify(m).tag
        for _ in range(5):
            # modest conjugators keep the conjugated matrix inside the
            # absolute unitarity tolerance of the classifier
            g = random_form_unitary(rng, factors=2, max_entry=4.0)
            conj = g @ m @ np.linalg.inv(g)
            assert classify(conj).tag is tag
        assert classify(w * m).tag is tag
        assert classify(w * w * m).tag is tag


def test_rotation_word_has_exact_order():
    for n in range(3, 13):
        group = build_mn_inf(9, n, 1.3)
        rot = group.word("12")
        power = np.linalg.matrix_power(rot, n)
        assert classify(power).tag is IsometryClass.IDENTITY
        lam = trace(power) / 3
        np.testing.assert_allclose(power, lam * np.eye(3), atol=1e-8)


def test_tolerances_take_no_per_call_keyword():
    # each tolerance is read at its decision from one module constant
    for fn in (classify, linalg.is_unitary_for_form, heisenberg.translation_of,
               heisenberg.shimizu_violation, criteria.word_3132_analysis,
               cyclotomic.refute_finite_order):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"eps_f", "tol", "slack", "boundary_tol", "conductor_cap",
                             "circle_tol", "near_tol"}, fn
    assert not hasattr(criteria, "EPS_FIRE")
