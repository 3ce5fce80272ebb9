import cmath
import math

import numpy as np
import pytest

from chtriangle.linalg import (
    FORM_MATRIX,
    INFINITY,
    NULL_BAND,
    cvector,
    form_inverse,
    hermitian_form,
    involution_from_polar,
    is_unitary_for_form,
    normalize_to_su,
    psi,
)
from helpers import involution_from_polar_oracle, make_rng, random_positive_vector


def test_hermitian_form_basic_values():
    assert hermitian_form(cvector(0, 1, 0), cvector(0, 1, 0)) == 1
    assert hermitian_form(cvector(0, 0, 1), cvector(0, 0, 1)) == -1
    assert hermitian_form(cvector(0, 1, -1), cvector(0, 1, -1)) == 0


@pytest.mark.parametrize(
    "z, w",
    [([2.0], [1, 0, 0]), ([[1, 0, 0]], [1, 0, 0]), ([1, 0, 0], [[1], [0], [0]]),
     ([1, 0, 0, 0], [1, 0, 0, 0]), (1.0, 1.0), ([1, 0, 0], np.eye(3))],
    ids=["(1,) vector", "(1, 3) row", "(3, 1) column", "two (4,) vectors", "scalars", "matrix"],
)
def test_hermitian_form_refuses_other_shapes(z, w):
    with pytest.raises(ValueError, match=r"^hermitian_form needs two vectors of shape \(3,\)$"):
        hermitian_form(z, w)


def test_hermitian_form_is_sesquilinear():
    rng = make_rng(11)
    for _ in range(100):
        z = rng.randn(3) + 1j * rng.randn(3)
        w = rng.randn(3) + 1j * rng.randn(3)
        zp = rng.randn(3) + 1j * rng.randn(3)
        alpha = complex(rng.randn(), rng.randn())
        assert hermitian_form(z, w) == pytest.approx(np.conj(hermitian_form(w, z)))
        assert hermitian_form(alpha * z + zp, w) == pytest.approx(
            alpha * hermitian_form(z, w) + hermitian_form(zp, w)
        )
        assert hermitian_form(z, alpha * w) == pytest.approx(
            np.conj(alpha) * hermitian_form(z, w)
        )


def test_psi_special_points():
    np.testing.assert_allclose(psi(INFINITY), [0, -1, 1])
    assert repr(INFINITY) == "infinity"
    np.testing.assert_allclose(psi((0, 0, 0)), [0, 0.5, 0.5])
    np.testing.assert_allclose(psi((0, 0, 1)), [0, 0, 1])


def test_psi_rejects_negative_height():
    with pytest.raises(ValueError):
        psi((0, 0, -0.5))


def test_psi_rejects_nan_height():
    with pytest.raises(ValueError, match="^horospherical height u must be >= 0$"):
        psi((0, 0, math.nan))


def test_psi_rejects_non_finite_coordinates():
    for point in ((0, 0, math.inf), (math.inf, 0, 0), (complex(0, math.nan), 0, 0),
                  (0, -math.inf, 0), (0, math.nan, 0.5), (1j, 2.0, math.inf)):
        with pytest.raises(ValueError, match="^horospherical coordinates must be finite$"):
            psi(point)


@pytest.mark.parametrize(
    "point",
    [(2e154, 0, 0), (1e200j, 0, 0), (1e154, 0, 1.7e308)],
    ids=["|xi|^2 overflows", "imaginary xi", "1 + |xi|^2 + u overflows"],
)
def test_psi_refuses_coordinates_with_no_finite_lift(point):
    with pytest.raises(ValueError, match="^horospherical coordinates too large for a finite lift$"):
        psi(point)


def test_psi_norm_tracks_height():
    rng = make_rng(7)
    for _ in range(50):
        xi = complex(rng.randn(), rng.randn())
        v = float(rng.randn())
        # null: <z,z> is 0 up to rounding
        lift = psi((xi, v, 0.0))
        scale = float(np.sum(np.abs(lift) ** 2))
        assert abs(hermitian_form(lift, lift).real) <= 1e-12 * scale
        u = float(rng.uniform(0.1, 3.0))
        lift = psi((xi, v, u))
        assert hermitian_form(lift, lift).real < 0
        assert hermitian_form(lift, lift).real == pytest.approx(-u, abs=1e-12)


def test_involution_of_axis_chain():
    np.testing.assert_allclose(
        involution_from_polar(cvector(0, 1, 0)), np.diag([-1, 1, -1]), atol=1e-14
    )


def test_involution_matches_displayed_entries():
    # reflection in the vertical chain through s1: explicit matrix in s1
    rng = make_rng(9)
    for _ in range(20):
        s1 = math.cos(math.pi / rng.randint(3, 40))
        expected = np.array(
            [
                [1, -2 * s1, -2 * s1],
                [-2 * s1, 2 * s1**2 - 1, 2 * s1**2],
                [2 * s1, -2 * s1**2, -2 * s1**2 - 1],
            ],
            dtype=complex,
        )
        got = involution_from_polar(cvector(1, -s1, s1))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_involution_with_rotated_polar_first_row():
    z2 = math.cos(math.pi / 4) * cmath.exp(1j * math.pi / 4)
    got = involution_from_polar(cvector(1, -z2.conjugate(), z2.conjugate()))
    np.testing.assert_allclose(got[0], [1, -1 - 1j, -1 - 1j], atol=1e-12)


def test_involution_properties_on_random_polars():
    rng = make_rng(1)
    for _ in range(100):
        p = random_positive_vector(rng)
        refl = involution_from_polar(p)
        assert is_unitary_for_form(refl)
        np.testing.assert_allclose(refl @ refl, np.eye(3), atol=1e-10)
        assert np.linalg.det(refl) == pytest.approx(1, abs=1e-10)
        # fixes its polar vector and preserves the form
        np.testing.assert_allclose(refl @ p, p, atol=1e-9 * np.abs(p).max())
        x = rng.randn(3) + 1j * rng.randn(3)
        y = rng.randn(3) + 1j * rng.randn(3)
        assert hermitian_form(refl @ x, refl @ y) == pytest.approx(
            hermitian_form(x, y), abs=1e-9
        )


def test_involution_rejects_nonpositive_polar():
    for p in (cvector(0, 0, 1), cvector(0, 1, -1), cvector(0, 0, 0)):
        with pytest.raises(ValueError, match="^polar vector must be positive$"):
            involution_from_polar(p)


def test_involution_rejects_polars_not_of_shape_3():
    # unchecked, a shape (1,) vector broadcasts against the form into a
    # form-preserving 3x3 matrix
    for p in ([2.0], [1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [[0.0, 1.0, 0.0]], 1.0):
        with pytest.raises(ValueError, match=r"^polar vector must have shape \(3,\)$"):
            involution_from_polar(p)


def test_involution_rejects_non_finite_polars():
    # unchecked, each gives an all-NaN matrix
    for bad in (math.nan, math.inf, -math.inf, complex(0, math.inf), complex(math.nan, 1)):
        for i in range(3):
            p = [1.0, 2.0, 0.5]
            p[i] = bad
            with pytest.raises(ValueError, match="^polar vector must be finite$"):
                involution_from_polar(p)


def test_involution_refuses_what_the_oracle_refuses_near_the_null_cone():
    # positivity decided by one comparison against the relative band, as
    # the oracle decides it through the vector's type; accepted polars
    # give the oracle's bits and preserve the form
    rng = make_rng(13)
    refused = 0
    for _ in range(400):
        xi = complex(rng.randn(), rng.randn())
        null = psi((xi, float(rng.randn()), 0.0)) * complex(rng.randn(), rng.randn())
        scale = float(np.sum(np.abs(null) ** 2))
        p = null + rng.uniform(-3, 3) * NULL_BAND * math.sqrt(scale) * cvector(0, 1, 0)
        try:
            want = involution_from_polar_oracle(p)
        except ValueError as exc:
            refused += 1
            with pytest.raises(ValueError, match=f"^{exc}$"):
                involution_from_polar(p)
        else:
            got = involution_from_polar(p)
            assert got.tobytes() == want.tobytes()
            assert is_unitary_for_form(got)
    # the draws straddle the band
    assert 0 < refused < 400


def test_involution_accepts_only_polars_whose_reflection_preserves_the_form():
    # the lift of (0.3 + 0.2i, 0.7) pushed off the null cone along
    # (0, 1, 0): with a band of 1e-12 every accepted polar up to k = 1e8
    # failed the form check, and at some the determinant rounded to 0
    null = psi((0.3 + 0.2j, 0.7, 0.0))
    scale = float(np.sum(np.abs(null) ** 2))
    accepted = []
    for k in np.geomspace(1.16, 1e11, 400):
        p = null + k * 1e-12 * scale * cvector(0, 1, 0)
        try:
            refl = involution_from_polar(p)
        except ValueError as exc:
            assert str(exc) == "polar vector must be positive"
            continue
        accepted.append(k)
        assert np.isfinite(refl).all() and is_unitary_for_form(refl), k
    # the band refuses the whole former range and accepts further out
    assert accepted and min(accepted) > 1e8


def test_normalize_to_su_refuses_a_zero_or_non_finite_determinant():
    for M in (np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match="^matrix must have a finite nonzero determinant$"):
            normalize_to_su(M)
    # numpy warns of the overflow or NaN in det, then the determinant is refused
    for M in (np.diag([1e200, 1e200, 1e200]), np.diag([1.0, math.nan, 1.0])):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^matrix must have a finite nonzero determinant$"):
                normalize_to_su(M)


def test_is_unitary_for_form_examples():
    assert is_unitary_for_form(np.eye(3))
    assert is_unitary_for_form(np.diag([-1, 1, -1]))
    assert not is_unitary_for_form(np.diag([2, 1, 1]))
    # only a 3x3 matrix can preserve the form
    assert not is_unitary_for_form(np.eye(2))


def test_normalize_to_su_picks_principal_cube_root():
    rng = make_rng(2)
    for _ in range(20):
        m = involution_from_polar(random_positive_vector(rng))
        scaled = cmath.exp(1j * rng.uniform(-math.pi, math.pi)) * m
        fixed = normalize_to_su(scaled)
        assert np.linalg.det(fixed) == pytest.approx(1, abs=1e-10)


def test_form_inverse_is_inverse():
    rng = make_rng(4)
    for _ in range(20):
        m = involution_from_polar(random_positive_vector(rng))
        np.testing.assert_allclose(form_inverse(m) @ m, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(FORM_MATRIX, np.diag([1, 1, -1]).astype(complex))


@pytest.mark.parametrize(
    "shape", [(4, 4), (2, 2), (3,), (3, 4), (1, 3, 3), ()], ids=lambda shape: str(shape).replace(" ", ""),
)
def test_matrix_functions_refuse_anything_but_a_3x3_matrix(shape):
    M = np.ones(shape) if shape != (4, 4) else np.eye(4)
    with pytest.raises(ValueError, match="^normalize_to_su needs a 3x3 matrix$"):
        normalize_to_su(M)
    with pytest.raises(ValueError, match="^form_inverse needs a 3x3 matrix$"):
        form_inverse(M)
    # a nested list takes the same refusal as an array
    with pytest.raises(ValueError, match="^form_inverse needs a 3x3 matrix$"):
        form_inverse(np.asarray(M).tolist())
