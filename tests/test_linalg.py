import cmath
import math

import numpy as np
import pytest

from chtriangle.linalg import (
    FORM_MATRIX,
    INFINITY,
    bergman_distance,
    cvector,
    form_inverse,
    hermitian_form,
    involution_from_polar,
    is_unitary_for_form,
    normalize_to_su,
    psi,
    vector_type,
    z_chain_polar,
    zr_chain_polar,
)
from helpers import make_rng, random_negative_vector, random_positive_vector


def test_hermitian_form_basic_values():
    assert hermitian_form(cvector(0, 1, 0), cvector(0, 1, 0)) == 1
    assert hermitian_form(cvector(0, 0, 1), cvector(0, 0, 1)) == -1
    assert hermitian_form(cvector(0, 1, -1), cvector(0, 1, -1)) == 0


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


def test_vector_type_examples():
    assert vector_type(cvector(0, 0, 1)) == "negative"
    assert vector_type(cvector(0, 1, -1)) == "null"
    assert vector_type(cvector(1, -1, 1)) == "positive"


def test_vector_type_rejects_zero():
    with pytest.raises(ValueError):
        vector_type(cvector(0, 0, 0))


def test_bergman_distance_coincident_points():
    x = cvector(0, 0, 1)
    assert bergman_distance(x, x) == 0.0


def test_bergman_distance_hand_value():
    # cosh^2(rho/2) = 1/(1 - 0.36) = 1.5625, so rho = 2 log 2
    x = cvector(0, 0, 1)
    y = cvector(0.6, 0, 1)
    assert bergman_distance(x, y) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_bergman_distance_projective_invariance():
    x = cvector(0, 0, 1)
    assert bergman_distance(x, (2 + 1j) * x) == 0.0
    y = cvector(0.6, 0, 1)
    d = bergman_distance(x, y)
    assert bergman_distance((3 - 2j) * x, (0.1 + 7j) * y) == pytest.approx(d, abs=1e-12)


def test_bergman_distance_contracts_on_random_pairs():
    rng = make_rng(5)
    for _ in range(100):
        x = random_negative_vector(rng)
        y = random_negative_vector(rng)
        d = bergman_distance(x, y)
        assert d >= 0
        assert bergman_distance(y, x) == pytest.approx(d, abs=1e-10)
        lam = complex(rng.randn(), rng.randn()) or 1.0
        assert bergman_distance(lam * x, y) == pytest.approx(d, abs=1e-10)


def test_bergman_distance_rejects_nonnegative_vectors():
    with pytest.raises(ValueError):
        bergman_distance(cvector(0, 1, 0), cvector(0, 0, 1))
    with pytest.raises(ValueError):
        bergman_distance(cvector(0, 0, 1), cvector(0, 1, -1))


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


def test_zr_chain_polar_rejects_nan_and_nonpositive_radius():
    for r in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="^chain radius must be positive$"):
            zr_chain_polar(0.5, r)


def test_psi_norm_tracks_height():
    rng = make_rng(7)
    for _ in range(50):
        xi = complex(rng.randn(), rng.randn())
        v = float(rng.randn())
        assert vector_type(psi((xi, v, 0.0))) == "null"
        u = float(rng.uniform(0.1, 3.0))
        lift = psi((xi, v, u))
        assert vector_type(lift) == "negative"
        assert hermitian_form(lift, lift).real == pytest.approx(-u, abs=1e-12)


def test_chain_polar_values():
    np.testing.assert_allclose(z_chain_polar(math.cos(math.pi / 3)), [1, -0.5, 0.5])
    np.testing.assert_allclose(zr_chain_polar(0, 1), [0, 2, 0])
    np.testing.assert_allclose(zr_chain_polar(1, 1), [0, 2 + 1j, -1j])


def test_chain_polar_vectors_are_positive():
    rng = make_rng(3)
    for _ in range(25):
        assert vector_type(z_chain_polar(complex(rng.randn(), rng.randn()))) == "positive"
        assert vector_type(zr_chain_polar(rng.randn(), rng.uniform(0.1, 4))) == "positive"


def test_chain_polar_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        zr_chain_polar(0.0, 0.0)
    with pytest.raises(ValueError):
        zr_chain_polar(0.0, -1.0)


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
    with pytest.raises(ValueError):
        involution_from_polar(cvector(0, 0, 1))
    with pytest.raises(ValueError):
        involution_from_polar(cvector(0, 1, -1))


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
