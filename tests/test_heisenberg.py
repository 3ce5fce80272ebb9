import cmath
import math

import numpy as np
import pytest

from chtriangle.closed import corner_cos
from chtriangle.heisenberg import (
    ORIGIN,
    ExtendedPoint,
    HeisenbergPoint,
    boundary_action,
    cygan_distance,
    cygan_distance_ext,
    fixes_infinity,
    heis_inverse,
    heis_mul,
    heisenberg_translation,
    isometric_sphere,
    shimizu_violation,
    translation_length,
    translation_of,
)
from chtriangle.linalg import INFINITY, form_inverse, is_unitary_for_form
from chtriangle.criteria import shimizu_value
from chtriangle.triangles import build_mn_inf
from helpers import make_rng, random_heisenberg_point


def test_group_law_examples():
    p = HeisenbergPoint(0.3 + 0.7j, -1.2)
    assert heis_mul(HeisenbergPoint(0j, 0.0), p) == p
    q = heis_mul(HeisenbergPoint(1, 0), HeisenbergPoint(1j, 0))
    assert q.xi == pytest.approx(1 + 1j)
    assert q.v == pytest.approx(-2)
    back = heis_mul(p, heis_inverse(p))
    assert back.xi == pytest.approx(0) and back.v == pytest.approx(0)


def test_group_law_is_associative_not_commutative():
    rng = make_rng(23)
    commuted = 0
    for _ in range(100):
        p, q, r = (random_heisenberg_point(rng) for _ in range(3))
        left = heis_mul(heis_mul(p, q), r)
        right = heis_mul(p, heis_mul(q, r))
        assert left.xi == pytest.approx(right.xi, abs=1e-12)
        assert left.v == pytest.approx(right.v, abs=1e-12)
        pq, qp = heis_mul(p, q), heis_mul(q, p)
        if abs(pq.v - qp.v) > 1e-9:
            commuted += 1
    assert commuted > 50


def test_cygan_distance_examples():
    p = HeisenbergPoint(0.4 - 1j, 2.0)
    assert cygan_distance(p, p) == 0
    assert cygan_distance(ORIGIN, HeisenbergPoint(3 + 4j, 0)) == pytest.approx(5)
    assert cygan_distance(ORIGIN, HeisenbergPoint(0j, -9.0)) == pytest.approx(3)


def test_cygan_distance_is_a_metric_on_random_triples():
    rng = make_rng(29)
    for _ in range(1000):
        p, q, r = (random_heisenberg_point(rng) for _ in range(3))
        dpq = cygan_distance(p, q)
        assert dpq == pytest.approx(cygan_distance(q, p), abs=1e-12)
        assert dpq <= cygan_distance(p, r) + cygan_distance(r, q) + 1e-12


def test_cygan_distance_left_invariance():
    rng = make_rng(37)
    for _ in range(200):
        g, p, q = (random_heisenberg_point(rng) for _ in range(3))
        assert cygan_distance(heis_mul(g, p), heis_mul(g, q)) == pytest.approx(
            cygan_distance(p, q), abs=1e-11
        )


def test_extended_cygan_examples():
    assert cygan_distance_ext(ExtendedPoint(0j, 0, 1), ExtendedPoint(0j, 0, 1)) == 0
    assert cygan_distance_ext(ExtendedPoint(0j, 0, 1), ExtendedPoint(0j, 0, 0)) == pytest.approx(1)
    assert cygan_distance_ext(ExtendedPoint(2j, 0, 0), ExtendedPoint(0j, 0, 0)) == pytest.approx(2)


def test_extended_cygan_restricts_to_boundary_metric():
    rng = make_rng(41)
    for _ in range(100):
        p, q = random_heisenberg_point(rng), random_heisenberg_point(rng)
        assert cygan_distance_ext(
            ExtendedPoint(p.xi, p.v, 0.0), ExtendedPoint(q.xi, q.v, 0.0)
        ) == pytest.approx(cygan_distance(p, q), abs=1e-12)


def test_extended_point_rejects_negative_height():
    with pytest.raises(ValueError):
        ExtendedPoint(0j, 0.0, -1.0)


def test_extended_point_rejects_nan_height():
    # the check used to be u < 0, which NaN passes
    with pytest.raises(ValueError, match="^horospherical height u must be >= 0$"):
        ExtendedPoint(0j, 0.0, math.nan)


def test_point_objects_lift_through_psi():
    from chtriangle.linalg import hermitian_form, psi

    lift = psi(HeisenbergPoint(1 + 2j, 0.5))
    assert hermitian_form(lift, lift) == pytest.approx(0, abs=1e-12)
    lift = psi(ExtendedPoint(1 + 2j, 0.5, 0.7))
    assert hermitian_form(lift, lift).real == pytest.approx(-0.7, abs=1e-12)


def test_boundary_action_identity_and_side_involutions():
    rng = make_rng(43)
    for _ in range(20):
        p = random_heisenberg_point(rng)
        q = boundary_action(np.eye(3), p)
        assert q.xi == pytest.approx(p.xi, abs=1e-12)
        assert q.v == pytest.approx(p.v, abs=1e-12)
    group = build_mn_inf(8, 5, 0.9)
    assert boundary_action(group.involutions[1], INFINITY) is INFINITY
    assert boundary_action(group.involutions[2], INFINITY) is INFINITY
    image = boundary_action(group.involutions[0], INFINITY)
    assert image.xi == pytest.approx(0, abs=1e-12)
    assert image.v == pytest.approx(0, abs=1e-12)


def test_boundary_action_rejects_non_unitary():
    with pytest.raises(ValueError):
        boundary_action(np.diag([2, 1, 1]), ORIGIN)


def test_translation_matrix_acts_as_left_multiplication():
    rng = make_rng(47)
    for _ in range(25):
        t = random_heisenberg_point(rng)
        mat = heisenberg_translation(t.xi, t.v)
        assert is_unitary_for_form(mat)
        assert fixes_infinity(mat)
        recovered = translation_of(mat)
        assert recovered.xi == pytest.approx(t.xi, abs=1e-10)
        assert recovered.v == pytest.approx(t.v, abs=1e-10)
        p = random_heisenberg_point(rng)
        got = boundary_action(mat, p)
        want = heis_mul(t, p)
        assert got.xi == pytest.approx(want.xi, abs=1e-10)
        assert got.v == pytest.approx(want.v, abs=1e-10)


def test_translation_of_rejects_a_rotation_fixing_infinity():
    # the rotation fixes infinity and the origin but moves the probe points
    with pytest.raises(ValueError, match="^not a Heisenberg translation$"):
        translation_of(np.diag([cmath.exp(0.5j), 1, 1]))


def test_translation_length_examples():
    rng = make_rng(53)
    vertical = heisenberg_translation(0, 4.0)
    for _ in range(10):
        z = random_heisenberg_point(rng)
        assert translation_length(vertical, z) == pytest.approx(2.0, abs=1e-10)
    generic = heisenberg_translation(3 + 4j, -2.0)
    assert translation_length(generic, ORIGIN) == pytest.approx(
        abs(25 + 2j) ** 0.5, abs=1e-10
    )


def test_translation_length_needs_infinity_fixed():
    group = build_mn_inf(8, 5, 0.9)
    with pytest.raises(ValueError):
        translation_length(group.involutions[0], ORIGIN)


def test_isometric_sphere_of_first_involution():
    group = build_mn_inf(8, 5, 0.9)
    sphere = isometric_sphere(group.involutions[0])
    assert sphere.radius == pytest.approx(1.0, abs=1e-12)
    assert sphere.center.xi == pytest.approx(0, abs=1e-12)
    assert sphere.center.v == pytest.approx(0, abs=1e-12)


def test_isometric_sphere_rejects_infinity_fixing_maps():
    group = build_mn_inf(8, 5, 0.9)
    with pytest.raises(ValueError):
        isometric_sphere(group.involutions[1])


def test_isometric_sphere_regression_conjugated_involution():
    # reflect the unit-circle side in the vertical side: centre moves to
    # twice the chain base point, the radius is preserved
    group = build_mn_inf(4, 4, math.pi / 4)
    h = group.word("212")
    sphere = isometric_sphere(h)
    assert sphere.radius == pytest.approx(1.0, abs=1e-12)
    assert sphere.center.xi == pytest.approx(math.sqrt(2), abs=1e-12)
    assert sphere.center.v == pytest.approx(0.0, abs=1e-12)
    # independent route: generic inverse and the radius formula
    hinv = np.linalg.inv(h)
    w = hinv @ np.array([0, -1, 1], dtype=complex)
    w = w / (w[1] + w[2])
    assert w[0] == pytest.approx(sphere.center.xi, abs=1e-12)
    denom = abs(h[1, 1] - h[1, 2] + h[2, 1] - h[2, 2])
    assert sphere.radius == pytest.approx(math.sqrt(2 / denom), abs=1e-14)


def test_sphere_centres_swap_under_the_map():
    # h carries the distinguished point to the centre of the sphere of
    # h^-1, and its own sphere's centre back to the distinguished point
    for h in (
        build_mn_inf(8, 5, 0.9).involutions[0],
        build_mn_inf(4, 4, math.pi / 4).word("212"),
        build_mn_inf(5, 7, 2.0).word("313"),
    ):
        own_center = isometric_sphere(h).center
        other_center = isometric_sphere(form_inverse(h)).center
        image = boundary_action(h, INFINITY)
        assert image.xi == pytest.approx(other_center.xi, abs=1e-9)
        assert image.v == pytest.approx(other_center.v, abs=1e-9)
        assert boundary_action(h, own_center) is INFINITY


def test_shimizu_violation_examples():
    group = build_mn_inf(8, 4, math.acos(0.9999))
    assert shimizu_violation(group.word("23"), group.involutions[0])
    group = build_mn_inf(8, 4, math.acos(0.9))
    assert not shimizu_violation(group.word("23"), group.involutions[0])
    huge_vertical = heisenberg_translation(0, 10**6)
    assert not shimizu_violation(huge_vertical, group.involutions[0])


def test_shimizu_violation_rejects_bad_inputs():
    group = build_mn_inf(8, 4, 0.7)
    with pytest.raises(ValueError):
        shimizu_violation(group.involutions[0], group.involutions[0])
    with pytest.raises(ValueError):
        shimizu_violation(group.word("23"), group.involutions[1])


def test_shimizu_bound_matches_closed_form_on_grid():
    # the matrix-level Shimizu bound for the side pair reduces to the
    # closed defining function of the scan criterion
    m, n = 8, 4
    s1, s2 = corner_cos(n), corner_cos(m)
    for a in np.linspace(-0.95, 0.95, 41):
        theta = math.acos(float(a))
        group = build_mn_inf(m, n, theta)
        g = group.word("23")
        h = group.involutions[0]
        t = translation_of(g)
        forward = boundary_action(h, INFINITY)
        backward = boundary_action(form_inverse(h), INFINITY)
        bound = (
            cygan_distance(boundary_action(g, forward), forward)
            * cygan_distance(boundary_action(g, backward), backward)
            + 4 * abs(t.xi) ** 2
        )
        closed = 4.0 * (shimizu_value(m, n, float(a)) + 0.25)
        assert bound == pytest.approx(closed, abs=1e-10)
