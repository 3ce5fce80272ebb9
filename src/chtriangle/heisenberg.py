"""Heisenberg group, Cygan metric, Ford isometric spheres and Shimizu's lemma.

The punctured boundary of the complex hyperbolic plane is the Heisenberg
group: C x R with the twisted product

    (xi1, v1) * (xi2, v2) = (xi1 + xi2, v1 + v2 + 2 Im(xi1 conj(xi2))).

The Cygan metric is induced by the gauge |(xi, v)| = ||xi|^2 - iv|^(1/2).
Matrices act on the boundary through the horospherical lift psi.  The
boundary action, the isometric sphere and the translation read off a
Heisenberg translation matrix are what the Shimizu certificate
`shimizu_violation` needs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    INFINITY,
    form_inverse,
    is_unitary_for_form,
    psi,
)

# relative threshold under which an image vector is read as the point at
# infinity rather than re-normalised
INFINITY_TOL = 1e-10
# strict slack on the Shimizu inequality before reporting a violation
SHIMIZU_SLACK = 1e-12
# relative tolerance of the probe test in translation_of
TRANSLATION_TOL = 1e-8


@dataclass(frozen=True)
class HeisenbergPoint:
    """Boundary point (xi, v) in Heisenberg coordinates."""

    xi: complex
    v: float


@dataclass(frozen=True)
class IsometricSphere:
    """Cygan sphere on which an infinity-moving isometry acts isometrically."""

    center: HeisenbergPoint
    radius: float


ORIGIN = HeisenbergPoint(0j, 0.0)


def heis_mul(p: HeisenbergPoint, q: HeisenbergPoint) -> HeisenbergPoint:
    """Heisenberg group product."""
    twist = 2.0 * (complex(p.xi) * complex(q.xi).conjugate()).imag
    return HeisenbergPoint(complex(p.xi) + complex(q.xi), p.v + q.v + twist)


def heis_inverse(p: HeisenbergPoint) -> HeisenbergPoint:
    """Group inverse (-xi, -v)."""
    return HeisenbergPoint(-complex(p.xi), -p.v)


def heis_norm(p: HeisenbergPoint) -> float:
    """Gauge norm ||xi|^2 - iv|^(1/2)."""
    return abs(abs(complex(p.xi)) ** 2 - 1j * p.v) ** 0.5


def cygan_distance(p: HeisenbergPoint, q: HeisenbergPoint) -> float:
    """Left-invariant Cygan distance |p^-1 * q|."""
    return heis_norm(heis_mul(heis_inverse(p), q))


def _form_preserving(M, name: str) -> np.ndarray:
    """M as a complex array, after the one form-preservation check of a
    public call; the message names the function that checks it."""
    if not is_unitary_for_form(M):
        raise ValueError(f"{name} needs a matrix preserving the form")
    return np.asarray(M, dtype=complex)


def _image_of_lift(M: np.ndarray, point) -> np.ndarray:
    """M applied to the lift of a boundary point.  The lift of infinity
    is (0, -1, 1), so its image is a difference of two columns."""
    if point is INFINITY:
        return M[:, 2] - M[:, 1]
    return M @ psi((point.xi, point.v, 0.0))


def _act(M: np.ndarray, point, lift=None):
    """boundary_action on a complex array already checked to preserve the
    form; lift, when given, is psi's lift of point."""
    w = _image_of_lift(M, point) if lift is None else M @ lift
    w0, w1, w2 = w.tolist()
    denom = w1 + w2
    if abs(denom) <= INFINITY_TOL * max(abs(w0), abs(w1), abs(w2)):
        return INFINITY
    z0, z1, z2 = (w / denom).tolist()
    return HeisenbergPoint(z0, (z1 - z2).imag)


def boundary_action(M, point):
    """Apply a form-unitary matrix to a boundary point.

    Accepts a HeisenbergPoint or the INFINITY marker and returns the same
    kind of value; points carried to the distinguished point return
    INFINITY rather than raising.
    """
    return _act(_form_preserving(M, "boundary_action"), point)


def heisenberg_translation(xi, v) -> np.ndarray:
    """Matrix of the Heisenberg translation by (xi, v).

    Fixes the distinguished point and acts on the boundary as left
    multiplication by (xi, v).
    """
    xi = complex(xi)
    c = -abs(xi) ** 2 + 1j * v
    return np.array(
        [
            [1.0, xi, xi],
            [-xi.conjugate(), 1.0 + c / 2.0, c / 2.0],
            [xi.conjugate(), -c / 2.0, 1.0 - c / 2.0],
        ],
        dtype=complex,
    )


def _constant_lift(point) -> np.ndarray:
    """psi's lift of a constant point, taken once and kept read-only."""
    lift = psi(point)
    lift.flags.writeable = False
    return lift


# the origin and the probes of translation_of, with their lifts
_ORIGIN_LIFT = _constant_lift(ORIGIN)
_PROBES = tuple(
    (probe, _constant_lift(probe))
    for probe in (HeisenbergPoint(1.0 + 0j, 0.0), HeisenbergPoint(1j, 2.0))
)


def _translation(M: np.ndarray) -> HeisenbergPoint:
    """translation_of on a checked complex array."""
    if _act(M, INFINITY) is not INFINITY:
        raise ValueError("not a Heisenberg translation: infinity moves")
    t = _act(M, ORIGIN, _ORIGIN_LIFT)
    bound = TRANSLATION_TOL * (1.0 + abs(t.xi) ** 2 + abs(t.v))
    for probe, lift in _PROBES:
        got = _act(M, probe, lift)
        want = heis_mul(t, probe)
        if got is INFINITY:
            raise ValueError("not a Heisenberg translation")
        if abs(got.xi - want.xi) > bound or abs(got.v - want.v) > bound:
            raise ValueError("not a Heisenberg translation")
    return t


def translation_of(M) -> HeisenbergPoint:
    """Read off the translation vector of a Heisenberg translation matrix.

    Raises when M moves the distinguished point or fails to act as a left
    translation on probe points.
    """
    return _translation(_form_preserving(M, "translation_of"))


def _isometric_sphere(h: np.ndarray, forward) -> IsometricSphere:
    """isometric_sphere on a checked complex array whose image of
    infinity is forward; h^-1 gets its own check, as the defect of J h* J
    need not be that of h."""
    denom = abs(h[1, 1] - h[1, 2] + h[2, 1] - h[2, 2])
    if forward is INFINITY or denom <= 1e-14 * np.abs(h).max():
        raise ValueError("isometric sphere undefined: the map fixes infinity")
    center = _act(_form_preserving(form_inverse(h), "isometric_sphere"), INFINITY)
    return IsometricSphere(center=center, radius=math.sqrt(2.0 / denom))


def isometric_sphere(h) -> IsometricSphere:
    """Isometric sphere of an isometry not fixing the distinguished point.

    The centre is h^-1(infinity); the radius is
    sqrt(2 / |a22 - a23 + a32 - a33|).
    """
    h = _form_preserving(h, "isometric_sphere")
    return _isometric_sphere(h, _act(h, INFINITY))


def shimizu_violation(g, h) -> bool:
    """Certificate test from Shimizu's lemma for the complex hyperbolic plane.

    Any discrete group containing the Heisenberg translation g by (xi, v)
    and an element h moving infinity satisfies

        r_h^2 <= t_g(h^-1(inf)) * t_g(h(inf)) + 4 |xi|^2.

    Returns True when the inequality fails by more than SHIMIZU_SLACK, which
    certifies non-discreteness of any group containing g and h.  Each of
    g, h and h^-1 is checked once.
    """
    g = _form_preserving(g, "shimizu_violation")
    t = _translation(g)
    h = _form_preserving(h, "isometric_sphere")
    forward = _act(h, INFINITY)
    sphere = _isometric_sphere(h, forward)
    # the sphere's centre is h^-1(inf)
    backward = sphere.center

    def displacement(point):
        return cygan_distance(_act(g, point), point)

    bound = displacement(forward) * displacement(backward) + 4.0 * abs(t.xi) ** 2
    return sphere.radius**2 > bound + SHIMIZU_SLACK
