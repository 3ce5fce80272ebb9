"""Linear algebra for the Hermitian form of signature (2,1) on C^3.

Vectors are numpy arrays of shape (3,), matrices are 3x3 complex arrays
acting on column vectors.  The form is

    <z, w> = z1*conj(w1) + z2*conj(w2) - z3*conj(w3),

linear in the first slot and conjugate-linear in the second.  Points of
the complex hyperbolic plane are projectivised negative vectors; boundary
points are projectivised null vectors.  Nothing here normalises vectors
automatically: every operation is written to be projective-scale invariant.

This module holds what the group builders and the boundary geometry
read: the form, the horospherical lift psi, the complex reflection in a
polar vector, the SU(2,1) normalisation and the form inverse.

All functions are pure; values can be shared freely across threads.
"""

import cmath
import math
import sys

import numpy as np

FORM_SIGNS = np.array([1.0, 1.0, -1.0])
FORM_MATRIX = np.diag(FORM_SIGNS).astype(complex)
# J_ii J_jj: J X J scales entry (i, j) of X by this
_FORM_SIGN_PRODUCTS = np.outer(FORM_SIGNS, FORM_SIGNS)
_FORM_SIGN_PRODUCTS.flags.writeable = False
_MINUS_IDENTITY = -np.eye(3, dtype=complex)
_MINUS_IDENTITY.flags.writeable = False

# max-entry tolerance for M* J M = J and |det - 1|
UNITARITY_TOL = 1e-10
# relative band around <p,p> = 0 inside which a polar vector is refused.
# The reflection's entries reach 2 |p|^2 / <p,p>, and rounding leaves it a
# form defect of about 4 eps (|p|^2 / <p,p>)^2, so at the band's edge the
# defect is about UNITARITY_TOL / 4: every accepted polar gives a matrix
# that is_unitary_for_form accepts
NULL_BAND = 4.0 * math.sqrt(sys.float_info.epsilon / UNITARITY_TOL)


class Infinity:
    """Singleton marker for the distinguished boundary point through which
    all vertical chains pass."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITY = Infinity()

#: Projective lift of the distinguished boundary point.
Q_INFINITY_LIFT = np.array([0.0, -1.0, 1.0], dtype=complex)


def cvector(z1, z2, z3) -> np.ndarray:
    """Build a C^3 vector from three complex components."""
    return np.array([z1, z2, z3], dtype=complex)


def hermitian_form(z, w) -> complex:
    """Signature-(2,1) Hermitian product <z, w> of two shape-(3,) vectors."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != (3,) or w.shape != (3,):
        raise ValueError("hermitian_form needs two vectors of shape (3,)")
    return complex(np.sum(FORM_SIGNS * z * np.conj(w)))


def psi(point) -> np.ndarray:
    """Lift horospherical coordinates (xi, v, u) to a projective vector.

    Accepts the INFINITY marker, a (xi, v, u) triple, or a boundary point
    with .xi/.v attributes, which lifts at height u = 0.  The distinguished
    point at infinity lifts to (0, -1, 1); other lifts are null exactly
    when u = 0 and negative when u > 0.  A NaN or negative height, an inf
    or NaN coordinate, and coordinates too large for a finite lift are
    refused.
    """
    if point is INFINITY:
        return Q_INFINITY_LIFT.copy()
    if hasattr(point, "xi"):
        xi, v, u = point.xi, point.v, 0.0
    else:
        xi, v, u = point
    xi = complex(xi)
    if not u >= 0:
        raise ValueError("horospherical height u must be >= 0")
    if not (cmath.isfinite(xi) and cmath.isfinite(v) and cmath.isfinite(u)):
        raise ValueError("horospherical coordinates must be finite")
    try:
        r = abs(xi) ** 2
    except OverflowError:
        r = cmath.inf
    z2 = 0.5 * (1 - r - u + 1j * v)
    z3 = 0.5 * (1 + r + u - 1j * v)
    if not (cmath.isfinite(z2) and cmath.isfinite(z3)):
        raise ValueError("horospherical coordinates too large for a finite lift")
    return np.array([xi, z2, z3], dtype=complex)


def involution_from_polar(p) -> np.ndarray:
    """Complex reflection of order 2 fixing the geodesic polar to p.

    As a linear map: z -> -z + 2 <z,p>/<p,p> p.  The result preserves the
    form to UNITARITY_TOL and has determinant 1.  p must be a finite
    3-vector with <p,p> above NULL_BAND |p|^2, so the zero vector, null and
    negative vectors, and positive vectors too close to the null cone for
    the rounded reflection to preserve the form are refused.
    """
    p = np.asarray(p, dtype=complex)
    if p.shape != (3,):
        raise ValueError("polar vector must have shape (3,)")
    scale = float(np.sum(np.abs(p) ** 2))
    # an inf or NaN entry leaves the squared norm inf or NaN, and so does
    # an entry whose square is past the float range
    if not cmath.isfinite(scale):
        raise ValueError("polar vector must be finite")
    # J conj(p) gives both <p,p> and the outer product p (J conj(p))^T
    jp = FORM_SIGNS * np.conj(p)
    pp = float(np.sum(p * jp).real)
    if not pp > NULL_BAND * scale:
        raise ValueError("polar vector must be positive")
    mat = _MINUS_IDENTITY + (2.0 / pp) * np.outer(p, jp)
    return normalize_to_su(mat)


def normalize_to_su(M) -> np.ndarray:
    """Scale a form-unitary matrix so that det = 1.

    Divides by the cube root of the determinant whose argument lies in
    (-pi/3, pi/3], i.e. the principal root.  Anything but a 3x3 matrix,
    and a zero or non-finite determinant, is refused.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise ValueError("normalize_to_su needs a 3x3 matrix")
    d = complex(np.linalg.det(M))
    if d == 0 or not cmath.isfinite(d):
        raise ValueError("matrix must have a finite nonzero determinant")
    root = cmath.rect(abs(d) ** (1.0 / 3.0), cmath.phase(d) / 3.0)
    return M / root


def is_unitary_for_form(M) -> bool:
    """True when M* J M = J holds to max-entry tolerance UNITARITY_TOL."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        return False
    return _form_defect(M) <= UNITARITY_TOL


def _form_defect(M: np.ndarray) -> float:
    """Largest entry modulus of M* J M - J for a 3x3 complex array; M* J
    is a column scaling, so this takes one matrix product."""
    return float(np.abs((M.conj().T * FORM_SIGNS) @ M - FORM_MATRIX).max())


def form_inverse(M) -> np.ndarray:
    """Inverse of a form-unitary matrix, J M* J, computed exactly as M*
    with entry (i, j) times the sign product J_ii J_jj.

    It is value-equal to the matrix product J @ M* @ J; the sign of an
    exact zero may differ.  Anything but a 3x3 matrix is refused.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise ValueError("form_inverse needs a 3x3 matrix")
    return M.conj().T * _FORM_SIGN_PRODUCTS
