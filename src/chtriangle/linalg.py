"""Linear algebra for the Hermitian form of signature (2,1) on C^3.

Vectors are numpy arrays of shape (3,), matrices are 3x3 complex arrays
acting on column vectors.  The form is

    <z, w> = z1*conj(w1) + z2*conj(w2) - z3*conj(w3),

linear in the first slot and conjugate-linear in the second.  Points of
the complex hyperbolic plane are projectivised negative vectors; boundary
points are projectivised null vectors.  Nothing here normalises vectors
automatically: every operation is written to be projective-scale invariant.

All functions are pure; values can be shared freely across threads.
"""

import cmath
import math

import numpy as np

FORM_SIGNS = np.array([1.0, 1.0, -1.0])
FORM_MATRIX = np.diag(FORM_SIGNS).astype(complex)
_MINUS_IDENTITY = -np.eye(3, dtype=complex)
_MINUS_IDENTITY.flags.writeable = False

# max-entry tolerance for M* J M = J and |det - 1|
UNITARITY_TOL = 1e-10
# relative band around <z,z> = 0 that is classified as null
NULL_BAND = 1e-12


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
    """Signature-(2,1) Hermitian product <z, w>."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return complex(np.sum(FORM_SIGNS * z * np.conj(w)))


def vector_type(z) -> str:
    """Classify a nonzero vector as 'negative', 'null' or 'positive'.

    A relative band of NULL_BAND around <z,z> = 0 is mapped to 'null' so
    that exact boundary configurations survive rounding.
    """
    z = np.asarray(z, dtype=complex)
    return _type_of_norm(hermitian_form(z, z).real, z)


def _type_of_norm(q: float, z: np.ndarray) -> str:
    """Type of the vector z whose squared norm <z,z> is q."""
    scale = float(np.sum(np.abs(z) ** 2))
    if scale == 0.0:
        raise ValueError("zero vector has no type")
    if abs(q) <= NULL_BAND * scale:
        return "null"
    return "negative" if q < 0 else "positive"


def bergman_distance(x, y) -> float:
    """Bergman distance between the points spanned by two negative vectors.

    cosh^2(rho/2) = <x,y><y,x> / (<x,x><y,y>); the result does not depend
    on the choice of lifts.
    """
    if vector_type(x) != "negative" or vector_type(y) != "negative":
        raise ValueError("bergman_distance needs negative vectors")
    num = (hermitian_form(x, y) * hermitian_form(y, x)).real
    den = (hermitian_form(x, x) * hermitian_form(y, y)).real
    ratio = num / den
    # ratio >= 1 up to rounding; clip so coincident points give 0 exactly
    return 2.0 * math.acosh(math.sqrt(max(ratio, 1.0)))


def psi(point) -> np.ndarray:
    """Lift horospherical coordinates (xi, v, u) to a projective vector.

    Accepts the INFINITY marker, a (xi, v, u) triple, or any object with
    .xi/.v (and optionally .u) attributes.  The distinguished point at
    infinity lifts to (0, -1, 1); other lifts are null exactly when u = 0
    and negative when u > 0.
    """
    if point is INFINITY:
        return Q_INFINITY_LIFT.copy()
    if hasattr(point, "xi"):
        xi, v, u = point.xi, point.v, getattr(point, "u", 0.0)
    else:
        xi, v, u = point
    xi = complex(xi)
    if not u >= 0:
        raise ValueError("horospherical height u must be >= 0")
    r = abs(xi) ** 2
    return np.array(
        [xi, 0.5 * (1 - r - u + 1j * v), 0.5 * (1 + r + u - 1j * v)],
        dtype=complex,
    )


def z_chain_polar(z) -> np.ndarray:
    """Polar vector of the vertical chain through (z, 0)."""
    z = complex(z)
    return np.array([1.0, -np.conj(z), np.conj(z)], dtype=complex)


def zr_chain_polar(z: float, r: float) -> np.ndarray:
    """Polar vector of the radius-r circle chain centred on the vertical
    axis at height z."""
    if not r > 0:
        raise ValueError("chain radius must be positive")
    w = 1j * z
    return np.array([0.0, 1 + r * r + w, 1 - r * r - w], dtype=complex)


def involution_from_polar(p) -> np.ndarray:
    """Complex reflection of order 2 fixing the geodesic polar to p.

    As a linear map: z -> -z + 2 <z,p>/<p,p> p.  The result preserves the
    form and has determinant 1.
    """
    p = np.asarray(p, dtype=complex)
    pp = hermitian_form(p, p).real
    if _type_of_norm(pp, p) != "positive":
        raise ValueError("polar vector must be positive")
    mat = _MINUS_IDENTITY + (2.0 / pp) * np.outer(p, FORM_SIGNS * np.conj(p))
    return normalize_to_su(mat)


def normalize_to_su(M) -> np.ndarray:
    """Scale a form-unitary matrix so that det = 1.

    Divides by the cube root of the determinant whose argument lies in
    (-pi/3, pi/3], i.e. the principal root.
    """
    M = np.asarray(M, dtype=complex)
    d = complex(np.linalg.det(M))
    root = cmath.rect(abs(d) ** (1.0 / 3.0), cmath.phase(d) / 3.0)
    return M / root


def is_unitary_for_form(M) -> bool:
    """True when M* J M = J holds to max-entry tolerance UNITARITY_TOL."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        return False
    defect = M.conj().T @ FORM_MATRIX @ M - FORM_MATRIX
    return bool(np.abs(defect).max() <= UNITARITY_TOL)


def form_inverse(M) -> np.ndarray:
    """Inverse of a form-unitary matrix, computed exactly as J M* J."""
    M = np.asarray(M, dtype=complex)
    return FORM_MATRIX @ M.conj().T @ FORM_MATRIX
