"""Parametrised families of complex hyperbolic triangle groups.

A triangle of complex geodesics with corner angles (pi/m, pi/n, 0) is
pinned down, up to conjugation, by its angular invariant theta.  The
builders here produce the standard normalised configuration: three polar
vectors, the triangle vertices, and the three side involutions that
generate the group.  Infinite corner orders are passed as math.inf.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import cvector, hermitian_form, involution_from_polar

# rejects configurations where the second and third sides collapse
DEGENERACY_TOL = 1e-14

_IDENTITY = np.eye(3, dtype=complex)
_IDENTITY.flags.writeable = False


def is_infinite(order) -> bool:
    """True for the infinite corner order, +inf; -inf is no order."""
    return isinstance(order, float) and order == math.inf


def _is_integer(value) -> bool:
    """True for Python and numpy integers; a bool is no integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_order(order, name: str, integer: bool = True):
    """Reject corner orders below 3 and, with integer, non-integer ones."""
    if is_infinite(order):
        return
    if not order >= 3 or (integer and order != int(order)):
        kind = "an integer >= 3" if integer else ">= 3"
        raise ValueError(f"{name} must be {kind} or infinity")


def _check_orders(m, n):
    """Reject corner orders below 3, NaN included; orders need not be
    integers, as the criteria are continuous in them."""
    _check_order(m, "m", integer=False)
    _check_order(n, "n", integer=False)


def _check_theta(theta):
    """Reject an angular invariant outside [0, pi], NaN included."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")


def _check_closed_form_order(order, name: str):
    """Reject orders <= 2 and NaN, where the corner cosine of a closed
    trace formula is not positive."""
    if not order > 2:
        raise ValueError(f"{name} must be > 2 or infinity")


def corner_cos(order) -> float:
    """cos(pi/order), with the value 1 at an infinite order."""
    return 1.0 if is_infinite(order) else math.cos(math.pi / order)


def corner_sin(order) -> float:
    """sin(pi/order), with the value 0 at an infinite order."""
    return 0.0 if is_infinite(order) else math.sin(math.pi / order)


@dataclass(frozen=True)
class TriangleType:
    """Shape parameters (m, n, theta); the third corner is always ideal."""

    m: float
    n: float
    theta: float

    def __post_init__(self):
        _check_order(self.m, "m")
        _check_order(self.n, "n")
        _check_theta(self.theta)

    @property
    def a(self) -> float:
        """Parameter a = cos(theta)."""
        return math.cos(self.theta)


@dataclass(frozen=True)
class TriangleGroup:
    """A normalised triangle configuration and its three involutions.

    An involution that does not depend on the parameters is one read-only
    array shared by every group; `word` always returns a fresh array.
    """

    ttype: TriangleType
    polars: tuple
    vertices: tuple
    involutions: tuple

    def word(self, letters: str) -> np.ndarray:
        """Product of involutions named by a word over {1, 2, 3},
        e.g. "123" or "3132"."""
        if not letters or any(c not in "123" for c in letters):
            raise ValueError("word must be a nonempty string over {1,2,3}")
        # the product starts from the identity: a BLAS product I @ A can
        # differ from A in the sign of zero entries, and words keep the
        # bits they always had
        out = _IDENTITY
        for c in letters:
            out = out @ self.involutions[int(c) - 1]
        return out


def _shared_involution(p) -> np.ndarray:
    """Involution of a polar vector that no parameter moves, built once
    and made read-only because every group shares it."""
    out = involution_from_polar(p)
    out.flags.writeable = False
    return out


# the first side (0, 1, 0) of both families and the second side (1, -1, 1)
# of the (n, inf, inf) family do not depend on theta or the corner orders
_I1 = _shared_involution(cvector(0, 1, 0))
_I2_N_INF_INF = _shared_involution(cvector(1, -1, 1))


def build_mn_inf(m: int, n: int, theta: float) -> TriangleGroup:
    """Triangle group with two finite corner angles pi/m and pi/n.

    The first side is the unit-circle chain; the second and third are the
    vertical chains through cos(pi/n) and e^(i theta) cos(pi/m).  The
    configuration with those two chains equal (theta = 0, m = n) is
    rejected as degenerate.
    """
    if is_infinite(m) or is_infinite(n):
        raise ValueError("both corner orders must be finite here")
    ttype = TriangleType(m, n, theta)
    s1 = corner_cos(n)
    s2 = corner_cos(m)
    z1 = complex(s1)
    z2 = s2 * cmath.exp(1j * theta)
    if abs(z2 - z1) < DEGENERACY_TOL:
        raise ValueError("degenerate configuration: two sides coincide")
    p1 = cvector(0, 1, 0)
    p2 = cvector(1, -z1, z1)
    p3 = cvector(1, -z2.conjugate(), z2.conjugate())
    u1 = cvector(0, 1, -1)
    u2 = cvector(z2, 0, 1)
    u3 = cvector(z1.conjugate(), 0, 1)
    return TriangleGroup(
        ttype=ttype,
        polars=(p1, p2, p3),
        vertices=(u1, u2, u3),
        involutions=(_I1, involution_from_polar(p2), involution_from_polar(p3)),
    )


def build_n_inf_inf(n: int, theta: float) -> TriangleGroup:
    """Triangle group with a single finite corner angle pi/n.

    Normalisation with the second side the vertical chain through 1 and
    the third the vertical chain through e^(i theta) cos(pi/n); the finite
    corner sits between the third and first sides.
    """
    if is_infinite(n):
        raise ValueError("the finite corner order n must be finite")
    ttype = TriangleType(math.inf, n, theta)
    s = corner_cos(n)
    w = s * cmath.exp(-1j * theta)
    p1 = cvector(0, 1, 0)
    p2 = cvector(1, -1, 1)
    p3 = cvector(1, -w, w)
    u1 = cvector(0, 1, -1)
    u2 = cvector(w.conjugate(), 0, 1)
    u3 = cvector(1, 0, 1)
    return TriangleGroup(
        ttype=ttype,
        polars=(p1, p2, p3),
        vertices=(u1, u2, u3),
        involutions=(_I1, _I2_N_INF_INF, involution_from_polar(p3)),
    )


def _trace_123_circle(m, n) -> tuple[float, float]:
    """Center c = -(4 (s1^2 + s2^2) + 1) and radius R = 8 s1 s2 of the
    circle tr(123) = c + R e^(i theta), with s1 = cos(pi/n) and
    s2 = cos(pi/m); the one definition of the trace circle."""
    s1 = corner_cos(n)
    s2 = corner_cos(m)
    return -(4.0 * (s1 * s1 + s2 * s2) + 1.0), 8.0 * s1 * s2


def trace_word_123(m, n, theta) -> complex:
    """Closed form for the trace of the product of the three involutions.

    tr = -(4 cos^2(pi/m) + 4 cos^2(pi/n) + 1)
         + 8 e^(i theta) cos(pi/m) cos(pi/n),

    valid for finite or infinite corner orders.  The orders must be > 2,
    so that both corner cosines are positive, or infinite; NaN is refused.
    They need not be integers, as the closed form is continuous in them.
    """
    _check_closed_form_order(m, "m")
    _check_closed_form_order(n, "n")
    return _trace_word_123(m, n, theta)


def _trace_word_123(m, n, theta) -> complex:
    """trace_word_123 for orders the caller has checked."""
    c, radius = _trace_123_circle(m, n)
    return complex(c + radius * cmath.exp(1j * theta))


def trace_word_3132(n, a) -> float:
    """Closed form 3 + 16 s^2 - 16 s a for the word 3132 in the family
    with one finite corner order n, where s = cos(pi/n) and a = cos(theta).
    The order must be > 2 or infinite, NaN refused; it need not be an
    integer."""
    _check_closed_form_order(n, "n")
    return _trace_word_3132(n, a)


def _trace_word_3132(n, a) -> float:
    """trace_word_3132 for an order the caller has checked."""
    s = corner_cos(n)
    return 3.0 + 16.0 * s * s - 16.0 * s * a


def parameter_t(theta: float) -> float:
    """Alternative deformation parameter t with cos(theta) = (t^2-1)/(t^2+1)."""
    if not 0.0 < theta < math.pi:
        raise ValueError("parameter_t needs theta strictly inside (0, pi)")
    a = math.cos(theta)
    return math.sqrt((1.0 + a) / (1.0 - a))


def angular_invariant(p1, p2, p3) -> float:
    """Angular invariant: arg of the cyclic product of the pairwise
    Hermitian products of the polar vectors."""
    prod = (
        hermitian_form(p3, p2)
        * hermitian_form(p1, p3)
        * hermitian_form(p2, p1)
    )
    return math.atan2(prod.imag, prod.real)
