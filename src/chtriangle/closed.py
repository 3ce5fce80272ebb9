"""Closed forms of the (m, n, ideal) family, on Python numbers.

The certificates rest on closed formulas: the corner cosines, the trace
circle tr(123) = c + R e^(i theta), the closed traces of the words 123
and 3132, the discriminant f of a trace and the Cardano roots of a
cubic.  They live here with the order and theta checks and the constants
they read, and the modules that build matrices import them from here.

This module does not import numpy: `criteria`, which imports only this
module, and the `tables` and `scan` commands run without it.  Only
`discriminant` of an array loads numpy, on that call.
"""

import cmath
import enum
import math
import numbers
import sys

# f < -this is regular elliptic; |f| <= this is on the f = 0 locus
EPS_DISCRIMINANT = 1e-9
_FLOAT_MAX = sys.float_info.max


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    REGULAR_ELLIPTIC = "regular_elliptic"
    BOUNDARY_ELLIPTIC = "boundary_elliptic"
    UNIPOTENT_PARABOLIC = "unipotent_parabolic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"

    def __str__(self):
        return self.value


def is_infinite(order) -> bool:
    """True for the infinite corner order, +inf; -inf is no order."""
    return isinstance(order, float) and order == math.inf


def _is_integer(value) -> bool:
    """True for Python and numpy integers; a bool is no integer here.
    A Python int or float is told by its type, several times faster than
    the abstract base class check that numpy integers need."""
    if type(value) is int or type(value) is float:
        return type(value) is int
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_order(order, name: str, integer: bool = True):
    """Reject corner orders below 3, finite orders too large for a float
    and, with integer, non-integer ones."""
    if is_infinite(order):
        return
    if not 3 <= order <= _FLOAT_MAX or (integer and order != int(order)):
        _check_float_size(order, name)
        kind = "an integer >= 3" if integer else ">= 3"
        raise ValueError(f"{name} must be {kind} or infinity")


def _check_float_size(order, name: str):
    """Reject a finite order above the largest float, for which pi/order,
    and so the corner cosine, has no float value."""
    if order > _FLOAT_MAX and not is_infinite(order):
        raise ValueError(f"{name} is too large for a float; pass inf for an infinite order")


def _plain_order(order):
    """An integer order as a Python int, so that records built from it
    hold no numpy integer; any other order as given."""
    return int(order) if _is_integer(order) else order


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
    trace formula is not positive, and finite orders too large for a float."""
    if not 2 < order <= _FLOAT_MAX and not is_infinite(order):
        _check_float_size(order, name)
        raise ValueError(f"{name} must be > 2 or infinity")


def corner_cos(order) -> float:
    """cos(pi/order), with the value 1 at an infinite order."""
    return 1.0 if is_infinite(order) else math.cos(math.pi / order)


def corner_sin(order) -> float:
    """sin(pi/order), with the value 0 at an infinite order."""
    return 0.0 if is_infinite(order) else math.sin(math.pi / order)


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
    c, radius = _trace_123_circle(m, n)
    return complex(c + radius * cmath.exp(1j * theta))


def trace_word_3132(n, a) -> float:
    """Closed form 3 + 16 s^2 - 16 s a for the word 3132 in the family
    with one finite corner order n, where s = cos(pi/n) and a = cos(theta).
    The order must be > 2 or infinite, NaN refused; it need not be an
    integer.

    "3132" names the word in the slots of build_mn_inf(n, inf, theta).  In
    the slots the criteria use, build_mn_inf(inf, n, theta), the same trace
    is that of 1232; in both it is the trace of 2131."""
    _check_closed_form_order(n, "n")
    s = corner_cos(n)
    return 3.0 + 16.0 * s * s - 16.0 * s * a


def _locus_3132(s, c) -> float:
    """The inverse of the 3132 trace: the a at which the word 3132 has
    trace 1 + 2c, for s = cos(pi/n): (8 s^2 - c + 1)/(8 s), and exactly s
    at the parabolic point c = 1."""
    return s if c == 1.0 else (8.0 * s * s - c + 1.0) / (8.0 * s)


def discriminant(z):
    """Evaluate f(z) = |z|^4 - 8 Re(z^3) + 18 |z|^2 - 27.

    One body for every input: a Python or numpy scalar becomes a Python
    complex, anything else a complex128 array (a 0-d one then a Python
    complex), and f is written on x = Re z and y = Im z with only +, -
    and *:

        r2 = x^2 + y^2,  f = r2^2 - 8 x (x^2 - 3 y^2) + 18 r2 - 27.

    These operations round the same on Python floats and in numpy's
    elementwise loops, so a scalar (returned as a Python float), a 0-d
    array and each element of an array give the same bits.  Large or
    non-finite z give inf or NaN, never an exception.
    """
    # the concrete types first: they skip the slower abstract base class check
    if isinstance(z, (complex, float, int, numbers.Number)):
        z = complex(z)
    else:
        import numpy as np

        z = np.asarray(z, dtype=complex)
        if z.ndim == 0:
            z = z.item()
    x = z.real
    y = z.imag
    r2 = x * x + y * y
    return r2 * r2 - 8.0 * x * (x * x - 3.0 * y * y) + 18.0 * r2 - 27.0


def cubic_roots(c2: complex, c1: complex, c0: complex):
    """Roots of x^3 - c2 x^2 + c1 x - c0 by the closed Cardano formulas."""
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = -c0 + c1 * c2 / 3.0 - 2.0 * c2**3 / 27.0
    if abs(p) < 1e-30 and abs(q) < 1e-30:
        return (shift, shift, shift)
    delta = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3a = -q / 2.0 + delta
    u3b = -q / 2.0 - delta
    u3 = u3a if abs(u3a) >= abs(u3b) else u3b
    u = u3 ** (1.0 / 3.0)
    v = -p / (3.0 * u)
    w = cmath.exp(2j * cmath.pi / 3.0)
    return tuple(u * w**j + v * w**-j + shift for j in range(3))
