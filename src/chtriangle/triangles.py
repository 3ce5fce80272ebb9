"""Parametrised families of complex hyperbolic triangle groups.

A triangle of complex geodesics with corner angles (pi/m, pi/n, 0) is
pinned down, up to conjugation, by its angular invariant theta, the
argument of <p3,p2><p1,p3><p2,p1> for the polar vectors p1, p2, p3 of
its sides.  `build_mn_inf` produces the standard normalised
configuration: three polar vectors, the triangle vertices, and the three
side involutions that generate the group.  The slots are the builder's
(m, n); an infinite corner order is passed as math.inf and sits in the
slot it is passed in, so (n, inf, inf) is `build_mn_inf(n, math.inf,
theta)`, which `build_n_inf_inf(n, theta)` builds, and the ideal
triangle is `build_mn_inf(math.inf, math.inf, theta)`.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .closed import _check_order, _check_theta, _plain_order, corner_cos, is_infinite
from .linalg import cvector, involution_from_polar

# rejects configurations where the second and third sides collapse
DEGENERACY_TOL = 1e-14

_IDENTITY = np.eye(3, dtype=complex)
_IDENTITY.flags.writeable = False
# the involution index of each letter of a word
_LETTER_INDEX = {"1": 0, "2": 1, "3": 2}


@dataclass(frozen=True)
class TriangleType:
    """Shape parameters (m, n, theta) in the builder's slots; the third
    corner is always ideal, and an infinite m or n makes its corner
    ideal too."""

    m: float
    n: float
    theta: float

    def __post_init__(self):
        _check_order(self.m, "m")
        _check_order(self.n, "n")
        _check_theta(self.theta)
        # orders and theta are stored as Python numbers, so that records
        # built from them hold no numpy number
        object.__setattr__(self, "m", _plain_order(self.m))
        object.__setattr__(self, "n", _plain_order(self.n))
        object.__setattr__(self, "theta", float(self.theta))

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
        e.g. "123" or "3132".  Anything but a nonempty str is refused."""
        # strip leaves a nonempty string exactly when a letter is not 1, 2, 3
        if not isinstance(letters, str) or not letters or letters.strip("123"):
            raise ValueError("word must be a nonempty string over {1,2,3}")
        # the product starts from the identity: a BLAS product I @ A can
        # differ from A in the sign of zero entries, and words keep the
        # bits they always had
        out = _IDENTITY
        involutions = self.involutions
        for c in letters:
            out = out @ involutions[_LETTER_INDEX[c]]
        return out


def _shared_involution(p) -> np.ndarray:
    """Involution of a polar vector that no parameter moves, built once
    and made read-only because every group shares it."""
    out = involution_from_polar(p)
    out.flags.writeable = False
    return out


# the first side (0, 1, 0), and the second side (1, -1, 1) at an infinite
# n slot, do not depend on theta or the corner orders
_I1 = _shared_involution(cvector(0, 1, 0))
_I2_N_INF = _shared_involution(cvector(1, -1, 1))


def build_mn_inf(m: int, n: int, theta: float) -> TriangleGroup:
    """Triangle group with corner angles pi/m, pi/n and 0.

    The first side is the unit-circle chain; the second and third are the
    vertical chains through cos(pi/n) and e^(i theta) cos(pi/m).  Either
    or both of m, n may be math.inf: that corner is ideal too, in the
    slot the order is passed in, and its cosine is 1; (inf, inf) is the
    ideal triangle.  The configuration with the two vertical chains equal
    (theta = 0 and equal corner cosines) is refused as degenerate.
    """
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
    i2 = _I2_N_INF if is_infinite(n) else involution_from_polar(p2)
    return TriangleGroup(
        ttype=ttype,
        polars=(p1, p2, p3),
        vertices=(u1, u2, u3),
        involutions=(_I1, i2, involution_from_polar(p3)),
    )


def build_n_inf_inf(n: int, theta: float) -> TriangleGroup:
    """The (n, inf, inf) group build_mn_inf(n, math.inf, theta): the finite
    order n sits in the m slot."""
    if is_infinite(n):
        raise ValueError("the finite corner order n must be finite")
    # checked here, so that a refusal names n and not the m slot
    _check_order(n, "n")
    return build_mn_inf(n, math.inf, theta)
