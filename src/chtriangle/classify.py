"""Trace-based classification of isometries in SU(2,1).

The discriminant polynomial

    f(z) = |z|^4 - 8 Re(z^3) + 18 |z|^2 - 27

separates the conjugacy types: f(tr M) < 0 exactly for regular elliptic
elements, f > 0 for loxodromic ones, and the f = 0 locus carries the
boundary elliptic and parabolic elements, which are told apart by the
eigenstructure of M.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .closed import EPS_DISCRIMINANT, IsometryClass, cubic_roots, discriminant
from .linalg import is_unitary_for_form, normalize_to_su

# eigenvalue modulus above 1 + this certifies loxodromic at rank 3 on the band
EPS_LOXODROMIC = 1e-7
# rank tolerance for (M - lambda I), scaled by the spectral norm of M
RANK_TOL = 1e-8
# eigenvalue clustering scale used to detect repeated spectra
CLUSTER_TOL = 1e-4

_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


@dataclass(frozen=True)
class Classification:
    """Classification verdict with its witnesses."""

    tag: IsometryClass
    trace: complex
    eigenvalues: tuple
    discriminant: float


def trace(M) -> complex:
    """Sum of the diagonal entries."""
    return _trace(np.asarray(M, dtype=complex).tolist())


def second_invariant(M) -> complex:
    """Sum of the principal 2x2 minors (second characteristic coefficient)."""
    return _second_invariant(np.asarray(M, dtype=complex).tolist())


def _trace(a) -> complex:
    """Trace of a matrix given as nested lists, summed left to right as
    np.trace sums."""
    return a[0][0] + a[1][1] + a[2][2]


def _second_invariant(a) -> complex:
    """Second invariant of a matrix given as nested lists."""
    return (
        a[0][0] * a[1][1] - a[0][1] * a[1][0]
        + a[0][0] * a[2][2] - a[0][2] * a[2][0]
        + a[1][1] * a[2][2] - a[1][2] * a[2][1]
    )


def _repeated_eigenvalue(c2, c1, eigenvalues):
    """Best estimate of the repeated root: the critical point of the
    characteristic polynomial nearest the closest root pair."""
    pairs = [(abs(eigenvalues[i] - eigenvalues[j]), i, j)
             for i in range(3) for j in range(i + 1, 3)]
    _, i, j = min(pairs)
    center = 0.5 * (eigenvalues[i] + eigenvalues[j])
    # roots of the derivative 3 x^2 - 2 c2 x + c1
    disc = cmath.sqrt(c2 * c2 - 3.0 * c1)
    cand = ((c2 + disc) / 3.0, (c2 - disc) / 3.0)
    return min(cand, key=lambda t: abs(t - center))


def classify(M) -> Classification:
    """Classify a form-unitary matrix up to the SU(2,1) scaling ambiguity.

    Regular elliptic and loxodromic elements are decided by the sign of
    the discriminant of the trace; on the borderline |f| <= EPS_DISCRIMINANT
    the decision falls to the eigenstructure, never to the sign of f.
    """
    M = np.asarray(M, dtype=complex)
    if not is_unitary_for_form(M):
        raise ValueError("classify needs a matrix preserving the form")
    M = normalize_to_su(M)

    entries = M.tolist()
    tau = _trace(entries)
    f = discriminant(tau)
    c1 = _second_invariant(entries)
    c0 = complex(np.linalg.det(M))
    eigs = cubic_roots(tau, c1, c0)

    # projectively the identity: M = lambda I with lambda^3 = det = 1
    lam = tau / 3.0
    if np.abs(M - lam * _IDENTITY).max() <= 1e-10 * max(1.0, abs(lam)):
        return Classification(IsometryClass.IDENTITY, tau, (lam, lam, lam), f)

    if f < -EPS_DISCRIMINANT:
        return Classification(IsometryClass.REGULAR_ELLIPTIC, tau, eigs, f)
    if f > EPS_DISCRIMINANT:
        return Classification(IsometryClass.LOXODROMIC, tau, eigs, f)

    # on the f = 0 locus: boundary elliptic / parabolic / drifted loxodromic.
    # Cluster analysis comes first: closed-form roots of a near-triple cubic
    # carry noise of order eps^(1/3), so eigenvalue moduli alone cannot be
    # trusted here.
    lam0 = _repeated_eigenvalue(tau, c1, eigs)
    d = M - lam0 * _IDENTITY
    # the spectral norm is needed only on this path: the largest singular
    # value, the same bits as norm(M, 2), which takes the amax of this SVD
    scale = float(np.linalg.svd(M, compute_uv=False)[0])

    diam = max(abs(eigs[i] - eigs[j]) for i in range(3) for j in range(i + 1, 3))
    if diam <= CLUSTER_TOL * max(1.0, scale):
        # triple eigenvalue: unipotent up to a cube root of unity
        if np.abs(d).max() <= RANK_TOL * scale:
            return Classification(IsometryClass.IDENTITY, tau, eigs, f)
        if np.abs(d @ d @ d).max() <= RANK_TOL * scale**3:
            return Classification(IsometryClass.UNIPOTENT_PARABOLIC, tau, eigs, f)
        return Classification(IsometryClass.PARABOLIC, tau, eigs, f)

    sing = np.linalg.svd(d, compute_uv=False)
    rank = int(np.sum(sing > RANK_TOL * scale))
    if rank <= 1:
        # repeated eigenvalue with a two-dimensional eigenspace
        return Classification(IsometryClass.BOUNDARY_ELLIPTIC, tau, eigs, f)
    if rank == 2:
        return Classification(IsometryClass.PARABOLIC, tau, eigs, f)
    # rank 3: no eigenvalue is defective, so the three are distinct, and
    # with all moduli at most 1 + EPS_LOXODROMIC the element is elliptic
    moduli = [abs(t) for t in eigs]
    tag = (IsometryClass.LOXODROMIC if max(moduli) > 1.0 + EPS_LOXODROMIC
           else IsometryClass.REGULAR_ELLIPTIC)
    return Classification(tag, tau, eigs, f)
