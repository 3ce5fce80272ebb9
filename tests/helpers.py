"""Shared random generators and scalar oracles for the test suite."""

import cmath
import dataclasses
import enum
import math
import sys

import numpy as np

from chtriangle import criteria
from chtriangle.classify import (
    CLUSTER_TOL,
    EPS_DISCRIMINANT,
    EPS_LOXODROMIC,
    RANK_TOL,
    Classification,
    IsometryClass,
    _repeated_eigenvalue,
    cubic_roots,
    discriminant,
)
from chtriangle.cli import _fmt
from chtriangle.closed import _trace_123_circle, corner_cos, corner_sin, is_infinite
from chtriangle.criteria import (
    MERGE_TOL,
    SCAN_TESTS,
    ScanResult,
    _merge_intervals,
    jorgensen_applies,
)
from chtriangle.cyclotomic import (
    DEFAULT_CIRCLE_TOL,
    DEFAULT_CONDUCTOR_CAP,
    DEFAULT_NEAR_TOL,
    CandidateTrace,
    ConjugateScan,
    CyclotomicInt,
    NearMissDiagnostic,
    RefutationReport,
    SurvivorDiagnostic,
    phi_inequality,
    trace_circle_rightmost,
)
from chtriangle.heisenberg import (
    INFINITY_TOL,
    ORIGIN,
    SHIMIZU_SLACK,
    HeisenbergPoint,
    IsometricSphere,
    cygan_distance,
    heis_mul,
)
from chtriangle.linalg import (
    FORM_MATRIX,
    FORM_SIGNS,
    INFINITY,
    NULL_BAND,
    Q_INFINITY_LIFT,
    UNITARITY_TOL,
    cvector,
    hermitian_form,
    involution_from_polar,
    normalize_to_su,
    psi,
)
from chtriangle.triangles import TriangleGroup, TriangleType


def make_rng(seed: int = 0) -> np.random.RandomState:
    return np.random.RandomState(seed)


def random_complex(rng, scale: float = 1.0) -> complex:
    return complex(rng.randn() * scale, rng.randn() * scale)


def random_positive_vector(rng) -> np.ndarray:
    """Random vector with <z, z> > 0, kept away from the null cone so the
    reflection it defines is well conditioned."""
    b = random_complex(rng, 0.7)
    cap = np.sqrt(1.0 + abs(b) ** 2)
    c = random_complex(rng)
    c *= 0.8 * cap * rng.uniform(0.0, 1.0) / max(abs(c), 1e-9)
    lam = random_complex(rng)
    if abs(lam) < 1e-3:
        lam = 1.0 + 0j
    return lam * np.array([1.0, b, c], dtype=complex)


def random_form_unitary(rng, factors: int = 3, max_entry: float = 50.0) -> np.ndarray:
    """Random element of SU(2,1) as a bounded product of complex reflections."""
    while True:
        out = np.eye(3, dtype=complex)
        for _ in range(factors):
            out = out @ involution_from_polar(random_positive_vector(rng))
        if np.abs(out).max() <= max_entry:
            return normalize_to_su(out)


def random_heisenberg_point(rng, scale: float = 1.0) -> HeisenbergPoint:
    return HeisenbergPoint(random_complex(rng, scale), float(rng.randn() * scale))


# Scalar reference for the refutation engine: one CandidateTrace per
# candidate from the nested enumeration loop, its value as a cmath sum,
# the scalar discriminant and circle gap, and conjugate scans that
# evaluate the CyclotomicInt corner cosines and traces at every unit k of
# the conductor.


def canonical_candidate(l: int, ks) -> CandidateTrace:
    """Sort the exponents mod l and divide out any common factor with l;
    the exponents must sum to 0 mod l."""
    ks = sorted(k % l for k in ks)
    assert sum(ks) % l == 0, (l, ks)
    g = math.gcd(math.gcd(ks[0], math.gcd(ks[1], ks[2])), l)
    if g > 1:
        l //= g
        ks = sorted(k // g for k in ks)
    return CandidateTrace(l=l, k=tuple(ks))


def candidate_value(cand: CandidateTrace) -> complex:
    """omega_l^k1 + omega_l^k2 + omega_l^k3, summed with cmath."""
    w = 2j * math.pi / cand.l
    return sum(cmath.exp(w * k) for k in cand.k)


def enumerate_candidates_oracle(max_l: int):
    out = []
    for l in range(1, max_l + 1):
        for k1 in range(l):
            for k2 in range(k1, l):
                k3 = (-k1 - k2) % l
                if k3 < k2:
                    continue
                if math.gcd(math.gcd(k1, math.gcd(k2, k3)), l) > 1:
                    continue
                out.append(CandidateTrace(l=l, k=(k1, k2, k3)))
    return out


def canonical_triples_oracle(l: int) -> np.ndarray:
    """Canonical exponent triples of order l in (k1, k2) order, from all
    l(l+1)/2 pairs k1 <= k2, keeping k3 = -(k1 + k2) mod l >= k2 and
    gcd(k1, k2, k3, l) = 1."""
    k1, k2 = np.triu_indices(l)
    k3 = (-k1 - k2) % l
    keep = k3 >= k2
    k1, k2, k3 = k1[keep], k2[keep], k3[keep]
    keep = np.gcd(np.gcd(np.gcd(k1, k2), k3), l) == 1
    return np.stack((k1, k2, k3), axis=1)[keep]


def corner_cyclotomic(order, N: int) -> CyclotomicInt:
    """2 cos(pi/order) in Z[omega_N]; the integer 2 at an infinite order."""
    if is_infinite(order):
        return CyclotomicInt.integer(N, 2)
    j = N // (2 * int(order))
    return CyclotomicInt.root(N, j) + CyclotomicInt.root(N, -j)


def conductor_oracle(l: int, m, n) -> int:
    N = l
    if not is_infinite(m):
        N = math.lcm(N, 2 * int(m))
    return math.lcm(N, 2 * int(n))


def conjugate_rightmost_oracle(l: int, m, n) -> dict:
    """Rightmost point of the conjugated circle at every unit k of the
    conductor, from the exact corner cosines."""
    N = conductor_oracle(l, m, n)
    two_s1 = corner_cyclotomic(n, N)
    two_s2 = corner_cyclotomic(m, N)
    return {
        k: trace_circle_rightmost(
            two_s1.evaluate_conjugate(k).real / 2.0,
            two_s2.evaluate_conjugate(k).real / 2.0,
        )
        for k in range(1, N + 1)
        if math.gcd(k, N) == 1
    }


def conjugate_scan_oracle(l: int, m, n, conductor_cap: int) -> ConjugateScan | None:
    N = conductor_oracle(l, m, n)
    if N > conductor_cap:
        return None
    values = conjugate_rightmost_oracle(l, m, n)
    worst = max(values.values())
    return ConjugateScan(
        conductor=N,
        n_conjugates=len(values),
        max_rightmost=worst,
        all_strictly_below=worst < -1.0,
        # the smallest unit over ties within 1e-12, as ConjugateScan documents
        worst_k=min(k for k, v in values.items() if v >= worst - 1e-12),
    )


def worst_k_oracle(l: int, residues) -> int:
    """The smallest unit in [1, lcm(l, M)] over the maximising residues t of
    cyclotomic._corner_residues, from an array of every lift t + jM at
    once, ascending: the engine's former numpy lift."""
    M, _, _, ties, _ = residues
    N = math.lcm(l, M)
    lifts = (np.asarray(ties) + M * np.arange(N // M)[:, None]).ravel()
    return int(lifts[np.gcd(lifts, N) == 1][0])


def units_oracle(N: int) -> np.ndarray:
    """The units k in [1, N] mod N, one gcd per k: the engine's former
    _units."""
    k = np.arange(1, N + 1)
    return k[np.gcd(k, N) == 1]


def corner_residues_oracle(m, n):
    """cyclotomic._corner_residues as the engine formerly computed it:
    the units from units_oracle, one cosine per unit, and the strictly-below
    flag from two modular arrays over the units."""
    M = 2 * int(n) if is_infinite(m) else math.lcm(2 * int(m), 2 * int(n))
    if M > DEFAULT_CONDUCTOR_CAP:
        return None
    n = int(n)
    r = units_oracle(M)
    s1 = np.cos(np.pi * (r % (2 * n)) / n)
    if is_infinite(m):
        s2 = 1.0
        on_line = r % n == 0
    else:
        m = int(m)
        s2 = np.cos(np.pi * (r % (2 * m)) / m)
        on_line = ((r * (m - n)) % (m * n) == 0) | ((r * (m + n)) % (m * n) == 0)
    rightmost = -4.0 * (abs(s1) - abs(s2)) ** 2 - 1.0
    worst = float(rightmost.max())
    return M, r.size, worst, r[rightmost >= worst - 1e-12].tolist(), not on_line.any()


def order_blocks_oracle(max_l: int, block_rows: int):
    """The engine's former _order_blocks loop: orders 1..max_l cut into
    blocks of at most block_rows estimated rows, l^2/6 + 1 per order l,
    an order with more rows a block of its own."""
    blocks = []
    l_lo, rows = 1, 0
    for l in range(1, max_l + 1):
        est = l * l // 6 + 1
        if rows and rows + est > block_rows:
            blocks.append((l_lo, l - 1))
            l_lo, rows = l, 0
        rows += est
    blocks.append((l_lo, max_l))
    return blocks


def survivor_diagnostic_oracle(cand, gap, m, n, conductor_cap) -> SurvivorDiagnostic:
    phi = phi_inequality(cand.l, *cand.k)
    N = conductor_oracle(cand.l, m, n)
    if N > conductor_cap:
        return SurvivorDiagnostic(
            candidate=cand, circle_gap=gap, conductor=None, galois_refuted=None,
            witness_k=None, witness_re=None, phi=phi, note="unchecked (N overflow)",
        )
    step = N // cand.l
    tau = CyclotomicInt(N)
    for k in cand.k:
        tau = tau + CyclotomicInt.root(N, k * step)
    witness_k = None
    witness_re = None
    for k in range(1, N + 1):
        if math.gcd(k, N) != 1:
            continue
        re = tau.evaluate_conjugate(k).real
        if re >= -1.0:
            witness_k = k
            witness_re = re
            break
    return SurvivorDiagnostic(
        candidate=cand, circle_gap=gap, conductor=N, galois_refuted=witness_k is not None,
        witness_k=witness_k, witness_re=witness_re, phi=phi,
    )


def refute_finite_order_oracle(
    m,
    n: int,
    max_l: int,
    circle_tol: float = DEFAULT_CIRCLE_TOL,
    near_tol: float = DEFAULT_NEAR_TOL,
    conductor_cap: int = DEFAULT_CONDUCTOR_CAP,
) -> RefutationReport:
    s1 = corner_cos(n)
    s2 = corner_cos(m)
    center = 4.0 * (s1 * s1 + s2 * s2) + 1.0
    radius = 8.0 * s1 * s2
    survivors = []
    near = []
    checked = 0
    elliptic = 0
    for cand in enumerate_candidates_oracle(max_l):
        checked += 1
        tau = candidate_value(cand)
        if discriminant(tau) >= -1e-9:
            continue
        elliptic += 1
        gap = abs(abs(tau + center) - radius)
        if gap <= circle_tol:
            survivors.append(survivor_diagnostic_oracle(cand, gap, m, n, conductor_cap))
        elif gap <= near_tol:
            scan = conjugate_scan_oracle(cand.l, m, n, conductor_cap)
            near.append(
                NearMissDiagnostic(
                    candidate=cand,
                    circle_gap=gap,
                    conjugates=scan,
                    phi=phi_inequality(cand.l, *cand.k),
                    note="" if scan is not None else "unchecked (N overflow)",
                )
            )
    return RefutationReport(
        m=m, n=n, max_l=max_l, circle_tol=circle_tol, near_tol=near_tol,
        conductor_cap=conductor_cap, candidates_checked=checked,
        regular_elliptic_candidates=elliptic, survivors=tuple(survivors),
        near_misses=tuple(near),
    )


# Grid reference for the interval scans: sample the defining function on
# a uniform grid, bisect every sign change to a bracket of width <= tol,
# and re-check each interval at its midpoint.  It misses intervals
# narrower than the grid step and tangential double roots.


def _bisect_root(fn, lo, hi, f_lo_negative, tol):
    """Shrink a sign-change bracket to width <= tol; returns the midpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (fn(mid) < 0.0) == f_lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_intervals_oracle(test: str, m, n, grid: int = 100_000, tol: float = 1e-10) -> ScanResult:
    assert test in SCAN_TESTS
    if test == "jorgensen" and (is_infinite(n) or n < 7):
        return ScanResult(test=test, m=m, n=n, intervals=(), tol=tol)

    fn = VALUE_ORACLES[test]
    a = np.linspace(-1.0, 1.0, grid)
    values = fn(m, n, a)
    negative = values < 0.0

    scalar = lambda x: float(fn(m, n, x))
    intervals = []
    i = 0
    while i < grid:
        if not negative[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid and negative[j + 1]:
            j += 1
        lo = -1.0 if i == 0 else _bisect_root(scalar, a[i - 1], a[i], False, tol)
        hi = 1.0 if j == grid - 1 else _bisect_root(scalar, a[j], a[j + 1], True, tol)
        if scalar(0.5 * (lo + hi)) < 0.0:
            intervals.append((lo, hi))
        i = j + 1
    return ScanResult(test=test, m=m, n=n, intervals=tuple(intervals), tol=tol)


# Reference for the per-point path: the constructions and checks as they
# were before each public call checked each matrix once, the theta-free sides
# were shared, classify lost its unused SVD and the form products became
# scalings.  They re-check a matrix on every boundary action, rebuild every
# involution, take the trace and second invariant from numpy scalars, the
# spectral norm from an SVD and the form products J M* J and M* J M as
# matrix products.  classify_oracle reads the library's discriminant;
# discriminant_oracle is the former formula on np.abs and z**3, which the
# library's one real-arithmetic body meets within discriminant_bound.


def form_defect_oracle(M) -> float:
    M = np.asarray(M, dtype=complex)
    return float(np.abs(M.conj().T @ FORM_MATRIX @ M - FORM_MATRIX).max())


def is_unitary_for_form_oracle(M) -> bool:
    M = np.asarray(M, dtype=complex)
    return M.shape == (3, 3) and form_defect_oracle(M) <= UNITARITY_TOL


def form_inverse_oracle(M) -> np.ndarray:
    return FORM_MATRIX @ np.asarray(M, dtype=complex).conj().T @ FORM_MATRIX


def vector_type_oracle(z) -> str:
    z = np.asarray(z, dtype=complex)
    scale = float(np.sum(np.abs(z) ** 2))
    if scale == 0.0:
        raise ValueError("zero vector has no type")
    q = hermitian_form(z, z).real
    if abs(q) <= NULL_BAND * scale:
        return "null"
    return "negative" if q < 0 else "positive"


def involution_from_polar_oracle(p) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    if vector_type_oracle(p) != "positive":
        raise ValueError("polar vector must be positive")
    pp = hermitian_form(p, p).real
    mat = -np.eye(3, dtype=complex) + (2.0 / pp) * np.outer(p, FORM_SIGNS * np.conj(p))
    return normalize_to_su(mat)


def angular_invariant_oracle(p1, p2, p3) -> float:
    """Angular invariant of a triangle: the argument of the cyclic product
    of the pairwise Hermitian products of its polar vectors."""
    prod = hermitian_form(p3, p2) * hermitian_form(p1, p3) * hermitian_form(p2, p1)
    return math.atan2(prod.imag, prod.real)


def build_n_inf_inf_oracle(n, theta) -> TriangleGroup:
    """The (n, inf, inf) group in its own normalisation, the separate
    builder that `build_mn_inf(n, math.inf, theta)` replaced: the second
    side is the vertical chain through 1 and the third the vertical chain
    through e^(i theta) cos(pi/n)."""
    s = corner_cos(n)
    w = s * cmath.exp(-1j * theta)
    p1 = cvector(0, 1, 0)
    p2 = cvector(1, -1, 1)
    p3 = cvector(1, -w, w)
    u1 = cvector(0, 1, -1)
    u2 = cvector(w.conjugate(), 0, 1)
    u3 = cvector(1, 0, 1)
    return TriangleGroup(
        ttype=TriangleType(math.inf, n, theta),
        polars=(p1, p2, p3),
        vertices=(u1, u2, u3),
        involutions=tuple(involution_from_polar(p) for p in (p1, p2, p3)),
    )


def word_oracle(involutions, letters: str) -> np.ndarray:
    out = np.eye(3, dtype=complex)
    for c in letters:
        out = out @ involutions[int(c) - 1]
    return out


def discriminant_oracle(z):
    z = np.asarray(z, dtype=complex)
    val = np.abs(z) ** 4 - 8.0 * np.real(z**3) + 18.0 * np.abs(z) ** 2 - 27.0
    if val.ndim == 0:
        return float(val)
    return val


def discriminant_bound(z) -> float:
    """16 ulps of |z|^4 + 8 |z|^3 + 18 |z|^2 + 27, the sum of the moduli of
    f's terms: two evaluations of f that round differently can differ by
    a few ulps of that sum (6.2 at most on 2.6 M random z, |z| from 1e-3
    to 1e60)."""
    r = abs(complex(z))
    return 16.0 * sys.float_info.epsilon * (((r + 8.0) * r + 18.0) * r * r + 27.0)


def classify_oracle(M, eps_f: float = EPS_DISCRIMINANT) -> Classification:
    M = np.asarray(M, dtype=complex)
    if not is_unitary_for_form_oracle(M):
        raise ValueError("classify needs a matrix preserving the form")
    M = normalize_to_su(M)

    tau = complex(np.trace(M))
    f = discriminant(tau)
    c1 = complex(
        M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
        + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
    )
    c0 = complex(np.linalg.det(M))
    eigs = cubic_roots(tau, c1, c0)

    scale = float(np.linalg.norm(M, 2))

    lam = tau / 3.0
    if np.abs(M - lam * np.eye(3)).max() <= 1e-10 * max(1.0, abs(lam)):
        return Classification(IsometryClass.IDENTITY, tau, (lam, lam, lam), f)

    if f < -eps_f:
        return Classification(IsometryClass.REGULAR_ELLIPTIC, tau, eigs, f)
    if f > eps_f:
        return Classification(IsometryClass.LOXODROMIC, tau, eigs, f)

    lam0 = _repeated_eigenvalue(tau, c1, eigs)
    d = M - lam0 * np.eye(3)

    diam = max(abs(eigs[i] - eigs[j]) for i in range(3) for j in range(i + 1, 3))
    if diam <= CLUSTER_TOL * max(1.0, scale):
        if np.abs(d).max() <= RANK_TOL * scale:
            return Classification(IsometryClass.IDENTITY, tau, eigs, f)
        if np.abs(d @ d @ d).max() <= RANK_TOL * scale**3:
            return Classification(IsometryClass.UNIPOTENT_PARABOLIC, tau, eigs, f)
        return Classification(IsometryClass.PARABOLIC, tau, eigs, f)

    sing = np.linalg.svd(d, compute_uv=False)
    rank = int(np.sum(sing > RANK_TOL * scale))
    if rank <= 1:
        return Classification(IsometryClass.BOUNDARY_ELLIPTIC, tau, eigs, f)
    if rank == 2:
        return Classification(IsometryClass.PARABOLIC, tau, eigs, f)
    moduli = [abs(t) for t in eigs]
    tag = (IsometryClass.LOXODROMIC if max(moduli) > 1.0 + EPS_LOXODROMIC
           else IsometryClass.PARABOLIC)
    return Classification(tag, tau, eigs, f)


def boundary_action_oracle(M, point):
    if not is_unitary_for_form_oracle(M):
        raise ValueError("boundary_action needs a matrix preserving the form")
    if point is INFINITY:
        lift = Q_INFINITY_LIFT
    else:
        lift = psi((point.xi, point.v, 0.0))
    w = np.asarray(M, dtype=complex) @ lift
    denom = w[1] + w[2]
    if abs(denom) <= INFINITY_TOL * np.abs(w).max():
        return INFINITY
    w = w / denom
    return HeisenbergPoint(complex(w[0]), float((w[1] - w[2]).imag))


def fixes_infinity_oracle(M) -> bool:
    return boundary_action_oracle(M, INFINITY) is INFINITY


def translation_of_oracle(M, tol: float = 1e-8) -> HeisenbergPoint:
    if not fixes_infinity_oracle(M):
        raise ValueError("not a Heisenberg translation: infinity moves")
    t = boundary_action_oracle(M, ORIGIN)
    scale = 1.0 + abs(t.xi) ** 2 + abs(t.v)
    for probe in (HeisenbergPoint(1.0 + 0j, 0.0), HeisenbergPoint(1j, 2.0)):
        got = boundary_action_oracle(M, probe)
        want = heis_mul(t, probe)
        if got is INFINITY:
            raise ValueError("not a Heisenberg translation")
        if abs(got.xi - want.xi) > tol * scale or abs(got.v - want.v) > tol * scale:
            raise ValueError("not a Heisenberg translation")
    return t


def isometric_sphere_oracle(h) -> IsometricSphere:
    h = np.asarray(h, dtype=complex)
    if not is_unitary_for_form_oracle(h):
        raise ValueError("isometric_sphere needs a matrix preserving the form")
    denom = abs(h[1, 1] - h[1, 2] + h[2, 1] - h[2, 2])
    if fixes_infinity_oracle(h) or denom <= 1e-14 * np.abs(h).max():
        raise ValueError("isometric sphere undefined: the map fixes infinity")
    center = boundary_action_oracle(form_inverse_oracle(h), INFINITY)
    return IsometricSphere(center=center, radius=math.sqrt(2.0 / denom))


def shimizu_violation_oracle(g, h, slack: float = SHIMIZU_SLACK) -> bool:
    t = translation_of_oracle(g)
    sphere = isometric_sphere_oracle(h)
    forward = boundary_action_oracle(h, INFINITY)
    backward = boundary_action_oracle(form_inverse_oracle(h), INFINITY)

    def displacement(point):
        return cygan_distance(boundary_action_oracle(g, point), point)

    bound = displacement(forward) * displacement(backward) + 4.0 * abs(t.xi) ** 2
    return sphere.radius**2 > bound + slack


# Reference for the value functions: the three defining functions as they
# were before a scalar a took a float path.  Every a goes through numpy,
# a scalar as a 0-d array; an array gives an array, elementwise, which is
# how scan_intervals_oracle samples its grid.


def regular_elliptic_value_oracle(m, n, a):
    a = np.asarray(a, dtype=float)
    c, radius = _trace_123_circle(m, n)
    sin_theta = np.sqrt(np.clip(1.0 - a * a, 0.0, None))
    val = discriminant(c + radius * (a + 1j * sin_theta))
    if np.ndim(val) == 0:
        return float(val)
    return val


def jorgensen_value_oracle(m, n, a):
    if not jorgensen_applies(n):
        raise ValueError("jorgensen criterion needs finite n >= 7")
    a = np.asarray(a, dtype=float)
    s1 = corner_cos(n)
    s2 = corner_cos(m)
    val = np.abs(s1 * s1 + 2.0 * s2 * s2 - 4.0 * s1 * s2 * a + 1.0) - 0.5 * corner_sin(n)
    if np.ndim(val) == 0:
        return float(val)
    return val


def shimizu_value_oracle(m, n, a):
    a = np.asarray(a, dtype=float)
    s1 = corner_cos(n)
    s2 = corner_cos(m)
    u = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * a
    v = s1 * s2 * np.sqrt(np.clip(1.0 - a * a, 0.0, None))
    val = np.abs(u - 2j * v) + 4.0 * u - 0.25
    if np.ndim(val) == 0:
        return float(val)
    return val


def shimizu_breakpoints_oracle(m, n):
    """The Shimizu breakpoints as criteria._breakpoints took them before
    the real square root: a complex square root of the quadratic's
    discriminant, keeping roots with an imaginary part up to 1e-6."""
    s1 = corner_cos(n)
    s2 = corner_cos(m)
    alpha = s1 * s1 + s2 * s2
    beta = 2.0 * s1 * s2
    q2 = -16.0 * beta * beta
    q1 = beta * (30.0 * alpha - 2.0)
    q0 = beta * beta - 15.0 * alpha * alpha + 2.0 * alpha - 0.0625
    q = -0.5 * (q1 + cmath.sqrt(q1 * q1 - 4.0 * q2 * q0))
    return [z.real for z in (q / q2, q0 / q) if abs(z.imag) <= 1e-6]


VALUE_ORACLES = {
    "re": regular_elliptic_value_oracle,
    "jorgensen": jorgensen_value_oracle,
    "shimizu": shimizu_value_oracle,
}


def re_breakpoints_oracle(m, n):
    """The re breakpoints as criteria._breakpoints took them before the
    polish stopped at its fixed point: three full Newton steps from the
    real part of each cubic root, each through the 0-d array evaluation."""
    c, r = _trace_123_circle(m, n)
    p3 = -32.0 * r**3
    p2 = 4.0 * r * r * c * (c - 12.0)
    p1 = 4.0 * r * (c * (c - 3.0) ** 2 + r * r * (c + 6.0))
    p0 = (c * c + r * r) ** 2 - 8.0 * c**3 + 24.0 * c * r * r + 18.0 * (c * c + r * r) - 27.0
    roots = []
    for z in cubic_roots(-p2 / p3, p1 / p3, -p0 / p3):
        a = min(1.0, max(-1.0, z.real))
        for _ in range(3):
            slope = (3.0 * p3 * a + 2.0 * p2) * a + p1
            if slope == 0.0:
                break
            a = min(1.0, max(-1.0, a - regular_elliptic_value_oracle(m, n, a) / slope))
        roots.append(a)
    return roots


def scan_intervals_array_oracle(test: str, m, n) -> ScanResult:
    """scan_intervals with every midpoint sign read from one 1-d array of
    midpoints through VALUE_ORACLES.  The breakpoints come from
    criteria._breakpoints of criteria._closed_form, whose Newton steps
    call the closed form's value."""
    if test == "jorgensen" and not jorgensen_applies(n):
        return ScanResult(test=test, m=m, n=n, intervals=(), tol=MERGE_TOL)
    points = [-1.0]
    for root in sorted(criteria._breakpoints(criteria._closed_form(test, m, n))):
        if points[-1] + MERGE_TOL <= root <= 1.0 - MERGE_TOL:
            points.append(root)
    points.append(1.0)
    edges = np.array(points)
    negative = VALUE_ORACLES[test](m, n, 0.5 * (edges[:-1] + edges[1:])) < 0.0
    pieces = [(lo, hi) for lo, hi, neg in zip(points, points[1:], negative) if neg]
    return ScanResult(test=test, m=m, n=n, intervals=tuple(_merge_intervals(pieces)), tol=MERGE_TOL)


def jsonable_oracle(value):
    """The record conversion the CLI made before it wrote JSON in one walk:
    json.dumps(jsonable_oracle(record), indent=2, allow_nan=False) is the
    text of a --format json record."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else _fmt(value)
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable_oracle(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_oracle(v) for v in value]
    if isinstance(value, enum.Enum):
        return jsonable_oracle(value.value)
    return str(value)
