"""The finite-order refutation engine and its cyclotomic diagnostics.

A trace of a finite-order regular elliptic product of three involutions
would be a sum of three l-th roots of unity with exponents summing to
zero, and would have to sit exactly on the circle

    |tau + 4 (s1^2 + s2^2) + 1| = 8 s1 s2        (s_j the corner cosines).

Every Galois conjugate of such a trace lies on the conjugated circle,
whose rightmost point -4(|s1'| - |s2'|)^2 - 1 is strictly left of -1
whenever |s1'| != |s2'|.  Summing the real parts of all conjugates then
contradicts the Euler-phi bound 1/phi(d1) + 1/phi(d2) + 1/phi(d3) > 1.
This module enumerates all candidate traces up to a bound on l and
reports survivors of the numeric filters together with the exact
cyclotomic diagnostics.

The engine works on blocks of consecutive orders l, each holding about
2^14 exponent triples: orders 1..66 form one block, and from 223 on each
order is a block of its own.  A block builds one (l, k) table.  It gives
the canonical triples in closed form (for each (l, k1), k2 runs over two
ranges, the exponent sums l and 2l) and the block's roots of unity, from
which the traces are gathered.  The discriminant and circle filters run
once over the whole block, and only survivors and near-misses become
CandidateTrace objects.  Reports do not depend on the block size.  The
block's triples are the one canonical form of a candidate, and its table
of roots of unity the one candidate value; CyclotomicInt, a sum of roots
of unity evaluated as a float, serves the test oracles, not the engine.

The conjugate scan is closed form.  The Galois map omega_N -> omega_N^k
sends 2 cos(pi/n) to 2 cos(k pi/n) and fixes the integer 2 of an
infinite corner, so the conjugated circle depends only on k mod M, with
M = lcm(2m, 2n) (M = 2n when m is infinite).  As M divides the conductor
N, the units mod N map onto the units mod M, and the phi(N) conjugates
reduce to the phi(M) unit residues mod M.  That residue part depends on
(m, n) only: it is computed once per call, at the first near-miss, and
each near-miss order lifts it to its conductor.  Whether every
conjugated circle lies strictly left of -1 is decided on integers:
|cos k pi/n| = |cos k pi/m| exactly when mn divides k(m - n) or
k(m + n), and |cos k pi/n| = 1 exactly when n divides k.

The cost is that of the enumeration, O(max_l^3) in all: on one core of
a 2-vCPU Xeon virtual machine, refute_finite_order(8, 11) takes 0.02 s
of CPU at max_l = 120, 0.24 s at 300, 1.3 s at 600 and 6.5 s at 900.
"""

import math
from dataclasses import dataclass

import numpy as np

from .closed import (
    EPS_DISCRIMINANT,
    _check_order,
    _is_integer,
    _plain_order,
    _trace_123_circle,
    discriminant,
    is_infinite,
)

# a regular elliptic candidate this close to the trace circle survives,
# and one only within the larger DEFAULT_NEAR_TOL is a near-miss
DEFAULT_CIRCLE_TOL = 1e-8
DEFAULT_NEAR_TOL = 1e-3
DEFAULT_CONDUCTOR_CAP = 10**6
MAX_ORDER_BOUND = 2000


def _check_positive_int(value, name: str):
    """Reject anything but an integer >= 1; numpy integers count, bools
    do not."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def euler_phi(d: int) -> int:
    """Euler's totient, by trial-division factorisation."""
    _check_positive_int(d, "d")
    result = d
    rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if rest > 1:
        result -= result // rest
    return result


@dataclass(frozen=True)
class PhiCheck:
    """Orders d_i of the root-of-unity summands and the totient bound."""

    d: tuple
    holds: bool


def phi_inequality(l: int, k1: int, k2: int, k3: int) -> PhiCheck:
    """Evaluate 1/phi(d1) + 1/phi(d2) + 1/phi(d3) > 1 with
    d_i = l / gcd(k_i, l), decided on integers: with p_i = phi(d_i) it
    reads p2 p3 + p1 p3 + p1 p2 > p1 p2 p3."""
    _check_positive_int(l, "l")
    if not all(_is_integer(k) for k in (k1, k2, k3)):
        raise ValueError("exponents must be integers")
    d = tuple(l // math.gcd(k % l, l) for k in (k1, k2, k3))
    p1, p2, p3 = map(euler_phi, d)
    return PhiCheck(d=d, holds=p2 * p3 + p1 * p3 + p1 * p2 > p1 * p2 * p3)


class CyclotomicInt:
    """Element of Z[omega_N] as an integer coefficient vector mod N.

    coeffs[j] is the coefficient of omega_N^j = exp(2 pi i j / N).  The
    vector is not reduced modulo the cyclotomic polynomial, so two vectors
    can name one number (1 + omega_3 + omega_3^2 is 0); the class has no
    equality of numbers and no product.  It builds sums of roots of unity
    and evaluates them and their Galois conjugates as floats: the test
    oracles and the benchmark read it, the engine does not.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        _check_positive_int(order, "order")
        self.order = int(order)
        if coeffs is None:
            self.coeffs = np.zeros(self.order, dtype=np.int64)
        else:
            coeffs = np.asarray(coeffs, dtype=np.int64)
            if coeffs.shape != (self.order,):
                raise ValueError("coefficient vector must have length N")
            self.coeffs = coeffs.copy()

    @classmethod
    def root(cls, order: int, j: int, coeff: int = 1) -> "CyclotomicInt":
        """coeff * omega_order^j, for integers j and coeff."""
        if not (_is_integer(j) and _is_integer(coeff)):
            raise ValueError("exponent and coefficient must be integers")
        out = cls(order)
        out.coeffs[j % order] = coeff
        return out

    @classmethod
    def integer(cls, order: int, t: int) -> "CyclotomicInt":
        """The rational integer t."""
        return cls.root(order, 0, t)

    def __add__(self, other):
        if not isinstance(other, CyclotomicInt) or other.order != self.order:
            raise ValueError("operands must share the same root order")
        return CyclotomicInt(self.order, self.coeffs + other.coeffs)

    def __repr__(self):
        terms = [f"{int(c)}*w^{j}" for j, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CyclotomicInt(N={self.order}: {body})"

    def evaluate(self) -> complex:
        """Numeric value sum_j c_j exp(2 pi i j / N), over the support only."""
        return self.evaluate_conjugate(1)

    def evaluate_conjugate(self, k: int) -> complex:
        """Numeric value of the Galois image under omega_N -> omega_N^k,
        sum_j c_j exp(2 pi i (jk mod N) / N) over the support; k must be an
        integer coprime to N (numpy integers count, bools do not)."""
        if not _is_integer(k) or math.gcd(k % self.order, self.order) != 1:
            raise ValueError("galois automorphism index must be an integer coprime to N")
        support = np.nonzero(self.coeffs)[0]
        phases = np.exp((2j * np.pi / self.order) * ((support * k) % self.order))
        return complex(np.sum(self.coeffs[support] * phases))


def trace_circle_rightmost(s1: float, s2: float) -> float:
    """Rightmost real point of the circle carrying the conjugated trace:
    -(4 (s1^2 + s2^2) + 1) + |8 s1 s2| = -4 (|s1| - |s2|)^2 - 1.

    s1 and s2 are conjugated corner cosines, so |s1|, |s2| <= 1; NaN is
    refused."""
    if not (abs(s1) <= 1.0 and abs(s2) <= 1.0):
        raise ValueError("s1 and s2 must be cosines, with |s1|, |s2| <= 1")
    return _trace_circle_rightmost(s1, s2)


def _trace_circle_rightmost(s1, s2):
    """trace_circle_rightmost for checked cosines; elementwise on arrays."""
    return -4.0 * (abs(s1) - abs(s2)) ** 2 - 1.0


@dataclass(frozen=True)
class CandidateTrace:
    """Canonical candidate omega_l^k1 + omega_l^k2 + omega_l^k3 with
    k1 + k2 + k3 = 0 mod l, exponents sorted and l minimal."""

    l: int
    k: tuple


# exponent triples per block of orders: a block's arrays then take about
# 2 MB, orders 1..66 share one block, and each order from 223 on is a
# block of its own
_BLOCK_ROWS = 1 << 14


def _order_blocks(max_l: int):
    """Consecutive orders 1..max_l cut into blocks (l_lo, l_hi) of about
    _BLOCK_ROWS canonical rows each; an order with more rows is a block
    of its own."""
    l_lo, rows = 1, 0
    for l in range(1, max_l + 1):
        # l^2/6 + 1 is about the number of exponent triples of order l
        est = l * l // 6 + 1
        if rows and rows + est > _BLOCK_ROWS:
            yield l_lo, l - 1
            l_lo, rows = l, 0
        rows += est
    yield l_lo, max_l


def _order_exponents(l_lo: int, l_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (l, k) with l_lo <= l <= l_hi and 0 <= k < l, as two flat
    arrays in (l, k) order; (l, k) sits at index k + offset(l), with
    offset(l) = (l (l - 1) - l_lo (l_lo - 1)) / 2."""
    orders = np.arange(l_lo, l_hi + 1, dtype=np.int32)
    l = np.repeat(orders, orders)
    offsets = np.cumsum(orders, dtype=np.int32) - orders
    return l, np.arange(l.size, dtype=np.int32) - np.repeat(offsets, orders)


def _canonical_triples(tl: np.ndarray, tk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical exponent triples of a block's orders, from the block's
    (l, k) table (tl, tk) of _order_exponents, in (l, k1, k2) order:
    k1 <= k2 <= k3 < l, k1 + k2 + k3 = 0 mod l and gcd(k1, k2, k3, l) = 1.

    Returns (p, k2, k3): row i has (l, k1) = (tl[p[i]], tk[p[i]]), so the
    table index of (l, k) is p[i] - k1 + k.  For each (l, k1), k2 runs
    over [k1, (l - k1) // 2] and then [max(k1, l - k1 + 1), (2l - k1) // 2],
    the exponent sums l and 2l, and k3 = (-k1 - k2) mod l.  The first range
    starts with (0, 0, 0) at k1 = 0, whose gcd is l, so it stays only at
    l = 1.  gcd(k1, k2, k3, l) = gcd(gcd(k1, l), k2), with gcd(k1, l) taken
    once per (l, k1).
    """
    lo = np.stack((tk, np.maximum(tk, tl - tk + 1)), axis=1).ravel()
    hi = np.stack(((tl - tk) // 2, (2 * tl - tk) // 2), axis=1).ravel()
    counts = np.maximum(hi - lo + 1, 0)
    # one row per admissible k2: the start of its range plus its offset in it
    starts = np.cumsum(counts, dtype=np.int32) - counts
    k2 = np.arange(starts[-1] + counts[-1], dtype=np.int32) + np.repeat(lo - starts, counts)
    p = np.repeat(np.arange(tl.size), counts[0::2] + counts[1::2])
    keep = np.flatnonzero(np.gcd(np.gcd(tk, tl)[p], k2) == 1)
    p, k2 = p[keep], k2[keep]
    return p, k2, (-tk[p] - k2) % tl[p]


def enumerate_candidates(max_l: int):
    """All canonical candidates with l <= max_l, in (l, k) order."""
    out = []
    for block in _order_blocks(max_l):
        tl, tk = _order_exponents(*block)
        p, k2, k3 = _canonical_triples(tl, tk)
        out += map(CandidateTrace, tl[p].tolist(), zip(tk[p].tolist(), k2.tolist(), k3.tolist()))
    return out


@dataclass(frozen=True)
class ConjugateScan:
    """Exact scan of the circle bound over all Galois conjugates.

    n_conjugates is phi(conductor).  max_rightmost is the largest rightmost
    point of the conjugated circles, as a float margin; all_strictly_below
    is decided exactly on integers.  worst_k is the smallest unit k in
    [1, conductor] whose conjugate attains max_rightmost, ties taken
    within 1e-12.
    """

    conductor: int
    n_conjugates: int
    max_rightmost: float
    all_strictly_below: bool
    worst_k: int


@dataclass(frozen=True)
class SurvivorDiagnostic:
    candidate: CandidateTrace
    circle_gap: float
    conductor: int | None
    galois_refuted: bool | None
    witness_k: int | None
    witness_re: float | None
    phi: PhiCheck
    note: str = ""


@dataclass(frozen=True)
class NearMissDiagnostic:
    candidate: CandidateTrace
    circle_gap: float
    conjugates: ConjugateScan | None
    phi: PhiCheck
    note: str = ""


@dataclass(frozen=True)
class RefutationReport:
    m: float
    n: int
    max_l: int
    circle_tol: float
    near_tol: float
    conductor_cap: int
    candidates_checked: int
    regular_elliptic_candidates: int
    survivors: tuple
    near_misses: tuple

    @property
    def overflowed(self):
        """The overflow cases: survivors with no conductor, near-misses with no scan."""
        flagged = [s for s in self.survivors if s.conductor is None]
        flagged += [t for t in self.near_misses if t.conjugates is None]
        return tuple(flagged)


def _corner_modulus(m, n) -> int:
    """M such that the Galois conjugates of both corner cosines at omega_N^k
    depend only on k mod M: lcm(2m, 2n), or 2n when m is infinite."""
    if is_infinite(m):
        return 2 * int(n)
    return math.lcm(2 * int(m), 2 * int(n))


def _units(N: int) -> np.ndarray:
    """The units k in [1, N] mod N, ascending."""
    k = np.arange(1, N + 1)
    return k[np.gcd(k, N) == 1]


def _corner_residues(m, n):
    """The part of the conjugate scan that depends on (m, n) only, over the
    units r mod M: (M, the largest rightmost point, the residues attaining
    it within 1e-12, whether every conjugated circle lies strictly left of
    -1, decided on integers).  None when M exceeds DEFAULT_CONDUCTOR_CAP,
    since every conductor lcm(l, M) then does too; nothing is built."""
    M = _corner_modulus(m, n)
    if M > DEFAULT_CONDUCTOR_CAP:
        return None
    n = int(n)
    r = _units(M)
    s1 = np.cos(np.pi * (r % (2 * n)) / n)
    if is_infinite(m):
        s2 = 1.0
        on_line = r % n == 0
    else:
        m = int(m)
        s2 = np.cos(np.pi * (r % (2 * m)) / m)
        on_line = ((r * (m - n)) % (m * n) == 0) | ((r * (m + n)) % (m * n) == 0)
    rightmost = _trace_circle_rightmost(s1, s2)
    worst = float(rightmost.max())
    return M, worst, r[rightmost >= worst - 1e-12], not on_line.any()


def _lift_scan(l: int, residues) -> ConjugateScan | None:
    """The conjugate scan at order l from _corner_residues: the conductor
    N = lcm(l, M), phi(N) and the smallest unit in [1, N] over a maximising
    residue; None when the residues are None or N exceeds
    DEFAULT_CONDUCTOR_CAP."""
    if residues is None:
        return None
    M, worst, ties, strictly_below = residues
    N = math.lcm(l, M)
    if N > DEFAULT_CONDUCTOR_CAP:
        return None
    # lift the maximising residues to [1, N] in ascending order
    lifts = (ties + M * np.arange(N // M)[:, None]).ravel()
    return ConjugateScan(
        conductor=N,
        n_conjugates=euler_phi(N),
        max_rightmost=worst,
        all_strictly_below=strictly_below,
        worst_k=int(lifts[np.gcd(lifts, N) == 1][0]),
    )


def _survivor_diagnostic(cand: CandidateTrace, gap: float, m, n) -> SurvivorDiagnostic:
    """Exact Galois check of a survivor: hunt for the smallest unit k whose
    conjugate of the cyclotomic trace has real part at least -1,
    contradicting the circle bound."""
    phi = phi_inequality(cand.l, *cand.k)
    N = math.lcm(cand.l, _corner_modulus(m, n))
    if N > DEFAULT_CONDUCTOR_CAP:
        return SurvivorDiagnostic(
            candidate=cand, circle_gap=gap, conductor=None, galois_refuted=None,
            witness_k=None, witness_re=None, phi=phi, note="unchecked (N overflow)",
        )
    units = _units(N)
    # tau = sum of mult * omega_N^j over the distinct exponents j = k_i N / l
    j, mult = np.unique(np.array(cand.k) * (N // cand.l), return_counts=True)
    phases = (2 * np.pi / N) * ((j[:, None] * units) % N)
    re = (mult[:, None] * np.cos(phases)).sum(axis=0)
    hits = np.flatnonzero(re >= -1.0)
    witness_k = int(units[hits[0]]) if hits.size else None
    witness_re = float(re[hits[0]]) if hits.size else None
    return SurvivorDiagnostic(
        candidate=cand,
        circle_gap=gap,
        conductor=N,
        galois_refuted=witness_k is not None,
        witness_k=witness_k,
        witness_re=witness_re,
        phi=phi,
    )


def refute_finite_order(m, n: int, max_l: int = 60) -> RefutationReport:
    """Enumerate candidate finite-order traces and report the survivors.

    A candidate survives when it is regular elliptic (discriminant below
    -EPS_DISCRIMINANT) and on the trace circle to DEFAULT_CIRCLE_TOL; the
    expected result is no survivor.  Candidates on the circle only to the
    loose DEFAULT_NEAR_TOL are near-misses, with the exact Galois scan of
    the circle bound over all conjugates.  A conductor above
    DEFAULT_CONDUCTOR_CAP leaves a candidate unchecked.  Both lists are in
    (l, k) order, and the report records the three constants.

    The corner orders must differ; the equal-order family is outside the
    scope of this engine.
    """
    _check_order(m, "m")
    _check_order(n, "n")
    if is_infinite(n):
        raise ValueError("n must be finite")
    if m == n:
        raise ValueError(
            "equal corner orders are outside this engine's scope "
            "(covered by prior published results); m must differ from n"
        )
    if not _is_integer(max_l):
        raise ValueError("max_l must be an integer")
    if max_l < 1:
        raise ValueError("max_l must be at least 1")
    if max_l > MAX_ORDER_BOUND:
        raise ValueError(f"max_l is capped at {MAX_ORDER_BOUND}")

    c, radius = _trace_123_circle(m, n)

    survivors = []
    near = []
    checked = 0
    elliptic = 0
    scans = {}
    for l_lo, l_hi in _order_blocks(max_l):
        tl, tk = _order_exponents(l_lo, l_hi)
        p, k2, k3 = _canonical_triples(tl, tk)
        checked += p.size
        # each root of unity of the block's orders once, at its (l, k) table
        # index; 1j * (2 pi / l) rounds as Python's 2j * math.pi / l does,
        # while numpy's complex division 2j * np.pi / l can differ in the
        # last bit
        roots = np.exp(1j * (2.0 * math.pi / tl) * tk)
        # (l, k) of a row's order sits at table index base + k
        base = p - tk[p]
        tau = roots[p] + roots[base + k2] + roots[base + k3]
        rows = np.flatnonzero(discriminant(tau) < -EPS_DISCRIMINANT)
        elliptic += rows.size
        # np.hypot rounds as abs(complex) does; np.abs can differ in the last bit
        z = tau[rows] - c
        gap = np.abs(np.hypot(z.real, z.imag) - radius)
        hits = np.flatnonzero(gap <= DEFAULT_NEAR_TOL)
        rows = rows[hits]
        ks = zip(tk[p[rows]].tolist(), k2[rows].tolist(), k3[rows].tolist())
        for l, k, g in zip(tl[p[rows]].tolist(), ks, gap[hits].tolist()):
            cand = CandidateTrace(l=l, k=k)
            if g <= DEFAULT_CIRCLE_TOL:
                survivors.append(_survivor_diagnostic(cand, g, m, n))
                continue
            # the scan depends on l only through the conductor: one per l,
            # over residues mod M computed once per call, at its first
            # near-miss
            if l not in scans:
                if not scans:
                    residues = _corner_residues(m, n)
                scans[l] = _lift_scan(l, residues)
            scan = scans[l]
            near.append(
                NearMissDiagnostic(
                    candidate=cand,
                    circle_gap=g,
                    conjugates=scan,
                    phi=phi_inequality(l, *k),
                    note="" if scan is not None else "unchecked (N overflow)",
                )
            )
    return RefutationReport(
        m=_plain_order(m),
        n=int(n),
        max_l=int(max_l),
        circle_tol=DEFAULT_CIRCLE_TOL,
        near_tol=DEFAULT_NEAR_TOL,
        conductor_cap=DEFAULT_CONDUCTOR_CAP,
        candidates_checked=checked,
        regular_elliptic_candidates=elliptic,
        survivors=tuple(survivors),
        near_misses=tuple(near),
    )
