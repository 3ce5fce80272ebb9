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
order is a block of its own.  A block ends at the last order that keeps
its estimated rows within that size, found by bisection in a table of
cumulative estimates.  A block builds one (l, k) table.  It gives the
canonical triples in closed form (for each (l, k1), k2 runs over two
ranges, the exponent sums l and 2l) and the block's roots of unity, from
which the traces are gathered.  The discriminant filter counts the
regular elliptic rows.  The circle filter runs only on those a circle
can reach: the rightmost point of every trace circle is
c + R = -4 (s1 - s2)^2 - 1 <= -1, so a trace within DEFAULT_NEAR_TOL of
one has Re tau <= -1 + DEFAULT_NEAR_TOL, and the block keeps the rows up
to that bound plus a rounding margin of 1e-9, its circle rows.  At
order 600 that is 9,613 of 38,311 elliptic rows.  A block holds only
what the engine reads: per order, the numbers of canonical, regular
elliptic and circle rows up to it; the circle rows' (l, k1, k2, k3); and
their traces.  Only survivors and near-misses become CandidateTrace
objects.  Reports do not depend on the block size.  The block's triples
are the one canonical form of a candidate, and its table of roots of
unity the one candidate value; CyclotomicInt, a sum of roots of unity
evaluated as a float, serves the test oracles, not the engine.

Of a block, only the circle gap and the diagnostics depend on (m, n).
The block itself depends on neither (m, n) nor max_l, so the first one
is built once per process and circle bound, at the first call that
reads it, and kept as read-only arrays: 66 counts and 3,218 circle rows
with their traces, 105 KB.  The rows run in (l, k1, k2) order, so a
max_l of L <= 66 reads the first L counts and the circle rows they
count: refute's max_l = 16..36 runs the circle gap on 42 to 508 rows.  A
changed DEFAULT_NEAR_TOL gets a shared block of its own.  Blocks from
order 67 on are built per call.

The conjugate scan is closed form.  The Galois map omega_N -> omega_N^k
sends 2 cos(pi/n) to 2 cos(k pi/n) and fixes the integer 2 of an
infinite corner, so the conjugated circle depends only on k mod M, with
M = lcm(2m, 2n) (M = 2n when m is infinite).  As M divides the conductor
N, the units mod N map onto the units mod M, and the phi(N) conjugates
reduce to the phi(M) unit residues mod M.  That residue part depends on
(m, n) only: it is computed once per call, at the first near-miss, and
each near-miss order lifts it to its conductor.  The units come from a
sieve over the primes of M, and their cosines from one table of
cos(j pi/n), j = 0..2n - 1, indexed by r mod 2n (and one for m).
Whether every conjugated circle lies strictly left of -1 is one integer
test on (m, n): every prime of mn divides M, so a unit r mod M is prime
to mn, and |cos r pi/n| = |cos r pi/m|, which holds exactly when mn
divides r(m - n) or r(m + n), would need mn to divide m - n or m + n;
|cos r pi/n| = 1 at an infinite m would need n to divide 1.  For
m != n, both orders at least 3, neither happens.

The enumeration and the filters grow as max_l^3, and the near-miss
diagnostics add a part that grows with the near-misses.  Their totients
come from the primes of l, found once per near-miss order and kept with
its scan: each d_i of the Euler-phi bound divides l, and _lift_scan takes
phi(lcm(l, M)) as phi(l) phi(M) / phi(gcd(l, M)), with phi(M) the number
of unit residues.  Its smallest maximising unit is the first of the
lifts t + jM of the maximising residues t, in ascending order, that is
coprime to the conductor.  A block with no row within DEFAULT_NEAR_TOL
of the circle gathers nothing.
On one core of a 2-vCPU Xeon virtual machine, refute_finite_order(8, 11)
takes (median of 7 fresh processes, the shared block's build included)
0.017 s of CPU at max_l = 120, 0.19 s at 300, 0.94 s at 600 and 2.7 s
at 900.
"""

import bisect
import functools
import itertools
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


def _check_max_l(max_l):
    """Refuse anything but an integer 1 <= max_l <= MAX_ORDER_BOUND; numpy
    integers count, bools do not."""
    if not _is_integer(max_l):
        raise ValueError("max_l must be an integer")
    if max_l < 1:
        raise ValueError("max_l must be at least 1")
    if max_l > MAX_ORDER_BOUND:
        raise ValueError(f"max_l is capped at {MAX_ORDER_BOUND}")


def _prime_factors(n: int) -> list:
    """The distinct primes of an integer n >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def _totient(d: int, primes) -> int:
    """Euler's totient of d, whose prime factors all lie in primes."""
    result = d
    for p in primes:
        if d % p == 0:
            result -= result // p
    return result


def euler_phi(d: int) -> int:
    """Euler's totient, by trial-division factorisation."""
    _check_positive_int(d, "d")
    return _totient(d, _prime_factors(d))


@dataclass(frozen=True)
class PhiCheck:
    """Orders d_i of the root-of-unity summands and the totient bound."""

    d: tuple
    holds: bool


def phi_inequality(l: int, k1: int, k2: int, k3: int) -> PhiCheck:
    """Evaluate 1/phi(d1) + 1/phi(d2) + 1/phi(d3) > 1 with
    d_i = l / gcd(k_i, l), decided on integers: with p_i = phi(d_i) it
    reads p2 p3 + p1 p3 + p1 p2 > p1 p2 p3.  Each d_i divides l, so l is
    factored once."""
    _check_positive_int(l, "l")
    if not all(_is_integer(k) for k in (k1, k2, k3)):
        raise ValueError("exponents must be integers")
    return _phi_check(l, (k1, k2, k3), _prime_factors(l))


def _phi_check(l: int, k: tuple, primes) -> PhiCheck:
    """phi_inequality(l, *k) for checked arguments, with primes the
    distinct primes of l."""
    d = tuple(l // math.gcd(ki % l, l) for ki in k)
    p1, p2, p3 = (_totient(di, primes) for di in d)
    return PhiCheck(d=d, holds=p2 * p3 + p1 * p3 + p1 * p2 > p1 * p2 * p3)


_INT64 = np.iinfo(np.int64)


def _fits_int64(value) -> bool:
    return _INT64.min <= value <= _INT64.max


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
            return
        # as objects, entry by entry: a cast to int64 would truncate floats
        # and parse strings, and numpy's own promotion turns a list mixing
        # 2**63 and 0 into floats
        coeffs = np.asarray(coeffs, dtype=object)
        if coeffs.shape != (self.order,):
            raise ValueError("coefficient vector must have length N")
        entries = coeffs.tolist()
        if not all(map(_is_integer, entries)):
            raise ValueError("coefficients must be integers")
        if not all(map(_fits_int64, entries)):
            raise ValueError("coefficients must fit in int64")
        self.coeffs = np.array(entries, dtype=np.int64)

    @classmethod
    def root(cls, order: int, j: int, coeff: int = 1) -> "CyclotomicInt":
        """coeff * omega_order^j, for integers j and coeff."""
        if not (_is_integer(j) and _is_integer(coeff)):
            raise ValueError("exponent and coefficient must be integers")
        if not _fits_int64(coeff):
            raise ValueError("coefficients must fit in int64")
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
        a, b = self.coeffs, other.coeffs
        total = a + b
        # int64 addition wraps: it overflowed where both operands differ in
        # sign from the wrapped sum
        if (((a ^ total) & (b ^ total)) < 0).any():
            raise ValueError("sum overflows int64")
        return CyclotomicInt(self.order, total)

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

# _ROW_ESTIMATES[L] estimates the number of canonical rows of orders up to
# L: l^2/6 + 1 is about the number of exponent triples of order l
_ROW_ESTIMATES = list(itertools.accumulate(
    (l * l // 6 + 1 for l in range(1, MAX_ORDER_BOUND + 1)), initial=0))


def _order_blocks(max_l: int):
    """Consecutive orders 1..max_l cut into blocks (l_lo, l_hi) of about
    _BLOCK_ROWS canonical rows each; an order with more rows is a block
    of its own.  Each block ends at the last order whose estimate keeps
    the block within _BLOCK_ROWS, found by bisection in _ROW_ESTIMATES."""
    l_lo = 1
    while l_lo <= max_l:
        budget = _ROW_ESTIMATES[l_lo - 1] + _BLOCK_ROWS
        l_hi = min(max(bisect.bisect_right(_ROW_ESTIMATES, budget, l_lo) - 1, l_lo), max_l)
        yield l_lo, l_hi
        l_lo = l_hi + 1


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


# the rightmost point c + R = -4 (s1 - s2)^2 - 1 of every trace circle is
# at most -1, so a trace within DEFAULT_NEAR_TOL of a circle has real part
# at most -1 + DEFAULT_NEAR_TOL; the margin covers the rounding of c, R,
# x - c and hypot, which stays below 1e-13
_LEFT_MARGIN = 1e-9


def _build_block(l_lo: int, l_hi: int, left: float) -> tuple:
    """The block of orders l_lo..l_hi, which depends on neither (m, n) nor
    max_l, at the circle bound left.

    Returns (counts, rows, tau).  counts[i] holds the numbers of canonical
    rows, of regular elliptic rows (discriminant below -EPS_DISCRIMINANT)
    and of circle rows of the orders l_lo..l_lo + i.  The circle rows are
    the elliptic rows with Re tau <= left: rows holds their (l, k1, k2, k3)
    as int32, in (l, k1, k2) order, and tau their traces.
    """
    tl, tk = _order_exponents(l_lo, l_hi)
    p, k2, k3 = _canonical_triples(tl, tk)
    # each root of unity of the block's orders once, at its (l, k) table
    # index; 1j * (2 pi / l) rounds as Python's 2j * math.pi / l does, while
    # numpy's complex division 2j * np.pi / l can differ in the last bit
    roots = np.exp(1j * (2.0 * math.pi / tl) * tk)
    # (l, k) of a row's order sits at table index base + k
    base = p - tk[p]
    tau = roots[p] + roots[base + k2] + roots[base + k3]
    is_elliptic = discriminant(tau) < -EPS_DISCRIMINANT
    circle = np.flatnonzero(is_elliptic & (tau.real <= left))
    # the rows of orders up to l end where p reaches the table's end of l
    ends = np.searchsorted(p, np.cumsum(np.arange(l_lo, l_hi + 1)))
    counts = np.stack((ends, np.searchsorted(np.flatnonzero(is_elliptic), ends),
                       np.searchsorted(circle, ends)), axis=1)
    # the gathers index with the intp circle, as an int32 index array takes
    # numpy's slower path
    q = p[circle]
    return counts, np.stack((tl[q], tk[q], k2[circle], k3[circle]), axis=1), tau[circle]


# the last order of the first block at the default _BLOCK_ROWS, fixed at
# import so that the shared block does not follow a later change of it
_SHARED_ORDERS = next(_order_blocks(MAX_ORDER_BOUND))[1]


@functools.cache
def _shared_block(left: float) -> tuple:
    """_build_block(1, _SHARED_ORDERS, left), built once per process and
    bound on first use and kept as read-only arrays.  Its rows are in
    (l, k1, k2) order, so any first block that ends at or before
    _SHARED_ORDERS is a prefix of it."""
    arrays = _build_block(1, _SHARED_ORDERS, left)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _block(l_lo: int, l_hi: int) -> tuple:
    """(counts, rows, tau) of the block of orders l_lo..l_hi, as
    _build_block gives them for the bound that DEFAULT_NEAR_TOL sets.  A
    block of orders 1..L with L <= _SHARED_ORDERS reads a prefix of the
    shared block at that bound: its first L counts and its first f circle
    rows and traces, f the last of those counts' circle numbers; any other
    block is built here."""
    left = -1.0 + DEFAULT_NEAR_TOL + _LEFT_MARGIN
    if l_lo != 1 or l_hi > _SHARED_ORDERS:
        return _build_block(l_lo, l_hi, left)
    counts, rows, tau = _shared_block(left)
    f = counts[l_hi - 1, 2]
    return counts[:l_hi], rows[:f], tau[:f]


def enumerate_candidates(max_l: int):
    """All canonical candidates with l <= max_l, in (l, k) order."""
    _check_max_l(max_l)
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
    """The units k in [1, N] mod N, ascending: a sieve over the primes of
    N."""
    unit = np.ones(N + 1, dtype=bool)
    unit[0] = False
    for q in _prime_factors(N):
        unit[::q] = False
    return np.flatnonzero(unit)


def _corner_residues(m, n):
    """The part of the conjugate scan that depends on (m, n) only, over the
    units r mod M: (M, their number phi(M), the largest rightmost point, the
    residues attaining it within 1e-12, whether every conjugated circle lies
    strictly left of -1, decided on integers).  None when M exceeds
    DEFAULT_CONDUCTOR_CAP, since every conductor lcm(l, M) then does too;
    nothing is built.

    The conjugated cosines are read from a table of cos(j pi/n),
    j = 0..2n - 1, at j = r mod 2n (and the same for m).  A unit r mod M is
    prime to mn, so |cos r pi/n| = |cos r pi/m| would need mn to divide
    m - n or m + n, and |cos r pi/n| = 1 at an infinite m would need n to
    divide 1."""
    M = _corner_modulus(m, n)
    if M > DEFAULT_CONDUCTOR_CAP:
        return None
    n = int(n)
    r = _units(M)
    s1 = np.cos(np.pi * np.arange(2 * n) / n)[r % (2 * n)]
    if is_infinite(m):
        s2 = 1.0
        strictly_below = n > 1
    else:
        m = int(m)
        s2 = np.cos(np.pi * np.arange(2 * m) / m)[r % (2 * m)]
        strictly_below = (m - n) % (m * n) != 0 and (m + n) % (m * n) != 0
    rightmost = _trace_circle_rightmost(s1, s2)
    worst = float(rightmost.max())
    return M, r.size, worst, r[rightmost >= worst - 1e-12].tolist(), strictly_below


def _lift_scan(l: int, residues, primes) -> ConjugateScan | None:
    """The conjugate scan at order l from _corner_residues: the conductor
    N = lcm(l, M), phi(N) and the smallest unit in [1, N] over a maximising
    residue; None when the residues are None or N exceeds
    DEFAULT_CONDUCTOR_CAP.  phi(N) = phi(l) phi(M) / phi(gcd(l, M)), with
    phi(M) from the residues and the rest from primes, the distinct primes
    of l."""
    if residues is None:
        return None
    M, phi_m, worst, ties, strictly_below = residues
    N = math.lcm(l, M)
    if N > DEFAULT_CONDUCTOR_CAP:
        return None
    return ConjugateScan(
        conductor=N,
        n_conjugates=_totient(l, primes) * phi_m // _totient(math.gcd(l, M), primes),
        max_rightmost=worst,
        all_strictly_below=strictly_below,
        # the lifts t + jM of the maximising residues, in ascending order;
        # as the units mod N map onto the units mod M, one is a unit
        worst_k=next(t + j for j in range(0, N, M) for t in ties if math.gcd(t + j, N) == 1),
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
    _check_max_l(max_l)

    c, radius = _trace_123_circle(m, n)

    survivors = []
    near = []
    checked = 0
    elliptic = 0
    scans = {}
    for block in _order_blocks(max_l):
        counts, rows, tau = _block(*block)
        checked += int(counts[-1, 0])
        elliptic += int(counts[-1, 1])
        # c is real, so this is |tau - c| as a complex difference gives it;
        # np.hypot rounds as abs(complex) does, np.abs can differ in the
        # last bit
        gap = np.abs(np.hypot(tau.real - c, tau.imag) - radius)
        hits = np.flatnonzero(gap <= DEFAULT_NEAR_TOL)
        if not hits.size:
            continue
        for (l, *k), g in zip(rows[hits].tolist(), gap[hits].tolist()):
            cand = CandidateTrace(l=l, k=tuple(k))
            if g <= DEFAULT_CIRCLE_TOL:
                survivors.append(_survivor_diagnostic(cand, g, m, n))
                continue
            # the scan depends on l only through the conductor: one per l,
            # over residues mod M computed once per call, at its first
            # near-miss, and kept with the primes of l
            if l not in scans:
                if not scans:
                    residues = _corner_residues(m, n)
                primes = _prime_factors(l)
                scans[l] = primes, _lift_scan(l, residues, primes)
            primes, scan = scans[l]
            near.append(
                NearMissDiagnostic(
                    candidate=cand,
                    circle_gap=g,
                    conjugates=scan,
                    phi=_phi_check(l, cand.k, primes),
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
