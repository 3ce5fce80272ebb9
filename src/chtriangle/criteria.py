"""Non-discreteness criteria and interval scans over a = cos(theta).

Three certificates are implemented for the triangle group with corner
orders (m, n) and an ideal third corner:

* regular elliptic: the product of the three involutions is regular
  elliptic (discriminant of its trace negative);
* jorgensen: the complex hyperbolic Jorgensen inequality applied to the
  order-n elliptic rotation and the third involution;
* shimizu: Shimizu's lemma applied to the Heisenberg translation produced
  by the two vertical sides and the first involution.

Each criterion has a continuous defining function of a that is negative
exactly where the criterion fires, so interval endpoints are honest roots,
found in closed form as the real roots of a polynomial of degree <= 3 in a.
Each (test, m, n) has one closed form, one branch per criterion: an
evaluator f(a) of a float a and its breakpoints, or None where the
criterion does not apply.  Its constants are taken once, and every value,
breakpoint and midpoint sign reads it.  The re cubic's roots take at most
three Newton steps through the given evaluator, stopping at a fixed point.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .closed import (
    EPS_DISCRIMINANT,
    IsometryClass,
    _check_a,
    _check_float_size,
    _check_order,
    _check_orders,
    _check_theta,
    _is_integer,
    _locus_3132,
    _plain_order,
    _trace_123_circle,
    corner_cos,
    corner_sin,
    cubic_roots,
    discriminant,
    is_infinite,
    trace_word_123,
    trace_word_3132,
)

SCAN_TESTS = ("re", "jorgensen", "shimizu")

#: row sets of the three built-in survey tables
TABLE_ROWS = {
    1: (11, 12, 13, 14, 15, 20, 30, 40, 100, 200),
    2: (4, 5, 6, 7, 8, 9, 10, 20, 30, 100, 200),
    3: (4, 5, 6, 7, 8, 9, 10, 15, 20, 40, 100, 200),
}

TABLE_COLUMNS = {
    1: ("elliptic_lo", "elliptic_hi"),
    2: ("jorgensen_lo", "shimizu_lo"),
    3: ("elliptic_lo", "elliptic_hi", "jorgensen_lo", "shimizu_lo"),
}

# roots this close to each other or to -1 and 1 merge in a scan, so an
# interval reaching a = 1 ends at exactly 1.0
MERGE_TOL = 1e-10
# a within this of an end of the word 3132's elliptic range takes its class
WORD_3132_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class CriterionEvaluation:
    """Outcome of the regular elliptic criterion at one configuration."""

    fires: bool
    trace: complex
    discriminant: float


@dataclass(frozen=True)
class ScanResult:
    """Maximal open intervals of a = cos(theta) on which a criterion fires."""

    test: str
    m: float
    n: float
    intervals: tuple
    tol: float

    def contains(self, a: float) -> bool:
        return any(lo < a < hi for lo, hi in self.intervals)


@dataclass(frozen=True)
class TableRow:
    n: int
    cells: dict


@dataclass(frozen=True)
class TableResult:
    table: int
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class WordClassification:
    trace: float
    tag: IsometryClass


@dataclass(frozen=True)
class NondiscretenessReport:
    """Aggregated verdict of all applicable certificates at one point.

    word_3132 classifies the closed trace of trace_word_3132.  "3132" is
    the paper's label, for its (n, inf, inf) group; in the slots (inf, n)
    the report is taken in, that trace is the word 1232's (and 2131's)."""

    m: float
    n: float
    theta: float
    a: float
    regular_elliptic: CriterionEvaluation
    jorgensen: bool | None
    shimizu: bool
    word_3132: WordClassification | None
    fired: tuple
    certified: bool
    verdict: str


class _ClosedForm(NamedTuple):
    """A criterion's defining function f(a) of a float a at one (m, n),
    and breakpoints(value): every real root of a polynomial in a that
    vanishes wherever f does, and maybe more, polished (re) with value."""

    value: Callable[[float], float]
    breakpoints: Callable[[Callable[[float], float]], list]


def _closed_form(test, m, n) -> _ClosedForm | None:
    """The one closed form of test at corner orders (m, n), None where the
    criterion does not apply (Jorgensen at n infinite or below 7).  With
    s1 = cos(pi/n) and s2 = cos(pi/m), re reads the trace circle's c and R,
    jorgensen the base s1^2 + 2 s2^2, the slope 4 s1 s2 and the half-width
    sin(pi/n)/2, shimizu alpha = s1^2 + s2^2 and beta = 2 s1 s2."""
    if test == "re":
        c, r = _trace_123_circle(m, n)

        def value(a):
            return discriminant(c + r * (a + 1j * math.sqrt(max(1.0 - a * a, 0.0))))

        def breakpoints(value):
            # f = |tau|^4 - 8 Re tau^3 + 18 |tau|^2 - 27 with |tau|^2 = c^2 + R^2 + 2cRa
            # and Re tau^3 = c^3 + 3c^2 R a + 3c R^2 (2a^2 - 1) + R^3 (4a^3 - 3a)
            p3 = -32.0 * r**3
            p2 = 4.0 * r * r * c * (c - 12.0)
            p1 = 4.0 * r * (c * (c - 3.0) ** 2 + r * r * (c + 6.0))
            p0 = ((c * c + r * r) ** 2 - 8.0 * c**3 + 24.0 * c * r * r
                  + 18.0 * (c * c + r * r) - 27.0)
            roots = []
            for z in cubic_roots(-p2 / p3, p1 / p3, -p0 / p3):
                # up to three Newton steps from the real part, a complex root's too:
                # the monomial coefficients cancel near a = 1, leaving roots off by
                # up to 2e-10 at m = inf.  A step depends on a alone, so once a step
                # leaves a unchanged (== also takes -0.0 to 0.0, which then stays)
                # the remaining steps would too, and the polish stops there
                a = min(1.0, max(-1.0, z.real))
                for _ in range(3):
                    slope = (3.0 * p3 * a + 2.0 * p2) * a + p1
                    if slope == 0.0:
                        break
                    a, last = min(1.0, max(-1.0, a - value(a) / slope)), a
                    if a == last:
                        break
                roots.append(a)
            return roots

        return _ClosedForm(value, breakpoints)
    if test == "jorgensen":
        if not jorgensen_applies(n):
            return None
        s1, s2 = corner_cos(n), corner_cos(m)
        base = s1 * s1 + 2.0 * s2 * s2
        slope = 4.0 * s1 * s2
        half = 0.5 * corner_sin(n)

        def value(a):
            return abs(base - slope * a + 1.0) - half

        def breakpoints(value):
            # |L(a)| = half with L(a) = base + 1 - slope a
            return [(base + 1.0 - half) / slope, (base + 1.0 + half) / slope]

        return _ClosedForm(value, breakpoints)
    s1, s2 = corner_cos(n), corner_cos(m)
    alpha = s1 * s1 + s2 * s2
    beta = 2.0 * s1 * s2

    def value(a):
        # beta sin(theta) is 2v to the bit: doubling is exact
        u = alpha - beta * a
        return math.hypot(u, beta * math.sqrt(max(1.0 - a * a, 0.0))) + 4.0 * u - 0.25

    def breakpoints(value):
        # u^2 + 4 v^2 - (1/4 - 4u)^2 with u = alpha - beta a, 4 v^2 = beta^2 (1 - a^2);
        # q1 > 0 for orders >= 3, so this form of the root formula does not
        # cancel; a complex pair (discriminant read as 0) gives its real part
        # and one more point, extra breakpoints that split a piece of one sign
        q2 = -16.0 * beta * beta
        q1 = beta * (30.0 * alpha - 2.0)
        q0 = beta * beta - 15.0 * alpha * alpha + 2.0 * alpha - 0.0625
        q = -0.5 * (q1 + math.sqrt(max(q1 * q1 - 4.0 * q2 * q0, 0.0)))
        return [q / q2, q0 / q]

    return _ClosedForm(value, breakpoints)


def _value(test, m, n, a) -> float:
    """f(a) of test at corner orders (m, n) already checked: a goes
    through _check_a, and Jorgensen is refused where it does not apply."""
    a = _check_a(a)
    form = _closed_form(test, m, n)
    if form is None:
        raise ValueError("jorgensen criterion needs finite n >= 7")
    return form.value(a)


def regular_elliptic_value(m, n, a) -> float:
    """Discriminant of the trace of the product of the three involutions,
    as a function of a = cos(theta).  Negative exactly where the product
    is regular elliptic.  a is one scalar in [-1, 1], taken through
    float(a) and evaluated on Python floats and the scalar discriminant."""
    _check_orders(m, n)
    return _value("re", m, n, a)


def jorgensen_applies(n) -> bool:
    """True when the Jorgensen criterion applies: the inequality only holds
    for a regular elliptic rotation of finite order n >= 7."""
    return not is_infinite(n) and n >= 7


def jorgensen_value(m, n, a) -> float:
    """Defining function of the Jorgensen criterion:
    |s1^2 + 2 s2^2 - 4 s1 s2 a + 1| - sin(pi/n)/2.

    Requires a finite elliptic order n >= 7 (see jorgensen_applies).  a is
    one scalar in [-1, 1], taken through float(a), on Python floats.
    """
    _check_orders(m, n)
    return _value("jorgensen", m, n, a)


def shimizu_value(m, n, a) -> float:
    """Defining function of the Shimizu criterion: |u - 2iv| + 4u - 1/4,
    with u = s1^2 + s2^2 - 2 s1 s2 a and v = s1 s2 sin(theta).

    a is one scalar in [-1, 1], taken through float(a) and evaluated on
    Python floats; |u - 2iv| is math.hypot(u, 2v)."""
    _check_orders(m, n)
    return _value("shimizu", m, n, a)


def regular_elliptic_criterion(m, n, theta) -> CriterionEvaluation:
    """Evaluate the regular elliptic certificate at angular invariant
    theta in [0, pi]; trace_word_123 checks the orders and theta."""
    tau = trace_word_123(m, n, theta)
    f = discriminant(tau)
    return CriterionEvaluation(fires=f < -EPS_DISCRIMINANT, trace=tau, discriminant=f)


def jorgensen_condition(m, n, theta) -> bool:
    """True when the Jorgensen certificate fires (strict inequality);
    theta must lie in [0, pi]."""
    _check_orders(m, n)
    _check_theta(theta)
    return _value("jorgensen", m, n, math.cos(theta)) < 0.0


def shimizu_condition(m, n, theta) -> bool:
    """True when the Shimizu certificate fires (strict inequality);
    theta must lie in [0, pi]."""
    _check_orders(m, n)
    _check_theta(theta)
    return _value("shimizu", m, n, math.cos(theta)) < 0.0


def scan_intervals(test: str, m, n) -> ScanResult:
    """Find all maximal intervals of a in [-1, 1] where a criterion fires.

    The breakpoints are the roots of a polynomial that vanishes at every
    zero of the defining function: the discriminant of tr(123) is a cubic
    in a, Jorgensen has two linear branches, and Shimizu squared under its
    sign condition is a quadratic; each root's real part is a candidate,
    a complex root's too.  Roots closer than MERGE_TOL to each other or to
    -1 and 1 merge, so an interval narrower than that is not reported.
    Each piece between breakpoints takes the sign of the defining function
    at its midpoint, and negative pieces join, so an extra breakpoint only
    splits a piece of one sign: it is harmless.  The
    result's tol reports MERGE_TOL, not an endpoint error: each endpoint
    is a root itself.  For "re" the scan and regular_elliptic_criterion
    agree one way only: where the criterion fires the scan contains a,
    but just inside an endpoint the scan (f < 0) can contain an a at
    which the criterion (f < -EPS_DISCRIMINANT, from e^{i theta}) does
    not fire.  An empty interval list means the scan found no
    certificate, and so does Jorgensen where it does not apply (n infinite
    or below 7).  The orders must be >= 3 or infinite; they may be equal,
    and need not be integers, as the criteria are continuous in them.
    """
    if test not in SCAN_TESTS:
        raise ValueError(f"unknown test {test!r}; expected one of {SCAN_TESTS}")
    _check_orders(m, n)
    m, n = _plain_order(m), _plain_order(n)
    form = _closed_form(test, m, n)
    pieces = []
    if form is not None:
        value = form.value
        points = [-1.0]
        for root in sorted(form.breakpoints(value)):
            if points[-1] + MERGE_TOL <= root <= 1.0 - MERGE_TOL:
                points.append(root)
        points.append(1.0)
        pieces = [(lo, hi) for lo, hi in zip(points, points[1:]) if value(0.5 * (lo + hi)) < 0.0]
    return ScanResult(test=test, m=m, n=n, intervals=tuple(_merge_intervals(pieces)), tol=MERGE_TOL)


def reproduce_table(which: int) -> TableResult:
    """Recompute one of the three built-in survey tables.

    Table 1: regular elliptic intervals for corner orders (8, n).
    Table 2: Jorgensen and Shimizu endpoints for corner orders (8, n).
    Table 3: all four columns for the family with one finite corner order n.

    Cells are None where the criterion is inapplicable or the scan finds
    no interval; the CLI renders those as dashes.
    """
    if not _is_integer(which) or which not in TABLE_ROWS:
        raise ValueError("table index must be 1, 2 or 3")
    which = int(which)
    m = 8 if which in (1, 2) else math.inf

    def build_row(n: int) -> TableRow:
        cells = {}
        if which in (1, 3):
            found = scan_intervals("re", m, n).intervals
            cells["elliptic_lo"], cells["elliptic_hi"] = found[0] if found else (None, None)
        if which in (2, 3):
            for test in ("jorgensen", "shimizu"):
                # the one-sided criteria: the left end of the last interval
                found = scan_intervals(test, m, n).intervals
                cells[f"{test}_lo"] = found[-1][0] if found else None
        return TableRow(n=n, cells=cells)

    rows = tuple(build_row(n) for n in TABLE_ROWS[which])
    return TableResult(table=which, columns=TABLE_COLUMNS[which], rows=rows)


def _check_finite_order(n):
    """Reject a corner order n that is not finite and >= 3, NaN included;
    orders need not be integers, as the closed forms are continuous in n."""
    _check_order(n, "n", integer=False)
    if is_infinite(n):
        raise ValueError("n must be a finite corner order >= 3")


def word_3132_analysis(n, a) -> WordClassification:
    """Trace and isometry class of the word 3132 in the one-finite-corner
    family, from the closed trace formula of trace_word_3132: the word
    1232 (and 2131) of build_mn_inf(inf, n, theta), the slots the criteria
    use.

    The word is regular elliptic exactly for a strictly between s and
    (1 + 4 s^2)/(4 s) with s = cos(pi/n); at the left endpoint it is
    unipotent parabolic, at the right endpoint (when it is a geometric
    parameter value) boundary elliptic, and loxodromic outside.
    """
    _check_finite_order(n)
    a = _check_a(a)
    s = corner_cos(n)
    t = trace_word_3132(n, a)
    # the order-2 locus, trace -1: (1 + 4 s^2)/(4 s)
    upper = _locus_3132(s, -1.0)
    if abs(a - s) <= WORD_3132_BOUNDARY_TOL:
        tag = IsometryClass.UNIPOTENT_PARABOLIC
    elif abs(a - upper) <= WORD_3132_BOUNDARY_TOL:
        tag = IsometryClass.BOUNDARY_ELLIPTIC
    elif s < a < upper:
        tag = IsometryClass.REGULAR_ELLIPTIC
    else:
        tag = IsometryClass.LOXODROMIC
    return WordClassification(trace=t, tag=tag)


def order_k_locus(n: int, k: int) -> float:
    """The value of a = cos(theta) at which the word 3132 becomes elliptic
    of rotation angle 2 pi/k, i.e. has trace 1 + 2 cos(2 pi/k).

    k is an integer >= 2 (bools refused) or infinity, where the word is
    parabolic and a = cos(pi/n).  The word is that of trace_word_3132:
    1232 (and 2131) of build_mn_inf(inf, n, theta)."""
    _check_finite_order(n)
    if not k >= 2:
        raise ValueError("k must be at least 2")
    if not is_infinite(k) and k != int(k):
        raise ValueError("k must be an integer or infinity")
    _check_float_size(k, "k")
    a = _locus_3132(corner_cos(n), math.cos(2.0 * math.pi / k))
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"no geometric parameter: a = {a:.6g} outside [-1, 1]")
    return a


def _merge_intervals(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def word_order_cos_window(n: int):
    """Window of cos(2 pi/k) values certifying non-discreteness through the
    order of the word 3132.

    Scans all three criteria for the family with finite corner order n,
    takes the union component of the certified set that reaches a = 1, and
    maps its endpoints a through the trace t of the word 3132:
    cos(2 pi/k) = (t(a) - 1)/2, the inverse of order_k_locus.  The word is
    that of trace_word_3132: 1232 (and 2131) of build_mn_inf(inf, n, theta),
    the slots of the scans.
    """
    _check_finite_order(n)
    pieces = []
    for test in SCAN_TESTS:
        pieces.extend(scan_intervals(test, math.inf, n).intervals)
    merged = _merge_intervals(pieces)
    if not merged or merged[-1][1] != 1.0:
        raise ValueError(f"no certified interval reaching a = 1 for n = {n}")
    a_lo = merged[-1][0]
    return ((trace_word_3132(n, 1.0) - 1.0) / 2.0, (trace_word_3132(n, a_lo) - 1.0) / 2.0)


def nondiscreteness_report(m, n, theta) -> NondiscretenessReport:
    """Run every applicable certificate at one configuration.

    The verdict is "certified non-discrete" as soon as one criterion
    fires; the report never claims discreteness.  The corner orders must
    be >= 3 or infinity (not necessarily integers, as the criteria are
    continuous in them) and theta must lie in [0, pi].
    """
    # the regular elliptic criterion checks the orders and theta for all three
    re_eval = regular_elliptic_criterion(m, n, theta)
    a = math.cos(theta)
    jorgensen = _closed_form("jorgensen", m, n)
    jor = None if jorgensen is None else jorgensen.value(a) < 0.0
    shi = _closed_form("shimizu", m, n).value(a) < 0.0
    word = None
    if is_infinite(m) and not is_infinite(n):
        word = word_3132_analysis(n, a)
    fired = []
    if re_eval.fires:
        fired.append("re")
    if jor:
        fired.append("jorgensen")
    if shi:
        fired.append("shimizu")
    certified = bool(fired)
    return NondiscretenessReport(
        m=_plain_order(m),
        n=_plain_order(n),
        theta=float(theta),
        a=a,
        regular_elliptic=re_eval,
        jorgensen=jor,
        shimizu=shi,
        word_3132=word,
        fired=tuple(fired),
        certified=certified,
        verdict="certified non-discrete" if certified else "no certificate",
    )
