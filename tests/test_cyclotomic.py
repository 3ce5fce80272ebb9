import cmath
import functools
import math

import numpy as np
import pytest

from chtriangle import cyclotomic
from chtriangle.cyclotomic import (
    _SHARED_ORDERS,
    CandidateTrace,
    CyclotomicInt,
    _block,
    _canonical_triples,
    _corner_residues,
    _lift_scan,
    _order_blocks,
    _order_exponents,
    _prime_factors,
    _shared_block,
    enumerate_candidates,
    euler_phi,
    phi_inequality,
    refute_finite_order,
    trace_circle_rightmost,
)
from chtriangle.closed import (
    EPS_DISCRIMINANT,
    _trace_123_circle,
    corner_cos,
    discriminant,
    trace_word_123,
)
from helpers import (
    candidate_value,
    canonical_candidate,
    canonical_triples_oracle,
    conjugate_rightmost_oracle,
    conjugate_scan_oracle,
    corner_residues_oracle,
    enumerate_candidates_oracle,
    json_text,
    make_rng,
    order_blocks_oracle,
    refute_finite_order_oracle,
    units_oracle,
    worst_k_oracle,
)

INF = math.inf


def _scan(l, m, n):
    """The engine's conjugate scan of (m, n) at order l."""
    return _lift_scan(l, _corner_residues(m, n), _prime_factors(l))


def _phi_bruteforce(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(210) == 48
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_against_bruteforce():
    for d in range(1, 200):
        assert euler_phi(d) == _phi_bruteforce(d), d


@pytest.mark.parametrize("call, message", [
    (lambda: euler_phi(2.5), "^d must be a positive integer"),
    (lambda: euler_phi(math.nan), "^d must be a positive integer"),
    (lambda: euler_phi(-4), "^d must be a positive integer"),
    (lambda: phi_inequality(0, 1, 2, 3), "^l must be a positive integer"),
    (lambda: phi_inequality(7.0, 1, 2, 4), "^l must be a positive integer"),
    (lambda: phi_inequality(7, 1, 2.0, 4), "^exponents must be integers"),
    (lambda: CyclotomicInt.root(4, 1.5), "^exponent and coefficient must be integers$"),
    (lambda: CyclotomicInt.root(6, 1).evaluate_conjugate(3.0),
     "^galois automorphism index must be an integer"),
    (lambda: CyclotomicInt.root(6, 1).evaluate_conjugate(2),
     "^galois automorphism index must be an integer coprime to N$"),
])
def test_totient_and_candidate_inputs_must_be_integers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: euler_phi(True), "^d must be a positive integer$"),
    (lambda: phi_inequality(True, 0, 0, 0), "^l must be a positive integer$"),
    (lambda: phi_inequality(7, True, 2, 4), "^exponents must be integers$"),
    (lambda: refute_finite_order(8, 11, max_l=True), "^max_l must be an integer$"),
    (lambda: CyclotomicInt(True), "^order must be a positive integer$"),
    (lambda: CyclotomicInt(4) + True, "^operands must share the same root order$"),
    (lambda: CyclotomicInt.root(6, 1).evaluate_conjugate(True),
     "^galois automorphism index must be an integer coprime to N$"),
], ids=["euler_phi", "phi_l", "phi_k", "max_l", "cyclotomic_order", "cyclotomic_scalar",
        "galois_k"])
def test_integer_inputs_refuse_bool(call, message):
    # bool is an int subclass: max_l=True used to give a report whose
    # JSON record printed max_l as true, and euler_phi(True) returned True
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("max_l, message", [
    (-5, "^max_l must be at least 1$"),
    (0, "^max_l must be at least 1$"),
    (True, "^max_l must be an integer$"),
    (3.5, "^max_l must be an integer$"),
    (6, "^max_l is capped at 5$"),
])
def test_enumeration_checks_max_l_as_the_engine_does(monkeypatch, max_l, message):
    # enumerate_candidates(-5) used to give 8 candidates, (True) one and
    # (3.5) a TypeError; a lowered cap keeps the over-the-cap case small
    monkeypatch.setattr(cyclotomic, "MAX_ORDER_BOUND", 5)
    for call in (enumerate_candidates, lambda L: refute_finite_order(8, 11, max_l=L)):
        with pytest.raises(ValueError, match=message):
            call(max_l)


def test_totient_and_candidate_accept_numpy_integers():
    # the results hold Python ints and bools, which the JSON writer takes
    phi = euler_phi(np.int64(12))
    assert type(phi) is int and phi == 4
    for l, k in (
        (np.int32(12), (np.int64(4), 4, 4)),
        (np.int64(12), (1, 2, 9)),
        (np.uint64(12), (np.int32(1), np.uint8(2), 9)),
    ):
        check, want = phi_inequality(l, *k), phi_inequality(12, *map(int, k))
        assert check == want
        assert type(check.holds) is bool and [type(d) for d in check.d] == [int] * 3
        assert json_text([phi, check]) == json_text([4, want])


def test_phi_inequality_examples():
    check = phi_inequality(7, 1, 2, 4)
    assert check.d == (7, 7, 7) and not check.holds
    check = phi_inequality(12, 4, 4, 4)
    assert check.d == (3, 3, 3) and check.holds
    check = phi_inequality(9, 4, 5, 0)
    assert check.d[2] == 1 and check.holds
    # 1/4 + 1/4 + 1/2 is exactly 1, so the strict inequality fails
    check = phi_inequality(8, 1, 1, 6)
    assert check.d == (8, 8, 4) and not check.holds


def test_phi_inequality_invariances():
    rng = make_rng(109)
    for _ in range(50):
        l = int(rng.randint(2, 60))
        k1 = int(rng.randint(0, l))
        k2 = int(rng.randint(0, l))
        k3 = (-k1 - k2) % l
        base = phi_inequality(l, k1, k2, k3)
        assert phi_inequality(l, k3, k1, k2).holds == base.holds
        assert sorted(phi_inequality(l, k2, k3, k1).d) == sorted(base.d)
        shifted = phi_inequality(l, k1 + l, k2 - l, k3)
        assert shifted.d == base.d


def test_phi_inequality_equals_euler_phi_on_every_candidate():
    # phi_inequality takes each phi(d_i) from the primes of l
    for cand in enumerate_candidates(120):
        l, k = cand.l, cand.k
        check = phi_inequality(l, *k)
        assert check.d == tuple(l // math.gcd(ki, l) for ki in k)
        p1, p2, p3 = map(euler_phi, check.d)
        assert check.holds == (p2 * p3 + p1 * p3 + p1 * p2 > p1 * p2 * p3), cand


def test_cyclotomic_construction_and_repr():
    x = CyclotomicInt.root(5, 7)  # exponent reduced mod 5
    assert x.coeffs[2] == 1
    assert "w^2" in repr(x)
    with pytest.raises(ValueError):
        CyclotomicInt(0)
    with pytest.raises(ValueError):
        CyclotomicInt(4, [1, 2, 3])


@pytest.mark.parametrize("call, message", [
    (lambda: CyclotomicInt(4, [1, 2, 3, 4.5]), "^coefficients must be integers$"),
    (lambda: CyclotomicInt(4, ["1", "2", "3", "4"]), "^coefficients must be integers$"),
    (lambda: CyclotomicInt(2, [True, 0]), "^coefficients must be integers$"),
    (lambda: CyclotomicInt(2, [2**63, 0]), "^coefficients must fit in int64$"),
    (lambda: CyclotomicInt.root(2, 0, 2**70), "^coefficients must fit in int64$"),
    (lambda: CyclotomicInt.root(2, 0, 2**62) + CyclotomicInt.root(2, 0, 2**62),
     "^sum overflows int64$"),
    (lambda: CyclotomicInt.root(2, 1, -2**62) + CyclotomicInt.root(2, 1, -2**62 - 1),
     "^sum overflows int64$"),
], ids=["float", "string", "bool", "list_past_int64", "root_past_int64", "sum_past_int64_max",
        "sum_past_int64_min"])
def test_cyclotomic_int_refuses_non_integers_and_int64_overflow(call, message):
    # a cast to int64 used to truncate 4.5 and parse "1", root raised
    # numpy's OverflowError, and the sum wrapped to -2^63
    with pytest.raises(ValueError, match=message):
        call()


def test_cyclotomic_int_keeps_the_int64_range():
    top, bottom = 2**63 - 1, -2**63
    assert CyclotomicInt(2, [top, bottom]).coeffs.tolist() == [top, bottom]
    assert (CyclotomicInt.root(2, 0, -2**62) + CyclotomicInt.root(2, 0, -2**62)).coeffs[0] == bottom
    assert (CyclotomicInt.root(2, 0, top) + CyclotomicInt.root(2, 0, -1)).coeffs[0] == top - 1
    x = CyclotomicInt(3, np.array([1, 2, 3], dtype=np.uint8))
    assert x.coeffs.dtype == np.int64 and x.coeffs.tolist() == [1, 2, 3]


def test_cyclotomic_ring_operations_track_evaluation():
    # addition is the one ring operation
    rng = make_rng(113)
    for _ in range(50):
        order = int(rng.randint(1, 40))
        a = CyclotomicInt(order, rng.randint(-5, 6, size=order))
        b = CyclotomicInt(order, rng.randint(-5, 6, size=order))
        assert (a + b).evaluate() == pytest.approx(a.evaluate() + b.evaluate(), abs=1e-9)


def test_cyclotomic_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.root(4, 1) + CyclotomicInt.root(5, 1)


def _conjugate_reference(coeffs, k):
    """sum_j c_j exp(2 pi i (jk mod N) / N), term by term with cmath."""
    N = len(coeffs)
    return sum(int(c) * cmath.exp(2j * math.pi * ((j * k) % N) / N) for j, c in enumerate(coeffs))


def test_galois_action():
    rng = make_rng(127)
    for _ in range(40):
        order = int(rng.randint(2, 60))
        coeffs = rng.randint(-4, 5, size=order)
        a = CyclotomicInt(order, coeffs)
        units = [k for k in range(1, order + 1) if math.gcd(k, order) == 1]
        for k in (1, -1, int(units[rng.randint(0, len(units))])):
            assert a.evaluate_conjugate(k) == pytest.approx(_conjugate_reference(coeffs, k), abs=1e-9)
        assert a.evaluate_conjugate(-1) == pytest.approx(a.evaluate().conjugate(), abs=1e-9)
    with pytest.raises(ValueError):
        CyclotomicInt.root(6, 1).evaluate_conjugate(2)
    # at N = 1 and 2, where k = -1 is k = 1, the value is the plain sum
    # over the support
    for order, coeffs in ((1, [5]), (2, [3, -2]), (2, [0, 4])):
        a = CyclotomicInt(order, coeffs)
        assert a.evaluate_conjugate(-1) == a.evaluate()
        support = np.nonzero(coeffs)[0]
        phases = np.exp((2j * np.pi / order) * support)
        assert a.evaluate() == complex(np.sum(np.array(coeffs)[support] * phases))


def _mobius(d):
    out, rest, p = 1, d, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            out = -out
        p += 1
    if rest > 1:
        out = -out
    return out


def test_primitive_root_sums_are_mobius_values():
    for d in range(1, 101):
        total = CyclotomicInt(d)
        for k in range(1, d + 1):
            if math.gcd(k, d) == 1:
                total = total + CyclotomicInt.root(d, k)
        value = total.evaluate()
        assert value.imag == pytest.approx(0, abs=1e-10)
        assert value.real == pytest.approx(_mobius(d), abs=1e-10)
        assert _mobius(d) in (-1, 0, 1)


def test_evaluation_is_stable_at_large_orders():
    # sum over the 100 powers of a root of order 100 inside Z[omega_10000]
    order = 10_000
    total = CyclotomicInt(order)
    for t in range(100):
        total = total + CyclotomicInt.root(order, 100 * t)
    assert abs(total.evaluate()) <= 1e-12
    # conjugation symmetry at the same scale
    rng = make_rng(139)
    support = rng.choice(order, size=50, replace=False)
    coeffs = np.zeros(order, dtype=np.int64)
    coeffs[support] = rng.randint(-2, 3, size=50)
    x = CyclotomicInt(order, coeffs)
    sym = x.evaluate() + x.evaluate_conjugate(-1)
    assert abs(sym.imag) <= 1e-12


def test_trace_circle_rightmost_examples():
    assert trace_circle_rightmost(0.5, 0.5) == pytest.approx(-1)
    assert trace_circle_rightmost(1, 0.5) == pytest.approx(-2)
    assert trace_circle_rightmost(0, 0.7) == pytest.approx(-2.96)
    assert trace_circle_rightmost(1.0, -1.0) == -1.0
    assert trace_circle_rightmost(-1, 0) == -5.0


def test_trace_circle_rightmost_strictly_below_for_unequal():
    rng = make_rng(131)
    done = 0
    while done < 1000:
        s1 = float(rng.uniform(-1, 1))
        s2 = float(rng.uniform(-1, 1))
        if abs(abs(s1) - abs(s2)) < 1e-6:
            continue
        assert trace_circle_rightmost(s1, s2) < -1
        done += 1


def _circle_gap(tau, m, n):
    c, radius = _trace_123_circle(m, n)
    return abs(abs(tau - c) - radius)


def test_circle_condition():
    # the engine's circle, _trace_123_circle, carries every trace of 123,
    # with gaps well inside DEFAULT_CIRCLE_TOL
    rng = make_rng(137)
    for _ in range(50):
        m = int(rng.randint(3, 30))
        n = int(rng.randint(3, 30))
        theta = float(rng.uniform(0, math.pi))
        assert _circle_gap(trace_word_123(m, n, theta), m, n) <= 1e-10
    assert _circle_gap(trace_word_123(9, 5, 0.0), 9, 5) <= 1e-10
    assert _circle_gap(0j, 8, 11) > cyclotomic.DEFAULT_NEAR_TOL
    # non-integer and infinite orders
    assert _circle_gap(trace_word_123(INF, 7.5, 0.3), INF, 7.5) <= 1e-12
    assert _circle_gap(0j, INF, 7.5) > cyclotomic.DEFAULT_NEAR_TOL


@pytest.mark.parametrize("s1, s2", [(2, 8), (1.5, 0.5), (0.5, -1.0000001), (math.nan, 0.5),
                                    (0.5, math.nan), (INF, 0.5)])
def test_trace_circle_rightmost_rejects_values_that_are_not_cosines(s1, s2):
    with pytest.raises(ValueError, match="^s1 and s2 must be cosines"):
        trace_circle_rightmost(s1, s2)


def test_conjugate_scan_uses_the_unchecked_rightmost_point(monkeypatch):
    want = _scan(1, 8, 11)

    def refuse(s1, s2):
        raise AssertionError("checked rightmost point called")

    monkeypatch.setattr(cyclotomic, "trace_circle_rightmost", refuse)
    assert _scan(1, 8, 11) == want


def test_canonical_candidate_reduction():
    cand = canonical_candidate(12, (4, 4, 4))
    assert cand.l == 3 and cand.k == (1, 1, 1)
    cand = canonical_candidate(10, (7, 9, 4))
    assert cand.l == 10 and cand.k == (4, 7, 9)
    cand = canonical_candidate(12, (-4, 16, 0))
    assert cand.l == 3 and cand.k == (0, 1, 2)


def test_enumeration_matches_bruteforce_canonical_set():
    for bound in (6, 9, 12):
        fast = {(c.l, c.k) for c in enumerate_candidates(bound)}
        slow = set()
        for l in range(1, bound + 1):
            for k1 in range(l):
                for k2 in range(l):
                    k3 = (-k1 - k2) % l
                    cand = canonical_candidate(l, (k1, k2, k3))
                    slow.add((cand.l, cand.k))
        assert fast == slow


def test_enumeration_matches_nested_loop_in_order():
    for bound in (1, 2, 12, 30):
        assert enumerate_candidates(bound) == enumerate_candidates_oracle(bound)


def _block_rows(l_lo, l_hi):
    """The generator's rows of a block as a per-row order array and a
    (T, 3) exponent array, read back through the (l, k) table."""
    tl, tk = _order_exponents(l_lo, l_hi)
    p, k2, k3 = _canonical_triples(tl, tk)
    return tl[p], np.stack((tk[p], k2, k3), axis=1)


def _assert_block_matches_oracle(l_lo, l_hi):
    ls, ks = _block_rows(l_lo, l_hi)
    orders = range(l_lo, l_hi + 1)
    want = [canonical_triples_oracle(l) for l in orders]
    np.testing.assert_array_equal(ls, np.repeat(orders, [len(w) for w in want]))
    np.testing.assert_array_equal(ks, np.concatenate(want))


def test_block_generator_matches_per_order_oracle():
    for l in range(1, 301):
        ls, ks = _block_rows(l, l)
        assert (ls == l).all()
        np.testing.assert_array_equal(ks, canonical_triples_oracle(l), err_msg=str(l))


@pytest.mark.parametrize("l_lo, l_hi", [(1, 36), (2, 60), (37, 90)])
def test_block_generator_straddles_orders(l_lo, l_hi):
    _assert_block_matches_oracle(l_lo, l_hi)


@pytest.mark.parametrize("l_lo, l_hi", [(1, 1), (1, 2), (1, 3), (1, 66), (67, 120), (66, 67),
                                        (223, 223), (224, 224)])
def test_block_generator_at_small_orders_and_block_boundaries(l_lo, l_hi):
    # the first blocks of max_l = 1, 2, 3, both sides of the 66/67 boundary
    # and the first single-order blocks
    _assert_block_matches_oracle(l_lo, l_hi)


def test_block_generator_gives_zero_triple_only_at_order_1():
    ls, ks = _block_rows(1, 66)
    zero = np.flatnonzero((ks == 0).all(axis=1))
    assert zero.tolist() == [0] and ls[0] == 1


def test_block_generator_rows_index_the_roots_table():
    # row i's (l, k1) sits at table index p[i], and (l, k) at p[i] - k1 + k
    tl, tk = _order_exponents(37, 90)
    p, k2, k3 = _canonical_triples(tl, tk)
    base = p - tk[p]
    for k in (k2, k3):
        np.testing.assert_array_equal(tl[base + k], tl[p])
        np.testing.assert_array_equal(tk[base + k], k)


def test_order_blocks_cover_every_order_once():
    assert list(_order_blocks(36)) == [(1, 36)]
    for max_l in (1, 120, 900):
        blocks = list(_order_blocks(max_l))
        assert blocks[0][0] == 1 and blocks[-1][1] == max_l
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        assert all(lo <= hi for lo, hi in blocks)
    assert list(_order_blocks(120))[0] == (1, 66)
    # from 223 on no two orders fit in one block
    assert [b for b in _order_blocks(900) if b[0] == b[1]][0] == (223, 223)
    assert list(_order_blocks(900))[-3:] == [(898, 898), (899, 899), (900, 900)]


def test_candidate_value():
    cand = CandidateTrace(l=7, k=(1, 2, 4))
    want = sum(cmath.exp(2j * math.pi * k / 7) for k in (1, 2, 4))
    assert candidate_value(cand) == pytest.approx(want, abs=1e-12)


def test_refutation_rejects_bad_input():
    with pytest.raises(ValueError):
        refute_finite_order(8, 8)
    with pytest.raises(ValueError):
        refute_finite_order(8, INF)
    with pytest.raises(ValueError):
        refute_finite_order(8, 2)
    with pytest.raises(ValueError):
        refute_finite_order(1, 7)
    # -inf is no order, not the infinite corner
    with pytest.raises(ValueError, match="^m must be an integer >= 3 or infinity$"):
        refute_finite_order(-INF, 8, max_l=20)
    with pytest.raises(ValueError, match="^n must be an integer >= 3 or infinity$"):
        refute_finite_order(8, -INF, max_l=20)
    with pytest.raises(ValueError):
        refute_finite_order(8, 11, max_l=5000)
    for max_l in (0, -3):
        with pytest.raises(ValueError):
            refute_finite_order(8, 11, max_l=max_l)
    # a float, NaN included, used to reach range() and raise TypeError
    for max_l in (2.5, math.nan, 60.0):
        with pytest.raises(ValueError, match="max_l must be an integer"):
            refute_finite_order(8, 11, max_l=max_l)


def test_refutation_report_is_a_pure_value():
    assert refute_finite_order(8, 11, max_l=60) == refute_finite_order(8, 11, max_l=60)


def test_refutation_reports_for_both_reference_pairs():
    report = refute_finite_order(8, 11, max_l=60)
    assert report.survivors == ()
    assert len(report.near_misses) == 10
    for miss in report.near_misses:
        assert 1e-8 < miss.circle_gap <= 1e-3
        scan = miss.conjugates
        assert scan is not None
        assert scan.all_strictly_below
        assert scan.max_rightmost < -1
        assert scan.n_conjugates == euler_phi(scan.conductor)
    assert report.overflowed == ()

    clean = refute_finite_order(INF, 7, max_l=60)
    assert clean.survivors == ()
    assert clean.near_misses == ()
    assert clean.candidates_checked == report.candidates_checked


def test_refutation_exact_conjugate_values():
    # the exact cyclotomic corner cosines evaluate to cos(k pi / n)
    report = refute_finite_order(8, 11, max_l=48)
    miss = report.near_misses[0]
    N = miss.conjugates.conductor
    two_s1 = CyclotomicInt.root(N, N // 22) + CyclotomicInt.root(N, -N // 22)
    two_s2 = CyclotomicInt.root(N, N // 16) + CyclotomicInt.root(N, -N // 16)
    for k in (1, 3, 5):
        if math.gcd(k, N) != 1:
            continue
        assert two_s1.evaluate_conjugate(k).real / 2 == pytest.approx(
            math.cos(k * math.pi / 11), abs=1e-12
        )
        assert two_s2.evaluate_conjugate(k).real / 2 == pytest.approx(
            math.cos(k * math.pi / 8), abs=1e-12
        )
    assert two_s1.evaluate().real / 2 == pytest.approx(corner_cos(11), abs=1e-12)


def _assert_reports_agree(new, old):
    assert new.candidates_checked == old.candidates_checked
    assert new.regular_elliptic_candidates == old.regular_elliptic_candidates
    assert [s.candidate for s in new.survivors] == [s.candidate for s in old.survivors]
    for a, b in zip(new.survivors, old.survivors):
        assert a.circle_gap == b.circle_gap
        assert (a.conductor, a.galois_refuted, a.witness_k, a.phi, a.note) == (
            b.conductor, b.galois_refuted, b.witness_k, b.phi, b.note)
        if b.witness_re is None:
            assert a.witness_re is None
        else:
            assert a.witness_re == pytest.approx(b.witness_re, abs=1e-12)
    assert [t.candidate for t in new.near_misses] == [t.candidate for t in old.near_misses]
    for a, b in zip(new.near_misses, old.near_misses):
        assert a.circle_gap == b.circle_gap
        assert (a.phi, a.note) == (b.phi, b.note)
        assert (a.conjugates is None) == (b.conjugates is None)
        if b.conjugates is None:
            continue
        x, y = a.conjugates, b.conjugates
        assert (x.conductor, x.n_conjugates, x.all_strictly_below) == (
            y.conductor, y.n_conjugates, y.all_strictly_below)
        assert x.max_rightmost == pytest.approx(y.max_rightmost, abs=1e-12)
        assert x.worst_k == y.worst_k


@pytest.mark.parametrize(
    "m, n, max_l, tols",
    [
        (8, 11, 60, {}),
        (INF, 7, 60, {}),
        (5, 12, 60, {}),
        (16, 30, 36, {}),
        (INF, 7, 36, {"near_tol": 0.05}),
        # forced survivors exercise the survivor diagnostic
        (8, 11, 48, {"circle_tol": 1e-3, "near_tol": 1e-3}),
    ],
)
def test_refutation_matches_scalar_oracle(monkeypatch, m, n, max_l, tols):
    # the engine reads its tolerances from the module constants
    for name, tol in tols.items():
        monkeypatch.setattr(cyclotomic, f"DEFAULT_{name.upper()}", tol)
    report = refute_finite_order(m, n, max_l=max_l)
    assert (report.circle_tol, report.near_tol) == (
        tols.get("circle_tol", 1e-8), tols.get("near_tol", 1e-3))
    _assert_reports_agree(report, refute_finite_order_oracle(m, n, max_l, **tols))


def test_refutation_matches_scalar_oracle_at_a_tiny_conductor_cap(monkeypatch):
    # a tiny cap sends 8 of the 10 near-misses, and then of the 10 forced
    # survivors, down the overflow path
    monkeypatch.setattr("chtriangle.cyclotomic.DEFAULT_CONDUCTOR_CAP", 1000)
    for tols in ({}, {"circle_tol": 1e-3, "near_tol": 1e-3}):
        for name, tol in tols.items():
            monkeypatch.setattr(cyclotomic, f"DEFAULT_{name.upper()}", tol)
        report = refute_finite_order(8, 11, max_l=60)
        _assert_reports_agree(report, refute_finite_order_oracle(8, 11, 60, conductor_cap=1000, **tols))
        items = report.survivors + report.near_misses
        noted = [x for x in items if x.note == "unchecked (N overflow)"]
        assert 0 < len(noted) < len(items) and report.overflowed == tuple(noted)


def _force_survivors(monkeypatch):
    # at a circle tolerance of 1e-3 the near-misses of (8, 11) survive
    monkeypatch.setattr(cyclotomic, "DEFAULT_CIRCLE_TOL", 1e-3)
    monkeypatch.setattr(cyclotomic, "DEFAULT_NEAR_TOL", 1e-3)


def test_forced_survivors_are_refuted_by_a_conjugate(monkeypatch):
    _force_survivors(monkeypatch)
    report = refute_finite_order(8, 11, max_l=48)
    assert report.survivors and not report.near_misses
    for s in report.survivors:
        assert s.galois_refuted
        assert math.gcd(s.witness_k, s.conductor) == 1
        assert s.witness_re >= -1.0


def test_decision_path_does_not_use_cyclotomic_int(monkeypatch):
    def refuse(self, k):
        raise AssertionError("CyclotomicInt on the decision path")

    monkeypatch.setattr(CyclotomicInt, "evaluate_conjugate", refuse)
    assert refute_finite_order(8, 11, max_l=60).near_misses
    _force_survivors(monkeypatch)
    assert refute_finite_order(8, 11, max_l=48).survivors


@pytest.mark.parametrize(
    "l, m, n",
    [
        (1, 8, 11), (48, 8, 11), (30, INF, 7), (1, INF, 3), (24, 5, 12), (10, 16, 30),
        (7, 3, 4),
        # the smallest maximising residue shares a factor with l
        (7, 3, 5), (5, 3, 7),
    ],
)
def test_worst_k_is_the_smallest_maximising_unit(l, m, n):
    values = conjugate_rightmost_oracle(l, m, n)
    worst = max(values.values())
    scan = _scan(l, m, n)
    assert scan.n_conjugates == len(values) == euler_phi(scan.conductor)
    assert scan.max_rightmost == pytest.approx(worst, abs=1e-12)
    assert scan.worst_k == min(k for k, v in values.items() if v >= worst - 1e-12)


def test_exact_strictly_below_agrees_with_float_margin():
    # for m != n no unit r mod M has |cos(r pi/n)| = |cos(r pi/m)|, or
    # |cos(r pi/n)| = 1 at m = inf: every conjugated circle lies strictly
    # left of -1, decided on integers and by the float margin alike.  The
    # residue scan, with its sieved units, its cosine tables and its one
    # integer test on (m, n), equals the former per-unit one exactly
    checked = 0
    for m in [*range(3, 61), INF]:
        for n in range(3, 61):
            if m == n:
                continue
            residues = _corner_residues(m, n)
            assert residues == corner_residues_oracle(m, n), (m, n)
            assert residues[4] is True and residues[2] < -1.0, (m, n)
            scan = _scan(1, m, n)
            assert scan.all_strictly_below is True and scan.max_rightmost < -1.0, (m, n)
            checked += 1
    assert checked == 58 * 58


def test_units_equal_the_gcd_oracle():
    assert cyclotomic._units(1).tolist() == [1]
    for N in range(1, 5001):
        got, want = cyclotomic._units(N), units_oracle(N)
        assert got.dtype == want.dtype and np.array_equal(got, want), N


@pytest.mark.parametrize("rows", [cyclotomic._BLOCK_ROWS, 1, 1 << 16])
def test_order_blocks_equal_the_former_loop(monkeypatch, rows):
    monkeypatch.setattr(cyclotomic, "_BLOCK_ROWS", rows)
    for max_l in [*range(1, 400), *range(400, 2001, 37), 2000]:
        assert list(_order_blocks(max_l)) == order_blocks_oracle(max_l, rows), max_l


def test_refutation_at_max_l_200():
    for m, n in ((8, 11), (INF, 7)):
        report = refute_finite_order(m, n, max_l=200)
        assert report.survivors == ()
        assert report.overflowed == ()
        for miss in report.near_misses:
            assert miss.conjugates.all_strictly_below
            assert miss.conjugates.max_rightmost < -1.0


# the refute workload's (m, n) pairs, and orders on both sides of the
# shared first block's last order, 66
REFUTE_PAIRS = [(m, n) for m in [*range(3, 17), INF] for n in range(3, 31) if m != n]
SHARED_LS = (1, 2, 16, 36, 65, 66, 67, 120)


def _per_call_block(l_lo, l_hi):
    """A block built afresh, with no shared arrays: its enumeration, then
    each row's trace summed from exp(2 pi i k / l) of its own exponents,
    with no roots table, the counts per order from histograms, and every
    elliptic row as a circle row, with its trace: no row is left out for
    lying right of the circles."""
    tl, tk = _order_exponents(l_lo, l_hi)
    p, k2, k3 = _canonical_triples(tl, tk)
    l, k1 = tl[p], tk[p]
    step = 2.0 * math.pi / l
    tau = np.exp(1j * step * k1) + np.exp(1j * step * k2) + np.exp(1j * step * k3)
    elliptic = np.flatnonzero(discriminant(tau) < -EPS_DISCRIMINANT)
    rows = np.stack((l, k1, k2, k3), axis=1)[elliptic]

    def upto(orders):
        return np.cumsum(np.bincount(orders - l_lo, minlength=l_hi - l_lo + 1))

    counts = np.stack((upto(l), upto(rows[:, 0]), upto(rows[:, 0])), axis=1)
    return counts, rows, tau[elliptic]


def _bound():
    """The engine's circle bound at the current DEFAULT_NEAR_TOL."""
    return -1.0 + cyclotomic.DEFAULT_NEAR_TOL + 1e-9


def _shared():
    """The shared block at the current DEFAULT_NEAR_TOL."""
    return _shared_block(_bound())


def _left_of(block, bound=None):
    """A block of _per_call_block with its circle rows cut to those with
    Re tau <= bound (by default _bound()), as the engine keeps them, and
    its circle counts recounted."""
    counts, rows, tau = block
    keep = tau.real <= (_bound() if bound is None else bound)
    counts = counts.copy()
    # the elliptic rows of orders up to l are the first counts[., 1] of them
    counts[:, 2] = np.concatenate(([0], np.cumsum(keep)))[counts[:, 1]]
    return counts, rows[keep], tau[keep]


@pytest.fixture(scope="module")
def per_call_reports():
    """Reports with every block built per call, at the default block size:
    every refute pair at SHARED_LS, and two pairs at 200."""
    cases = [(m, n, L) for L in SHARED_LS for m, n in REFUTE_PAIRS]
    cases += [(8, 11, 200), (INF, 7, 200)]
    with pytest.MonkeyPatch.context() as patch:
        # a block depends on neither (m, n) nor max_l: each is built once
        # for all cases, still afresh and apart from the shared block
        patch.setattr(cyclotomic, "_block", functools.cache(_per_call_block))
        return {case: refute_finite_order(*case) for case in cases}


def test_shared_block_reports_equal_per_call_builds(per_call_reports):
    for case, want in per_call_reports.items():
        assert refute_finite_order(*case) == want, case


def test_refutation_phi_checks_equal_phi_inequality(per_call_reports):
    # the engine factors l once per near-miss order and builds each
    # PhiCheck with the helper phi_inequality calls; every refute pair at
    # 120 reads the fixture, whose reports equal the shared block's (above)
    reports = [refute_finite_order(8, 11, max_l=600)]
    reports += [report for (m, n, L), report in per_call_reports.items() if L == 120]
    assert len(reports) == 1 + len(REFUTE_PAIRS)
    checked = 0
    for report in reports:
        assert not report.survivors
        for nm in report.near_misses:
            assert nm.phi == phi_inequality(nm.candidate.l, *nm.candidate.k), nm.candidate
            checked += 1
    assert checked > len(reports[0].near_misses) > 0


def test_worst_k_equals_the_numpy_lift_on_every_refute_pair():
    # the ascending gcd search over the lifts t + jM of the maximising
    # residues t against the former array of every lift.  At (3, 5) and
    # l = 7 the smallest residue, 7, shares a factor with l; at (3, 9) and
    # l = 77 every residue does, and the answer is a second lift
    assert _corner_residues(3, 5)[3][0] == 7 and _scan(7, 3, 5).worst_k == 13
    assert _corner_residues(3, 9)[3] == [7, 11] and _scan(77, 3, 9).worst_k == 25
    assert worst_k_oracle(7, _corner_residues(3, 5)) == 13
    assert worst_k_oracle(77, _corner_residues(3, 9)) == 25
    checked = 0
    for m, n in REFUTE_PAIRS:
        residues = _corner_residues(m, n)
        for l in range(1, 121):
            scan = _lift_scan(l, residues, _prime_factors(l))
            assert scan.worst_k == worst_k_oracle(l, residues), (m, n, l)
            checked += 1
    assert checked == 120 * len(REFUTE_PAIRS)


@pytest.mark.parametrize("rows", [cyclotomic._BLOCK_ROWS, 1, 1 << 16])
def test_block_enumeration_equals_a_per_call_build(monkeypatch, rows):
    monkeypatch.setattr(cyclotomic, "_BLOCK_ROWS", rows)
    if rows == 1 << 16:
        # this first block runs past the shared block's orders
        assert next(_order_blocks(120)) == (1, 105)
    shared = _shared()
    # every prefix of the shared block, and one order past it
    for L in sorted({*range(1, _SHARED_ORDERS + 2), *SHARED_LS}):
        for block in _order_blocks(L):
            got = _block(*block)
            for a, b in zip(got, _left_of(_per_call_block(*block)), strict=True):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b, err_msg=str(block))
            # a first block within the shared orders reads a prefix of it,
            # any other block is built per call; the first orders have no
            # circle row
            reads_shared = block[0] == 1 and block[1] <= _SHARED_ORDERS
            assert all(np.may_share_memory(a, b) == reads_shared
                       for a, b in zip(got, shared) if a.size), block


@pytest.mark.parametrize("rows", [1, 1 << 16])
def test_shared_block_extent_ignores_the_block_size_at_first_build(monkeypatch, rows):
    _shared_block.cache_clear()
    monkeypatch.setattr(cyclotomic, "_BLOCK_ROWS", rows)
    refute_finite_order(8, 11, max_l=20)
    assert _shared_block.cache_info().misses == 1
    monkeypatch.undo()
    assert _SHARED_ORDERS == 66 and next(_order_blocks(120)) == (1, _SHARED_ORDERS)
    for a, b in zip(_shared(), _left_of(_per_call_block(1, _SHARED_ORDERS)), strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_circle_rows_are_the_elliptic_rows_a_circle_can_reach():
    # every trace circle ends at c + R <= -1 on the right: of the shared
    # block's 14,181 rows, 12,853 are elliptic, and 3218 of those lie left
    # of -1 + DEFAULT_NEAR_TOL
    counts, rows, tau = _shared()
    assert counts.shape == (_SHARED_ORDERS, 3) and rows.shape == (3218, 4)
    assert [counts[L - 1].tolist() for L in (16, 36, 66)] == [
        [245, 165, 42], [2423, 2027, 508], [14181, 12853, 3218]]
    assert tau.real.max() <= cyclotomic.DEFAULT_NEAR_TOL - 1.0 + 1e-9
    assert (discriminant(tau) < -EPS_DISCRIMINANT).all()
    for m, n in REFUTE_PAIRS:
        c, radius = _trace_123_circle(m, n)
        assert c + radius <= -1.0, (m, n)


def test_a_raised_near_tolerance_widens_the_circle_rows(monkeypatch):
    # the shared block is kept per circle bound: a changed tolerance gets
    # its own, cut at its own bound, wider for a larger tolerance and
    # narrower for a smaller one
    default = _shared()
    f = default[0][35, 2]
    for tol in (0.05, 1e-4):
        monkeypatch.setattr(cyclotomic, "DEFAULT_NEAR_TOL", tol)
        got = _block(1, 36)
        assert not any(np.may_share_memory(a, b) for a, b in zip(got, default))
        assert all(np.may_share_memory(a, b) for a, b in zip(got, _shared()))
        for a, b in zip(got, _left_of(_per_call_block(1, 36)), strict=True):
            np.testing.assert_array_equal(a, b)
        assert (got[1].shape[0] > f) == (tol > 1e-3)


def test_shared_block_is_read_only():
    for a in (*_shared(), *_block(1, 10)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_a_built_shared_block_leaves_no_discriminant_to_evaluate(monkeypatch):
    want = refute_finite_order(8, 11, max_l=36)

    def refuse(z):
        raise AssertionError("discriminant evaluated per call")

    monkeypatch.setattr(cyclotomic, "discriminant", refuse)
    assert refute_finite_order(8, 11, max_l=36) == want


def test_report_does_not_depend_on_block_size(monkeypatch, per_call_reports):
    # a budget of one row makes every order a block of its own; one of 2^16
    # rows makes the first block of max_l >= 67 longer than the shared table
    cases = [(m, n, L) for m, n, L in per_call_reports
             if L <= 36 or (m, n) in ((8, 11), (5, 7), (INF, 9), (INF, 7))]
    for rows in (1, 1 << 16):
        monkeypatch.setattr(cyclotomic, "_BLOCK_ROWS", rows)
        if rows == 1:
            assert list(_order_blocks(5)) == [(l, l) for l in range(1, 6)]
        for case in cases:
            assert refute_finite_order(*case) == per_call_reports[case], (rows, case)


def test_corner_residues_run_once_per_call(monkeypatch):
    # (inf, 24) has near-misses at five orders up to 36
    calls = []
    residues = cyclotomic._corner_residues

    def counted(m, n):
        calls.append((m, n))
        return residues(m, n)

    monkeypatch.setattr(cyclotomic, "_corner_residues", counted)
    report = refute_finite_order(INF, 24, max_l=36)
    assert sorted({t.candidate.l for t in report.near_misses}) == [21, 30, 31, 32, 33]
    assert calls == [(INF, 24)]
    assert refute_finite_order(INF, 24, max_l=20).near_misses == ()
    assert calls == [(INF, 24)]


@pytest.mark.parametrize("m, n, max_l", [(8, 11, 60), (INF, 24, 36), (9, 18, 36), (INF, 11, 36)])
def test_near_miss_scans_equal_the_oracle(m, n, max_l):
    report = refute_finite_order(m, n, max_l=max_l)
    assert report.near_misses
    for miss in report.near_misses:
        l = miss.candidate.l
        want = conjugate_scan_oracle(l, m, n, cyclotomic.DEFAULT_CONDUCTOR_CAP)
        assert miss.conjugates == want, (m, n, l)
        assert _scan(l, m, n) == want, (m, n, l)
        assert want.n_conjugates == euler_phi(want.conductor), (m, n, l)


def test_near_miss_scans_equal_the_oracle_on_conductor_overflow(monkeypatch):
    # at a cap of 2000 the near-misses of (8, 11) below l = 60 split into
    # checked and overflowed ones
    monkeypatch.setattr(cyclotomic, "DEFAULT_CONDUCTOR_CAP", 2000)
    report = refute_finite_order(8, 11, max_l=60)
    scans = [miss.conjugates for miss in report.near_misses]
    assert None in scans and any(scan is not None for scan in scans)
    for miss in report.near_misses:
        l = miss.candidate.l
        assert miss.conjugates == conjugate_scan_oracle(l, 8, 11, 2000), l
        if miss.conjugates:
            assert miss.conjugates.n_conjugates == euler_phi(miss.conjugates.conductor), l
        assert miss.note == ("" if miss.conjugates else "unchecked (N overflow)")


def test_corner_modulus_over_the_cap_builds_no_residues(monkeypatch):
    # M = lcm(2m, 2n) is about 2e10: every conductor overflows, and no
    # array over the units mod M may be built
    m, n = 100000, 100001
    assert cyclotomic._corner_modulus(m, n) > cyclotomic.DEFAULT_CONDUCTOR_CAP
    sizes = []
    units = cyclotomic._units

    def recorded(N):
        sizes.append(N)
        return units(N)

    monkeypatch.setattr(cyclotomic, "_units", recorded)
    report = refute_finite_order(m, n, max_l=60)
    assert report.near_misses
    for miss in report.near_misses:
        assert miss.conjugates is None
        assert miss.note == "unchecked (N overflow)"
    assert report.overflowed == report.survivors + report.near_misses
    assert _scan(23, m, n) is None
    assert all(N <= cyclotomic.DEFAULT_CONDUCTOR_CAP for N in sizes)


def test_report_stores_python_integers():
    report = refute_finite_order(np.int64(8), np.int64(11), max_l=np.int64(20))
    assert report == refute_finite_order(8, 11, max_l=20)
    for value in (report.m, report.n, report.max_l):
        assert type(value) is int
