import cmath
import math

import numpy as np
import pytest

from chtriangle import cyclotomic
from chtriangle.cyclotomic import (
    CandidateTrace,
    CyclotomicInt,
    _canonical_triples,
    _corner_residues,
    _lift_scan,
    _order_blocks,
    _order_exponents,
    enumerate_candidates,
    euler_phi,
    phi_inequality,
    refute_finite_order,
    trace_circle_rightmost,
)
from chtriangle.closed import _trace_123_circle, corner_cos, trace_word_123
from helpers import (
    candidate_value,
    canonical_candidate,
    canonical_triples_oracle,
    conjugate_rightmost_oracle,
    conjugate_scan_oracle,
    enumerate_candidates_oracle,
    make_rng,
    refute_finite_order_oracle,
)

INF = math.inf


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


def test_totient_and_candidate_accept_numpy_integers():
    assert euler_phi(np.int64(12)) == 4
    assert phi_inequality(np.int32(12), np.int64(4), 4, 4) == phi_inequality(12, 4, 4, 4)


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


def test_refutation_phi_checks_equal_phi_inequality():
    # the engine builds each near-miss PhiCheck through the unchecked
    # helper behind phi_inequality, with no totient cache of its own
    report = refute_finite_order(8, 11, max_l=120)
    assert report.near_misses and not report.survivors
    for nm in report.near_misses:
        assert nm.phi == phi_inequality(nm.candidate.l, *nm.candidate.k)


def test_cyclotomic_construction_and_repr():
    x = CyclotomicInt.root(5, 7)  # exponent reduced mod 5
    assert x.coeffs[2] == 1
    assert "w^2" in repr(x)
    with pytest.raises(ValueError):
        CyclotomicInt(0)
    with pytest.raises(ValueError):
        CyclotomicInt(4, [1, 2, 3])


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
    want = _lift_scan(1, _corner_residues(8, 11))

    def refuse(s1, s2):
        raise AssertionError("checked rightmost point called")

    monkeypatch.setattr(cyclotomic, "trace_circle_rightmost", refuse)
    assert _lift_scan(1, _corner_residues(8, 11)) == want


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
    scan = _lift_scan(l, _corner_residues(m, n))
    assert scan.n_conjugates == len(values)
    assert scan.max_rightmost == pytest.approx(worst, abs=1e-12)
    assert scan.worst_k == min(k for k, v in values.items() if v >= worst - 1e-12)


def test_exact_strictly_below_agrees_with_float_margin():
    # for m != n no unit r mod M has |cos(r pi/n)| = |cos(r pi/m)|, or
    # |cos(r pi/n)| = 1 at m = inf: every conjugated circle lies strictly
    # left of -1, decided on integers and by the float margin alike
    for m in [*range(3, 41), INF]:
        for n in range(3, 41):
            if m == n:
                continue
            scan = _lift_scan(1, _corner_residues(m, n))
            assert scan.all_strictly_below is True and scan.max_rightmost < -1.0, (m, n)


def test_refutation_at_max_l_200():
    for m, n in ((8, 11), (INF, 7)):
        report = refute_finite_order(m, n, max_l=200)
        assert report.survivors == ()
        assert report.overflowed == ()
        for miss in report.near_misses:
            assert miss.conjugates.all_strictly_below
            assert miss.conjugates.max_rightmost < -1.0


def test_report_does_not_depend_on_block_size(monkeypatch):
    pairs = [(m, n, 36) for m in [*range(3, 17), INF] for n in range(3, 31) if m != n]
    pairs += [(8, 11, 200), (INF, 7, 200)]
    default = [refute_finite_order(m, n, max_l=L) for m, n, L in pairs]
    # a budget of one row makes every order a block of its own
    monkeypatch.setattr("chtriangle.cyclotomic._BLOCK_ROWS", 1)
    assert list(_order_blocks(5)) == [(l, l) for l in range(1, 6)]
    for (m, n, L), want in zip(pairs, default):
        assert refute_finite_order(m, n, max_l=L) == want, (m, n, L)


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
        assert _lift_scan(l, _corner_residues(m, n)) == want, (m, n, l)


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
    assert _lift_scan(23, _corner_residues(m, n)) is None
    assert all(N <= cyclotomic.DEFAULT_CONDUCTOR_CAP for N in sizes)


def test_report_stores_python_integers():
    report = refute_finite_order(np.int64(8), np.int64(11), max_l=np.int64(20))
    assert report == refute_finite_order(8, 11, max_l=20)
    for value in (report.m, report.n, report.max_l):
        assert type(value) is int
