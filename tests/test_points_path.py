"""The per-point path (group builds, words, classify, Heisenberg actions)
against the reference implementations in helpers.py: matrices must be
byte-equal, verdicts and refusals equal."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtriangle import heisenberg
from chtriangle.classify import classify, discriminant
from chtriangle.heisenberg import (
    ORIGIN,
    boundary_action,
    fixes_infinity,
    heisenberg_translation,
    isometric_sphere,
    shimizu_violation,
    translation_length,
    translation_of,
)
from chtriangle.linalg import INFINITY, form_inverse
from chtriangle.triangles import build_mn_inf, build_n_inf_inf
from helpers import (
    boundary_action_oracle,
    classify_oracle,
    discriminant_oracle,
    fixes_infinity_oracle,
    involution_from_polar_oracle,
    isometric_sphere_oracle,
    make_rng,
    random_form_unitary,
    shimizu_violation_oracle,
    translation_of_oracle,
    word_oracle,
)

SAMPLE = 300
MAX_XI = 6.0


def sample_points(seed: int, count: int = SAMPLE):
    """Seeded configurations of both families: (group, words, conjugator),
    words of length 1 to 8, a quarter with a Heisenberg translation of
    |xi| <= 6 and |v| <= 36 as conjugator."""
    rng = random.Random(f"points-path-{seed}")
    out = []
    while len(out) < count:
        n = rng.randint(3, 30)
        theta = rng.uniform(0.0, math.pi)
        if rng.random() < 0.5:
            m = rng.randint(3, 16)
            try:
                group = build_mn_inf(m, n, theta)
            except ValueError:
                continue
        else:
            group = build_n_inf_inf(n, theta)
        words = ["".join(rng.choice("123") for _ in range(rng.randint(1, 8)))
                 for _ in range(rng.randint(1, 3))]
        conj = None
        if rng.random() < 0.25:
            xi = cmath.rect(MAX_XI * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
            conj = heisenberg_translation(xi, rng.uniform(-MAX_XI**2, MAX_XI**2))
        out.append((group, words, conj))
    return out


def outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("refused", str(exc))


def conjugated(C, M):
    return C @ M @ form_inverse(C)


def test_built_involutions_and_words_are_byte_equal_to_oracle():
    for group, words, _ in sample_points(1):
        oracle = [involution_from_polar_oracle(p) for p in group.polars]
        for built, want in zip(group.involutions, oracle):
            assert built.tobytes() == want.tobytes()
        for w in words + ["1", "2", "3", "23", "123", "3132"]:
            assert group.word(w).tobytes() == word_oracle(oracle, w).tobytes(), w


def test_classify_matches_oracle_with_equal_refusals():
    refused = 0
    for group, words, conj in sample_points(2):
        mats = [group.word(w) for w in words]
        if conj is not None:
            mats.append(conjugated(conj, mats[0]))
        for M in mats:
            got = outcome(classify, M)
            assert got == outcome(classify_oracle, M)
            refused += isinstance(got, tuple)
    # the sample reaches the refusals of large conjugations
    assert refused > 0
    rng = make_rng(5)
    for _ in range(100):
        M = random_form_unitary(rng)
        assert classify(M) == classify_oracle(M)
    for M in (np.eye(3), np.exp(2j * math.pi / 3) * np.eye(3), np.diag([2.0, 1.0, 1.0])):
        assert outcome(classify, M) == outcome(classify_oracle, M)


def test_shimizu_and_isometric_sphere_match_oracle():
    rng = make_rng(7)
    for group, _, conj in sample_points(3):
        g = group.word("23")
        # h^-1 = h for the side "1" only; "12" and "123" tell them apart
        pairs = [(g, group.word(w)) for w in ("1", "12", "123")]
        pairs.append((g, random_form_unitary(rng)))
        if conj is not None:
            pairs += [(conjugated(conj, g), conjugated(conj, h)) for _, h in pairs]
        for g, h in pairs:
            assert outcome(shimizu_violation, g, h) == outcome(shimizu_violation_oracle, g, h)
            assert outcome(isometric_sphere, h) == outcome(isometric_sphere_oracle, h)
            assert outcome(translation_of, g) == outcome(translation_of_oracle, g)
            assert fixes_infinity(g) == fixes_infinity_oracle(g)
            for point in (INFINITY, ORIGIN):
                assert outcome(boundary_action, h, point) == outcome(boundary_action_oracle, h, point)


def count_checks(monkeypatch):
    calls = []
    check = heisenberg.is_unitary_for_form

    def counting(M, *args, **kwargs):
        calls.append(M)
        return check(M, *args, **kwargs)

    monkeypatch.setattr(heisenberg, "is_unitary_for_form", counting)
    return calls


def test_each_matrix_is_checked_once_per_public_call(monkeypatch):
    group = build_n_inf_inf(7, 0.4)
    g, h = group.word("23"), group.word("1")
    calls = count_checks(monkeypatch)
    for fn, args, checks in (
        (shimizu_violation, (g, h), 3),
        (isometric_sphere, (h,), 2),
        (translation_of, (g,), 1),
        (translation_length, (g, ORIGIN), 1),
        (boundary_action, (h, ORIGIN), 1),
        (fixes_infinity, (g,), 1),
    ):
        calls.clear()
        fn(*args)
        assert len(calls) == checks, fn.__name__


def test_refusals_keep_their_messages():
    group = build_n_inf_inf(7, 0.4)
    g, h = group.word("23"), group.word("1")
    bad = np.diag([2.0, 1.0, 1.0])
    for fn, oracle, args in (
        (boundary_action, boundary_action_oracle, (bad, ORIGIN)),
        (translation_of, translation_of_oracle, (bad,)),
        (translation_of, translation_of_oracle, (h,)),
        (isometric_sphere, isometric_sphere_oracle, (bad,)),
        (isometric_sphere, isometric_sphere_oracle, (g,)),
        (shimizu_violation, shimizu_violation_oracle, (bad, h)),
        (shimizu_violation, shimizu_violation_oracle, (g, bad)),
        (shimizu_violation, shimizu_violation_oracle, (h, h)),
        (shimizu_violation, shimizu_violation_oracle, (g, g)),
    ):
        got = outcome(fn, *args)
        assert isinstance(got, tuple)
        assert got == outcome(oracle, *args)
    for fn in (fixes_infinity, lambda M: translation_length(M, ORIGIN)):
        with pytest.raises(ValueError, match="boundary_action needs a matrix preserving the form"):
            fn(bad)


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.complex_numbers(max_magnitude=1e3),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**6, max_value=10**6),
))
def test_scalar_discriminant_is_bit_equal_to_array_path(z):
    # the 0-d array path; a 1-d array rounds |z|**4 differently again.
    # inf, NaN and huge z overflow or turn invalid on the numpy side
    with np.errstate(over="ignore", invalid="ignore"):
        got = discriminant(z)
        assert type(got) is float
        assert same_bits(got, discriminant_oracle(z))
        assert same_bits(discriminant(np.complex128(z)), got)


def test_shared_involutions_are_read_only():
    a, b = build_mn_inf(5, 7, 0.3), build_n_inf_inf(9, 1.1)
    c = build_n_inf_inf(4, 2.0)
    assert a.involutions[0] is b.involutions[0] is c.involutions[0]
    assert b.involutions[1] is c.involutions[1]
    for M in (a.involutions[0], b.involutions[1]):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 5.0
    # the parameter-dependent sides are built per group
    assert a.involutions[1].flags.writeable and a.involutions[2].flags.writeable


def test_word_returns_a_fresh_writable_array():
    group = build_n_inf_inf(9, 1.1)
    before = [M.copy() for M in group.involutions]
    for w in ("1", "2", "3", "12", "3132"):
        out = group.word(w)
        assert out.flags.writeable
        out[...] = 7.0
    for M, want in zip(group.involutions, before):
        assert M.tobytes() == want.tobytes()
    assert group.word("1").tobytes() == word_oracle(before, "1").tobytes()
