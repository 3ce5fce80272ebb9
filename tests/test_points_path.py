"""The per-point path (group builds, words, classify, Heisenberg actions)
against the reference implementations in helpers.py: matrices must be
byte-equal, verdicts and refusals equal."""

import cmath
import functools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtriangle import heisenberg
from chtriangle.classify import (
    EPS_DISCRIMINANT,
    IsometryClass,
    _spectral_norm,
    classify,
    discriminant,
)
from chtriangle.heisenberg import (
    ORIGIN,
    boundary_action,
    heisenberg_translation,
    isometric_sphere,
    shimizu_violation,
    translation_of,
)
from chtriangle.linalg import (
    INFINITY,
    Q_INFINITY_LIFT,
    _form_defect,
    form_inverse,
    is_unitary_for_form,
    normalize_to_su,
)
from chtriangle.triangles import build_mn_inf
from helpers import (
    boundary_action_oracle,
    classify_oracle,
    discriminant_bound,
    discriminant_oracle,
    fixes_infinity_oracle,
    form_defect_oracle,
    form_inverse_oracle,
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
            group = build_mn_inf(n, math.inf, theta)
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
            if not isinstance(got, tuple):
                # the oracle reads the library's f; the former formula
                # agrees within the stated bound
                want = discriminant_oracle(got.trace)
                assert abs(got.discriminant - want) <= discriminant_bound(got.trace)
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
            assert (boundary_action(g, INFINITY) is INFINITY) == fixes_infinity_oracle(g)
            for point in (INFINITY, ORIGIN):
                assert outcome(boundary_action, h, point) == outcome(boundary_action_oracle, h, point)


@functools.cache
def value_sample():
    """Over 20k matrices: random_form_unitary, the words of sample_points
    (seeds 1 to 4, with the fixed words below) and each word conjugated
    by a Heisenberg translation with |xi| <= 6 and |v| <= 36, the one of
    its configuration or a seeded one.  Conjugates need not preserve the
    form to UNITARITY_TOL."""
    rng = make_rng(17)
    mats = [random_form_unitary(rng) for _ in range(6000)]
    draw = random.Random("value-sample")
    for seed in range(1, 5):
        for group, words, conj in sample_points(seed):
            if conj is None:
                xi = cmath.rect(MAX_XI * math.sqrt(draw.random()), draw.uniform(0.0, 2.0 * math.pi))
                conj = heisenberg_translation(xi, draw.uniform(-MAX_XI**2, MAX_XI**2))
            for w in words + ["1", "2", "3", "23", "123", "3132"]:
                M = group.word(w)
                mats += [M, conjugated(conj, M)]
    return tuple(mats)


def test_form_products_are_value_equal_to_matrix_products():
    # the form defect, J M* J and the image of the lift of infinity are
    # scalings and column differences, not matrix products.  Their values
    # are those of the products; the sign of an exact zero may differ, so
    # the arrays are compared with np.array_equal, not tobytes
    mats = value_sample()
    assert len(mats) >= 20_000
    for M in mats:
        assert _form_defect(M) == form_defect_oracle(M)
        assert np.array_equal(form_inverse(M), form_inverse_oracle(M))
        assert np.array_equal(heisenberg._image_of_lift(M, INFINITY), M @ Q_INFINITY_LIFT)


def test_closed_form_spectral_norm_and_classify_tags():
    checked = 0
    for M in value_sample():
        got = outcome(classify, M)
        assert got == outcome(classify_oracle, M)
        if isinstance(got, tuple):
            continue
        N = normalize_to_su(M)
        want = np.linalg.norm(N, 2)
        assert abs(_spectral_norm(N) - want) <= 1e-7 * want
        checked += 1
    assert checked >= 20_000


def test_closed_form_spectral_norm_near_one():
    # at a spectral norm of 1 the closed form moves by the square root of
    # the form defect, so it can miss an SVD by more than 1e-7 relative.
    # Perturbed diagonal unitaries show it: within sqrt(defect + 4 eps)
    # (0.81 of that at most here), and over 1e-7 for the larger defects
    rng = make_rng(3)
    worst = 0.0
    for _ in range(200):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        D = np.diag(np.exp(1j * np.array([a, b, -a - b])))
        eta = 10.0 ** rng.uniform(-16.0, -11.0)
        M = D + eta * (rng.randn(3, 3) + 1j * rng.randn(3, 3))
        want = np.linalg.norm(M, 2)
        err = abs(_spectral_norm(M) - want)
        assert err <= math.sqrt(form_defect_oracle(M) + 4.0 * sys.float_info.epsilon)
        worst = max(worst, err / want)
    assert worst > 1e-7


def count_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_classify_takes_at_most_one_svd_on_the_band(monkeypatch):
    mats = [M for M in value_sample()[::7] if is_unitary_for_form(M)]
    calls = count_svd_calls(monkeypatch)
    seen = {False: 0, True: 0}
    for M in mats:
        calls.clear()
        c = classify(M)
        band = abs(c.discriminant) <= EPS_DISCRIMINANT
        assert len(calls) <= (1 if band else 0), c
        seen[band] += 1
    # word "1" is boundary elliptic: its rank is an SVD's
    calls.clear()
    assert classify(build_mn_inf(7, math.inf, 0.4).word("1")).tag is IsometryClass.BOUNDARY_ELLIPTIC
    assert len(calls) == 1
    assert seen[False] > 0 and seen[True] > 0


def test_shimizu_violation_maps_infinity_through_h_once(monkeypatch):
    # and lifts by psi only the two points it maps through g: the origin
    # and the probes of translation_of keep their lifts, taken at import
    group = build_mn_inf(7, math.inf, 0.4)
    g = group.word("23")
    act, psi = heisenberg._act, heisenberg.psi
    lifted = []
    monkeypatch.setattr(heisenberg, "psi", lambda point: lifted.append(point) or psi(point))
    for w in ("1", "12", "123"):
        h = group.word(w)
        calls = []
        lifted.clear()

        def counting(M, point, *lift):
            calls.append(M is h and point is INFINITY)
            return act(M, point, *lift)

        monkeypatch.setattr(heisenberg, "_act", counting)
        assert shimizu_violation(g, h) == shimizu_violation_oracle(g, h)
        assert sum(calls) == 1, w
        assert len(lifted) == 2, w
    lifts = [heisenberg._ORIGIN_LIFT, *(lift for _, lift in heisenberg._PROBES)]
    assert not any(lift.flags.writeable for lift in lifts)


def count_checks(monkeypatch):
    calls = []
    check = heisenberg.is_unitary_for_form

    def counting(M, *args, **kwargs):
        calls.append(M)
        return check(M, *args, **kwargs)

    monkeypatch.setattr(heisenberg, "is_unitary_for_form", counting)
    return calls


def test_each_matrix_is_checked_once_per_public_call(monkeypatch):
    group = build_mn_inf(7, math.inf, 0.4)
    g, h = group.word("23"), group.word("1")
    calls = count_checks(monkeypatch)
    for fn, args, checks in (
        (shimizu_violation, (g, h), 3),
        (isometric_sphere, (h,), 2),
        (translation_of, (g,), 1),
        (boundary_action, (h, ORIGIN), 1),
    ):
        calls.clear()
        fn(*args)
        assert len(calls) == checks, fn.__name__


def test_refusals_keep_their_messages():
    group = build_mn_inf(7, math.inf, 0.4)
    g, h = group.word("23"), group.word("1")
    bad = np.diag([2.0, 1.0, 1.0])
    moves = "not a Heisenberg translation: infinity moves"
    fixes = "isometric sphere undefined: the map fixes infinity"

    def form(name):
        # a form refusal names the public function that was called
        return f"{name} needs a matrix preserving the form"

    # h passes the form check and h^-1 = J h* J does not: isometric_sphere checks both
    inverse_refused = [
        M for M in value_sample()
        if is_unitary_for_form(M) and not is_unitary_for_form(form_inverse(M))
    ]
    assert inverse_refused
    for fn, oracle, args, text in (
        (boundary_action, boundary_action_oracle, (bad, ORIGIN), form("boundary_action")),
        (boundary_action, boundary_action_oracle, (bad, INFINITY), form("boundary_action")),
        (translation_of, translation_of_oracle, (bad,), form("translation_of")),
        (translation_of, translation_of_oracle, (h,), moves),
        (isometric_sphere, isometric_sphere_oracle, (bad,), form("isometric_sphere")),
        (isometric_sphere, isometric_sphere_oracle, (g,), fixes),
        (shimizu_violation, shimizu_violation_oracle, (bad, h), form("shimizu_violation")),
        (shimizu_violation, shimizu_violation_oracle, (g, bad), form("isometric_sphere")),
        (shimizu_violation, shimizu_violation_oracle, (h, h), moves),
        (shimizu_violation, shimizu_violation_oracle, (g, g), fixes),
        *((isometric_sphere, isometric_sphere_oracle, (M,), form("isometric_sphere"))
          for M in inverse_refused),
    ):
        assert outcome(fn, *args) == outcome(oracle, *args) == ("refused", text)


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
    # one body: a Python scalar, an np.complex128, a 0-d array and an
    # element of a 1-d array give the same bits.  inf, NaN and huge z
    # overflow or turn invalid on the numpy side
    with np.errstate(over="ignore", invalid="ignore"):
        got = discriminant(z)
        assert type(got) is float
        for other in (np.complex128(z), np.array(z)):
            value = discriminant(other)
            assert type(value) is float
            assert same_bits(value, got)
        batch = discriminant(np.array([z, 0.5 * z, 2j]))
        assert batch.shape == (3,)
        assert same_bits(batch[0], got)
        assert same_bits(batch[1], discriminant(0.5 * z))
        assert same_bits(batch[2], discriminant(2j))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.complex_numbers(max_magnitude=10.0),
    st.complex_numbers(max_magnitude=1e60),
    st.floats(min_value=-1e60, max_value=1e60),
))
def test_discriminant_agrees_with_the_former_formula(z):
    # the former np.abs and z**3 formula, within a few ulps of the
    # moduli of f's terms
    got = discriminant(z)
    assert abs(got - discriminant_oracle(z)) <= discriminant_bound(z), z


def test_shared_involutions_are_read_only():
    a, b = build_mn_inf(5, 7, 0.3), build_mn_inf(9, math.inf, 1.1)
    c = build_mn_inf(4, math.inf, 2.0)
    assert a.involutions[0] is b.involutions[0] is c.involutions[0]
    assert b.involutions[1] is c.involutions[1]
    for M in (a.involutions[0], b.involutions[1]):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 5.0
    # the parameter-dependent sides are built per group
    assert a.involutions[1].flags.writeable and a.involutions[2].flags.writeable


def test_word_returns_a_fresh_writable_array():
    group = build_mn_inf(9, math.inf, 1.1)
    before = [M.copy() for M in group.involutions]
    for w in ("1", "2", "3", "12", "3132"):
        out = group.word(w)
        assert out.flags.writeable
        out[...] = 7.0
    for M, want in zip(group.involutions, before):
        assert M.tobytes() == want.tobytes()
    assert group.word("1").tobytes() == word_oracle(before, "1").tobytes()
