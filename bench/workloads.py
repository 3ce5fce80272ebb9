"""Seeded workloads of the chtriangle benchmark.

Each workload has a finite op space whose reference answers were recorded
once (``record.py``); a run's seed draws a fixed-composition op list from
that space.  Ops are executed one after another by a single caller
(closed loop).  Library functions are always looked up as module
attributes at call time, so the wrappers installed by ``tracer.py`` see
every call the benchmark makes.
"""

import cmath
import contextlib
import importlib
import io
import json
import math
import random
from types import SimpleNamespace

MODULES = ("cli", "classify", "criteria", "cyclotomic", "heisenberg", "linalg", "triangles")


def load_library():
    """The chtriangle modules, by short name.  ``chtriangle.classify`` is
    shadowed by the function of the same name in the package namespace,
    so the modules are taken from the import system."""
    return SimpleNamespace(**{n: importlib.import_module(f"chtriangle.{n}") for n in MODULES})


def order_text(order) -> str:
    return "inf" if order == math.inf else str(order)


def run_cli(lib, argv):
    """Run the CLI in-process; returns (exit code, stdout text).  A
    ValueError escaping ``main`` counts as a refusal like exit code 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lib.cli.main(argv)
        except ValueError:
            code = 2
    return code, out.getvalue()


# --------------------------------------------------------------------------
# survey: the three survey tables plus seeded interval scans

SCAN_TESTS = ("re", "jorgensen", "shimizu")
SCAN_M = tuple(range(3, 21)) + (math.inf,)
SCAN_N = tuple(range(3, 201))
SURVEY_SCANS = 150


def survey_space():
    """Every (test, m, n) scan the survey can draw."""
    return [(t, m, n) for t in SCAN_TESTS for m in SCAN_M for n in SCAN_N]


def scan_key(test, m, n) -> str:
    return f"{test}:{order_text(m)}:{n}"


def survey_ops(seed: int):
    """Tables 1-3 once each and SURVEY_SCANS scans, shuffled.  Scans are
    split evenly over the three tests; within a test, a third use m = 8,
    a third m = inf (the two table families) and a third m uniform in
    3..20; n is uniform in 3..200."""
    rng = random.Random(f"survey-{seed}")
    ops = [("tables", w) for w in (1, 2, 3)]
    per_test = SURVEY_SCANS // len(SCAN_TESTS)
    for test in SCAN_TESTS:
        for i in range(per_test):
            m = (8, math.inf, rng.randint(3, 20))[i % 3]
            ops.append(("scan", test, m, rng.randint(3, 200)))
    rng.shuffle(ops)
    return ops


def survey_argv(op):
    if op[0] == "tables":
        return ["tables", str(op[1]), "--format", "json"]
    _, test, m, n = op
    return ["scan", "--test", test, "--m", order_text(m), "--n", str(n), "--format", "json"]


# --------------------------------------------------------------------------
# refute: Galois / phi-inequality refutation of finite-order traces

REFUTE_M = tuple(range(3, 17)) + (math.inf,)
REFUTE_N = tuple(range(3, 31))
REFUTE_L = tuple(range(16, 37))
REFUTE_STRATA = 80  # two antithetic picks per stratum: 160 ops
BALANCE_TOL = 0.01


def refute_pairs():
    return [(m, n) for m in REFUTE_M for n in REFUTE_N if m != n]


def pair_key(m, n) -> str:
    return f"{order_text(m)}:{n}"


def euler_phi(d: int) -> int:
    result, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def modelled_cost_us(L: int, conductors) -> float:
    """Cost of one galois op at the seed commit, modelled from its inputs:
    enumeration grows as L^3, and each near-miss scans phi(N) Galois
    conjugates of a length-N coefficient vector.  Fitted once on a 2-CPU
    machine; only used to stratify the op space, never reported."""
    return 0.64 * L**3 + sum(euler_phi(N) * (28.0 + 0.005 * N) for N in conductors)


def refute_space(reference):
    """Every (m, n, L) op with its modelled cost, cheapest first."""
    space = []
    for m, n in refute_pairs():
        near = reference["pairs"][pair_key(m, n)]["near_misses"]
        for L in REFUTE_L:
            conductors = [nm["conductor"] for nm in near if nm["l"] <= L]
            space.append((modelled_cost_us(L, conductors), m, n, L))
    space.sort(key=lambda op: (op[0], op[3], order_text(op[1]), op[2]))
    return space


def refute_ops(seed: int, reference):
    """Antithetic stratified sample of the op space.

    Op costs are heavy-tailed (one op in a hundred costs a hundred
    median ops), so a plain random list makes wall time depend on the
    seed more than on the code.  The space is cut into REFUTE_STRATA
    equal-count strata by modelled cost; each contributes the ops at
    relative positions u and 1 - u for a seeded u, and the draw is
    repeated until the list's modelled total is within BALANCE_TOL of
    the space average.  Every op keeps its natural share of the list.
    """
    space = refute_space(reference)
    size = len(space)
    bounds = [size * i // REFUTE_STRATA for i in range(REFUTE_STRATA + 1)]
    target = 2 * REFUTE_STRATA * sum(op[0] for op in space) / size
    rng = random.Random(f"refute-{seed}")
    while True:
        picks = []
        for lo, hi in zip(bounds, bounds[1:]):
            u = rng.random()
            picks.append(space[lo + int(u * (hi - lo))])
            picks.append(space[lo + min(hi - lo - 1, int((1.0 - u) * (hi - lo)))])
        if abs(sum(op[0] for op in picks) / target - 1.0) <= BALANCE_TOL:
            break
    rng.shuffle(picks)
    return [("galois", m, n, L) for _, m, n, L in picks]


def refute_argv(op):
    _, m, n, L = op
    return ["galois", "--m", order_text(m), "--n", str(n), "--max-l", str(L), "--format", "json"]


# --------------------------------------------------------------------------
# points: per-point classification on the library

POINT_CATALOGUE = 2000
#: query kind by index mod 20: 40 % finite m, 30 % m = inf at a random
#: angle, 15 % on the locus a = cos(pi/n), 15 % on an order-k locus
POINT_KINDS = ("finite",) * 8 + ("inf",) * 6 + ("locus_s",) * 3 + ("locus_k",) * 3
POINT_QUERIES = 400
CONJUGATED_SHARE = 0.25
MAX_XI = 6.0


def _random_word(rng) -> str:
    return "".join(rng.choice("123") for _ in range(rng.randint(1, 8)))


def order_k_cos(n: int, k: int) -> float:
    """a = cos(theta) at which the word 3132 of the (inf, n) family has
    trace 1 + 2 cos(2 pi/k); computed here so that the inputs do not
    depend on the code under test."""
    s = math.cos(math.pi / n)
    return (8.0 * s * s - math.cos(2.0 * math.pi / k) + 1.0) / (8.0 * s)


def point_query(i: int):
    """Catalogue query i: corner orders, angle and words; deterministic in i."""
    kind = POINT_KINDS[i % len(POINT_KINDS)]
    rng = random.Random(f"points-query-{i}")
    n = rng.randint(3, 30)
    words = [_random_word(rng) for _ in range(rng.randint(1, 3))]
    if kind == "finite":
        m, theta = rng.randint(3, 16), rng.uniform(0.01, math.pi - 0.01)
    elif kind == "inf":
        m, theta = math.inf, rng.uniform(0.01, math.pi - 0.01)
    elif kind == "locus_s":
        m, theta = math.inf, math.pi / n
        words[0] = "3132"
    else:
        m = math.inf
        a = 2.0
        while not -1.0 <= a <= 1.0:
            a = order_k_cos(n, rng.randint(3, 60))
        theta = math.acos(a)
        words[0] = "3132"
    return {"i": i, "kind": kind, "m": m, "n": n, "theta": theta, "words": words}


def points_ops(seed: int):
    """POINT_QUERIES catalogue queries in the kinds' fixed shares, a
    quarter of them with a seeded Heisenberg translation (xi, v) as
    conjugator of the first word: xi uniform on the disc |xi| <= MAX_XI
    and v uniform on |v| <= MAX_XI^2 (v scales as |xi|^2 in the Cygan
    gauge)."""
    rng = random.Random(f"points-{seed}")
    by_kind = {}
    for i in range(POINT_CATALOGUE):
        by_kind.setdefault(POINT_KINDS[i % len(POINT_KINDS)], []).append(i)
    chosen = []
    for kind, indices in by_kind.items():
        share = POINT_KINDS.count(kind) / len(POINT_KINDS)
        chosen += rng.sample(indices, round(POINT_QUERIES * share))
    rng.shuffle(chosen)
    conjugated = set(rng.sample(range(len(chosen)), round(len(chosen) * CONJUGATED_SHARE)))
    ops = []
    for pos, i in enumerate(chosen):
        q = point_query(i)
        q["conj"] = None
        if pos in conjugated:
            xi = cmath.rect(MAX_XI * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
            q["conj"] = (xi, rng.uniform(-MAX_XI**2, MAX_XI**2))
        ops.append(("point", q))
    return ops


def run_point(lib, q):
    """One point query; every step's answer goes into the returned dict.
    A ValueError from any step propagates (the op is refused)."""
    tri, cls = lib.triangles, lib.classify
    m, n, theta = q["m"], q["n"], q["theta"]
    if m == math.inf:
        group = tri.build_n_inf_inf(n, theta)
    else:
        group = tri.build_mn_inf(m, n, theta)
    mats = [group.word(w) for w in q["words"]]
    out = {"classes": [], "discriminants": []}
    for M in mats:
        c = cls.classify(M)
        out["classes"].append(c.tag.value)
        out["discriminants"].append(c.discriminant)
    rep = lib.criteria.nondiscreteness_report(m, n, theta)
    out["fired"] = list(rep.fired)
    out["certified"] = rep.certified
    out["word_3132"] = None if rep.word_3132 is None else rep.word_3132.tag.value
    if m == math.inf:
        hei = lib.heisenberg
        out["violation"] = hei.shimizu_violation(group.word("23"), group.word("1"))
        sphere = hei.isometric_sphere(group.word("1"))
        c = sphere.center
        out["sphere"] = [c.xi.real, c.xi.imag, c.v, sphere.radius]
    if q["conj"] is not None:
        C = lib.heisenberg.heisenberg_translation(*q["conj"])
        conj = C @ mats[0] @ lib.linalg.form_inverse(C)
        out["conj_class"] = cls.classify(conj).tag.value
    return out


# --------------------------------------------------------------------------

WORKLOADS = ("survey", "refute", "points")


def make_ops(workload: str, seed: int, reference):
    if workload == "survey":
        return survey_ops(seed)
    if workload == "refute":
        return refute_ops(seed, reference)
    return points_ops(seed)


def run_op(lib, op):
    """Execute one op; returns (ok, output).  ok is False for a refusal
    (non-zero exit or ValueError); output is the CLI's JSON text or the
    point query's answers."""
    if op[0] == "point":
        try:
            return True, run_point(lib, op[1])
        except ValueError as exc:
            return False, str(exc)
    argv = survey_argv(op) if op[0] in ("tables", "scan") else refute_argv(op)
    code, text = run_cli(lib, argv)
    if code != 0:
        return False, f"exit {code}"
    return True, text


def parse_output(op, output):
    """CLI ops return JSON text, parsed outside the timed region."""
    return output if op[0] == "point" else json.loads(output)
