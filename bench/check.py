"""Output checker: compares each op's answer with the reference answers
recorded at the seed commit (``reference/*.json.gz``), by tolerance
rather than byte equality, and checks the invariants that need no
reference.

Not compared, because a correct change may alter them:
``elapsed_seconds`` (a timing inside the result record) and ``worst_k``
(its tie-break between equal conjugates is undefined).
"""

import gzip
import json
import os

from workloads import pair_key, scan_key

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
ENDPOINT_TOL = 1e-8
RIGHTMOST_TOL = 1e-12
SIGN_STEP = 1e-7


def load_reference(workload: str):
    with gzip.open(os.path.join(REF_DIR, f"{workload}.json.gz"), "rt") as fh:
        return json.load(fh)


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def _intervals_close(got, want) -> bool:
    return len(got) == len(want) and all(
        _close(g, w, ENDPOINT_TOL) for gi, wi in zip(got, want) for g, w in zip(gi, wi)
    )


def sign_change_problems(lib, test, m, n, intervals):
    """Each reported endpoint strictly inside (-1, 1) must be a sign change
    of the criterion's public defining function: negative just inside the
    interval, non-negative just outside."""
    fn = getattr(lib.criteria, {"re": "regular_elliptic_value"}.get(test, f"{test}_value"))
    problems = []
    for lo, hi in intervals:
        step = min(SIGN_STEP, (hi - lo) / 4.0)
        for x, inside in ((lo, lo + step), (hi, hi - step)):
            if not -1.0 < x < 1.0:
                continue
            outside = 2.0 * x - inside
            if not (fn(m, n, inside) < 0.0 <= fn(m, n, outside)):
                problems.append(f"{test} m={m} n={n}: endpoint {x!r} is not a sign change")
    return problems


def check_tables(which, record, ref):
    want = ref["tables"][str(which)]
    rows = record["results"]["rows"]
    if [r["n"] for r in rows] != [r["n"] for r in want]:
        return [f"tables {which}: row set differs"]
    problems = []
    for got, exp in zip(rows, want):
        for col, value in exp.items():
            if col == "n":
                continue
            if not _close(got.get(col), value, ENDPOINT_TOL):
                problems.append(f"tables {which} n={exp['n']} {col}: {got.get(col)!r} != {value!r}")
            shown = got.get(col + "_display")
            if shown != (None if got.get(col) is None else f"{got[col]:.5f}"):
                problems.append(f"tables {which} n={exp['n']} {col}: display {shown!r} inconsistent")
    return problems


def check_survey(lib, op, record, ref):
    if op[0] == "tables":
        return check_tables(op[1], record, ref)
    _, test, m, n = op
    got = record["results"]["intervals"]
    want = ref["scans"][scan_key(test, m, n)]
    problems = []
    if not _intervals_close(got, want):
        problems.append(f"scan {scan_key(test, m, n)}: {got!r} != {want!r}")
    return problems + sign_change_problems(lib, test, m, n, got)


def expected_refutation(ref, m, n, L):
    """Reference answer of galois(m, n, L).  Candidates are decided one by
    one, so the answer at L is the answer recorded at the largest L
    restricted to candidates with l <= L."""
    pair = ref["pairs"][pair_key(m, n)]
    counts = ref["counts"][str(L)]
    near = [nm for nm in pair["near_misses"] if nm["l"] <= L]
    return counts, near


def check_refute(lib, op, record, ref):
    _, m, n, L = op
    res = record["results"]
    counts, near = expected_refutation(ref, m, n, L)
    name = f"galois {pair_key(m, n)} L={L}"
    problems = []
    if res["survivors"]:
        problems.append(f"{name}: {len(res['survivors'])} survivors")
    for key in ("candidates_checked", "regular_elliptic_candidates"):
        if res[key] != counts[key]:
            problems.append(f"{name}: {key} {res[key]} != {counts[key]}")
    got = {(t["candidate"]["l"], tuple(t["candidate"]["k"])): t for t in res["near_misses"]}
    want = {(t["l"], tuple(t["k"])): t for t in near}
    if set(got) != set(want):
        return problems + [f"{name}: near-miss set differs"]
    for key, exp in want.items():
        scan = got[key]["conjugates"]
        if scan is None:
            problems.append(f"{name} {key}: conjugate scan missing")
            continue
        for field in ("conductor", "n_conjugates", "all_strictly_below"):
            if scan[field] != exp[field]:
                problems.append(f"{name} {key}: {field} {scan[field]!r} != {exp[field]!r}")
        if not _close(scan["max_rightmost"], exp["max_rightmost"], RIGHTMOST_TOL):
            problems.append(f"{name} {key}: max_rightmost {scan['max_rightmost']!r} != {exp['max_rightmost']!r}")
    return problems


def check_point(lib, op, out, ref):
    q = op[1]
    exp = ref["queries"][q["i"]]
    name = f"point {q['i']}"
    problems = []
    # a class recorded as None was refused at the seed commit: no reference
    classes = [c if w is not None else None for c, w in zip(out["classes"], exp["classes"])]
    if classes != exp["classes"]:
        problems.append(f"{name}: classes {out['classes']!r} != {exp['classes']!r}")
    for key in ("fired", "certified", "word_3132", "violation"):
        if out.get(key) != exp.get(key):
            problems.append(f"{name}: {key} {out.get(key)!r} != {exp.get(key)!r}")
    if "sphere" in exp and not all(
        _close(g, w, ENDPOINT_TOL * max(1.0, abs(w))) for g, w in zip(out["sphere"], exp["sphere"])
    ):
        problems.append(f"{name}: sphere {out['sphere']!r} != {exp['sphere']!r}")
    return problems


def conjugation_drifted(op, out) -> bool:
    """True when a conjugated point query classifies C M C^-1 differently
    from M.  The class is conjugation invariant, so the op fails; like a
    refusal of C M C^-1 it comes from the absolute tolerances in classify
    (known at the seed commit), so it counts as a failed op, not as a
    wrong answer of the reference comparison."""
    return op[0] == "point" and op[1]["conj"] is not None and out["conj_class"] != out["classes"][0]


def check(workload: str, lib, op, output, ref):
    """Problems found in one op's output; empty when it is correct."""
    if workload == "survey":
        return check_survey(lib, op, output, ref)
    if workload == "refute":
        return check_refute(lib, op, output, ref)
    return check_point(lib, op, output, ref)
