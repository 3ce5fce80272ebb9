"""Record the reference answers of every op the benchmark can draw.

Run once from the repository root on the commit whose answers are the
reference, then commit ``bench/reference/*.json.gz``:

    python3 bench/record.py [survey|refute|points ...]

Uses two worker processes.  Interval scans are also checked for sign
changes of the public defining functions before they are stored.
"""

import gzip
import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

from check import REF_DIR, sign_change_problems  # noqa: E402
from workloads import (  # noqa: E402
    POINT_CATALOGUE,
    REFUTE_L,
    load_library,
    pair_key,
    point_query,
    refute_pairs,
    run_point,
    scan_key,
    survey_space,
)

WORKERS = 2


def _scan(args):
    lib = load_library()
    test, m, n = args
    intervals = [list(iv) for iv in lib.criteria.scan_intervals(test, m, n).intervals]
    problems = sign_change_problems(lib, test, m, n, intervals)
    return scan_key(test, m, n), intervals, problems


def record_survey(pool):
    lib = load_library()
    tables = {}
    for which in (1, 2, 3):
        t = lib.criteria.reproduce_table(which)
        tables[str(which)] = [{"n": row.n, **row.cells} for row in t.rows]
    scans, problems = {}, []
    for key, intervals, found in pool.imap(_scan, survey_space(), chunksize=64):
        scans[key] = intervals
        problems += found
    return {"tables": tables, "scans": scans}, problems


def _refute(pair):
    lib = load_library()
    m, n = pair
    report = lib.cyclotomic.refute_finite_order(m, n, max_l=max(REFUTE_L))
    near = [
        {
            "l": t.candidate.l,
            "k": list(t.candidate.k),
            "conductor": t.conjugates.conductor,
            "n_conjugates": t.conjugates.n_conjugates,
            "max_rightmost": t.conjugates.max_rightmost,
            "all_strictly_below": t.conjugates.all_strictly_below,
        }
        for t in report.near_misses
    ]
    return pair_key(m, n), near, len(report.survivors)


def record_refute(pool):
    lib = load_library()
    counts = {}
    for L in REFUTE_L:
        # candidate counts do not depend on the corner orders
        report = lib.cyclotomic.refute_finite_order(3, 4, max_l=L)
        counts[str(L)] = {
            "candidates_checked": report.candidates_checked,
            "regular_elliptic_candidates": report.regular_elliptic_candidates,
        }
    pairs, problems = {}, []
    for key, near, survivors in pool.imap_unordered(_refute, refute_pairs()):
        pairs[key] = {"near_misses": near}
        if survivors:
            problems.append(f"galois {key}: {survivors} survivors")
    return {"max_l": max(REFUTE_L), "counts": counts, "pairs": dict(sorted(pairs.items()))}, problems


def _word_class(lib, q, word):
    """Class of one word, or None when classify refuses it."""
    try:
        return run_point(lib, {**q, "words": [word]})["classes"][0]
    except ValueError:
        return None


def _point(i):
    lib = load_library()
    q = point_query(i)
    q["conj"] = None
    out = run_point(lib, {**q, "words": []})
    out["classes"] = [_word_class(lib, q, w) for w in q["words"]]
    out.pop("discriminants")
    return out


def record_points(pool):
    return {"queries": pool.map(_point, range(POINT_CATALOGUE), chunksize=50)}, []


RECORDERS = {"survey": record_survey, "refute": record_refute, "points": record_points}


def main(names):
    os.makedirs(REF_DIR, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        for name in names or RECORDERS:
            data, problems = RECORDERS[name](pool)
            for p in problems:
                print(p, file=sys.stderr)
            if problems:
                return 1
            path = os.path.join(REF_DIR, f"{name}.json.gz")
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(json.dumps(data, separators=(",", ":")).encode())
            print(f"{name}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
