"""The benchmark's `points` workload, seed 1, checked against its recorded
reference answers (``bench/reference/points.json.gz``) as a benchmark
run checks it: no wrong answer, and no more failed ops than the 37 that
the absolute form tolerance costs today.  This test only imports from
``bench/`` and changes nothing there."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 1
MAX_FAILED = 37


def test_points_workload_refusal_set(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    check = importlib.import_module("check")
    lib = workloads.load_library()
    ref = check.load_reference("points")
    ops = workloads.points_ops(SEED)
    failed, wrong = [], []
    for i, op in enumerate(ops):
        ok, out = workloads.run_op(lib, op)
        if not ok:
            failed.append(i)
            continue
        problems = check.check("points", lib, op, out, ref)
        if problems:
            failed.append(i)
            wrong.append(problems)
        elif check.conjugation_drifted(op, out):
            failed.append(i)
    assert len(ops) == 400
    assert wrong == []
    assert len(failed) <= MAX_FAILED
