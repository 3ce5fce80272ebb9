"""The benchmark's `survey` and `refute` workloads, seed 1, checked
against their recorded reference answers (``bench/reference/*.json.gz``)
as a benchmark run checks them: every op answers, and no answer has a
problem.  `refute` compares the elliptic candidate counts exactly, so a
change to the regular-elliptic band shows here.  This test only imports
from ``bench/`` and changes nothing there."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 1


@pytest.mark.parametrize("workload, n_ops", [("survey", 153), ("refute", 160)])
def test_workload_answers_match_reference(monkeypatch, workload, n_ops):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    check = importlib.import_module("check")
    lib = workloads.load_library()
    ref = check.load_reference(workload)
    ops = workloads.make_ops(workload, SEED, ref)
    failed, problems = [], []
    for op in ops:
        ok, out = workloads.run_op(lib, op)
        if not ok:
            failed.append((op, out))
            continue
        problems += check.check(workload, lib, op, workloads.parse_output(op, out), ref)
    assert len(ops) == n_ops
    assert failed == []
    assert problems == []
