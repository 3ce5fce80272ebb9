"""The benchmark's `survey` and `refute` workloads, seed 1, checked
against their recorded reference answers (``bench/reference/*.json.gz``)
as a benchmark run checks them: every op answers, and no answer has a
problem.  `refute` compares the elliptic candidate counts exactly, so a
change to the regular-elliptic band shows here.  A pin keeps the
`refute` orders within the engine's shared first block.  These tests
only import from ``bench/`` and change nothing there."""

import importlib
from pathlib import Path

import pytest

from chtriangle import cyclotomic

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


def test_refute_orders_stay_in_the_shared_first_block(monkeypatch):
    # every refute op then reads a prefix of the shared first block; a
    # change of the block's extent that moves the workload off that path
    # fails here
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    assert max(workloads.REFUTE_L) <= cyclotomic._SHARED_ORDERS
