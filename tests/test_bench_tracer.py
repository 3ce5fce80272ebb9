"""The benchmark's span tracer patches library names from outside
(``bench/tracer.py``); a renamed or removed target breaks a traced run.
This test only imports from ``bench/`` and changes nothing there."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER_TARGETS = 29


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracer_mod = importlib.import_module("tracer")
    lib = workloads.load_library()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer, lib)
        patches = list(tracer._patches)
        assert len(patches) == TRACER_TARGETS
        for owner, attr, original, wrapper in patches:
            assert getattr(owner, attr) is wrapper, attr
    finally:
        tracer.unpatch()
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, attr
