"""Span tracer installed from outside the library.

Wrappers are patched into every module namespace through which the
benchmark's calls reach a public function (a module that imported a
name holds its own reference, so each is patched separately).  Each
wrapper records a span: name, start, end and the span that caused it.
A span opened on a worker thread with no open span of its own takes as
parent the innermost open span of the main thread, which is the caller
blocked on the worker pool (``reproduce_table``).  Spans are aggregated
as they close (calls, total and self time per name), so memory does not
grow with the number of calls; self time is a span's duration minus the
union of its children's intervals.

Calls that stay invisible from outside, because the caller holds a
reference the patch cannot reach:

* the defining functions stored in ``criteria._VALUE_FUNCTIONS``
  (``regular_elliptic_value``, ``jorgensen_value``, ``shimizu_value``),
  called by ``scan_intervals``; their time counts as the scan's self
  time, except for the discriminant calls they make;
* the command handlers stored in ``cli._HANDLERS``, and the private
  helpers (``criteria._bisect_root``, ``cyclotomic._conjugate_scan``,
  ``cyclotomic._survivor_diagnostic``), which show as their caller's
  self time;
* numpy itself.
"""

import contextlib
import functools
import threading
import time


class _Frame:
    __slots__ = ("start", "thread", "child_time", "foreign")

    def __init__(self, start, thread):
        self.start = start
        self.thread = thread
        self.child_time = 0.0  # children on the same thread never overlap
        self.foreign = []  # (start, end) of children on worker threads


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._patches = []

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            frame = _Frame(time.perf_counter(), threading.get_ident())
            stack.append(frame)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(name, frame, end, parent, result, error, observe)

        return traced

    def _close(self, name, frame, end, parent, result, error, observe):
        duration = end - frame.start
        busy_children = frame.child_time
        if frame.foreign:
            # the owner thread waits while its workers run, so the two
            # kinds of children do not overlap
            busy_children += _union_length(frame.foreign)
        with self._lock:
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - busy_children
            if parent is not None:
                if parent.thread == frame.thread:
                    parent.child_time += duration
                else:
                    parent.foreign.append((frame.start, end))
        if observe is not None:
            observe(self, result, error)

    def patch(self, owner, attr, name, observe=None):
        """Replace owner.attr (a module or class attribute) by a traced
        wrapper recording spans called ``name``."""
        original = getattr(owner, attr)
        wrapper = self._wrap(original, name, observe)
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body with the original functions in place."""
        patches = list(self._patches)
        self.unpatch()
        try:
            yield
        finally:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            self._patches = patches


# --------------------------------------------------------------------------
# observers: counters taken at the layer boundaries

BAND = 1e-9  # |f| at or below this sends classify to the eigenstructure path


def _on_scan(tracer, result, error):
    if error is None:
        tracer.count("criteria.intervals", len(result.intervals))


def _on_refute(tracer, report, error):
    if error is None:
        tracer.count("cyclotomic.ops")
        tracer.count("cyclotomic.candidates", report.candidates_checked)
        tracer.count("cyclotomic.elliptic_candidates", report.regular_elliptic_candidates)
        tracer.count("cyclotomic.near_misses", len(report.near_misses))
        tracer.count("cyclotomic.survivors", len(report.survivors))
        tracer.count("cyclotomic.near_miss_ops", 1 if report.near_misses else 0)


def _on_classify(tracer, result, error):
    if isinstance(error, ValueError):
        tracer.count("classify.refused")
    elif error is None:
        tracer.count("classify.returned")
        tracer.count("classify.in_band", 1 if abs(result.discriminant) <= BAND else 0)


def _on_shimizu(tracer, result, error):
    if error is None:
        tracer.count("heisenberg.violations", 1 if result else 0)


def install(tracer, lib):
    """Patch every traced function into the namespaces the workloads reach
    it through."""
    cli, crit, cyc, cls = lib.cli, lib.criteria, lib.cyclotomic, lib.classify
    lin, tri, hei = lib.linalg, lib.triangles, lib.heisenberg
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "build_parser", "cli.build_parser", None),
        (cli, "scan_intervals", "criteria.scan_intervals", _on_scan),
        (crit, "scan_intervals", "criteria.scan_intervals", _on_scan),
        (cli, "reproduce_table", "criteria.reproduce_table", None),
        (crit, "reproduce_table", "criteria.reproduce_table", None),
        (crit, "nondiscreteness_report", "criteria.nondiscreteness_report", None),
        (cli, "refute_finite_order", "cyclotomic.refute_finite_order", _on_refute),
        (cyc, "refute_finite_order", "cyclotomic.refute_finite_order", _on_refute),
        (cyc, "enumerate_candidates", "cyclotomic.enumerate_candidates", None),
        (cyc.CyclotomicInt, "evaluate_conjugate", "cyclotomic.evaluate_conjugate", None),
        (cli, "classify", "classify.classify", _on_classify),
        (cls, "classify", "classify.classify", _on_classify),
        (cls, "discriminant", "classify.discriminant.from_classify", None),
        (crit, "discriminant", "classify.discriminant.from_criteria", None),
        (cyc, "discriminant", "classify.discriminant.from_cyclotomic", None),
        (cls, "is_unitary_for_form", "linalg.is_unitary_for_form", None),
        (hei, "is_unitary_for_form", "linalg.is_unitary_for_form", None),
        (cls, "normalize_to_su", "linalg.normalize_to_su", None),
        (lin, "normalize_to_su", "linalg.normalize_to_su", None),
        (tri, "involution_from_polar", "linalg.involution_from_polar", None),
        (cli, "build_mn_inf", "triangles.build", None),
        (cli, "build_n_inf_inf", "triangles.build", None),
        (tri, "build_mn_inf", "triangles.build", None),
        (tri, "build_n_inf_inf", "triangles.build", None),
        (tri.TriangleGroup, "word", "triangles.word", None),
        (hei, "shimizu_violation", "heisenberg.shimizu_violation", _on_shimizu),
        (hei, "isometric_sphere", "heisenberg.isometric_sphere", None),
        (hei, "boundary_action", "heisenberg.boundary_action", None),
    ]
    for owner, attr, name, observe in targets:
        tracer.patch(owner, attr, name, observe)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int):
    """Per-layer metrics per pass of the op list, named as in
    BENCHMARK.json, with their units."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0] / passes

    def ms(name):
        return 1e3 * spans.get(name, [0, 0.0, 0.0])[1] / passes

    def self_ms(name):
        return 1e3 * spans.get(name, [0, 0.0, 0.0])[2] / passes

    def per_pass(name):
        return counts.get(name, 0) / passes

    out = {
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "cli.build_parser.ms": (ms("cli.build_parser"), "ms"),
        "criteria.scan_intervals.calls": (calls("criteria.scan_intervals"), "count"),
        "criteria.scan_intervals.self_ms": (self_ms("criteria.scan_intervals"), "ms"),
        "criteria.reproduce_table.self_ms": (self_ms("criteria.reproduce_table"), "ms"),
        "criteria.intervals": (per_pass("criteria.intervals"), "count"),
        "criteria.nondiscreteness_report.calls": (calls("criteria.nondiscreteness_report"), "count"),
        "criteria.nondiscreteness_report.self_ms": (self_ms("criteria.nondiscreteness_report"), "ms"),
        "cyclotomic.refute_finite_order.self_ms": (self_ms("cyclotomic.refute_finite_order"), "ms"),
        "cyclotomic.enumerate_candidates.ms": (ms("cyclotomic.enumerate_candidates"), "ms"),
        "cyclotomic.evaluate_conjugate.calls": (calls("cyclotomic.evaluate_conjugate"), "count"),
        "cyclotomic.evaluate_conjugate.ms": (ms("cyclotomic.evaluate_conjugate"), "ms"),
        "cyclotomic.candidates": (per_pass("cyclotomic.candidates"), "count"),
        "cyclotomic.elliptic_candidates": (per_pass("cyclotomic.elliptic_candidates"), "count"),
        "cyclotomic.near_misses": (per_pass("cyclotomic.near_misses"), "count"),
        "cyclotomic.survivors": (per_pass("cyclotomic.survivors"), "count"),
        "cyclotomic.near_miss_op_share": (
            _ratio(counts.get("cyclotomic.near_miss_ops", 0), counts.get("cyclotomic.ops", 0)), "ratio"),
        "classify.classify.calls": (calls("classify.classify"), "count"),
        "classify.classify.self_ms": (self_ms("classify.classify"), "ms"),
        "classify.band_share": (
            _ratio(counts.get("classify.in_band", 0), counts.get("classify.returned", 0)), "ratio"),
        "classify.refused": (per_pass("classify.refused"), "count"),
    }
    callers = ("classify", "criteria", "cyclotomic")
    out["classify.discriminant.calls"] = (
        sum(calls(f"classify.discriminant.from_{c}") for c in callers), "count")
    out["classify.discriminant.ms"] = (
        sum(ms(f"classify.discriminant.from_{c}") for c in callers), "ms")
    for c in callers:
        out[f"classify.discriminant.from_{c}.calls"] = (calls(f"classify.discriminant.from_{c}"), "count")
        out[f"classify.discriminant.from_{c}.ms"] = (ms(f"classify.discriminant.from_{c}"), "ms")
    out.update({
        "linalg.is_unitary_for_form.calls": (calls("linalg.is_unitary_for_form"), "count"),
        "linalg.is_unitary_for_form.ms": (ms("linalg.is_unitary_for_form"), "ms"),
        "linalg.normalize_to_su.ms": (ms("linalg.normalize_to_su"), "ms"),
        "linalg.involution_from_polar.ms": (ms("linalg.involution_from_polar"), "ms"),
        "triangles.build.calls": (calls("triangles.build"), "count"),
        "triangles.build.ms": (ms("triangles.build"), "ms"),
        "triangles.word.calls": (calls("triangles.word"), "count"),
        "triangles.word.ms": (ms("triangles.word"), "ms"),
        "heisenberg.shimizu_violation.calls": (calls("heisenberg.shimizu_violation"), "count"),
        "heisenberg.shimizu_violation.self_ms": (self_ms("heisenberg.shimizu_violation"), "ms"),
        "heisenberg.boundary_action.calls": (calls("heisenberg.boundary_action"), "count"),
        "heisenberg.boundary_action.ms": (ms("heisenberg.boundary_action"), "ms"),
        "heisenberg.violation_share": (
            _ratio(counts.get("heisenberg.violations", 0), calls("heisenberg.shimizu_violation") * passes),
            "ratio"),
    })
    return out
