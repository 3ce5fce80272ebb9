"""chtriangle benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload survey|refute|points --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The
seeded op list is run in passes, one op after another, until the next
pass would overrun S seconds (at least one pass).  After each pass, and
outside its timing, every output is checked against the recorded
reference answers.

--trace 0 prints the end-to-end metrics; --trace 1 spends half of S on
untraced passes and half on passes with the tracer installed, and prints
the per-layer metrics and the tracer's overhead.  The last line of
standard output is the JSON result.

The time metrics are CPU times (time.process_time: all threads of the
process) normalised to a reference host speed by calibrate.py, because
a shared host's speed swings by more than any regression bound within
minutes.  The ops do no I/O and wait on nothing but the library's own
worker threads, so on an idle machine CPU time is their cost.  Raw CPU
and wall-clock figures are printed beside the metrics for reference.
"""

import argparse
import contextlib
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from calibrate import Calibration
from check import check, conjugation_drifted, load_reference
from workloads import WORKLOADS, load_library, make_ops, parse_output, run_op

SRC = os.path.abspath("src")
SETUP_LAUNCHES = 15
SETUP_CODE = "import time, chtriangle.cli as cli; cli.build_parser(); print(time.thread_time())"


def measure_setup(cal):
    """Set-up time of fresh interpreters importing the package and
    building the CLI parser, with PYTHONPATH=src as an uninstalled
    checkout needs.  Each launch reports the CPU time of its main thread
    from its start until the parser is built (numpy's helper threads are
    left out); the host is calibrated between launches.  Returns the
    medians over launches of the normalised and the raw CPU time, and of
    the wall time."""
    env = dict(os.environ, PYTHONPATH="src")
    norm, cpu, wall = [], [], []
    cal.sample()
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        end = time.perf_counter()
        cal.sample()
        wall.append(end - start)
        cpu.append(float(proc.stdout))
        norm.append(cpu[-1] * cal.scale((start + end) / 2))
    return statistics.median(norm), statistics.median(cpu), statistics.median(wall)


class Pass:
    """Timings of one closed-loop pass over the op list: per op its CPU
    and wall seconds and its wall-clock midpoint."""

    def __init__(self):
        self.cpu, self.wall, self.mid = [], [], []

    def normalised(self, cal):
        return [c * cal.scale(t) for c, t in zip(self.cpu, self.mid)]


def run_pass(lib, ops, cal):
    """One pass, sampling the host's speed between ops: (Pass, per-op
    (ok, raw output))."""
    timing, outputs = Pass(), []
    for op in ops:
        cal.maybe_sample()
        t, c = time.perf_counter(), time.process_time()
        result = run_op(lib, op)
        cpu, end = time.process_time() - c, time.perf_counter()
        timing.cpu.append(cpu)
        timing.wall.append(end - t)
        timing.mid.append((t + end) / 2)
        outputs.append(result)
    cal.sample()
    return timing, outputs


class Tally:
    """Checked outcomes of the passes of one run, counted per op of the
    list: every pass repeats the same ops, so an op is attempted once
    however many passes the run length allows, and it fails when it is
    refused, its answer is wrong, or its conjugate classifies
    differently in any pass.  The counts thus depend on the seed and the
    code only, not on the speed of the machine."""

    def __init__(self, workload, lib, ops, ref):
        self.workload, self.lib, self.ops, self.ref = workload, lib, ops, ref
        self.failed, self.wrong, self.drifted = set(), set(), set()
        self.attempted = len(ops)
        self.notes = []
        self.traffic = None

    def add(self, latencies, outputs):
        if self.traffic is None:
            self.traffic = traffic(self.workload, self.ops, latencies, outputs)
        for i, (op, (ok, out)) in enumerate(zip(self.ops, outputs)):
            if not ok:
                self.failed.add(i)
                continue
            out = parse_output(op, out)
            problems = check(self.workload, self.lib, op, out, self.ref)
            if problems:
                self.failed.add(i)
                if i not in self.wrong:
                    self.notes += problems[: 10 - len(self.notes)]
                self.wrong.add(i)
            elif conjugation_drifted(op, out):
                self.failed.add(i)
                self.drifted.add(i)


def run_passes(lib, ops, budget, tally, cal, pause=contextlib.nullcontext):
    """Passes until the next one would overrun the budget (at least one);
    each pass's outputs are checked, outside the timed region and with
    tracing paused, before the next starts.  Returns the passes'
    timings."""
    passes, lengths = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        timing, outputs = run_pass(lib, ops, cal)
        lengths.append(time.perf_counter() - t)
        passes.append(timing)
        with pause():
            tally.add(timing.cpu, outputs)
        if time.perf_counter() - start + statistics.median(lengths) > budget:
            return passes


def traffic(workload, ops, latencies, outputs):
    """Shares of the traffic properties each workload is chosen for."""
    if workload == "survey":
        tables = [i for i, op in enumerate(ops) if op[0] == "tables"]
        return {
            "tables_op_share": len(tables) / len(ops),
            "tables_time_share": sum(latencies[i] for i in tables) / sum(latencies),
        }
    if workload == "refute":
        near = sum(1 for ok, out in outputs if ok and json.loads(out)["results"]["near_misses"])
        return {"near_miss_op_share": near / len(ops)}
    discs = [f for ok, out in outputs if ok for f in out["discriminants"]]
    queries = [op[1] for op in ops]
    return {
        "classify_band_share": sum(abs(f) <= 1e-9 for f in discs) / max(1, len(discs)),
        "conjugated_share": sum(q["conj"] is not None for q in queries) / len(queries),
        "locus_share": sum(q["kind"].startswith("locus") for q in queries) / len(queries),
        "refused_ops": sum(not ok for ok, _ in outputs),
    }


def environment():
    sha = "unknown"
    if os.path.isdir(".git"):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "chtriangle", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "cpu_count": os.cpu_count(),
        "CHG_THREADS": os.environ.get("CHG_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@functools.lru_cache(maxsize=None)
def _hd_weights(n: int, p: float):
    """Weights of the n order statistics in the Harrell-Davis estimate of
    the p-quantile: the Beta((n+1)p, (n+1)(1-p)) mass of each interval
    ((i-1)/n, i/n], integrated on a grid of 64 points per interval."""
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = (np.arange(64 * n) + 0.5) / (64 * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    mass = pdf.reshape(n, 64).sum(axis=1)
    return mass / mass.sum()


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.  The op costs of a list
    are heavy-tailed (refute: the ops next to the 90th percentile differ
    by 10-30 %), so the sample quantile jumps from one seed's list to the
    next; a weighted mean of the order statistics around it does not."""
    return float(np.sort(values) @ _hd_weights(len(values), p))


def pass_medians(op_times):
    """Total seconds and per-op p50 and p90 in ms of each pass's op
    times, each the median over passes.  Per-pass percentiles first,
    then the median: a stall that covers less than half the passes does
    not move them."""
    return (statistics.median(sum(times) for times in op_times),
            1e3 * statistics.median(quantile(times, 0.5) for times in op_times),
            1e3 * statistics.median(quantile(times, 0.9) for times in op_times))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chtriangle", "__init__.py")):
        print("bench: no chtriangle package under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import chtriangle

    if not os.path.abspath(chtriangle.__file__).startswith(SRC + os.sep):
        print(f"bench: chtriangle imported from {chtriangle.__file__}, not ./src", file=sys.stderr)
        return 2

    lib = load_library()
    ref = load_reference(args.workload)
    ops = make_ops(args.workload, args.seed, ref)
    info = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
            "environment": environment()}

    tally = Tally(args.workload, lib, ops, ref)
    cal = Calibration()
    if args.trace:
        from tracer import Tracer, install, layer_metrics

        plain = run_passes(lib, ops, args.seconds / 2, tally, cal)
        tracer = Tracer()
        install(tracer, lib)
        try:
            traced = run_passes(lib, ops, args.seconds / 2, tally, cal, tracer.paused)
        finally:
            tracer.unpatch()
        metrics = layer_metrics(tracer, len(traced))
        plain_s = [sum(p.normalised(cal)) for p in plain]
        traced_s = [sum(p.normalised(cal)) for p in traced]
        metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(plain_s), "ratio")
        info["pass_norm_cpu_s"] = {"untraced": plain_s, "traced": traced_s}
        info["self_ms_by_span"] = {
            name: round(1e3 * agg[2] / len(traced), 3)
            for name, agg in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2])
        }
    else:
        setup, setup_cpu, setup_wall = measure_setup(cal)
        passes = run_passes(lib, ops, args.seconds, tally, cal)
        total, p50, p90 = pass_medians([p.normalised(cal) for p in passes])
        metrics = {
            "setup_s": (setup, "s"),
            "norm_cpu_s": (total, "s"),
            "op_norm_cpu_p50_ms": (p50, "ms"),
            "op_norm_cpu_p90_ms": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        raw = {"setup_cpu_s": (setup_cpu, "s"), "setup_wall_s": (setup_wall, "s")}
        for clock, op, op_times in (("cpu", "op_cpu", [p.cpu for p in passes]),
                                    ("wall", "op", [p.wall for p in passes])):
            total, p50, p90 = pass_medians(op_times)
            raw[f"{clock}_s"] = (total, "s")
            raw[f"{op}_p50_ms"] = (p50, "ms")
            raw[f"{op}_p90_ms"] = (p90, "ms")
        info["pass_norm_cpu_s"] = [sum(p.normalised(cal)) for p in passes]
        info["latency_samples"] = {"per_pass": len(ops), "passes": len(passes)}

    attempted, failed = tally.attempted, len(tally.failed)
    info["traffic"] = tally.traffic
    info["fail_ratio"] = failed / attempted
    info["wrong_answers"] = len(tally.wrong)
    info["conjugation_drifts"] = len(tally.drifted)
    info["calibration"] = cal.summary()

    for note in tally.notes:
        print(f"check: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in raw.items():
            print(f"{name:42s} {value:14.6g} {unit} (not normalised, not a metric)")
    print(f"{'fail_ratio':42s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
