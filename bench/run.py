"""Run one workload of the borelcmp benchmark and print its metrics.

    python3 bench/run.py --workload products_ladder --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it measures the package under
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same numbers for people, with every failed operation.

``--trace 0`` times the workload with nothing patched and reports the
end-to-end metrics.  ``--trace 1`` runs one pass plain and one pass with
recording wrappers installed (see ``tracing.py``), reports the per-layer
metrics, and writes the spans to ``bench/out/``.

Exit status: 0 when every verdict was right, 1 when any was wrong, 2 when
the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracing import Tracer, import_breakdown  # noqa: E402
from workloads import WORKLOADS, Problem  # noqa: E402

# setup_s is the median of this many fresh-interpreter imports plus the
# import in this process; one more import first fills the bytecode cache.
IMPORT_PROBES = 4
IMPORTTIME_PROBES = 3
_PROBE = ("import time; t = time.perf_counter(); import borelcmp; "
          "print(time.perf_counter() - t, borelcmp.__file__)")

# Leaf calls inside reduces() on the Sol^300 rung: metric -> (leaf, count
# made by the baseline engine).
SOL300 = {
    "reducibility.sol300_atom_reduces_calls": ("reducibility.atom_reduces", 90_000),
    "supernatural.sol300_isprime_calls": ("supernatural.isprime", 724_800),
}

FAILURE_TYPES = ("RecursionError", "Timeout")

# Repetitions of an in-process operation, and the time after which they stop.
REPEATS = 15
REPEAT_BUDGET_S = 0.3

# Reference times that define nominal speed: about their medians on a
# shared two-core x86-64 virtual machine.
REFERENCE_NOMINAL_S = 0.0003
REFERENCE_CHILD_NOMINAL_S = 0.18

# A child process that starts an interpreter and imports standard-library
# modules, the kind of work that dominates a short borelcmp process.
_REFERENCE_CHILD = [sys.executable, "-c",
                    "import argparse, ast, asyncio, dataclasses, decimal, email.parser, fractions, "
                    "http.client, inspect, json, logging, typing, unittest, xml.etree.ElementTree"]


def _reference_loop():
    table = {}
    total = 0
    for k in range(1000):
        pair = (k, k & 7)
        table[pair[1]] = table.get(pair[1], 0) + k * k
        total += len(pair)
    return total


@dataclass
class Timing:
    wall: float      # seconds as measured, less any time spent sampling
    index: int = 0   # the speed sample taken before the timed call
    during: int = 0  # speed samples taken during it


class WallClock:
    """Plain wall time, for traced runs."""

    def time(self, fn):
        start = perf_counter()
        result = fn()
        return Timing(perf_counter() - start), result

    def seconds(self, timing):
        return timing.wall

    def finish(self):
        pass


class ProcessProbe:
    """Wall time of child processes, scaled to a nominal machine speed.

    Starting an interpreter and importing modules depends on more than
    bytecode speed (file lookups, page faults, the core the child lands
    on), and on a shared machine it drifts by tens of percent between
    runs.  So the reference child ``_REFERENCE_CHILD`` runs before every
    timed child and once after the last, and a child's time is reported as
    wall seconds times ``REFERENCE_CHILD_NOMINAL_S`` over the mean of the
    reference times before and after it.  Interleaved this way, the ratio
    of a ``borelcmp`` process's time to the reference child's stayed within
    ±5 % while raw times moved by ±20 %.
    """

    def __init__(self):
        self.references: list[float] = []

    def sample(self):
        """Time one reference child; the index of the sample."""
        start = perf_counter()
        subprocess.run(_REFERENCE_CHILD, capture_output=True, timeout=120, check=True)
        self.references.append(perf_counter() - start)
        return len(self.references) - 1

    def time(self, fn):
        index = self.sample()
        start = perf_counter()
        result = fn()
        return Timing(perf_counter() - start, index), result

    def finish(self):
        self.sample()

    def seconds(self, timing):
        around = self.references[timing.index:timing.index + 2]
        return timing.wall * REFERENCE_CHILD_NOMINAL_S / statistics.mean(around)


class SpeedProbe:
    """Wall time scaled to a nominal machine speed, for in-process work.

    The benchmark shares its machine, whose speed drifts by tens of percent
    within seconds, so raw wall times of two runs of the same code differ
    by as much.  A fixed reference loop that shares no code with the
    package is timed before a call when the previous call took longer than
    ``SHORT`` seconds, otherwise at least every ``INTERVAL`` seconds, and
    during calls every ``INTERVAL`` seconds of CPU time from an interval
    timer, whose handler's time is subtracted.  A call's time is reported as wall seconds times
    ``REFERENCE_NOMINAL_S`` over the mean reference time from the sample
    before it to the sample after it.

    A sample taken in this process does not track a child process, which
    runs on whichever core is free; ``ProcessProbe`` times those.
    """

    INTERVAL = 0.005
    SHORT = 0.0005

    def __init__(self):
        self.references: list[float] = []
        self._last = float("-inf")
        self._last_call = 0.0
        self._during = 0
        self._sampling_s = 0.0
        signal.signal(signal.SIGVTALRM, self._on_timer)

    def _sample(self):
        start = perf_counter()
        _reference_loop()
        self._last = perf_counter()
        self.references.append(self._last - start)

    def _on_timer(self, signum, frame):
        start = perf_counter()
        self._sample()
        self._during += 1
        self._sampling_s += perf_counter() - start

    def time(self, fn):
        if self._last_call > self.SHORT or perf_counter() - self._last > self.INTERVAL:
            self._sample()
        index = len(self.references) - 1
        self._during, self._sampling_s = 0, 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, self.INTERVAL, self.INTERVAL)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            self._last_call = perf_counter() - start
        return Timing(self._last_call - self._sampling_s, index, self._during), result

    def finish(self):
        self._sample()

    def seconds(self, timing):
        around = self.references[timing.index:timing.index + timing.during + 2]
        return timing.wall * REFERENCE_NOMINAL_S / statistics.mean(around)


class OpTimeout(BaseException):
    """Raised by the alarm when an in-process operation exceeds its budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Result:
    label: str
    size: object
    timings: list | None  # one Timing per repetition, until its pass ends
    problem: Problem | None
    elapsed: float = 0.0  # median repetition at nominal speed, set when its pass ends
    wall: float = 0.0     # wall seconds of all repetitions, set likewise


def _attempt(op, workload):
    """Run the operation once under its time budget: (output, problem)."""
    in_process = not workload.child_processes
    if in_process:
        signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
    try:
        return op.run(), None
    except (OpTimeout, subprocess.TimeoutExpired):
        return None, Problem("Timeout", f"over the {workload.budget_s} s budget", False)
    except Exception as exc:  # every other exception is a failed operation
        return None, Problem(type(exc).__name__, str(exc)[:200], False)
    finally:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_op(op, workload, clock, repeats, tracer=None, index=0):
    """Run an operation, and repeat it while it is short, up to ``repeats``
    times; every repetition's output is checked."""
    timings = []
    while True:
        span = tracer.open("op", f"{index}:{op.label}[{op.size}]") if tracer else None
        timing, (out, problem) = clock.time(lambda: _attempt(op, workload))
        if span is not None:
            tracer.close(span)
        timings.append(timing)
        if problem is None:
            try:
                problem = op.check(out)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                problem = Problem("WrongOutput", f"unreadable output: {exc!r}"[:200], True)
        if (problem is not None or len(timings) == repeats
                or sum(t.wall for t in timings) > REPEAT_BUDGET_S):
            return Result(op.label, op.size, timings, problem)


def run_passes(workload, seconds, clock, repeats=1, tracer=None, max_passes=None):
    """Whole passes over the operation list: at least one, and another only
    while it is expected to end within ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        results = [run_op(op, workload, clock, repeats, tracer, i) for i, op in enumerate(workload.ops)]
        clock.finish()
        for r in results:
            r.elapsed = statistics.median(clock.seconds(t) for t in r.timings)
            r.wall = sum(t.wall for t in r.timings)
            r.timings = None
        passes.append(results)
        took = perf_counter() - pass_start
        if len(passes) == max_passes or perf_counter() - start + took > seconds:
            return passes


def import_probe():
    """Wall time of ``import borelcmp`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          timeout=120, check=True)
    elapsed, where = done.stdout.split()
    _check_location(where)
    return float(elapsed)


def _check_location(module_file):
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise SystemExit(f"borelcmp was imported from {module_file}, not from {SRC}")


def tail(times):
    """The highest percentile with at least ten samples above it, as
    (value, percentile); the maximum when there are fewer than 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def failure_counts(results):
    counts = {}
    for r in results:
        if r.problem is not None:
            counts[r.problem.kind] = counts.get(r.problem.kind, 0) + 1
    return counts


def end_to_end(passes, setup_samples, workload, clock):
    results = [r for p in passes for r in p]
    times = [r.elapsed for r in results]
    ok = sum(r.problem is None for r in results)
    tails = [tail([r.elapsed for r in p]) for p in passes]
    tail_value = statistics.median(value for value, _ in tails)
    tail_pct = tails[0][1]
    who = resource.RUSAGE_CHILDREN if workload.child_processes else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (statistics.median(sum(r.elapsed for r in p) for p in passes), "s"),
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_ok_ratio": (ok / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    wall = statistics.median(sum(r.wall for r in p) for p in passes)
    notes = {
        "setup_s": f"median of {len(setup_samples)} imports, scaled like child processes",
        "run_s": f"median of {len(passes)} passes of {len(workload.ops)} operations",
        "op_p50_s": f"{len(times)} samples",
        "op_tail_s": f"p{tail_pct:.1f} of the {len(workload.ops)} samples of a pass, "
                     f"{min(10, len(workload.ops) - 1)} above it; median of {len(passes)} passes",
        "ops_ok_ratio": f"ops_failed_ratio {1 - ok / len(results):.4f} ({len(results) - ok} of {len(results)})",
        "peak_rss_mb": "ru_maxrss of " + ("the child processes" if workload.child_processes else "this process"),
    }
    nominal = REFERENCE_CHILD_NOMINAL_S if workload.child_processes else REFERENCE_NOMINAL_S
    notes["run_s"] += (f"; at nominal speed (reference median {statistics.median(clock.references):.4g} s, "
                       f"nominal {nominal} s); wall clock of all repetitions {wall:.4g} s")
    return metrics, notes


def per_layer(tracer, plain_passes, traced_passes, import_samples):
    results = traced_passes[0]
    metrics = {f"import.{k}_s": (statistics.median(s[k] for s in import_samples), "s")
               for k in ("total", "sympy", "borelcmp")}
    metrics.update(tracer.layer_metrics())
    counts = failure_counts(results)
    failed = sum(counts.values())
    metrics["ops_failed_ratio"] = (failed / len(results), "ratio")
    for kind in FAILURE_TYPES:
        metrics[f"ops.failed.{kind}"] = (counts.get(kind, 0), "count")
    metrics["ops.failed.wrong"] = (sum(r.problem is not None and r.problem.wrong for r in results), "count")
    metrics["ops.failed.other"] = (
        failed - metrics["ops.failed.wrong"][0] - sum(counts.get(k, 0) for k in FAILURE_TYPES), "count")
    plain_run = sum(r.elapsed for r in plain_passes[0])
    traced_run = sum(r.elapsed for r in results)
    metrics["trace.overhead_s"] = (traced_run - plain_run, "s")
    for metric, (leaf, _) in SOL300.items():
        metrics[metric] = (sum(tracer.subtree_leaf_calls(span, leaf) for span in tracer.spans
                               if span.name == "reducibility.reduces"
                               and span.op.endswith(":Sol^n[300]")), "count")
    return metrics


def report(workload, seed, results, metrics, notes):
    print(f"workload {workload.name}  seed {seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    failures = [r for r in results if r.problem is not None]
    for kind, count in sorted(failure_counts(results).items()):
        print(f"  failures of type {kind}: {count}")
    for r in failures:
        print(f"  FAILED {r.label} size={r.size} {r.problem.kind}: {r.problem.detail[:300]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "borelcmp" / "__init__.py", ROOT / "tests" / "golden") if not p.exists()]
    if missing:
        print("not a borelcmp checkout; missing: " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_clock = ProcessProbe()
    setup_timings = []
    if not args.trace:
        import_probe()
        for _ in range(IMPORT_PROBES):
            index = setup_clock.sample()
            setup_timings.append(Timing(import_probe(), index))
    index = setup_clock.sample()
    start = perf_counter()
    import borelcmp
    setup_timings.append(Timing(perf_counter() - start, index))
    setup_clock.finish()
    setup_samples = [setup_clock.seconds(t) for t in setup_timings]
    _check_location(borelcmp.__file__)
    import borelcmp.cli  # noqa: F401  (the in-process CLI commands need it)

    build = WORKLOADS[args.workload]
    if not args.trace:
        workload = build(borelcmp, args.seed, ROOT)
        clock = ProcessProbe() if workload.child_processes else SpeedProbe()
        passes = run_passes(workload, args.seconds, clock, REPEATS)
        metrics, notes = end_to_end(passes, setup_samples, workload, clock)
    else:
        workload = build(borelcmp, args.seed, ROOT, in_process=True)
        imports = []
        for _ in range(IMPORTTIME_PROBES):
            done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import borelcmp"],
                                  capture_output=True, text=True, timeout=120, check=True)
            imports.append(import_breakdown(done.stderr))
        plain = run_passes(workload, 0, WallClock(), max_passes=1)
        tracer = Tracer()
        tracer.install(borelcmp)
        try:
            passes = run_passes(workload, 0, WallClock(), tracer=tracer, max_passes=1)
        finally:
            tracer.uninstall()
        tracer.write(BENCH / "out" / f"trace-{workload.name}-seed{args.seed}.jsonl")
        metrics = per_layer(tracer, plain, passes, imports)
        notes = {}
        if workload.name == "products_ladder":
            notes = {metric: f"baseline engine: {count}" for metric, (_, count) in SOL300.items()}

    results = [r for p in passes for r in p]
    report(workload, args.seed, results, metrics, notes)
    wrong = sum(r.problem is not None and r.problem.wrong for r in results)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": sum(r.problem is not None for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
