"""Smoke check of the benchmark itself, on tiny inputs (under a minute).

    python3 bench/selfcheck.py

1. Every workload, cut to its first few operations, runs plain and traced;
   each run must exit 0 and print exactly the metrics BENCHMARK.json lists.
2. With the engine's verdicts flipped and its certificate check made to
   accept anything, every workload must report a wrong answer and exit 1:
   the benchmark's own oracles, not the engine, catch the error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 3  # operations kept per workload


def _cut(build):
    def build_cut(*args, **kwargs):
        workload = build(*args, **kwargs)
        return dataclasses.replace(workload, ops=workload.ops[:TINY])
    return build_cut


def _run(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _flip_verdicts(pkg):
    """Patch the engine to answer wrongly; returns the undo list."""
    R, P = pkg.reducibility, pkg.posetlab
    reduces, member_reduces = R.reduces, P.member_reduces

    def flipped_reduces(g, h):
        verdict = reduces(g, h)
        return dataclasses.replace(verdict, reducible=not verdict.reducible)

    patches = [(R, "reduces", flipped_reduces), (pkg.cli, "reduces", flipped_reduces),
               (R, "verify_certificate", lambda g, h, v: True),
               (pkg.duality, "dual_reduces", lambda g, h: True),
               (pkg.supernatural, "preceq", lambda q, p: None),
               (P, "member_reduces", lambda a, b: not member_reduces(a, b))]
    undo = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, value in patches:
        setattr(owner, attr, value)
    return undo


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    errors = []
    for name, build in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = _cut(build)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            code, result = _run(name, trace)
            if code != 0 or not result["correct"]:
                errors.append(f"{name} trace={trace}: exit {code}, correct={result['correct']}")
            if set(result["metrics"]) != expected[trace]:
                errors.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(result['metrics']) ^ expected[trace])}")

    import borelcmp

    undo = _flip_verdicts(borelcmp)
    try:
        for name in workloads.WORKLOADS:
            code, result = _run(name, 1)  # in process, so the patches reach the CLI too
            if code != 1 or result["correct"]:
                errors.append(f"{name}: a flipped verdict went unnoticed (exit {code})")
    finally:
        for owner, attr, value in undo:
            setattr(owner, attr, value)

    for error in errors:
        print("FAIL", error)
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
