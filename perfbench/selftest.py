#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json for one second with tiny
inputs (``--small``), untraced and traced.  Each run must exit 0 and
end with a correct result that carries exactly the metrics
BENCHMARK.json declares for its mode, with their units.  Last, it
checks that the benchmark refuses to run, without printing a result,
when the directory holds no triauth sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = "%s --trace %d" % (workload, trace)
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: not correct (failed=%s)" % (where, result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("%s: attempted=%r" % (where, result.get("attempted")))
    group = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    emitted = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(k for k in set(declared) & set(emitted) if declared[k] != emitted[k])
        problems.append("%s: metrics missing %s, extra %s, wrong unit %s"
                        % (where, missing, extra, wrong))
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s has value %r" % (where, name, value))
        elif not trace and value <= 0:
            problems.append("%s: end-to-end %s is %r" % (where, name, value))
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    """In a directory with only the benchmark, it must fail without a result."""
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return ["without sources: exit %d, last line %r" % (proc.returncode, last[0])]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print("%-20s trace=%d %s" % (workload["name"], trace, "ok" if not found else "FAILED"))
            problems += found
    found = check_refuses_without_sources(spec)
    print("%-28s %s" % ("refuses without sources", "ok" if not found else "FAILED"))
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
