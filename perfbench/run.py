#!/usr/bin/env python3
"""Benchmark for triauth: one workload, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload honest-sessions --seed 1 \
        --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing.  With ``--trace 1`` it measures half the time untraced and
half traced, and reports the per-layer metrics plus the tracing
overhead.  Either way every operation's result is checked, and the
CostLedger counts of a fixed operation sequence are taken twice and
must agree exactly.

An operation's time is the CPU time of this thread, scaled to a
reference host speed (see ``speed.py``); the unscaled wall-clock
figures are on the info line.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the seed,
Python version, CPU count, platform and the sample count behind every
percentile.  Both also go to ``perfbench/out/``, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time_ns

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The exact counts come from this seed's inputs in every run, so they
# repeat from run to run whatever --seed is.
COUNT_SEED = 0

SETUP_REFERENCES = 5  # speed readings before and after each set-up

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p95_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.overhead_ratio": "ratio",
    "core.modexp.calls_per_op": "count",
    "core.modexp.self_us_per_op": "us",
    "core.hash.calls_per_op": "count",
    "core.hash.self_us_per_op": "us",
    "core.xor.calls_per_op": "count",
    "core.xor.self_us_per_op": "us",
    "fuzzy.rep.self_us_per_op": "us",
    "fuzzy.gen.self_us_per_enroll": "us",
    "baseline.login.self_us": "us",
    "baseline.respond.self_us": "us",
    "baseline.finish.self_us": "us",
    "baseline.bare_valueerror_rejects": "count",
    "improved.login.self_us": "us",
    "improved.respond.self_us": "us",
    "improved.finish.self_us": "us",
    "improved.respond.self_share": "share",
    "improved.respond.total_share": "share",
    "improved.respond.hashes_per_op": "count",
    "improved.respond.reject_us": "us",
    "improved.enroll.self_us": "us",
    "channel.self_us_per_op": "us",
    "adversary.survey_us": "us",
    "adversary.loop_us_per_word": "us",
    "adversary.hashes_per_word": "count",
    "scenario.run.self_us": "us",
    "files.write.self_us": "us",
    "files.compare.self_us": "us",
}


def import_program() -> None:
    """Put the checkout's own sources first on the path, or give up."""
    src = ROOT / "src"
    if not (src / "triauth" / "__init__.py").is_file():
        sys.exit("perfbench: no triauth sources under %s" % src)
    sys.path.insert(0, str(src))
    import triauth

    if Path(triauth.__file__).resolve().parent != src / "triauth":
        sys.exit("perfbench: imported triauth from %s, not %s" % (triauth.__file__, src))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="tiny populations and dictionaries (self-test only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def timed_setups(workload, repeats: int):
    """Build the state `repeats` times.

    Returns the first state and, per build, (CPU ns, wall ns, reference ns).
    """
    samples, state = [], None
    for _ in range(repeats):
        refs = [speed.reference_ns() for _ in range(SETUP_REFERENCES)]
        c0 = thread_time_ns()
        t0 = perf_counter_ns()
        built = workload.setup()
        wall = perf_counter_ns() - t0
        cpu = thread_time_ns() - c0
        refs += [speed.reference_ns() for _ in range(SETUP_REFERENCES)]
        samples.append((cpu, wall, statistics.median(refs)))
        state = state or built
    return state, samples


@dataclass
class Loop:
    latencies: list[int]  # wall-clock ns per operation
    cpu: list[int]  # this thread's CPU ns per operation
    references: list[int]  # reference ns just before each operation
    failed: int
    errors: list[str]  # the first few tracebacks
    state: object  # the state after the last operation


def timed_loop(workload, state, seconds, tracer=None) -> Loop:
    """Closed loop for `seconds`: generate an input, time one operation.

    A workload with ``epoch_ops`` gets a freshly built state (untimed)
    after that many operations, so its state does not drift with the
    number of operations a run completes.
    """
    loop = Loop([], [], [], 0, [], state)
    op_name = tracer.name_id("op") if tracer else None
    epoch = in_epoch = 0
    stream = workload.ops(state, epoch)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        if in_epoch == workload.epoch_ops:
            stream.close()
            state = workload.setup()
            epoch, in_epoch = epoch + 1, 0
            stream = workload.ops(state, epoch)
        item = next(stream)
        in_epoch += 1
        loop.references.append(speed.reference_ns())
        if tracer:
            tracer.current_op = len(loop.latencies)
            span = tracer.open(op_name)
        c0 = thread_time_ns()
        t0 = perf_counter_ns()
        try:
            ok = workload.run(state, item)
        except Exception:  # an operation that crashes is a failed one
            ok = False
            if len(loop.errors) < 3:
                loop.errors.append(traceback.format_exc())
        t1 = perf_counter_ns()
        loop.cpu.append(thread_time_ns() - c0)
        if tracer:
            tracer.close(span, not ok)
            tracer.current_op = spans.IDLE_OP
        loop.latencies.append(t1 - t0)
        loop.failed += not ok
    stream.close()
    loop.state = state
    return loop


def latency_stats(latencies) -> dict:
    n = len(latencies)
    if n < 2:
        raise SystemExit("perfbench: fewer than 2 operations completed")
    cuts = statistics.quantiles(latencies, n=100)
    p95, p99 = cuts[94], cuts[98]
    return {
        "samples": n,
        "ops_per_s": n / (sum(latencies) / 1e9),
        "op_p50_us": statistics.median(latencies) / 1e3,
        "op_p95_us": p95 / 1e3,
        "p95_tail_samples": sum(1 for x in latencies if x > p95),
        "op_p99_us": p99 / 1e3,
        "p99_tail_samples": sum(1 for x in latencies if x > p99),
    }


def ledger_counts(ledgers) -> dict:
    """Hash and modexp counts keyed "scheme:phase/principal"."""
    out = {"hash": {}, "modexp": {}}
    for scheme, ledger in ledgers:
        for kind, table in (("hash", ledger.hash_calls), ("modexp", ledger.modexp_calls)):
            for (phase, principal), n in table.items():
                key = "%s:%s/%s" % (scheme, phase, principal)
                out[kind][key] = out[kind].get(key, 0) + n
    return out


def ledger_delta(after: dict, before: dict) -> dict:
    return {
        kind: {k: n - before[kind].get(k, 0) for k, n in sorted(table.items())
               if n != before[kind].get(k, 0)}
        for kind, table in after.items()
    }


def count_pass(workload_cls, small, scratch, traced) -> dict:
    """The first `count_ops` operations of the COUNT_SEED inputs, counted.

    Ledger counts always; with `traced`, also the calls at every
    wrapped layer entry point.
    """
    workload = workload_cls(COUNT_SEED, small, scratch)
    try:
        state = workload.setup()
        ledgers = workload.ledgers(state)
        setup_counts = ledger_counts(ledgers)
        tracer = spans.Tracer() if traced else None
        ok, op_hashes = True, []
        with spans.installed(tracer) if traced else nullcontext():
            stream = workload.ops(state, 0)
            for _ in range(workload.count_ops):
                item = next(stream)
                before = tracer.count("core.hash") if traced else 0
                ok = workload.run(state, item) and ok
                op_hashes.append((tracer.count("core.hash") if traced else 0) - before)
            stream.close()
            extras = (
                workload.count_extras(state, op_hashes, lambda: tracer.count("core.hash"))
                if traced else {}
            )
        result = {
            "ops": workload.count_ops,
            "ok": ok,
            "setup_ledger": setup_counts,
            "ledger": ledger_delta(ledger_counts(ledgers), setup_counts),
            "bare_valueerror_rejects": bare_rejects(state),
            "extras": extras,
        }
        if traced:
            result["calls"] = {
                name: tracer.calls[i] for i, name in enumerate(tracer.names)
            }
        return result
    finally:
        workload.close()


def checked_counts(workload_cls, small, scratch, traced):
    """Two count passes on fresh state; (counts, problems)."""
    first = count_pass(workload_cls, small, scratch, traced)
    second = count_pass(workload_cls, small, scratch, traced)
    problems = []
    if first != second:
        problems.append("counts differ between two passes over the same inputs")
    if not first["ok"]:
        problems.append("an operation of the count pass gave a wrong result")
    return first, problems


def bare_rejects(state) -> int:
    stats = getattr(state, "stats", None)
    return stats.bare_valueerror_rejects if stats else 0


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def run_untraced(workload_cls, args, scratch):
    counts, problems = checked_counts(workload_cls, args.small, scratch, traced=False)
    workload = workload_cls(args.seed, args.small, scratch)
    try:
        state, setups = timed_setups(workload, 1 if args.small else workload.setup_repeats)
        loop = timed_loop(workload, state, args.seconds)
        scaled = speed.scale(loop.cpu, loop.references)
        extras = workload.loop_extras(loop.state, scaled)
    finally:
        workload.close()
    lat = latency_stats(scaled)
    raw = latency_stats(loop.latencies)
    metrics = {
        "setup_s": statistics.median(
            cpu * speed.REFERENCE_NS / ref for cpu, _, ref in setups
        ) / 1e9,
        "ops_per_s": lat["ops_per_s"],
        "op_p50_us": lat["op_p50_us"],
        "op_p95_us": lat["op_p95_us"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "samples": lat["samples"],
        "p95_tail_samples": lat["p95_tail_samples"],
        "op_p99_us": lat["op_p99_us"],
        "p99_tail_samples": lat["p99_tail_samples"],
        "failed_share": loop.failed / lat["samples"],
        "bare_valueerror_rejects": bare_rejects(loop.state),
        "raw": {**raw, "setup_s": statistics.median(wall for _, wall, _ in setups) / 1e9},
        "setups": [[cpu / 1e9, wall / 1e9, ref] for cpu, wall, ref in setups],
        "reference": reference_info(loop.references),
        "counts": counts,
        **extras,
    }
    return metrics, END_TO_END, lat["samples"], loop.failed, problems, loop.errors, info, None


def reference_info(readings) -> dict:
    ordered = sorted(readings)
    return {
        "loops": speed.REFERENCE_LOOPS,
        "scaled_to_ns": speed.REFERENCE_NS,
        "fastest_0.1%_ns": ordered[len(ordered) // 1000],
        "median_ns": ordered[len(ordered) // 2],
    }


def run_traced(workload_cls, args, scratch):
    counts, problems = checked_counts(workload_cls, args.small, scratch, traced=True)
    half = args.seconds / 2
    workload = workload_cls(args.seed, args.small, scratch)
    tracer = spans.Tracer()
    try:
        state, _ = timed_setups(workload, 1)
        plain = timed_loop(workload, state, half)
        plain_scaled = speed.scale(plain.cpu, plain.references)
        extras = workload.loop_extras(plain.state, plain_scaled)
        del state
        plain.state = None
        with spans.installed(tracer):
            tracer.current_op = spans.SETUP_OP
            state, ((_, _, setup_ref),) = timed_setups(workload, 1)
            tracer.current_op = spans.IDLE_OP
            traced = timed_loop(workload, state, half, tracer)
    finally:
        workload.close()
    traced_f = speed.factors(traced.references)
    plain_lat = latency_stats(plain_scaled)
    traced_lat = latency_stats(speed.scale(traced.cpu, traced.references))

    n = len(traced.latencies)
    setup_f = speed.REFERENCE_NS / setup_ref

    def weight(op):
        return traced_f[op] if op >= 0 else setup_f

    loop = tracer.summary(range(n), weight)
    with_setup = tracer.summary(range(spans.SETUP_OP, n), weight)
    calls = counts["calls"]
    k = counts["ops"]
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "raised": 0, "raised_total_ns": 0}

    def self_us_per_op(*names):
        return sum(loop.get(name, empty)["self_ns"] for name in names) / n / 1e3

    def self_us_per_call(summary, name):
        row = summary.get(name, empty)
        return row["self_ns"] / row["calls"] / 1e3 if row["calls"] else 0.0

    respond = loop.get("improved.respond", empty)
    op_ns = loop["op"]["total_ns"]
    server_hashes = counts["ledger"]["hash"].get("improved:authentication/server", 0)
    metrics = {
        "trace.overhead_ratio": plain_lat["ops_per_s"] / traced_lat["ops_per_s"],
        "core.modexp.calls_per_op": calls.get("core.modexp", 0) / k,
        "core.modexp.self_us_per_op": self_us_per_op("core.modexp"),
        "core.hash.calls_per_op": calls.get("core.hash", 0) / k,
        "core.hash.self_us_per_op": self_us_per_op("core.hash"),
        "core.xor.calls_per_op": calls.get("core.xor", 0) / k,
        "core.xor.self_us_per_op": self_us_per_op("core.xor"),
        "fuzzy.rep.self_us_per_op": self_us_per_op("fuzzy.rep"),
        "fuzzy.gen.self_us_per_enroll": self_us_per_call(with_setup, "fuzzy.gen"),
        "baseline.login.self_us": self_us_per_call(loop, "baseline.login"),
        "baseline.respond.self_us": self_us_per_call(loop, "baseline.respond"),
        "baseline.finish.self_us": self_us_per_call(loop, "baseline.finish"),
        "baseline.bare_valueerror_rejects": counts["bare_valueerror_rejects"],
        "improved.login.self_us": self_us_per_call(loop, "improved.login"),
        "improved.respond.self_us": self_us_per_call(loop, "improved.respond"),
        "improved.finish.self_us": self_us_per_call(loop, "improved.finish"),
        "improved.respond.self_share": respond["self_ns"] / op_ns,
        "improved.respond.total_share": respond["total_ns"] / op_ns,
        "improved.respond.hashes_per_op": server_hashes / k,
        "improved.respond.reject_us": (
            respond["raised_total_ns"] / respond["raised"] / 1e3 if respond["raised"] else 0.0
        ),
        "improved.enroll.self_us": self_us_per_call(with_setup, "improved.enroll"),
        "channel.self_us_per_op": self_us_per_op("channel.send", "channel.recv"),
        "adversary.survey_us": extras.get("adversary.survey_us", 0.0),
        "adversary.loop_us_per_word": extras.get("adversary.loop_us_per_word", 0.0),
        "adversary.hashes_per_word": counts["extras"].get("adversary.hashes_per_word", 0),
        "scenario.run.self_us": self_us_per_op("scenario.run"),
        "files.write.self_us": self_us_per_op("files.write"),
        "files.compare.self_us": self_us_per_op("files.compare"),
    }
    info = {
        "untraced": plain_lat,
        "traced": traced_lat,
        "reference": reference_info(plain.references + traced.references),
        "spans": len(tracer.start),
        "layers": with_setup,
        "counts": counts,
        **extras,
    }
    attempted = len(plain.latencies) + n
    failed = plain.failed + traced.failed
    return (metrics, PER_LAYER, attempted, failed, problems,
            plain.errors + traced.errors, info, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        mode = run_traced if args.trace else run_untraced
        metrics, units, attempted, failed, problems, errors, info, tracer = mode(
            workload_cls, args, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for tb in errors:
        print(tb, file=sys.stderr)
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.write(OUT / ("spans-%s.bin.gz" % args.workload))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "small": args.small,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loop": "closed, 1 client, 1 process",
        "problems": problems,
        **info,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    (OUT / (tag + ".json")).write_text(
        json.dumps({"info": info, "result": result}, indent=1, sort_keys=True) + "\n"
    )
    for name, unit in units.items():
        print("%-36s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
