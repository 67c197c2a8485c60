"""In-memory span tracer for the benchmark's traced mode.

The benchmark measures the triauth layers only from outside: it swaps
the public entry points listed by ``layer_targets`` for wrappers that
record a span per call, and puts the originals back afterwards.  The
program itself carries no tracing code.

A span is (parent, operation, name, start, end, raised).  Spans live in
flat ``array`` columns so that a million of them stay a few tens of MB,
and they are written to disk once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

SETUP_OP = -1  # spans recorded while the workload builds its state
IDLE_OP = -2  # spans recorded between operations (input generation)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.calls: list[int] = []  # per name id, spans opened so far
        self.current_op = IDLE_OP
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.name.append(nid)
        self.end.append(0)
        self.raised.append(0)
        self.calls[nid] += 1
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter_ns()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                tracer.close(idx, raised)

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    # -- analysis --------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        selfs = array("q", own)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                selfs[parent] -= own[idx]
        return selfs

    def summary(self, ops: range, weight=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self ns, and raised count.

        Only spans of the operations in ``ops`` count (set-up spans
        carry ``SETUP_OP``).  ``weight(op)`` scales each span's times.
        """
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx in range(len(self.start)):
            op = self.op[idx]
            if op not in ops:
                continue
            w = weight(op) if weight else 1.0
            name = self.names[self.name[idx]]
            row = out.get(name)
            if row is None:
                row = out[name] = {
                    "calls": 0, "total_ns": 0, "self_ns": 0,
                    "raised": 0, "raised_total_ns": 0,
                }
            dur = (self.end[idx] - self.start[idx]) * w
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += selfs[idx] * w
            if self.raised[idx]:
                row["raised"] += 1
                row["raised_total_ns"] += dur
        return out

    def write(self, path) -> None:
        """Gzip file: one JSON header line, then the raw span columns.

        Read it back with :func:`load`.
        """
        columns = ("parent", "op", "name", "start", "end", "raised")
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                fh.write(getattr(self, column).tobytes())


def load(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of :meth:`Tracer.write`: (names, columns by field)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        columns = {}
        for column, typecode in header["columns"]:
            col = array(typecode)
            col.frombytes(fh.read(n * col.itemsize))
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            columns[column] = col
    return header["names"], columns


# ---------------------------------------------------------------------------
# Layer entry points
# ---------------------------------------------------------------------------

def layer_targets():
    """(owner, attribute, span name) for every wrapped entry point.

    Functions are replaced wherever a triauth module bound them (the
    scheme modules import ``gen``/``rep`` by name); methods on their
    class.
    """
    from triauth import adversary, baseline, channel, core, fuzzy, improved, scenario

    return [
        (core.HashEngine, "__call__", "core.hash"),
        (core, "mod_exp", "core.modexp"),
        (core.Field128, "__xor__", "core.xor"),
        (core.Field128, "__rxor__", "core.xor"),
        (fuzzy, "rep", "fuzzy.rep"),
        (fuzzy, "gen", "fuzzy.gen"),
        (baseline, "register", "baseline.register"),
        (baseline, "login", "baseline.login"),
        (baseline, "finish", "baseline.finish"),
        (baseline.BaselineServer, "enroll", "baseline.enroll"),
        (baseline.BaselineServer, "respond", "baseline.respond"),
        (improved, "register", "improved.register"),
        (improved, "login", "improved.login"),
        (improved, "finish", "improved.finish"),
        (improved.ImprovedServer, "enroll", "improved.enroll"),
        (improved.ImprovedServer, "respond", "improved.respond"),
        (channel.SimChannel, "send", "channel.send"),
        (channel.SimChannel, "recv", "channel.recv"),
        (adversary, "attack_baseline", "adversary.attack_baseline"),
        (adversary, "attack_improved", "adversary.attack_improved"),
        (scenario, "run_scenario", "scenario.run"),
        (scenario, "write_result", "files.write"),
        (scenario, "compare_with_recording", "files.compare"),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Swap every layer entry point for a traced wrapper, then restore."""
    saved = []
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "triauth" or name.startswith("triauth."))
    ]
    try:
        for owner, attr, span_name in layer_targets():
            original = owner.__dict__[attr]
            wrapper = tracer.wrap(span_name, original)
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
