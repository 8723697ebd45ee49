"""Workload-independent pieces of the benchmark: percentiles, digests,
metric names, the interpreter calibration kernel, and the span tracer.

Nothing here imports numpy or icevision_kit, so the tests of these helpers
run without the program under benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    if not METRIC_NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supports_percentile(count: int, q: float) -> bool:
    """True when the q-th percentile of ``count`` samples has at least
    ``TAIL_MIN_BEYOND`` samples beyond it (p90 needs 100 samples)."""
    return count > 0 and samples_beyond(count, q) >= TAIL_MIN_BEYOND


def digest(*parts) -> str:
    """SHA-256 over length-prefixed parts; str parts are UTF-8 encoded, so
    moving a byte from one part to the next changes the digest."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else bytes(part)
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def file_digest(path) -> str:
    return digest(Path(path).read_bytes())


@dataclass
class ItemResult:
    """What one loop item did: timed latency, work units, operations."""

    key: str
    elapsed: float  # seconds spent in program calls, verification excluded
    work: int  # units of the workload's throughput
    ops: int  # operations counted in attempted/failed
    digest: str
    ok: bool = True  # invariants other than the digest held
    latencies_ms: list[float] = field(default_factory=list)
    scale: float = 1.0  # multiplies a time to the reference machine speed


def tally(results, expected) -> tuple[int, int]:
    """(attempted, failed) operations.  ``expected(key)`` gives the recorded
    digest of an item; a different digest or a broken invariant fails
    every operation of the item."""
    attempted = failed = 0
    for r in results:
        attempted += r.ops
        if not r.ok or r.digest != expected(r.key):
            failed += r.ops
    return attempted, failed


class Metrics:
    """Ordered name -> (value, unit) table, printed by name with its unit."""

    def __init__(self):
        self._items: dict[str, tuple[float, str]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        check_metric_name(name)
        if not UNIT_RE.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        if name in self._items:
            raise ValueError(f"metric {name} reported twice")
        self._items[name] = (float(value), unit)

    def as_json(self, names) -> dict:
        return {n: {"value": self._items[n][0], "unit": self._items[n][1]} for n in names}

    def lines(self) -> list[str]:
        return [f"  {name:34s} {value:>16.6g} {unit}" for name, (value, unit) in self._items.items()]


# --------------------------------------------------------------------------
# Machine-speed calibration
#
# The machine is shared, and its speed drifts by 10-20% over minutes.
# Between loop items a run times a fixed kernel; an item's time multiplied
# by the kernel's reference time over the kernel's time around the item is
# its time at reference speed.  Reference times are the kernels' medians
# inside the benchmark loops on the 2-core Xeon VM (Python 3.11, numpy 2.4)
# the benchmark was tuned on.


class PythonKernel:
    """Interpreter-bound kernel, for the object-heavy workloads."""

    ref_ms = 15.0

    def __call__(self) -> None:
        counts: dict[int, int] = {}
        for i in range(20_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            f"{i:.3f}"


# --------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    Spans nest by call order (single thread), so a span's parent is the
    span open when it started.  Counters sit next to the spans.  Nothing
    is written until :meth:`dump`.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str, item: str = "-") -> "_SpanContext":
        return _SpanContext(self, name, item)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by child
        spans, over spans recorded from index ``since`` on."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans[since:]:
            if s.parent is not None and s.parent >= since:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i in range(since, len(self.spans)):
            s = self.spans[i]
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        return out

    def top_level_time(self, since: int = 0) -> float:
        return sum(s.end - s.start for s in self.spans[since:] if s.parent is None or s.parent < since)

    def dump(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item,
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "item", "index")

    def __init__(self, tracer: Tracer, name: str, item: str):
        self.tracer, self.name, self.item = tracer, name, item

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append(Span(self.name, time.perf_counter(), 0.0, parent, self.item))
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index].end = time.perf_counter()
        t._open.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def span(tracer: Tracer | None, name: str, item: str = "-"):
    """A span when tracing, a free no-op context otherwise."""
    return _NO_SPAN if tracer is None else tracer.span(name, item)


def count(tracer: Tracer | None, name: str, n: int = 1) -> None:
    if tracer is not None:
        tracer.count(name, n)
