"""In-memory span tracing of the store's layers, from outside ``src/``.

:class:`Tracer` replaces selected functions and methods of the
program with thin wrappers while it is installed.  Each wrapped call
records one span: name (its first part names the layer), start and
end (``perf_counter_ns``),
the index of its parent span, the operation id it belongs to (the
top-level user call that caused it) and an optional work count.  The
spans stay in memory and are written out as JSON lines when the run
ends.  A span's self time is its duration minus the time its child
spans cover; calls are single-threaded and strictly nested, so the
children's durations simply add up.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

#: Span names of the user-visible entry points; a call to one of them
#: with no enclosing span starts a new operation.
USER_OPS = ("ess.put", "ess.bulk_load", "ess.get", "ess.delete",
            "ess.search", "ess.search_batch")


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # id of the user operation, 0 outside any
    count: int = 1
    children_ns: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration - self.children_ns


def _hits(result: Any) -> int:
    """Hits a scan shipped back: a list of hits for one pattern, a
    list of per-bucket report lists for a batch."""
    return sum(len(item) if isinstance(item, list) else 1
               for item in result)


def _targets() -> list[tuple[Any, str, str, Callable | None,
                             Callable | None]]:
    """(owner, attribute, span name, count-from-args, count-from-result)
    for every boundary the benchmark traces."""
    from repro.core.index import IndexPipeline
    from repro.core.scheme import EncryptedSearchableStore as Store
    from repro.core.search import (HitAggregator, MultiPlanScanMatcher,
                                   PlanScanMatcher)
    from repro.crypto.modes import CtrCipher
    from repro.net import wire
    from repro.net.live import LiveNetwork
    from repro.net.simulator import Network
    from repro.sdds.lhstar import LHStarFile

    return [
        (Store, "put", "ess.put", None, None),
        (Store, "bulk_load", "ess.bulk_load",
         lambda a, k: len(a[1]), None),
        (Store, "get", "ess.get", None, None),
        (Store, "delete", "ess.delete", None, None),
        (Store, "search", "ess.search", None, None),
        (Store, "search_batch", "ess.search_batch", None, None),
        (IndexPipeline, "build_index_streams", "index.build", None, None),
        (IndexPipeline, "plan_query", "index.plan", None, None),
        (CtrCipher, "encrypt", "crypto.encrypt", None, None),
        (CtrCipher, "decrypt", "crypto.decrypt", None, None),
        (LHStarFile, "insert", "lh.insert", None, None),
        (LHStarFile, "lookup", "lh.lookup", None, None),
        (LHStarFile, "delete", "lh.delete", None, None),
        (LHStarFile, "run_concurrent", "lh.run_concurrent",
         lambda a, k: len(a[1]), None),
        (LHStarFile, "scan", "lh.scan", None, _hits),
        (PlanScanMatcher, "match_bucket", "match.bucket", None, None),
        (MultiPlanScanMatcher, "match_bucket", "match.bucket",
         None, None),
        (HitAggregator, "add_all", "agg.add", None, None),
        (HitAggregator, "candidates", "agg.candidates", None, None),
        (Network, "run", "net.run", None, None),
        (LiveNetwork, "run", "net.run", None, None),
        (wire, "encode_frame", "wire.encode", None, None),
        (wire, "decode_frame_body", "wire.decode", None, None),
    ]


class Tracer:
    """Records spans while installed; dormant (and unwrapped) otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    def _wrap(self, name: str, func: Callable,
              count_args: Callable | None,
              count_result: Callable | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack:
                parent = stack[-1]
                op = spans[parent].op
            elif name in USER_OPS:
                parent = -1
                self._ops += 1
                op = self._ops
            else:
                # Work outside any user operation (cluster start-up
                # pings, store construction) belongs to operation 0.
                parent = -1
                op = 0
            span = Span(name, clock(), 0, parent, op)
            if count_args is not None:
                span.count = count_args(args, kwargs)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if parent >= 0:
                    spans[parent].children_ns += span.duration
            if count_result is not None:
                span.count = count_result(result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Wrap every traced boundary for the enclosed block."""
        originals = []
        try:
            for owner, attr, name, count_args, count_result in _targets():
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original,
                                                count_args, count_result))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "start_ns": span.start,
                    "end_ns": span.end, "parent": span.parent,
                    "op": span.op, "count": span.count,
                    "self_ns": span.self_ns,
                }) + "\n")


def span_cost_ns(calls: int = 2000, blocks: int = 10) -> float:
    """What recording one span adds to a call, in ns: blocks of calls
    to an empty function, bare and wrapped (nested in a traced call,
    as most spans are), alternating; the median difference per call."""
    tracer = Tracer()

    def empty() -> None:
        pass

    def block(func: Callable[[], None]) -> int:
        start = time.perf_counter_ns()
        for __ in range(calls):
            func()
        return time.perf_counter_ns() - start

    outer = tracer._wrap("ess.get", block, None, None)
    inner = tracer._wrap("index.plan", empty, None, None)
    differences = []
    for number in range(blocks):
        order = (empty, inner) if number % 2 else (inner, empty)
        took = {func: outer(func) for func in order}
        differences.append((took[inner] - took[empty]) / calls)
    differences.sort()
    return differences[len(differences) // 2]


class LayerTotals:
    """Per-span-name totals of a finished trace, split by the kind of
    user operation each span belongs to."""

    def __init__(self, spans: list[Span]) -> None:
        self.op_kind: dict[int, str] = {}
        self.user_ops: dict[str, int] = {}
        for span in spans:
            if span.parent < 0 and span.op:
                self.op_kind[span.op] = span.name
                self.user_ops[span.name] = (
                    self.user_ops.get(span.name, 0) + 1)
        # (name, op kind or None for all) -> [calls, count, total, self]
        self._totals: dict[tuple[str, str | None], list[int]] = {}
        for span in spans:
            kind = self.op_kind.get(span.op)
            name = span.name
            if name == "ess.get" and span.parent >= 0:
                name = "verify.get"
            for key in {(name, None), (name, kind)}:
                row = self._totals.setdefault(key, [0, 0, 0, 0])
                row[0] += 1
                row[1] += span.count
                row[2] += span.duration
                row[3] += span.self_ns

    def _row(self, name: str, kind: str | None) -> list[int]:
        return self._totals.get((name, kind), [0, 0, 0, 0])

    def calls(self, name: str, kind: str | None = None) -> int:
        return self._row(name, kind)[0]

    def count(self, name: str, kind: str | None = None) -> int:
        return self._row(name, kind)[1]

    def total_ns(self, name: str, kind: str | None = None) -> int:
        return self._row(name, kind)[2]

    def self_ns(self, name: str, kind: str | None = None) -> int:
        return self._row(name, kind)[3]
