"""Spans around the package's layer boundaries, installed from outside.

The traced run wraps the public entry point of each layer (see
:data:`BOUNDARIES`) for the length of one pass and removes the wrappers
afterwards; nothing under ``src/`` changes.  A span records its name,
start, end, parent span and request id.  The request id is the sequence
number of the operation the benchmark's single client has in flight.
Threads other than the client's (the sharded cluster's coordinator loop
and shard servers) start their span trees under the client's innermost
open span, which with one request in flight is the request that caused
them.

Spans stay in memory; :meth:`Tracer.dump` writes them out when the run
ends.  A layer's self time is its spans' duration minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: boundary name -> [(owner, attribute)]; an owner is ``module`` or
#: ``module:Class``.  A function imported by name into several modules is
#: wrapped at every binding site the broker calls it through.
BOUNDARIES = {
    "ltl.parse": [
        ("repro.broker.database", "parse"),
        ("repro.broker.parallel", "parse"),
        ("repro.broker.persist", "parse"),
        ("repro.dist.coordinator", "parse"),
        ("repro.dist.protocol", "parse"),
    ],
    # split into .query / .contract by whether a compile span is open
    "automata.translate": [
        ("repro.broker.database", "translate"),
        ("repro.broker.cache", "translate"),
        ("repro.broker.parallel", "translate"),
    ],
    "automata.encode": [
        ("repro.broker.database", "encode_automaton"),
        ("repro.broker.cache", "encode_automaton"),
        ("repro.broker.persist", "encode_automaton"),
        ("repro.projection.store", "encode_automaton"),
    ],
    "core.seeds": [
        ("repro.broker.database", "compute_seeds"),
        ("repro.projection.store", "compute_seeds"),
    ],
    "projection.build": [("repro.projection.store:ProjectionStore", "__init__")],
    "projection.select": [
        ("repro.projection.store:ProjectionStore", "select_artifacts"),
    ],
    "index.insert": [("repro.index.prefilter:PrefilterIndex", "add_contract")],
    "index.remove": [("repro.index.prefilter:PrefilterIndex", "remove_contract")],
    "index.evaluate": [("repro.index.prefilter:PrefilterIndex", "evaluate")],
    "core.decide": [("repro.broker.database", "permits_encoded")],
    "core.decide_object": [("repro.broker.database", "permits")],
    "broker.register": [("repro.broker.database:ContractDatabase", "register")],
    "broker.query": [
        ("repro.broker.database:ContractDatabase", "query"),
        ("repro.broker.database:ContractDatabase", "query_many"),
    ],
    "broker.compile": [
        ("repro.broker.cache:QueryCompilationCache", "compile"),
    ],
    "broker.plan": [("repro.broker.planner:QueryPlanner", "plan")],
    "broker.journal": [("repro.broker.journal:Journal", "append")],
    "broker.save": [("repro.broker.persist", "save_database")],
    "broker.load": [
        ("repro.broker.persist", "load_database"),
        ("repro.broker.journal", "open_database"),
    ],
    "stream.ingest": [("repro.stream.engine:FleetMonitor", "ingest")],
    "stream.fleet": [
        ("repro.broker.database:ContractDatabase", "monitor_fleet"),
    ],
    "dist.client": [
        ("repro.dist.coordinator:DistributedDatabase", "query"),
        ("repro.dist.coordinator:DistributedDatabase", "ingest"),
        ("repro.dist.coordinator:DistributedDatabase", "register"),
    ],
    "dist.encode": [("repro.dist.protocol", "encode_frame")],
    "dist.decode": [("repro.dist.protocol", "decode_payload")],
    "dist.server": [("repro.dist.server:ShardServer", "handle_request")],
    "dist.merge": [("repro.dist.coordinator:Coordinator", "_merge")],
}

#: every span name the ledger reports (translate is split in two)
SPAN_NAMES = tuple(
    sub
    for name in BOUNDARIES
    for sub in (
        (f"{name}.query", f"{name}.contract")
        if name == "automata.translate" else (name,)
    )
)

COUNTERS = ("fsyncs", "journal_appends", "compile_hits",
            "compile_requests", "plan_hits", "plan_requests",
            "selected_states", "full_states")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, parent, request):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self.fsyncs = 0
        self.journal_appends = 0
        self.compile_hits = 0
        self.compile_requests = 0
        self.plan_hits = 0
        self.plan_requests = 0
        self.selected_states = 0
        self.full_states = 0
        self._local = threading.local()
        self._client_stack: list[Span] | None = None
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def mark(self) -> int:
        """A position in the span list, for :meth:`total`'s ranges."""
        return len(self.spans)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif stack is self._client_stack:
            parent = None
        else:
            try:
                parent = self._client_stack[-1].sid
            except IndexError:  # the client span closed meanwhile
                parent = None
        span = Span(next(self._ids), name, parent, self.request)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _in(self, name: str) -> bool:
        return any(s.name == name for s in self._stack())

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "automata.translate":
                span_name = name + (
                    ".query" if tracer._in("broker.compile") else ".contract"
                )
            span = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters observed at the same boundaries -------------------------------

    def _observe_compile(self, args, result):
        self.compile_requests += 1
        self.compile_hits += bool(result[1])

    def _observe_journal(self, args, result):
        self.journal_appends += 1

    def _observe_select(self, args, result):
        store = args[0]
        self.selected_states += result[0].num_states
        self.full_states += store.ba.num_states

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every boundary; the calling thread becomes the client."""
        self._client_stack = self._stack()
        observers = {
            "broker.compile": self._observe_compile,
            "broker.journal": self._observe_journal,
            "projection.select": self._observe_select,
        }
        for name, sites in BOUNDARIES.items():
            for site, attribute in sites:
                owner = _resolve(site)
                self._patch(owner, attribute, self.wrap(
                    name, getattr(owner, attribute), observers.get(name)
                ))
        from repro.broker.cache import QueryPlanCache

        get = QueryPlanCache.get

        def plan_cache_get(cache, key):
            result = get(cache, key)
            self.plan_requests += 1
            self.plan_hits += result is not None
            return result

        self._patch(QueryPlanCache, "get", plan_cache_get)
        fsync = os.fsync

        def counted_fsync(fd):
            self.fsyncs += 1
            return fsync(fd)

        self._patch(os, "fsync", counted_fsync)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- the ledger -------------------------------------------------------------

    def ledger(self) -> dict:
        """``{name: {"calls": n, "self_s": seconds}}`` for every span
        name, zero for layers the pass never entered."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            covered = _covered(span, children.get(span.sid, ()))
            row["self_s"] += (span.end - span.start) - covered
        return out

    def total(self, name: str, parent: str | None = None,
              span_range: tuple[int, int] | None = None) -> float:
        """Summed duration of ``name`` spans closed within ``span_range``
        (:meth:`mark` positions), optionally only those whose parent is
        a ``parent`` span."""
        spans = self.spans[slice(*span_range)] if span_range else self.spans
        names = {s.sid: s.name for s in self.spans}
        return sum(
            s.end - s.start for s in spans
            if s.name == name
            and (parent is None or names.get(s.parent) == parent)
        )

    def counters(self) -> dict:
        """The counters observed at the boundaries, as of now."""
        return {name: getattr(self, name) for name in COUNTERS}

    def wait_seconds(self, span_range: tuple[int, int]) -> float:
        """Per client request, the client span's duration minus the
        slowest shard's server span under it, summed over the spans
        closed within ``span_range``."""
        spans = self.spans[slice(*span_range)]
        slowest: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.name == "dist.server" and span.parent is not None:
                slowest[span.parent] = max(
                    slowest[span.parent], span.end - span.start
                )
        return sum(
            (s.end - s.start) - slowest[s.sid] for s in spans
            if s.name == "dist.client" and s.sid in slowest
        )

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "request": s.request, "start": s.start, "end": s.end,
                }) + "\n")


def _resolve(site: str):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals, clipped to the
    span's own interval (children on other threads may overlap)."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
