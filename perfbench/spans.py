"""Span recorder and the layer instrumentation of a traced run.

Spans are recorded from the benchmark's own files: :func:`instrument`
replaces each layer entry point *where its caller looks it up* (a
module global such as ``repro.optimizer.executor.evaluate_path``, or a
method on its class) with a wrapper that opens a span, calls the
original and closes the span.  :func:`instrument` returns an undo
callable that puts every original back.  Nothing under ``src/`` is
touched.

A span holds its name, start, end, parent and request id.  Spans live in
flat integer arrays (a traced run can record about a million of
them) and are written out once, at the end, by :meth:`Recorder.dump`.
Self time is a span's duration minus the part of it that its children
cover (:meth:`Recorder.aggregate`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_NO_SPAN = -1


class Recorder:
    """In-memory span store plus the counters measured at the same
    boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=_NO_SPAN)
        self._request = contextvars.ContextVar("perfbench_request", default=0)
        #: Parent for spans opened on threads that inherited no context
        #: (the portfolio's thread lanes): the span that started them.
        self.orphan_parent = _NO_SPAN

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def set_request(self, request_id: int) -> None:
        """Tag the spans the current task opens from now on."""
        self._request.set(request_id)

    def open(self, nid: int):
        parent = self._current.get()
        if parent == _NO_SPAN:
            parent = self.orphan_parent
        request = self._request.get()
        # Portfolio lanes open spans from several threads: the five
        # appends must land at one index.
        with self._lock:
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(request)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        return index, self._current.set(index)

    def close(self, index: int, token, nid: Optional[int] = None) -> None:
        self.end[index] = time.perf_counter_ns()
        if nid is not None:
            self.name[index] = nid
        self._current.reset(token)

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, total_ms, self_ms}}``.  Children may
        overlap each other (thread lanes), so the covered part of a
        parent is the union of its children's intervals."""
        count = len(self.start)
        children: Dict[int, List[Tuple[int, int]]] = {}
        for index in range(count):
            parent = self.parent[index]
            if parent != _NO_SPAN:
                children.setdefault(parent, []).append(
                    (self.start[index], self.end[index])
                )
        out: Dict[str, Dict[str, float]] = {}
        for index in range(count):
            start, end = self.start[index], self.end[index]
            covered = 0
            kids = children.get(index)
            if kids:
                cursor = start
                for child_start, child_end in sorted(kids):
                    child_start = max(child_start, cursor)
                    child_end = min(child_end, end)
                    if child_end > child_start:
                        covered += child_end - child_start
                        cursor = child_end
            entry = out.setdefault(
                self.names[self.name[index]],
                {"calls": 0, "total_ms": 0.0, "self_ms": 0.0},
            )
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - covered) / 1e6
        return out

    def dump(self, path: str) -> None:
        """Write every span as ``name,start_ns,end_ns,parent,request``
        lines after a header of span names (index = name id)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# names: " + "|".join(self.names) + "\n")
            handle.write("name,start_ns,end_ns,parent,request\n")
            for row in zip(
                self.name, self.start, self.end, self.parent, self.request
            ):
                handle.write("%d,%d,%d,%d,%d\n" % row)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def spanned(recorder: Recorder, name: str, fn: Callable) -> Callable:
    nid = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index, token = recorder.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index, token)

    return wrapper


def counted(recorder: Recorder, name: str, fn: Callable) -> Callable:
    counters = recorder.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _execute(recorder: Recorder, fn: Callable) -> Callable:
    """``Executor.execute``: the span is named after whether the plan
    used an index, and rows / documents examined are counted."""
    from repro.query.model import JoinQuery, Query

    reads = (Query, JoinQuery)
    running = recorder.name_id("optimizer.execute.running")
    indexed = recorder.name_id("optimizer.execute.indexed")
    scan = recorder.name_id("optimizer.execute.scan")
    dml = recorder.name_id("optimizer.execute.dml")

    @functools.wraps(fn)
    def wrapper(self, statement, *args, **kwargs):
        index, token = recorder.open(running)
        final = dml
        try:
            result = fn(self, statement, *args, **kwargs)
            if isinstance(statement, reads):
                final = indexed if result.used_indexes else scan
                recorder.count("optimizer.execute.rows", result.rows)
                recorder.count(
                    "optimizer.execute.docs_examined", result.docs_examined
                )
            return result
        finally:
            recorder.close(index, token, final)

    return wrapper


def _lane(recorder: Recorder, fn: Callable) -> Callable:
    """A portfolio lane (``serve.portfolio._run_variant``), named after
    its strategy; lanes run on threads, so they adopt the portfolio
    span as parent."""

    @functools.wraps(fn)
    def wrapper(database, entries, spec, *args, **kwargs):
        nid = recorder.name_id(f"serve.portfolio.{spec.algorithm}")
        index, token = recorder.open(nid)
        try:
            return fn(database, entries, spec, *args, **kwargs)
        finally:
            recorder.close(index, token)

    return wrapper


def _portfolio(recorder: Recorder, fn: Callable) -> Callable:
    nid = recorder.name_id("serve.run_portfolio")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index, token = recorder.open(nid)
        previous, recorder.orphan_parent = recorder.orphan_parent, index
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.orphan_parent = previous
            recorder.close(index, token)

    return wrapper


class SessionLedger:
    """Optimizer-session counters summed over every session that served
    a ``recommend`` (each advisor owns one; the latest ``stats()`` of a
    session is its running total)."""

    def __init__(self) -> None:
        self._keys = itertools.count(1)
        self.latest: Dict[int, Dict] = {}
        self.recommendations: List = []

    def wrap(self, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(advisor, *args, **kwargs):
            recommendation = fn(advisor, *args, **kwargs)
            session = advisor.session
            key = getattr(session, "_perfbench_key", None)
            if key is None:
                key = next(ledger._keys)
                session._perfbench_key = key
            ledger.latest[key] = session.stats()
            ledger.recommendations.append(recommendation)
            return recommendation

        return wrapper

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for stats in self.latest.values():
            for key in ("optimizer_calls", "cache_hits", "cache_misses"):
                out[key] = out.get(key, 0) + stats.get(key, 0)
            workers = stats.get("workers")
            if workers:
                for key in ("batches", "parallel_batches"):
                    out[key] = out.get(key, 0) + workers.get(key, 0)
                for key, value in workers.get("shipping", {}).items():
                    out[f"shipping.{key}"] = (
                        out.get(f"shipping.{key}", 0) + value
                    )
        return out


def _patch(patches: List, owner, attribute: str, wrapper_factory) -> None:
    original = getattr(owner, attribute)
    patches.append((owner, attribute, original))
    setattr(owner, attribute, wrapper_factory(original))


def instrument(recorder: Recorder, ledger: SessionLedger) -> Callable[[], None]:
    """Wrap every measured layer entry point; returns the undo."""
    import repro.core.advisor as advisor_mod
    import repro.core.search as search_mod
    import repro.online.daemon as daemon_mod
    import repro.online.window as window_mod
    import repro.optimizer.executor as executor_mod
    import repro.optimizer.optimizer as optimizer_mod
    import repro.parallel.session as parallel_mod
    import repro.query.workload as workload_mod
    import repro.serve.portfolio as portfolio_mod
    import repro.serve.server as server_mod
    import repro.storage.database as database_mod
    import repro.storage.index as index_mod
    import repro.storage.snapshots as snapshots_mod
    import repro.storage.statistics as statistics_mod
    import repro.xpath.evaluator as evaluator_mod

    patches: List = []

    def span(owner, attribute, name):
        _patch(patches, owner, attribute, lambda fn: spanned(recorder, name, fn))

    # xmlmodel / query / xpath
    span(database_mod, "parse_document", "xmlmodel.parse_document")
    for module in (workload_mod, server_mod, window_mod):
        span(module, "parse_statement", "query.parse_statement")
    span(executor_mod, "evaluate_path", "xpath.evaluate_path")
    _patch(
        patches, evaluator_mod, "evaluate_predicate",
        lambda fn: counted(recorder, "xpath.evaluate_predicate.calls", fn),
    )
    # storage
    span(database_mod, "collect_statistics", "storage.collect_statistics")
    for module in (database_mod, statistics_mod, index_mod):
        span(module, "get_synopsis", "storage.get_synopsis")
    Database = database_mod.Database
    span(Database, "insert_document", "storage.insert_document")
    span(Database, "delete_document", "storage.delete_document")
    span(Database, "create_index", "storage.create_index")
    span(snapshots_mod.SnapshotStore, "snapshot", "storage.snapshots.snapshot")
    # optimizer
    _patch(patches, executor_mod.Executor, "execute", lambda fn: _execute(recorder, fn))
    span(optimizer_mod.Optimizer, "optimize", "optimizer.optimize")
    # core
    span(advisor_mod, "compress_workload", "core.compress_workload")
    span(advisor_mod, "enumerate_basic_candidates", "core.enumerate_basic_candidates")
    span(advisor_mod, "generalize_candidates", "core.generalize_candidates")
    span(advisor_mod.IndexAdvisor, "recommend", "core.recommend")
    _patch(patches, advisor_mod.IndexAdvisor, "recommend", ledger.wrap)
    algorithms = search_mod.ALGORITHMS
    originals = dict(algorithms)
    for name, fn in originals.items():
        algorithms[name] = spanned(recorder, f"core.search.{name}", fn)
    # parallel / online / serve
    span(parallel_mod.ParallelWhatIfSession, "evaluate_batch", "parallel.evaluate_batch")
    span(daemon_mod.OnlineAdvisor, "ingest", "online.ingest")
    span(daemon_mod.OnlineAdvisor, "run_cycle", "online.run_cycle")
    _patch(patches, portfolio_mod, "_run_variant", lambda fn: _lane(recorder, fn))
    _patch(patches, server_mod, "run_portfolio", lambda fn: _portfolio(recorder, fn))

    def undo() -> None:
        while patches:
            owner, attribute, original = patches.pop()
            setattr(owner, attribute, original)
        algorithms.update(originals)

    return undo


def collect_recommendations(ledger: SessionLedger) -> Callable[[], None]:
    """Only the recommendation ledger (untraced runs that need the
    estimated speedups of recommendations made inside the program)."""
    import repro.core.advisor as advisor_mod

    patches: List = []
    _patch(patches, advisor_mod.IndexAdvisor, "recommend", ledger.wrap)

    def undo() -> None:
        while patches:
            owner, attribute, original = patches.pop()
            setattr(owner, attribute, original)

    return undo
