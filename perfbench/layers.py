"""Per-layer metrics of the traced run, and the end-to-end metric and
workload each one should move.

Every span name gives three metrics: ``<span>.calls`` (count),
``<span>.total_ms`` and ``<span>.self_ms`` (self time: the span's
duration minus what its child spans cover).  Counter metrics come from
the program's own counters, read at the end of the traced timed phase.
Every workload reports every metric; a layer a workload does not reach
reads 0 there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

ALGORITHMS = ("greedy", "greedy_heuristics", "topdown_lite", "topdown_full", "dp", "ilp")
PORTFOLIO = ("greedy", "greedy_heuristics", "ilp")
SERVE_KINDS = ("query", "dml", "whatif", "recommend")

#: (span names, end-to-end metric(s) they should move, workload(s)).
SPANS: List[Tuple[Tuple[str, ...], str, str]] = [
    (("xmlmodel.parse_document",), "setup_s; serve dml latency", "all; serve"),
    (("query.parse_statement",), "ops_per_s; p50_ms", "online; serve"),
    (("xpath.evaluate_path",), "p50_ms, tail_ms", "serve"),
    (("storage.collect_statistics", "storage.get_synopsis"), "first_ms (printed, not gated)", "advise"),
    (("storage.insert_document", "storage.delete_document"), "serve dml latency", "serve"),
    (("storage.create_index",), "setup_s; p50_ms (cycles)", "serve; online"),
    (("storage.snapshots.snapshot",), "ops_per_s (whatif, recommend)", "serve"),
    (("optimizer.execute.indexed",), "p50_ms", "serve"),
    (("optimizer.execute.scan",), "tail_ms", "serve"),
    (("optimizer.optimize",), "first_ms (printed, not gated)", "serve"),
    (
        ("core.compress_workload", "core.enumerate_basic_candidates", "core.generalize_candidates"),
        "p50_ms",
        "advise",
    ),
    (tuple(f"core.search.{name}" for name in ALGORITHMS), "p50_ms, tail_ms", "advise"),
    (("parallel.evaluate_batch",), "p50_ms (cycles), ops_per_s", "online"),
    (("online.ingest", "online.run_cycle"), "p50_ms (cycles), ops_per_s", "online"),
    (tuple(f"serve.portfolio.{name}" for name in PORTFOLIO), "ops_per_s (recommend)", "serve"),
]

#: (counter metric, unit, better, moves, on).
COUNTERS: List[Tuple[str, str, str, str, str]] = [
    ("xpath.evaluate_predicate.calls", "count", "lower", "tail_ms", "serve"),
    ("storage.snapshots.hits", "count", "higher", "ops_per_s (whatif, recommend)", "serve"),
    ("storage.snapshots.misses", "count", "lower", "ops_per_s (whatif, recommend)", "serve"),
    ("storage.snapshots.bytes_serialized", "bytes", "lower", "ops_per_s (whatif, recommend)", "serve"),
    ("storage.snapshots.hit_ratio", "ratio", "higher", "ops_per_s (whatif, recommend)", "serve"),
    ("storage.epoch_gate.reads_validated", "count", "higher", "tail_ms", "serve"),
    ("storage.epoch_gate.reads_torn", "count", "lower", "tail_ms", "serve"),
    ("storage.epoch_gate.reads_refused", "count", "lower", "tail_ms", "serve"),
    ("storage.epoch_gate.reads_backoff_waits", "count", "lower", "tail_ms", "serve"),
    ("storage.epoch_gate.validated_ratio", "ratio", "higher", "tail_ms", "serve"),
    ("optimizer.execute.docs_examined_per_row", "ratio", "lower", "p50_ms, tail_ms", "serve"),
    ("optimizer.whatif.calls", "count", "lower", "p50_ms; p50_ms (cycles)", "advise; online"),
    ("optimizer.whatif.cache_hits", "count", "higher", "p50_ms; p50_ms (cycles)", "advise; online"),
    ("optimizer.whatif.hit_ratio", "ratio", "higher", "p50_ms; p50_ms (cycles)", "advise; online"),
    ("parallel.shipping.base_ships", "count", "lower", "p50_ms (cycles)", "online"),
    ("parallel.shipping.base_bytes", "bytes", "lower", "p50_ms (cycles)", "online"),
    ("parallel.shipping.delta_syncs", "count", "lower", "p50_ms (cycles)", "online"),
    ("parallel.shipping.delta_bytes", "bytes", "lower", "p50_ms (cycles)", "online"),
    ("parallel.parallel_batch_ratio", "ratio", "higher", "p50_ms (cycles)", "online"),
    ("online.cycles_tuned", "count", "lower", "p50_ms (cycles), ops_per_s", "online"),
    ("online.skipped_no_drift", "count", "higher", "ops_per_s", "online"),
    ("online.applies", "count", "lower", "p50_ms (cycles)", "online"),
    ("online.rollbacks", "count", "lower", "p50_ms (cycles)", "online"),
    ("serve.admission.rejected", "count", "lower", "ok_share", "serve"),
    ("trace.overhead", "ratio", "lower", "(none: traced wall time over untraced)", "all"),
]
for _kind in SERVE_KINDS:
    COUNTERS.append(
        (f"serve.{_kind}.server_ms", "ms", "lower", "ops_per_s; p50_ms, tail_ms", "serve")
    )
    COUNTERS.append(
        (f"serve.{_kind}.wait_ms", "ms", "lower", "tail_ms", "serve")
    )

_SPAN_METRICS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))


def catalogue() -> List[Dict[str, str]]:
    """Every per-layer metric with unit, direction, the end-to-end
    metric it should move and the workload it moves it on."""
    out: List[Dict[str, str]] = []
    for names, moves, on in SPANS:
        for span in names:
            for suffix, unit in _SPAN_METRICS:
                out.append(
                    {"name": f"{span}.{suffix}", "unit": unit, "better": "lower",
                     "moves": moves, "on": on}
                )
    for name, unit, better, moves, on in COUNTERS:
        out.append({"name": name, "unit": unit, "better": better, "moves": moves, "on": on})
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(spans: Dict[str, Dict[str, float]], counters: Dict[str, float],
              ledger_totals: Dict[str, float], workload_counters: Dict[str, float],
              overhead: float) -> Dict[str, float]:
    """Every catalogue metric's value for one traced run."""
    values: Dict[str, float] = {}
    for names, _, _ in SPANS:
        for span in names:
            entry = spans.get(span, {})
            for suffix, _ in _SPAN_METRICS:
                values[f"{span}.{suffix}"] = entry.get(suffix, 0)
    values["xpath.evaluate_predicate.calls"] = counters.get("xpath.evaluate_predicate.calls", 0)
    values["optimizer.execute.docs_examined_per_row"] = _ratio(
        counters.get("optimizer.execute.docs_examined", 0), counters.get("optimizer.execute.rows", 0)
    )
    calls = ledger_totals.get("optimizer_calls", 0)
    hits = ledger_totals.get("cache_hits", 0)
    values["optimizer.whatif.calls"] = calls
    values["optimizer.whatif.cache_hits"] = hits
    values["optimizer.whatif.hit_ratio"] = _ratio(hits, hits + ledger_totals.get("cache_misses", 0))
    for key in ("base_ships", "base_bytes", "delta_syncs", "delta_bytes"):
        values[f"parallel.shipping.{key}"] = ledger_totals.get(f"shipping.{key}", 0)
    values["parallel.parallel_batch_ratio"] = _ratio(
        ledger_totals.get("parallel_batches", 0), ledger_totals.get("batches", 0)
    )
    values["trace.overhead"] = overhead
    for entry in catalogue():
        name = entry["name"]
        if name in workload_counters:
            values[name] = workload_counters[name]
        values.setdefault(name, 0)
    return values
