"""Performance recorder for the compiled-matcher / delta-evaluation work.

Measures three layers of the search hot path and writes the results to a
JSON file (``BENCH_PR2.json`` at the repo root is the committed copy):

* **matcher** -- pattern-matching throughput of the compiled matchers
  (interned path table + anchored regex, :mod:`repro.xpath.compiled`)
  against the NFA reference (``PathPattern.matches_nfa``) over every
  (candidate pattern, statistics path) pair of a workload.
* **evaluator** -- benefit probes per second: one sweep of
  ``delta_benefit(config, c)`` over the candidate pool versus the same
  sweep through full ``benefit(config + c) - benefit(config)``
  differences, each on a fresh evaluator with warm base costs.
* **recommend** -- end-to-end ``IndexAdvisor.recommend`` wall time and
  instrumentation counters on TPoX and XMark at two scales each.

Modes::

    python benchmarks/record_bench.py --out BENCH_PR2.json \
        [--merge-before before.json]     # attach a frozen pre-PR capture
    python benchmarks/record_bench.py --smoke                # quick subset
    python benchmarks/record_bench.py --smoke \
        --compare BENCH_PR2.json --tolerance 0.25            # CI gate

``--compare`` re-measures the smoke scenarios and exits non-zero if any
freshly measured ``recommend`` wall time exceeds the committed one by
more than ``--tolerance`` (fractional; default 0.25).

PR 4 adds ``--workers-sweep``: end-to-end ``recommend`` per worker count
(0/1/2/4, process pool), asserting the recommendation is bit-identical
at every count and recording wall-time speedup plus ``meta.cpu_count``
(``BENCH_PR4.json`` at the repo root is the committed copy).  All other
sections are pinned serial so their figures stay comparable across
machines regardless of ``REPRO_WORKERS``.

PR 5 adds ``--dml-sweep``: the incremental storage engine under an
interleaved insert/delete stream with statistics probes after every
operation -- synopsis deltas vs forced full rescans -- plus scan-heavy
query execution through the synopsis bitmap vs the reference tree walk
(``BENCH_PR5.json`` at the repo root is the committed copy).  Probe
values, final statistics, and query outputs are asserted identical
between the fast and reference engines on the measured runs themselves.

PR 6 adds ``--cluster-sweep``: the replicated cluster layer on a mixed
TPoX+XMark workload (``BENCH_PR6.json`` at the repo root is the
committed copy).  Throughput uses a deterministic cost model -- each
statement's optimizer-estimated cost at the replica the router picked,
accumulated per replica; the makespan is the largest per-replica load
and the throughput score is workload weight / makespan -- so the
committed figures are machine-independent.  Two in-run gates: the
throughput score must grow with the replica count (uniform tuning,
load-balanced tie routing), and divergent tuning must score at least
as high as uniform at the same topology and budget.

PR 7 adds ``--ilp-sweep``: coverage-cluster workload compression + the
ILP cost-atom search against uncompressed greedy on a seeded
10k-statement TPoX+XMark stream (``BENCH_PR7.json`` at the repo root is
the committed copy).  Optimizer what-if calls are counted through the
shared session (enumeration, atom matrix, search, and the full-workload
reconciliation pass all included); in-run gates: >= 5x fewer calls in
the tight-budget regime, equal-or-better reconciled benefit in every
regime, and an absolute call budget on the compressed tight leg (the
CI smoke gate).

PR 9 adds ``--serve-latency-sweep``: the concurrent serving front end
(``repro.serve``) under sustained mixed query+DML+advise traffic
(``BENCH_PR9.json`` at the repo root is the committed copy).  Latency
percentiles per request kind are informational wall clock; four
contracts are asserted in-run: the concurrent schedule replays
serially bit-identical, p99 recommend latency stays within the
deadline knob plus a fixed overhead slack, the tournament portfolio is
at least every single strategy run standalone, and the deterministic
cost-makespan read-throughput model (PR 6 precedent) shows >= 2x
serial throughput at 4 workers.

PR 10 adds ``--snapshot-sweep``: the epoch-keyed snapshot engine
(``repro.storage.snapshots``) across its three consumers
(``BENCH_PR10.json`` at the repo root is the committed copy).  Leg 1
drives repeat advise/whatif serve traffic at unchanged epochs, leg 2
mixed-DML serve traffic, leg 3 the process-pool delta-sync protocol.
In-run gates: zero re-pickles at unchanged epochs, single-collection DML re-serializes only the touched
collection, the backed-off epoch gate validates more reads than it
wastes under free-running mixed traffic, delta syncs ship <= 1/3 of
the base payload, and every store-backed result is bit-identical to
its fresh-pickle baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import IndexAdvisor, ParallelWhatIfSession, WhatIfSession
from repro.cli import _latency_percentile
from repro.core.config import IndexConfiguration
from repro.parallel import available_workers
from repro.storage.index import IndexValueType
from repro.storage.statistics import collect_statistics_rescan
from repro.workloads import tpox, xmark
from repro.xpath import parse_pattern
from repro.xpath.ast import Literal
from repro.xpath.compiled import GLOBAL_TABLE

SCALES = {
    "tpox_small": (
        "tpox",
        dict(num_securities=120, num_orders=120, num_customers=60, seed=42),
    ),
    "tpox_medium": (
        "tpox",
        dict(num_securities=300, num_orders=300, num_customers=150, seed=42),
    ),
    "xmark_small": (
        "xmark",
        dict(num_items=100, num_persons=100, num_auctions=100, seed=7),
    ),
    "xmark_medium": (
        "xmark",
        dict(num_items=250, num_persons=250, num_auctions=250, seed=7),
    ),
}

MATCHER_SCALES = ("tpox_small", "tpox_medium", "xmark_medium")
SMOKE_SCALES = ("tpox_small",)
ALGORITHMS = ("greedy_heuristics", "topdown_full")
BUDGET_FRACTION = 0.5


def build(name):
    kind, kwargs = SCALES[name]
    if kind == "tpox":
        database = tpox.build_database(**kwargs)
        workload = tpox.tpox_workload(
            num_securities=kwargs["num_securities"],
            seed=42,
            include_updates=True,
            update_frequency=0.5,
        )
    else:
        database = xmark.build_database(**kwargs)
        workload = xmark.xmark_workload(seed=7)
    return database, workload


def _time_sweep(patterns, paths, match_of, repeats):
    """Best-of-``repeats`` wall time for one full patterns x paths sweep."""
    best = float("inf")
    hits = 0
    for _ in range(repeats):
        start = time.perf_counter()
        hits = 0
        for pattern in patterns:
            matches = match_of(pattern)
            for path in paths:
                if matches(path):
                    hits += 1
        best = min(best, time.perf_counter() - start)
    return best, hits


def matcher_bench(name, repeats=5):
    """Compiled vs NFA matching over candidate patterns x statistics paths.

    Three measurements of the same (pattern, path) decision matrix:

    * ``nfa`` -- the reference NFA simulation, one call per pair.
    * ``compiled_percall`` -- the compiled matcher through the per-call
      ``matches`` API (id lookup + bitmap membership per pair).
    * ``compiled`` (headline) -- the shape the statistics/affected-set hot
      path actually runs: paths interned once (amortized, mirroring
      ``DataStatistics``'s id cache), then per pattern one ``matching_ids``
      bitmap fetch and a membership test per path.
    """
    database, workload = build(name)
    advisor = IndexAdvisor(database, workload)
    patterns = [c.pattern for c in advisor.candidates]
    paths = []
    for collection in database.collections:
        paths.extend(database.runstats(collection).path_counts.keys())
    ops = len(patterns) * len(paths)

    nfa_seconds, nfa_hits = _time_sweep(
        patterns, paths, lambda p: p.matches_nfa, repeats
    )
    # First compiled sweep pays table interning + regex compilation + the
    # initial table scan; report it separately from the steady state the
    # search loop actually runs in.
    cold_start = time.perf_counter()
    percall_hits = sum(
        1 for p in patterns for path in paths if p.matches(path)
    )
    cold_seconds = time.perf_counter() - cold_start
    percall_seconds, percall_hits = _time_sweep(
        patterns, paths, lambda p: p.matcher.matches, repeats
    )

    path_ids = [GLOBAL_TABLE.intern(path) for path in paths]
    sweep_seconds = float("inf")
    sweep_hits = 0
    for _ in range(repeats):
        start = time.perf_counter()
        sweep_hits = 0
        for pattern in patterns:
            matched = pattern.matcher.matching_ids()
            for path_id in path_ids:
                if path_id in matched:
                    sweep_hits += 1
        sweep_seconds = min(sweep_seconds, time.perf_counter() - start)

    if not (nfa_hits == percall_hits == sweep_hits):  # pragma: no cover
        raise AssertionError(
            f"{name}: compiled matcher disagrees with NFA "
            f"({percall_hits}/{sweep_hits} vs {nfa_hits} hits)"
        )
    return {
        "patterns": len(patterns),
        "paths": len(paths),
        "ops": ops,
        "hits": sweep_hits,
        "nfa_seconds": nfa_seconds,
        "nfa_ops_per_s": ops / nfa_seconds,
        "compiled_cold_seconds": cold_seconds,
        "compiled_percall_seconds": percall_seconds,
        "compiled_percall_ops_per_s": ops / percall_seconds,
        "compiled_seconds": sweep_seconds,
        "compiled_ops_per_s": ops / sweep_seconds,
        "percall_speedup": nfa_seconds / percall_seconds,
        "speedup": nfa_seconds / sweep_seconds,
    }


def evaluator_bench(name, config_size=4, repeats=5):
    """One probe sweep over the candidate pool: delta vs full difference.

    Both sides start from a fresh advisor (warm base costs, empty benefit
    caches) and probe every ranked candidate outside a fixed seed
    configuration -- the exact shape of one greedy round.  Best of
    ``repeats`` fresh sweeps per side (each probe triggers real optimizer
    costing, so a single sweep is noisy).
    """
    def fresh():
        database, workload = build(name)
        advisor = IndexAdvisor(database, workload)
        evaluator = advisor.evaluator
        ranked = evaluator.ranked_positive_candidates(advisor.candidates)
        config = IndexConfiguration(ranked[:config_size])
        evaluator.base_costs  # warm base costs outside the timed region
        return evaluator, config, ranked[config_size:]

    delta_seconds = full_seconds = float("inf")
    delta_calls = full_calls = 0
    probes = []
    for _ in range(repeats):
        evaluator, config, probes = fresh()
        current = evaluator.benefit(config)
        calls_before = evaluator.optimizer_calls
        start = time.perf_counter()
        for candidate in probes:
            evaluator.delta_benefit(config, candidate, current)
        delta_seconds = min(delta_seconds, time.perf_counter() - start)
        delta_calls = evaluator.optimizer_calls - calls_before

        evaluator, config, probes = fresh()
        current = evaluator.benefit(config)
        calls_before = evaluator.optimizer_calls
        start = time.perf_counter()
        for candidate in probes:
            evaluator.benefit(config.with_candidate(candidate)) - current
        full_seconds = min(full_seconds, time.perf_counter() - start)
        full_calls = evaluator.optimizer_calls - calls_before

    return {
        "config_size": config_size,
        "probes": len(probes),
        "delta_seconds": delta_seconds,
        "delta_probes_per_s": len(probes) / delta_seconds,
        "delta_optimizer_calls": delta_calls,
        "full_seconds": full_seconds,
        "full_probes_per_s": len(probes) / full_seconds,
        "full_optimizer_calls": full_calls,
        "speedup": full_seconds / delta_seconds,
    }


def recommend_bench(name, algorithm, repeats=3):
    """End-to-end ``recommend`` wall time, best of ``repeats`` runs on a
    fresh advisor each (recommendation and counters are deterministic)."""
    elapsed = float("inf")
    recommendation = None
    budget = 0
    for _ in range(repeats):
        database, workload = build(name)
        advisor = IndexAdvisor(database, workload)
        all_size = sum(c.size_bytes for c in advisor.candidates.basics())
        budget = int(all_size * BUDGET_FRACTION)
        start = time.perf_counter()
        recommendation = advisor.recommend(
            budget_bytes=budget, algorithm=algorithm
        )
        elapsed = min(elapsed, time.perf_counter() - start)
    search = recommendation.search
    return {
        "seconds": elapsed,
        "budget": budget,
        "optimizer_calls": search.optimizer_calls,
        "cache_hits": search.cache_hits,
        "cache_misses": search.cache_misses,
        "evaluations": search.evaluations,
        "benefit": search.benefit,
        "indexes": len(recommendation.configuration),
        "speedup": recommendation.estimated_speedup,
    }


#: Worker counts for the parallel-engine sweep (PR 4); 0 is the plain
#: serial session.
WORKER_COUNTS = (0, 1, 2, 4)


def _normalized_recommendation(recommendation):
    data = recommendation.to_dict()
    data.pop("elapsed_seconds", None)
    session = dict(data.get("session", {}))
    session.pop("phase_seconds", None)
    session.pop("workers", None)
    # Storage counters depend on the executor kind (process workers
    # rebuild summaries in their own database copies), not on the result.
    session.pop("storage", None)
    # Snapshot-store counters depend on which consumers share the cache,
    # not on the result.
    session.pop("snapshots", None)
    data["session"] = session
    return data


def workers_bench(
    name, algorithm="topdown_full", counts=WORKER_COUNTS, repeats=3
):
    """End-to-end ``recommend`` wall time per worker count (PR 4 sweep).

    Fresh database + advisor per run (best of ``repeats``); the
    normalized recommendation is asserted identical across every worker
    count -- the differential harness's contract, re-checked on the
    measured runs themselves.  ``speedup_vs_serial`` is honest wall-time
    ratio; on a single-CPU box it sits below 1.0 because process-pool
    dispatch only adds overhead there (see meta.cpu_count).
    """
    sweep = {}
    reference = None
    serial_seconds = None
    for count in counts:
        elapsed = float("inf")
        recommendation = None
        workers_stats = {}
        for _ in range(repeats):
            database, workload = build(name)
            if count == 0:
                session = WhatIfSession(database)
            else:
                session = ParallelWhatIfSession(database, workers=count)
            advisor = IndexAdvisor(database, workload, session=session)
            all_size = sum(c.size_bytes for c in advisor.candidates.basics())
            budget = int(all_size * BUDGET_FRACTION)
            start = time.perf_counter()
            recommendation = advisor.recommend(
                budget_bytes=budget, algorithm=algorithm
            )
            elapsed = min(elapsed, time.perf_counter() - start)
            workers_stats = advisor.session.stats().get("workers", {})
            session.close()
        normalized = _normalized_recommendation(recommendation)
        if reference is None:
            reference = normalized
        elif normalized != reference:  # pragma: no cover - contract breach
            raise AssertionError(
                f"{name}: workers={count} changed the recommendation"
            )
        if count == 0:
            serial_seconds = elapsed
        entry = {
            "seconds": elapsed,
            "speedup_vs_serial": (
                serial_seconds / elapsed if serial_seconds else None
            ),
            "optimizer_calls": recommendation.search.optimizer_calls,
            "cache_hits": recommendation.search.cache_hits,
            "benefit": recommendation.search.benefit,
            "indexes": len(recommendation.configuration),
        }
        if workers_stats:
            entry["parallel_batches"] = workers_stats.get("parallel_batches")
            entry["parallel_tasks"] = workers_stats.get("parallel_tasks")
            entry["chunks"] = workers_stats.get("chunks")
            entry["pool_failures"] = workers_stats.get("pool_failures")
            entry["executor"] = workers_stats.get("executor")
        sweep[str(count)] = entry
    return sweep


# ---------------------------------------------------------------------------
# PR 5: incremental storage engine (synopsis deltas vs forced rescans)
# ---------------------------------------------------------------------------

DML_PROBE_PATTERNS = ("/Security/Symbol", "/Security/SecInfo/*/Sector")


def _probe_statistics(database):
    """One statistics consumer round: the quantities the optimizer reads
    between DML operations (forces targeted summary rebuilds when dirty)."""
    stats = database.runstats("SDOC")
    out = []
    for text in DML_PROBE_PATTERNS:
        pattern = parse_pattern(text)
        derived = stats.derive_index_statistics(pattern, IndexValueType.STRING)
        out.append(
            (
                derived.entry_count,
                derived.size_bytes,
                stats.document_frequency(pattern),
                stats.selectivity(pattern, ">=", Literal("M")),
            )
        )
    return out


def _assert_stats_identity(database):
    """The delta-vs-rescan equivalence gate, asserted on the measured run
    itself: the delta-maintained statistics must equal a from-scratch
    reference rescan on every probed quantity."""
    live = database.runstats("SDOC")
    reference = collect_statistics_rescan(database.collection("SDOC"))
    if (
        live.doc_count != reference.doc_count
        or live.total_nodes != reference.total_nodes
        or live.total_elements != reference.total_elements
        or list(live.path_counts) != list(reference.path_counts)
        or live.path_counts != reference.path_counts
        or live.path_doc_counts != reference.path_doc_counts
    ):  # pragma: no cover - contract breach
        raise AssertionError("delta statistics diverged from rescan (exact)")
    for text in DML_PROBE_PATTERNS:
        pattern = parse_pattern(text)
        for value_type in IndexValueType:
            if live.derive_index_statistics(
                pattern, value_type
            ) != reference.derive_index_statistics(pattern, value_type):
                # pragma: no cover - contract breach
                raise AssertionError(
                    f"derived statistics diverged on {text} ({value_type})"
                )
        if live.selectivity(
            pattern, ">=", Literal("M")
        ) != reference.selectivity(pattern, ">=", Literal("M")):
            # pragma: no cover - contract breach
            raise AssertionError(f"selectivity diverged on {text}")


def _dml_run(name, num_ops, rng_seed, force_rescan):
    """One measured DML sweep: interleaved inserts/deletes on SDOC with a
    statistics probe after every operation, under real index maintenance.

    ``force_rescan`` models the pre-synopsis engine by invalidating the
    cached statistics after each DML, so every probe pays a full
    collection rescan instead of absorbing the change as a delta.
    """
    import random

    from repro.storage.catalog import IndexDefinition

    database, _ = build(name)
    database.create_index(
        IndexDefinition(
            "sym", "SDOC", parse_pattern("/Security/Symbol"),
            IndexValueType.STRING,
        )
    )
    database.create_index(
        IndexDefinition(
            "yld", "SDOC", parse_pattern("/Security/Yield"),
            IndexValueType.NUMERIC,
        )
    )
    _probe_statistics(database)  # prime the cached statistics
    rng = random.Random(rng_seed)
    doc_rng = random.Random(rng_seed)
    collection = database.collection("SDOC")
    probes = []
    start = time.perf_counter()
    for i in range(num_ops):
        live = [d.doc_id for d in collection]
        if rng.random() < 0.35 and len(live) > 10:
            database.delete_document("SDOC", live[rng.randrange(len(live))])
        else:
            database.insert_document(
                "SDOC", tpox.security_document(10_000 + i, doc_rng)
            )
        if force_rescan:
            database.invalidate_statistics("SDOC")
        probes.append(_probe_statistics(database))
    elapsed = time.perf_counter() - start
    _assert_stats_identity(database)
    return elapsed, probes, database


def dml_bench(name, num_ops=150, rng_seed=5):
    """Delta maintenance vs forced rescans over one identical DML+probe
    stream.  The probe values themselves are asserted identical between
    the two engines (the rescan side IS the reference), and the delta
    side must finish the sweep without a single statistics rescan."""
    delta_seconds, delta_probes, delta_db = _dml_run(
        name, num_ops, rng_seed, force_rescan=False
    )
    rescan_seconds, rescan_probes, rescan_db = _dml_run(
        name, num_ops, rng_seed, force_rescan=True
    )
    if delta_probes != rescan_probes:  # pragma: no cover - contract breach
        raise AssertionError("delta probes diverged from rescan probes")
    delta_storage = delta_db.storage_stats()
    rescan_storage = rescan_db.storage_stats()
    if delta_storage["stats_rescans"] != 1:  # pragma: no cover
        raise AssertionError(
            f"delta engine rescanned {delta_storage['stats_rescans']}x "
            "(expected only the priming pass)"
        )
    return {
        "dml_ops": num_ops,
        "probes_per_op": len(DML_PROBE_PATTERNS),
        "delta_seconds": delta_seconds,
        "delta_ops_per_s": num_ops / delta_seconds,
        "delta_storage": delta_storage,
        "rescan_seconds": rescan_seconds,
        "rescan_ops_per_s": num_ops / rescan_seconds,
        "rescan_storage": rescan_storage,
        "speedup": rescan_seconds / delta_seconds,
    }


def scan_bench(name, repeats=5):
    """Scan-heavy query execution: the executor's synopsis bitmap
    resolution vs the reference tree walk (``evaluate_path`` over every
    document), on identical databases with identical results."""
    from repro.optimizer.executor import Executor, _render_result
    from repro.query import parse_statement
    from repro.xpath.evaluator import evaluate_path

    statements = [
        parse_statement("COLLECTION('SDOC')/Security/SecInfo/*/Sector"),
        parse_statement("COLLECTION('SDOC')/Security/Symbol"),
        parse_statement("COLLECTION('ODOC')//Order/Value"),
    ]

    def walk(database, statement):
        documents = list(database.collection(statement.collection))
        nodes = [
            node
            for document in documents
            for node in evaluate_path(document, statement.binding_path)
        ]
        output = tuple(_render_result(node, statement) for node in nodes)
        return len(nodes), len(documents), output

    def synopsis(executor, statement):
        result = executor.execute(statement, collect_output=True)
        return result.rows, result.docs_examined, tuple(result.output)

    def run(run_statement, target):
        best = float("inf")
        outputs = None
        for _ in range(repeats):
            start = time.perf_counter()
            outputs = [run_statement(target, s) for s in statements]
            best = min(best, time.perf_counter() - start)
        return best, outputs

    walk_seconds, walk_outputs = run(walk, build(name)[0])
    synopsis_seconds, synopsis_outputs = run(
        synopsis, Executor(build(name)[0])
    )
    if synopsis_outputs != walk_outputs:  # pragma: no cover - breach
        raise AssertionError("synopsis executor diverged from tree walk")
    rows = sum(out[0] for out in walk_outputs)
    return {
        "statements": len(statements),
        "rows": rows,
        "walk_seconds": walk_seconds,
        "synopsis_seconds": synopsis_seconds,
        "speedup": walk_seconds / synopsis_seconds,
    }


# ---------------------------------------------------------------------------
# PR 6: replicated cluster (cost-routed throughput, divergent tuning)
# ---------------------------------------------------------------------------

#: Replica counts for the scaling leg (1 shard, uniform tuning).
CLUSTER_REPLICA_COUNTS = (1, 2, 4)
#: Replicas for the divergent-vs-uniform comparison.
CLUSTER_COMPARE_REPLICAS = 3
#: Tighter than the legacy 0.5 so a single uniform configuration cannot
#: cover the whole mixed workload -- the regime divergent tuning targets.
CLUSTER_BUDGET_FRACTION = 0.3

MIXED_SCALES = {
    "mixed_smoke": (
        dict(num_securities=60, num_orders=60, num_customers=30, seed=42),
        dict(num_items=50, num_persons=50, num_auctions=50, seed=7),
    ),
    "mixed_small": (
        dict(num_securities=120, num_orders=120, num_customers=60, seed=42),
        dict(num_items=100, num_persons=100, num_auctions=100, seed=7),
    ),
}


def build_mixed(name):
    """One database holding both benchmarks' collections, and the
    concatenated TPoX+XMark workload over it -- the mixed setting where
    one uniform configuration has to compromise."""
    from repro.query.workload import Workload
    from repro.xmlmodel.serializer import serialize

    tpox_kwargs, xmark_kwargs = MIXED_SCALES[name]
    database = tpox.build_database(**tpox_kwargs)
    xmark_db = xmark.build_database(**xmark_kwargs)
    for collection_name, collection in xmark_db.collections.items():
        database.create_collection(collection_name)
        for document in collection:
            database.insert_document(collection_name, serialize(document.root))
    workload = Workload(
        list(
            tpox.tpox_workload(
                num_securities=tpox_kwargs["num_securities"],
                seed=tpox_kwargs["seed"],
            ).entries
        )
        + list(xmark.xmark_workload(seed=xmark_kwargs["seed"]).entries)
    )
    return database, workload


def _mixed_budget(name):
    """Budget in bytes shared by every topology of one scale (computed
    once on the plain mixed database so all legs compare like-for-like)."""
    database, workload = build_mixed(name)
    advisor = IndexAdvisor(database, workload)
    try:
        all_size = sum(c.size_bytes for c in advisor.candidates.basics())
    finally:
        advisor.session.close()
    return int(all_size * CLUSTER_BUDGET_FRACTION)


def _routed_cost_profile(cluster, workload):
    """Deterministic throughput model: route every statement, charge its
    optimizer-estimated cost (x frequency) to the chosen replica, and
    score the workload weight against the busiest replica (makespan)."""
    router = cluster.router
    loads = {}
    total = 0.0
    start = time.perf_counter()
    for entry in workload:
        for shard in range(cluster.num_shards):
            replica = router.route(entry.statement, shard, entry.frequency)
            cost = (
                router.replica_cost(entry.statement, shard, replica)
                * entry.frequency
            )
            label = cluster.replica_label(shard, replica)
            loads[label] = loads.get(label, 0.0) + cost
            total += cost
    route_seconds = time.perf_counter() - start
    makespan = max(loads.values())
    weight = sum(e.frequency for e in workload) * cluster.num_shards
    return {
        "makespan_cost": makespan,
        "total_routed_cost": total,
        "throughput_score": weight / makespan,
        "per_replica_load": {k: loads[k] for k in sorted(loads)},
        "route_seconds": route_seconds,
        "router": cluster.router.counters(),
    }


def _cluster_leg(name, budget, shards, replicas, divergent):
    """Build a fresh mixed cluster, tune it, and profile the routing."""
    from repro.cluster import Cluster, tune_cluster

    database, workload = build_mixed(name)
    cluster = Cluster.from_database(database, shards=shards, replicas=replicas)
    start = time.perf_counter()
    result = tune_cluster(cluster, workload, budget, divergent=divergent)
    tune_seconds = time.perf_counter() - start
    profile = _routed_cost_profile(cluster, workload)
    profile.update(
        {
            "shards": shards,
            "replicas": replicas,
            "mode": result.mode,
            "divergence_score": result.divergence_score,
            "indexes_per_replica": {
                Cluster.replica_label(t.shard, t.replica): len(
                    t.recommendation.configuration
                )
                for t in result.tunings
            },
            "tune_seconds": tune_seconds,
        }
    )
    return profile


def cluster_bench(name):
    """The PR 6 sweep on one mixed scale: replica scaling under uniform
    tuning, then divergent vs uniform at a fixed topology.  Both
    contracts are asserted on the measured runs themselves."""
    budget = _mixed_budget(name)
    scaling = {}
    previous = None
    for replicas in CLUSTER_REPLICA_COUNTS:
        leg = _cluster_leg(name, budget, 1, replicas, divergent=False)
        scaling[str(replicas)] = leg
        if previous is not None and not (
            leg["throughput_score"] >= previous * 1.05
        ):  # pragma: no cover - contract breach
            raise AssertionError(
                f"{name}: throughput did not scale at replicas={replicas} "
                f"({leg['throughput_score']:.4f} vs {previous:.4f})"
            )
        previous = leg["throughput_score"]

    uniform = _cluster_leg(
        name, budget, 1, CLUSTER_COMPARE_REPLICAS, divergent=False
    )
    divergent = _cluster_leg(
        name, budget, 1, CLUSTER_COMPARE_REPLICAS, divergent=True
    )
    if not (
        divergent["throughput_score"] >= uniform["throughput_score"]
    ):  # pragma: no cover - contract breach
        raise AssertionError(
            f"{name}: divergent tuning scored below uniform "
            f"({divergent['throughput_score']:.4f} vs "
            f"{uniform['throughput_score']:.4f})"
        )
    return {
        "budget": budget,
        "replica_scaling": scaling,
        "divergent_vs_uniform": {
            "replicas": CLUSTER_COMPARE_REPLICAS,
            "uniform": uniform,
            "divergent": divergent,
            "throughput_ratio": (
                divergent["throughput_score"] / uniform["throughput_score"]
            ),
            "routed_cost_ratio": (
                divergent["total_routed_cost"] / uniform["total_routed_cost"]
            ),
        },
    }


def run_cluster(smoke=False):
    """The PR 6 cluster sweep (``--cluster-sweep``), written to
    ``BENCH_PR6.json`` at the repo root as the committed copy.  Both
    contracts -- replica scaling and divergent >= uniform -- are
    asserted in-run (this is the CI perf-smoke gate)."""
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "budget_fraction": CLUSTER_BUDGET_FRACTION,
            "replica_counts": list(CLUSTER_REPLICA_COUNTS),
            "note": (
                "throughput_score = workload weight / makespan of "
                "optimizer-estimated per-replica routed cost "
                "(deterministic); *_seconds fields are informational "
                "wall clock"
            ),
        },
        "cluster": {},
    }
    scales = ("mixed_smoke",) if smoke else ("mixed_smoke", "mixed_small")
    for name in scales:
        results["cluster"][name] = cluster_bench(name)
    return results


# ---------------------------------------------------------------------------
# PR 7: huge-workload scaling (coverage-cluster compression + ILP search)
# ---------------------------------------------------------------------------

#: The BENCH_PR7 stream: 10k statement arrivals, seeded.
STREAM_STATEMENTS = 10_000
STREAM_SEED = 0
#: Disk budgets as fractions of the total basic-candidate size (shared
#: verbatim between the compressed and uncompressed legs of one row).
#: ``tight`` is the headline contract regime: few indexes fit, so the
#: reconciliation pass touches a small slice of the stream and the
#: pipeline's call count is dominated by the 18-representative search.
#: ``rich`` admits more indexes -- reconciliation then scales with the
#: configuration's coverage, so only the benefit contract is gated
#: there (the call ratio is recorded, not asserted).
ILP_BUDGET_FRACTIONS = {"tight": 0.1, "rich": 0.25}
#: The headline contract (tight leg): uncompressed greedy must spend at
#: least this many times the optimizer calls of the compressed+ILP
#: pipeline, reconciliation included.
ILP_CALL_FACTOR = 5.0
#: Equal-or-better benefit gate tolerance (absolute, on summed costs).
ILP_BENEFIT_EPS = 1e-6
#: Smoke gate: total optimizer calls the compressed+ILP tight leg may
#: spend on the full 10k stream (enumerate + atoms + search +
#: reconcile).  Deterministic (serial session, seeded stream).
ILP_SMOKE_CALL_BUDGET = 1_000


def _stream_setting():
    """The mixed_small database plus the 10k synthetic stream over its
    collections (finite literal pools -- the stream repeats itself)."""
    from repro.workloads.stream import stream_profile, synthetic_stream

    database, _ = build_mixed("mixed_small")
    workload = synthetic_stream(
        STREAM_STATEMENTS,
        seed=STREAM_SEED,
        num_securities=MIXED_SCALES["mixed_small"][0]["num_securities"],
    )
    return database, workload, stream_profile(workload)


def _stream_total_size(database, workload):
    """Total basic-candidate size over the compressed stream -- the base
    every leg's byte budget is a fraction of (computed once, outside the
    legs, so no leg's call count includes this setup)."""
    advisor = IndexAdvisor(database, workload, compress="cluster")
    try:
        return sum(c.size_bytes for c in advisor.candidates.basics())
    finally:
        advisor.session.close()


def _ilp_leg(database, workload, algorithm, compress, budget_bytes):
    """One tuning run over the stream with a fresh advisor (cold what-if
    cache -- every leg pays its own optimizer calls)."""
    advisor = IndexAdvisor(database, workload, compress=compress)
    try:
        start = time.perf_counter()
        recommendation = advisor.recommend(budget_bytes, algorithm=algorithm)
        seconds = time.perf_counter() - start
        calls = advisor.session.counters.optimizer_calls
        reconciled = recommendation.compression_stats.get("reconciled")
        leg = {
            "algorithm": algorithm,
            "compress": compress,
            "optimizer_calls": calls,
            "seconds": seconds,
            "indexes": len(recommendation.configuration),
            "search_benefit": recommendation.search.benefit,
            # The apples-to-apples figure: benefit of the chosen
            # configuration measured on the FULL raw stream.
            "full_workload_benefit": (
                reconciled["benefit"]
                if reconciled is not None
                else recommendation.search.benefit
            ),
            "truncated": recommendation.search.truncated,
        }
        if recommendation.compression_stats:
            stats = dict(recommendation.compression_stats)
            stats.pop("reconciled", None)
            leg["compression"] = stats
            if reconciled is not None:
                leg["reconciled"] = reconciled
        return leg
    finally:
        advisor.session.close()


def ilp_bench(smoke=False):
    """The PR 7 comparison on the 10k stream, one row per budget regime.

    Each row runs the compressed pipeline (coverage clustering + ILP
    cost-atom search + full-workload reconciliation) and -- full sweep
    only -- plain greedy on the raw 10k statements at the same byte
    budget.  Contracts asserted in-run: the tight row must show >=
    ILP_CALL_FACTOR fewer optimizer calls, every row must reach
    equal-or-better full-workload benefit, and the tight compressed leg
    must stay inside the absolute smoke call budget.  Smoke mode runs
    only the tight compressed leg (with that call gate)."""
    database, workload, (arrivals, distinct) = _stream_setting()
    total_size = _stream_total_size(database, workload)
    record = {
        "stream": {
            "statements": arrivals,
            "distinct_statements": distinct,
            "seed": STREAM_SEED,
        },
        "total_basic_size": total_size,
        "legs": {},
    }
    regimes = ("tight",) if smoke else ("tight", "rich")
    for regime in regimes:
        budget = int(total_size * ILP_BUDGET_FRACTIONS[regime])
        compressed = _ilp_leg(
            database, workload, "ilp", "cluster", budget
        )
        row = {"budget": budget, "compressed_ilp": compressed}
        if regime == "tight" and compressed["optimizer_calls"] > (
            ILP_SMOKE_CALL_BUDGET
        ):  # pragma: no cover - contract breach
            raise AssertionError(
                f"compressed+ILP tight leg spent "
                f"{compressed['optimizer_calls']} optimizer calls on the "
                f"10k stream (budget {ILP_SMOKE_CALL_BUDGET})"
            )
        if not smoke:
            uncompressed = _ilp_leg(
                database, workload, "greedy_heuristics", "off", budget
            )
            row["uncompressed_greedy"] = uncompressed
            ratio = uncompressed["optimizer_calls"] / max(
                1, compressed["optimizer_calls"]
            )
            row["call_ratio"] = ratio
            row["benefit_delta"] = (
                compressed["full_workload_benefit"]
                - uncompressed["full_workload_benefit"]
            )
            if regime == "tight" and (
                ratio < ILP_CALL_FACTOR
            ):  # pragma: no cover - contract breach
                raise AssertionError(
                    f"call ratio {ratio:.2f} below the "
                    f"{ILP_CALL_FACTOR}x contract "
                    f"({uncompressed['optimizer_calls']} uncompressed vs "
                    f"{compressed['optimizer_calls']} compressed)"
                )
            if (
                compressed["full_workload_benefit"] + ILP_BENEFIT_EPS
                < uncompressed["full_workload_benefit"]
            ):  # pragma: no cover - contract breach
                raise AssertionError(
                    f"{regime}: compressed benefit "
                    f"{compressed['full_workload_benefit']:.4f} below "
                    f"uncompressed "
                    f"{uncompressed['full_workload_benefit']:.4f}"
                )
        record["legs"][regime] = row
    return record


def run_ilp(smoke=False):
    """The PR 7 sweep (``--ilp-sweep``), written to ``BENCH_PR7.json``
    at the repo root as the committed copy.  Contracts are asserted
    in-run (this is the CI perf-smoke gate): the compressed+ILP leg's
    absolute optimizer-call spend always; the >= 5x call reduction at
    equal-or-better full-workload benefit in the full sweep."""
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "stream_statements": STREAM_STATEMENTS,
            "budget_fractions": dict(ILP_BUDGET_FRACTIONS),
            "call_factor": ILP_CALL_FACTOR,
            "smoke_call_budget": ILP_SMOKE_CALL_BUDGET,
            "note": (
                "optimizer_calls counts every successful what-if "
                "optimization through the shared session (enumeration, "
                "atom matrix, search, reconciliation); *_seconds fields "
                "are informational wall clock"
            ),
        },
        "ilp": {"stream_10k": ilp_bench(smoke=smoke)},
    }


# ---------------------------------------------------------------------------
# PR 8: online daemon drift replay (supervised serve, convergence gates)
# ---------------------------------------------------------------------------

#: The BENCH_PR8 replay: a seeded drifting stream over the mixed
#: database -- three phases drawing from disjoint template slices, so
#: the coverage-signature mix is stationary inside a phase and shifts
#: sharply at each boundary.
SERVE_STREAM_STATEMENTS = 600
SERVE_SMOKE_STATEMENTS = 300
SERVE_PHASES = 3
SERVE_SEED = 0
SERVE_BUDGET_FRACTION = 0.3
#: Per-cycle anytime budget -- the bounded-cycle gate asserts no tuning
#: cycle ever exceeds it.
SERVE_CYCLE_CALL_BUDGET = 400


def _serve_policy(budget_bytes):
    from repro.online import OnlinePolicy

    return OnlinePolicy(
        budget_bytes=budget_bytes,
        algorithm="greedy_heuristics",
        window_capacity=150,
        cycle_interval=25,
        drift_threshold=0.3,
        min_relative_improvement=0.02,
        cooldown_cycles=1,
        cycle_call_budget=SERVE_CYCLE_CALL_BUDGET,
        compress="template",
        retries=1,
    )


def _serve_budget(database, texts):
    """Byte budget shared by every leg: a fraction of the total
    basic-candidate size over the whole stream (computed once)."""
    from repro.query.workload import Workload

    workload = Workload.from_statements(texts)
    advisor = IndexAdvisor(database, workload, compress="template")
    try:
        all_size = sum(c.size_bytes for c in advisor.candidates.basics())
    finally:
        advisor.session.close()
    return int(all_size * SERVE_BUDGET_FRACTION)


def _serve_leg(texts, budget, journal_path=None, fault_rules=None):
    """Replay one stream through a fresh daemon on a fresh mixed
    database; one final forced cycle settles the last window so legs
    are comparable by their final configuration."""
    from repro.online import OnlineAdvisor
    from repro.robustness.faults import FaultInjector, injected

    database, _ = build_mixed("mixed_smoke")
    daemon = OnlineAdvisor(
        database, _serve_policy(budget), journal_path=journal_path
    )
    start = time.perf_counter()
    if fault_rules:
        with injected(FaultInjector(fault_rules)):
            daemon.serve(texts)
    else:
        daemon.serve(texts)
    daemon.run_cycle(force=True)
    seconds = time.perf_counter() - start
    tuned = [r for r in daemon.reports if r.cycle_optimizer_calls]
    stats = {
        "seconds": seconds,
        "counters": dict(daemon.counters),
        "tuned_cycles": len(tuned),
        "max_cycle_optimizer_calls": max(
            (r.cycle_optimizer_calls for r in tuned), default=0
        ),
        "max_flap_count": max(daemon.flap_counts.values(), default=0),
        "frozen": list(daemon.frozen),
        "final_configuration": daemon.configuration_keys(),
        "window_rejected": daemon.window.rejected,
    }
    if daemon.journal is not None:
        stats["journal_writes"] = daemon.journal.writes
    return daemon, stats


def _assert_serve_gates(label, daemon, stats):
    """The three in-run BENCH_PR8 contracts on one leg."""
    # 1. Bounded cycles: no tuning cycle may exceed the per-cycle
    #    optimizer-call budget.
    if stats["max_cycle_optimizer_calls"] > (
        SERVE_CYCLE_CALL_BUDGET
    ):  # pragma: no cover - contract breach
        raise AssertionError(
            f"{label}: a cycle spent {stats['max_cycle_optimizer_calls']} "
            f"optimizer calls (budget {SERVE_CYCLE_CALL_BUDGET})"
        )
    # 2. Zero flapping: across the whole replay no index key is created
    #    twice or dropped twice -- hysteresis must hold each phase's
    #    configuration stable until the traffic actually moves.
    creates = [key for r in daemon.reports for key in r.creates]
    drops = [key for r in daemon.reports for key in r.drops]
    if len(creates) != len(set(creates)) or len(drops) != len(
        set(drops)
    ):  # pragma: no cover - contract breach
        raise AssertionError(
            f"{label}: index flapped (creates {creates}, drops {drops})"
        )
    if stats["frozen"]:  # pragma: no cover - contract breach
        raise AssertionError(
            f"{label}: flap freezer engaged: {stats['frozen']}"
        )
    # Stable traffic must actually be skipped, not re-tuned.
    if stats["counters"]["skipped_no_drift"] == 0:  # pragma: no cover
        raise AssertionError(f"{label}: no stable window was ever skipped")


def serve_bench(smoke=False, journal_dir=None):
    """The PR 8 drift-replay comparison: a clean replay, a fault-injected
    replay (one cycle dies mid-tune, one apply dies mid-flight), and the
    sibling/literal-drifted twin of the stream.  In-run gates: bounded
    per-cycle optimizer calls, zero flapping under hysteresis, and the
    fault-injected replay converging bit-identically (by candidate key)
    to the clean replay."""
    from repro.robustness.faults import FaultRule
    from repro.workloads.drift import drift_texts
    from repro.workloads.stream import drifting_stream

    statements = SERVE_SMOKE_STATEMENTS if smoke else SERVE_STREAM_STATEMENTS
    texts, boundaries = drifting_stream(
        num_statements=statements,
        seed=SERVE_SEED,
        num_securities=MIXED_SCALES["mixed_smoke"][0]["num_securities"],
        phases=SERVE_PHASES,
    )
    database, _ = build_mixed("mixed_smoke")
    budget = _serve_budget(database, texts)
    record = {
        "stream": {
            "statements": len(texts),
            "phases": SERVE_PHASES,
            "boundaries": boundaries,
            "distinct_statements": len(set(texts)),
            "seed": SERVE_SEED,
        },
        "budget": budget,
        "policy": _serve_policy(budget).to_dict(),
    }

    clean_daemon, clean = _serve_leg(texts, budget)
    _assert_serve_gates("clean", clean_daemon, clean)
    record["clean"] = clean

    journal_path = (
        str(Path(journal_dir) / "serve_bench.journal")
        if journal_dir
        else None
    )
    fault_rules = [
        FaultRule(site="online.cycle", at={0}),
        FaultRule(site="online.apply", at={0}),
    ]
    faulted_daemon, faulted = _serve_leg(
        texts, budget, journal_path=journal_path, fault_rules=fault_rules
    )
    faulted["fault_sites"] = sorted(
        {rule.site for rule in fault_rules}
    )
    _assert_serve_gates("faulted", faulted_daemon, faulted)
    if faulted["counters"]["failed_cycles"] < 1:  # pragma: no cover
        raise AssertionError("fault injection never landed a failed cycle")
    # 3. Convergence: the supervised recovery path must end on exactly
    #    the configuration the clean replay found.
    if faulted["final_configuration"] != (
        clean["final_configuration"]
    ):  # pragma: no cover - contract breach
        raise AssertionError(
            f"fault-injected replay diverged: "
            f"{faulted['final_configuration']} vs "
            f"{clean['final_configuration']}"
        )
    record["faulted"] = faulted
    record["converged_identical"] = True

    drifted_daemon, drifted = _serve_leg(
        drift_texts(database, texts, seed=SERVE_SEED), budget
    )
    _assert_serve_gates("drifted", drifted_daemon, drifted)
    record["drifted_replay"] = drifted
    return record


def run_serve(smoke=False, journal_dir=None):
    """The PR 8 sweep (``--serve-sweep``), written to ``BENCH_PR8.json``
    at the repo root as the committed copy.  All three contracts --
    bounded cycles, zero flapping, fault-injected convergence -- are
    asserted in-run (this is the CI serve-replay gate)."""
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "stream_statements": (
                SERVE_SMOKE_STATEMENTS if smoke else SERVE_STREAM_STATEMENTS
            ),
            "phases": SERVE_PHASES,
            "budget_fraction": SERVE_BUDGET_FRACTION,
            "cycle_call_budget": SERVE_CYCLE_CALL_BUDGET,
            "note": (
                "cycle counts and configurations are deterministic "
                "(seeded stream, serial session); *_seconds fields are "
                "informational wall clock"
            ),
        },
        "serve": {"drift_replay": serve_bench(smoke, journal_dir)},
    }


# ---------------------------------------------------------------------------
# PR 9: serving front end latency sweep (concurrent serving, portfolio)
# ---------------------------------------------------------------------------

SERVE_LATENCY_SEED = 7
#: The recommend deadline knob the latency leg serves under, and the
#: overhead allowance (snapshotting, scheduling, thread handoff) the
#: p99 gate grants on top of it.
SERVE_LATENCY_DEADLINE = 1.0
SERVE_LATENCY_SLACK = 2.0
SERVE_LATENCY_CLIENTS = 4
SERVE_LATENCY_BUDGET = 100_000
SERVE_READ_WORKER_COUNTS = (1, 2, 4)
#: Concurrent read throughput at 4 workers must be at least this many
#: times the serial throughput (deterministic cost-makespan model, PR 6
#: precedent -- machine-independent).
SERVE_READ_SPEEDUP_FLOOR = 2.0


def _latency_build(smoke):
    scale = 60 if smoke else 120
    database = tpox.build_database(
        num_securities=scale,
        num_orders=scale,
        num_customers=scale // 2,
        seed=SERVE_LATENCY_SEED,
    )
    texts = [
        entry.statement.describe()
        for entry in tpox.tpox_workload(
            num_securities=scale, seed=42
        ).subset(8).entries
    ]
    return database, texts, scale


def _latency_schedule(texts, rounds):
    """Sustained mixed traffic: every round replays the query set with
    interleaved inserts/deletes, one whatif, and one recommend."""
    schedule = []
    for round_index in range(rounds):
        for index, text in enumerate(texts):
            schedule.append({"kind": "query", "text": text})
            if index % 3 == 0:
                schedule.append(
                    {
                        "kind": "dml",
                        "text": "insert into SDOC value "
                        f"'<Security><Symbol>L{round_index}x{index}"
                        f"</Symbol></Security>'",
                    }
                )
        schedule.append(
            {
                "kind": "dml",
                "text": "delete from SDOC where "
                f'/Security/Symbol = "L{round_index}x0"',
            }
        )
        schedule.append(
            {
                "kind": "whatif",
                "statements": texts,
                "patterns": ["/Security/Symbol"],
                "collection": "SDOC",
            }
        )
        schedule.append(
            {
                "kind": "recommend",
                "statements": texts,
                "budget_bytes": SERVE_LATENCY_BUDGET,
            }
        )
    return schedule


def _read_makespan(weights, workers):
    """LPT list-scheduling makespan: reads are lock-free, so any worker
    can take any read; the model is deterministic in the per-query
    optimizer-measured costs."""
    bins = [0.0] * workers
    for weight in sorted(weights, reverse=True):
        bins[bins.index(min(bins))] += weight
    return max(bins)


def serve_latency_bench(smoke=False):
    """The PR 9 latency leg: p50/p99 per request kind under sustained
    mixed traffic through :class:`repro.serve.server.AdvisorServer`,
    plus the deterministic concurrent-read throughput model.  Four
    in-run gates: (1) the concurrent schedule is bit-identical to its
    serial replay, (2) p99 recommend latency stays within the deadline
    knob plus slack, (3) the tournament portfolio is at least every
    single strategy run standalone, (4) modelled read throughput at 4
    workers is >= 2x serial."""
    import asyncio

    from repro.core.advisor import IndexAdvisor
    from repro.optimizer.session import WhatIfSession
    from repro.query.workload import Workload
    from repro.serve import AdvisorServer
    from repro.serve.portfolio import run_portfolio
    from repro.serve.server import serial_order

    database, texts, scale = _latency_build(smoke)
    rounds = 2 if smoke else 4
    schedule = _latency_schedule(texts, rounds)

    async def drive(server, requests, clients):
        async with server:
            return await server.run_schedule(requests, clients=clients)

    def serve(requests, clients):
        db, _, _ = _latency_build(smoke)
        server = AdvisorServer(
            db, deadline_seconds=SERVE_LATENCY_DEADLINE, mode="tournament"
        )
        responses = asyncio.run(
            asyncio.wait_for(drive(server, requests, clients), timeout=600)
        )
        return server, responses

    start = time.perf_counter()
    server, responses = serve(schedule, SERVE_LATENCY_CLIENTS)
    wall_seconds = time.perf_counter() - start
    failed = [r for r in responses if not r.ok]
    if failed:  # pragma: no cover - contract breach
        raise AssertionError(
            f"serve latency leg had failed requests: "
            f"{[(r.kind, r.code, r.error) for r in failed]}"
        )

    # Gate 1: serial-equivalence replay -- the concurrent schedule's
    # responses must be bit-identical to a serial replay in commit order.
    order = serial_order(responses)
    replay_server, replayed = serve(
        [schedule[index] for index in order], clients=1
    )
    for position, index in enumerate(order):
        if (
            responses[index].comparable() != replayed[position].comparable()
        ):  # pragma: no cover - contract breach
            raise AssertionError(
                f"response {index} diverged from its serial replay"
            )
    if server.journal != replay_server.journal:  # pragma: no cover
        raise AssertionError("commit journal diverged from serial replay")

    kinds = {}
    for kind in ("query", "dml", "whatif", "recommend"):
        latencies = [
            r.elapsed_seconds for r in responses if r.kind == kind
        ]
        kinds[kind] = {
            "count": len(latencies),
            "p50_ms": _latency_percentile(latencies, 0.50) * 1000.0,
            "p99_ms": _latency_percentile(latencies, 0.99) * 1000.0,
        }

    # Gate 2: p99 recommend latency is bounded by the deadline knob plus
    # the fixed overhead slack.
    p99_recommend = kinds["recommend"]["p99_ms"] / 1000.0
    ceiling = SERVE_LATENCY_DEADLINE + SERVE_LATENCY_SLACK
    if p99_recommend > ceiling:  # pragma: no cover - contract breach
        raise AssertionError(
            f"p99 recommend latency {p99_recommend:.3f}s exceeds the "
            f"deadline knob + slack ({ceiling:.3f}s)"
        )

    # Gate 3: tournament dominance, deadline-free so the comparison is
    # deterministic -- the portfolio winner must be at least every
    # single strategy run standalone on the same database.
    workload_entries = Workload.from_statements(texts).entries
    tournament = run_portfolio(
        _latency_build(smoke)[0],
        Workload(workload_entries),
        SERVE_LATENCY_BUDGET,
        mode="tournament",
    )
    standalone_benefits = {}
    for algorithm in ("greedy", "greedy_heuristics", "ilp"):
        db = _latency_build(smoke)[0]
        standalone = IndexAdvisor(
            db, Workload(workload_entries), session=WhatIfSession(db)
        ).recommend(SERVE_LATENCY_BUDGET, algorithm=algorithm)
        standalone_benefits[algorithm] = standalone.search.benefit
        if (
            tournament.search.benefit < standalone.search.benefit - 1e-9
        ):  # pragma: no cover - contract breach
            raise AssertionError(
                f"tournament ({tournament.search.benefit:.4f}) lost to "
                f"standalone {algorithm} "
                f"({standalone.search.benefit:.4f})"
            )

    # Gate 4: deterministic concurrent-read throughput model.  Weights
    # are each query's measured engine cost (docs examined) from a
    # serial read-only pass; reads are lock-free, so the concurrent
    # makespan is LPT list scheduling over the worker count.
    read_schedule = [
        {"kind": "query", "text": text} for text in texts
    ] * (3 if smoke else 6)
    _, read_responses = serve(read_schedule, clients=1)
    weights = [
        float(r.value["docs_examined"] + 1) for r in read_responses
    ]
    total = sum(weights)
    throughput = {}
    serial_makespan = _read_makespan(weights, 1)
    for workers in SERVE_READ_WORKER_COUNTS:
        makespan = _read_makespan(weights, workers)
        throughput[str(workers)] = {
            "makespan": makespan,
            "throughput": total / makespan,
            "speedup": serial_makespan / makespan,
        }
    speedup_at_4 = throughput["4"]["speedup"]
    if speedup_at_4 < SERVE_READ_SPEEDUP_FLOOR:  # pragma: no cover
        raise AssertionError(
            f"modelled read throughput speedup at 4 workers "
            f"({speedup_at_4:.2f}x) is below the "
            f"{SERVE_READ_SPEEDUP_FLOOR}x floor"
        )

    return {
        "scale": scale,
        "rounds": rounds,
        "requests": len(schedule),
        "clients": SERVE_LATENCY_CLIENTS,
        "wall_seconds": wall_seconds,
        "deadline_seconds": SERVE_LATENCY_DEADLINE,
        "deadline_slack_seconds": SERVE_LATENCY_SLACK,
        "budget_bytes": SERVE_LATENCY_BUDGET,
        "latency": kinds,
        "gate_counters": server.gate.stats(),
        "serial_equivalent": True,
        "portfolio": {
            "tournament_benefit": tournament.search.benefit,
            "winner": tournament.portfolio_stats["winner"],
            "standalone_benefits": standalone_benefits,
        },
        "read_throughput_model": {
            "items": len(weights),
            "total_cost": total,
            "workers": throughput,
            "speedup_floor": SERVE_READ_SPEEDUP_FLOOR,
        },
    }


def run_serve_latency(smoke=False):
    """The PR 9 sweep (``--serve-latency-sweep``), written to
    ``BENCH_PR9.json`` at the repo root as the committed copy.  All four
    contracts -- serial-equivalent replay, bounded p99 recommend,
    tournament dominance, modelled read-throughput floor -- are asserted
    in-run (this is the CI serve leg's gate)."""
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "note": (
                "latency figures are informational wall clock; the "
                "gates (serial equivalence, deadline ceiling, "
                "tournament dominance, modelled read speedup) are "
                "asserted in-run"
            ),
        },
        "serve_latency": serve_latency_bench(smoke),
    }


# ---------------------------------------------------------------------------
# PR 10: epoch-keyed snapshot engine sweep
# ---------------------------------------------------------------------------

SNAPSHOT_SEED = 7
SNAPSHOT_BUDGET = 50_000
#: The delta-sync gate: bytes shipped per DML sync must be at most this
#: fraction of the base payload a fresh pool ships.
SNAPSHOT_DELTA_FRACTION = 1.0 / 3.0


def _snapshot_build(smoke):
    """The sweep's database: bytes skewed toward the unqueried
    collections so single-collection DML on SDOC (the collection every
    workload query reads) is a genuinely small delta."""
    scale = 1 if smoke else 2
    return tpox.build_database(
        num_securities=12 * scale,
        num_orders=60 * scale,
        num_customers=30 * scale,
        seed=SNAPSHOT_SEED,
    )


def _snapshot_texts(smoke):
    return [
        entry.statement.describe()
        for entry in tpox.tpox_workload(
            num_securities=12 * (1 if smoke else 2), seed=SNAPSHOT_SEED
        ).subset(6).entries
    ]


def _assert_store_bit_identity(store, database):
    """The in-run bit-identity gate: a store-composed snapshot equals a
    fresh whole-database pickle round-trip in both serialized forms."""
    import pickle

    from repro.storage.snapshots import canonical_dumps, partitioned_dumps

    baseline = pickle.loads(
        pickle.dumps(database, pickle.HIGHEST_PROTOCOL)
    )
    snapshot = store.snapshot(database)
    if partitioned_dumps(snapshot) != partitioned_dumps(
        baseline
    ):  # pragma: no cover - contract breach
        raise AssertionError(
            "store snapshot diverged from fresh pickle (partitioned form)"
        )
    if canonical_dumps(snapshot) != canonical_dumps(
        baseline
    ):  # pragma: no cover - contract breach
        raise AssertionError(
            "store snapshot diverged from fresh pickle (canonical form)"
        )


def snapshot_repeat_advise_bench(smoke):
    """Leg 1: repeat advise/whatif traffic at unchanged epochs through
    the serving front end.  Gates: (a) after the first request warms the
    store, repeats serialize NOTHING (zero re-pickles); (b) every repeat
    returns the identical recommendation; (c) the store snapshot is
    bit-identical to a fresh pickle round-trip."""
    import asyncio
    import pickle

    from repro.serve import AdvisorServer

    database = _snapshot_build(smoke)
    texts = _snapshot_texts(smoke)
    repeats = 3 if smoke else 6

    async def scenario():
        async with AdvisorServer(database, mode="tournament") as server:
            first = await server.recommend(texts, SNAPSHOT_BUDGET)
            warm = dict(server.snapshots.stats())
            values = []
            elapsed = []
            for _ in range(repeats):
                started = time.perf_counter()
                response = await server.recommend(texts, SNAPSHOT_BUDGET)
                elapsed.append(time.perf_counter() - started)
                values.append(response.value)
                await server.dispatch(
                    {
                        "kind": "whatif",
                        "statements": texts,
                        "patterns": ["/Security/Symbol"],
                        "collection": "SDOC",
                    }
                )
            return server, first, values, warm, elapsed

    server, first, values, warm, elapsed = asyncio.run(
        asyncio.wait_for(scenario(), timeout=600)
    )
    after = server.snapshots.stats()
    if not first.ok:  # pragma: no cover - contract breach
        raise AssertionError(f"warmup recommend failed: {first.error}")
    # Gate (a): zero re-pickles at unchanged epochs.
    if after["serializations"] != warm["serializations"]:  # pragma: no cover
        raise AssertionError(
            f"repeat advise at unchanged epochs re-serialized "
            f"{after['serializations'] - warm['serializations']} blob(s)"
        )
    # Gate (b): repeats are identical.
    for value in values:  # pragma: no branch
        if value != first.value:  # pragma: no cover - contract breach
            raise AssertionError("repeat advise diverged at unchanged epoch")
    # Gate (c): bit-identity.
    _assert_store_bit_identity(server.snapshots, server.database)
    full_payload = len(
        pickle.dumps(server.database, pickle.HIGHEST_PROTOCOL)
    )
    return {
        "repeats": repeats,
        "advise_requests": 1 + 2 * repeats,
        "zero_repickles_at_unchanged_epoch": True,
        "bit_identical": True,
        "full_payload_bytes": full_payload,
        "warm_serializations": warm["serializations"],
        "warm_bytes_serialized": warm["bytes_serialized"],
        "steady_state_hits": after["hits"] - warm["hits"],
        "compositions": after["compositions"],
        "repeat_recommend_seconds": {
            "best": min(elapsed),
            "mean": sum(elapsed) / len(elapsed),
        },
    }


def snapshot_serve_dml_bench(smoke):
    """Leg 2: mixed-DML serve traffic.  Gates: (a) each
    single-collection DML re-serializes exactly ONE blob (the touched
    collection -- untouched collections ride the cache); (b) under
    free-running concurrent mixed traffic the backed-off gate validates
    more reads than it wastes (BENCH_PR9's counters were 32 torn + 54
    refused vs 40 validated); (c) bit-identity after the full run."""
    import asyncio

    from repro.serve import AdvisorServer

    database = _snapshot_build(smoke)
    texts = _snapshot_texts(smoke)
    events = 3 if smoke else 6

    async def paced():
        async with AdvisorServer(database, mode="tournament") as server:
            await server.recommend(texts, SNAPSHOT_BUDGET)
            deltas = []
            for index in range(events):
                before = server.snapshots.stats()["serializations"]
                await server.dispatch(
                    {
                        "kind": "dml",
                        "text": "insert into SDOC value "
                        f"'<Security><Symbol>SW{index}</Symbol>"
                        "</Security>'",
                    }
                )
                await server.recommend(texts, SNAPSHOT_BUDGET)
                deltas.append(
                    server.snapshots.stats()["serializations"] - before
                )
            return server, deltas

    server, deltas = asyncio.run(asyncio.wait_for(paced(), timeout=600))
    # Gate (a): touched-only re-serialization, one blob per DML event.
    if any(delta != 1 for delta in deltas):  # pragma: no cover
        raise AssertionError(
            f"single-collection DML re-serialized more than the touched "
            f"collection: per-event serializations {deltas}"
        )
    _assert_store_bit_identity(server.snapshots, server.database)

    # Free-running concurrent mixed traffic for the gate-backoff half.
    rounds = 3 if smoke else 4
    schedule = []
    for round_index in range(rounds):
        for index, text in enumerate(texts):
            schedule.append({"kind": "query", "text": text})
            if round_index == 0:
                schedule.append(
                    {
                        "kind": "dml",
                        "text": "insert into SDOC value "
                        f"'<Security><Symbol>FR{index}</Symbol>"
                        "</Security>'",
                    }
                )

    async def concurrent():
        fresh = _snapshot_build(smoke)
        async with AdvisorServer(fresh) as server:
            responses = await server.run_schedule(schedule, clients=4)
            return server, responses

    gate_server, responses = asyncio.run(
        asyncio.wait_for(concurrent(), timeout=600)
    )
    failed = [r for r in responses if not r.ok]
    if failed:  # pragma: no cover - contract breach
        raise AssertionError(
            f"mixed-DML serve leg had failed requests: "
            f"{[(r.kind, r.code, r.error) for r in failed]}"
        )
    counters = gate_server.gate.stats()
    wasted = counters["reads_torn"] + counters["reads_refused"]
    # Gate (b): validated reads dominate under write pressure.
    if counters["reads_validated"] <= wasted:  # pragma: no cover
        raise AssertionError(
            f"gate backoff regressed: {counters['reads_validated']} "
            f"validated vs {wasted} wasted read attempts ({counters})"
        )
    return {
        "dml_events": events,
        "serializations_per_dml_event": deltas,
        "touched_collection_only": True,
        "bit_identical": True,
        "concurrent_requests": len(schedule),
        "gate_counters": counters,
        "validated_reads_dominate": True,
    }


def snapshot_workers_bench(smoke):
    """Leg 3: the process-pool delta-sync sweep.  Two advisor runs over
    one session with single-collection DML in between, serial vs a
    process pool.  Gates: (a) the pool reproduces the serial pair
    bit-identically; (b) it ships one base, then per DML a sync of at
    most ``SNAPSHOT_DELTA_FRACTION`` of that base payload."""
    from repro.query.workload import Workload
    from repro.storage.snapshots import SnapshotStore

    texts = _snapshot_texts(smoke)

    def advise_pair(session_factory):
        database = _snapshot_build(smoke)
        workload = Workload.from_statements(texts)
        session = session_factory(database)
        try:
            started = time.perf_counter()
            first = IndexAdvisor(
                database, workload, session=session
            ).recommend(SNAPSHOT_BUDGET)
            database.insert_document(
                "SDOC",
                "<Security><Symbol>WZ</Symbol><Yield>9.9</Yield>"
                "</Security>",
            )
            second = IndexAdvisor(
                database, workload, session=session
            ).recommend(SNAPSHOT_BUDGET)
            seconds = time.perf_counter() - started
            stats = session.stats()
            return (
                _normalized_recommendation(first),
                _normalized_recommendation(second),
                stats,
                seconds,
            )
        finally:
            session.close()

    serial_first, serial_second, _, serial_seconds = advise_pair(
        WhatIfSession
    )

    first, second, stats, seconds = advise_pair(
        lambda db: ParallelWhatIfSession(
            db,
            workers=2,
            executor="process",
            min_batch=1,
            snapshot_store=SnapshotStore(),
        )
    )
    # Gate (a): bit-identical to the serial pair.
    if (first, second) != (
        serial_first,
        serial_second,
    ):  # pragma: no cover - contract breach
        raise AssertionError("process pool diverged from the serial pair")
    shipping = stats["workers"]["shipping"]
    record = {
        "serial_seconds": serial_seconds,
        "pool_seconds": seconds,
        "shipping": shipping,
        "bit_identical": True,
    }
    if shipping["delta_syncs"] < 1 or shipping["rebases"]:  # pragma: no cover
        raise AssertionError(
            f"delta protocol did not exercise the delta lane: {shipping}"
        )
    # Gate (b): delta bytes per sync <= 1/3 of the base payload.
    base_payload = shipping["base_bytes"] / shipping["base_ships"]
    per_sync = shipping["delta_bytes"] / shipping["delta_syncs"]
    ratio = per_sync / base_payload
    if ratio > SNAPSHOT_DELTA_FRACTION:  # pragma: no cover
        raise AssertionError(
            f"delta sync shipped {ratio:.2%} of the base payload "
            f"(gate: {SNAPSHOT_DELTA_FRACTION:.2%})"
        )
    record["delta_bytes_per_sync"] = per_sync
    record["base_payload_bytes"] = base_payload
    record["delta_fraction"] = ratio
    record["delta_fraction_gate"] = SNAPSHOT_DELTA_FRACTION
    return record


def run_snapshots(smoke=False):
    """The PR 10 sweep (``--snapshot-sweep``), written to
    ``BENCH_PR10.json`` at the repo root as the committed copy.  All
    gates -- zero re-pickles at unchanged epochs, touched-collection-only
    re-serialization, validated-reads dominance, the <= 1/3 delta-bytes
    ceiling, and store/fresh-pickle bit-identity -- are asserted in-run
    (this is the CI snapshots leg's gate)."""
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "budget_bytes": SNAPSHOT_BUDGET,
            "note": (
                "*_seconds fields are informational wall clock; the "
                "gates (zero re-pickles at unchanged epochs, touched-"
                "only re-serialization, validated-reads dominance, "
                "delta bytes <= 1/3 of base payload, bit-identity to "
                "fresh pickles) are asserted in-run"
            ),
        },
        "snapshots": {
            "repeat_advise": snapshot_repeat_advise_bench(smoke),
            "serve_dml": snapshot_serve_dml_bench(smoke),
            "workers_delta_sync": snapshot_workers_bench(smoke),
        },
    }


def run_dml(smoke=False):
    """The PR 5 storage-engine sweep (``--dml-sweep``), written to
    ``BENCH_PR5.json`` at the repo root as the committed copy.  The
    delta-vs-rescan identity is asserted *in-run*: a divergence fails the
    bench (this is the CI perf-smoke gate)."""
    num_ops = 40 if smoke else 150
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "dml_ops": num_ops,
            "note": (
                "probe values and final statistics are asserted identical "
                "between the delta engine and forced full rescans; the "
                "delta side must finish with exactly one (priming) rescan"
            ),
        },
        "dml": {},
        "scan": {},
    }
    scales = SMOKE_SCALES if smoke else ("tpox_small", "tpox_medium")
    for name in scales:
        results["dml"][name] = dml_bench(name, num_ops=num_ops)
        results["scan"][name] = scan_bench(name, repeats=3 if smoke else 5)
    return results


def run_workers(smoke=False):
    """The PR 4 workers sweep alone (``--workers-sweep``), written to
    ``BENCH_PR4.json`` at the repo root as the committed copy."""
    scales = SMOKE_SCALES if smoke else ("tpox_small", "xmark_small")
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": available_workers(),
            "smoke": smoke,
            "budget_fraction": BUDGET_FRACTION,
            "worker_counts": list(WORKER_COUNTS),
            "note": (
                "recommendations are asserted bit-identical across all "
                "worker counts; wall-time speedup depends on cpu_count"
            ),
        },
        "workers": {},
    }
    for name in scales:
        for algorithm in ALGORITHMS:
            results["workers"][f"{name}_{algorithm}"] = workers_bench(
                name, algorithm=algorithm
            )
    return results


def run(smoke=False):
    scales = SMOKE_SCALES if smoke else tuple(SCALES)
    matcher_scales = SMOKE_SCALES if smoke else MATCHER_SCALES
    repeats = 3 if smoke else 5
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "smoke": smoke,
            "budget_fraction": BUDGET_FRACTION,
        },
        "matcher": {},
        "evaluator": {},
        "recommend": {},
    }
    for name in matcher_scales:
        results["matcher"][name] = matcher_bench(name, repeats=repeats)
    for name in matcher_scales:
        results["evaluator"][name] = evaluator_bench(name)
    for name in scales:
        for algorithm in ALGORITHMS:
            results["recommend"][f"{name}_{algorithm}"] = recommend_bench(
                name, algorithm
            )
    return results


def compare(results, committed_path, tolerance):
    """Exit non-zero if any freshly measured recommend time regressed more
    than ``tolerance`` (fractional) against the committed record."""
    committed = json.loads(Path(committed_path).read_text())
    reference = committed.get("recommend", {})
    failures = []
    for key, fresh in results["recommend"].items():
        baseline = reference.get(key)
        if baseline is None:
            continue
        limit = baseline["seconds"] * (1.0 + tolerance)
        status = "OK" if fresh["seconds"] <= limit else "REGRESSED"
        print(
            f"{status:9s} {key}: {fresh['seconds']:.4f}s "
            f"(committed {baseline['seconds']:.4f}s, limit {limit:.4f}s)"
        )
        if fresh["seconds"] > limit:
            failures.append(key)
    if failures:
        print(f"recommend() wall time regressed >"
              f"{tolerance:.0%} on: {', '.join(failures)}")
        return 1
    print("recommend() wall time within tolerance.")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--smoke", action="store_true", help="quick subset (CI-sized)"
    )
    parser.add_argument(
        "--workers-sweep",
        action="store_true",
        help="run only the PR 4 parallel-workers sweep (BENCH_PR4.json)",
    )
    parser.add_argument(
        "--dml-sweep",
        action="store_true",
        help="run only the PR 5 storage-engine sweep (BENCH_PR5.json)",
    )
    parser.add_argument(
        "--cluster-sweep",
        action="store_true",
        help="run only the PR 6 cluster sweep (BENCH_PR6.json)",
    )
    parser.add_argument(
        "--ilp-sweep",
        action="store_true",
        help="run only the PR 7 compression+ILP sweep (BENCH_PR7.json)",
    )
    parser.add_argument(
        "--serve-sweep",
        action="store_true",
        help="run only the PR 8 online-daemon drift replay (BENCH_PR8.json)",
    )
    parser.add_argument(
        "--serve-latency-sweep",
        action="store_true",
        help="run only the PR 9 serving-front-end latency sweep "
        "(BENCH_PR9.json)",
    )
    parser.add_argument(
        "--snapshot-sweep",
        action="store_true",
        help="run only the PR 10 snapshot-engine sweep (BENCH_PR10.json)",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="directory for the --serve-sweep cycle journal "
        "(default: no journal; CI uploads this as an artifact)",
    )
    parser.add_argument(
        "--merge-before",
        default=None,
        help="JSON file with a frozen pre-PR capture to embed as 'before'",
    )
    parser.add_argument(
        "--compare",
        default=None,
        help="committed results JSON to gate recommend wall time against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional recommend-time regression for --compare",
    )
    args = parser.parse_args(argv)

    # The legacy sections (and the committed BENCH_PR2 figures they are
    # compared to) are serial by contract; the workers sweep builds its
    # parallel sessions explicitly, so this pin cannot mask it.
    os.environ["REPRO_WORKERS"] = "0"

    if (
        args.workers_sweep
        or args.dml_sweep
        or args.cluster_sweep
        or args.ilp_sweep
        or args.serve_sweep
        or args.serve_latency_sweep
        or args.snapshot_sweep
    ):
        if args.workers_sweep:
            results = run_workers(smoke=args.smoke)
        elif args.dml_sweep:
            results = run_dml(smoke=args.smoke)
        elif args.ilp_sweep:
            results = run_ilp(smoke=args.smoke)
        elif args.serve_latency_sweep:
            results = run_serve_latency(smoke=args.smoke)
        elif args.snapshot_sweep:
            results = run_snapshots(smoke=args.smoke)
        elif args.serve_sweep:
            results = run_serve(
                smoke=args.smoke, journal_dir=args.journal_dir
            )
        else:
            results = run_cluster(smoke=args.smoke)
        print(json.dumps(results, indent=2))
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    results = run(smoke=args.smoke)
    if args.merge_before:
        results["before"] = json.loads(Path(args.merge_before).read_text())

    print(json.dumps(results, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.compare:
        return compare(results, args.compare, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
