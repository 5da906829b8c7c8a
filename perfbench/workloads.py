"""The three benchmark workloads, written against the public API of
``repro``.

Each workload is a closed loop with one unit of work per ``step``: a
``recommend`` request (``advise``), a served request (``serve``, two
clients) or an ingested statement (``online``).  Every input is
generated from the run's seed; the databases use the generators' fixed
data seeds, so only the request streams change with ``--seed``.

A workload object owns one set-up at a time: :meth:`setup` builds it
under a :class:`Stopwatch` (work that only prepares a correctness
reference or a budget figure runs with the watch paused), :meth:`first`
runs the first unit of work on the cold set-up, :meth:`run` is the timed
phase and :meth:`check` the correctness checks that follow it.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import multiprocessing
import os
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import Executor, IndexAdvisor, Workload
from repro.workloads import tpox, xmark
from repro.workloads.stream import drifting_stream, synthetic_stream

#: Fixed data seeds of the generated databases (the generators' defaults).
TPOX_DATA_SEED = 42
XMARK_DATA_SEED = 7
#: The mixed database of ``advise`` and ``online``.
MIXED_TPOX = dict(num_securities=1000, num_orders=1000, num_customers=500)
MIXED_XMARK = dict(num_items=500, num_persons=500, num_auctions=500)
#: The smaller TPoX database of ``serve``: advise-class requests stay
#: under a second, so one run holds enough of them.
SERVE_TPOX = dict(num_securities=400, num_orders=400, num_customers=200)


#: Cold first requests per ``advise`` set-up (statistics are dropped
#: again before each); their median is the set-up's ``first_ms`` sample.
FIRST_REPEATS = 3


@dataclass
class Op:
    """One completed operation of a timed phase."""

    kind: str
    seconds: float
    ok: bool = True
    #: Whether it counts towards ``ops_per_s``, ``attempted`` and
    #: ``failed`` (``False`` for a second view of a counted operation).
    counted: bool = True


class Stopwatch:
    """Set-up timer that can pause around untimed preparation."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started = time.perf_counter()

    @contextmanager
    def paused(self):
        self.elapsed += time.perf_counter() - self._started
        try:
            yield
        finally:
            self._started = time.perf_counter()

    def stop(self) -> float:
        self.elapsed += time.perf_counter() - self._started
        return self.elapsed


def build_mixed():
    """TPoX (1,000 securities, 1,000 orders, 500 customers) and XMark
    (500 items, 500 persons, 500 auctions) in one database."""
    database = tpox.build_database(**MIXED_TPOX, seed=TPOX_DATA_SEED)
    xmark.build_database(**MIXED_XMARK, seed=XMARK_DATA_SEED, database=database)
    return database


def all_basic_size(database, workload: Workload, compress: str = "off") -> int:
    """Total size of every basic candidate (the budget base)."""
    advisor = IndexAdvisor(database, workload, compress=compress)
    try:
        return sum(c.size_bytes for c in advisor.candidates.basics())
    finally:
        advisor.session.close()


def fingerprint(recommendation) -> str:
    """Identity of a recommendation: its indexes and its estimates."""
    indexes = sorted(
        (str(c.pattern), c.value_type.value, c.collection, c.general)
        for c in recommendation.configuration
    )
    key = repr((indexes, recommendation.estimated_speedup, recommendation.search.benefit))
    return hashlib.sha1(key.encode()).hexdigest()[:16]


def pooled_speedup(recommendations) -> float:
    """Estimated speedup of a set of recommendations taken together:
    total estimated workload cost before over total after (a mean
    weighted by workload cost, so one small window with an extreme ratio
    does not dominate)."""
    before = sum(r.workload_cost_before for r in recommendations)
    return before / sum(r.workload_cost_after for r in recommendations)


def output_digest(result) -> str:
    return hashlib.sha1(
        ("%d\n" % result.rows + "\n".join(result.output)).encode()
    ).hexdigest()


def index_free_digests(database, statements) -> Dict[str, str]:
    """Output digests of ``statements`` executed with every index of
    ``database`` dropped (the reference the executed rows must equal)."""
    database.drop_all_indexes()
    executor = Executor(database)
    return {
        text: output_digest(executor.execute(statement, collect_output=True))
        for text, statement in statements.items()
    }


class Bench:
    """Common shape of a workload; see the module docstring."""

    name = ""
    #: Operation kind whose latencies give ``p50_ms`` and ``tail_ms``.
    primary = ""
    #: Samples that lie beyond the ``tail_ms`` percentile.
    tail_beyond = 10
    #: Value of ``REPRO_WORKERS`` during the run (``None``: unset).
    workers_env: Optional[str] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.state = None
        self.failures: List[str] = []
        #: Span recorder of a traced run: each operation gets a request id.
        self.recorder = None

    def tag(self, request_id: int) -> None:
        if self.recorder is not None:
            self.recorder.set_request(request_id)

    def environment(self) -> None:
        if self.workers_env is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = self.workers_env

    def setup(self) -> float:
        raise NotImplementedError

    def first(self) -> float:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed warm-up between :meth:`first` and the timed phase."""

    def step(self) -> List[Op]:
        raise NotImplementedError

    def round_done(self) -> bool:
        """Whether the timed phase may stop here (after whole rounds,
        where a workload's est_speedup depends on one)."""
        return True

    def run(self, seconds: Optional[float], max_ops: Optional[int] = None) -> Tuple[List[Op], float]:
        """The timed phase: steps until ``seconds`` passed and a round
        is complete, or, given ``max_ops``, until that many operations
        ran (``seconds`` then only caps the phase)."""
        ops: List[Op] = []
        started = time.perf_counter()
        while True:
            self.tag(len(ops) + 2)
            ops.extend(self.step())
            elapsed = time.perf_counter() - started
            if max_ops is not None:
                if len(ops) >= max_ops or elapsed >= seconds:
                    break
            elif elapsed >= seconds and self.round_done():
                break
        return ops, time.perf_counter() - started

    def check(self) -> int:
        """Correctness checks after the timed phase; returns mismatches
        (each also described in :attr:`failures`)."""
        return 0

    def est_speedup(self) -> float:
        raise NotImplementedError

    def fingerprints(self) -> List[str]:
        """Recommendation fingerprints that must repeat across runs of
        one seed."""
        return []

    def layer_counters(self) -> Dict[str, float]:
        """Workload-owned counters for the traced run (server, daemon)."""
        return {}

    def close(self) -> None:
        self.state = None
        gc.collect()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    #: Attributes derived once per run from the inputs (budget figures);
    #: a traced run adopts them from its untraced pass.
    derived: Tuple[str, ...] = ()

    def adopt(self, other: "Bench") -> None:
        for attribute in self.derived:
            setattr(self, attribute, getattr(other, attribute))


# ----------------------------------------------------------------------
# advise
# ----------------------------------------------------------------------
ADVISE_ALGORITHMS = ("greedy", "greedy_heuristics", "topdown_lite", "topdown_full", "dp", "ilp")
ADVISE_BUDGET_FRACTIONS = (0.25, 0.5, 1.0)
#: Rounds the timed phase runs at least, so every run times the same
#: number of requests of each kind.
ADVISE_MIN_ROUNDS = 3


class Advise(Bench):
    """A fresh ``IndexAdvisor.recommend`` per request over a 2,000-arrival
    template-compressed stream; requests cycle through six algorithms at
    three budgets (one round = 18 requests)."""

    name = "advise"
    primary = "advise"
    derived = ("budgets",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = synthetic_stream(
            2000, seed=seed, num_securities=MIXED_TPOX["num_securities"], update_fraction=0.02
        )
        self.budgets: Optional[List[int]] = None
        self.requests = 0
        self.by_request: Dict[int, set] = {}
        self.first_fingerprints: List[str] = []
        self.round: Dict[int, object] = {}

    def combo(self, index: int) -> Tuple[str, int]:
        budget_index, algorithm_index = divmod(index % 18, len(ADVISE_ALGORITHMS))
        return ADVISE_ALGORITHMS[algorithm_index], self.budgets[budget_index]

    def setup(self) -> float:
        watch = Stopwatch()
        database = build_mixed()
        with watch.paused():
            if self.budgets is None:
                total = all_basic_size(database, self.stream, compress="template")
                self.budgets = [int(total * f) for f in ADVISE_BUDGET_FRACTIONS]
        self.state = database
        self.requests = 0
        return watch.stop()

    def _recommend(self, index: int) -> Tuple[float, object]:
        algorithm, budget = self.combo(index)
        started = time.perf_counter()
        advisor = IndexAdvisor(self.state, self.stream, compress="template")
        try:
            recommendation = advisor.recommend(budget, algorithm=algorithm)
        finally:
            advisor.session.close()
        return time.perf_counter() - started, recommendation

    def first(self) -> float:
        """The first request with statistics cold, as after a bulk load
        (dropped again before each of the repeats)."""
        samples = []
        for _ in range(FIRST_REPEATS):
            for name in self.state.collections:
                self.state.invalidate_statistics(name)
            gc.collect()
            seconds, recommendation = self._recommend(0)
            self.first_fingerprints.append(fingerprint(recommendation))
            self.by_request.setdefault(0, set()).add(fingerprint(recommendation))
            samples.append(seconds)
        return statistics.median(samples)

    def step(self) -> List[Op]:
        index = self.requests
        self.requests += 1
        seconds, recommendation = self._recommend(index)
        self.by_request.setdefault(index % 18, set()).add(fingerprint(recommendation))
        if index < 18:
            self.round[index] = recommendation
        return [Op("advise", seconds)]

    def round_done(self) -> bool:
        return self.requests >= 18 * ADVISE_MIN_ROUNDS and self.requests % 18 == 0

    def check(self) -> int:
        mismatches = 0
        if len(set(self.first_fingerprints)) > 1:
            mismatches += 1
            self.fail(f"cold first recommendation differs across set-ups: {self.first_fingerprints}")
        for index, prints in sorted(self.by_request.items()):
            if len(prints) > 1:
                mismatches += 1
                self.fail(f"request {self.combo(index)} gave {len(prints)} different recommendations")
        return mismatches

    def est_speedup(self) -> float:
        return pooled_speedup(self.round.values())

    def fingerprints(self) -> List[str]:
        return [sorted(self.by_request[i])[0] for i in sorted(self.by_request)]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_CLIENTS = 2
#: Rounds per block; a block holds one ``recommend``.
SERVE_BLOCK_ROUNDS = 5
#: Blocks the timed phase runs at least: the queries' tail percentile
#: sits among the reads stalled behind the other client's ``whatif``
#: (about one per round), so it needs many of them.
SERVE_MIN_BLOCKS = 6
#: Queries beyond the ``tail_ms`` percentile: about half of the ~29
#: stalled reads of six blocks, so the tail is a typical stall, not
#: whichever few stalls met a burst of load on a shared host.
SERVE_TAIL_BEYOND = 14
SERVE_WHATIF_PATTERNS = ("/Security/Symbol", "/Security/Yield:numeric", "/Security/SecInfo/*/Sector")


class Serve(Bench):
    """``AdvisorServer`` at its defaults with two closed-loop clients;
    rounds of the 11 TPoX queries with security inserts, a delete, a
    ``whatif`` and, every fifth round, a ``recommend``.  ``est_speedup``
    pools the ``recommend`` replies of the timed phase's first
    :data:`SERVE_MIN_BLOCKS` blocks."""

    name = "serve"
    primary = "query"
    tail_beyond = SERVE_TAIL_BEYOND

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.queries = tpox.tpox_queries(SERVE_TPOX["num_securities"], seed=seed)
        self.budget: Optional[int] = None
        self.recommendation_prints: List[str] = []
        self.requests: List[Dict] = []
        self.responses: List = []
        self.latencies: List[float] = []
        self.rounds = 0

    def _build(self):
        from repro.serve import AdvisorServer

        database = tpox.build_database(**SERVE_TPOX, seed=TPOX_DATA_SEED)
        workload = Workload.from_statements(self.queries)
        advisor = IndexAdvisor(database, workload)
        try:
            total = sum(c.size_bytes for c in advisor.candidates.basics())
            recommendation = advisor.recommend(total // 2, algorithm="greedy_heuristics")
            advisor.create_indexes(recommendation)
        finally:
            advisor.session.close()
        server = AdvisorServer(database)
        loop = asyncio.new_event_loop()
        loop.run_until_complete(server.start())
        return (database, server, loop), recommendation, total

    def setup(self) -> float:
        watch = Stopwatch()
        self.state, recommendation, total = self._build()
        self.budget = total // 2
        self.recommendation_prints.append(fingerprint(recommendation))
        self.requests, self.responses, self.latencies = [], [], []
        self.rounds = 0
        return watch.stop()

    def round_requests(self, round_index: int) -> List[Dict]:
        rng = random.Random(self.seed * 1_000_003 + round_index)
        requests: List[Dict] = []
        symbols: List[str] = []
        for position, text in enumerate(self.queries):
            requests.append({"kind": "query", "text": text})
            if position % 3 == 2:
                number = 100_000 + 8 * round_index + len(symbols)
                symbols.append(tpox.symbol_for(number))
                flat = " ".join(tpox.security_document(number, rng).split())
                requests.append({"kind": "dml", "text": f"insert into SDOC value '{flat}'"})
        requests.append(
            {"kind": "dml", "text": f'delete from SDOC where /Security/Symbol = "{symbols[0]}"'}
        )
        requests.append(
            {
                "kind": "whatif",
                "statements": list(self.queries),
                "patterns": list(SERVE_WHATIF_PATTERNS),
                "collection": "SDOC",
            }
        )
        if round_index % SERVE_BLOCK_ROUNDS == 0:
            requests.append(
                {"kind": "recommend", "statements": list(self.queries), "budget_bytes": self.budget}
            )
        return requests

    def _drive(self, requests_source, stop) -> List[Op]:
        """Run clients that each pull the next request and wait for its
        reply until ``stop()`` says no more requests start."""
        _, server, loop = self.state
        ops: List[Op] = []

        async def client() -> None:
            while not stop():
                request = requests_source()
                if request is None:
                    return
                index = len(self.requests)
                self.tag(index + 2)
                self.requests.append(request)
                self.responses.append(None)
                self.latencies.append(0.0)
                started = time.perf_counter()
                response = await server.dispatch(request)
                seconds = time.perf_counter() - started
                self.responses[index] = response
                self.latencies[index] = seconds
                ops.append(Op(request["kind"], seconds, response.ok))

        async def clients() -> None:
            await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))

        loop.run_until_complete(clients())
        return ops

    def first(self) -> float:
        """Round 0 on the cold set-up (empty snapshot cache)."""
        pending = self.round_requests(0)
        self.rounds = 1
        started = time.perf_counter()
        self._drive(lambda: pending.pop(0) if pending else None, lambda: False)
        return time.perf_counter() - started

    def run(self, seconds: Optional[float], max_ops: Optional[int] = None):
        """Rounds from 1 on; without ``max_ops`` the last request issued
        closes a block, so every run holds the same mix, and at least
        :data:`SERVE_MIN_BLOCKS` blocks run."""
        pending: List[Dict] = []
        issued = len(self.requests)
        started = time.perf_counter()

        def source():
            if not pending:
                pending.extend(self.round_requests(self.rounds))
                self.rounds += 1
            return pending.pop(0)

        def stop() -> bool:
            elapsed = time.perf_counter() - started
            if max_ops is not None:
                return len(self.requests) - issued >= max_ops or elapsed >= seconds
            blocks, partial = divmod(self.rounds - 1, SERVE_BLOCK_ROUNDS)
            return (elapsed >= seconds and not pending and not partial
                    and blocks >= SERVE_MIN_BLOCKS)

        ops = self._drive(source, stop)
        return ops, time.perf_counter() - started

    def check(self) -> int:
        from repro.serve.server import serial_order

        mismatches = 0
        # Serial replay in commit order on an identical fresh set-up.
        (database, server, loop), _, _ = self._build()
        order = serial_order(self.responses)

        async def replay():
            return [await server.dispatch(self.requests[index]) for index in order]

        replayed = loop.run_until_complete(replay())
        for index, response in zip(order, replayed):
            if response.comparable() != self.responses[index].comparable():
                mismatches += 1
                self.fail(f"request {index} ({self.requests[index]['kind']}) differs from its serial replay")
        if server.journal != self.state[1].journal:
            mismatches += 1
            self.fail("commit journal differs from the serial replay")
        loop.run_until_complete(server.stop())
        loop.close()
        # Final state: every distinct query with the configuration equals
        # an index-free execution.
        database = self.state[0]
        executor = Executor(database)
        statements = {}
        served = {}
        for text in self.queries:
            entry = Workload.from_statements([text]).entries[0]
            statements[text] = entry.statement
            served[text] = output_digest(executor.execute(entry.statement, collect_output=True))
        for text, digest in index_free_digests(database, statements).items():
            if digest != served[text]:
                mismatches += 1
                self.fail(f"rows differ from an index-free execution: {text}")
        return mismatches

    def served_recommendations(self) -> List[Dict]:
        """Replies of the timed phase's first :data:`SERVE_MIN_BLOCKS`
        ``recommend`` requests (the first ``recommend`` is round 0's)."""
        replies = [
            response for request, response in zip(self.requests, self.responses)
            if request["kind"] == "recommend"
        ]
        return [reply.value for reply in replies[1:1 + SERVE_MIN_BLOCKS] if reply.ok]

    def est_speedup(self) -> float:
        """Pooled like :func:`pooled_speedup`: total cost before over
        total cost after."""
        served = self.served_recommendations()
        if not served:
            return 0.0
        before = sum(value["workload_cost_before"] for value in served)
        return before / sum(value["workload_cost_after"] for value in served)

    def fingerprints(self) -> List[str]:
        served = [
            hashlib.sha1(repr((
                sorted(sorted(index.items()) for index in value["indexes"]),
                value["workload_cost_before"], value["workload_cost_after"],
            )).encode()).hexdigest()[:16]
            for value in self.served_recommendations()
        ]
        return sorted(set(self.recommendation_prints)) + served

    def layer_counters(self) -> Dict[str, float]:
        server = self.state[1]
        out: Dict[str, float] = {}
        snapshots = server.snapshots.stats()
        for key in ("hits", "misses", "bytes_serialized"):
            out[f"storage.snapshots.{key}"] = snapshots[key]
        lookups = snapshots["hits"] + snapshots["misses"]
        out["storage.snapshots.hit_ratio"] = snapshots["hits"] / lookups if lookups else 0.0
        gate = server.gate.stats()
        for key in ("reads_validated", "reads_torn", "reads_refused", "reads_backoff_waits"):
            out[f"storage.epoch_gate.{key}"] = gate[key]
        reads = gate["reads_validated"] + gate["reads_torn"] + gate["reads_refused"]
        out["storage.epoch_gate.validated_ratio"] = gate["reads_validated"] / reads if reads else 0.0
        out["serve.admission.rejected"] = sum(
            tenant["rejected"] for tenant in server.admission.stats().values()
        )
        for response, seconds in zip(self.responses, self.latencies):
            if response is None:
                continue
            server_ms = response.elapsed_seconds * 1000.0
            key = f"serve.{response.kind}"
            out[f"{key}.server_ms"] = out.get(f"{key}.server_ms", 0.0) + server_ms
            out[f"{key}.wait_ms"] = out.get(f"{key}.wait_ms", 0.0) + seconds * 1000.0 - server_ms
        return out

    def close(self) -> None:
        if self.state is not None:
            _, server, loop = self.state
            loop.run_until_complete(server.stop())
            loop.close()
        super().close()


# ----------------------------------------------------------------------
# online
# ----------------------------------------------------------------------
ONLINE_STREAM_ARRIVALS = 600
ONLINE_WORKERS = "2"
#: Fingerprint entry of a first cycle that returned no recommendation.
NO_RECOMMENDATION = "none"


class Online(Bench):
    """The online daemon (BENCH_PR8 policy) replaying a 3-phase drifting
    stream plus one forced cycle per round, with what-if on two process
    workers.  Ingested statements and forced cycles are the counted
    operations."""

    name = "online"
    primary = "cycle"
    workers_env = ONLINE_WORKERS
    derived = ("budget",)

    def __init__(self, seed: int, ledger) -> None:
        super().__init__(seed)
        self.ledger = ledger
        self.texts, _ = drifting_stream(
            num_statements=ONLINE_STREAM_ARRIVALS, seed=seed,
            num_securities=MIXED_TPOX["num_securities"], phases=3,
        )
        self.budget: Optional[int] = None
        self.position = 0
        self.rounds = 0
        self.first_fingerprints: List[str] = []
        self.round_start = 0
        self.round_end: Optional[int] = None

    def _policy(self):
        from repro.online import OnlinePolicy

        return OnlinePolicy(
            budget_bytes=self.budget,
            algorithm="greedy_heuristics",
            window_capacity=150,
            cycle_interval=25,
            drift_threshold=0.3,
            min_relative_improvement=0.02,
            cooldown_cycles=1,
            cycle_call_budget=400,
            compress="template",
            retries=1,
        )

    def setup(self) -> float:
        from repro.online import OnlineAdvisor

        watch = Stopwatch()
        database = build_mixed()
        for name in sorted(database.collections):
            database.runstats(name)
        with watch.paused():
            if self.budget is None:
                # BENCH_PR8's budget: 30% of the stream's basic candidates.
                stream = Workload.from_statements(self.texts)
                self.budget = int(all_basic_size(database, stream, "template") * 0.3)
        self.state = OnlineAdvisor(database, self._policy())
        self.position = 0
        self.rounds = 0
        return watch.stop()

    def _ingest(self) -> List[Op]:
        """One arrival; a cycle it triggered is also reported as its own
        uncounted ``cycle`` / ``cycle-skip`` entry with the same latency."""
        text = self.texts[self.position % len(self.texts)]
        self.position += 1
        started = time.perf_counter()
        report = self.state.ingest(text)
        seconds = time.perf_counter() - started
        if report is None:
            return [Op("ingest", seconds)]
        ok = report.action != "failed"
        return [Op("ingest", seconds, ok), Op(_cycle_kind(report), seconds, ok, counted=False)]

    def first(self) -> float:
        """Ingest up to the first cycle (which tunes: no baseline yet)."""
        recommendations = self.ledger.recommendations
        self.round_start = len(recommendations)
        while True:
            ops = self._ingest()
            if len(ops) > 1:
                break
        if len(recommendations) > self.round_start:
            self.first_fingerprints.append(fingerprint(recommendations[self.round_start]))
        else:
            self.first_fingerprints.append(NO_RECOMMENDATION)
        return ops[-1].seconds

    def step(self) -> List[Op]:
        ops = self._ingest()
        if self.position % len(self.texts) == 0:
            started = time.perf_counter()
            report = self.state.run_cycle(force=True)
            ops.append(
                Op(_cycle_kind(report), time.perf_counter() - started, report.action != "failed")
            )
            self.rounds += 1
            if self.rounds == 1:
                self.round_end = len(self.ledger.recommendations)
        return ops

    def round_done(self) -> bool:
        return self.rounds >= 1

    def check(self) -> int:
        if NO_RECOMMENDATION in self.first_fingerprints:
            self.fail(f"a first tuning cycle recommended nothing: {self.first_fingerprints}")
            return 1
        if len(set(self.first_fingerprints)) > 1:
            self.fail(f"first tuning cycle differs across set-ups: {self.first_fingerprints}")
            return 1
        return 0

    def est_speedup(self) -> float:
        return pooled_speedup(self.ledger.recommendations[self.round_start:self.round_end])

    def fingerprints(self) -> List[str]:
        return sorted(set(self.first_fingerprints))

    def layer_counters(self) -> Dict[str, float]:
        counters = self.state.counters
        return {
            f"online.{key}": counters[key]
            for key in ("cycles_tuned", "skipped_no_drift", "applies", "rollbacks")
        }

    def close(self) -> None:
        super().close()
        # Each tuning cycle's parallel session owns a worker pool that is
        # shut down when the session is collected; wait for the workers.
        for child in multiprocessing.active_children():
            child.join(timeout=30)


def _cycle_kind(report) -> str:
    """``cycle`` for a cycle that ran a search, ``cycle-skip`` otherwise."""
    return "cycle-skip" if report.action.startswith("skip") else "cycle"
