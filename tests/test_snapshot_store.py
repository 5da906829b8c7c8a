"""The snapshot engine's differential contract (ISSUE PR 10).

Three layers of pinning:

1. **Store bit-identity** -- a :class:`SnapshotStore` snapshot must be
   bit-identical to a fresh ``pickle.loads(pickle.dumps(database))``
   round-trip in both serialized forms (:func:`partitioned_dumps` raw
   equality and whole-graph :func:`canonical_dumps`), under ANY
   interleaving of DML, DDL, runstats, statistics invalidation, lazy
   summary repair, and LRU evictions (hypothesis drives the op stream).
2. **Re-serialization accounting** -- repeat snapshots at unchanged
   epochs serialize nothing; DML on one collection re-serializes only
   that collection (the PR's headline perf claims, pinned as counter
   equalities, not timings).
3. **Consumers** -- the serve layer's request snapshots and the
   parallel engine's delta-shipped process workers produce results
   bit-identical to their store-less baselines, and the EpochGate's
   read-retry backoff (satellite 1) makes validated reads dominate
   under the seeded adversarial scheduler.
"""

import asyncio
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import IndexAdvisor
from repro.optimizer.session import WhatIfSession
from repro.parallel import ParallelWhatIfSession
from repro.query.workload import Workload
from repro.serve import AdvisorServer, SeededScheduler
from repro.storage import IndexDefinition, IndexValueType
from repro.storage.snapshots import (
    SnapshotStore,
    canonical_dumps,
    partitioned_dumps,
)
from repro.workloads import tpox
from repro.xpath import parse_pattern

TIMEOUT = 180
BUDGET = 50_000


def build_database():
    return tpox.build_database(
        num_securities=12, num_orders=12, num_customers=6, seed=7
    )


WORKLOAD = tpox.tpox_workload(num_securities=12, seed=7).subset(6)
QUERY_TEXTS = [e.statement.describe() for e in WORKLOAD.entries]

SECURITY = (
    "<Security><Symbol>ZZ9999</Symbol><Yield>9.9</Yield></Security>"
)
ORDER = "<FIXML><Order><OrdQty>17</OrdQty></Order></FIXML>"


def fresh_round_trip(database):
    """The store-less baseline: one whole-database pickle round-trip."""
    return pickle.loads(pickle.dumps(database, pickle.HIGHEST_PROTOCOL))


def assert_bit_identical(snapshot, baseline):
    """Both serialized forms of the bit-identity contract."""
    assert partitioned_dumps(snapshot) == partitioned_dumps(baseline)
    assert canonical_dumps(snapshot) == canonical_dumps(baseline)


# ---------------------------------------------------------------------------
# Store bit-identity
# ---------------------------------------------------------------------------


class TestStoreBitIdentity:
    def test_snapshot_equals_fresh_round_trip(self):
        database = build_database()
        store = SnapshotStore()
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )

    def test_snapshot_after_each_mutation_kind(self):
        """Walk every mutation kind and re-check identity after each."""
        database = build_database()
        store = SnapshotStore()
        mutations = [
            lambda: database.runstats("SDOC"),
            lambda: database.insert_document("SDOC", SECURITY),
            lambda: database.delete_document("SDOC", 0),
            lambda: database.create_index(
                IndexDefinition(
                    "snap_idx",
                    "SDOC",
                    parse_pattern("/Security/Yield"),
                    IndexValueType.NUMERIC,
                )
            ),
            lambda: database.drop_index("snap_idx"),
            lambda: database.invalidate_statistics("SDOC"),
        ]
        for mutate in mutations:
            mutate()
            assert_bit_identical(
                store.snapshot(database), fresh_round_trip(database)
            )

    def test_snapshot_of_snapshot_is_pure_cache_hits(self):
        """A composed snapshot inherits its source's token: snapshotting
        it again serializes nothing and stays bit-identical."""
        database = build_database()
        database.runstats("SDOC")
        store = SnapshotStore()
        first = store.snapshot(database)
        before = store.stats()["serializations"]
        second = store.snapshot(first)
        assert store.stats()["serializations"] == before
        assert_bit_identical(second, fresh_round_trip(database))

    def test_evictions_do_not_break_identity(self):
        """A budget too small to hold the blobs forces evictions and
        re-serializations -- never wrong bytes."""
        database = build_database()
        database.runstats("SDOC")
        store = SnapshotStore(budget_bytes=1)
        for _ in range(3):
            assert_bit_identical(
                store.snapshot(database), fresh_round_trip(database)
            )
        assert store.stats()["evictions"] > 0


#: The hypothesis op alphabet: (label, mutator).  Each op is keyed by
#: integers drawn per-example so the stream stays shrinkable.
def _apply_op(database, op, payload):
    collections = sorted(database.collections)
    name = collections[payload % len(collections)]
    if op == 0:
        text = SECURITY if name == "SDOC" else ORDER
        database.insert_document(name, text)
    elif op == 1:
        live = [
            doc_id
            for doc_id, document in enumerate(
                database.collections[name].documents
            )
            if document is not None
        ]
        if live:
            database.delete_document(name, live[payload % len(live)])
    elif op == 2:
        database.runstats(name)
    elif op == 3:
        database.invalidate_statistics(name)
    elif op == 4:
        index_name = f"hyp_idx_{payload}"
        if index_name not in database.indexes:
            database.create_index(
                IndexDefinition(
                    index_name,
                    "SDOC",
                    parse_pattern("/Security/Symbol"),
                    IndexValueType.STRING,
                )
            )
    elif op == 5:
        for index_name in list(database.indexes):
            database.drop_index(index_name)
            break


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=8,
    ),
    budget=st.sampled_from([1, 10_000, SnapshotStore().budget_bytes]),
    snapshot_every_step=st.booleans(),
)
def test_any_interleaving_stays_bit_identical(
    ops, budget, snapshot_every_step
):
    """For ANY op stream (DML, DDL, runstats, invalidation) and ANY
    budget (including one forcing evictions on every snapshot), the
    store's snapshot equals the fresh round-trip -- whether the store
    snapshotted at every step (warm, mostly hits) or only at the end
    (cold keys for every intermediate state)."""
    database = build_database()
    store = SnapshotStore(budget_bytes=budget)
    for op, payload in ops:
        _apply_op(database, op, payload)
        if snapshot_every_step:
            assert_bit_identical(
                store.snapshot(database), fresh_round_trip(database)
            )
    assert_bit_identical(store.snapshot(database), fresh_round_trip(database))


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_whatif_probes_between_ops_stay_bit_identical(ops):
    """What-if probing mutates statistics lazily (dirty-summary repair
    moves the mutation stamp without an epoch bump) -- the store must
    track it.  Probe between every op and re-check identity."""
    database = build_database()
    store = SnapshotStore()
    statement = WORKLOAD.entries[0].statement
    for op, payload in ops:
        _apply_op(database, op, payload)
        session = WhatIfSession(database)
        with session.evaluating(()) as scope:
            scope.result(statement)
        assert_bit_identical(
            store.snapshot(database), fresh_round_trip(database)
        )


# ---------------------------------------------------------------------------
# Re-serialization accounting (the perf claims as counter equalities)
# ---------------------------------------------------------------------------


class TestReserializationAccounting:
    def test_unchanged_epoch_serializes_nothing(self):
        """Repeat snapshots at unchanged epochs are pure cache hits --
        the 'repeat advise at unchanged epoch = zero re-pickles' gate."""
        database = build_database()
        database.runstats("SDOC")
        store = SnapshotStore()
        store.snapshot(database)
        baseline = store.stats()
        for _ in range(5):
            store.snapshot(database)
        after = store.stats()
        assert after["serializations"] == baseline["serializations"]
        assert after["misses"] == baseline["misses"]
        assert (
            after["hits"]
            == baseline["hits"] + 5 * len(database.collections)
        )

    def test_dml_reserializes_only_the_touched_collection(self):
        """Satellite 2's regression: DML on SDOC must not re-serialize
        ODOC/CDOC (the old ``_snapshot_payload`` re-pickled the world)."""
        database = build_database()
        store = SnapshotStore()
        store.snapshot(database)
        before = store.stats()
        database.insert_document("SDOC", SECURITY)
        store.snapshot(database)
        after = store.stats()
        assert after["serializations"] == before["serializations"] + 1
        assert after["misses"] == before["misses"] + 1
        untouched = len(database.collections) - 1
        assert after["hits"] == before["hits"] + untouched

    def test_runstats_moves_only_its_collection_key(self):
        """Statistics transitions (appear/mutate/disappear) re-key only
        their collection, without any epoch bump."""
        database = build_database()
        store = SnapshotStore()
        store.snapshot(database)
        before = store.stats()
        epochs = dict(database.collection_epochs)
        database.runstats("ODOC")
        assert dict(database.collection_epochs) == epochs
        store.snapshot(database)
        after = store.stats()
        assert after["serializations"] == before["serializations"] + 1

    def test_delta_ships_only_moved_keys(self):
        """The parallel engine's delta payload after single-collection
        DML carries exactly the touched collection."""
        database = build_database()
        store = SnapshotStore()
        store.blobs(database)
        base_keys = store.current_keys(database)
        database.insert_document("SDOC", SECURITY)
        changed, removed = store.delta(database, base_keys)
        assert sorted(changed) == ["SDOC"]
        assert removed == ()


# ---------------------------------------------------------------------------
# Parallel consumer: delta-shipped process workers
# ---------------------------------------------------------------------------


def _normalized(recommendation):
    data = recommendation.to_dict()
    data.pop("elapsed_seconds", None)
    session = dict(data.get("session", {}))
    for key in ("phase_seconds", "workers", "storage", "snapshots"):
        session.pop(key, None)
    data["session"] = session
    return data


def _advise_twice_with_dml(session_factory, num_orders=60, num_customers=30):
    """Two advisor runs over ONE session with single-collection DML in
    between -- the delta protocol's canonical shape.  The default build
    skews bytes toward the unqueried collections so the touched
    collection (SDOC, the one every workload query reads) both
    invalidates cached costs AND stays under the rebase fraction: the
    second dispatch must ship a real delta, not a rebase and not a pure
    cache replay.  Shrinking the other collections makes SDOC dominate
    the base, so the same DML forces a rebase instead."""
    database = tpox.build_database(
        num_securities=12,
        num_orders=num_orders,
        num_customers=num_customers,
        seed=7,
    )
    workload = Workload(list(WORKLOAD.entries))
    session = session_factory(database)
    try:
        first = _normalized(
            IndexAdvisor(database, workload, session=session).recommend(
                BUDGET
            )
        )
        database.insert_document("SDOC", SECURITY)
        second = _normalized(
            IndexAdvisor(database, workload, session=session).recommend(
                BUDGET
            )
        )
        return first, second, session
    finally:
        session.close()


def _process_session(database, store=None):
    return ParallelWhatIfSession(
        database,
        workers=2,
        executor="process",
        min_batch=1,
        snapshot_store=store,
    )


class TestParallelConsumer:
    def test_process_workers_delta_ship_bit_identical(self):
        serial = _advise_twice_with_dml(WhatIfSession)[:2]
        store = SnapshotStore()
        first, second, session = _advise_twice_with_dml(
            lambda db: _process_session(db, store)
        )
        assert (first, second) == serial
        assert first != second  # the DML must actually matter
        shipping = session.stats()["workers"]["shipping"]
        assert shipping["base_ships"] == 1  # the pool was never rebuilt
        assert shipping["delta_syncs"] >= 1
        assert shipping["rebases"] == 0
        # the whole point: the delta cost a fraction of a re-ship
        assert shipping["delta_bytes"] < shipping["base_bytes"] / 3

    def test_oversized_delta_rebases_bit_identical(self):
        """A sync over REBASE_FRACTION of the base discards the pool and
        re-ships the whole world as a fresh base."""
        sizes = dict(num_orders=4, num_customers=2)
        serial = _advise_twice_with_dml(WhatIfSession, **sizes)[:2]
        first, second, session = _advise_twice_with_dml(
            _process_session, **sizes
        )
        assert (first, second) == serial
        assert first != second
        shipping = session.stats()["workers"]["shipping"]
        assert shipping["rebases"] >= 1
        assert shipping["base_ships"] == 1 + shipping["rebases"]
        assert shipping["delta_syncs"] == 0
        assert session.stats()["workers"]["pool_failures"] == 0

    def test_lost_sync_file_recomputes_serially(self, monkeypatch):
        """A worker that cannot read its sync generation raises
        StaleSnapshotError; the batch is recomputed serially and the
        next pool starts from a fresh base, so it fails only once."""
        serial = _advise_twice_with_dml(WhatIfSession)[:2]
        prepare_sync = ParallelWhatIfSession._prepare_sync

        def prepare_then_lose_file(session):
            prepare_sync(session)
            if session._sync_path is not None:
                os.unlink(session._sync_path)

        monkeypatch.setattr(
            ParallelWhatIfSession, "_prepare_sync", prepare_then_lose_file
        )
        first, second, session = _advise_twice_with_dml(_process_session)
        assert (first, second) == serial
        workers = session.stats()["workers"]
        assert workers["pool_failures"] == 1
        assert workers["shipping"]["delta_syncs"] == 1
        assert workers["shipping"]["base_ships"] == 2


# ---------------------------------------------------------------------------
# Serve consumer: request snapshots + gate backoff (satellite 1)
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class TestServeConsumer:
    def test_server_snapshot_is_store_backed_and_bit_identical(self):
        async def scenario():
            async with AdvisorServer(build_database()) as server:
                snapshot, _token, _retries, _seq = await server._snapshot(
                    list(server.database.collections)
                )
                return server, snapshot

        server, snapshot = _run(scenario())
        assert_bit_identical(snapshot, fresh_round_trip(server.database))
        assert server.snapshots.stats()["compositions"] >= 1

    def test_repeat_advise_at_unchanged_epoch_serializes_nothing(self):
        """The serve-path headline: after the first advise request warms
        the store, repeats (and portfolio lanes) re-pickle nothing."""

        async def scenario():
            async with AdvisorServer(
                build_database(), mode="tournament"
            ) as server:
                first = await server.recommend(QUERY_TEXTS, BUDGET)
                warm = server.snapshots.stats()["serializations"]
                second = await server.recommend(QUERY_TEXTS, BUDGET)
                return first, second, warm, server.snapshots.stats()

        first, second, warm, stats = _run(scenario())
        assert first.ok and second.ok
        assert first.value == second.value
        assert stats["serializations"] == warm
        assert stats["compositions"] > 1  # lanes composed, from cache

    @staticmethod
    def _contended_schedule(rounds: int = 3):
        """Reads racing writes: one DML per query in round 0, then
        write-free read rounds (the BENCH_PR9 traffic shape)."""
        schedule = []
        for round_index in range(rounds):
            for index, text in enumerate(QUERY_TEXTS):
                schedule.append({"kind": "query", "text": text})
                if round_index == 0:
                    schedule.append(
                        {
                            "kind": "dml",
                            "text": "insert into SDOC value "
                            f"'<Security><Symbol>B{index}</Symbol>"
                            "</Security>'",
                        }
                    )
        return schedule

    @staticmethod
    async def _legacy_backoff(self, attempt, site):
        """The pre-backoff retry loop: one bare yield, no wait."""
        await self._yield(site)

    @pytest.mark.parametrize("seed", range(4))
    def test_backoff_beats_immediate_retry_under_seeded_scheduler(
        self, seed, monkeypatch
    ):
        """Satellite 1, the deterministic half: on the SAME seeded
        adversarial schedule, bounded backoff must waste strictly fewer
        read attempts (torn + refused) than the old immediate-retry
        loop -- the scheduler makes both runs pure functions of the
        seed, so this is an exact regression pin, not a timing test."""
        schedule = self._contended_schedule()

        async def scenario():
            scheduler = SeededScheduler(seed=seed)
            server = AdvisorServer(build_database(), scheduler=scheduler)
            async with server:
                responses = await scheduler.drive(
                    [server.dispatch(request) for request in schedule]
                )
            assert all(response.ok for response in responses)
            return server.gate.stats()

        with_backoff = _run(scenario())
        monkeypatch.setattr(
            AdvisorServer, "_read_backoff", self._legacy_backoff
        )
        legacy = _run(scenario())
        assert legacy["reads_backoff_waits"] == 0
        assert with_backoff["reads_backoff_waits"] > 0
        wasted = with_backoff["reads_torn"] + with_backoff["reads_refused"]
        legacy_wasted = legacy["reads_torn"] + legacy["reads_refused"]
        assert wasted < legacy_wasted, (with_backoff, legacy)
        # every read still validates, in both worlds
        reads = sum(1 for r in schedule if r["kind"] == "query")
        assert with_backoff["reads_validated"] == reads
        assert legacy["reads_validated"] == reads

    def test_backoff_makes_validated_reads_dominate_free_running(self):
        """Satellite 1, the BENCH_PR9-shaped half: under free-running
        concurrent clients the old loop wasted more attempts than it
        validated (32 torn + 54 refused vs 40 validated); with backoff
        validated reads must dominate torn + refused."""
        schedule = self._contended_schedule(rounds=4)

        async def scenario():
            server = AdvisorServer(build_database())
            async with server:
                responses = await server.run_schedule(schedule, clients=4)
            assert all(response.ok for response in responses)
            return server.gate.stats()

        stats = _run(scenario())
        wasted = stats["reads_torn"] + stats["reads_refused"]
        assert stats["reads_validated"] > wasted, stats
