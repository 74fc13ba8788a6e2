"""The fault-injection framework and the self-healing it exercises.

Three layers, all under the fail-stop-or-correct contract:

* the framework itself — deterministic trigger counters, ``REPRO_FAULTS``
  spec parsing, scoped arming, the zero-overhead disarmed path,
* the WAL under injected write/fsync failures — a failed flush rolls the
  file back to its durable prefix and a retried flush never double-writes
  it; a failed *rollback* poisons the handle (fail-stop) and reopening
  recovers through torn-tail repair,
* the store's read-only degraded mode and the pool's kill/hang
  self-healing — every recovery path must end in either a typed error or
  the exact dict-reference answer.
"""

import os

import pytest
from counting import counted_calls

from repro.engine.parallel import ParallelExecutor, fork_available
from repro.errors import StorageError, StoreDegradedError
from repro.faults import (
    Fault,
    FaultPlan,
    KILL_EXIT_CODE,
    clear_plan,
    fault_hook,
    fault_point,
    fault_scope,
    install_plan,
    installed_plan,
    worker_fault_point,
)
from repro.graph.generators import uniform_random
from repro.rpq import lconcat, lstar, rpq_pairs_basic, sym
from repro.rpq.evaluation import compile_rpq
from repro.storage import PersistentGraph
from repro.storage.wal import WriteAheadLog, scan_wal

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="pool fault tests need the fork start method")

STAR = lconcat(sym("a"), lstar(sym("b")))


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with fault injection disarmed."""
    clear_plan()
    yield
    clear_plan()


class TestFaultPlan:
    def test_after_and_times_counters(self):
        plan = FaultPlan(seed=7)
        fault = plan.arm("site.x", "eio", after=2, times=2)
        fired = [plan.check("site.x") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert fault.calls == 6 and fault.fired == 2
        assert plan.hits == 6
        assert plan.fired("site.x") == 2 and plan.fired() == 2

    def test_times_none_fires_every_hit(self):
        plan = FaultPlan()
        plan.arm("site.x", "enospc", times=None)
        assert all(plan.check("site.x") for _ in range(5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("site.x", "explode")

    def test_hits_count_even_with_nothing_armed(self):
        plan = FaultPlan()
        assert plan.check("never.armed") is None
        assert plan.hits == 1

    def test_token_file_fires_at_most_once(self, tmp_path):
        token = tmp_path / "token"
        token.write_text("")
        plan = FaultPlan()
        plan.arm("site.x", "kill", times=None, token=str(token))
        plan.arm("site.x", "kill", times=None, token=str(token))
        fired = [plan.check("site.x") is not None for _ in range(4)]
        assert fired.count(True) == 1
        assert not token.exists()

    def test_from_spec_roundtrip(self):
        plan = FaultPlan.from_spec(
            "wal.fsync:eio:times=1;http.connection_drop:drop:after=2;"
            "pool.task:hang:seconds=0.25:times=none;"
            "wal.write:enospc:fraction=0.25:token=/tmp/t", seed=5)
        assert plan.seed == 5
        assert plan.sites() == ["http.connection_drop", "pool.task",
                                "wal.fsync", "wal.write"]
        hang = plan._faults["pool.task"][0]
        assert hang.times is None and hang.seconds == 0.25
        short = plan._faults["wal.write"][0]
        assert short.fraction == 0.25 and short.token == "/tmp/t"

    @pytest.mark.parametrize("spec", [
        "justasite",                 # no kind
        "site.x:explode",            # unknown kind
        "site.x:eio:bogus=1",        # unknown option
        "site.x:eio:times",          # no '=' in option
        "site.x:eio:times=soon",     # non-numeric
    ])
    def test_from_spec_fails_loudly(self, spec):
        with pytest.raises((StorageError, ValueError)):
            FaultPlan.from_spec(spec)

    def test_scope_installs_and_restores(self):
        assert installed_plan() is None
        outer = FaultPlan()
        install_plan(outer)
        with fault_scope(FaultPlan(seed=1)) as inner:
            assert installed_plan() is inner
        assert installed_plan() is outer
        clear_plan()
        assert installed_plan() is None

    def test_disarmed_hooks_are_no_ops(self):
        assert fault_hook("any.site") is None
        fault_point("any.site")          # must not raise
        worker_fault_point("any.site")   # must not raise

    def test_fault_point_raises_typed_oserror(self):
        import errno
        plan = FaultPlan()
        plan.arm("site.x", "enospc")
        with fault_scope(plan):
            with pytest.raises(OSError) as exc:
                fault_point("site.x")
        assert exc.value.errno == errno.ENOSPC

    def test_worker_fault_point_never_kills_arming_process(self):
        plan = FaultPlan()
        plan.arm("pool.task", "kill", times=None)
        called = []
        with fault_scope(plan):
            worker_fault_point("pool.task", _exit=called.append)
        assert called == []       # same pid as the arming process
        assert plan.fired() == 0

    def test_worker_fault_point_kills_in_foreign_pid(self):
        plan = FaultPlan()
        plan.arm("pool.task", "kill")
        plan._pid = os.getpid() - 1   # pretend a fork armed it
        called = []
        with fault_scope(plan):
            worker_fault_point("pool.task", _exit=called.append)
        assert called == [KILL_EXIT_CODE]


class TestWalUnderFaults:
    def entries(self, start, count):
        return [(v, "add_edge", v, "a", v + 1)
                for v in range(start, start + count)]

    def test_failed_fsync_rolls_back_then_retry_writes_once(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan()
        plan.arm("wal.fsync", "eio", times=1)
        with fault_scope(plan):
            wal = WriteAheadLog(path, sync="batch", batch_size=100)
            first = self.entries(0, 3)
            for entry in first:
                wal.append(entry)
            with pytest.raises(StorageError):
                wal.flush()
            # Rolled back: the durable prefix is just the magic header.
            entries, _, torn = scan_wal(path)
            assert entries == [] and not torn
            # The pending batch is still queued; the retried flush must
            # write it exactly once — no duplicated prefix.
            for entry in self.entries(3, 2):
                wal.append(entry)
            wal.flush()
            wal.close()
        entries, _, torn = scan_wal(path)
        assert entries == first + self.entries(3, 2) and not torn
        assert plan.fired("wal.fsync") == 1

    def test_short_write_never_double_writes_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan()
        # ENOSPC mid-buffer: 60% of the batch reaches the file, then the
        # device "fills up".  The rollback must erase that torn prefix.
        plan.arm("wal.write", "enospc", times=1, fraction=0.6)
        with fault_scope(plan):
            wal = WriteAheadLog(path, sync="batch", batch_size=100)
            batch = self.entries(0, 8)
            for entry in batch:
                wal.append(entry)
            with pytest.raises(StorageError):
                wal.flush()
            wal.flush()   # retry on the healed device
            wal.close()
        entries, _, torn = scan_wal(path)
        assert entries == batch and not torn     # exactly once each
        assert wal.records_durable == len(batch)

    def test_torn_tail_on_disk_is_recovered_by_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="batch", batch_size=100)
        durable = self.entries(0, 4)
        for entry in durable:
            wal.append(entry)
        wal.flush()
        wal.close()
        # Simulate a crash mid-append: a torn frame after the prefix.
        with open(path, "ab") as stream:
            stream.write(b"\x13\x37torn-frame-bytes")
        entries, _, torn = scan_wal(path)
        assert entries == durable and torn
        reopened = WriteAheadLog(path)
        reopened.append(durable[-1])
        reopened.flush()
        reopened.close()
        entries, _, torn = scan_wal(path)
        assert entries == durable + [durable[-1]] and not torn

    def test_failed_rollback_poisons_the_handle(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan()
        plan.arm("wal.fsync", "eio", times=1)
        plan.arm("wal.rewind", "eio", times=1)   # rollback fails too
        with fault_scope(plan):
            wal = WriteAheadLog(path, sync="always")
            with pytest.raises(StorageError):
                wal.append((1, "add_edge", 0, "a", 1))
            assert wal.broken is not None
            with pytest.raises(StorageError, match="broken"):
                wal.append((2, "add_edge", 1, "a", 2))
            wal.close()   # idempotent even when broken
        # Fail-stop held: reopening repairs through torn-tail recovery.
        recovered = WriteAheadLog(path)
        assert recovered.broken is None
        recovered.close()


def seeded_store(directory, seed=11, vertices=60, edges=420, **kwargs):
    graph = uniform_random(vertices, edges, labels=("a", "b", "c"),
                           seed=seed)
    return PersistentGraph.create(str(directory), graph, name="chaos",
                                  **kwargs)


class TestDegradedMode:
    def test_wal_failure_degrades_heals_by_checkpoint(self, tmp_path):
        store = seeded_store(tmp_path / "g", sync="always")
        reference = store.graph()
        # Pre-create the endpoints so the armed fault hits the single
        # "+e" record (a fresh endpoint would emit its own "+v" first).
        store.add_vertex("u")
        store.add_vertex("v")
        plan = FaultPlan()
        plan.arm("wal.fsync", "eio", times=1)
        with fault_scope(plan):
            with pytest.raises(StoreDegradedError) as exc:
                store.add_edge("u", "a", "v")
        assert store.degraded and exc.value.retry_after > 0
        # The triggering mutation stays applied in memory (it happened
        # before durability failed); queries must serve it exactly.
        assert reference.has_edge("u", "a", "v")
        assert store.pairs(STAR) == rpq_pairs_basic(reference, STAR)
        # A retry of the triggering write is refused too, although it
        # would change nothing: answering it would call an edge that only
        # lives in memory durable.  So is re-adding a known vertex.
        with pytest.raises(StoreDegradedError):
            store.add_edge("u", "a", "v")
        with pytest.raises(StoreDegradedError):
            store.add_vertex("u")
        # Further mutations are refused *before* touching state.
        with pytest.raises(StoreDegradedError):
            store.add_edge("x", "a", "y")
        assert not reference.has_edge("x", "a", "y")
        with pytest.raises(StoreDegradedError):
            store.flush()
        info = store.info()
        assert info["degraded"] and info["degraded_reason"]
        # Checkpoint folds the live state into a fresh generation: healed.
        outcome = store.checkpoint()
        assert not store.degraded and outcome["generation"] == 2
        store.add_edge("x", "a", "y")
        store.close()
        with PersistentGraph.open(str(tmp_path / "g"),
                                  materialize=True) as reopened:
            assert reopened.graph().has_edge("u", "a", "v")
            assert reopened.graph().has_edge("x", "a", "y")
            assert reopened.pairs(STAR) == rpq_pairs_basic(reference, STAR)

    def test_flush_crosses_wal_fsync_once(self, tmp_path):
        """One log: a replicating store's flush() is one fsync, and a
        ``times=1`` fault at the site is consumed by that one crossing."""
        store = seeded_store(tmp_path / "g", replicate=True)
        store.add_edge("u", "a", "v")
        plan = FaultPlan()
        counter = plan.arm("wal.fsync", "eio", after=10 ** 9)  # never fires
        with fault_scope(plan):
            store.flush()
            assert counter.calls == 1
            store.add_edge("v", "a", "w")
            plan.arm("wal.fsync", "eio", times=1)
            with pytest.raises(StoreDegradedError):
                store.flush()
        assert plan.fired("wal.fsync") == 1 and counter.calls == 2
        store.checkpoint()  # heals
        store.close()

    def test_snapshot_and_manifest_faults_are_typed(self, tmp_path):
        store = seeded_store(tmp_path / "g")
        store.add_edge("u", "a", "v")
        for site in ("snapshot.fsync", "manifest.rename"):
            plan = FaultPlan()
            plan.arm(site, "eio", times=1)
            with fault_scope(plan):
                with pytest.raises(StorageError):
                    store.checkpoint()
            assert plan.fired(site) == 1
        # The store survives every failed checkpoint and can still heal.
        outcome = store.checkpoint()
        assert outcome["generation"] >= 2
        store.close()

    def test_read_fault_is_typed_not_wrong(self, tmp_path):
        store = seeded_store(tmp_path / "g")
        plan = FaultPlan()
        plan.arm("store.pairs", "eio", times=1)
        with fault_scope(plan):
            with pytest.raises(StorageError):
                store.pairs(STAR)
            # Fired once; the next read is correct again.
            assert store.pairs(STAR) == rpq_pairs_basic(store.graph(), STAR)
        store.close()

    def test_hot_read_crosses_the_one_fault_site_it_names(self, tmp_path):
        # The disarmed hooks' share of a hot query is a count of
        # crossings (each one global load and an ``is None`` test): an
        # installed, empty plan sees every one of them by site.
        store = seeded_store(tmp_path / "g")
        store.pairs(STAR)  # warm the snapshot and DFA caches
        with fault_scope(FaultPlan()), counted_calls(
                [(lambda plan, site: site, FaultPlan, "check")]) as sites:
            store.pairs(STAR)
        assert sites == {"store.pairs": 1}
        store.close()


@needs_fork
class TestPoolSelfHealing:
    def executor(self, graph, **kwargs):
        kwargs.setdefault("processes", 2)
        kwargs.setdefault("min_edges", 0)
        return ParallelExecutor(graph, **kwargs)

    def test_kill_one_worker_respawns_and_answers_exactly(self, tmp_path):
        token = tmp_path / "kill-once"
        token.write_text("")
        graph = uniform_random(80, 600, labels=("a", "b"), seed=3)
        expected = rpq_pairs_basic(graph, STAR)
        plan = FaultPlan()
        plan.arm("pool.task", "kill", times=None, token=str(token))
        with fault_scope(plan):
            with self.executor(graph) as executor:
                dfa = compile_rpq(STAR, graph)
                assert executor.rpq_pairs(dfa) == expected
                assert executor.workers_respawned >= 1
                assert executor.tasks_retried > 0
                assert executor.serial_fallbacks == 0
                # The pool healed: the next fan-out runs clean.
                assert executor.rpq_pairs(dfa) == expected
                stats = executor.stats()
        assert not token.exists()
        assert stats["workers_respawned"] >= 1

    def test_kill_everything_falls_back_to_serial(self):
        graph = uniform_random(80, 600, labels=("a", "b"), seed=5)
        expected = rpq_pairs_basic(graph, STAR)
        plan = FaultPlan()
        plan.arm("pool.task", "kill", times=None)   # every worker, always
        with fault_scope(plan):
            with self.executor(graph, max_task_retries=1) as executor:
                dfa = compile_rpq(STAR, graph)
                assert executor.rpq_pairs(dfa) == expected
                assert executor.serial_fallbacks == 1
                assert executor.workers_respawned >= 1

    def test_hung_worker_trips_stall_watchdog(self):
        graph = uniform_random(80, 600, labels=("a", "b"), seed=7)
        expected = rpq_pairs_basic(graph, STAR)
        plan = FaultPlan()
        plan.arm("pool.task", "hang", times=None, seconds=60.0)
        with fault_scope(plan):
            with self.executor(graph, max_task_retries=0,
                               stall_timeout=0.5) as executor:
                dfa = compile_rpq(STAR, graph)
                assert executor.rpq_pairs(dfa) == expected
                assert executor.serial_fallbacks == 1

    def test_healthy_reflects_pool_state(self):
        graph = uniform_random(80, 600, labels=("a", "b"), seed=9)
        with self.executor(graph) as executor:
            dfa = compile_rpq(STAR, graph)
            executor.rpq_pairs(dfa)
            assert executor.healthy()
            stats = executor.stats()
            assert stats["healthy"] and stats["workers_respawned"] == 0
