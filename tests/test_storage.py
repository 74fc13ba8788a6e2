"""Durable storage tests: WAL framing, snapshot files, PersistentGraph.

The acceptance bar this file enforces:

* kill -9 style crash simulation — a WAL with a torn / truncated tail
  recovers **exactly** the durable prefix (verified against an
  independently replayed reference graph, not the recovery code itself),
* a reopened mmap-backed store answers the differential RPQ battery
  identically to the in-memory build, across base, overlay and
  post-checkpoint states,
* checkpoint folds the overlay, bumps the generation, prunes the log and
  retires the old generation's files.
"""

import json
import os
import random
import shutil
import zlib

import pytest
from counting import counted_calls

from repro.cli import main
from repro.concurrency import witness_scope
from repro.engine import Engine
from repro.errors import StorageError
from repro.faults import FaultPlan, fault_scope
from repro.graph.compact import (
    CompactAdjacency,
    DeltaAdjacency,
    adjacency_snapshot,
)
from repro.graph.graph import MultiRelationalGraph
from repro.rpq import lconcat, lstar, lunion, rpq_pairs_basic, sym
from repro.storage import (
    PersistentGraph,
    WalSegments,
    WriteAheadLog,
    open_adjacency_snapshot,
    scan_wal,
    write_adjacency_snapshot,
)
from repro.storage.wal import WAL_MAGIC, encode_record

EXPRESSIONS = [
    sym("a"),
    lconcat(sym("a"), sym("b")),
    lconcat(sym("a"), lstar(sym("b"))),
    lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
]


def reference_pairs(graph, expression):
    return rpq_pairs_basic(graph, expression)


def assert_store_matches(store, reference):
    """The store (however it is currently backed) answers like ``reference``."""
    assert store.order() == reference.order()
    assert store.size() == reference.size()
    assert store.vertices() == reference.vertices()
    for expression in EXPRESSIONS:
        assert store.pairs(expression) == reference_pairs(reference, expression)


def active_segment(directory):
    """Path of the newest segment file of the store's log."""
    segments = os.path.join(directory, "segments")
    return os.path.join(segments, sorted(
        name for name in os.listdir(segments) if name.endswith(".wal"))[-1])


def crc_frame(payload):
    """A CRC-correct frame around arbitrary payload bytes."""
    return (len(payload).to_bytes(4, "little")
            + zlib.crc32(payload).to_bytes(4, "little") + payload)


#: CRC-valid payloads that are not ``[version, op, ...]`` records.
MALFORMED_PAYLOADS = [b"5", b"[1]"]


def apply_entry(graph, entry):
    """Independent replay of one WAL entry onto a dict graph."""
    op = entry[1]
    if op == "+v":
        graph.add_vertex(entry[2])
    elif op == "-v":
        graph.remove_vertex(entry[2])
    elif op == "+e":
        graph.add_edge(entry[2], entry[3], entry[4])
    elif op == "-e":
        graph.remove_edge(entry[2], entry[3], entry[4])
    elif op == "pv":
        for key, value in entry[3].items():
            graph.set_vertex_property(entry[2], key, value)
    elif op == "pe":
        for key, value in entry[5].items():
            graph.set_edge_property(entry[2], entry[3], entry[4], key, value)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------

class TestWriteAheadLog:
    def test_append_flush_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, sync="none") as wal:
            wal.append((1, "+v", "a"))
            wal.append((2, "+e", "a", "r", "b"))
        entries, _, torn = scan_wal(path)
        assert entries == [(1, "+v", "a"), (2, "+e", "a", "r", "b")]
        assert not torn

    def test_batching_defers_until_threshold(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="batch", batch_size=4)
        for i in range(3):
            wal.append((i, "+v", str(i)))
        assert wal.pending == 3
        assert scan_wal(path)[0] == []  # nothing durable yet
        wal.append((3, "+v", "3"))  # hits the batch threshold
        assert wal.pending == 0
        assert len(scan_wal(path)[0]) == 4
        wal.close()

    def test_always_policy_is_immediately_durable(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append((1, "+v", "a"))
        assert wal.pending == 0
        assert scan_wal(path)[0] == [(1, "+v", "a")]
        wal.close()

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.close()
        with pytest.raises(StorageError):
            wal.append((1, "+v", "a"))

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as stream:
            stream.write(b"NOTAWAL!" + b"x" * 32)
        with pytest.raises(StorageError):
            scan_wal(path)

    def test_non_scalar_ids_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(StorageError) as info:
            wal.append((1, "+v", ("tu", "ple")))
        assert "JSON scalars" in str(info.value)
        wal.close()

    def test_corrupt_record_stops_replay_at_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, sync="none") as wal:
            boundaries = []
            for i in range(5):
                wal.append((i, "+v", "vertex-{}".format(i)))
                wal.flush()
                boundaries.append(wal.tell())
        # Flip one payload byte inside the fourth record.
        with open(path, "r+b") as stream:
            stream.seek(boundaries[2] + 12)
            byte = stream.read(1)
            stream.seek(boundaries[2] + 12)
            stream.write(bytes([byte[0] ^ 0xFF]))
        entries, durable_end, torn = scan_wal(path)
        assert torn
        assert entries == [(i, "+v", "vertex-{}".format(i)) for i in range(3)]
        assert durable_end == boundaries[2]

    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_stops_replay_at_prefix(self, tmp_path,
                                                      payload):
        path = str(tmp_path / "wal.log")
        records = [(i, "+v", "vertex-{}".format(i)) for i in range(3)]
        with WriteAheadLog(path, sync="none") as wal:
            for record in records:
                wal.append(record)
        good_end = os.path.getsize(path)
        with open(path, "ab") as stream:
            stream.write(crc_frame(payload))
            stream.write(encode_record((9, "+v", "after-the-bad-frame")))
        entries, durable_end, torn = scan_wal(path)
        assert torn and entries == records and durable_end == good_end


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------

def sample_graph():
    g = MultiRelationalGraph(name="snap")
    g.add_edge("a", "a", "b", weight=2)
    g.add_edge("b", "b", "c")
    g.add_edge("c", "a", "a")
    g.add_edge("b", "c", "b")  # self loop
    g.add_vertex("lonely", kind="hermit")
    return g


class TestSnapshotFiles:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_round_trip(self, tmp_path, mmap):
        g = sample_graph()
        path = str(tmp_path / "g.rcsr")
        write_adjacency_snapshot(
            path, adjacency_snapshot(g), name="snap", version=g.version(),
            vertex_properties={"lonely": {"kind": "hermit"}},
            edge_properties={("a", "a", "b"): {"weight": 2}})
        snapshot, metadata = open_adjacency_snapshot(path, mmap=mmap,
                                                     verify=True)
        assert isinstance(snapshot, CompactAdjacency)
        assert snapshot.num_edges == g.size()
        assert set(snapshot.vertex_of) == set(g.vertices())
        assert metadata.vertex_properties == {"lonely": {"kind": "hermit"}}
        assert metadata.edge_properties == {("a", "a", "b"): {"weight": 2}}
        # Adjacency reads match the dict store.
        for label in g.labels():
            label_id = snapshot.label_ids[label]
            for vertex in g.vertices():
                vertex_id = snapshot.vertex_ids[vertex]
                got = {snapshot.vertex_of[i]
                       for i in snapshot.out_neighbors(vertex_id, label_id)}
                assert got == set(g.successors(vertex, label))

    def test_mmap_arrays_are_memory_mapped(self, tmp_path):
        import mmap
        g = sample_graph()
        path = str(tmp_path / "g.rcsr")
        write_adjacency_snapshot(path, adjacency_snapshot(g))
        snapshot, _ = open_adjacency_snapshot(path, mmap=True)
        blocks = [block for pair in snapshot.forward + snapshot.reverse
                  for block in pair]
        for block in blocks:
            assert isinstance(block, memoryview)
            assert block.readonly and block.format == "q"
            assert isinstance(block.obj, mmap.mmap)
        # One mapping of the file, shared by every carved view.
        assert len({id(block.obj) for block in blocks}) == 1

    @pytest.mark.parametrize("mmap", [True, False])
    def test_reopened_rows_iterate_as_python_ints(self, tmp_path, mmap):
        # The guard on the mapped kernels' speed: a boxed scalar per
        # neighbor (a numpy view's) runs the interpreter loops ~5x slower
        # than a heap list, silently.
        g = sample_graph()
        path = str(tmp_path / "g.rcsr")
        write_adjacency_snapshot(path, adjacency_snapshot(g))
        snapshot, _ = open_adjacency_snapshot(path, mmap=mmap)
        seen = 0
        for label_id in range(snapshot.num_labels):
            indptr, _ = snapshot.forward[label_id]
            assert type(indptr[0]) is int
            for vertex_id in range(snapshot.num_vertices):
                for row in (snapshot.out_neighbors(vertex_id, label_id),
                            snapshot.in_neighbors(vertex_id, label_id)):
                    for neighbor in row:
                        assert type(neighbor) is int
                        seen += 1
        assert seen == 2 * g.size()

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("cut", [8, 13, 64])
    def test_truncated_data_region_fails_open(self, tmp_path, mmap, cut):
        # 13: a length that is not a multiple of 8 must still be the
        # typed error, not the TypeError of casting a ragged view.
        path = str(tmp_path / "g.rcsr")
        write_adjacency_snapshot(path, adjacency_snapshot(sample_graph()))
        os.truncate(path, os.path.getsize(path) - cut)
        with pytest.raises(StorageError, match="truncated"):
            open_adjacency_snapshot(path, mmap=mmap)

    def test_overlay_folds_with_tombstones(self, tmp_path):
        g = sample_graph()
        base = adjacency_snapshot(g)
        g.remove_vertex("c")
        g.add_edge("b", "a", "d")
        view = adjacency_snapshot(g)
        assert isinstance(view, DeltaAdjacency)
        path = str(tmp_path / "g.rcsr")
        write_adjacency_snapshot(path, view)
        snapshot, _ = open_adjacency_snapshot(path, verify=True)
        assert set(snapshot.vertex_of) == set(g.vertices())
        assert snapshot.num_edges == g.size()
        del base

    def test_verify_detects_corruption(self, tmp_path):
        path = str(tmp_path / "g.rcsr")
        write_adjacency_snapshot(path, adjacency_snapshot(sample_graph()))
        size = os.path.getsize(path)
        with open(path, "r+b") as stream:
            stream.seek(size - 3)
            stream.write(b"\xff")
        with pytest.raises(StorageError):
            open_adjacency_snapshot(path, mmap=False, verify=True)

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "g.rcsr")
        with open(path, "wb") as stream:
            stream.write(b"garbage!" * 4)
        with pytest.raises(StorageError):
            open_adjacency_snapshot(path)

    def test_non_scalar_ids_rejected(self, tmp_path):
        g = MultiRelationalGraph([(("tu", "ple"), "r", "b")])
        with pytest.raises(StorageError):
            write_adjacency_snapshot(str(tmp_path / "g.rcsr"),
                                     adjacency_snapshot(g))

    def test_empty_graph_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.rcsr")
        write_adjacency_snapshot(path,
                                 adjacency_snapshot(MultiRelationalGraph()))
        snapshot, _ = open_adjacency_snapshot(path, verify=True)
        assert snapshot.num_vertices == 0 and snapshot.num_edges == 0


class TestPersistentGraphLifecycle:
    def test_create_mutate_reopen_lazily(self, tmp_path):
        directory = str(tmp_path / "store")
        g = sample_graph()
        store = PersistentGraph.create(directory, graph=g, name="snap")
        g.add_edge("c", "b", "d")
        g.remove_edge("b", "b", "c")
        g.set_vertex_property("d", "kind", "late")
        store.close()

        reopened = PersistentGraph.open(directory)
        assert not reopened.materialized
        assert_store_matches(reopened, g)
        assert reopened.vertex_properties("d") == {"kind": "late"}
        assert reopened.vertex_properties("lonely") == {"kind": "hermit"}
        assert reopened.edge_properties("a", "a", "b") == {"weight": 2}
        reopened.close()

    def test_lazy_open_and_query_build_no_dict_graph_and_no_csr(
            self, tmp_path):
        # What "reopen beats rebuild-from-triples" rested on, counted: a
        # lazy open maps the snapshot and replays the log suffix into an
        # overlay, and pairs() runs on that view as it is.
        directory = str(tmp_path / "store")
        g = sample_graph()
        with PersistentGraph.create(directory, graph=g):
            g.add_edge("c", "b", "d")
            g.remove_edge("b", "b", "c")
        with counted_calls([
                ("dict graph", MultiRelationalGraph, "__init__"),
                ("csr", CompactAdjacency, "build")]) as counts:
            with PersistentGraph.open(directory) as reopened:
                for expression in EXPRESSIONS:
                    assert reopened.pairs(expression) == \
                        reference_pairs(g, expression)
                assert reopened.info()["overlay_ops"] > 0
        assert counts == {}

    def test_hot_append_and_query_step_takes_three_ordered_locks(
            self, tmp_path):
        # The disarmed lock wrapper's share of a hot loop is a count of
        # acquisitions (each the raw lock plus one global load): a logged
        # edge and a query take the store, the segment log and its WAL
        # once each — re-entrant re-acquires are not counted — and the
        # write step holds the store lock across the append.
        vertices = ("a", "b", "c", "lonely")
        fresh = [(tail, "hot", head) for tail in vertices for head in vertices]
        with PersistentGraph.create(str(tmp_path / "store"),
                                    graph=sample_graph()) as store:
            store.add_edge(*fresh.pop())
            store.pairs(EXPRESSIONS[2])  # warm the snapshot and DFA caches
            with witness_scope() as witness:
                for edge in fresh:
                    store.add_edge(*edge)
                    store.pairs(EXPRESSIONS[2])
            assert witness.acquisitions == 3 * len(fresh)
            assert witness.edges() == {
                "storage.store": ("storage.segments", "storage.wal"),
                "storage.segments": ("storage.wal",)}

    def test_materialized_reopen_equals_original(self, tmp_path):
        directory = str(tmp_path / "store")
        g = sample_graph()
        with PersistentGraph.create(directory, graph=g):
            g.add_edge("x", "a", "y")
            g.remove_vertex("c")
        with PersistentGraph.open(directory, materialize=True) as reopened:
            back = reopened.graph()
            assert back == g
            assert back.vertex_properties("lonely") == {"kind": "hermit"}
            assert_store_matches(reopened, g)

    def test_mutation_materializes_and_persists(self, tmp_path):
        directory = str(tmp_path / "store")
        with PersistentGraph.create(directory, graph=sample_graph()):
            pass
        with PersistentGraph.open(directory) as store:
            assert not store.materialized
            store.add_edge("fresh", "a", "b", via="write-path")
            # Named for when a write materialized; it goes through the view.
            assert not store.materialized
        with PersistentGraph.open(directory) as reopened:
            assert "fresh" in reopened.vertices()
            assert reopened.edge_properties("fresh", "a", "b") == \
                {"via": "write-path"}

    def test_checkpoint_folds_and_prunes(self, tmp_path):
        directory = str(tmp_path / "store")
        g = sample_graph()
        store = PersistentGraph.create(directory, graph=g)
        for i in range(5):
            g.add_edge("a", "b", "extra-{}".format(i))
        g.remove_vertex("c")
        info = store.checkpoint()
        assert info["generation"] == 2
        # One log: a healthy checkpoint retires the old snapshot but keeps
        # the active segment (a tailing replica's cursor survives it).
        assert sorted(os.listdir(directory)) == [
            "manifest.json", "segments", "snapshot-000002.rcsr"]
        assert sorted(os.listdir(os.path.join(directory, "segments"))) == [
            "segment-000001.wal", "segments.json"]
        assert info["wal_bytes"] == os.path.getsize(active_segment(directory))
        store.close()
        with PersistentGraph.open(directory) as reopened:
            assert reopened.info()["recovered_wal_records"] == 0
            assert_store_matches(reopened, g)

    def test_lazy_checkpoint_without_materialization(self, tmp_path):
        directory = str(tmp_path / "store")
        g = sample_graph()
        with PersistentGraph.create(directory, graph=g):
            g.add_edge("c", "c", "c")
            g.remove_edge("a", "a", "b")
        with PersistentGraph.open(directory) as store:
            assert store.info()["overlay_ops"] > 0
            info = store.checkpoint()
            assert not store.materialized
            assert info["overlay_ops"] == 0
            assert_store_matches(store, g)
        with PersistentGraph.open(directory) as reopened:
            assert_store_matches(reopened, g)

    def test_double_create_rejected(self, tmp_path):
        directory = str(tmp_path / "store")
        PersistentGraph.create(directory).close()
        with pytest.raises(StorageError):
            PersistentGraph.create(directory)

    def test_open_missing_store_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PersistentGraph.open(str(tmp_path / "nope"))

    def test_unloggable_mutation_rejected_before_applying(self, tmp_path):
        # The precheck must veto BEFORE the graph mutates: otherwise the
        # in-memory store would be permanently ahead of journal + WAL.
        directory = str(tmp_path / "store")
        g = sample_graph()
        with PersistentGraph.create(directory, graph=g):
            before = g.version()
            with pytest.raises(StorageError):
                g.add_vertex(("tu", "ple"))
            with pytest.raises(StorageError):
                g.add_edge("a", ("tu", "ple"), "b")
            with pytest.raises(StorageError):
                g.set_vertex_property("a", "k", {1, 2})
            assert not g.has_vertex(("tu", "ple"))
            assert not g.has_label(("tu", "ple"))
            assert g.vertex_properties("a") == {}
            assert g.version() == before  # nothing applied at all
        with PersistentGraph.open(directory) as reopened:
            assert reopened.graph() == g  # durable state agrees too

    def test_nan_is_rejected_before_applying(self, tmp_path):
        # NaN equals nothing, itself included: a logged NaN id could never
        # be found or removed again, and JSON proper has no NaN at all.
        nan = float("nan")
        directory = str(tmp_path / "store")
        with PersistentGraph.create(directory, graph=sample_graph()) as store:
            graph = store.graph()
            before = graph.version()
            with pytest.raises(StorageError, match="NaN"):
                graph.add_edge(1, "a", nan)
            with pytest.raises(StorageError):
                graph.add_vertex(nan)
            with pytest.raises(StorageError):
                graph.set_vertex_property("a", "score", nan)
            assert graph.version() == before
            assert not graph.has_vertex(1)
            assert graph.vertex_properties("a") == {}
        with PersistentGraph.open(directory) as reopened:
            assert reopened.graph() == sample_graph()

    def test_closed_store_rejects_reads(self, tmp_path):
        directory = str(tmp_path / "store")
        store = PersistentGraph.create(directory)
        store.close()
        with pytest.raises(StorageError):
            store.order()


class TestCrashRecovery:
    """kill -9 simulation: torn WAL tails recover exactly the durable prefix."""

    def build_store(self, directory):
        g = MultiRelationalGraph(name="crashy")
        store = PersistentGraph.create(directory, graph=g, sync="always")
        initial = g.copy()
        rng = random.Random(99)
        for step in range(40):
            roll = rng.random()
            if roll < 0.55 or g.size() < 3:
                g.add_edge("v{}".format(rng.randrange(12)),
                           rng.choice("abc"),
                           "v{}".format(rng.randrange(12)))
            elif roll < 0.8:
                edge = rng.choice(sorted(g.edge_set(), key=repr))
                g.remove_edge(edge.tail, edge.label, edge.head)
            else:
                g.set_vertex_property(
                    rng.choice(sorted(g.vertices())), "step", step)
        store.flush()
        wal_path = active_segment(directory)
        store.close()
        return initial, wal_path

    @pytest.mark.parametrize("chopped_bytes", [1, 5, 11, 64])
    def test_truncated_tail_recovers_durable_prefix(self, tmp_path,
                                                    chopped_bytes):
        directory = str(tmp_path / "store")
        initial, wal_path = self.build_store(directory)
        with open(wal_path, "r+b") as stream:
            stream.truncate(os.path.getsize(wal_path) - chopped_bytes)
        surviving, _, _ = scan_wal(wal_path)
        expected = initial.copy()
        for entry in surviving:
            apply_entry(expected, entry)
        with PersistentGraph.open(directory) as store:
            assert_store_matches(store, expected)
            assert store.graph() == expected
        # The torn tail was repaired: a second open replays cleanly.
        with PersistentGraph.open(directory) as store:
            assert not store.info()["recovered_tail_torn"]
            assert_store_matches(store, expected)

    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_recovers_durable_prefix(self, tmp_path,
                                                       payload, capsys):
        directory = str(tmp_path / "store")
        initial, wal_path = self.build_store(directory)
        surviving, _, _ = scan_wal(wal_path)
        with open(wal_path, "ab") as stream:
            stream.write(crc_frame(payload))
        expected = initial.copy()
        for entry in surviving:
            apply_entry(expected, entry)
        # The offline scrub names the record instead of crashing on it.
        assert main(["db", "verify", directory]) == 1
        first = json.loads(capsys.readouterr().out.split(
            "FIRST CORRUPT: ")[1])
        assert first["record"] == len(surviving) and "prelude" in \
            first["reason"]
        with PersistentGraph.open(directory) as store:
            assert store.info()["recovered_tail_torn"]
            assert_store_matches(store, expected)
            assert store.graph() == expected
        with PersistentGraph.open(directory) as store:
            assert not store.info()["recovered_tail_torn"]
            assert_store_matches(store, expected)
        assert main(["db", "verify", directory]) == 0

    def test_close_flushes_pending_batch_records(self, tmp_path):
        """PR 7 satellite: a clean close() must flush sync="batch" records
        still sitting below batch_size — only a crash loses them."""
        directory = str(tmp_path / "store")
        g = MultiRelationalGraph()
        store = PersistentGraph.create(directory, graph=g, sync="batch",
                                       batch_size=1000)
        g.add_edge("a", "r", "b")
        g.add_edge("b", "r", "c")
        # Below batch_size: still buffered, only the magic is on disk.
        assert store.info()["wal_records_logged"] > 0
        assert store.info()["wal_bytes"] == 8
        store.close()
        with PersistentGraph.open(directory) as reopened:
            assert reopened.graph().has_edge("a", "r", "b")
            assert reopened.graph().has_edge("b", "r", "c")

    def test_unflushed_batch_is_the_loss_window(self, tmp_path):
        directory = str(tmp_path / "store")
        g = MultiRelationalGraph()
        store = PersistentGraph.create(directory, graph=g, sync="batch",
                                       batch_size=1000)
        g.add_edge("a", "r", "b")
        durable = g.copy()
        store.flush()
        g.add_edge("b", "r", "c")  # buffered, never flushed
        # Simulate the crash: what is on disk now is what a kill -9
        # would leave (the buffered record is only in the process).
        crashed = str(tmp_path / "crashed")
        shutil.copytree(directory, crashed)
        store.close()
        with PersistentGraph.open(crashed) as reopened:
            assert reopened.graph() == durable


def churn_once(store, model, rng, acknowledged):
    """One random edge mutation; recorded only once the store took it."""
    if rng.random() < 0.7 or not model:
        op = ("+", "v{}".format(rng.randrange(10)), rng.choice("abc"),
              "v{}".format(rng.randrange(10)))
        store.add_edge(*op[1:])
        model.add(op[1:])
    else:
        op = ("-",) + rng.choice(sorted(model))
        store.remove_edge(*op[1:])
        model.discard(op[1:])
    acknowledged.append(op)


def edges_after(ops):
    edges = set()
    for sign, tail, label, head in ops:
        (edges.add if sign == "+" else edges.discard)((tail, label, head))
    return edges


def arm_checkpoint(plan, store, add_edge):
    store.checkpoint()


def arm_fresh_segment(plan, store, add_edge):
    # The next append has to open (and publish) a fresh segment.
    store.segments.seal_tail()
    plan.arm("manifest.rename", "eio", times=1)
    add_edge("k0", "a", "k1")


def arm_rotation_fsync(plan, store, add_edge):
    # batch_size is never reached, so the first fsync is the rotation's.
    plan.arm("wal.fsync", "eio", times=1)
    for i in range(40):
        add_edge("k{}".format(i), "a", "k{}".format(i + 1))


class TestKillPoints:
    """Abandon the process after each checkpoint / rotation step.

    ``fail`` makes one step fail (an injected fault at an existing site);
    the directory is copied at that instant — what a kill -9 right there
    would leave — and reopened.  Contract: the reopened store equals the
    dict-graph model after some acknowledged prefix no shorter than the
    last checkpoint, or the open raises a typed ``StorageError``.
    """

    KILL_POINTS = {
        # step that fails: (sync, arm faults, run the step)
        "snapshot-write": ("always", [("snapshot.fsync", 0)],
                           arm_checkpoint),
        "snapshot-written": ("always", [("manifest.rename", 0)],
                             arm_checkpoint),
        "before-segment-drop": ("always", [("manifest.rename", 1)],
                                arm_checkpoint),
        "fresh-segment-unpublished": ("always", [], arm_fresh_segment),
        "fsync-mid-rotation": ("batch", [], arm_rotation_fsync),
    }

    @pytest.mark.parametrize("point", sorted(KILL_POINTS))
    def test_reopen_is_an_acknowledged_prefix(self, tmp_path, point):
        sync, faults, step = self.KILL_POINTS[point]
        rng = random.Random(5)
        directory = str(tmp_path / "store")
        store = PersistentGraph.create(directory, sync=sync,
                                       batch_size=10_000)
        model, acknowledged = set(), []
        for _ in range(30):
            churn_once(store, model, rng, acknowledged)
        store.segments.segment_bytes = 256  # seal something to drop
        for _ in range(30):
            churn_once(store, model, rng, acknowledged)
        store.checkpoint()
        floor = len(acknowledged)
        for _ in range(20):
            churn_once(store, model, rng, acknowledged)
        store.flush()
        plan = FaultPlan()
        for site, after in faults:
            plan.arm(site, "eio", after=after, times=1)

        def add_edge(tail, label, head):
            store.add_edge(tail, label, head)
            acknowledged.append(("+", tail, label, head))

        with fault_scope(plan):
            try:
                step(plan, store, add_edge)
            except StorageError:
                pass
        assert plan.fired() == 1, "the kill point was never reached"
        crashed = str(tmp_path / "crashed")
        shutil.copytree(directory, crashed)
        store.close()
        try:
            reopened = PersistentGraph.open(crashed)
        except StorageError:
            return  # typed fail-stop is within the contract
        with reopened:
            recovered = {(s, label, t) for label in "abc"
                         for s, t in reopened.pairs(sym(label))}
        candidates = [k for k in range(floor, len(acknowledged) + 1)
                      if edges_after(acknowledged[:k]) == recovered]
        assert candidates, \
            "{}: reopened state is no acknowledged prefix in {}..{}".format(
                point, floor, len(acknowledged))
        # And the directory keeps working: mutate, close, reopen.
        with PersistentGraph.open(crashed) as again:
            again.add_edge("post", "a", "crash")
        with PersistentGraph.open(crashed) as again:
            assert ("post", "crash") in again.pairs(sym("a"))


class TestSingleLog:
    def test_each_record_is_written_to_exactly_one_file(self, tmp_path):
        directory = str(tmp_path / "store")
        store = PersistentGraph.create(directory, replicate=True)

        def sizes():
            return {os.path.join(base, name):
                    os.path.getsize(os.path.join(base, name))
                    for base, _, names in os.walk(directory)
                    for name in names}

        store.add_edge("warm", "a", "up")  # opens the active segment
        store.flush()
        before = sizes()
        for i in range(1000):
            store.add_edge("v{}".format(i), "a", "v{}".format(i + 1))
        store.flush()
        after = sizes()
        grew = sorted(path for path in after
                      if after[path] != before.get(path))
        assert grew == [active_segment(directory)]
        assert not [path for path in after
                    if os.path.basename(path).startswith("wal-")]
        store.close()

    @pytest.mark.parametrize("replicated", [False, True])
    def test_format_1_store_opens_once_then_is_format_2(self, tmp_path,
                                                        replicated):
        """A hand-written PR-10 layout: manifest names a generation WAL
        (and, when it replicated, ``segments/`` holds a second copy of a
        prefix of it plus an ``archive/`` nothing ever read)."""
        directory = str(tmp_path / "legacy")
        os.makedirs(directory)
        g = sample_graph()
        write_adjacency_snapshot(
            os.path.join(directory, "snapshot-000001.rcsr"),
            adjacency_snapshot(g), name="legacy", version=g.version())
        with open(os.path.join(directory, "manifest.json"), "w") as stream:
            json.dump({"format": 1, "kind": "multirelational",
                       "name": "legacy", "generation": 1,
                       "snapshot": "snapshot-000001.rcsr",
                       "wal": "wal-000001.log",
                       "snapshot_version": g.version()}, stream)
        expected = g.copy()
        records = [(g.version() + 1, "+v", "z"),
                   (g.version() + 2, "+e", "a", "c", "z"),
                   (g.version() + 3, "-e", "b", "b", "c"),
                   (g.version() + 4, "pv", "z", {"kind": "late"})]
        with open(os.path.join(directory, "wal-000001.log"), "wb") as stream:
            stream.write(WAL_MAGIC)
            for record in records:
                stream.write(encode_record(record))
                apply_entry(expected, record)
        archive = os.path.join(directory, "segments", "archive")
        if replicated:
            with WalSegments(os.path.join(directory, "segments"),
                             base_version=g.version()) as mirror:
                for record in records[:2]:  # the copy lost its tail
                    mirror.append(record)
            os.makedirs(archive)
            with open(os.path.join(archive, "segment-000000.wal"), "wb") as f:
                f.write(WAL_MAGIC)
        assert main(["db", "verify", directory]) == 0  # reads layout 1 too
        for _ in range(2):
            with PersistentGraph.open(directory) as store:
                assert_store_matches(store, expected)
                assert store.vertex_properties("z") == {"kind": "late"}
                assert store.info()["recovered_wal_records"] == len(records)
            with open(os.path.join(directory, "manifest.json")) as stream:
                manifest = json.load(stream)
            assert manifest["format"] == 2 and "wal" not in manifest
            assert not os.path.exists(
                os.path.join(directory, "wal-000001.log"))
            assert not os.path.exists(archive)
        with PersistentGraph.open(directory) as store:
            store.add_edge("z", "a", "a")
            store.checkpoint()
        expected.add_edge("z", "a", "a")
        with PersistentGraph.open(directory) as store:
            assert store.info()["recovered_wal_records"] == 0
            assert_store_matches(store, expected)
        assert main(["db", "verify", directory]) == 0


class TestReopenDifferential:
    """Reopened mmap stores answer the RPQ battery identically under churn."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_differential_under_churn(self, tmp_path, seed):
        rng = random.Random(seed)
        directory = str(tmp_path / "store-{}".format(seed))
        g = MultiRelationalGraph(name="churn")
        for v in range(14):
            g.add_vertex("v{}".format(v))
        store = PersistentGraph.create(directory, graph=g)
        for round_number in range(6):
            for _ in range(rng.randrange(2, 12)):
                roll = rng.random()
                if roll < 0.6 or g.size() < 4:
                    g.add_edge("v{}".format(rng.randrange(14)),
                               rng.choice("abc"),
                               "v{}".format(rng.randrange(14)))
                elif roll < 0.85:
                    edge = rng.choice(sorted(g.edge_set(), key=repr))
                    g.remove_edge(edge.tail, edge.label, edge.head)
                else:
                    vertex = rng.choice(sorted(g.vertices()))
                    g.remove_vertex(vertex)
                    g.add_vertex(vertex)
            if round_number == 3:
                store.checkpoint()
            store.flush()
            reopened = PersistentGraph.open(directory)
            assert_store_matches(reopened, g)
            reopened.close()
        store.close()


# ----------------------------------------------------------------------
# Engine integration + CLI
# ----------------------------------------------------------------------

class TestEngineOpen:
    def test_engine_over_store(self, tmp_path):
        directory = str(tmp_path / "store")
        g = MultiRelationalGraph([("a", "alpha", "b"), ("b", "beta", "c"),
                                  ("c", "alpha", "d")])
        PersistentGraph.create(directory, graph=g).close()
        engine = Engine.open(directory)
        result = engine.query("[_, alpha, _] . [_, beta, _]")
        assert len(result) == 1
        assert engine.pairs("[_, alpha, _]") == \
            frozenset({("a", "b"), ("c", "d")})
        engine.graph.add_edge("d", "beta", "e")
        engine.store.flush()
        engine.store.close()
        with PersistentGraph.open(directory) as reopened:
            assert ("d", "beta", "e") in reopened.graph()


class TestCliDb:
    def run_cli(self, argv):
        import io as stdlib_io
        out = stdlib_io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_init_open_checkpoint_info(self, tmp_path):
        graph_file = str(tmp_path / "g.csv")
        with open(graph_file, "w") as stream:
            stream.write("a,knows,b\nb,knows,c\n#vertex,lonely\n")
        directory = str(tmp_path / "store")
        code, text = self.run_cli(["db", "init", directory,
                                   "--graph", graph_file, "--name", "demo"])
        assert code == 0 and json.loads(text)["generation"] == 1
        code, text = self.run_cli(["db", "open", directory])
        payload = json.loads(text)
        assert code == 0 and payload["order"] == 4 and payload["size"] == 2
        code, text = self.run_cli(
            ["db", "open", directory, "[_, knows, _] . [_, knows, _]"])
        assert code == 0 and "1 paths" in text
        code, text = self.run_cli(["db", "checkpoint", directory])
        assert code == 0 and json.loads(text)["generation"] == 2
        code, text = self.run_cli(["db", "info", directory, "--verify"])
        payload = json.loads(text)
        assert code == 0 and payload["snapshot_checksum"] == "ok"

    def test_info_on_missing_store_errors(self, tmp_path):
        code, text = self.run_cli(["db", "info", str(tmp_path / "nope")])
        assert code == 1 and "error:" in text


class TestLazyVersion:
    """A lazy store's version is the last record it applied, property-only
    records included — no overlay is formed for those, so the version
    cannot live on one."""

    @pytest.mark.parametrize("structural_first", [False, True])
    def test_property_only_suffix_keeps_its_version(self, tmp_path,
                                                    structural_first):
        directory = str(tmp_path / "store")
        with PersistentGraph.create(directory, sample_graph()) as store:
            if structural_first:
                store.add_edge("a", "knows", "fresh")
            store.set_vertex_property("a", "rank", 7)
            logged = store.segments.last_version
            assert logged == store.graph().version()
        with PersistentGraph.open(directory) as lazy:
            assert not lazy.materialized
            assert lazy.version() == logged
            info = lazy.checkpoint()
            assert info["snapshot_version"] == logged
            assert lazy.version() == logged
        with PersistentGraph.open(directory) as reopened:
            # The fold holds record ``logged``: nothing is replayed again.
            assert reopened.info()["recovered_wal_records"] == 0
            assert reopened.version() == logged
            assert reopened.vertex_properties("a") == {"rank": 7}
