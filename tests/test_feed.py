"""The replication feed's one reply schema, from both ends.

``wire.FEED_FIELDS`` lists each feed reply's metadata (meta key, header,
type); the server writes a reply's headers from it and
:class:`~repro.service.client.RemoteFeed` reads them back with it.  Gates:

* **round trip** — over a live :class:`~repro.service.http.HttpServer`
  serving a replicating store, ``RemoteFeed`` returns exactly what
  :class:`~repro.replication.PrimaryFeed` returns in process: the same
  bytes and the same meta keys, values and types, for the snapshot and
  for successive WAL polls with writes and a checkpoint between them;
* **strictness** — a 200 feed reply missing a field, or holding a
  non-number in an int or bool field, is a
  :class:`~repro.errors.WireProtocolError` from ``RemoteFeed``, never a
  default, and :meth:`~repro.replication.ReplicaTailer.step` backs off on
  it and counts the failure (a snapshot reply included, fetched by the
  re-bootstrap after a cursor gap);
* **store gate** — a store not opened with ``replicate=True`` serves no
  feed: ``PrimaryFeed`` refuses it, and the HTTP reply is that refusal's
  400.
"""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.concurrency import tracking_scope, witness_scope
from repro.errors import StorageError, WireProtocolError
from repro.faults import clear_plan
from repro.graph.graph import MultiRelationalGraph
from repro.replication import PrimaryFeed, ReplicaGraph, ReplicaTailer
from repro.service import GraphRegistry, HttpServer
from repro.service.client import RemoteFeed, ReproClient
from repro.service.wire import FEED_FIELDS, feed_headers
from repro.storage import PersistentGraph


@pytest.fixture(autouse=True)
def concurrency_checks():
    clear_plan()
    with witness_scope() as witness, tracking_scope() as tracker:
        yield
        witness.assert_acyclic()
        tracker.assert_empty()


def ring(name="g", size=24):
    graph = MultiRelationalGraph(name=name)
    for i in range(size):
        graph.add_edge(i, "a", (i + 1) % size)
        graph.add_edge(i, "b", (i * 5) % size)
    return graph


@contextlib.contextmanager
def live_primary(root, replicate=True):
    """An ``HttpServer`` over ``root`` on a loop thread; yields
    ``(client, store)`` — an SDK client and the served store itself."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    registry = GraphRegistry(str(root), max_workers=2, replicate=replicate)
    server = HttpServer(registry)
    client = None
    try:
        _, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop).result(30)
        handle = registry.acquire("g")
        try:
            client = ReproClient("http://127.0.0.1:{}".format(port),
                                 keep_alive=True)
            yield client, handle.store
        finally:
            registry.release("g")
    finally:
        if client is not None:
            client.close()
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()


def typed(meta):
    return {key: (type(value), value) for key, value in meta.items()}


def shipped(read, *args):
    """``read(*args)``'s bytes and its meta with each value's type."""
    data, meta = read(*args)
    return data, typed(meta)


class TestRoundTrip:
    def test_remote_feed_returns_what_the_primary_feed_does(self, tmp_path):
        root = tmp_path / "graphs"
        root.mkdir()
        PersistentGraph.create(str(root / "g"), ring(), name="g").close()
        with live_primary(root) as (client, store):
            remote = RemoteFeed(client, graph="g")
            local = PrimaryFeed(store)
            data, meta = remote.snapshot()
            assert (data, typed(meta)) == shipped(local.snapshot)
            assert set(meta) == {f.key for f in FEED_FIELDS["snapshot"]}
            cursor = meta["cursor"]
            polls = ends = 0
            for step in range(8):
                client.mutate("g", add_edges=[
                    [100 + step * 10 + i, "c", step] for i in range(6)])
                if step == 3:
                    client.checkpoint("g")
                # Every other ship is small: it stops short of the end.
                max_bytes = 200 if step % 2 else 1 << 20
                data, meta = remote.wal(cursor, max_bytes)
                assert (data, typed(meta)) == \
                    shipped(local.wal, cursor, max_bytes)
                assert set(meta) == {f.key for f in FEED_FIELDS["wal"]}
                assert data and meta["bytes"] == len(data)
                cursor, polls = meta["cursor"], polls + 1
                ends += meta["at_end"]
            assert polls >= 5 and 0 < ends < polls


def reply_with(action, meta, drop=None, garble=None):
    """A 200 feed reply as the SDK's transport hands it back: lower-cased
    headers from ``meta``, less the header ``drop`` names, with the one
    ``garble`` names replaced by a non-number."""
    headers = {}
    for name, value in feed_headers(action, meta).items():
        if name == drop:
            continue
        headers[name.lower()] = "x12" if name == garble else value
    return 200, headers, b"\x00" * meta["bytes"]


SNAPSHOT_META = {"graph": "g", "snapshot": "snapshot-000001.rcsr",
                 "snapshot_version": 5, "cursor": "1:16", "version": 9,
                 "bytes": 8}
WAL_META = {"graph": "g", "cursor": "1:40", "at_end": True, "version": 9,
            "bytes": 24}
#: ``(action, meta, drop, garble)``: every field missing, and every int
#: and bool field holding a non-number.
BROKEN = [(action, meta, field.header, None)
          for action, meta in (("snapshot", SNAPSHOT_META),
                               ("wal", WAL_META))
          for field in FEED_FIELDS[action]] + [
    (action, meta, None, field.header)
    for action, meta in (("snapshot", SNAPSHOT_META), ("wal", WAL_META))
    for field in FEED_FIELDS[action] if field.type is not str]
BROKEN_IDS = ["{}-{}-{}".format(action, "missing" if drop else "garbled",
                                drop or garble)
              for action, _, drop, garble in BROKEN]


def scripted_feed(*replies):
    script = list(replies)
    return RemoteFeed(ReproClient("http://127.0.0.1:1",
                                  transport=lambda *request: script.pop(0)))


class TestStrictness:
    def test_the_table_round_trips_its_own_headers(self):
        for action, meta in (("snapshot", SNAPSHOT_META), ("wal", WAL_META)):
            feed = scripted_feed(reply_with(action, meta))
            data, read = feed.snapshot() if action == "snapshot" \
                else feed.wal("1:16")
            assert typed(read) == typed(meta) and len(data) == meta["bytes"]
        _, headers, _ = reply_with("wal", dict(WAL_META, at_end=False))
        assert headers["x-repro-at-end"] == "0"

    @pytest.mark.parametrize("action, meta, drop, garble", BROKEN,
                             ids=BROKEN_IDS)
    def test_a_malformed_reply_is_a_typed_error(self, action, meta, drop,
                                                garble):
        feed = scripted_feed(reply_with(action, meta, drop, garble))
        with pytest.raises(WireProtocolError, match=drop or garble):
            feed.snapshot() if action == "snapshot" else feed.wal("1:16")

    @pytest.mark.parametrize("action, meta, drop, garble", BROKEN,
                             ids=BROKEN_IDS)
    def test_the_tailer_backs_off_on_it(self, tmp_path, action, meta, drop,
                                        garble):
        with PersistentGraph.create(str(tmp_path / "primary"), ring(),
                                    name="g", replicate=True) as store:
            replica = ReplicaGraph.bootstrap(str(tmp_path / "replica"),
                                             PrimaryFeed(store))
        try:
            applied = replica.applied_version
            broken = reply_with(action, meta, drop, garble)
            # A snapshot is fetched by the re-bootstrap after a gap.
            feed = scripted_feed(broken) if action == "wal" else \
                scripted_feed((410, {}, json.dumps(
                    {"error": "gap", "first_retained": "3"}).encode()),
                    broken)
            tailer = ReplicaTailer(replica, feed, backoff_base=0.05)
            delay = tailer.step()
            assert 0 < delay <= 0.1
            assert tailer.failures == (1 if action == "wal" else 2)
            assert tailer.polls == 0 and not tailer.state()["ready"]
            assert tailer.last_error.startswith("WireProtocolError: ")
            assert replica.applied_version == applied
        finally:
            replica.close()


class TestStoreGate:
    def test_a_store_not_replicating_serves_no_feed(self, tmp_path):
        root = tmp_path / "graphs"
        root.mkdir()
        PersistentGraph.create(str(root / "g"), ring(), name="g").close()
        with live_primary(root, replicate=False) as (client, store):
            with pytest.raises(StorageError, match="replicate=True"):
                PrimaryFeed(store)
            status, _, data = client._transport(
                "GET", "/replication/snapshot?graph=g", b"")
        payload = json.loads(data)
        assert status == 400 and payload["type"] == "StorageError"
        assert "replicate=True" in payload["error"]
