"""WAL-shipped replication: segments, catch-up, chaos, HTTP, promote.

The replication robustness gate.  Four layers of coverage:

* **Segment log units** — rotation, cursor tokens, scrub/verify,
  retention and the reset-base gap semantics replicas depend on.
* **Loopback replication** — a :class:`ReplicaGraph` tailing a
  :class:`PrimaryFeed` in-process: bootstrap, catch-up, durable
  reopen, cursor-gap re-bootstrap, promote-on-failure.
* **Chaos differential** — a seeded fault schedule (torn ships,
  duplicate fetches, apply/cursor I/O errors, primary degradation and
  heal) driven over primary + replica.  The contract after *every*
  step: the replica either raises a **typed** error or — once caught
  up — answers every expression **set-equal** to the primary.  A
  silently diverged replica fails the run immediately.
* **Service tier** — the replica HTTP server end-to-end (lag headers,
  bounded-staleness 503s, read-only 403s, keep-alive, access logs) and
  a kill -9 of a live replica subprocess mid-tail, reopened and
  differentially checked against an independently replayed reference.

Schedules are deterministic (fixed seeds, counter-triggered faults):
a failure replays identically under ``pytest -k``.
"""

import asyncio
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest
from counting import counted_calls

from repro.concurrency import tracking_scope, witness_scope
from repro.errors import (
    ReplicaReadOnlyError,
    ReplicaStaleError,
    ReplicationCorruptionError,
    ReplicationCursorGapError,
    ReplicationError,
    StorageError,
)
from repro.faults import FaultPlan, clear_plan, fault_scope
from repro.graph.graph import MultiRelationalGraph
from repro.replication import (
    PrimaryFeed,
    ReplicaGraph,
    ReplicaTailer,
    promote_replica,
    verify_store,
)
from repro.rpq import lconcat, lstar, lunion, rpq_pairs_basic, sym
from repro.storage import (
    PersistentGraph,
    ReplicationCursor,
    WalSegments,
    decode_frames,
    scrub_wal_file,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

EXPRESSIONS = (
    sym("a"),
    lstar(sym("b")),
    lconcat(sym("a"), lstar(sym("b"))),
    lunion(sym("a"), sym("c")),
)


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(autouse=True)
def concurrency_witness():
    """Armed lock-order witness + leak registry over every test here:
    replication adds a lock level (``replication.replica``) and two
    long-lived handle kinds (replica dirs, segment logs), so each run
    also proves ordering stayed acyclic and every handle was released.
    """
    with witness_scope() as witness, tracking_scope() as tracker:
        yield
        witness.assert_acyclic()
        tracker.assert_empty()


# ----------------------------------------------------------------------
# Segment log units
# ----------------------------------------------------------------------

class TestSegments:

    def test_rotation_and_cursor_walk(self, tmp_path):
        with WalSegments(str(tmp_path / "seg"), segment_bytes=256) as log:
            for version in range(1, 61):
                log.append((version, "+v", "v{}".format(version)))
            log.flush()
            assert log.last_version == 60
            manifest = log.verify()
            assert manifest["ok"], manifest
            assert len(manifest["segments"]) > 1, "no rotation at 256B caps"
            # Walk the whole log through the ship cursor in small bites.
            cursor = log.cursor_for_version(0)
            entries = []
            for _ in range(1000):
                result = log.read_from(cursor, max_bytes=300)
                entries.extend(decode_frames(result.data))
                cursor = result.cursor
                if result.at_end:
                    break
            assert [e[0] for e in entries] == list(range(1, 61))
            assert entries == list(log.iter_entries(after_version=0))

    def test_cursor_tokens(self, tmp_path):
        cursor = ReplicationCursor(3, 17)
        assert ReplicationCursor.parse(cursor.token()) == cursor
        for bad in ("", "x", "1", "1:2:3", "0:17", "-1:8", "a:b"):
            with pytest.raises(ReplicationError):
                ReplicationCursor.parse(bad)

    def test_drop_and_reset_gap_stale_cursors(self, tmp_path):
        with WalSegments(str(tmp_path / "seg"), segment_bytes=128) as log:
            for version in range(1, 41):
                log.append((version, "+v", version))
            log.flush()
            stale = log.cursor_for_version(0)
            before = set(os.listdir(str(tmp_path / "seg")))
            assert log.drop_through(20) > 0
            # Folded segments are unlinked, not moved aside.
            after = set(os.listdir(str(tmp_path / "seg")))
            assert after < before and "archive" not in after
            with pytest.raises(ReplicationCursorGapError):
                log.read_from(stale)
            # Survivors are still readable from the retention floor.
            cursor = log.cursor_for_version(log.base_version)
            remaining = []
            while True:
                result = log.read_from(cursor)
                remaining.extend(decode_frames(result.data))
                cursor = result.cursor
                if result.at_end:
                    break
            assert remaining and remaining[-1][0] == 40
            # reset_base never reuses indices: every old cursor gaps.
            log.reset_base(40)
            with pytest.raises(ReplicationCursorGapError):
                log.read_from(stale)

    def test_scrub_reports_first_corrupt_record(self, tmp_path):
        with WalSegments(str(tmp_path / "seg")) as log:
            for version in range(1, 11):
                log.append((version, "+v", "vertex-{}".format(version)))
            log.flush()
            log.seal_tail()
            name = os.path.join(
                str(tmp_path / "seg"),
                sorted(entry for entry in os.listdir(str(tmp_path / "seg"))
                       if entry.endswith(".wal"))[-1])
        records, _end, finding = scrub_wal_file(name)
        assert records == 10 and finding is None
        data = bytearray(open(name, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(name + ".tmp", "wb") as stream:
            stream.write(bytes(data))
        os.replace(name + ".tmp", name)
        _records, _end, finding = scrub_wal_file(name)
        assert finding is not None and finding["kind"] == "corrupt"
        assert finding["record"] >= 1 and "crc" in finding["reason"]

    def test_decode_frames_rejects_torn_batch(self):
        with pytest.raises(ReplicationCorruptionError):
            decode_frames(b"\x0c\x00\x00\x00garbage")


# ----------------------------------------------------------------------
# Loopback replication
# ----------------------------------------------------------------------

def _primary(tmp_path, name="loop", edges=20, sync="batch"):
    store = PersistentGraph.create(str(tmp_path / name), name=name,
                                   replicate=True, sync=sync)
    for i in range(edges):
        store.add_edge("u{}".format(i), "a", "u{}".format(i + 1))
        if i % 3 == 0:
            store.add_edge("u{}".format(i), "b", "u{}".format(i // 2))
    return store


def _catch_up(replica, feed, rounds=50):
    for _ in range(rounds):
        report = replica.poll_once(feed)
        if report["at_end"] and report["lag_records"] == 0:
            return report
    raise AssertionError("replica never caught up")


def _assert_equal_answers(replica, store):
    for expression in EXPRESSIONS:
        assert replica.pairs(expression) == \
            rpq_pairs_basic(store.graph(), expression), \
            "replica diverged on {!r}".format(expression)


class TestLoopback:

    def test_bootstrap_catch_up_and_reopen(self, tmp_path):
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            _assert_equal_answers(replica, store)
            store.add_edge("u99", "c", "u0")
            store.remove_edge("u0", "a", "u1")
            store.set_vertex_property("u99", "kind", "late")
            _catch_up(replica, feed)
            _assert_equal_answers(replica, store)
            assert replica.vertex_properties("u99") == {"kind": "late"}
            applied = replica.applied_version
            replica.close()
            # Reopen replays the locally persisted segment log: no
            # network, same applied cursor, same answers.
            replica = ReplicaGraph.open(str(tmp_path / "rep"), verify=True)
            assert replica.applied_version == applied
            _assert_equal_answers(replica, store)
            replica.close()

    def test_drained_poll_does_no_cursor_io(self, tmp_path):
        """A poll that moved nothing does not republish ``replica.json``
        (its fsyncs would sit under the lock every replica read takes):
        a fault armed at the persist site waits for a poll with news."""
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            plan = FaultPlan(seed=1)
            with fault_scope(plan):
                plan.arm("replication.cursor", "eio", times=1)
                for _ in range(3):
                    assert replica.poll_once(feed)["applied"] == 0
                store.add_edge("u0", "c", "u99")
                with pytest.raises(ReplicationError):
                    replica.poll_once(feed)
            # The failed persist is retried by the next poll, drained or
            # not, and a reopen resumes from the cursor it published.
            assert replica.poll_once(feed)["applied"] == 0
            cursor = replica.cursor
            replica.close()
            replica = ReplicaGraph.open(str(tmp_path / "rep"))
            assert replica.cursor == cursor
            _assert_equal_answers(replica, store)
            replica.close()

    def test_poll_decodes_a_shipped_run_once_and_publishes_once(
            self, tmp_path):
        # The catch-up rate, counted: however many records one poll
        # ships, they are CRC-walked and JSON-decoded in a single
        # scan_frames pass (journaled as the bytes they arrived in, not
        # re-framed) and the cursor is published once for the batch.
        from repro import replication
        from repro.storage import segments
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            for i in range(40):
                store.add_edge("k{}".format(i), "c", "k{}".format(i + 1))
            with counted_calls([
                    ("scan", segments, "scan_frames"),
                    ("publish", replication, "publish_json")]) as counts:
                report = replica.poll_once(feed)
            assert report["applied"] >= 40 and report["lag_records"] == 0
            assert counts == {"scan": 1, "publish": 1}
            _assert_equal_answers(replica, store)
            replica.close()

    def test_checkpoint_archival_gaps_lagging_replica(self, tmp_path):
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            before = replica.rebootstraps
            for i in range(30):
                store.add_edge("n{}".format(i), "c", "n{}".format(i + 1))
            store.checkpoint()  # drops the folded sealed prefix
            for i in range(30):
                store.add_edge("m{}".format(i), "b", "m{}".format(i + 1))
            tailer = ReplicaTailer(replica, feed, poll_interval=0.01)
            for _ in range(80):
                tailer.step()
                if tailer.state()["ready"]:
                    break
            assert tailer.state()["ready"], tailer.state()
            assert replica.rebootstraps >= before
            _assert_equal_answers(replica, store)
            replica.close()

    def test_checkpoint_cycles_keep_disk_bounded(self, tmp_path):
        """Folded segments are unlinked: after N checkpoint cycles the
        directory holds a snapshot plus the live suffix, not N copies."""
        def tree_bytes(directory):
            return sum(os.path.getsize(os.path.join(base, name))
                       for base, _, names in os.walk(directory)
                       for name in names)

        with _primary(tmp_path, edges=4) as store:
            store.segments.segment_bytes = 512  # rotate every few records
            sizes = []
            for cycle in range(8):
                for i in range(40):
                    store.add_edge("c{}".format(i), "a", "c{}".format(i + 1))
                    store.remove_edge("c{}".format(i), "a",
                                      "c{}".format(i + 1))
                store.checkpoint()
                sizes.append(tree_bytes(str(store.directory)))
            directory = str(store.directory)
            snapshot = os.path.getsize(os.path.join(
                directory, store.info()["snapshot"]))
            # The same graph every cycle, so the same bound every cycle:
            # snapshot + the unsealed tail (a segment cap and the frame
            # that crossed it) + the three manifests.
            assert max(sizes) <= snapshot + 2 * 512 + 2048, (snapshot, sizes)
            assert not os.path.exists(
                os.path.join(directory, "segments", "archive"))
            assert verify_store(directory)["ok"]

    def test_stale_bound_and_lag_shape(self, tmp_path):
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            records, seconds = replica.lag()
            assert records == 0 and seconds >= 0.0
            with pytest.raises(ReplicaStaleError) as excinfo:
                replica.check_staleness(0.0)
            assert excinfo.value.retry_after > 0
            assert replica.check_staleness(3_600_000.0)[0] == 0
            replica.close()

    def test_promote_then_writable(self, tmp_path):
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            reference = {
                expr: rpq_pairs_basic(store.graph(), expr)
                for expr in EXPRESSIONS}
            replica.close()
        report = promote_replica(str(tmp_path / "rep"))
        assert report["generation"] >= 2
        # Promoting twice is refused: the directory is a primary now.
        with pytest.raises(StorageError):
            promote_replica(str(tmp_path / "rep"))
        with PersistentGraph.open(str(tmp_path / "rep"),
                                  materialize=True) as promoted:
            for expr, answer in reference.items():
                assert rpq_pairs_basic(promoted.graph(), expr) == answer
            promoted.add_edge("after", "a", "promotion")  # writable again
        assert verify_store(str(tmp_path / "rep"))["ok"]

    def test_verify_store_flags_damage(self, tmp_path):
        with _primary(tmp_path) as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            replica.close()
            assert verify_store(str(store.directory))["ok"]
        report = verify_store(str(tmp_path / "rep"))
        assert report["ok"] and report["kind"] == "replica"
        segments_dir = tmp_path / "rep" / "segments"
        victim = sorted(p for p in os.listdir(str(segments_dir))
                        if p.endswith(".wal"))[0]
        path = str(segments_dir / victim)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path + ".tmp", "wb") as stream:
            stream.write(bytes(blob))
        os.replace(path + ".tmp", path)
        report = verify_store(str(tmp_path / "rep"))
        assert not report["ok"]
        assert report["first_corrupt"] is not None


# ----------------------------------------------------------------------
# Chaos differential
# ----------------------------------------------------------------------

CHAOS_SEEDS = (7, 29)
CHAOS_STEPS = 60

#: Faults armed at random over the replication path (``times=1`` each).
#: ``wal.write`` degrades the primary so heal-time ``reset_base`` gaps
#: every replica cursor — the forced re-bootstrap path.
CHAOS_MENU = (
    ("replication.ship", "torn", {"fraction": 0.5}),
    ("replication.ship", "torn", {"fraction": 0.05}),
    ("replication.ship", "dup", {}),
    ("replication.ship", "eio", {}),
    ("replication.snapshot", "torn", {"fraction": 0.5}),
    ("replication.snapshot", "eio", {}),
    ("replication.apply", "eio", {}),
    ("replication.cursor", "eio", {}),
    ("wal.write", "eio", {}),
)


def _chaos_run(tmp_path, seed):
    rng = random.Random(seed)
    store = PersistentGraph.create(
        str(tmp_path / "chaos-{}".format(seed)),
        name="chaos", replicate=True, sync="always")
    feed = PrimaryFeed(store)
    replica = ReplicaGraph.bootstrap(
        str(tmp_path / "chaos-{}-rep".format(seed)), feed)
    typed_errors = 0
    caught_up_checks = 0
    plan = FaultPlan(seed=seed)
    try:
        with fault_scope(plan):
            for step in range(CHAOS_STEPS):
                if rng.random() < 0.45:
                    site, kind, options = rng.choice(CHAOS_MENU)
                    plan.arm(site, kind, times=1, **options)
                # Primary-side churn (mutations may degrade the store
                # under an armed wal fault; heal on the next round).
                try:
                    for _ in range(rng.randrange(1, 4)):
                        tail = rng.randrange(30)
                        head = rng.randrange(30)
                        label = rng.choice(("a", "b", "c"))
                        if rng.random() < 0.2 and store.graph().size():
                            edges = sorted(store.graph()._edges, key=repr)
                            victim = rng.choice(edges)
                            store.remove_edge(victim.tail, victim.label,
                                              victim.head)
                        else:
                            store.add_edge(tail, label, head)
                    if rng.random() < 0.1:
                        store.checkpoint()
                except StorageError:
                    typed_errors += 1
                if store.degraded:
                    try:
                        store.checkpoint()
                    except StorageError:
                        typed_errors += 1
                        continue
                # Replica-side tail: every failure must be typed; a
                # cursor gap must recover through re-bootstrap.
                caught_up = False
                for _ in range(40):
                    try:
                        report = replica.poll_once(feed)
                    except ReplicationCursorGapError:
                        typed_errors += 1
                        try:
                            replica.rebootstrap(feed)
                        except (ReplicationError, StorageError):
                            typed_errors += 1
                        continue
                    except (ReplicationError, StorageError):
                        typed_errors += 1
                        continue
                    if report["at_end"] and report["lag_records"] == 0:
                        caught_up = True
                        break
                assert caught_up, \
                    "seed {} step {}: replica wedged".format(seed, step)
                # The differential contract: caught up means set-equal
                # on every expression, every step.
                _assert_equal_answers(replica, store)
                caught_up_checks += 1
    finally:
        replica.close()
        store.close()
    assert caught_up_checks == CHAOS_STEPS
    assert typed_errors > 0, \
        "seed {}: schedule armed faults but none surfaced".format(seed)
    return typed_errors


class TestChaos:

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_fault_schedule_differential(self, tmp_path, seed):
        _chaos_run(tmp_path, seed)


# ----------------------------------------------------------------------
# Service tier
# ----------------------------------------------------------------------

def _http(url, body=None, token="smoke", method=None, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode() if body is not None else None,
        headers=dict({"Authorization": "Bearer " + token}, **(headers or {})),
        method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestReplicaHttp:

    def test_replica_service_end_to_end(self, tmp_path):
        from repro.service.http import serve, serve_replica

        root = tmp_path / "root"
        root.mkdir()
        store = _primary(root, name="g", edges=30)
        store.close()
        tokens = {"smoke": "tester"}
        access = []

        async def scenario():
            loop = asyncio.get_running_loop()
            primary_stop, replica_stop = asyncio.Event(), asyncio.Event()
            endpoints = {}
            primary_up, replica_up = asyncio.Event(), asyncio.Event()

            def primary_ready(host, port):
                endpoints["primary"] = "http://{}:{}".format(host, port)
                primary_up.set()

            def replica_ready(host, port):
                endpoints["replica"] = "http://{}:{}".format(host, port)
                endpoints["replica_port"] = port
                replica_up.set()

            primary_task = asyncio.ensure_future(serve(
                str(root), host="127.0.0.1", port=0, tokens=tokens,
                ready=primary_ready, stop_event=primary_stop,
                replicate=True, access_log=access.append))
            await primary_up.wait()
            replica_task = asyncio.ensure_future(serve_replica(
                str(tmp_path / "rep"), endpoints["primary"],
                host="127.0.0.1", port=0, graph="g", tokens=tokens,
                primary_token="smoke", poll_interval=0.02,
                ready=replica_ready, stop_event=replica_stop))
            await replica_up.wait()

            def ready_state():
                return _http(endpoints["replica"] + "/readyz")

            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                status, _headers, state = await loop.run_in_executor(
                    None, ready_state)
                if status == 200:
                    break
                # While catching up /readyz 503s with its phase.
                assert state.get("status") in ("catching-up",
                                               "bootstrapping"), state
                await asyncio.sleep(0.05)
            assert status == 200, state

            query = {"query": "[_, a, _]"}
            qpath = "/v1/graphs/g/query"
            status, _h, primary_ans = await loop.run_in_executor(
                None, lambda: _http(endpoints["primary"] + qpath, query))
            assert status == 200
            status, headers, replica_ans = await loop.run_in_executor(
                None, lambda: _http(endpoints["replica"] + qpath, query))
            assert status == 200
            assert sorted(map(tuple, primary_ans["pairs"])) == \
                sorted(map(tuple, replica_ans["pairs"]))
            lag = headers.get("X-Repro-Replica-Lag", "")
            assert re.match(r"records=\d+; seconds=\d+\.\d+", lag), lag

            # Mutate the primary; the replica converges.
            status, _h, _payload = await loop.run_in_executor(
                None, lambda: _http(
                    endpoints["primary"] + "/v1/graphs/g/mutate",
                    {"add_edges": [["fresh", "a", "edge"]]}))
            assert status == 200
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _s, _h, converged = await loop.run_in_executor(
                    None, lambda: _http(endpoints["replica"] + qpath, query))
                if converged["count"] == replica_ans["count"] + 1:
                    break
                await asyncio.sleep(0.05)
            assert converged["count"] == replica_ans["count"] + 1

            # Read-only: mutate and checkpoint 403 with a typed body.
            status, _h, payload = await loop.run_in_executor(
                None, lambda: _http(
                    endpoints["replica"] + "/v1/graphs/g/mutate",
                    {"add_edges": [["x", "a", "y"]]}))
            assert status == 403 and payload["read_only"]

            # An impossible staleness bound 503s with backoff + lag.
            status, headers, payload = await loop.run_in_executor(
                None, lambda: _http(
                    endpoints["replica"] + qpath,
                    dict(query, max_staleness_ms=0)))
            assert status == 503 and payload["stale"]
            assert headers.get("Retry-After")
            assert "records=" in headers.get("X-Repro-Replica-Lag", "")

            # Unsupported engine options are rejected, not mis-served.
            status, _h, payload = await loop.run_in_executor(
                None, lambda: _http(endpoints["replica"] + qpath,
                                    dict(query, max_length=4)))
            assert status == 400

            replica_stop.set()
            await asyncio.wait_for(replica_task, 15)
            primary_stop.set()
            await asyncio.wait_for(primary_task, 15)

        asyncio.run(scenario())
        assert access, "primary access log stayed empty"
        entry = access[-1]
        assert {"ts", "remote", "method", "path", "status",
                "elapsed_ms"} <= set(entry)

    def test_keep_alive_and_access_log(self, tmp_path):
        from repro.service.http import serve

        root = tmp_path / "root"
        root.mkdir()
        _primary(root, name="g", edges=5).close()
        access = []

        async def scenario():
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            up = asyncio.Event()
            endpoint = {}

            def on_ready(host, port):
                endpoint["port"] = port
                up.set()

            task = asyncio.ensure_future(serve(
                str(root), host="127.0.0.1", port=0,
                ready=on_ready, stop_event=stop,
                access_log=access.append))
            await up.wait()

            def exchange():
                conn = socket.create_connection(
                    ("127.0.0.1", endpoint["port"]), timeout=10)
                try:
                    request = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                               b"Connection: keep-alive\r\n\r\n")
                    chunks = []
                    for _ in range(2):
                        conn.sendall(request)
                        time.sleep(0.2)
                        chunks.append(conn.recv(65536).decode())
                    # Without the header the connection closes after one
                    # response: the reuse is strictly opt-in.
                    plain = socket.create_connection(
                        ("127.0.0.1", endpoint["port"]), timeout=10)
                    try:
                        plain.sendall(b"GET /healthz HTTP/1.1\r\n"
                                      b"Host: x\r\n\r\n")
                        time.sleep(0.2)
                        one = plain.recv(65536).decode()
                        closed = plain.recv(65536)
                    finally:
                        plain.close()
                    return chunks, one, closed
                finally:
                    conn.close()

            chunks, one, closed = await loop.run_in_executor(None, exchange)
            blob = "".join(chunks)
            assert blob.count("HTTP/1.1 200") == 2, blob[:400]
            assert "Keep-Alive:" in blob and "Connection: keep-alive" in blob
            assert "Connection: close" in one and closed == b""
            stop.set()
            await asyncio.wait_for(task, 15)

        asyncio.run(scenario())
        assert len(access) >= 3
        reused = [e for e in access if e["request_on_connection"] == 2]
        assert reused, "access log never saw the reused connection"


class TestKillReplicaSubprocess:

    def test_kill9_mid_tail_reopen_differential(self, tmp_path):
        """kill -9 a live replica server mid-tail; its reopened state
        must exactly match an independent replay of the primary's log
        through the replica's applied cursor — no holes, no ghosts."""
        root = tmp_path / "root"
        root.mkdir()
        _primary(root, name="g", edges=10).close()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        primary = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(root),
             "--port", "0", "--replicate"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        replica_dir = str(tmp_path / "rep")
        replica = None
        try:
            line = primary.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, "primary never announced: " + repr(line)
            primary_url = "http://{}:{}".format(match.group(1),
                                                match.group(2))
            replica = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", replica_dir,
                 "--replica-of", primary_url, "--graph", "g",
                 "--port", "0", "--poll-interval", "0.02"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
            line = replica.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, "replica never announced: " + repr(line)
            replica_url = "http://{}:{}".format(match.group(1),
                                                match.group(2))
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    status, _h, _b = _http(replica_url + "/readyz")
                except OSError:
                    status = 0
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200, "replica never became ready"
            # Churn while the replica tails, then kill it mid-stream.
            for i in range(40):
                status, _h, _b = _http(
                    primary_url + "/v1/graphs/g/mutate",
                    {"add_edges": [["k{}".format(i), "b",
                                    "k{}".format(i + 1)]]})
                assert status == 200
                if i == 25:
                    os.kill(replica.pid, signal.SIGKILL)
            replica.wait(timeout=10)
            assert replica.returncode == -signal.SIGKILL
        finally:
            if replica is not None and replica.poll() is None:
                replica.kill()
                replica.wait()
            primary.send_signal(signal.SIGTERM)
            try:
                primary.wait(timeout=15)
            except subprocess.TimeoutExpired:
                primary.kill()
                primary.wait()

        # Reopen the killed replica: recovery must verify cleanly.
        reopened = ReplicaGraph.open(replica_dir, verify=True)
        try:
            applied = reopened.applied_version
            # Independent reference: replay the primary's own durable
            # log through the replica's applied cursor.
            reference = MultiRelationalGraph(name="reference")
            with PersistentGraph.open(str(root / "g")) as store:
                assert store.segments is not None
                base = store.info()["snapshot_version"]
                assert applied >= base
                for entry in store.segments.iter_entries(after_version=0):
                    version, op = entry[0], entry[1]
                    if version > applied:
                        break
                    if op == "+v":
                        reference.add_vertex(entry[2])
                    elif op == "-v":
                        reference.remove_vertex(entry[2])
                    elif op == "+e":
                        reference.add_edge(entry[2], entry[3], entry[4])
                    elif op == "-e":
                        reference.remove_edge(entry[2], entry[3], entry[4])
            for expression in EXPRESSIONS:
                assert reopened.pairs(expression) == \
                    rpq_pairs_basic(reference, expression), \
                    "killed replica diverged on {!r}".format(expression)
        finally:
            reopened.close()
        assert verify_store(replica_dir)["ok"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:

    def test_db_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        with _primary(tmp_path, name="store") as store:
            directory = str(store.directory)
        assert main(["db", "verify", directory]) == 0
        assert not [f for f in os.listdir(directory) if f.startswith("wal-")]
        segments = os.path.join(directory, "segments")
        path = os.path.join(segments, sorted(
            f for f in os.listdir(segments) if f.endswith(".wal"))[-1])
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path + ".tmp", "wb") as stream:
            stream.write(bytes(blob))
        os.replace(path + ".tmp", path)
        assert main(["db", "verify", directory]) == 1
        out = capsys.readouterr().out
        assert "FIRST CORRUPT" in out

    def test_db_promote_cli(self, tmp_path, capsys):
        from repro.cli import main

        with _primary(tmp_path, name="p") as store:
            feed = PrimaryFeed(store)
            replica = ReplicaGraph.bootstrap(str(tmp_path / "rep"), feed)
            _catch_up(replica, feed)
            replica.close()
        assert main(["db", "promote", str(tmp_path / "rep")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generation"] >= 2
        # Promoting a primary store is refused with exit 1.
        assert main(["db", "promote", str(tmp_path / "rep")]) == 1
