"""The ``ReproClient`` SDK: backoff policy in vitro, retries in vivo.

Two halves:

* **Scripted-transport tests** — a canned transport replays exact
  ``(status, headers, body)`` sequences (or raises transport errors)
  while a recording sleeper captures every backoff; this pins down the
  retry policy itself: what is retried, for how long, with which delays,
  and how ``Retry-After`` floors them.
* **Live-server tests** — a real ``repro serve`` subprocess (with
  ``REPRO_FAULTS`` arming server-side faults) proves the client rides
  out 429 shedding, 503 degradation and injected connection drops, and
  that non-idempotent calls are genuinely never retried.
"""

import contextlib
import http.server
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from counting import counted_calls
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ClientError,
    RemoteQueryError,
    RetryBudgetExceededError,
    WireProtocolError,
)
from repro.graph.graph import MultiRelationalGraph
from repro.service.client import RETRIABLE_STATUSES, ReproClient, _read_reply
from repro.storage import PersistentGraph

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class ScriptedTransport:
    """Replays a list of responses; an Exception instance is raised."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def __call__(self, method, path, body):
        self.requests.append((method, path, body))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def ok(payload):
    import json
    return 200, {}, json.dumps(payload).encode()


def err(status, payload=None, retry_after=None):
    import json
    headers = {}
    if retry_after is not None:
        headers["retry-after"] = str(retry_after)
    return status, headers, json.dumps(
        payload or {"error": "injected"}).encode()


def make_client(script, **kwargs):
    slept = []
    transport = ScriptedTransport(script)
    kwargs.setdefault("jitter_seed", 42)
    kwargs.setdefault("backoff_base", 0.1)
    kwargs.setdefault("backoff_cap", 1.0)
    client = ReproClient("http://127.0.0.1:1", token="t",
                         sleeper=slept.append, transport=transport,
                         **kwargs)
    return client, transport, slept


class TestRetryPolicy:
    def test_success_needs_no_retry(self):
        client, transport, slept = make_client(
            [ok({"pairs": [[0, 1]], "count": 1})])
        assert client.query_pairs("g", "[_, a, _]") == {(0, 1)}
        assert slept == [] and client.retries_performed == 0
        method, path, body = transport.requests[0]
        assert (method, path) == ("POST", "/v1/graphs/g/query")

    @pytest.mark.parametrize("status", sorted(RETRIABLE_STATUSES))
    def test_retriable_statuses_are_retried_to_success(self, status):
        client, transport, slept = make_client(
            [err(status), err(status), ok({"pairs": []})])
        assert client.query_pairs("g", "[_, a, _]") == set()
        assert len(slept) == 2 and client.retries_performed == 2

    def test_backoff_grows_exponentially_with_jitter(self):
        client, _, slept = make_client(
            [err(503)] * 4 + [ok({})],
            backoff_base=0.1, backoff_cap=10.0, jitter_seed=7)
        client.query("g", "[_, a, _]")
        # Equal jitter: attempt n sleeps in [base*2^n / 2, base*2^n].
        for attempt, delay in enumerate(slept):
            full = 0.1 * (2 ** attempt)
            assert full / 2 <= delay <= full
        # And the raw (pre-floor) schedule is reproducible from the seed.
        rng = random.Random(7)
        expected = [0.1 * (2 ** n) / 2 * (1 + rng.random())
                    for n in range(4)]
        assert slept == pytest.approx(expected)

    def test_backoff_respects_cap(self):
        client, _, slept = make_client(
            [err(429)] * 5 + [ok({})],
            backoff_base=1.0, backoff_cap=2.0, max_retries=5)
        client.query("g", "[_, a, _]")
        assert all(delay <= 2.0 for delay in slept)

    def test_retry_after_floors_the_backoff(self):
        client, _, slept = make_client(
            [err(429, retry_after=0.7), ok({})], backoff_base=0.01)
        client.query("g", "[_, a, _]")
        assert len(slept) == 1 and slept[0] >= 0.7

    def test_retry_after_in_body_also_floors(self):
        client, _, slept = make_client(
            [err(503, payload={"error": "degraded", "retry_after": 0.4}),
             ok({})], backoff_base=0.01)
        client.query("g", "[_, a, _]")
        assert slept[0] >= 0.4

    def test_non_retriable_status_raises_immediately(self):
        client, transport, slept = make_client(
            [err(400, payload={"error": "bad pathql"})])
        with pytest.raises(RemoteQueryError) as exc:
            client.query("g", "this is not pathql")
        assert exc.value.status == 400
        assert exc.value.payload["error"] == "bad pathql"
        assert slept == [] and not transport.script

    def test_transport_errors_are_retried_for_idempotent_ops(self):
        client, _, slept = make_client(
            [ConnectionResetError("peer reset"), ok({"graphs": ["g"]})])
        assert client.list_graphs() == ["g"]
        assert len(slept) == 1

    def test_budget_exhaustion_carries_the_attempt_trail(self):
        client, _, slept = make_client(
            [err(503), ConnectionResetError("boom"), err(503)],
            max_retries=2)
        with pytest.raises(RetryBudgetExceededError) as exc:
            client.stats("g")
        trail = exc.value.attempts
        assert [kind for kind, _ in trail] == \
            [503, "ConnectionResetError"]
        assert exc.value.last_status == 503
        assert len(slept) == 2   # no sleep after the final failure

    def test_mutate_is_never_retried_on_status(self):
        client, transport, slept = make_client([err(503)])
        with pytest.raises(RemoteQueryError) as exc:
            client.mutate("g", add_edges=[(0, "a", 1)])
        assert exc.value.status == 503
        assert slept == [] and not transport.script

    def test_mutate_is_never_retried_on_transport_error(self):
        client, transport, slept = make_client(
            [ConnectionResetError("mid-flight"), ok({})])
        with pytest.raises(ClientError, match="non-idempotent"):
            client.mutate("g", add_edges=[(0, "a", 1)])
        assert slept == [] and len(transport.requests) == 1

    def test_checkpoint_is_never_retried(self):
        client, _, slept = make_client([err(429)])
        with pytest.raises(RemoteQueryError):
            client.checkpoint("g")
        assert slept == []

    def test_seeded_clients_sleep_identically(self):
        delays = []
        for _ in range(2):
            client, _, slept = make_client(
                [err(503)] * 3 + [ok({})], jitter_seed=99)
            client.query("g", "[_, a, _]")
            delays.append(tuple(slept))
        assert delays[0] == delays[1]

    def test_rejects_non_http_scheme(self):
        with pytest.raises(ClientError):
            ReproClient("ftp://example:21")


@pytest.fixture
def live_server(tmp_path):
    """A real ``repro serve`` subprocess; yields a factory for clients.

    ``REPRO_FAULTS`` (and other server knobs) come from the test via the
    indirect ``request.param`` -> ``(env_faults, extra_args)`` tuple.
    """
    def start(env_faults=None, extra_args=()):
        root = tmp_path / "graphs"
        if not root.exists():
            root.mkdir()
            graph = MultiRelationalGraph(name="demo")
            for i in range(200):
                graph.add_edge(i, "a", (i + 1) % 200)
                graph.add_edge(i, "b", (i * 7 + 3) % 200)
            PersistentGraph.create(str(root / "demo"), graph,
                                   name="demo").close()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        if env_faults:
            env["REPRO_FAULTS"] = env_faults
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(root),
             "--port", "0", "--token", "sdk=tester", "--workers", "2",
             *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        procs.append(proc)
        for _ in range(50):
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                return proc, match.group(1), int(match.group(2))
        raise AssertionError("server never announced its endpoint")

    procs = []
    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def live_client(host, port, **kwargs):
    kwargs.setdefault("max_retries", 6)
    kwargs.setdefault("backoff_base", 0.05)
    kwargs.setdefault("backoff_cap", 1.0)
    kwargs.setdefault("jitter_seed", 11)
    kwargs.setdefault("timeout", 30.0)
    return ReproClient("http://{}:{}".format(host, port), token="sdk",
                       **kwargs)


class TestAgainstLiveServer:
    def test_rides_out_quota_shedding_with_backoff(self, live_server):
        _, host, port = live_server(extra_args=("--quota", "tester=1"))
        client = live_client(host, port)
        # Hold the single quota slot with slow sweeps from threads while
        # the client under test retries its way through the 429s.
        import threading
        stop = threading.Event()
        blocker = live_client(host, port, max_retries=0)
        heavy = {"query": "[_, a, _]* . [_, b, _]* . [_, a, _]",
                 "max_length": 6}

        def hog():
            while not stop.is_set():
                try:
                    blocker.query("demo", heavy["query"],
                                  max_length=heavy["max_length"])
                except (RemoteQueryError, RetryBudgetExceededError,
                        ClientError, OSError):
                    pass

        thread = threading.Thread(target=hog)
        thread.start()
        try:
            answer = client.query_pairs("demo", "[_, b, _]",
                                        sources=[0])
        finally:
            stop.set()
            thread.join()
        assert answer == {(0, 3)}

    def test_degraded_store_503_heals_by_checkpoint(self, live_server):
        # One injected WAL write error: the batch overflow mid-mutation
        # flips the store into read-only degraded mode server-side.
        _, host, port = live_server(env_faults="wal.write:eio:times=1")
        client = live_client(host, port)
        edges = [("u{}".format(i), "a", "v{}".format(i))
                 for i in range(30)]
        with pytest.raises(RemoteQueryError) as exc:
            client.mutate("demo", add_edges=edges)   # never retried
        assert exc.value.status == 503
        assert exc.value.payload["retriable"] is True
        ready, detail = client.ready()
        assert not ready and detail["degraded"] == ["demo"]
        assert client.health()
        # Queries keep serving while degraded.
        assert client.query_pairs("demo", "[_, b, _]",
                                  sources=[0]) == {(0, 3)}
        # Checkpoint (one shot, not retried) heals; mutations land again.
        client.checkpoint("demo")
        ready, _ = client.ready()
        assert ready
        outcome = client.mutate("demo", add_edges=[("x", "a", "y")])
        assert outcome["added"] == 1

    def test_connection_drops_are_retried_to_success(self, live_server):
        # The server aborts the first two connections mid-response; the
        # (idempotent) query rides the resets to the real answer.
        _, host, port = live_server(
            env_faults="http.connection_drop:drop:times=2")
        client = live_client(host, port)
        assert client.query_pairs("demo", "[_, b, _]",
                                  sources=[0]) == {(0, 3)}
        assert client.retries_performed >= 2


# ----------------------------------------------------------------------
# The transport itself: the SDK frames HTTP/1.1 over a plain socket
# ----------------------------------------------------------------------


@contextlib.contextmanager
def stdlib_peer(mode="length"):
    """``http.server`` — a framer this repo did not write — as the peer.

    ``length``: HTTP/1.1, ``Content-Length``, keep-alive honoured.
    ``eof``: HTTP/1.0, no length, the close ends the body.
    ``hangup``: promises keep-alive, then closes the connection anyway.
    """
    seen = {"requests": [], "connections": 0}

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.0" if mode == "eof" else "HTTP/1.1"

        def setup(self):
            seen["connections"] += 1
            super().setup()

        def answer(self):
            length = int(self.headers.get("Content-Length", "0"))
            seen["requests"].append(
                (self.command, self.path, dict(self.headers.items()),
                 self.rfile.read(length)))
            body = json.dumps({"graphs": ["g"], "pairs": [[0, 1]],
                               "n": len(seen["requests"])}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            if mode != "eof":
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Connection", "keep-alive")
            self.end_headers()
            self.wfile.write(body)
            if mode == "hangup":
                self.close_connection = True

        do_GET = do_POST = answer

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:{}".format(server.server_address[1]), seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class ScriptedPeer:
    """A raw listening socket: each connection reads one whole request,
    then sends the next script step — a list of byte chunks, flushed one
    by one — and closes.  ``None`` as a step: say nothing, just hold."""

    def __init__(self, script, pause=0.002):
        self.script = list(script)
        self.pause = pause
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:{}".format(
            self.listener.getsockname()[1])
        self.thread = threading.Thread(target=self.run, daemon=True)
        self.thread.start()

    def run(self):
        while self.script:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            with connection:
                connection.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += connection.recv(65536)
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(re.search(rb"Content-Length: (\d+)",
                                       head).group(1))
                while len(body) < length:
                    body += connection.recv(65536)
                self.requests.append((head, body))
                step = self.script.pop(0)
                if step is None:
                    time.sleep(0.5)
                    continue
                try:
                    for chunk in step:
                        connection.sendall(chunk)
                        time.sleep(self.pause)
                except OSError:
                    pass    # the client hung up on a reply it refused

    def close(self):
        self.listener.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@contextlib.contextmanager
def scripted_peer(script, **kwargs):
    peer = ScriptedPeer(script, **kwargs)
    try:
        yield peer
    finally:
        peer.close()


def reply(body=b'{"pairs": [[0, 1]]}', status_line=b"HTTP/1.1 200 OK",
          headers=None):
    lines = [status_line]
    for name, value in (headers if headers is not None else {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close"}).items():
        lines.append("{}: {}".format(name, value).encode("latin-1"))
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


class ChunkedSocket:
    """What ``_read_reply`` needs of a socket, over pre-cut chunks."""

    def __init__(self, chunks):
        self.chunks = [bytes(chunk) for chunk in chunks if chunk]

    def recv(self, size):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
        return chunk[:size]

    def recv_into(self, view):
        data = self.recv(len(view))
        view[:len(data)] = data
        return len(data)


def cut(data, points):
    points = sorted({p % (len(data) + 1) for p in points})
    return [data[a:b] for a, b in zip([0] + points, points + [len(data)])]


BAD_REPLIES = {
    "chunked": reply(b"5\r\nhello\r\n0\r\n\r\n", headers={
        "Transfer-Encoding": "chunked"}),
    "interim": b"HTTP/1.1 100 Continue\r\n\r\n" + reply(),
    "garbage-status": reply(status_line=b"HTTP/1.1 two-hundred OK"),
    "not-http": b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
    "bad-length": reply(headers={"Content-Length": "12abc"}),
    "unicode-digit-length": reply(headers={"Content-Length": "\xb2"}),
    "bad-header": reply(headers={}).replace(
        b"\r\n\r\n", b"\r\nno colon here\r\n\r\n", 1),
    "oversize-head": reply(headers={"X-Pad": "x" * 70000,
                                    "Content-Length": "19"}),
    "eof-in-head": b"HTTP/1.1 200 OK\r\nContent-Le",
    "eof-in-body": reply()[:-5],
    "silence": b"",
}


class TestTransport:
    def test_length_framed_keepalive_against_stdlib_server(self):
        with stdlib_peer("length") as (url, seen):
            client = ReproClient(url, token="t", keep_alive=True)
            try:
                assert client.query_pairs("g", "[_, a, _]",
                                          sources=[3]) == {(0, 1)}
                assert client.list_graphs() == ["g"]
                assert client.query("g", "[_, b, _]")["n"] == 3
            finally:
                client.close()
        assert seen["connections"] == 1          # three requests, one socket
        method, path, headers, body = seen["requests"][0]
        assert (method, path) == ("POST", "/v1/graphs/g/query")
        assert json.loads(body) == {"query": "[_, a, _]", "sources": [3]}
        assert headers["Authorization"] == "Bearer t"
        assert headers["Connection"] == "keep-alive"
        assert headers["Content-Length"] == str(len(body))
        assert headers["Host"].startswith("127.0.0.1:")
        assert seen["requests"][1][:2] == ("GET", "/v1/graphs")
        assert seen["requests"][1][3] == b""

    def test_one_connection_per_request_without_keep_alive(self):
        with stdlib_peer("length") as (url, seen):
            client = ReproClient(url)
            assert client.list_graphs() == ["g"]
            assert client.list_graphs() == ["g"]
            assert client._socket is None
        assert seen["connections"] == 2
        assert seen["requests"][0][2]["Connection"] == "close"

    def test_close_delimited_reply_reads_to_eof(self):
        with stdlib_peer("eof") as (url, seen):
            client = ReproClient(url, keep_alive=True)
            assert client.query("g", "[_, a, _]")["pairs"] == [[0, 1]]
            # HTTP/1.0 and no length: nothing to reuse.
            assert client._socket is None
            assert client.query("g", "[_, a, _]")["n"] == 2
        assert seen["connections"] == 2

    def test_stale_kept_connection_is_reopened_once_silently(self):
        slept = []
        with stdlib_peer("hangup") as (url, seen):
            client = ReproClient(url, keep_alive=True, sleeper=slept.append)
            try:
                assert client.query("g", "[_, a, _]")["n"] == 1
                assert client._socket is not None    # promised keep-alive
                assert client.query("g", "[_, a, _]")["n"] == 2
            finally:
                client.close()
        assert seen["connections"] == 2
        assert slept == [] and client.retries_performed == 0

    def test_reply_split_at_every_byte_boundary(self):
        whole = reply(b'{"pairs": [[0, 1]], "count": 1}')
        steps = [[whole[:i], whole[i:]] for i in range(1, len(whole))]
        with scripted_peer(steps, pause=0.001) as peer:
            client = ReproClient(peer.url, max_retries=0)
            for _ in steps:
                assert client.query("g", "[_, a, _]") == {
                    "pairs": [[0, 1]], "count": 1}
        assert len(peer.requests) == len(steps)

    @settings(max_examples=150, deadline=None)
    @given(status=st.sampled_from([200, 400, 429, 503, 504]),
           headers=st.dictionaries(
               st.from_regex(r"x-[a-z]{1,8}", fullmatch=True),
               st.from_regex(r"[a-z0-9=;,]([a-z0-9=;, ]{0,18}[a-z0-9=;,])?",
                             fullmatch=True), max_size=4),
           body=st.binary(max_size=300),
           framed=st.booleans(),
           points=st.lists(st.integers(min_value=0), max_size=12))
    def test_any_chunking_parses_to_the_same_reply(self, status, headers,
                                                   body, framed, points):
        sent = dict(headers)
        if framed:
            sent["content-length"] = str(len(body))
        whole = reply(body, "HTTP/1.1 {} Whatever".format(status).encode(),
                      sent)
        expected = (status, sent, body, framed)
        assert _read_reply(ChunkedSocket([whole])) == expected
        assert _read_reply(ChunkedSocket(cut(whole, points))) == expected
        assert _read_reply(ChunkedSocket(
            [whole[i:i + 1] for i in range(len(whole))])) == expected

    @pytest.mark.parametrize("name", sorted(BAD_REPLIES))
    def test_unframeable_reply_is_a_typed_transport_failure(self, name):
        bad = BAD_REPLIES[name]
        with pytest.raises(WireProtocolError):
            _read_reply(ChunkedSocket([bad]))
        with pytest.raises(WireProtocolError):
            _read_reply(ChunkedSocket(cut(bad, range(0, len(bad), 7))))
        assert issubclass(WireProtocolError, (ClientError, OSError))

    def test_bytes_beyond_the_framed_body_desynchronise_the_stream(self):
        with pytest.raises(WireProtocolError, match="follow"):
            _read_reply(ChunkedSocket([reply() + b"HTTP/1.1 200 OK"]))

    @pytest.mark.parametrize("name", ["chunked", "oversize-head",
                                      "garbage-status", "eof-in-body",
                                      "silence"])
    def test_unframeable_reply_retried_for_query_not_for_mutate(self, name):
        bad = BAD_REPLIES[name]
        slept = []
        with scripted_peer([[bad], [reply()]]) as peer:
            client = ReproClient(peer.url, sleeper=slept.append,
                                 jitter_seed=5)
            assert client.query_pairs("g", "[_, a, _]") == {(0, 1)}
        assert len(slept) == 1 and client.retries_performed == 1
        assert len(peer.requests) == 2
        with scripted_peer([[bad], [reply()]]) as peer:
            client = ReproClient(peer.url, sleeper=slept.append)
            with pytest.raises(ClientError, match="non-idempotent") as exc:
                client.mutate("g", add_edges=[(0, "a", 1)])
            assert isinstance(exc.value.__cause__, WireProtocolError)
            assert len(peer.requests) == 1      # sent once, never again
            client.health()                     # drains the script
        assert len(slept) == 1

    def test_budget_trail_names_the_framing_error(self):
        bad = BAD_REPLIES["chunked"]
        with scripted_peer([[bad], [bad]]) as peer:
            client = ReproClient(peer.url, max_retries=1,
                                 sleeper=lambda _: None)
            with pytest.raises(RetryBudgetExceededError) as exc:
                client.stats("g")
        assert [kind for kind, _ in exc.value.attempts] == \
            ["WireProtocolError"]
        assert exc.value.last_status is None
        assert "chunked" in str(exc.value)

    def test_timeout_bounds_a_silent_peer(self):
        with scripted_peer([None]) as peer:
            client = ReproClient(peer.url, timeout=0.1, max_retries=0)
            with pytest.raises(RetryBudgetExceededError, match="[Tt]ime"):
                client.stats("g")

    def test_exactly_one_sendall_per_request(self):
        def by_thread(kind):
            def key(*args, **kwargs):
                main = threading.current_thread() is threading.main_thread()
                return ("client " if main else "peer ") + kind
            return key

        with stdlib_peer("length") as (url, seen):
            client = ReproClient(url, token="t", keep_alive=True)
            client.list_graphs()                     # connect first
            with counted_calls([
                    (by_thread(kind), socket.socket, kind)
                    for kind in ("sendall", "send", "sendto",
                                 "sendmsg")]) as counts:
                for _ in range(5):
                    client.query("g", "[_, a, _]", sources=[1, 2])
                client.mutate("g", add_edges=[(0, "a", 1)])
            client.close()
        sent = {key: n for key, n in counts.items()
                if key.startswith("client ")}
        assert sent == {"client sendall": 6}
        assert seen["connections"] == 1

    @pytest.mark.parametrize("graph", ["g\r\nX-Injected: 1", "g h", "gr\xe4ph"])
    def test_request_target_must_be_printable_ascii(self, graph):
        with stdlib_peer("length") as (url, seen):
            client = ReproClient(url)
            with pytest.raises(ClientError, match="printable ASCII"):
                client.stats(graph)
        assert seen["requests"] == []
        with pytest.raises(ClientError, match="printable ASCII"):
            ReproClient("http://127.0.0.1:1", token="t\r\nX: y")
