"""End-to-end smoke: a real ``repro serve`` process under concurrent load.

This is the CI service gate: boot the server as a subprocess on a fixture
store, fire concurrent requests covering the interesting responses — a
cache miss, a cache hit, a deadline-exceeded 504 and an over-quota 429 —
then SIGTERM it and assert a clean, prompt shutdown with no leaked worker
processes.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.graph.graph import MultiRelationalGraph
from repro.storage import PersistentGraph

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def server(tmp_path):
    root = tmp_path / "graphs"
    root.mkdir()
    graph = MultiRelationalGraph(name="demo")
    for i in range(400):
        graph.add_edge(i, "a", (i + 1) % 400)
        graph.add_edge(i, "b", (i * 7 + 3) % 400)
    PersistentGraph.create(str(root / "demo"), graph, name="demo").close()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(root),
         "--port", "0", "--token", "smoke=tester", "--quota", "tester=2",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, "server never announced its endpoint: " + repr(line)
        yield proc, match.group(1), int(match.group(2))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def request(host, port, path, body=None, deadline_ms=None):
    payload = dict(body or {})
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    req = urllib.request.Request(
        "http://{}:{}{}".format(host, port, path),
        data=json.dumps(payload).encode() if body is not None else None,
        headers={"Authorization": "Bearer smoke"})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_serve_smoke(server):
    proc, host, port = server
    sweep = {"query": "[_, a, _]* . [_, b, _]", "max_length": 6}

    # Liveness, then a cache miss followed by a cache hit.
    status, payload = request(host, port, "/healthz")
    assert (status, payload) == (200, {"status": "ok"})
    status, miss = request(host, port, "/v1/graphs/demo/query", sweep)
    assert status == 200 and miss["cached"] is False and miss["count"] > 0
    status, hit = request(host, port, "/v1/graphs/demo/query", sweep)
    assert status == 200 and hit["cached"] is True
    assert hit["pairs"] == miss["pairs"]

    # `a` is one 400-cycle, so the all-sources closure is 160 000 pairs:
    # a 1 ms budget is below that sweep's runtime on any kernel —
    # deterministic 504.  (`b` is i -> 7i+3 mod 400, of order 4: its cones
    # hold <= 4 vertices and a fast kernel beats the timer.)
    status, payload = request(host, port, "/v1/graphs/demo/query",
                              {"query": "[_, a, _]*"},
                              deadline_ms=1)
    assert status == 504 and payload["retriable"] is True

    # Saturate tenant 'tester' (quota 2) with slow sweeps from threads,
    # then expect the third concurrent request to shed with a 429.
    import threading
    results = []
    heavy = {"query": "[_, a, _]* . [_, b, _]* . [_, a, _]",
             "max_length": 6}

    def fire(body):
        results.append(request(host, port, "/v1/graphs/demo/query", body))

    threads = [threading.Thread(target=fire, args=(heavy,))
               for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    statuses = sorted(status for status, _ in results)
    assert statuses.count(200) >= 1
    assert 429 in statuses, statuses
    shed = next(payload for status, payload in results if status == 429)
    assert shed["retriable"] is True

    # The service recovered from shedding: one more query answers.
    status, payload = request(host, port, "/v1/graphs/demo/query", sweep)
    assert status == 200

    # Graceful shutdown: SIGTERM drains and exits 0 promptly, and the
    # worker threads/processes die with it (no leaked children).
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert "shutdown complete" in out
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.kill(proc.pid, 0)
        except OSError:
            break
        time.sleep(0.1)
    children = subprocess.run(
        ["ps", "--ppid", str(proc.pid), "-o", "pid="],
        capture_output=True, text=True).stdout.strip()
    assert children == "", "leaked child processes: " + children


def test_sigterm_with_an_idle_keepalive_connection_logs_nothing(server):
    """A stop cancels the handler parked between two keep-alive requests;
    it must end quietly — no ``CancelledError`` traceback on stderr."""
    import socket
    proc, host, port = server
    with socket.create_connection((host, port), timeout=10) as idle:
        idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n"
                     b"Connection: keep-alive\r\n\r\n")
        reply = idle.recv(65536)
        assert reply.startswith(b"HTTP/1.1 200") \
            and b"Connection: keep-alive" in reply
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert "shutdown complete" in out
    assert "Traceback" not in err and "CancelledError" not in err, err
