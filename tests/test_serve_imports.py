"""A served process never imports numpy.

numpy is optional, and only the single-relational ``CompactDiGraph``
kernels need it: the RPQ kernels run over Python ``int`` cells and the
snapshot writer packs them with ``array.array``.  A fresh interpreter
imports the modules ``repro serve`` loads, opens a store of the serve
workloads' shape (1500 vertices, 12000 edges, labels a/b/c) lazily
behind an ``HttpServer`` and sends it forward, backward, bidirectional
and 4-source reads, a ``/mutate`` and a ``/checkpoint`` (which writes a
snapshot); numpy must still be absent from ``sys.modules``.  The first
``digraph_snapshot`` of a large ``DiGraph`` then builds a
``CompactDiGraph`` (loading numpy) and leaves ``HAVE_NUMPY`` as it was.
"""

import json
import os
import subprocess
import sys
from importlib.util import find_spec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = r'''
import asyncio, json, sys

import repro.cli, repro.engine, repro.replication, repro.service.http
import repro.storage
from repro.algorithms.digraph import DiGraph
from repro.engine import Engine
from repro.graph import compact
from repro.graph.generators import uniform_random
from repro.service import GraphRegistry, HttpServer, wire
from repro.storage import PersistentGraph

T1 = "[_, a, _] . [_, b, _]*"
T3 = "([_, a, _] | [_, b, _])* . [_, c, _]"
READS = [(T1, [1], None), (T1, None, [10]), (T3, [3], [4, 5]),
         ("[_, a, _]+", [6, 7, 8, 9], None)]
root = sys.argv[1]
have_numpy = compact.HAVE_NUMPY
graph = uniform_random(1500, 12000, labels=("a", "b", "c"), seed=1,
                       name="g")
PersistentGraph.create(root + "/g", graph, name="g").close()
registry = GraphRegistry(root, max_workers=2)
server = HttpServer(registry)
engine = registry.acquire("g").engine
reference = Engine(graph)
report = {"kernels": [], "answers_equal": True}

async def call(action, body):
    status, payload, _ = await server._dispatch(
        "POST", "/v1/graphs/g/" + action, {}, json.dumps(body).encode())
    assert status == 200, payload
    return json.loads(wire.encode_reply(payload)[0])

async def reads():
    for query, sources, targets in READS:
        body = {"query": query}
        body.update({k: v for k, v in (("sources", sources),
                                       ("targets", targets)) if v})
        payload = await call("query", body)
        served = frozenset(map(tuple, payload["pairs"]))
        report["answers_equal"] &= served == reference.pairs(
            query, sources and frozenset(sources),
            targets and frozenset(targets))
        report["kernels"].append(engine.route(
            engine.compile(query), sources and frozenset(sources),
            targets and frozenset(targets)).kernel)

async def scenario():
    try:
        await reads()
        edges = sorted(graph.match(label="a"), key=repr)[:8]
        await call("mutate", {
            "add_edges": [[1, "b", 10], [2000, "c", 2001]],
            "remove_edges": [list(edge) for edge in edges]})
        for edge in edges:
            graph.remove_edge(*edge)
        graph.add_edge(1, "b", 10)
        graph.add_edge(2000, "c", 2001)
        await call("checkpoint", {})
        await reads()
    finally:
        await server.stop()

asyncio.run(scenario())
report["store_lazy"] = not engine.graph.materialized
report["numpy_while_serving"] = "numpy" in sys.modules
digraph = DiGraph()
for i in range(2 * DiGraph._COMPACT_MIN_ORDER):
    digraph.add_edge(i, (i + 1) % 256)
snapshot = compact.digraph_snapshot(digraph)
report["digraph_snapshot"] = type(snapshot).__name__
report["have_numpy"] = [have_numpy, compact.HAVE_NUMPY]
report["numpy_after_digraph"] = "numpy" in sys.modules
print(json.dumps(report))
'''


def test_a_served_process_never_imports_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["kernels"] == ["forward", "backward", "bidirectional",
                                 "forward"] * 2
    assert report["answers_equal"] and report["store_lazy"]
    assert report["numpy_while_serving"] is False
    have_numpy = find_spec("numpy") is not None
    assert report["have_numpy"] == [have_numpy, have_numpy]
    assert report["digraph_snapshot"] == (
        "CompactDiGraph" if have_numpy else "NoneType")
    assert report["numpy_after_digraph"] is have_numpy
