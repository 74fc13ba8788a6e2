"""A snapshot's data region is the CSR cells as little-endian int64s.

The writer packs cells with ``array.array('q')``; a store written by an
earlier writer, which packed them with numpy, holds the same bytes.  Over
seeded random graphs whose snapshot is an overlay with dead vertex slots,
the data region ``write_adjacency_snapshot`` writes equals the folded CSR
cells packed by ``numpy.asarray(cells, dtype="<i8").tobytes()``, and the
file reopens (mapped and read) to the graph's answers.
"""

import random

import pytest

from repro.graph.compact import (
    DeltaAdjacency,
    _build_csr,
    adjacency_snapshot,
    fold_adjacency_pairs,
    rpq_pairs_on_snapshot,
)
from repro.graph.generators import uniform_random
from repro.rpq import compile_rpq, lconcat, lstar, lunion, rpq_pairs_basic, sym
from repro.storage import snapshots

LABELS = ("a", "b", "c")
EXPRESSIONS = [
    lconcat(sym("a"), lstar(sym("b"))),
    lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
]


def churned(seed):
    """A random graph whose cached snapshot is an overlay: some vertices
    removed (dead slots), some added, edges added and removed."""
    rng = random.Random(seed)
    graph = uniform_random(rng.randint(60, 150), rng.randint(200, 600),
                           labels=LABELS, seed=seed)
    adjacency_snapshot(graph)  # the base the writes below patch
    for vertex in rng.sample(sorted(graph.vertices()), 3):
        graph.remove_vertex(vertex)
    for step in range(12):
        edges = sorted(graph.edge_set(), key=repr)
        if step % 3 == 0 and edges:
            graph.remove_edge(*rng.choice(edges))
        else:
            graph.add_edge("new{}".format(step % 5), rng.choice(LABELS),
                           rng.choice(sorted(graph.vertices(), key=repr)))
    return graph


def written(seed, tmp_path):
    """``(graph, its overlay, the snapshot file written from it)``."""
    graph = churned(seed)
    view = adjacency_snapshot(graph)
    assert isinstance(view, DeltaAdjacency) and view.dead_vertices
    path = str(tmp_path / "g.rcsr")
    snapshots.write_adjacency_snapshot(path, view, version=graph.version())
    return graph, view, path


@pytest.mark.parametrize("seed", range(12))
def test_data_region_is_numpy_packed_cells(seed, tmp_path):
    np = pytest.importorskip("numpy")
    _, view, path = written(seed, tmp_path)
    vertex_of, _, per_label, _ = fold_adjacency_pairs(view)
    n = len(vertex_of)
    region = []
    for pairs in per_label:
        forward = _build_csr(n, pairs, len(pairs))
        reverse = _build_csr(n, [(h, t) for t, h in pairs], len(pairs))
        for cells in forward + reverse:
            region.append(np.asarray(cells, dtype="<i8").tobytes())
    _, data_offset = snapshots._read_header(path)
    with open(path, "rb") as stream:
        stream.seek(data_offset)
        assert stream.read() == b"".join(region)


@pytest.mark.parametrize("seed", range(12))
def test_the_file_reopens_to_the_graphs_answers(seed, tmp_path):
    graph, _, path = written(seed, tmp_path)
    for mmap in (True, False):
        reopened, _ = snapshots.open_adjacency_snapshot(path, mmap=mmap,
                                                        verify=True)
        assert reopened.version == graph.version()
        for expression in EXPRESSIONS:
            assert rpq_pairs_on_snapshot(
                reopened, compile_rpq(expression, graph)) \
                == rpq_pairs_basic(graph, expression)
