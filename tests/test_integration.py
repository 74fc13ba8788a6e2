"""Integration tests: full pipelines across the layers.

Each test is a miniature of how a downstream user composes the library:
load/generate a graph, query it through the engine, project, and feed a
single-relational algorithm — exercising graph store + algebra + regex +
automata + engine + algorithms together.
"""

import io

from repro import Traversal
from repro.algorithms import pagerank, spreading_activation
from repro.core.projection import project_label_sequence, project_paths
from repro.datasets import scholarly_graph, software_community, travel_network
from repro.engine import Engine
from repro.graph import io as graph_io


class TestQueryProjectRankPipeline:
    def test_coauthor_pagerank(self):
        """Scholarly graph -> co-authorship projection -> PageRank ranking."""
        g = scholarly_graph()
        authored = g.edges(label="authored")
        coauthor = project_paths(authored @ authored.map(lambda p: p.reversed()))
        ranks = pagerank(coauthor.to_digraph())
        assert ranks
        authors = [v for v in ranks if str(v).startswith("author")]
        assert authors
        assert abs(sum(ranks.values()) - 1.0) < 1e-6

    def test_author_citation_projection(self):
        """authored . cites . authored^-1 relates citing to cited authors."""
        g = scholarly_graph()
        authored = g.edges(label="authored")
        cites = g.edges(label="cites")
        author_cites = authored @ cites @ authored.map(lambda p: p.reversed())
        projection = project_paths(author_cites)
        for tail, head in projection.pairs:
            assert str(tail).startswith("author")
            assert str(head).startswith("author")

    def test_dependency_closure_via_engine(self):
        """Engine star query == fluent repeated traversal on depends_on."""
        g = software_community()
        engine = Engine(g, default_max_length=8)
        result = engine.query("[project7, depends_on, _] . [_, depends_on, _]*")
        transitive = result.heads()
        # Cross-check with an explicit frontier expansion.
        frontier = {"project7"}
        reached = set()
        while frontier:
            new = set()
            for v in frontier:
                for e in g.match(tail=v, label="depends_on"):
                    if e.head not in reached:
                        reached.add(e.head)
                        new.add(e.head)
            frontier = new
        assert transitive == reached


class TestSerializationRoundTripPipeline:
    def test_json_round_trip_preserves_query_results(self):
        g = travel_network()
        engine_before = Engine(g)
        query = "[city0, flight, _] . [_, train, _]"
        before = engine_before.query(query).paths

        buffer = io.StringIO()
        graph_io.write_json(g, buffer)
        restored = graph_io.read_json(io.StringIO(buffer.getvalue()))
        after = Engine(restored).query(query).paths
        assert before == after

    def test_triples_round_trip_preserves_structure_queries(self):
        g = software_community()
        text = graph_io.to_triple_text(g)
        restored = graph_io.from_triple_text(text)
        assert restored.edge_set() == g.edge_set()


class TestFluentVersusEngine:
    def test_two_step_labeled_traversal_agrees(self):
        g = software_community()
        fluent = (Traversal(g).start("person0")
                  .out("knows").out("created").paths())
        engine = Engine(g).query("[person0, knows, _] . [_, created, _]").paths
        assert fluent == engine

    def test_label_sequence_projection_agrees_with_engine(self):
        g = software_community()
        via_traversal = project_label_sequence(g, ["knows", "created"])
        via_engine = Engine(g).project("[_, knows, _] . [_, created, _]",
                                       max_length=2)
        assert via_traversal.pairs == via_engine.pairs


class TestRecommendationScenario:
    def test_travel_recommendation_by_path_counting(self):
        """Rank destinations by number of flight+train witness paths."""
        g = travel_network()
        engine = Engine(g)
        result = engine.query("[city3, _, _] . [_, train, _]", max_length=2)
        histogram = {}
        for p in result.paths:
            histogram[p.head] = histogram.get(p.head, 0) + 1
        assert histogram  # somewhere is reachable

    def test_spreading_activation_over_projection(self):
        g = software_community()
        knows = project_label_sequence(g, ["knows"])
        activation = spreading_activation(knows.to_digraph(),
                                          {"person0": 1.0}, steps=3)
        assert activation["person0"] >= 1.0
        assert len(activation) > 1
