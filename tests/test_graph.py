"""Unit tests for the MultiRelationalGraph store."""

import pytest

from repro.core.edge import Edge
from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    LabelNotFoundError,
    VertexNotFoundError,
    WildcardIdError,
)
from repro.graph.graph import MultiRelationalGraph


@pytest.fixture
def graph():
    return MultiRelationalGraph([
        ("marko", "knows", "josh"),
        ("marko", "knows", "peter"),
        ("marko", "created", "gremlin"),
        ("josh", "created", "gremlin"),
        ("josh", "created", "frames"),
        ("gremlin", "depends_on", "blueprints"),
        ("frames", "depends_on", "blueprints"),
    ], name="tinker")


class TestMutation:
    def test_bulk_load_counts(self, graph):
        assert graph.order() == 6
        assert graph.size() == 7
        assert graph.relation_count() == 3

    def test_add_edge_creates_endpoints(self):
        g = MultiRelationalGraph()
        g.add_edge("a", "r", "b")
        assert g.has_vertex("a") and g.has_vertex("b")

    def test_add_edge_returns_edge(self):
        g = MultiRelationalGraph()
        assert g.add_edge("a", "r", "b") == Edge("a", "r", "b")

    def test_duplicate_edge_is_idempotent(self):
        g = MultiRelationalGraph()
        g.add_edge("a", "r", "b")
        g.add_edge("a", "r", "b")
        assert g.size() == 1

    def test_parallel_edges_with_different_labels(self):
        """Multi-relational: one vertex pair, many relations."""
        g = MultiRelationalGraph()
        g.add_edge("a", "r1", "b")
        g.add_edge("a", "r2", "b")
        assert g.size() == 2

    def test_add_vertex_strict_raises_on_duplicate(self):
        g = MultiRelationalGraph()
        g.add_vertex("a")
        with pytest.raises(DuplicateVertexError):
            g.add_vertex("a", strict=True)

    def test_remove_edge(self, graph):
        graph.remove_edge("marko", "knows", "josh")
        assert not graph.has_edge("marko", "knows", "josh")
        assert graph.size() == 6

    def test_remove_edge_missing_raises(self, graph):
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge("marko", "hates", "josh")

    def test_remove_last_edge_of_label_removes_label(self):
        g = MultiRelationalGraph([("a", "r", "b")])
        g.remove_edge("a", "r", "b")
        assert not g.has_label("r")

    def test_remove_vertex_removes_incident_edges(self, graph):
        graph.remove_vertex("gremlin")
        assert not graph.has_edge("marko", "created", "gremlin")
        assert not graph.has_edge("gremlin", "depends_on", "blueprints")
        assert graph.has_vertex("blueprints")

    def test_remove_vertex_missing_raises(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.remove_vertex("nobody")

    def test_add_edges_bulk(self):
        g = MultiRelationalGraph()
        added = g.add_edges([("a", "r", "b"), Edge("b", "r", "c")])
        assert len(added) == 2
        assert g.size() == 2

    @pytest.mark.parametrize("triple, role", [((1, "a", None), "vertex"),
                                              ((None, "a", 2), "vertex"),
                                              ((1, None, 2), "label")])
    def test_none_is_the_wildcard_never_an_id(self, triple, role):
        # None is the "any" of match() and of an Atom: stored as a vertex,
        # (1, a, None) and (5, b, 6) made [_, a, _] . [_, b, _] a joint
        # path for the automaton strategy and not for the materialized one.
        g = MultiRelationalGraph([(5, "b", 6)])
        version = g.version()
        with pytest.raises(WildcardIdError) as info:
            g.add_edge(*triple)
        assert info.value.role == role
        with pytest.raises(WildcardIdError):
            g.add_vertex(None)
        with pytest.raises(WildcardIdError):
            MultiRelationalGraph([triple])
        assert g.version() == version
        assert set(g.vertices()) == {5, 6} and g.size() == 1


class TestInspection:
    def test_vertices(self, graph):
        assert "marko" in graph.vertices()
        assert len(graph.vertices()) == 6

    def test_labels(self, graph):
        assert graph.labels() == {"knows", "created", "depends_on"}

    def test_contains_edge_tuple(self, graph):
        assert ("marko", "knows", "josh") in graph
        assert Edge("marko", "knows", "josh") in graph

    def test_contains_vertex(self, graph):
        assert "marko" in graph
        assert "nobody" not in graph

    def test_len_is_edge_count(self, graph):
        assert len(graph) == 7

    def test_iteration_yields_edges_deterministically(self, graph):
        assert list(graph) == sorted(graph.edge_set(), key=repr)

    def test_equality_is_structural(self, graph):
        clone = MultiRelationalGraph(graph.edge_set())
        assert clone == graph

    def test_repr_mentions_counts(self, graph):
        assert "|V|=6" in repr(graph)
        assert "|E|=7" in repr(graph)


class TestProperties:
    def test_vertex_properties_round_trip(self):
        g = MultiRelationalGraph()
        g.add_vertex("a", kind="person", age=30)
        assert g.vertex_properties("a") == {"kind": "person", "age": 30}

    def test_vertex_properties_merge(self):
        g = MultiRelationalGraph()
        g.add_vertex("a", kind="person")
        g.add_vertex("a", age=30)
        assert g.vertex_properties("a") == {"kind": "person", "age": 30}

    def test_vertex_properties_returns_copy(self):
        g = MultiRelationalGraph()
        g.add_vertex("a", kind="person")
        g.vertex_properties("a")["kind"] = "mutated"
        assert g.vertex_properties("a")["kind"] == "person"

    def test_edge_properties(self):
        g = MultiRelationalGraph()
        g.add_edge("a", "r", "b", weight=2.0)
        assert g.edge_properties("a", "r", "b") == {"weight": 2.0}

    def test_set_vertex_property_requires_vertex(self):
        g = MultiRelationalGraph()
        with pytest.raises(VertexNotFoundError):
            g.set_vertex_property("a", "k", 1)

    def test_set_edge_property_requires_edge(self):
        g = MultiRelationalGraph()
        with pytest.raises(EdgeNotFoundError):
            g.set_edge_property("a", "r", "b", "k", 1)

    def test_properties_do_not_affect_identity(self):
        g1 = MultiRelationalGraph()
        g1.add_edge("a", "r", "b", weight=1)
        g2 = MultiRelationalGraph()
        g2.add_edge("a", "r", "b", weight=999)
        assert g1 == g2


class TestSetBuilderNotation:
    """The paper's [i,_,_] / [_,a,_] / [_,_,j] atoms (section IV-A)."""

    def test_full_wildcard_is_e(self, graph):
        assert len(graph.edges()) == graph.size()

    def test_source_edge_set(self, graph):
        out = graph.edges(tail="marko")
        assert len(out) == 3
        assert all(p.tail == "marko" for p in out)

    def test_destination_edge_set(self, graph):
        into = graph.edges(head="gremlin")
        assert len(into) == 2
        assert all(p.head == "gremlin" for p in into)

    def test_labeled_edge_set(self, graph):
        created = graph.edges(label="created")
        assert len(created) == 3
        assert all(p.label_path == ("created",) for p in created)

    def test_combined_tail_and_label(self, graph):
        assert len(graph.edges(tail="josh", label="created")) == 2

    def test_combined_label_and_head(self, graph):
        assert len(graph.edges(label="created", head="gremlin")) == 2

    def test_fully_bound_pattern(self, graph):
        assert len(graph.edges(tail="marko", label="knows", head="josh")) == 1

    def test_no_match_is_empty(self, graph):
        assert len(graph.edges(tail="nobody")) == 0
        assert len(graph.edges(label="hates")) == 0

    def test_match_returns_raw_edges(self, graph):
        edges = graph.match(label="knows")
        assert all(isinstance(e, Edge) for e in edges)
        assert len(edges) == 2

    def test_all_paths_equals_edges(self, graph):
        assert graph.all_paths() == graph.edges()


class TestNeighborhoods:
    def test_out_edges(self, graph):
        assert len(graph.out_edges("marko")) == 3
        assert len(graph.out_edges("marko", "knows")) == 2

    def test_in_edges(self, graph):
        assert len(graph.in_edges("gremlin")) == 2
        assert len(graph.in_edges("gremlin", "created")) == 2
        assert len(graph.in_edges("gremlin", "knows")) == 0

    def test_successors_predecessors(self, graph):
        assert graph.successors("marko") == {"josh", "peter", "gremlin"}
        assert graph.predecessors("gremlin") == {"marko", "josh"}
        assert graph.successors("marko", "knows") == {"josh", "peter"}

    def test_degrees(self, graph):
        assert graph.out_degree("marko") == 3
        assert graph.in_degree("marko") == 0
        assert graph.degree("gremlin") == 3

    def test_neighborhood_of_missing_vertex_raises(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.out_edges("nobody")


class TestViewsAndDerivations:
    def test_relation_extraction(self, graph):
        knows = graph.relation("knows")
        assert knows == {("marko", "josh"), ("marko", "peter")}

    def test_relation_missing_label_raises(self, graph):
        with pytest.raises(LabelNotFoundError):
            graph.relation("hates")

    def test_collapsed_ignores_labels(self):
        g = MultiRelationalGraph([("a", "r1", "b"), ("a", "r2", "b")])
        assert g.collapsed() == {("a", "b")}

    def test_subgraph_by_labels(self, graph):
        sub = graph.subgraph_by_labels(["created"])
        assert sub.size() == 3
        assert sub.labels() == {"created"}
        assert not sub.has_vertex("peter")  # only incident vertices kept

    def test_subgraph_by_vertices(self, graph):
        sub = graph.subgraph_by_vertices(["marko", "josh", "gremlin"])
        assert sub.has_edge("marko", "knows", "josh")
        assert sub.has_edge("marko", "created", "gremlin")
        assert not sub.has_edge("marko", "knows", "peter")

    def test_inverted(self, graph):
        inv = graph.inverted()
        assert inv.has_edge("josh", "knows", "marko")
        assert inv.size() == graph.size()
        assert inv.inverted() == graph

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add_edge("x", "r", "y")
        assert not graph.has_vertex("x")
        assert clone != graph

    def test_merged(self):
        g1 = MultiRelationalGraph([("a", "r", "b")])
        g2 = MultiRelationalGraph([("b", "s", "c")])
        merged = g1.merged(g2)
        assert merged.size() == 2
        assert merged.labels() == {"r", "s"}


class TestStatisticsHooks:
    def test_label_histogram(self, graph):
        assert graph.label_histogram() == {
            "knows": 2, "created": 3, "depends_on": 2}

    def test_density_bounds(self, graph):
        assert 0.0 < graph.density() < 1.0

    def test_density_of_empty_graph(self):
        assert MultiRelationalGraph().density() == 0.0
