"""Tests for the section III traversal idioms."""

import pytest

from repro.core.path import Path
from repro.core.traversal import (
    Step,
    between_traversal,
    complete_traversal,
    destination_traversal,
    labeled_traversal,
    resolve_step,
    source_traversal,
    traverse,
)


class TestStep:
    def test_default_step_admits_everything(self, diamond):
        assert len(resolve_step(diamond, Step())) == diamond.size()

    def test_tail_restriction(self, diamond):
        step = Step.make(tails={"a"})
        assert len(resolve_step(diamond, step)) == 3

    def test_label_restriction(self, diamond):
        step = Step.make(labels={"beta"})
        assert len(resolve_step(diamond, step)) == 3

    def test_head_restriction(self, diamond):
        step = Step.make(heads={"d"})
        assert len(resolve_step(diamond, step)) == 3

    def test_combined_restrictions(self, diamond):
        step = Step.make(tails={"a"}, labels={"beta"})
        resolved = resolve_step(diamond, step)
        assert len(resolved) == 1
        assert Path.single("a", "beta", "d") in resolved

    def test_exclusions_are_the_complement(self, diamond):
        """The paper's Vs-bar convention."""
        step = Step.make(exclude_tails={"a"})
        resolved = resolve_step(diamond, step)
        assert len(resolved) == 2
        assert all(p.tail != "a" for p in resolved)

    def test_exclude_labels(self, diamond):
        step = Step.make(exclude_labels={"alpha"})
        assert len(resolve_step(diamond, step)) == 3

    def test_missing_vertices_resolve_empty(self, diamond):
        assert len(resolve_step(diamond, Step.make(tails={"zzz"}))) == 0

    def test_admits(self, diamond):
        from repro.core.edge import Edge
        step = Step.make(labels={"alpha"}, exclude_heads={"c"})
        assert step.admits(Edge("a", "alpha", "b"))
        assert not step.admits(Edge("a", "alpha", "c"))
        assert not step.admits(Edge("a", "beta", "d"))


class TestCompleteTraversal:
    def test_length_one_is_e(self, diamond):
        assert complete_traversal(diamond, 1) == diamond.all_paths()

    def test_length_two_counts_joint_pairs(self, diamond):
        paths = complete_traversal(diamond, 2)
        # a->b->d and a->c->d are the only joint 2-walks.
        assert len(paths) == 2
        assert all(p.is_joint for p in paths)

    def test_length_three_empty_on_dag_of_depth_two(self, diamond):
        assert len(complete_traversal(diamond, 3)) == 0

    def test_cycle_walk_counts(self, triangle_cycle):
        for n in range(1, 5):
            assert len(complete_traversal(triangle_cycle, n)) == 3

    def test_zero_length_rejected(self, diamond):
        with pytest.raises(ValueError):
            complete_traversal(diamond, 0)


class TestSourceTraversal:
    def test_restricts_tails(self, diamond):
        paths = source_traversal(diamond, {"a"}, 2)
        assert len(paths) == 2
        assert paths.tails() == {"a"}

    def test_source_equal_v_is_complete(self, diamond):
        """The paper: when Vs = V a complete traversal is evaluated."""
        assert source_traversal(diamond, diamond.vertices(), 2) == \
            complete_traversal(diamond, 2)

    def test_complement(self, diamond):
        paths = source_traversal(diamond, {"a"}, 1, complement=True)
        assert all(p.tail != "a" for p in paths)

    def test_nonexistent_source_is_empty(self, diamond):
        assert len(source_traversal(diamond, {"zzz"}, 2)) == 0


class TestDestinationTraversal:
    def test_restricts_heads(self, diamond):
        paths = destination_traversal(diamond, {"d"}, 2)
        assert len(paths) == 2
        assert paths.heads() == {"d"}

    def test_destination_equal_v_is_complete(self, diamond):
        assert destination_traversal(diamond, diamond.vertices(), 2) == \
            complete_traversal(diamond, 2)

    def test_complement(self, diamond):
        paths = destination_traversal(diamond, {"d"}, 1, complement=True)
        assert all(p.head != "d" for p in paths)


class TestBetweenTraversal:
    def test_combined_restriction(self, diamond):
        paths = between_traversal(diamond, {"a"}, {"d"}, 2)
        assert len(paths) == 2
        assert paths.tails() == {"a"}
        assert paths.heads() == {"d"}

    def test_length_one(self, diamond):
        paths = between_traversal(diamond, {"a"}, {"d"}, 1)
        assert paths == {Path.single("a", "beta", "d")}

    def test_impossible_combination_is_empty(self, diamond):
        assert len(between_traversal(diamond, {"d"}, {"a"}, 2)) == 0


class TestLabeledTraversal:
    def test_label_sequence(self, diamond):
        paths = labeled_traversal(diamond, [{"alpha"}, {"beta"}])
        assert len(paths) == 2
        assert all(p.label_path == ("alpha", "beta") for p in paths)

    def test_full_label_sets_give_complete(self, diamond):
        """The paper: Omega_e = Omega_f = Omega enacts a complete traversal."""
        omega = diamond.labels()
        assert labeled_traversal(diamond, [omega, omega]) == \
            complete_traversal(diamond, 2)

    def test_none_means_unconstrained(self, diamond):
        paths = labeled_traversal(diamond, [None, {"beta"}])
        assert len(paths) == 2

    def test_wrong_order_is_empty(self, diamond):
        assert len(labeled_traversal(diamond, [{"beta"}, {"alpha"}])) == 0

    def test_multi_label_step(self, diamond):
        paths = labeled_traversal(diamond, [{"alpha", "beta"}])
        assert len(paths) == diamond.size()


class TestGeneralTraverse:
    def test_empty_step_list_is_epsilon(self, diamond):
        from repro.core.pathset import EPSILON_SET
        assert traverse(diamond, []) == EPSILON_SET

    def test_mid_traversal_waypoint(self, diamond):
        """Force the intermediate vertex: section III's 'through a particular
        set of vertices' composition."""
        steps = [Step.make(tails={"a"}, heads={"b"}), Step()]
        paths = traverse(diamond, steps)
        assert len(paths) == 1
        assert next(iter(paths)).vertices() == ("a", "b", "d")

    def test_early_exit_on_empty_intermediate(self, diamond):
        steps = [Step.make(labels={"nothing"}), Step(), Step()]
        assert len(traverse(diamond, steps)) == 0

    def test_results_always_joint(self, random_graph):
        for p in traverse(random_graph, [Step(), Step(), Step()]):
            assert p.is_joint

    def test_matches_manual_joins(self, random_graph):
        e = random_graph.all_paths()
        assert traverse(random_graph, [Step(), Step()]) == e @ e
