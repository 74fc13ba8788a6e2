"""Exception hierarchy tests: catchability and message quality."""

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_base(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.PathAlgebraError)

    def test_graph_errors_are_also_keyerrors_where_sensible(self):
        assert issubclass(errors.VertexNotFoundError, KeyError)
        assert issubclass(errors.EdgeNotFoundError, KeyError)
        assert issubclass(errors.LabelNotFoundError, KeyError)

    def test_algebra_errors_are_value_or_index_errors(self):
        assert issubclass(errors.DisjointConcatenationError, ValueError)
        assert issubclass(errors.IndexOutOfRangeError, IndexError)

    def test_syntax_error_is_a_syntaxerror(self):
        assert issubclass(errors.PathQLSyntaxError, SyntaxError)

    def test_one_except_clause_catches_all(self):
        from repro.graph.graph import MultiRelationalGraph
        try:
            MultiRelationalGraph().remove_vertex("nope")
        except errors.PathAlgebraError:
            caught = True
        assert caught


class TestMessages:
    def test_vertex_not_found_mentions_vertex(self):
        assert "marko" in str(errors.VertexNotFoundError("marko"))

    def test_label_not_found_mentions_label(self):
        assert "knows" in str(errors.LabelNotFoundError("knows"))

    def test_syntax_error_mentions_position_and_snippet(self):
        error = errors.PathQLSyntaxError("bad token", 5, "[a, $, c]")
        message = str(error)
        assert "offset 5" in message
        assert "$" in message

    def test_convergence_error_mentions_algorithm(self):
        error = errors.ConvergenceError("pagerank", 100, 1e-8)
        assert "pagerank" in str(error)
        assert "100" in str(error)
