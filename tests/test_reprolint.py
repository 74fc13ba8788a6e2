"""reprolint fixture suite: every rule fires, every suppression works.

Each fixture writes a minimal offending module to a temp tree shaped the
way the rule expects (``storage/`` membership, ``compact.py`` naming) and
asserts the violation surfaces with the right rule name and line; the
suppression tests prove the escape hatches (same line, line above,
class/def-block, skip-file) actually silence them; and the final test
holds the gate the CI job runs: ``src/repro`` itself lints clean.
"""

import os
import subprocess
import sys

import pytest

from repro.analysis.lint import RULES, lint_paths, main as lint_main

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def _lint_snippet(tmp_path, source, name="mod.py", subdir=""):
    directory = tmp_path / subdir if subdir else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(source)
    return lint_paths([str(path)])


def _rules(violations):
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# Each rule fires
# ----------------------------------------------------------------------

class TestRulesFire:
    def test_numpy_gate_unguarded_import(self, tmp_path):
        violations = _lint_snippet(tmp_path, "import numpy as _np\n")
        assert _rules(violations) == ["numpy-gate"]
        assert violations[0].line == 1
        assert "try/except" in violations[0].message

    def test_numpy_gate_from_import(self, tmp_path):
        violations = _lint_snippet(tmp_path, "from numpy import array\n")
        assert _rules(violations) == ["numpy-gate"]

    def test_numpy_gate_ungated_function_use(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as _np\n"
            "except ImportError:\n"
            "    _np = None\n"
            "HAVE_NUMPY = _np is not None\n"
            "def bad(values):\n"
            "    return _np.asarray(values)\n"
            "def good(values):\n"
            "    if _np is None:\n"
            "        return list(values)\n"
            "    return _np.asarray(values)\n"
            "def also_good(values):\n"
            "    assert HAVE_NUMPY\n"
            "    return _np.asarray(values)\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["numpy-gate"]
        assert violations[0].line == 7
        assert "'bad'" in violations[0].message

    def test_numpy_gate_enclosing_scope_counts(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as _np\n"
            "except ImportError:\n"
            "    _np = None\n"
            "def outer(values):\n"
            "    if _np is None:\n"
            "        return None\n"
            "    def inner():\n"
            "        return _np.asarray(values)\n"
            "    return inner()\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_kernel_mutation_method_call(self, tmp_path):
        source = (
            "def kernel(graph, dfa):\n"
            "    graph._forward.clear()\n"
        )
        violations = _lint_snippet(tmp_path, source, name="compact.py")
        assert _rules(violations) == ["kernel-mutation"]
        assert "graph" in violations[0].message

    def test_kernel_mutation_assignment(self, tmp_path):
        source = (
            "def kernel(snapshot):\n"
            "    snapshot.forward[0] = ()\n"
        )
        violations = _lint_snippet(tmp_path, source, name="sharding.py")
        assert _rules(violations) == ["kernel-mutation"]

    def test_kernel_mutation_scoped_to_kernel_files(self, tmp_path):
        source = (
            "def kernel(graph):\n"
            "    graph._forward.clear()\n"
        )
        assert _lint_snippet(tmp_path, source, name="other.py") == []

    def test_kernel_mutation_allows_local_state(self, tmp_path):
        source = (
            "def kernel(graph):\n"
            "    seen = set()\n"
            "    seen.add(1)\n"
            "    return seen\n"
        )
        assert _lint_snippet(tmp_path, source, name="compact.py") == []

    def test_pickle_slots_raising_setattr_without_state(self, tmp_path):
        source = (
            "class Frozen:\n"
            "    __slots__ = ('x',)\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError('immutable')\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["pickle-slots"]
        assert "'Frozen'" in violations[0].message

    def test_pickle_slots_inherited_protocol_suffices(self, tmp_path):
        source = (
            "class Base:\n"
            "    __slots__ = ()\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
            "    def __setstate__(self, state):\n"
            "        pass\n"
            "class Frozen(Base):\n"
            "    __slots__ = ('x',)\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError('immutable')\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_pickle_slots_inherited_raising_setattr_detected(self, tmp_path):
        source = (
            "class Base:\n"
            "    __slots__ = ()\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError('immutable')\n"
            "class Child(Base):\n"
            "    __slots__ = ('x',)\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["pickle-slots", "pickle-slots"]
        assert {"'Base'", "'Child'"} == {
            v.message.split(" combines")[0].split("class ")[1]
            for v in violations}

    def test_storage_write_final_path(self, tmp_path):
        source = (
            "def save(directory):\n"
            "    with open(directory + '/manifest.json', 'w') as f:\n"
            "        f.write('{}')\n"
        )
        violations = _lint_snippet(tmp_path, source, subdir="storage")
        assert _rules(violations) == ["storage-write"]
        assert "os.replace" in violations[0].message

    def test_storage_write_tmp_path_allowed(self, tmp_path):
        source = (
            "import os\n"
            "def save(directory):\n"
            "    tmp = directory + '/manifest.json.tmp'\n"
            "    with open(tmp, 'w') as f:\n"
            "        f.write('{}')\n"
            "    os.replace(tmp, directory + '/manifest.json')\n"
        )
        assert _lint_snippet(tmp_path, source, subdir="storage") == []

    def test_storage_write_parameter_path_allowed(self, tmp_path):
        source = (
            "def _write_file(path, payload):\n"
            "    with open(path, 'wb') as f:\n"
            "        f.write(payload)\n"
        )
        assert _lint_snippet(tmp_path, source, subdir="storage") == []

    def test_storage_write_ignores_reads_and_other_dirs(self, tmp_path):
        read_only = (
            "def load(directory):\n"
            "    with open(directory + '/manifest.json') as f:\n"
            "        return f.read()\n"
        )
        assert _lint_snippet(tmp_path, read_only, subdir="storage") == []
        write_elsewhere = (
            "def save(directory):\n"
            "    with open(directory + '/out.json', 'w') as f:\n"
            "        f.write('{}')\n"
        )
        assert _lint_snippet(tmp_path, write_elsewhere) == []

    def test_frame_codec_outside_frames_module(self, tmp_path):
        source = (
            "import struct\n"
            "_FRAME = struct.Struct('<II')\n"
            "def read(data, offset):\n"
            "    return _FRAME.unpack_from(data, offset)\n"
        )
        violations = _lint_snippet(tmp_path, source, name="segments.py",
                                   subdir="storage")
        assert _rules(violations) == ["frame-codec", "frame-codec"]
        assert "frames.py" in violations[0].message
        # The codec module itself is the one sanctioned home.
        assert _lint_snippet(tmp_path, source, name="frames.py",
                             subdir="storage") == []
        other = "import struct\nHEADER = struct.Struct('<QQ')\n"
        assert _lint_snippet(tmp_path, other, name="other.py") == []

    @pytest.mark.parametrize("statement", [
        "import http.client",
        "import http.client as stdlib_http",
        "from http import client",
        "from http.client import HTTPConnection",
        "from http.server import BaseHTTPRequestHandler",
        "import urllib.request",
        "from urllib import request",
        "def fetch(url):\n    from urllib.request import urlopen",
    ])
    def test_http_framing_bans_stdlib_http_in_the_package(self, tmp_path,
                                                          statement):
        violations = _lint_snippet(tmp_path, statement + "\n",
                                   subdir="src/repro/service")
        assert _rules(violations) == ["http-framing"]
        assert "second transport" in violations[0].message
        # Tests and benchmarks keep the stdlib stacks: independent peers.
        assert _lint_snippet(tmp_path, statement + "\n",
                             subdir="tests") == []

    def test_http_framing_allows_what_the_framers_use(self, tmp_path):
        source = (
            "import socket\n"
            "import http\n"
            "from urllib.parse import urlencode, urlsplit\n"
            "from http import HTTPStatus\n"
        )
        assert _lint_snippet(tmp_path, source,
                             subdir="src/repro/service") == []

    def test_bare_except(self, tmp_path):
        source = (
            "def risky():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return None\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["bare-except"]
        assert violations[0].line == 4

    def test_typed_except_allowed(self, tmp_path):
        source = (
            "def risky():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_mutable_default(self, tmp_path):
        source = (
            "def collect(into=[]):\n"
            "    return into\n"
            "def tally(*, counts={}):\n"
            "    return counts\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["mutable-default", "mutable-default"]

    def test_none_default_allowed(self, tmp_path):
        source = (
            "def collect(into=None):\n"
            "    return [] if into is None else into\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    @pytest.mark.parametrize("source, line, complaint", [
        ("x = 1\nreturn x\n", 2, "'return' outside function"),
        ("def f():\n    pass\nyield 1\n", 3, "'yield' outside function"),
        ("for i in ():\n    pass\nbreak\n", 3, "'break' outside loop"),
        ("def f():\n    continue\n", 2, "'continue' not properly in loop"),
    ])
    def test_misplaced_statement(self, tmp_path, source, line, complaint):
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["misplaced-statement"]
        assert violations[0].line == line
        assert complaint in violations[0].message

    def test_well_placed_statements_allowed(self, tmp_path):
        source = (
            "from __future__ import annotations\n"
            "def f(items: list[int]):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            continue\n"
            "        break\n"
            "    yield item\n"
            "    return\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_literal_identity(self, tmp_path, recwarn):
        source = (
            "def f(x):\n"
            "    if x is 'a' or b'' is not x:\n"
            "        return x is -1\n"
            "    return 0 < x is not 2.5\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["literal-identity"] * 4
        assert [v.line for v in violations] == [2, 2, 3, 4]
        assert "use '=='" in violations[0].message
        assert "use '!='" in violations[3].message
        assert not recwarn.list  # the compiler's own warning stays quiet

    def test_identity_against_singletons_allowed(self, tmp_path):
        source = (
            "def f(x, y):\n"
            "    return x is None or x is not True or x is ... or x is y \\\n"
            "        or x == 'a' or x != 1\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_undefined_name_global_reads(self, tmp_path):
        source = (
            "import os\n"
            "def f(x):\n"
            "    return os.sep + x + _GONE\n"
            "class C:\n"
            "    size = _ALSO_GONE\n"
            "    def m(self):\n"
            "        return [v for v in range(3) if v in _IN_COMPREHENSION]\n"
            "_GONE\n"
        )
        violations = _lint_snippet(tmp_path, source)
        # One finding per scope that reads the name, at its own read.
        assert _rules(violations) == ["undefined-name"] * 4
        assert [v.line for v in violations] == [3, 5, 7, 8]
        assert "'_GONE'" in violations[0].message
        assert "'_ALSO_GONE'" in violations[1].message
        assert "'_IN_COMPREHENSION'" in violations[2].message
        assert "'_GONE'" in violations[3].message

    def test_undefined_name_dunder_all_entry(self, tmp_path):
        source = (
            "__all__ = ['kept', 'REMOVED']\n"
            "def kept():\n"
            "    pass\n"
        )
        violations = _lint_snippet(tmp_path, source)
        assert _rules(violations) == ["undefined-name"]
        assert violations[0].line == 1
        assert "'REMOVED'" in violations[0].message
        # A module __getattr__ serves names __all__ lists lazily.
        lazy = source + "def __getattr__(name):\n    return name\n"
        assert _lint_snippet(tmp_path, lazy) == []

    def test_bound_names_allowed(self, tmp_path):
        source = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from collections import OrderedDict\n"
            "try:\n"
            "    import numpy as _np\n"
            "except ImportError:\n"
            "    _np = None\n"
            "def setup():\n"
            "    global _STATE\n"
            "    _STATE = {}\n"
            "def read(ordered: OrderedDict, later: NotYetDefined) -> int:\n"
            "    def inner():\n"
            "        return ordered\n"
            "    return len(_STATE) + len(inner()) + (_np is None)\n"
            "class Base:\n"
            "    pass\n"
            "class Child(Base):\n"
            "    def m(self):\n"
            "        return __class__, __file__, __name__, Child\n"
            "__all__ = ('read', 'Child')\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_star_import_skips_the_module(self, tmp_path):
        source = "from os.path import *\nprint(join('a', 'b'))\n"
        assert _lint_snippet(tmp_path, source) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_same_line_named_rule(self, tmp_path):
        source = "import numpy as _np  # reprolint: ignore[numpy-gate]\n"
        assert _lint_snippet(tmp_path, source) == []

    def test_line_above(self, tmp_path):
        source = (
            "# reprolint: ignore[numpy-gate]\n"
            "import numpy as _np\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_blanket_ignore(self, tmp_path):
        source = "import numpy as _np  # reprolint: ignore\n"
        assert _lint_snippet(tmp_path, source) == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        source = "import numpy as _np  # reprolint: ignore[bare-except]\n"
        assert _rules(_lint_snippet(tmp_path, source)) == ["numpy-gate"]

    def test_class_header_suppression_covers_block(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as _np\n"
            "except ImportError:\n"
            "    _np = None\n"
            "class Dense:  # reprolint: ignore[numpy-gate]\n"
            "    def rows(self):\n"
            "        return _np.zeros(4)\n"
            "    def cols(self):\n"
            "        return _np.zeros(4)\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_skip_file(self, tmp_path):
        source = (
            "# reprolint: skip-file\n"
            "import numpy as _np\n"
            "def bad(into=[]):\n"
            "    pass\n"
        )
        assert _lint_snippet(tmp_path, source) == []

    def test_suppression_in_docstring_is_inert(self, tmp_path):
        source = (
            '"""Docs quoting # reprolint: ignore[numpy-gate] syntax."""\n'
            "import numpy as _np\n"
        )
        assert _rules(_lint_snippet(tmp_path, source)) == ["numpy-gate"]

    def test_unknown_rule_in_suppression_errors(self, tmp_path):
        source = "x = 1  # reprolint: ignore[no-such-rule]\n"
        with pytest.raises(SystemExit):
            _lint_snippet(tmp_path, source)


# ----------------------------------------------------------------------
# CLI surface + the real tree
# ----------------------------------------------------------------------

class TestCliAndGate:
    def test_list_rules_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out

    def test_exit_codes_and_location_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as _np\n")
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "{}:1: numpy-gate:".format(bad) in out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert lint_main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(bad)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(REPO_SRC)))
        assert proc.returncode == 1
        assert "mutable-default" in proc.stdout

    def test_src_repro_is_clean(self):
        assert lint_paths([REPO_SRC]) == []
