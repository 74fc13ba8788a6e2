"""reprolint — an AST checker for this repo's hand-rolled invariants.

Generic linters enforce style; this one enforces the *load-bearing*
conventions the kernels, storage layer and parallel executor rely on —
the ones a reviewer has to remember today and a regression would silently
break tomorrow:

``numpy-gate``
    numpy is an optional dependency.  Modules must import it under
    ``try/except ImportError`` (binding ``_np = None`` on failure), and
    every function dereferencing ``_np`` must carry a visible gate — a
    ``HAVE_NUMPY`` test or an ``_np is (not) None`` comparison — in its
    own body or an enclosing function's.  Classes that are numpy-only *by
    contract* (their constructors are unreachable without numpy) may be
    exempted with a suppression comment on the ``class`` line.
``kernel-mutation``
    The traversal kernels in ``graph/compact.py``,
    ``graph/compact_digraph.py`` and ``graph/sharding.py`` receive live
    graph/snapshot objects that other queries share.  Module-level kernel
    functions must never mutate structures reached through their
    ``graph`` / ``snapshot`` / ``view`` parameters — no mutating method
    calls, no subscript or attribute assignment through those roots.
    (The sanctioned snapshot cache goes through ``setattr``, which stays
    visible and greppable.)
``pickle-slots``
    Everything reachable from a :class:`~repro.engine.parallel.ParallelExecutor`
    task payload crosses a process boundary.  A class that combines
    ``__slots__`` with a raising ``__setattr__`` (the repo's immutability
    idiom) breaks pickle's default slot-state restore, so it must define
    or inherit ``__getstate__`` **and** one of ``__setstate__`` /
    ``__getnewargs__`` / ``__reduce__``.
``storage-write``
    Durable files under ``storage/`` are published atomically: writes go
    to a ``*.tmp`` sibling and ``os.replace`` into place.  Opening a
    non-tmp path for writing (unless the path is a caller-supplied
    parameter, where the call site owns the invariant) is flagged.
``frame-codec``
    The log's record framing (``struct.Struct('<II')`` length + CRC32
    header) has exactly one implementation, ``storage/frames.py``.
    Building that struct, or packing/unpacking through a ``_FRAME``
    struct, anywhere else is a second frame reader waiting to drift —
    call :func:`~repro.storage.frames.walk_frames` /
    :func:`~repro.storage.frames.scan_frames` instead.
``http-framing``
    The package speaks HTTP/1.1 through exactly two hand-rolled framers
    that are tested against each other and against the stdlib:
    ``service/http.py`` (server) and ``service/client.py`` (SDK).
    Importing ``http.client``, ``http.server`` or ``urllib.request``
    under ``src/repro/`` brings a second transport back; tests may use
    them — they are the independent peers.
``bare-except``
    ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``; name the
    exception type (at minimum ``Exception``).
``mutable-default``
    Mutable literals as parameter defaults alias across calls.
``misplaced-statement``
    What the byte-compiler rejects although the file parses: ``return`` /
    ``yield`` outside a function, ``break`` / ``continue`` outside a loop
    (ruff's ``F7``; a file that does not parse at all is a fail-stop
    before any rule runs).
``literal-identity``
    ``is`` / ``is not`` against a str, bytes or number literal tests
    object identity, which interning makes true or false by accident
    (ruff's ``F632``); compare with ``==``.
``undefined-name``
    A name read as a global must have a module-level binding (assignment,
    ``def`` / ``class``, import, or a function's ``global`` declaration
    that assigns it) or be a builtin, and every string in a literal
    ``__all__`` must name a module-level binding, unless the module
    defines ``__getattr__`` (ruff's ``F821`` / ``F822``).  Scopes come
    from :mod:`symtable`, the compiler's own resolution; a module with a
    star import is skipped.
``unused-import``
    A module-level import in a module other than an ``__init__.py`` binds
    a name that nothing in the module reads — not code, not a literal
    ``__all__`` entry, not a string annotation (ruff's ``F401``).
    ``__future__`` and star imports are exempt.  A name the module only
    re-exports belongs in its ``__all__``.

Suppression syntax
------------------
``# reprolint: ignore[rule, rule2]`` on (or directly above) the offending
line suppresses the named rules there; ``# reprolint: ignore`` suppresses
every rule for that line.  On a ``class``/``def`` header line the
suppression covers the whole block.  ``# reprolint: skip-file`` anywhere
in a file skips it entirely.

Usage::

    python -m repro.analysis.lint src/repro            # lint the tree
    python -m repro.analysis.lint --list-rules         # rule catalog
    python -m repro.analysis.lint --json src/repro     # structured records

Exit status is 0 when clean, 1 when violations were found, 2 on usage or
parse errors.  Every violation prints as ``path:line: rule: message``
(or, under ``--json``, as one JSON object with a flat record per
finding).  The suppression machinery here is tool-generic — the lock
discipline checker reprorace (:mod:`repro.analysis.concurrency`) reuses
it under its own ``# reprorace:`` namespace.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import io
import json
import os
import re
import symtable
import sys
import tokenize
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

__all__ = ["Violation", "lint_paths", "emit_report", "main", "RULES"]

#: rule name -> one-line description (the ``--list-rules`` catalog).
RULES: Dict[str, str] = {
    "numpy-gate": "numpy must be imported under try/except and every "
                  "_np-using function must test HAVE_NUMPY / _np is None",
    "kernel-mutation": "compact/sharding kernel functions must not mutate "
                       "graph- or snapshot-owned structures",
    "pickle-slots": "__slots__ classes with a raising __setattr__ must "
                    "define or inherit the pickle state protocol",
    "storage-write": "storage/ writes must target a *.tmp path and publish "
                     "via os.replace",
    "frame-codec": "the '<II' record frame is packed and unpacked only in "
                   "storage/frames.py",
    "http-framing": "no http.client / http.server / urllib.request under "
                    "src/repro/: service/http.py and service/client.py "
                    "frame HTTP themselves",
    "bare-except": "bare except: clauses are forbidden",
    "mutable-default": "mutable literals must not be parameter defaults",
    "misplaced-statement": "return/yield outside a function and "
                           "break/continue outside a loop do not compile",
    "literal-identity": "is / is not against a str, bytes or number "
                        "literal; use == / !=",
    "undefined-name": "a global read or __all__ entry with no module-level "
                      "binding, import or builtin",
    "unused-import": "a module-level import outside __init__.py that the "
                     "module never reads and __all__ does not list",
}

#: Sentinel for "every rule" in suppression tables.
_ALL = frozenset(RULES)


def _suppress_re(tool: str) -> "re.Pattern[str]":
    """The suppression-comment pattern for one tool's namespace.

    The machinery below is shared with reprorace
    (:mod:`repro.analysis.concurrency`); each tool only honours its own
    ``# <tool>: ignore[...]`` comments, so a reprorace suppression never
    silences a reprolint finding on the same line (and vice versa).
    """
    return re.compile(
        r"#\s*{}:\s*(skip-file|ignore(?:\[([^\]]+)\])?)".format(
            re.escape(tool)))

#: Method names whose call mutates the receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "sort", "reverse",
})

#: Parameter names through which kernel functions reach shared state.
_KERNEL_ROOTS = frozenset({"graph", "snapshot", "view"})

#: Files the kernel-mutation rule applies to.
_KERNEL_FILES = frozenset({"compact.py", "compact_digraph.py", "sharding.py"})


@dataclass(frozen=True)
class Violation:
    """One finding: a file, a line, a rule and what it saw."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return "{}:{}: {}: {}".format(self.path, self.line, self.rule,
                                      self.message)

    def to_record(self) -> Dict[str, object]:
        """The ``--json`` shape: one flat record per finding."""
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


@dataclass
class _Module:
    """One parsed source file plus its suppression tables."""

    path: str
    source: str
    tree: ast.Module
    skip: bool = False
    #: line -> suppressed rule names (``_ALL`` for a blanket ignore).
    line_rules: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: (first line, last line, rules) for class/def-header suppressions.
    block_rules: List[Tuple[int, int, FrozenSet[str]]] = \
        field(default_factory=list)

    def suppressed(self, line: int, rule: str) -> bool:
        for candidate in (line, line - 1):
            rules = self.line_rules.get(candidate)
            if rules is not None and rule in rules:
                return True
        for lo, hi, rules in self.block_rules:
            if lo <= line <= hi and rule in rules:
                return True
        return False

    def report(self, out: List[Violation], node_or_line: Union[ast.AST, int],
               rule: str, message: str) -> None:
        line = node_or_line if isinstance(node_or_line, int) \
            else node_or_line.lineno
        if not self.suppressed(line, rule):
            out.append(Violation(self.path, line, rule, message))


def _iter_comments(source: str) -> Iterable[Tuple[int, str]]:
    """Yield ``(line, text)`` for real comment tokens only.

    Scanning raw lines would also match suppression examples quoted in
    docstrings; tokenize keeps the match honest.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except tokenize.TokenError:  # truncated file: ast.parse already vetted
        return


def _parse_suppressions(module: _Module, tool: str = "reprolint",
                        known_rules: Optional[FrozenSet[str]] = None) -> None:
    if known_rules is None:
        known_rules = _ALL
    pattern = _suppress_re(tool)
    for number, text in _iter_comments(module.source):
        match = pattern.search(text)
        if match is None:
            continue
        if match.group(1) == "skip-file":
            module.skip = True
            return
        names = match.group(2)
        if names is None:
            rules: FrozenSet[str] = known_rules
        else:
            rules = frozenset(name.strip() for name in names.split(","))
            unknown = rules - known_rules
            if unknown:
                raise SystemExit(
                    "{}:{}: unknown {} rule(s) in suppression: {}"
                    .format(module.path, number, tool,
                            ", ".join(sorted(unknown))))
        module.line_rules[number] = module.line_rules.get(
            number, frozenset()) | rules
    # A suppression on a class/def header covers the whole block.
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            rules = module.line_rules.get(node.lineno)
            if rules:
                module.block_rules.append(
                    (node.lineno, node.end_lineno or node.lineno, rules))


def _collect_modules(paths: Iterable[str], tool: str = "reprolint",
                     known_rules: Optional[FrozenSet[str]] = None
                     ) -> List[_Module]:
    files: List[str] = []
    for target in paths:
        if os.path.isdir(target):
            for directory, _, names in sorted(os.walk(target)):
                files.extend(os.path.join(directory, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        else:
            files.append(target)
    modules = []
    for path in files:
        with open(path, "r", encoding="utf-8") as stream:
            source = stream.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise SystemExit("{}: cannot parse: {}".format(path, error))
        module = _Module(path=path, source=source, tree=tree)
        _parse_suppressions(module, tool, known_rules)
        modules.append(module)
    return modules


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def _walk_function_shallow(
        function: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs/classes."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _has_numpy_gate(
        function: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    """True when the function body visibly tests for numpy availability."""
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id == "HAVE_NUMPY":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "HAVE_NUMPY":
            return True
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            has_np = any(isinstance(op, ast.Name) and op.id == "_np"
                         for op in operands)
            has_none = any(isinstance(op, ast.Constant) and op.value is None
                           for op in operands)
            if has_np and has_none:
                return True
    return False


def _function_parents(tree: ast.Module) -> Dict[ast.AST, List[ast.AST]]:
    """function/method node -> chain of enclosing function nodes."""
    parents: Dict[ast.AST, List[ast.AST]] = {}

    def visit(node: ast.AST, chain: List[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parents[child] = list(chain)
                visit(child, chain + [child])
            else:
                visit(child, chain)

    visit(tree, [])
    return parents


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

def _check_numpy_gate(module: _Module, out: List[Violation]) -> None:
    guarded_lines: Set[int] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Try):
            for child in ast.walk(node):
                if isinstance(child, ast.Import):
                    guarded_lines.add(child.lineno)
    uses_numpy = False
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    uses_numpy = True
                    if node.lineno not in guarded_lines:
                        module.report(
                            out, node, "numpy-gate",
                            "import numpy must sit under try/except "
                            "ImportError with a _np = None fallback")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "numpy":
                module.report(
                    out, node, "numpy-gate",
                    "from numpy import ... cannot be gated; import the "
                    "module under try/except and alias it as _np")
    if not uses_numpy:
        return
    parents = _function_parents(module.tree)
    for function, chain in parents.items():
        np_use = None
        for node in _walk_function_shallow(function):
            if isinstance(node, ast.Name) and node.id == "_np" \
                    and isinstance(node.ctx, ast.Load):
                np_use = node
                break
        if np_use is None:
            continue
        if any(_has_numpy_gate(f) for f in chain + [function]):
            continue
        module.report(
            out, np_use.lineno, "numpy-gate",
            "function {!r} dereferences _np without a HAVE_NUMPY / "
            "_np-is-None gate in scope (numpy is optional)".format(
                function.name))


def _check_kernel_mutation(module: _Module, out: List[Violation]) -> None:
    if os.path.basename(module.path) not in _KERNEL_FILES:
        return
    for top in module.tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                root = _root_name(node.func.value)
                if root in _KERNEL_ROOTS:
                    module.report(
                        out, node, "kernel-mutation",
                        "kernel {!r} calls {}.{}(...) — kernels must "
                        "never mutate {}-owned structures".format(
                            top.name, root, node.func.attr, root))
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in _KERNEL_ROOTS:
                        module.report(
                            out, node, "kernel-mutation",
                            "kernel {!r} assigns through {!r} — kernels "
                            "must never mutate {}-owned structures".format(
                                top.name, root, root))


@dataclass
class _ClassInfo:
    name: str
    bases: Tuple[str, ...]
    has_slots: bool
    raising_setattr: bool
    defines: FrozenSet[str]
    module: _Module
    line: int


def _index_classes(modules: List[_Module]) -> Dict[str, _ClassInfo]:
    index: Dict[str, _ClassInfo] = {}
    for module in modules:
        if module.skip:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            defines = set()
            has_slots = False
            raising_setattr = False
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name) \
                                and target.id == "__slots__":
                            has_slots = True
                elif isinstance(item, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    defines.add(item.name)
                    if item.name == "__setattr__" and any(
                            isinstance(x, ast.Raise)
                            for x in ast.walk(item)):
                        raising_setattr = True
            bases = tuple(base.id for base in node.bases
                          if isinstance(base, ast.Name))
            index[node.name] = _ClassInfo(
                name=node.name, bases=bases, has_slots=has_slots,
                raising_setattr=raising_setattr,
                defines=frozenset(defines), module=module,
                line=node.lineno)
    return index


def _inherits(index: Dict[str, _ClassInfo], info: _ClassInfo,
              member: str, seen: Optional[Set[str]] = None) -> bool:
    if member in info.defines:
        return True
    seen = seen or {info.name}
    for base in info.bases:
        parent = index.get(base)
        if parent is not None and parent.name not in seen:
            seen.add(parent.name)
            if _inherits(index, parent, member, seen):
                return True
    return False


def _effective_raising_setattr(index: Dict[str, _ClassInfo],
                               info: _ClassInfo) -> bool:
    if info.raising_setattr:
        return True
    for base in info.bases:
        parent = index.get(base)
        if parent is not None and parent is not info \
                and _effective_raising_setattr(index, parent):
            return True
    return False


def _check_pickle_slots(modules: List[_Module],
                        out: List[Violation]) -> None:
    index = _index_classes(modules)
    for info in index.values():
        if not info.has_slots:
            continue
        if not _effective_raising_setattr(index, info):
            continue
        has_getstate = _inherits(index, info, "__getstate__")
        has_restore = any(_inherits(index, info, member)
                          for member in ("__setstate__", "__getnewargs__",
                                         "__reduce__", "__reduce_ex__"))
        if has_getstate and has_restore:
            continue
        info.module.report(
            out, info.line, "pickle-slots",
            "class {!r} combines __slots__ with a raising __setattr__ but "
            "defines no pickle protocol — default slot-state restore "
            "calls the raising __setattr__, so instances cannot cross "
            "ParallelExecutor process boundaries; add __getstate__ + "
            "__setstate__ (restore via object.__setattr__)".format(
                info.name))


def _check_storage_write(module: _Module, out: List[Violation]) -> None:
    if "storage" not in module.path.replace(os.sep, "/").split("/"):
        return
    parents = _function_parents(module.tree)
    param_names: Dict[ast.AST, Set[str]] = {}
    for function in parents:
        names = {arg.arg for arg in function.args.args
                 + function.args.posonlyargs + function.args.kwonlyargs}
        param_names[function] = names

    def enclosing_params(node_line: int) -> Set[str]:
        best: Set[str] = set()
        for function in parents:
            if function.lineno <= node_line \
                    <= (function.end_lineno or function.lineno):
                best |= param_names[function]
        return best

    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open" and node.args):
            continue
        mode = None
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            mode = node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" \
                    and isinstance(keyword.value, ast.Constant):
                mode = keyword.value.value
        if mode is None or not any(flag in mode for flag in "wx"):
            continue
        path_arg = node.args[0]
        text = ast.get_source_segment(module.source, path_arg) or ""
        if "tmp" in text.lower():
            continue
        if isinstance(path_arg, ast.Name) \
                and path_arg.id in enclosing_params(node.lineno):
            continue  # caller-supplied path: the call site owns tmp+rename
        module.report(
            out, node, "storage-write",
            "open({}, {!r}) writes a final path directly — durable "
            "storage writes must target a '*.tmp' sibling and publish "
            "with os.replace".format(text or "...", mode))


def _check_frame_codec(module: _Module, out: List[Violation]) -> None:
    parts = module.path.replace(os.sep, "/").split("/")
    if parts[-2:] == ["storage", "frames.py"]:
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and node.args[0].value == '<II' \
                and (ast.get_source_segment(module.source, node.func) or ""
                     ).split(".")[-1] == "Struct":
            what = "builds the record frame struct"
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "_FRAME" \
                and node.attr.lstrip("un").startswith("pack"):
            what = "uses _FRAME.{}".format(node.attr)
        else:
            continue
        module.report(
            out, node, "frame-codec",
            "{} outside storage/frames.py — the record format has one "
            "codec; use walk_frames/scan_frames/encode_record".format(what))


#: Stdlib HTTP stacks the package must not import (see ``http-framing``).
_STDLIB_HTTP = ("http.client", "http.server", "urllib.request")


def _check_http_framing(module: _Module, out: List[Violation]) -> None:
    parts = module.path.replace(os.sep, "/").split("/")
    if not any(pair == ("src", "repro") for pair in zip(parts, parts[1:])):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            names = [node.module] + ["{}.{}".format(node.module, alias.name)
                                     for alias in node.names]
        else:
            continue
        for name in names:
            if any(name == banned or name.startswith(banned + ".")
                   for banned in _STDLIB_HTTP):
                module.report(
                    out, node, "http-framing",
                    "imports {} — the package frames HTTP/1.1 itself "
                    "(service/http.py, service/client.py); a stdlib HTTP "
                    "stack here is a second transport".format(name))
                break


def _check_bare_except(module: _Module, out: List[Violation]) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            module.report(
                out, node, "bare-except",
                "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                "catch Exception (or something narrower) instead")


def _check_mutable_default(module: _Module, out: List[Violation]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp,
                                    ast.SetComp)):
                module.report(
                    out, default, "mutable-default",
                    "function {!r} uses a mutable literal as a parameter "
                    "default — it aliases across calls; default to None "
                    "and build inside".format(node.name))


def _check_misplaced_statement(module: _Module, out: List[Violation]) -> None:
    try:
        with warnings.catch_warnings():
            # The compiler's own SyntaxWarnings (``is`` with a literal)
            # are literal-identity's findings, reported there.
            warnings.simplefilter("ignore")
            # dont_inherit: this module's __future__ flags are not the
            # linted file's.
            compile(module.tree, module.path, "exec", dont_inherit=True)
    except SyntaxError as error:
        module.report(out, error.lineno or 1, "misplaced-statement",
                      "does not compile: {}".format(error.msg))


def _is_value_literal(node: ast.AST) -> bool:
    """A str / bytes / number literal, signed or not (never None/bool)."""
    if isinstance(node, ast.UnaryOp) \
            and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, (str, bytes, int, float, complex)) \
        and not isinstance(node.value, bool)


def _check_literal_identity(module: _Module, out: List[Violation]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot)) \
                    and (_is_value_literal(left) or _is_value_literal(right)):
                spelled, instead = ("is not", "!=") \
                    if isinstance(op, ast.IsNot) else ("is", "==")
                module.report(
                    out, node, "literal-identity",
                    "'{}' against a literal compares object identity; "
                    "use '{}'".format(spelled, instead))


#: Globals every module has without binding them (beyond ``builtins``).
_MODULE_GLOBALS = frozenset({"__file__", "__builtins__", "__path__",
                             "__cached__", "__annotations__"})

_Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
               ast.ClassDef]


def _symbol_tables(table: symtable.SymbolTable
                   ) -> Iterable[symtable.SymbolTable]:
    yield table
    for child in table.get_children():
        yield from _symbol_tables(child)


def _first_own_load(scope: _Scope, name: str) -> Optional[int]:
    """The first line where ``scope`` reads ``name``.

    The bodies of functions and classes nested in it are theirs; their
    decorators, defaults, annotations and bases are the scope's own reads.
    """
    stack: List[ast.AST] = list(scope.body)
    lines = []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
        children = ast.iter_child_nodes(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            stack.extend(c for c in children if c not in node.body)
        else:
            stack.extend(children)
    return min(lines) if lines else None


def _dunder_all(tree: ast.Module) -> Iterable[ast.Constant]:
    """The strings of a module-level ``__all__ = [...]`` (or ``+=``)."""
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        target = node.targets[0] if isinstance(node, ast.Assign) \
            else node.target
        if isinstance(target, ast.Name) and target.id == "__all__" \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            yield from (element for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))


def _check_undefined_name(module: _Module, out: List[Violation]) -> None:
    if any(isinstance(node, ast.ImportFrom)
           and any(alias.name == "*" for alias in node.names)
           for node in ast.walk(module.tree)):
        return
    try:
        top = symtable.symtable(module.source, module.path, "exec")
    except SyntaxError:
        return  # misplaced-statement reports what does not compile
    tables = list(_symbol_tables(top))
    bound = {symbol.get_name() for symbol in top.get_symbols()
             if symbol.is_assigned() or symbol.is_imported()}
    for table in tables[1:]:
        bound.update(symbol.get_name() for symbol in table.get_symbols()
                     if symbol.is_declared_global() and symbol.is_assigned())
    # A module-level __getattr__ (PEP 562) serves attributes it never
    # binds, so __all__ may name them; global reads get no such help.
    if "__getattr__" not in bound:
        for element in _dunder_all(module.tree):
            if element.value not in bound:
                module.report(out, element, "undefined-name",
                              "__all__ names {!r}, which the module never "
                              "binds".format(element.value))
    known = bound | _MODULE_GLOBALS | set(dir(builtins))
    scopes: Dict[Tuple[int, str], _Scope] = {
        (node.lineno, node.name): node for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))}
    for table in tables:
        scope = module.tree if table is top else scopes.get(
            (table.get_lineno(), table.get_name()))
        for symbol in table.get_symbols():
            name = symbol.get_name()
            if name in known or not symbol.is_referenced() \
                    or not (table is top or symbol.is_global()):
                continue
            # Lambdas and comprehensions report at their own line.
            line = (None if scope is None else _first_own_load(scope, name)) \
                or table.get_lineno() or 1
            module.report(out, line, "undefined-name",
                          "name {!r} is read but never bound at module "
                          "level, imported or a builtin".format(name))


def _module_level_imports(tree: ast.Module
                          ) -> Iterable[Tuple[str, ast.AST]]:
    """``(bound name, import node)`` for imports outside any def/class."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _string_annotation_names(tree: ast.Module) -> Set[str]:
    """Names read inside string annotations (``def f(x: "Graph")``)."""
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.extend(
                arg.annotation for arg in
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
                if arg is not None and arg.annotation is not None)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: Set[str] = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(name.id for name in ast.walk(parsed)
                         if isinstance(name, ast.Name))
    return names


def _check_unused_import(module: _Module, out: List[Violation]) -> None:
    if os.path.basename(module.path) == "__init__.py":
        return
    read = {node.id for node in ast.walk(module.tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    read.update(element.value for element in _dunder_all(module.tree))
    read |= _string_annotation_names(module.tree)
    for name, node in _module_level_imports(module.tree):
        if name not in read:
            module.report(out, node, "unused-import",
                          "{!r} is imported but never read (list it in "
                          "__all__ to re-export it)".format(name))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def lint_paths(paths: Iterable[str]) -> List[Violation]:
    """Lint files/directories; returns violations sorted by location."""
    modules = [m for m in _collect_modules(paths) if not m.skip]
    out: List[Violation] = []
    for module in modules:
        _check_numpy_gate(module, out)
        _check_kernel_mutation(module, out)
        _check_storage_write(module, out)
        _check_frame_codec(module, out)
        _check_http_framing(module, out)
        _check_bare_except(module, out)
        _check_mutable_default(module, out)
        _check_misplaced_statement(module, out)
        _check_literal_identity(module, out)
        _check_undefined_name(module, out)
        _check_unused_import(module, out)
    _check_pickle_slots(modules, out)
    return sorted(out, key=lambda v: (v.path, v.line, v.rule))


def emit_report(tool: str, violations: List[Violation],
                as_json: bool) -> int:
    """Print findings (text or ``--json``) and return the exit status.

    Shared with reprorace so both CLIs report identically: the JSON shape
    is one object with the tool name, a count, and one flat record per
    violation — stable keys for CI annotation tooling to consume.
    """
    if as_json:
        print(json.dumps({
            "tool": tool,
            "count": len(violations),
            "violations": [v.to_record() for v in violations],
        }, indent=2, sort_keys=True))
        return 1 if violations else 0
    for violation in violations:
        print(violation.format())
    if violations:
        print("{}: {} violation(s)".format(tool, len(violations)))
        return 1
    print("{}: clean".format(tool))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="reprolint: repo-specific invariant checker")
    parser.add_argument("targets", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit violations as one structured JSON record")
    args = parser.parse_args(argv)
    if args.list_rules:
        width = max(len(name) for name in RULES)
        for name in sorted(RULES):
            print("{:<{w}}  {}".format(name, RULES[name], w=width))
        return 0
    if not args.targets:
        parser.error("no targets given (try: src/repro)")
    return emit_report("reprolint", lint_paths(args.targets), args.as_json)


if __name__ == "__main__":
    sys.exit(main())
