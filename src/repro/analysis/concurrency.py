"""reprorace — static lock-discipline and resource-lifecycle analysis.

PR 6's reprolint proves repo *conventions* on the AST; this module
proves the repo's *concurrency story* the same way.  It is the static
half of a two-part design — the dynamic half is the runtime lock-order
witness in :mod:`repro.concurrency`, which watches real schedules under
the chaos suite.  Four rules:

``unguarded-write``
    Per class, reprorace infers the **guarded set**: attributes written
    under a held ``with self._lock`` scope (any lock attribute assigned
    from ``threading.Lock()`` / ``threading.RLock()`` /
    :func:`~repro.concurrency.ordered_lock` /
    :func:`~repro.concurrency.ordered_rlock` /
    :class:`~repro.concurrency.OrderedLock`), outside ``__init__`` /
    ``__new__``.  Any write to a guarded attribute (assignment,
    augmented assignment, subscript store, ``del``, or an in-place
    mutator call such as ``.append``) from a method scope holding no
    lock is flagged.  Construction-time writes are exempt: an object
    under construction is thread-confined.
``nested-acquire``
    Acquiring a non-reentrant lock whose scope is already held — either
    a directly nested ``with``, or a one-level ``self.method()`` call
    whose callee acquires the held lock at its top level.  Re-entrant
    locks (``RLock`` / ``ordered_rlock``) are exempt by design.
``lock-order-cycle``
    Every nested acquisition (direct, via one-level self-call, or via a
    one-level call through an attribute whose class is known from
    ``self.x = ClassName(...)`` or an annotated ``__init__`` parameter)
    contributes an edge ``held-lock -> acquired-lock`` to one static
    order graph across all analyzed modules.  A cycle is a potential
    deadlock and is reported at the edge that closes it.  The static
    graph is knowingly incomplete (it cannot see through registries or
    callbacks) — the armed runtime witness completes the picture.
``must-close``
    In ``storage/`` and ``service/`` modules, every tracked resource
    constructor — ``open()``, ``np.memmap``, ``mmap.mmap``, ``*.Pool(...)``,
    ``ThreadPoolExecutor``, ``socket.socket`` /
    ``socket.create_connection`` — must be context-managed, closed on some
    path in its function, stored on ``self`` of a class that defines a
    close-like method, returned, or handed to another owner.  A
    constructor whose result can only leak is flagged.  (The runtime
    :class:`~repro.concurrency.LeakRegistry` is the dynamic counterpart,
    asserted empty at the end of the service and chaos suites.)

Annotations
-----------
``# guarded-by: <lockattr>`` on a ``def`` signature line (the ``def``
itself, or any continuation line of a wrapped signature) asserts the *caller*
holds ``self.<lockattr>`` for the whole method — the repo's private
``_do_x_locked``-style helpers carry it, and reprorace then both treats
their writes as guarded and flags any re-acquisition of that lock
inside them.  On an attribute-assignment line (conventionally in
``__init__``) it declares that attribute guarded by the named lock even
if no locked write is visible to inference.

``# reprorace: ignore[rule]`` / ``# reprorace: skip-file`` reuse
reprolint's suppression machinery under this tool's own namespace —
a reprorace suppression never silences a reprolint finding.

Usage::

    python -m repro.analysis.concurrency src/repro
    python -m repro.analysis.concurrency --json src tests
    python -m repro.analysis.concurrency --list-rules

Exit status matches reprolint: 0 clean, 1 violations, 2 usage/parse
errors; findings print as ``path:line: rule: message``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.lint import (
    _MUTATORS,
    Violation,
    _Module,
    _collect_modules,
    _iter_comments,
    emit_report,
)

__all__ = ["RACE_RULES", "analyze_paths", "main"]

#: rule name -> one-line description (the ``--list-rules`` catalog).
RACE_RULES: Dict[str, str] = {
    "unguarded-write": "attributes written under a lock are guarded; "
                       "writing them with no lock held is a race",
    "nested-acquire": "re-acquiring a held non-reentrant lock (directly "
                      "or via a one-level self-call) self-deadlocks",
    "lock-order-cycle": "the static cross-module lock-order graph must "
                        "stay acyclic (cycles are potential deadlocks)",
    "must-close": "storage/service resource constructors must be closed, "
                  "context-managed, or ownership-transferred",
}

_RACE_ALL = frozenset(RACE_RULES)

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Constructors recognised as lock factories: call shape -> reentrant?
_LOCK_CTORS: Dict[str, bool] = {
    "Lock": False, "RLock": True,
    "ordered_lock": False, "ordered_rlock": True,
}

#: Method names that close/tear down a resource.
_CLOSERS = frozenset({"close", "shutdown", "terminate", "aclose", "stop"})

#: Roots `X.memmap(...)` is recognised under (numpy-gate aliasing).
_NUMPY_ROOTS = frozenset({"np", "_np", "numpy"})

#: Roots `X.mmap(...)` is recognised under (the stdlib module, or the
#: alias a function with an ``mmap`` parameter imports it as).
_MMAP_ROOTS = frozenset({"mmap", "_mmap"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class _Lock:
    """One lock attribute of one class."""

    attr: str       #: attribute name on ``self``
    node: str       #: order-graph node (the ordered_lock name, or Class.attr)
    reentrant: bool


@dataclass
class _Class:
    """Everything reprorace knows about one class."""

    name: str
    module: _Module
    tree: ast.ClassDef
    locks: Dict[str, _Lock] = field(default_factory=dict)
    methods: Dict[str, _FunctionNode] = field(default_factory=dict)
    #: method name -> lock attr asserted held by ``# guarded-by:`` def lines.
    method_guards: Dict[str, str] = field(default_factory=dict)
    #: attribute -> guarding lock attr (inferred + declared).
    guarded: Dict[str, str] = field(default_factory=dict)
    #: method name -> lock attrs it acquires with nothing held (its
    #: "acquisition signature" as seen by a one-level caller).
    outermost: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``self.<attr>`` -> class name, from ctor calls and annotated params.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class _Edge:
    """One static order edge plus where it was observed."""

    source: str
    target: str
    path: str
    line: int


# ----------------------------------------------------------------------
# Class discovery
# ----------------------------------------------------------------------

def _call_name(func: ast.AST) -> Optional[str]:
    """The trailing name of a call target: ``a.b.C(...)`` -> ``C``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _lock_from_value(cls_name: str, attr: str,
                     value: ast.AST) -> Optional[_Lock]:
    if not isinstance(value, ast.Call):
        return None
    name = _call_name(value.func)
    if name == "OrderedLock":
        reentrant = any(
            kw.arg == "reentrant" and isinstance(kw.value, ast.Constant)
            and bool(kw.value.value)
            for kw in value.keywords)
    elif name in _LOCK_CTORS:
        reentrant = _LOCK_CTORS[name]
    else:
        return None
    node = "{}.{}".format(cls_name, attr)
    if name in ("OrderedLock", "ordered_lock", "ordered_rlock") \
            and value.args and isinstance(value.args[0], ast.Constant) \
            and isinstance(value.args[0].value, str):
        node = value.args[0].value  # share the runtime witness's node name
    return _Lock(attr=attr, node=node, reentrant=reentrant)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (one level only), else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        tail = annotation.value.rsplit(".", 1)[-1].strip()
        return tail or None
    return None


def _guard_comments(module: _Module) -> Dict[int, str]:
    """line -> lock attr named by a ``# guarded-by:`` comment."""
    guards: Dict[int, str] = {}
    for number, text in _iter_comments(module.source):
        match = _GUARDED_BY_RE.search(text)
        if match is not None:
            guards[number] = match.group(1)
    return guards


def _collect_classes(modules: List[_Module]) -> Dict[str, _Class]:
    classes: Dict[str, _Class] = {}
    for module in modules:
        guards = _guard_comments(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _Class(name=node.name, module=module, tree=node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[item.name] = item
                    # The guard comment may sit on any signature line —
                    # wrapped defs put it after the closing paren.
                    body_start = item.body[0].lineno if item.body \
                        else item.lineno + 1
                    body_start = max(body_start, item.lineno + 1)
                    for line in range(item.lineno, body_start):
                        guard = guards.get(line)
                        if guard is not None:
                            info.method_guards[item.name] = guard
                            break
            init = info.methods.get("__init__")
            param_types: Dict[str, str] = {}
            if init is not None:
                for arg in init.args.args + init.args.kwonlyargs:
                    type_name = _annotation_name(arg.annotation)
                    if type_name is not None:
                        param_types[arg.arg] = type_name
            for method in info.methods.values():
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        lock = _lock_from_value(node.name, attr, stmt.value)
                        if lock is not None:
                            info.locks[attr] = lock
                            continue
                        if isinstance(stmt.value, ast.Call):
                            type_name = _call_name(stmt.value.func)
                            if type_name is not None and \
                                    type_name[:1].isupper():
                                info.attr_types[attr] = type_name
                        elif isinstance(stmt.value, ast.Name) and \
                                stmt.value.id in param_types:
                            info.attr_types[attr] = param_types[stmt.value.id]
                        # An annotated declaration guards even what
                        # inference cannot see.
                        declared = guards.get(stmt.lineno)
                        if declared is not None:
                            info.guarded[attr] = declared
            classes[node.name] = info
    return classes


# ----------------------------------------------------------------------
# Lock-scope walking
# ----------------------------------------------------------------------

def _held_locks_for(info: _Class,
                    method: _FunctionNode) -> Tuple[str, ...]:
    """Lock attrs a method's body starts out holding (guarded-by)."""
    guard = info.method_guards.get(method.name)
    if guard is not None and guard in info.locks:
        return (guard,)
    return ()


def _iter_lock_scopes(
        info: _Class, method: _FunctionNode
) -> Iterable[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield ``(node, held_lock_attrs)`` over a method, shallowly.

    ``held`` reflects ``with self.<lockattr>`` nesting (plus the
    method's ``guarded-by`` assertion); nested function and class
    definitions are not entered — their bodies run on their own
    schedule, not under the enclosing ``with``.
    """

    def walk(nodes: Iterable[ast.AST],
             held: Tuple[str, ...]) -> Iterable[
                 Tuple[ast.AST, Tuple[str, ...]]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    yield item.context_expr, inner
                    if attr is not None and attr in info.locks:
                        inner = inner + (attr,)
                for result in walk(node.body, inner):
                    yield result
                continue
            yield node, held
            for result in walk(ast.iter_child_nodes(node), held):
                yield result

    base = _held_locks_for(info, method)
    for result in walk(method.body, base):
        yield result


def _attr_writes(node: ast.AST) -> Iterable[Tuple[str, int]]:
    """``(attr, line)`` for each ``self.<attr>`` store in one statement."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _MUTATORS:
        attr = _self_attr(node.func.value)
        if attr is not None:
            yield attr, node.lineno
        return
    for target in targets:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        attr = _self_attr(base)
        if attr is not None:
            yield attr, node.lineno


_CONSTRUCTORS = frozenset({"__init__", "__new__"})


# ----------------------------------------------------------------------
# Passes: guarded-set inference, write/acquire flags, order edges
# ----------------------------------------------------------------------

def _infer_guarded(info: _Class) -> None:
    for name, method in info.methods.items():
        if name in _CONSTRUCTORS:
            continue
        for node, held in _iter_lock_scopes(info, method):
            if not held:
                continue
            for attr, _ in _attr_writes(node):
                if attr not in info.locks:
                    info.guarded.setdefault(attr, held[-1])


def _acquisition_signatures(info: _Class) -> None:
    """Fill ``info.outermost``: locks a plain call into a method takes."""
    for name, method in info.methods.items():
        acquired: Set[str] = set()
        base = _held_locks_for(info, method)
        for attr, held in _iter_with_items(info, method):
            if held == base:
                acquired.add(attr)
        info.outermost[name] = acquired


def _iter_with_items(
        info: _Class, method: _FunctionNode
) -> Iterable[Tuple[str, Tuple[str, ...]]]:
    """``(lock_attr, held_before)`` for every ``with self.<lock>`` item."""

    def walk(nodes: Iterable[ast.AST],
             held: Tuple[str, ...]) -> Iterable[
                 Tuple[str, Tuple[str, ...]]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and attr in info.locks:
                        yield attr, inner
                        inner = inner + (attr,)
                for result in walk(node.body, inner):
                    yield result
                continue
            for result in walk(ast.iter_child_nodes(node), held):
                yield result

    for result in walk(method.body, _held_locks_for(info, method)):
        yield result


def _check_unguarded_writes(info: _Class, out: List[Violation]) -> None:
    for name, method in info.methods.items():
        if name in _CONSTRUCTORS:
            continue
        for node, held in _iter_lock_scopes(info, method):
            if held:
                continue
            for attr, line in _attr_writes(node):
                guard = info.guarded.get(attr)
                if guard is None:
                    continue
                info.module.report(
                    out, line, "unguarded-write",
                    "{}.{} writes {!r} with no lock held, but {!r} is "
                    "guarded by self.{} elsewhere; hold the lock or "
                    "annotate the method '# guarded-by: {}'".format(
                        info.name, name, attr, attr, guard, guard))


def _check_acquires_and_edges(info: _Class, classes: Dict[str, _Class],
                              edges: List[_Edge],
                              out: List[Violation]) -> None:
    path = info.module.path

    def note_acquire(lock: _Lock, held: Tuple[str, ...], line: int,
                     via: str) -> None:
        held_locks = [info.locks[a] for a in held if a in info.locks]
        if any(h.node == lock.node for h in held_locks):
            if not lock.reentrant:
                info.module.report(
                    out, line, "nested-acquire",
                    "{} is acquired{} while already held — a "
                    "non-reentrant lock self-deadlocks here".format(
                        lock.node, via))
            return
        for h in held_locks:
            edges.append(_Edge(h.node, lock.node, path, line))

    for name, method in info.methods.items():
        for node, held in _iter_lock_scopes(info, method):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and held:
                    # One-level self-call: self.m() under a held lock.
                    if isinstance(func.value, ast.Name) \
                            and func.value.id == "self" \
                            and func.attr in info.methods:
                        for attr in sorted(
                                info.outermost.get(func.attr, ())):
                            note_acquire(
                                info.locks[attr], held, node.lineno,
                                " via self.{}()".format(func.attr))
                    # One-level call through a typed attribute:
                    # self.store.m() where self.store: PersistentGraph.
                    else:
                        owner = _self_attr(func.value)
                        target = classes.get(
                            info.attr_types.get(owner, "")) \
                            if owner is not None else None
                        if target is not None:
                            for attr in sorted(
                                    target.outermost.get(func.attr, ())):
                                note_acquire(
                                    target.locks[attr], held, node.lineno,
                                    " via self.{}.{}()".format(
                                        owner, func.attr))

    # Direct `with` nesting, with precise pre-acquire held sets.
    for name, method in info.methods.items():
        for (lock_attr, line), held in _iter_with_lines(info, method):
            note_acquire(info.locks[lock_attr], held, line, "")


def _iter_with_lines(
        info: _Class, method: _FunctionNode
) -> Iterable[Tuple[Tuple[str, int], Tuple[str, ...]]]:
    """Like :func:`_iter_with_items` but carrying source lines."""

    def walk(nodes: Iterable[ast.AST],
             held: Tuple[str, ...]) -> Iterable[
                 Tuple[Tuple[str, int], Tuple[str, ...]]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and attr in info.locks:
                        yield (attr, item.context_expr.lineno), inner
                        inner = inner + (attr,)
                for result in walk(node.body, inner):
                    yield result
                continue
            for result in walk(ast.iter_child_nodes(node), held):
                yield result

    for result in walk(method.body, _held_locks_for(info, method)):
        yield result


def _check_order_cycles(edges: List[_Edge], modules: List[_Module],
                        out: List[Violation]) -> None:
    """Insert edges one at a time; report the edge that closes a cycle."""
    by_path = {module.path: module for module in modules}
    graph: Dict[str, Set[str]] = {}

    def reaches(source: str, target: str,
                seen: Optional[Set[str]] = None) -> Optional[List[str]]:
        if source == target:
            return [source]
        seen = seen if seen is not None else set()
        seen.add(source)
        for successor in sorted(graph.get(source, ())):
            if successor in seen:
                continue
            tail = reaches(successor, target, seen)
            if tail is not None:
                return [source] + tail
        return None

    seen_edges: Set[Tuple[str, str]] = set()
    for edge in edges:
        key = (edge.source, edge.target)
        if key in seen_edges or edge.source == edge.target:
            continue
        seen_edges.add(key)
        cycle = reaches(edge.target, edge.source)
        if cycle is not None:
            module = by_path.get(edge.path)
            if module is not None:
                module.report(
                    out, edge.line, "lock-order-cycle",
                    "acquiring {} while holding {} closes the static "
                    "order cycle {}".format(
                        edge.target, edge.source,
                        " -> ".join([edge.source] + cycle)))
            continue
        graph.setdefault(edge.source, set()).add(edge.target)


# ----------------------------------------------------------------------
# must-close
# ----------------------------------------------------------------------

def _lifecycle_scope(module: _Module) -> bool:
    parts = module.path.replace("\\", "/").split("/")
    return "storage" in parts or "service" in parts


def _tracked_constructor(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open"
        if func.id in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
            return "executor"
        return None
    if isinstance(func, ast.Attribute):
        root = func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        root_name = root.id if isinstance(root, ast.Name) else None
        if func.attr == "memmap" and root_name in _NUMPY_ROOTS:
            return "memmap"
        if func.attr == "mmap" and root_name in _MMAP_ROOTS:
            return "mmap"
        if func.attr in ("socket", "create_connection") \
                and root_name == "socket":
            return "socket"
        if func.attr == "Pool":
            return "pool"
        if func.attr in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
            return "executor"
    return None


def _class_of(method: _FunctionNode,
              classes: Dict[str, _Class]) -> Optional[_Class]:
    for info in classes.values():
        if info.methods.get(method.name) is method:
            return info
    return None


def _name_escapes(function: _FunctionNode, name: str,
                  after_line: int) -> bool:
    """True when a local resource name is closed or changes owner."""
    for node in ast.walk(function):
        if getattr(node, "lineno", 0) < after_line:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == name and func.attr in _CLOSERS:
                return True
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if any(isinstance(x, ast.Name) and x.id == name
                       for x in ast.walk(arg)):
                    return True
        elif isinstance(node, ast.Return) and node.value is not None:
            if any(isinstance(x, ast.Name) and x.id == name
                   for x in ast.walk(node.value)):
                return True
        elif isinstance(node, ast.Assign):
            if any(isinstance(x, ast.Name) and x.id == name
                   for x in ast.walk(node.value)):
                if any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in node.targets):
                    return True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if any(isinstance(x, ast.Name) and x.id == name
                       for x in ast.walk(item.context_expr)):
                    return True
    return False


def _check_must_close(module: _Module, classes: Dict[str, _Class],
                      out: List[Violation]) -> None:
    if not _lifecycle_scope(module):
        return
    functions: List[_FunctionNode] = [
        node for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for function in functions:
        parent_of: Dict[ast.AST, ast.AST] = {}
        stack: List[ast.AST] = list(function.body)
        for top in function.body:
            parent_of[top] = function
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node is not function:
                continue
            for child in ast.iter_child_nodes(node):
                parent_of[child] = node
                stack.append(child)
        for node, parent in list(parent_of.items()):
            if not isinstance(node, ast.Call):
                continue
            kind = _tracked_constructor(node)
            if kind is None:
                continue
            # Conditional/boolean/walrus wrappers are ownership-neutral:
            # classify by the first structural ancestor above them.
            while isinstance(parent, (ast.IfExp, ast.BoolOp,
                                      ast.NamedExpr)):
                parent = parent_of.get(parent, function)
            if isinstance(parent, ast.withitem):
                continue  # context-managed
            if isinstance(parent, (ast.Call, ast.Return)):
                continue  # ownership transferred / handed to the caller
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                if isinstance(parent, ast.AnnAssign):
                    target: Optional[ast.AST] = parent.target
                else:
                    target = parent.targets[0] \
                        if len(parent.targets) == 1 else None
                attr = _self_attr(target) if target is not None else None
                if attr is not None:
                    owner = _class_of(function, classes)
                    if owner is not None and not any(
                            closer in owner.methods for closer in _CLOSERS):
                        module.report(
                            out, node.lineno, "must-close",
                            "{} stores a {} resource on self but defines "
                            "no close()/shutdown() — the handle can never "
                            "be released".format(owner.name, kind))
                    continue
                if isinstance(target, ast.Name):
                    if _name_escapes(function, target.id, parent.lineno):
                        continue
                    module.report(
                        out, node.lineno, "must-close",
                        "{}() result {!r} in {!r} is never closed, "
                        "returned, stored, or passed on — wrap it in "
                        "'with' or close it on every path".format(
                            kind, target.id, function.name))
                    continue
            module.report(
                out, node.lineno, "must-close",
                "{}() result in {!r} is dropped without a close path — "
                "wrap it in 'with' or bind and close it".format(
                    kind, function.name))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def analyze_paths(paths: Iterable[str]) -> List[Violation]:
    """Run every reprorace rule; returns violations sorted by location."""
    modules = [m for m in _collect_modules(paths, "reprorace", _RACE_ALL)
               if not m.skip]
    classes = _collect_classes(modules)
    for info in classes.values():
        _infer_guarded(info)
        _acquisition_signatures(info)
    out: List[Violation] = []
    edges: List[_Edge] = []
    for info in classes.values():
        _check_unguarded_writes(info, out)
        _check_acquires_and_edges(info, classes, edges, out)
    _check_order_cycles(edges, modules, out)
    for module in modules:
        _check_must_close(module, classes, out)
    return sorted(set(out), key=lambda v: (v.path, v.line, v.rule))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.concurrency",
        description="reprorace: lock-discipline & resource-lifecycle "
                    "static analysis")
    parser.add_argument("targets", nargs="*",
                        help="files or directories to analyze")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit violations as one structured JSON record")
    args = parser.parse_args(argv)
    if args.list_rules:
        width = max(len(name) for name in RACE_RULES)
        for name in sorted(RACE_RULES):
            print("{:<{w}}  {}".format(name, RACE_RULES[name], w=width))
        return 0
    if not args.targets:
        parser.error("no targets given (try: src/repro)")
    return emit_report("reprorace", analyze_paths(args.targets),
                       args.as_json)


if __name__ == "__main__":
    sys.exit(main())
