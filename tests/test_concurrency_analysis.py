"""reprorace + runtime-witness suite: static rules, suppressions, CLI,
and the dynamic lock-order / leak-registry semantics.

The static half mirrors ``test_reprolint.py``: each fixture writes a
minimal offending module to a temp tree shaped the way the rule expects
(``storage/`` membership for must-close) and asserts the violation
surfaces with the right rule and line, with negatives proving the rule
does not over-fire.  The dynamic half drives :mod:`repro.concurrency`
directly — including a two-thread, Event-sequenced deadlock fixture the
armed witness must catch *deterministically* (the violation is raised at
the cycle-closing acquire, before it could block).  The final tests hold
the CI gates: ``src/repro`` analyzes clean under every rule.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.analysis.concurrency import (
    RACE_RULES,
    analyze_paths,
    main as race_main,
)
from repro.concurrency import (
    LeakRegistry,
    LockWitness,
    OrderedLock,
    installed_tracker,
    installed_witness,
    ordered_lock,
    ordered_rlock,
    release_resource,
    track_resource,
    tracking_scope,
    witness_scope,
)
from repro.errors import LockOrderViolation, ResourceLeakError

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def _analyze_snippet(tmp_path, source, name="mod.py", subdir=""):
    directory = tmp_path / subdir if subdir else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(source)
    return analyze_paths([str(path)])


def _rules(violations):
    return [violation.rule for violation in violations]


COUNTER = (
    "import threading\n"
    "class Counter:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0\n"          # construction-time: exempt
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self._count += 1\n"     # teaches inference: guarded
    "    def reset(self):\n"
    "        self._count = 0\n"          # line 10: the race
)


# ----------------------------------------------------------------------
# unguarded-write
# ----------------------------------------------------------------------

class TestUnguardedWrite:
    def test_fires_on_lockless_write_of_inferred_attr(self, tmp_path):
        violations = _analyze_snippet(tmp_path, COUNTER)
        assert _rules(violations) == ["unguarded-write"]
        assert violations[0].line == 10
        assert "'_count'" in violations[0].message
        assert "guarded-by" in violations[0].message

    def test_construction_and_locked_writes_are_clean(self, tmp_path):
        source = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
        )
        assert _analyze_snippet(tmp_path, source) == []

    def test_guarded_by_def_annotation_exempts_helper(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n",
            "    def reset(self):  # guarded-by: _lock\n")
        assert _analyze_snippet(tmp_path, source) == []

    def test_guarded_by_on_wrapped_signature_line(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n",
            "    def reset(\n"
            "            self):  # guarded-by: _lock\n")
        assert _analyze_snippet(tmp_path, source) == []

    def test_declared_guard_needs_no_locked_write(self, tmp_path):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []  # guarded-by: _lock\n"
            "    def drop(self):\n"
            "        self._items = []\n"
        )
        violations = _analyze_snippet(tmp_path, source)
        assert _rules(violations) == ["unguarded-write"]
        assert violations[0].line == 7

    def test_mutator_call_counts_as_write(self, tmp_path):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []  # guarded-by: _lock\n"
            "    def push(self, item):\n"
            "        self._items.append(item)\n"
        )
        violations = _analyze_snippet(tmp_path, source)
        assert _rules(violations) == ["unguarded-write"]

    def test_unguarded_attrs_stay_free(self, tmp_path):
        source = (
            "class Plain:\n"
            "    def set(self, value):\n"
            "        self.value = value\n"
        )
        assert _analyze_snippet(tmp_path, source) == []


# ----------------------------------------------------------------------
# nested-acquire
# ----------------------------------------------------------------------

class TestNestedAcquire:
    def test_direct_with_nesting_fires(self, tmp_path):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def bad(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        violations = _analyze_snippet(tmp_path, source)
        assert _rules(violations) == ["nested-acquire"]
        assert violations[0].line == 7
        assert "self-deadlock" in violations[0].message

    def test_reentrant_lock_is_exempt(self, tmp_path):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def fine(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert _analyze_snippet(tmp_path, source) == []

    def test_one_level_self_call_fires(self, tmp_path):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def step(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def bad(self):\n"
            "        with self._lock:\n"
            "            self.step()\n"
        )
        violations = _analyze_snippet(tmp_path, source)
        assert _rules(violations) == ["nested-acquire"]
        assert violations[0].line == 11
        assert "via self.step()" in violations[0].message

    def test_locked_helper_called_unlocked_is_clean(self, tmp_path):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def step(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def fine(self):\n"
            "        self.step()\n"
        )
        assert _analyze_snippet(tmp_path, source) == []


# ----------------------------------------------------------------------
# lock-order-cycle
# ----------------------------------------------------------------------

class TestLockOrderCycle:
    def test_inverted_nesting_closes_a_cycle(self, tmp_path):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def forward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def backward(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        violations = _analyze_snippet(tmp_path, source)
        assert _rules(violations) == ["lock-order-cycle"]
        assert violations[0].line == 12          # the closing acquire
        assert "C._b -> C._a -> C._b" in violations[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def one(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def two(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        assert _analyze_snippet(tmp_path, source) == []

    def test_cycle_spans_modules_via_ordered_lock_names(self, tmp_path):
        """ordered_lock string literals are shared graph nodes, so two
        modules nesting the same named pair in opposite orders close a
        cycle neither module exhibits alone."""
        first = tmp_path / "first.py"
        first.write_text(
            "from repro.concurrency import ordered_lock\n"
            "class X:\n"
            "    def __init__(self):\n"
            "        self._a = ordered_lock('order.a')\n"
            "        self._b = ordered_lock('order.b')\n"
            "    def run(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        second = tmp_path / "second.py"
        second.write_text(
            "from repro.concurrency import ordered_lock\n"
            "class Y:\n"
            "    def __init__(self):\n"
            "        self._b = ordered_lock('order.b')\n"
            "    def run(self, x):\n"
            "        with self._b:\n"
            "            with x._a:\n"      # not a lock attr of Y: inert
            "                pass\n"
            "    def inverted(self):\n"
            "        self._a = ordered_lock('order.a')\n"
            "    def bad(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        violations = analyze_paths([str(first), str(second)])
        assert _rules(violations) == ["lock-order-cycle"]
        assert "order.a" in violations[0].message
        assert "order.b" in violations[0].message
        assert "cycle" in violations[0].message

    def test_each_module_alone_is_clean(self, tmp_path):
        source = (
            "from repro.concurrency import ordered_lock\n"
            "class X:\n"
            "    def __init__(self):\n"
            "        self._a = ordered_lock('solo.a')\n"
            "        self._b = ordered_lock('solo.b')\n"
            "    def run(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        assert _analyze_snippet(tmp_path, source) == []


# ----------------------------------------------------------------------
# must-close
# ----------------------------------------------------------------------

class TestMustClose:
    LEAK = (
        "def load(path):\n"
        "    handle = open(path)\n"
        "    return 1\n"
    )

    def test_leaked_open_fires_in_storage(self, tmp_path):
        violations = _analyze_snippet(tmp_path, self.LEAK, subdir="storage")
        assert _rules(violations) == ["must-close"]
        assert violations[0].line == 2
        assert "'handle'" in violations[0].message

    def test_rule_scoped_to_storage_and_service(self, tmp_path):
        assert _analyze_snippet(tmp_path, self.LEAK) == []
        assert _analyze_snippet(tmp_path, self.LEAK,
                                subdir="service") != []

    def test_close_paths_are_clean(self, tmp_path):
        source = (
            "def managed(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
            "def closed(path):\n"
            "    handle = open(path)\n"
            "    try:\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n"
            "def handed_to_caller(path):\n"
            "    return open(path)\n"
            "def handed_to_callee(path, wrap):\n"
            "    return wrap(open(path))\n"
        )
        assert _analyze_snippet(tmp_path, source, subdir="storage") == []

    def test_self_attr_requires_a_closer_method(self, tmp_path):
        source = (
            "class NoCloser:\n"
            "    def __init__(self, path):\n"
            "        self._fh = open(path)\n"
        )
        violations = _analyze_snippet(tmp_path, source, subdir="storage")
        assert _rules(violations) == ["must-close"]
        assert "no close()/shutdown()" in violations[0].message

    def test_self_attr_with_closer_is_clean(self, tmp_path):
        source = (
            "class HasCloser:\n"
            "    def __init__(self, path):\n"
            "        self._fh = open(path)\n"
            "    def close(self):\n"
            "        self._fh.close()\n"
        )
        assert _analyze_snippet(tmp_path, source, subdir="storage") == []

    def test_memmap_executor_and_pool_are_tracked(self, tmp_path):
        source = (
            "import multiprocessing as mp\n"
            "import numpy as np\n"
            "def leaky(path):\n"
            "    rows = np.memmap(path)\n"
            "    pool = mp.Pool(2)\n"
            "    workers = ThreadPoolExecutor(2)\n"
            "    return 1\n"
        )
        violations = _analyze_snippet(tmp_path, source, subdir="service")
        assert _rules(violations) == ["must-close"] * 3
        kinds = {v.message.split("(")[0] for v in violations}
        assert kinds == {"memmap", "pool", "executor"}

    def test_sockets_are_tracked(self, tmp_path):
        leaky = (
            "import socket\n"
            "def probe(address):\n"
            "    sock = socket.create_connection(address)\n"
            "    sock.sendall(b'ping')\n"
            "    return 1\n"
        )
        violations = _analyze_snippet(tmp_path, leaky, subdir="service")
        assert _rules(violations) == ["must-close"]
        assert violations[0].message.startswith("socket()")
        # The SDK's shape: closed on the failure path, kept on self
        # (whose class has close()) or closed on the success path.
        exchange = (
            "import socket\n"
            "class Client:\n"
            "    def exchange(self, address, request):\n"
            "        sock = socket.create_connection(address)\n"
            "        try:\n"
            "            sock.sendall(request)\n"
            "        except OSError:\n"
            "            sock.close()\n"
            "            raise\n"
            "        self._socket = sock\n"
            "    def close(self):\n"
            "        self._socket.close()\n"
        )
        assert _analyze_snippet(tmp_path, exchange, subdir="service") == []

    def test_stdlib_mmap_is_tracked(self, tmp_path):
        leaky = (
            "import mmap\n"
            "def leaky(stream):\n"
            "    mapping = mmap.mmap(stream.fileno(), 0)\n"
            "    size = mapping.size()\n"
            "    return size\n"
        )
        violations = _analyze_snippet(tmp_path, leaky, subdir="storage")
        assert _rules(violations) == ["must-close"]
        assert violations[0].message.startswith("mmap()")
        # The snapshot store's shape: the mapping (under the alias its
        # ``mmap=`` parameter forces) is handed to the view it returns.
        handed_off = (
            "import mmap as _mmap\n"
            "def carve(stream, mmap=True):\n"
            "    mapping = _mmap.mmap(stream.fileno(), 0)\n"
            "    return memoryview(mapping).cast('q')\n"
        )
        assert _analyze_snippet(tmp_path, handed_off, subdir="storage") == []


# ----------------------------------------------------------------------
# Suppressions (reprorace namespace over reprolint's machinery)
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_same_line_named_rule(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n"
            "        self._count = 0\n",
            "    def reset(self):\n"
            "        self._count = 0  # reprorace: ignore[unguarded-write]\n")
        assert _analyze_snippet(tmp_path, source) == []

    def test_line_above(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n"
            "        self._count = 0\n",
            "    def reset(self):\n"
            "        # reprorace: ignore[unguarded-write]\n"
            "        self._count = 0\n")
        assert _analyze_snippet(tmp_path, source) == []

    def test_def_header_covers_the_block(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n",
            "    def reset(self):  # reprorace: ignore[unguarded-write]\n")
        assert _analyze_snippet(tmp_path, source) == []

    def test_skip_file(self, tmp_path):
        assert _analyze_snippet(
            tmp_path, "# reprorace: skip-file\n" + COUNTER) == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n",
            "    def reset(self):  # reprorace: ignore[must-close]\n")
        assert _rules(_analyze_snippet(tmp_path, source)) == \
            ["unguarded-write"]

    def test_unknown_rule_in_suppression_errors(self, tmp_path):
        source = "x = 1  # reprorace: ignore[no-such-rule]\n"
        with pytest.raises(SystemExit):
            _analyze_snippet(tmp_path, source)

    def test_reprolint_namespace_does_not_silence_reprorace(self, tmp_path):
        source = COUNTER.replace(
            "    def reset(self):\n",
            "    def reset(self):  # reprolint: ignore\n")
        assert _rules(_analyze_snippet(tmp_path, source)) == \
            ["unguarded-write"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCli:
    def test_list_rules_catalog(self, capsys):
        assert race_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RACE_RULES:
            assert name in out

    def test_exit_codes_and_location_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(COUNTER)
        assert race_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "{}:10: unguarded-write:".format(bad) in out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert race_main([str(good)]) == 0
        assert "reprorace: clean" in capsys.readouterr().out

    def test_no_targets_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            race_main([])
        assert exc.value.code == 2

    def test_json_record_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(COUNTER)
        assert race_main(["--json", str(bad)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["tool"] == "reprorace"
        assert record["count"] == 1
        violation = record["violations"][0]
        assert violation["path"] == str(bad)
        assert violation["line"] == 10
        assert violation["rule"] == "unguarded-write"
        assert "'_count'" in violation["message"]

    def test_json_clean_record(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert race_main(["--json", str(good)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"tool": "reprorace", "count": 0, "violations": []}

    def test_module_entry_point(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(COUNTER)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.concurrency", str(bad)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(REPO_SRC)))
        assert proc.returncode == 1
        assert "unguarded-write" in proc.stdout


# ----------------------------------------------------------------------
# Runtime witness
# ----------------------------------------------------------------------

class TestLockWitness:
    def test_two_thread_deadlock_caught_deterministically(self):
        """The seeded deadlock: thread one nests A -> B (recording the
        edge), thread two — sequenced strictly after via an Event —
        nests B -> A.  The witness raises at thread two's inner acquire,
        *before* it could block, every run."""
        a = ordered_lock("deadlock.a")
        b = ordered_lock("deadlock.b")
        forward_done = threading.Event()
        caught = []

        def forward():
            with a:
                with b:
                    pass
            forward_done.set()

        def backward():
            assert forward_done.wait(5.0)
            with b:
                try:
                    with a:
                        pass
                except LockOrderViolation as exc:
                    caught.append(exc)

        with witness_scope() as witness:
            threads = [threading.Thread(target=forward),
                       threading.Thread(target=backward)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)
            assert [type(exc) for exc in caught] == [LockOrderViolation]
            assert "deadlock.b -> deadlock.a -> deadlock.b" in str(caught[0])
            # The offending edge was rejected, not recorded: the graph
            # stays acyclic and the final sweep agrees.
            assert witness.edges() == {"deadlock.a": ("deadlock.b",)}
            witness.assert_acyclic()
            assert witness.acquisitions >= 4
            assert witness.edges_recorded == 1

    def test_reentrant_reacquire_records_nothing(self):
        lock = ordered_rlock("re.lock")
        with witness_scope() as witness:
            with lock:
                with lock:
                    # Both holds are on the stack; neither records an edge.
                    assert witness.held_names() == ("re.lock", "re.lock")
                assert witness.held_names() == ("re.lock",)
            assert witness.held_names() == ()
            assert witness.edges() == {}

    def test_same_name_different_objects_violate(self):
        first = ordered_lock("dup.name")
        second = ordered_lock("dup.name")
        with witness_scope():
            with first:
                with pytest.raises(LockOrderViolation):
                    with second:
                        pass

    def test_acquire_release_protocol(self):
        lock = ordered_lock("proto.lock")
        with witness_scope() as witness:
            assert lock.acquire()
            assert witness.held_names() == ("proto.lock",)
            lock.release()
            assert witness.held_names() == ()
            assert witness.acquisitions == 1

    def test_scope_restores_previous_witness(self):
        assert installed_witness() is None
        with witness_scope() as outer:
            assert installed_witness() is outer
            with witness_scope() as inner:
                assert installed_witness() is inner
            assert installed_witness() is outer
        assert installed_witness() is None

    def test_disarmed_lock_is_a_plain_lock(self):
        lock = ordered_lock("disarmed.lock")
        assert installed_witness() is None
        with lock:
            assert not lock.acquire(blocking=False)
        assert lock.acquire(blocking=False)
        lock.release()

    def test_repr_and_reentrant_flag(self):
        assert "re.lock" in repr(ordered_rlock("re.lock"))
        assert ordered_rlock("x").reentrant
        assert not ordered_lock("x").reentrant
        assert isinstance(ordered_lock("x"), OrderedLock)

    def test_assert_acyclic_catches_a_planted_cycle(self):
        witness = LockWitness()
        witness._edges = {"a": {"b"}, "b": {"a"}}
        with pytest.raises(LockOrderViolation):
            witness.assert_acyclic()


# ----------------------------------------------------------------------
# Leak registry
# ----------------------------------------------------------------------

class TestLeakRegistry:
    def test_track_release_and_assert_empty(self):
        with tracking_scope() as tracker:
            token = track_resource("wal", "/tmp/wal.log")
            assert isinstance(token, int)
            with pytest.raises(ResourceLeakError) as exc:
                tracker.assert_empty()
            assert "wal" in str(exc.value)
            release_resource(token)
            tracker.assert_empty()
            assert tracker.tracked == 1
            assert tracker.released == 1

    def test_double_release_is_idempotent(self):
        with tracking_scope() as tracker:
            token = track_resource("store")
            release_resource(token)
            release_resource(token)
            assert tracker.released == 1

    def test_disarmed_tokens_are_none_and_inert(self):
        assert installed_tracker() is None
        assert track_resource("wal", "ignored") is None
        release_resource(None)   # must not raise

    def test_scope_restores_previous_tracker(self):
        with tracking_scope() as outer:
            with tracking_scope() as inner:
                assert installed_tracker() is inner
            assert installed_tracker() is outer
        assert installed_tracker() is None

    def test_registry_is_thread_safe(self):
        registry = LeakRegistry()
        tokens = []

        def churn():
            for _ in range(200):
                tokens.append(registry.track("t", "x"))

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.tracked == 800
        assert len(set(tokens)) == 800
        for token in tokens:
            registry.untrack(token)
        registry.assert_empty()


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------

class TestGate:
    def test_src_repro_analyzes_clean(self):
        assert analyze_paths([REPO_SRC]) == []
