"""Unit tests of the harness's pure functions (no subprocess, < 2 s).

Collected by the tier-1 run (``PYTHONPATH=src python -m pytest -x -q``).
"""

import io
import json
import os
import random
import re

import pytest

from . import ladder, loadgen, opstream, report, stats, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- percentiles and the tail rule ------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None)])
def test_tail_needs_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= 10


# -- sub-window summaries and bounds ----------------------------------

def test_summarize_median_quartiles_spread():
    summary = stats.summarize([10.0, 12.0, 11.0, 13.0, 9.0])
    assert summary["median"] == 11.0
    assert summary["n"] == 5
    assert summary["q1"] < summary["median"] < summary["q3"]
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 11.0)
    alone = stats.summarize([4.0])
    assert alone["median"] == 4.0 and alone["spread"] is None


def test_verdict_ok_worse_unresolved():
    # lower is better: +5 % inside a 10 % bound, +20 % outside.
    assert stats.verdict(100.0, 105.0, "lower", 0.10)[0] == "ok"
    outcome, share = stats.verdict(100.0, 120.0, "lower", 0.10)
    assert outcome == "worse" and share == pytest.approx(0.20)
    # higher is better: a drop is what counts.
    assert stats.verdict(100.0, 85.0, "higher", 0.10)[0] == "worse"
    assert stats.verdict(100.0, 130.0, "higher", 0.10)[0] == "ok"
    # sub-window spread wider than the bound: cannot tell 5 % from noise...
    assert stats.verdict(100.0, 105.0, "lower", 0.10,
                         (0.25, None))[0] == "unresolved"
    # ...but a regression larger than that noise is still a regression.
    assert stats.verdict(100.0, 140.0, "lower", 0.10,
                         (0.25, 0.05))[0] == "worse"


def test_slope():
    assert stats.slope([0, 1, 2, 3], [1, 3, 5, 7]) == pytest.approx(2.0)
    assert stats.slope([2, 2, 2], [1, 2, 3]) == 0.0


# -- seeded inputs -----------------------------------------------------

def test_zipf_is_deterministic_per_seed_and_skewed():
    zipf = opstream.Zipf(64, 1.1)
    draws = [zipf.draw(random.Random(5)) for _ in range(3)]
    assert len(set(draws)) == 1
    rng = random.Random(9)
    counts = [0] * 64
    for _ in range(20000):
        counts[zipf.draw(rng)] += 1
    assert counts[0] > counts[1] > counts[7] > counts[63] > 0


def test_streams_repeat_per_seed_and_differ_across_seeds():
    eligible = list(range(0, 1500, 2))
    hot = opstream.hot_keys(7, eligible)
    assert hot == opstream.hot_keys(7, eligible) and set(hot) <= set(eligible)
    assert hot != opstream.hot_keys(8, eligible)
    first = opstream.hot_zipf_ops(7, 600, hot)
    assert first == opstream.hot_zipf_ops(7, 600, hot)
    assert first != opstream.hot_zipf_ops(7, 600, hot, "other-client")
    assert opstream.stream_sha256(first) != \
        opstream.stream_sha256(opstream.hot_zipf_ops(8, 600, hot))
    assert len(set(opstream.hot_key_ops(hot))) == \
        opstream.HOT_VERTICES * len(opstream.HOT_TEMPLATES)
    assert set(first) <= set(opstream.hot_key_ops(hot))
    # Every block of three holds each template once, per client stream.
    assert all(sorted(op[1] for op in first[i:i + 3]) == ["T1", "T2", "T3"]
               for i in range(0, 600, 3))
    assert opstream.interleave([[1, 3, 5], [2, 4, 6]]) == [1, 2, 3, 4, 5, 6]


def test_stratified_blocks_hold_exact_shares():
    kinds = opstream.stratified(random.Random(1), opstream.COLD_PATTERN, 500)
    for start in range(0, 500, 10):
        block = kinds[start:start + 10]
        assert sorted(block) == sorted(opstream.COLD_PATTERN)


def test_cold_keys_never_repeat():
    ops = opstream.cold_selective_ops(3, 1200)
    assert len(ops) == len(set(ops)) == 1200
    multi = [op for op in ops if op[1] == "T3"]
    assert len(multi) == 240 and all(len(op[2]) == 4 for op in multi)
    # The key space bounds the stream, whatever length is asked for.
    assert len(opstream.cold_selective_ops(3, 10 ** 6)) == \
        opstream.COLD_MAX_OPS


def test_mixed_mutations_follow_the_model():
    edges = [(i, "a", (i + 1) % 50) for i in range(50)]
    primary, replica = opstream.mixed_write_ops(
        4, 900, edges, list(range(64)), checkpoint_every=100)
    assert len(primary) == len(replica) == 900
    assert sum(op[0] == "c" for op in primary) == 9
    live = set(edges)
    for op in primary:
        if op[0] != "m":
            continue
        assert op[1] or op[2]
        assert not set(op[1]) & set(op[2])
        for sign, tail, label, head in opstream.edge_records(op):
            if sign == "+":
                assert (tail, label, head) not in live
                live.add((tail, label, head))
            else:
                live.remove((tail, label, head))
    writes = sum(op[0] == "m" for op in primary)
    assert 0.15 < writes / 900 < 0.25
    assert all(op[0] == "q" for op in replica)


# -- quiet windows -----------------------------------------------------

class _FakeClient:
    """A client whose ops took ``1 / rate`` seconds each, window by window."""

    def __init__(self, rates, per_window):
        self.ops, self.position, self.started = [], [], []
        self.finished, self.pairs = [], []
        clock = 100.0
        for rate in rates:
            for _ in range(per_window):
                self.position.append(len(self.ops))
                self.ops.append(("q", "T1", (1,), None))
                self.started.append(clock)
                clock += 1.0 / rate
                self.finished.append(clock)
                self.pairs.append(3)


def test_quiet_windows_pool_the_least_disturbed_stretches():
    phase = loadgen.Phase(1, 8.0)
    rates = (100.0, 98.0, 40.0, 95.0, 60.0, 70.0, 50.0, 45.0)
    client = _FakeClient(rates, per_window=30)
    measured = loadgen.window_metrics([client], phase, [3])
    # The fastest quarter of eight windows: the 100 and the 98 ops/s ones.
    assert measured["windows"] == [8] and measured["quiet_windows"] == [2]
    quiet_seconds = 30 / 100.0 + 30 / 98.0
    assert measured["quiet"]["ops_per_s"] == pytest.approx(60 / quiet_seconds)
    assert measured["quiet"]["pairs_per_s"] == \
        pytest.approx(180 / quiet_seconds)
    assert measured["quiet"]["reads"] == 60
    assert measured["quiet"]["read_p50_ms"] == pytest.approx(1000 / 100.0)
    assert measured["quiet"]["read_p95_ms"] == pytest.approx(1000 / 98.0)
    assert measured["per_window"]["ops_per_s"] == pytest.approx(list(rates))
    assert measured["counts"]["reads"] == 240
    # Two clients side by side: their rates add up.
    both = loadgen.window_metrics(
        [client, _FakeClient((50.0,) * 8, per_window=30)], phase, [3, 3])
    assert both["quiet"]["ops_per_s"] == \
        pytest.approx(60 / quiet_seconds + 50.0)


# -- spans --------------------------------------------------------------

def test_self_time_is_span_minus_children():
    tracer = ladder.Tracer()
    tracer.spans = [["op", 0.0, 10.0, None, 1],
                    ["staged", 1.0, 7.0, 0, 1],
                    ["kernel", 2.0, 6.0, 1, 1],
                    ["engine", 7.0, 9.5, 0, 1]]
    selves = {name: seconds for name, _, seconds in tracer.self_times()}
    assert selves == {"op": 1.5, "staged": 2.0, "kernel": 4.0, "engine": 2.5}


# -- BENCHMARK.json and compare ------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_package_and_the_contract():
    contract = report.load_contract(ROOT)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/observatory"]
    assert [w["name"] for w in contract["workloads"]] == \
        list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    end_to_end = {m["name"]: (m["unit"], m["better"])
                  for m in contract["end_to_end"]}
    assert end_to_end == workloads.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert ("s", "lower") == end_to_end["setup_s"]
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == \
        ladder.PER_LAYER
    assert len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    assert all(_UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for key in ("end_to_end", "per_layer") for m in contract[key])
    assert 1 <= contract["run_seconds"] <= 60


def _results(tmp_path, name, ops_per_s, spread=0.02):
    runs = [{"workload": workload, "trace": False, "stream_sha256": "same",
             "metrics": {"ops_per_s": {"value": ops_per_s, "spread": spread},
                         "read_p50_ms": {"value": 2.0, "spread": 0.02}}}
            for workload in workloads.WORKLOADS]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs, "quick": False}))
    return str(path)


def test_compare_rows_and_exit_code(tmp_path):
    contract = {"workloads": [{"name": w} for w in workloads.WORKLOADS],
                "end_to_end": [
                    {"name": "ops_per_s", "better": "higher", "bound": 0.1},
                    {"name": "read_p50_ms", "better": "lower", "bound": 0.1}]}
    base = _results(tmp_path, "a.json", 100.0)
    out = io.StringIO()
    assert report.compare(base, _results(tmp_path, "b.json", 97.0),
                          contract, out) == 0
    assert out.getvalue().count(" ok") == 8
    out = io.StringIO()
    assert report.compare(base, _results(tmp_path, "c.json", 70.0),
                          contract, out) == 1
    assert out.getvalue().count("worse\n") >= 4
    out = io.StringIO()
    assert report.compare(base, _results(tmp_path, "d.json", 95.0, 0.3),
                          contract, out) == 0
    assert "unresolved" in out.getvalue()
