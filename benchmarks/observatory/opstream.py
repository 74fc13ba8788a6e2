"""Seeded input generation: graphs' seeds, zipf sampling, the four op streams.

Pure (``random`` / ``hashlib`` / ``json`` only): the same ``--seed`` gives
byte-identical streams, and the SHA-256 of a stream is what makes two
result files comparable.  Ops are plain tuples so they hash and serialise
without help:

* ``("q", template, sources | None, targets | None)`` — one ``pairs`` query,
* ``("m", adds, removes)`` — one ``mutate`` batch of ``(tail, label, head)``,
* ``("c",)`` — one ``checkpoint``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

#: PathQL text of every query template the workloads send.
TEMPLATES: Dict[str, str] = {
    "T1": "[_, a, _] . [_, b, _]*",
    "T2": "[_, a, _] . [_, b, _]",
    "T3": "([_, a, _] | [_, b, _])* . [_, c, _]",
    "APLUS": "[_, a, _]+",
    "ABSTAR": "([_, a, _] . [_, b, _])*",
    "HOP3": "[_, a, _] . [_, b, _] . [_, c, _]",
}

LABELS = ("a", "b", "c")

#: Serve-workload graph (the ISSUE's size; the 1024/256-entry result
#: caches are sized against the 600-key hot set drawn from it).
SERVE_VERTICES = 1500
SERVE_EDGES = 12000

#: Hot key space: 64 zipf-ranked vertices x templates T1-T3 = 192 keys (the
#: ISSUE's 200 vertices cut to fit the contract's time cap: every key is
#: pre-touched in each of the three set-up cycles, and a served miss costs
#: 7-28 ms).  Still far inside the 1024-entry result cache.
HOT_VERTICES = 64
ZIPF_S = 1.1
HOT_TEMPLATES = ("T1", "T2", "T3")

#: engine_sweep sizes.  The 12k-edge graph of the ISSUE costs ~13 s per
#: pass on the reference box — more than a whole contract-sized run — so
#: the dense sweep graph is shrunk until a pass (dense + sparse) takes ~1 s
#: and a run repeats it 15-odd times (each sweep's time is its fastest
#: repetition, which needs repetitions to converge on a noisy box).
SWEEP_DENSE = (450, 3600)
SWEEP_SPARSE = (6000, 3)
SWEEP_TEMPLATES = ("T1", "T3", "APLUS", "ABSTAR", "HOP3")

#: Upper bounds on client speed used to size the up-front streams
#: (ops per second of timed phase, per workload).  A Python client cannot
#: encode, send and decode faster than this; exhaustion is reported.
RATE_CAP = {"serve_hot_zipf": 10000, "serve_cold_selective": 300,
            "serve_mixed_write": 3000}

#: serve_cold_selective never repeats a key and 40 % of its ops are
#: single-source queries, of which the graph only has ``SERVE_VERTICES``.
COLD_MAX_OPS = SERVE_VERTICES * 10 // 4 - 50

Op = Tuple
Edge = Tuple[int, str, int]


def derive_rng(seed: int, *scope: str) -> random.Random:
    """An independent generator for one purpose under one ``--seed``."""
    return random.Random("observatory:{}:{}".format(seed, ":".join(scope)))


def derive_int(seed: int, *scope: str) -> int:
    return derive_rng(seed, *scope).getrandbits(31)


class Zipf:
    """Zipf(s) over ranks ``0..n-1`` by inverse-CDF lookup."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        running = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            running += weight / total
            self._cdf.append(running)
        self._cdf[-1] = 1.0

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


def stream_sha256(*streams: Sequence[Op]) -> str:
    digest = hashlib.sha256()
    for stream in streams:
        digest.update(json.dumps(stream, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def stratified(rng: random.Random, pattern: Sequence[str], count: int
               ) -> List[str]:
    """``count`` kinds drawn in shuffled blocks of ``pattern``.

    Stratified sampling: every block holds the pattern's exact shares, so
    any window of the stream a few blocks long has the same op mix.  With
    plain independent draws a one-second window of the cold workload (60
    ops whose costs span 1-100 ms) varies by +-30 % from its mix alone,
    which would drown the quantity being measured.
    """
    kinds: List[str] = []
    while len(kinds) < count:
        block = list(pattern)
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def hot_keys(seed: int, eligible: Sequence[int]) -> List[int]:
    """The hot vertices, in zipf rank order (seeded, shared by the hot and
    mixed workloads).

    ``eligible`` are the vertices with an ``a`` out-edge.  A source without
    one has an empty T1/T2 answer, and zipf sends 15 % of all reads to the
    top-ranked vertex: left to chance, whether that vertex happens to be
    such a dead end would move the whole workload's cost by 10 % from one
    seed to the next.
    """
    rng = derive_rng(seed, "hot-vertices")
    return rng.sample(list(eligible), HOT_VERTICES)


def hot_key_ops(hot: Sequence[int]) -> List[Op]:
    """Every distinct hot query once (the cache-fill pass of the warm-up)."""
    return [("q", template, (vertex,), None)
            for vertex in hot for template in HOT_TEMPLATES]


def interleave(streams: Sequence[Sequence[Op]]) -> List[Op]:
    """Per-client streams as the one stream whose every k-th op goes to
    client k (what the SHA-256 of a workload is taken over)."""
    return [op for group in zip(*streams) for op in group]


def zipf_read(rng: random.Random, template: str, zipf: Zipf,
              hot: Sequence[int]) -> Op:
    return ("q", template, (hot[zipf.draw(rng)],), None)


def hot_zipf_ops(seed: int, count: int, hot: Sequence[int],
                 scope: str = "serve_hot_zipf") -> List[Op]:
    """Single-source reads: template uniform over T1-T3 (stratified),
    source zipf-ranked among the hot vertices.  One call per client, each
    with its own ``scope``, so every client's stream is stratified."""
    rng = derive_rng(seed, scope)
    zipf = Zipf(HOT_VERTICES, ZIPF_S)
    return [zipf_read(rng, template, zipf, hot)
            for template in stratified(rng, HOT_TEMPLATES, count)]


#: serve_cold_selective's mix, in tenths: 40 % single-source T1 (forward),
#: 30 % point-to-point T1 (bidirectional), 20 % 4-source T3, 10 %
#: target-only T1 (backward).
COLD_PATTERN = ("single",) * 4 + ("p2p",) * 3 + ("multi",) * 2 + ("target",)


def cold_selective_ops(seed: int, count: int) -> List[Op]:
    """Never-repeated ``(template, sources, targets)`` keys drawn uniformly
    over all vertices, in the :data:`COLD_PATTERN` mix (stratified)."""
    rng = derive_rng(seed, "serve_cold_selective")
    vertices = range(SERVE_VERTICES)
    seen = set()
    ops: List[Op] = []
    for kind in stratified(rng, COLD_PATTERN, min(count, COLD_MAX_OPS)):
        while True:
            if kind == "single":
                op = ("q", "T1", (rng.choice(vertices),), None)
            elif kind == "p2p":
                op = ("q", "T1", (rng.choice(vertices),),
                      (rng.choice(vertices),))
            elif kind == "multi":
                op = ("q", "T3", tuple(sorted(rng.sample(vertices, 4))), None)
            else:
                op = ("q", "T1", None, (rng.choice(vertices),))
            if op not in seen:
                break
        seen.add(op)
        ops.append(op)
    return ops


class EdgePool:
    """The edge set as the mutation generator sees it: O(1) random removal."""

    def __init__(self, edges: Sequence[Edge]):
        self._list: List[Edge] = list(edges)
        self._slot: Dict[Edge, int] = {e: i for i, e in enumerate(self._list)}

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._slot

    def __len__(self) -> int:
        return len(self._list)

    def add(self, edge: Edge) -> None:
        self._slot[edge] = len(self._list)
        self._list.append(edge)

    def remove(self, edge: Edge) -> None:
        slot = self._slot.pop(edge)
        last = self._list.pop()
        if last != edge:
            self._list[slot] = last
            self._slot[last] = slot

    def choice(self, rng: random.Random) -> Edge:
        return self._list[rng.randrange(len(self._list))]


def mutation_batch(rng: random.Random, pool: EdgePool) -> Op:
    """1-8 edge operations, adds and removes equally likely and disjoint
    (removes are drawn from edges present *before* the batch), so the edge
    count random-walks around its starting value."""
    adds: List[Edge] = []
    removes: List[Edge] = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.5:
            edge = (rng.randrange(SERVE_VERTICES), rng.choice(LABELS),
                    rng.randrange(SERVE_VERTICES))
            if edge not in pool and edge not in adds:
                adds.append(edge)
        else:
            edge = pool.choice(rng)
            if edge not in removes:
                removes.append(edge)
    for edge in adds:
        pool.add(edge)
    for edge in removes:
        pool.remove(edge)
    if not adds and not removes:
        return mutation_batch(rng, pool)
    return ("m", tuple(adds), tuple(removes))


#: serve_mixed_write's primary mix: 80 % reads (template uniform), 20 %
#: mutation batches — one stratified block is 12 reads + 3 writes.
MIXED_PATTERN = HOT_TEMPLATES * 4 + ("m",) * 3


def mixed_write_ops(seed: int, count: int, edges: Sequence[Edge],
                    hot: Sequence[int], checkpoint_every: int = 250
                    ) -> Tuple[List[Op], List[Op]]:
    """``(primary_ops, replica_ops)``: client 0 sends 80 % zipf reads and
    20 % mutation batches with a checkpoint every ``checkpoint_every`` ops
    (the ISSUE's 1000 scaled to the run length, so 2-3 checkpoints happen);
    client 1 sends the same kind of zipf reads to the replica."""
    zipf = Zipf(HOT_VERTICES, ZIPF_S)
    rng = derive_rng(seed, "serve_mixed_write", "primary")
    pool = EdgePool(edges)
    primary: List[Op] = []
    for kind in stratified(rng, MIXED_PATTERN, count):
        if len(primary) % checkpoint_every == checkpoint_every - 1:
            primary.append(("c",))
        elif kind == "m":
            primary.append(mutation_batch(rng, pool))
        else:
            primary.append(zipf_read(rng, kind, zipf, hot))
    return primary, hot_zipf_ops(seed, count, hot,
                                 "serve_mixed_write:replica")


def sweep_ops() -> List[Op]:
    """One engine_sweep pass (all sources, all targets): every sweep
    template on the dense graph, then all but the 3-hop on the sparse one.

    Nine sweeps, so that their median latency is a mid-size dense sweep
    (T1, ~100 ms, seed-stable).  With the sparse 3-hop as a tenth, the
    nearest-rank median was the largest of three near-equal ~15 ms sparse
    closures, whose order — and size, on a preferential-attachment graph —
    changes with the seed: 30 % run-to-run spread from the inputs alone.
    """
    return [("q", template, None, None, "dense")
            for template in SWEEP_TEMPLATES] + \
        [("q", template, None, None, "sparse")
         for template in SWEEP_TEMPLATES if template != "HOP3"]


def edge_records(op: Op) -> List[Tuple[str, int, str, int]]:
    """The journal records one mutation batch produces, in server order
    (the HTTP handler applies every addition, then every removal)."""
    return [("+",) + tuple(edge) for edge in op[1]] + \
        [("-",) + tuple(edge) for edge in op[2]]
