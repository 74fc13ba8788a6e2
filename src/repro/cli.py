"""Command-line interface for the traversal engine.

Usage (after ``pip install -e .``)::

    python -m repro.cli query GRAPH_FILE 'PATHQL'   [--strategy S] [--max-length N] [--limit K]
    python -m repro.cli explain GRAPH_FILE 'PATHQL' [--max-length N]
    python -m repro.cli stats GRAPH_FILE
    python -m repro.cli dot GRAPH_FILE
    python -m repro.cli demo
    python -m repro.cli db init DIR [--graph GRAPH_FILE] [--name NAME]
    python -m repro.cli db open DIR ['PATHQL' ...query options]
    python -m repro.cli db checkpoint DIR
    python -m repro.cli db info DIR [--verify]
    python -m repro.cli serve ROOT [--host H] [--port P] [--token T=TENANT]
                                   [--workers N] [--max-concurrency N]
                                   [--queue-depth N] [--deadline-ms MS]
                                   [--cache N] [--quota TENANT=N]

``GRAPH_FILE`` may be triple CSV (``.csv``/``.txt``), JSON (``.json``) or
GraphML (``.graphml``/``.xml``); the loader dispatches on extension.
``demo`` runs the Figure 1 query on the built-in Figure 1 graph.  The
``db`` family manages durable graph stores (write-ahead log + mmap'd CSR
snapshots, see ``docs/persistence.md``): ``init`` seeds a store from a
graph file, ``open`` recovers one (optionally running a query against it),
``checkpoint`` folds the log into a fresh snapshot generation, and
``info`` reports manifest/WAL/recovery state as JSON.

``serve`` runs the async HTTP/JSON query service (``docs/serving.md``)
over a directory of stores: one subdirectory per graph name, multi-tenant
bearer-token auth, per-request deadlines, 429 shedding with
``Retry-After``, and a version-keyed result cache shared across graphs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.datasets.paper import figure1_graph
from repro.engine import Engine
from repro.errors import PathAlgebraError
from repro.graph import io as graph_io
from repro.graph import statistics
from repro.graph.graph import MultiRelationalGraph
from repro.viz import graph_to_dot

__all__ = ["main", "load_graph", "build_parser"]

FIGURE1_QUERY = ("[i, alpha, _] . [_, beta, _]* . "
                 "(([_, alpha, j] . {(j, alpha, i)}) | [_, alpha, k])")


def load_graph(path: str) -> MultiRelationalGraph:
    """Load a graph file, dispatching on its extension."""
    lower = path.lower()
    if lower.endswith(".json"):
        return graph_io.read_json(path)
    if lower.endswith((".graphml", ".xml")):
        return graph_io.read_graphml(path)
    return graph_io.read_triples(path)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-relational path algebra traversal engine")
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="run a PathQL query")
    query.add_argument("graph", help="graph file (csv/json/graphml)")
    query.add_argument("pathql", help="PathQL query text")
    query.add_argument("--strategy", default="materialized",
                       choices=["materialized", "streaming", "automaton", "stack"])
    query.add_argument("--max-length", type=int, default=8)
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--json", action="store_true",
                       help="emit results as JSON instead of text")

    explain = commands.add_parser("explain", help="show the query plan")
    explain.add_argument("graph")
    explain.add_argument("pathql")
    explain.add_argument("--max-length", type=int, default=None)

    lint_query = commands.add_parser(
        "lint-query", help="pre-flight analysis report for a query "
                           "(unknown labels, DFA pruning, provable "
                           "emptiness) without running it")
    lint_query.add_argument("graph", help="graph file (csv/json/graphml)")
    lint_query.add_argument("pathql", help="PathQL query text")

    stats = commands.add_parser("stats", help="summarize a graph file")
    stats.add_argument("graph")

    dot = commands.add_parser("dot", help="emit Graphviz DOT for a graph file")
    dot.add_argument("graph")

    commands.add_parser("demo", help="run the paper's Figure 1 query")

    db = commands.add_parser(
        "db", help="durable graph stores (write-ahead log + snapshots)")
    db_commands = db.add_subparsers(dest="db_command", required=True)

    db_init = db_commands.add_parser(
        "init", help="create a store, optionally seeded from a graph file")
    db_init.add_argument("directory", help="store directory to create")
    db_init.add_argument("--graph", default=None,
                         help="graph file (csv/json/graphml) to seed from")
    db_init.add_argument("--name", default="", help="graph name")

    db_open = db_commands.add_parser(
        "open", help="open a store (recover the WAL), optionally query it")
    db_open.add_argument("directory", help="store directory")
    db_open.add_argument("pathql", nargs="?", default=None,
                         help="optional PathQL query to run after opening")
    db_open.add_argument("--strategy", default="materialized",
                         choices=["materialized", "streaming", "automaton",
                                  "stack"])
    db_open.add_argument("--max-length", type=int, default=8)
    db_open.add_argument("--limit", type=int, default=None)
    db_open.add_argument("--json", action="store_true",
                         help="emit results as JSON instead of text")

    db_checkpoint = db_commands.add_parser(
        "checkpoint", help="fold the WAL into a fresh snapshot generation")
    db_checkpoint.add_argument("directory", help="store directory")

    db_info = db_commands.add_parser(
        "info", help="report manifest / WAL / recovery state as JSON")
    db_info.add_argument("directory", help="store directory")
    db_info.add_argument("--verify", action="store_true",
                         help="also checksum the snapshot data region")

    db_verify = db_commands.add_parser(
        "verify", help="offline CRC scrub of a store or replica directory; "
                       "exit 1 and report the first corrupt record on "
                       "damage")
    db_verify.add_argument("directory", help="store or replica directory")

    db_promote = db_commands.add_parser(
        "promote", help="promote a replica directory to a writable "
                        "primary store (seals and verifies the shipped "
                        "log first)")
    db_promote.add_argument("directory", help="replica directory")

    serve = commands.add_parser(
        "serve", help="run the async HTTP/JSON query service over a "
                      "directory of graph stores")
    serve.add_argument("root", help="directory holding one store "
                                    "subdirectory per graph name")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one and prints it)")
    serve.add_argument("--token", action="append", default=[],
                       metavar="TOKEN=TENANT",
                       help="accept bearer TOKEN for TENANT (repeatable; "
                            "none = open access as tenant 'anonymous')")
    serve.add_argument("--workers", type=int, default=4,
                       help="query worker threads shared across graphs")
    serve.add_argument("--max-concurrency", type=int, default=None,
                       help="concurrent queries per graph "
                            "(default: --workers)")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="waiting queries per graph before shedding "
                            "with 429 (default: 32)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-query deadline in milliseconds")
    serve.add_argument("--cache", type=int, default=256,
                       help="shared result-cache capacity (0 disables)")
    serve.add_argument("--quota", action="append", default=[],
                       metavar="TENANT=N",
                       help="per-tenant concurrent-query quota "
                            "(repeatable; default 8 each)")
    serve.add_argument("--replicate", action="store_true",
                       help="serve each store's log to replicas "
                            "(GET /replication/*)")
    serve.add_argument("--access-log", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="write one JSON access-log line per request "
                            "to PATH ('-' or no value = stderr; off by "
                            "default)")
    serve.add_argument("--replica-of", default=None, metavar="URL",
                       help="serve ROOT as a read-only replica tailing "
                            "the primary at URL (ROOT is the replica "
                            "state directory)")
    serve.add_argument("--graph", default=None,
                       help="with --replica-of: the graph name to "
                            "replicate (default: the primary's only "
                            "graph)")
    serve.add_argument("--primary-token", default=None,
                       help="with --replica-of: bearer token presented "
                            "to the primary's /replication endpoints")
    serve.add_argument("--poll-interval", type=float, default=0.2,
                       help="with --replica-of: WAL tail poll interval "
                            "in seconds (default: 0.2)")
    return parser


def _run_lint_query(graph: MultiRelationalGraph, pathql: str, out) -> int:
    """``repro lint-query``: print the pre-flight report, run nothing.

    Exit code 0 when the query is satisfiable, 1 when pre-flight analysis
    proves it empty over this graph — so the command doubles as a gate in
    scripts that vet queries before shipping them.
    """
    engine = Engine(graph)
    route = engine.route(engine.compile(pathql))
    diagnostics = route.diagnostics
    out.write("route: pairs fast path ({})\n".format(
        route.constrained.describe(diagnostics.pinned)))
    out.write(diagnostics.describe() + "\n")
    return 1 if diagnostics.empty else 0


def _run_query(graph: MultiRelationalGraph, pathql: str, strategy: str,
               max_length: int, limit: Optional[int], as_json: bool,
               out) -> None:
    engine = Engine(graph)
    result = engine.query(pathql, strategy=strategy,
                          max_length=max_length, limit=limit)
    if as_json:
        payload = {
            "query": pathql,
            "strategy": result.strategy,
            "elapsed_seconds": result.elapsed,
            "count": len(result),
            "paths": [
                [[e.tail, e.label, e.head] for e in p] for p in result.paths
            ],
        }
        out.write(json.dumps(payload, indent=2, default=str) + "\n")
        return
    out.write("{} paths via {} in {:.4f}s\n".format(
        len(result), result.strategy, result.elapsed))
    for p in result.paths:
        out.write("  {}\n".format(p))


def _run_db(args, out) -> int:
    """The ``db`` subcommand family over :class:`repro.storage.PersistentGraph`."""
    from repro.storage import PersistentGraph

    if args.db_command == "init":
        graph = load_graph(args.graph) if args.graph else None
        with PersistentGraph.create(args.directory, graph=graph,
                                    name=args.name) as store:
            out.write(json.dumps(store.info(), indent=2, default=str) + "\n")
    elif args.db_command == "open":
        with PersistentGraph.open(args.directory) as store:
            if args.pathql is None:
                out.write(json.dumps(store.info(), indent=2, default=str) + "\n")
            else:
                _run_query(store.graph(), args.pathql, args.strategy,
                           args.max_length, args.limit, args.json, out)
    elif args.db_command == "checkpoint":
        with PersistentGraph.open(args.directory) as store:
            out.write(json.dumps(store.checkpoint(), indent=2,
                                 default=str) + "\n")
    elif args.db_command == "info":
        with PersistentGraph.open(args.directory) as store:
            info = store.info()
            if args.verify:
                from repro.storage import open_adjacency_snapshot
                open_adjacency_snapshot(
                    os.path.join(args.directory, info["snapshot"]),
                    mmap=False, verify=True)
                info["snapshot_checksum"] = "ok"
            out.write(json.dumps(info, indent=2, default=str) + "\n")
    elif args.db_command == "verify":
        from repro.replication import verify_store
        report = verify_store(args.directory)
        out.write(json.dumps(report, indent=2, default=str) + "\n")
        if not report["ok"]:
            first = report.get("first_corrupt")
            out.write("FIRST CORRUPT: {}\n".format(
                json.dumps(first, default=str)))
            return 1
    elif args.db_command == "promote":
        from repro.replication import promote_replica
        report = promote_replica(args.directory)
        out.write(json.dumps(report, indent=2, default=str) + "\n")
    return 0


def _parse_mapping(pairs, flag):
    """``KEY=VALUE`` repeatable-flag entries as a dict."""
    mapping = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise PathAlgebraError(
                "{} expects KEY=VALUE, got {!r}".format(flag, item))
        mapping[key] = value
    return mapping


def _run_serve(args, out) -> int:
    """``repro serve``: the async HTTP/JSON query service (docs/serving.md)."""
    import asyncio
    import signal

    from repro.service import serve as service_serve

    # Chaos/testing hook (docs/robustness.md): REPRO_FAULTS arms named
    # fault sites for this server process, e.g.
    #   REPRO_FAULTS="wal.fsync:eio:times=1;http.connection_drop:drop"
    # Unset (the production default) leaves every hook a no-op.
    spec = os.environ.get("REPRO_FAULTS")
    if spec:
        from repro.faults import FaultPlan, install_plan
        install_plan(FaultPlan.from_spec(spec))
        out.write("fault plan armed: {}\n".format(spec))

    tokens = _parse_mapping(args.token, "--token")
    quotas = {tenant: int(count) for tenant, count in
              _parse_mapping(args.quota, "--quota").items()}
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise PathAlgebraError("--deadline-ms must be positive")

    access_log = None
    log_stream = None
    if args.access_log is not None:
        if args.access_log == "-":
            log_stream = sys.stderr
        else:
            log_stream = open(args.access_log, "a", encoding="utf-8")

        def access_log(entry):
            log_stream.write(json.dumps(entry, default=str) + "\n")
            log_stream.flush()

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)

        def ready(host: str, port: int) -> None:
            out.write("serving {} on http://{}:{}\n".format(
                args.root, host, port))
            out.flush()

        try:
            if args.replica_of is not None:
                from repro.service.http import serve_replica
                await serve_replica(
                    args.root, args.replica_of, host=args.host,
                    port=args.port, graph=args.graph, tokens=tokens,
                    primary_token=args.primary_token,
                    poll_interval=args.poll_interval, ready=ready,
                    stop_event=stop, access_log=access_log)
            else:
                await service_serve(
                    args.root, host=args.host, port=args.port,
                    tokens=tokens, ready=ready, stop_event=stop,
                    access_log=access_log,
                    max_workers=args.workers,
                    max_concurrency=args.max_concurrency,
                    max_queue_depth=args.queue_depth,
                    default_deadline=None if args.deadline_ms is None
                    else args.deadline_ms / 1000.0,
                    cache_capacity=args.cache, quotas=quotas,
                    replicate=args.replicate)
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(signum)

    try:
        asyncio.run(run())
    finally:
        if log_stream is not None and log_stream is not sys.stderr:
            log_stream.close()
    out.write("shutdown complete\n")
    return 0


def main(argv: Optional[list] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "query":
            _run_query(load_graph(args.graph), args.pathql, args.strategy,
                       args.max_length, args.limit, args.json, out)
        elif args.command == "explain":
            engine = Engine(load_graph(args.graph))
            out.write(engine.explain(args.pathql, max_length=args.max_length) + "\n")
        elif args.command == "lint-query":
            return _run_lint_query(load_graph(args.graph), args.pathql, out)
        elif args.command == "stats":
            summary = statistics.summarize(load_graph(args.graph))
            out.write(json.dumps(summary, indent=2, default=str) + "\n")
        elif args.command == "dot":
            out.write(graph_to_dot(load_graph(args.graph)) + "\n")
        elif args.command == "db":
            return _run_db(args, out)
        elif args.command == "serve":
            return _run_serve(args, out)
        elif args.command == "demo":
            out.write("Figure 1 query over the built-in Figure 1 graph:\n")
            out.write("  {}\n\n".format(FIGURE1_QUERY))
            _run_query(figure1_graph(), FIGURE1_QUERY, "automaton", 6, None,
                       False, out)
        return 0
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (PathAlgebraError, OSError) as error:
        try:
            out.write("error: {}\n".format(error))
        except BrokenPipeError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
