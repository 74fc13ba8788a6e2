"""Command line of the observatory benchmark.

Two shapes of one command:

* **driver** — ``--workload W --seed N --seconds S --trace 0|1`` runs one
  workload once and prints, as the last line of stdout, the JSON object the
  benchmark contract asks for (end-to-end metrics with ``--trace 0``,
  per-layer metrics with ``--trace 1``);
* **full** — without ``--workload`` it runs all four workloads, each
  untraced and then traced, prints every metric by name with unit and
  sample count, and writes ``results.json`` plus the span files to
  ``--out``.  ``--quick`` shortens every workload to 3 s (plumbing check;
  numbers labelled non-comparable).

``compare A.json B.json`` applies the bounds of ``BENCHMARK.json`` to two
result files.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

QUICK_SECONDS = 3.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="observatory", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only input: graphs and op streams derive "
                             "from it (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: traced per-layer pass "
                             "(default: 0 in driver mode, both in full mode)")
    parser.add_argument("--quick", action="store_true",
                        help="3 s per workload; numbers are non-comparable")
    parser.add_argument("--out", default=None,
                        help="directory for results.json, server logs and "
                             "span files (default: observatory-out/ in the "
                             "checkout)")
    return parser


def _import_repro() -> None:
    """Make ``repro`` importable from the checkout this file lives in."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write("observatory: no src/repro under {} — the benchmark "
                         "measures the repository it is checked out in\n"
                         .format(ROOT))
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


def _terminate(signum: int, frame: Any) -> None:
    # SIGTERM must unwind through the Fleet's __exit__ (which reaps every
    # server child), not kill the interpreter where it stands.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    _import_repro()
    from . import report, workloads
    from .servers import BenchmarkError

    contract = report.load_contract(ROOT)
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else float(contract["run_seconds"]))
    if seconds <= 0:
        sys.stderr.write("observatory: --seconds must be positive\n")
        return 2
    out_dir = os.path.abspath(args.out or os.path.join(ROOT,
                                                       "observatory-out"))
    os.makedirs(out_dir, exist_ok=True)
    tmp_root = os.path.join(ROOT, ".observatory-tmp",
                            "run-{}".format(os.getpid()))
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(tmp_root)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [bool(args.trace)] if args.workload or args.trace is not None \
        else [False, True]
    runs: List[Dict[str, Any]] = []
    payload = {"provenance": report.provenance(ROOT, tmp_root),
               "seed": args.seed, "seconds": seconds,
               "quick": bool(args.quick), "runs": runs}
    try:
        for name in names:
            for trace in traces:
                ctx = workloads.Context(ROOT, args.seed, seconds, trace,
                                        out_dir, tmp_root)
                result = workloads.run_workload(ctx, name)
                runs.append(result)
                report.print_result(result, sys.stdout)
                sys.stdout.flush()
    except BenchmarkError as error:
        sys.stderr.write("observatory: {}\n".format(error))
        return 3
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass
    if args.quick:
        sys.stdout.write("\n--quick: plumbing check only; these numbers are "
                         "NOT comparable with any other run\n")
    if args.workload:
        section = "per_layer" if runs[0]["trace"] else "end_to_end"
        sys.stdout.write(report.contract_line(
            runs[0], [m["name"] for m in contract[section]]) + "\n")
    else:
        sys.stdout.write("\nprovenance: {}\n".format(payload["provenance"]))
        path = os.path.join(out_dir, "results.json")
        report.write_results(path, payload)
        sys.stdout.write("results written to {}\n".format(path))
    sys.stdout.flush()
    return 0 if all(run["correct"] for run in runs) else 1


def _compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="observatory compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    from . import report
    return report.compare(args.base, args.new, report.load_contract(ROOT),
                          sys.stdout)
