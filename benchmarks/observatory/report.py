"""Provenance, the printed report, result files and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence, TextIO

from . import stats

BENCHMARK_FILE = "BENCHMARK.json"


def load_contract(root: str) -> Dict[str, Any]:
    with open(os.path.join(root, BENCHMARK_FILE), "r", encoding="utf-8") \
            as stream:
        return json.load(stream)


def filesystem_of(path: str) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", "r") as stream:
            for line in stream:
                fields = line.split()
                if len(fields) >= 3 and path.startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def git_commit(root: str) -> str:
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "not a git checkout"


def provenance(root: str, tmp_root: str) -> Dict[str, Any]:
    """Everything two result files must share to be comparable."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.graph import compact
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "HAVE_NUMPY": bool(getattr(compact, "HAVE_NUMPY", False)),
        "loadavg_at_start": load,
        "tmp_filesystem": filesystem_of(os.path.abspath(tmp_root)),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def _number(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return "{:.4g}".format(value)
    return str(value)


def print_result(result: Dict[str, Any], out: TextIO) -> None:
    """Every metric of one workload run, by name, with unit and sample count."""
    kind = "per-layer (traced pass)" if result["trace"] else "end-to-end"
    out.write("\n== {} — {} — seed {} — {:g}s ==\n".format(
        result["workload"], kind, result["seed"], result["seconds"]))
    out.write("   op stream sha256 {}\n".format(result.get("stream_sha256")))
    if result.get("server_flags"):
        out.write("   server flags     {}; {} closed-loop client(s)\n".format(
            " ".join(result["server_flags"]), result.get("clients")))
    row = "   {:<40} {:>11} {:<7} {:>6} {:>11} {:>11} {:>11} {:>7}\n"
    out.write(row.format("metric", "value", "unit", "n", "median", "q1",
                         "q3", "spread"))
    for name, entry in result["metrics"].items():
        spread = entry.get("spread")
        out.write(row.format(
            name, _number(entry["value"]), entry["unit"], entry.get("n", 1),
            _number(entry.get("median")), _number(entry.get("q1")),
            _number(entry.get("q3")),
            "-" if spread is None else "{:.1%}".format(spread)))
    for key, value in (result.get("diagnostics") or {}).items():
        out.write("   . {}: {}\n".format(key, json.dumps(value, default=str)))
    for server in result.get("servers") or []:
        out.write("   . server {role}: exit {exit_code}{k}, {tracebacks} "
                  "traceback(s) in {log}\n".format(
                      k=" (kill -9 by harness)"
                      if server["killed_by_harness"] else "", **server))
    out.write("   attempted {} failed {} correct {}\n".format(
        result["attempted"], result["failed"], result["correct"]))
    for failure in result.get("failures") or []:
        out.write("   FAILURE: {}\n".format(failure))


def contract_line(result: Dict[str, Any], names: Sequence[str]) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    metrics = {}
    for name in names:
        entry = result["metrics"][name]
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _end_to_end(results: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {run["workload"]: run["metrics"]
            for run in results["runs"] if not run["trace"]}


def compare(base_path: str, new_path: str, contract: Dict[str, Any],
            out: TextIO) -> int:
    """One row per (end-to-end metric, workload); exit 1 on any ``worse``."""
    with open(base_path, "r", encoding="utf-8") as stream:
        base = json.load(stream)
    with open(new_path, "r", encoding="utf-8") as stream:
        new = json.load(stream)
    for label, results in (("base", base), ("new", new)):
        if results.get("quick"):
            out.write("warning: {} is a --quick run; its numbers are not "
                      "comparable\n".format(label))
    base_runs, new_runs = _end_to_end(base), _end_to_end(new)
    base_sha = {r["workload"]: r.get("stream_sha256") for r in base["runs"]}
    new_sha = {r["workload"]: r.get("stream_sha256") for r in new["runs"]}
    out.write("{:<22} {:<14} {:>12} {:>12} {:>9} {:>7} {:>7}  {}\n".format(
        "workload", "metric", "base", "new", "new/base", "worse", "bound",
        "verdict"))
    worse = 0
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in base_runs or workload not in new_runs:
            out.write("{:<22} missing from one side\n".format(workload))
            continue
        if base_sha.get(workload) != new_sha.get(workload):
            out.write("{:<22} op-stream hashes differ: not comparable\n"
                      .format(workload))
            continue
        for spec in contract["end_to_end"]:
            a = base_runs[workload].get(spec["name"])
            b = new_runs[workload].get(spec["name"])
            if a is None or b is None:
                continue
            outcome, share = stats.verdict(
                a["value"], b["value"], spec["better"], spec["bound"],
                (a.get("spread"), b.get("spread")))
            worse += outcome == "worse"
            out.write("{:<22} {:<14} {:>12} {:>12} {:>9.3f} {:>+7.1%} "
                      "{:>7.0%}  {}\n".format(
                          workload, spec["name"], _number(a["value"]),
                          _number(b["value"]), b["value"] / a["value"],
                          share, spec["bound"], outcome))
    out.write("{} worse\n".format(worse))
    return 1 if worse else 0


def write_results(path: str, payload: Dict[str, Any]) -> None:
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True, default=str)
    os.replace(tmp_path, path)
