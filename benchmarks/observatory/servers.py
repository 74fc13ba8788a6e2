"""Process hygiene: boot, probe, measure and reap ``repro serve`` children.

Every server the benchmark starts is a real ``python -m repro.cli serve``
subprocess on an ephemeral port.  A :class:`Fleet` owns them all: its
``__exit__`` SIGTERMs (then kills) whatever is still alive, so a failed
run leaks nothing.  CPU and memory are read from ``/proc/<pid>`` — the
scheduler-robust cost numbers — never from inside the server.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

_ENDPOINT = re.compile(r"http://([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class BenchmarkError(RuntimeError):
    """The harness could not run the workload (not a product failure)."""


def proc_cpu_seconds(pid: int) -> float:
    """``utime + stime`` of ``pid`` in seconds (0.0 once it is gone)."""
    try:
        with open("/proc/{}/stat".format(pid), "rb") as stream:
            fields = stream.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0.0 once it is gone)."""
    try:
        with open("/proc/{}/status".format(pid), "r") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve`` child: endpoint, pid, captured stderr."""

    def __init__(self, role: str, args: Sequence[str], src: str,
                 log_path: str):
        self.role = role
        self.args = list(args)
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Never inherit an armed chaos plan or lock witness by accident.
        for name in ("REPRO_FAULTS", "REPRO_LOCK_WITNESS",
                     "REPRO_LEAK_TRACKING"):
            env.pop(name, None)
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve"] + self.args
            + ["--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env)
        self.url: Optional[str] = None
        self.returncode: Optional[int] = None
        #: True once the harness itself ``kill -9``'d this child.
        self.killed = False

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_endpoint(self, timeout: float = BOOT_TIMEOUT) -> str:
        """Block until the child prints its ``serving ... on http://`` line."""
        deadline = time.monotonic() + timeout
        buffered = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            ready, _, _ = select.select([fd], [], [], 0.05)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            match = _ENDPOINT.search(buffered.decode("latin-1"))
            if match and b"\n" in buffered:
                self.url = "http://{}:{}".format(match.group(1),
                                                 match.group(2))
                return self.url
        raise BenchmarkError("{} server never announced its endpoint "
                             "(exit code {}; see {})".format(
                                 self.role, self.proc.poll(), self.log_path))

    def alive(self) -> bool:
        return self.proc.poll() is None

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    def _reap(self) -> None:
        self.returncode = self.proc.returncode
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def stop(self, timeout: float = STOP_TIMEOUT) -> int:
        """SIGTERM, wait, kill on timeout; returns the exit code."""
        if self.returncode is not None:
            return self.returncode
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reap()
        return self.returncode

    def kill(self) -> int:
        """``kill -9`` (the crash the durability check needs)."""
        if self.returncode is None:
            if self.alive():
                self.killed = True
                self.proc.kill()
            self.proc.wait()
            self._reap()
        return self.returncode

    def tracebacks(self) -> int:
        try:
            with open(self.log_path, "rb") as stream:
                return stream.read().count(b"Traceback (most recent call last)")
        except OSError:
            return 0


class Fleet:
    """Every child of one workload run; reaps them all on exit."""

    def __init__(self, src: str, log_dir: str, workload: str):
        self.src = src
        self.log_dir = log_dir
        self.workload = workload
        self.servers: List[Server] = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for server in self.servers:
            server.kill()

    def start(self, role: str, args: Sequence[str]) -> Server:
        index = sum(1 for s in self.servers if s.role == role)
        name = "server-{}-{}{}.log".format(
            self.workload, role, "-{}".format(index) if index else "")
        server = Server(role, args, self.src,
                        os.path.join(self.log_dir, name))
        self.servers.append(server)
        server.wait_endpoint()
        return server

    def stop_all(self) -> None:
        """Graceful shutdown of whatever is still running, newest first."""
        for server in reversed(self.servers):
            server.stop()

    def report(self) -> List[Dict[str, object]]:
        return [{"role": s.role, "args": s.args, "exit_code": s.returncode,
                 "killed_by_harness": s.killed,
                 "tracebacks": s.tracebacks(),
                 "log": os.path.basename(s.log_path)}
                for s in self.servers]


def wait_until(predicate, timeout: float, what: str,
               interval: float = 0.01):
    """Poll ``predicate`` until it returns a truthy value; raise on timeout."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise BenchmarkError("timed out after {:.0f}s waiting for {}"
                                 .format(timeout, what))
        time.sleep(interval)
