"""Launching and stopping the deployments under test.

Both deployments are child process trees of the benchmark: ``cli serve``
(optionally with shard workers) and the in-process fleet's host
(:mod:`benchmarks.kosr.fleet_driver`, a caller application plus its
workers).  Each runs in its own process group so that, whatever
happens, the whole tree can be killed and no worker is orphaned.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

from benchmarks.kosr import hostspeed, procstat

LOG_NAME = "deployments.log"
_BANNER = re.compile(rb"serving KOSR queries on (\S+):(\d+) ")


class Deployment:
    """A launched process tree whose stdout speaks one line at a time."""

    def __init__(self, argv: List[str], env: Dict[str, str]):
        # stderr goes to a log in the run's directory: a server that is
        # told to stop mid-write prints a traceback that means nothing,
        # but the log is shown if the run fails (see run.py).
        self._log = open(os.path.join(env["TMPDIR"], LOG_NAME), "ab")
        #: the instant ``setup_s`` counts from
        self.launched_at = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *argv], env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, bufsize=0,
            start_new_session=True)
        self._buffer = b""

    def read_line(self, timeout_s: float,
                  on_idle: Optional[Callable[[], None]] = None) -> bytes:
        """The next stdout line; raises if the tree dies or stays
        silent.  ``on_idle`` runs after every ``hostspeed.PROBE_S`` of
        silence."""
        deadline = perf_counter() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise TimeoutError(
                    f"{self.proc.args[2:]}: no output line in {timeout_s}s")
            if on_idle is not None:
                remaining = min(remaining, hostspeed.PROBE_S)
            if not select.select([fd], [], [], remaining)[0]:
                if on_idle is not None:
                    on_idle()
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"{self.proc.args[2:]} exited with code "
                    f"{self.proc.wait()} before answering")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def pids(self) -> List[int]:
        return procstat.tree_pids(self.proc.pid)

    def stop(self, grace_s: float = 10.0) -> None:
        """SIGTERM, wait, and sweep the process group (the group kill is
        what guarantees no orphans)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(grace_s)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class TcpServer(Deployment):
    """``cli serve --port 0``; the port comes from the one-line banner."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 on_idle: Optional[Callable[[], None]] = None,
                 timeout_s: float = 120.0):
        super().__init__(argv, env)
        try:
            match = _BANNER.search(self.read_line(timeout_s, on_idle))
            if match is None:
                raise RuntimeError("server's first line is not the banner")
        except BaseException:
            self.kill()
            raise
        self.host = match.group(1).decode()
        self.port = int(match.group(2))


class FleetHost(Deployment):
    """:mod:`benchmarks.kosr.fleet_driver`: reports progress as JSON
    lines (``ready`` with its first reply, then ``done``)."""

    def read_message(self, timeout_s: float,
                     on_idle: Optional[Callable[[], None]] = None) -> dict:
        return json.loads(self.read_line(timeout_s, on_idle))


def serve_argv(config: dict, graph_path: str, index_path: Optional[str],
               spans_out: Optional[str] = None) -> List[str]:
    """The ``cli serve`` command line of a TCP workload (through the
    benchmark-owned tracing entry point when ``spans_out`` is given —
    same CLI code path either way)."""
    deployment = config["deployment"]
    argv = (["-m", "benchmarks.kosr.traced_server", "--spans-out", spans_out]
            if spans_out else ["-m", "repro.cli"])
    argv += ["serve", "--graph", graph_path, "--port", "0",
             "--method", config["method"]]
    if deployment["index"] == "mmap":
        argv += ["--mmap-index", index_path]
    if deployment["shards"]:
        argv += ["--shards", str(deployment["shards"])]
    return argv


def fleet_argv(config: dict, graph_path: str, index_path: str,
               ops_path: str, out_path: str,
               spans_out: Optional[str] = None) -> List[str]:
    argv = ["-m", "benchmarks.kosr.fleet_driver", "--graph", graph_path,
            "--index", index_path, "--shards",
            str(config["deployment"]["shards"]), "--method",
            config["method"], "--ops", ops_path, "--out", out_path]
    if spans_out:
        argv += ["--spans-out", spans_out]
    return argv
