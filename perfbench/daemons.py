"""Launch, signal, kill and reap the daemon processes of one workload.

Every daemon runs through ``launcher.py`` in a session of its own, so
teardown can signal the whole process group (cluster children
included) and nothing outlives the benchmark.  A daemon's stdout and
stderr go to a log file in the run's work directory; the benchmark
learns its port from the line the daemon prints once it serves.
"""

from __future__ import annotations

import glob
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
#: Every workload runs with these daemon settings: a session exposure
#: budget of 1 s and a 10 ms sweep period keep healthy cycles clear of
#: forced detaches; the EW target, circular buffer and group-commit
#: window stay at the daemon defaults (40 us, 32 entries, 200 us).
SESSION_ARGS = ["--session-ew-ms", "1000", "--sweep-period-ms", "10"]
#: String hashing is randomised per process, and the dict layouts it
#: produces move throughput by several percent from one process to the
#: next (interleaved runs: 8% spread with random seeds, 3% with one
#: fixed seed).  Every daemon runs with this one seed.
HASH_SEED = "0"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_PORT = {
    "terpd": re.compile(r"terpd serving on tcp://[^:]+:(\d+)"),
    "standby": re.compile(r"standby listening on [^:]+:(\d+)"),
    "cluster": re.compile(r"terpd cluster serving on tcp://[^:]+:(\d+)"),
}


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One launched daemon process (and, for a cluster, its children)."""

    def __init__(self, kind: str, module: str, args: List[str],
                 work: str, name: str, trace_dir: Optional[str] = None,
                 trace_every: int = 1) -> None:
        self.kind = kind
        self.module = module
        self.args = args
        self.work = work
        self.name = name
        self.trace_dir = trace_dir
        self.trace_every = trace_every
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = ""

    def start(self) -> None:
        """Launch without waiting; :meth:`wait_serving` finds the port."""
        self._log = os.path.join(
            self.work, f"{self.name}-{time.monotonic_ns()}.log")
        cmd = [sys.executable, LAUNCHER]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", self.trace_dir, "--role", self.name,
                    "--trace-every", str(self.trace_every)]
        cmd += [self.module] + self.args
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env.pop("TERP_PROTOCOL_VERSION", None)
        env["PYTHONHASHSEED"] = HASH_SEED
        with open(self._log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=env,
                start_new_session=True)

    def wait_serving(self) -> int:
        """Poll the log for the serving line; returns the port."""
        pattern = _PORT[self.kind]
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self._log, "rb") as fh:
                match = pattern.search(fh.read().decode("utf-8",
                                                        "replace"))
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                raise DaemonError(f"{self.name} exited with "
                                  f"{self.proc.returncode}:\n"
                                  f"{self.log_tail()}")
            time.sleep(0.002)
        raise DaemonError(f"{self.name} did not start serving:\n"
                          f"{self.log_tail()}")

    def log_tail(self, lines: int = 30) -> str:
        try:
            with open(self._log, "rb") as fh:
                text = fh.read().decode("utf-8", "replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def child_pids(self) -> List[int]:
        """Live processes the daemon forked (the cluster's shards and
        router), from ``/proc``."""
        found = []
        for stat in glob.glob("/proc/[0-9]*/stat"):
            try:
                with open(stat, "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[1]) == self.pid and fields[0] != b"Z":
                found.append(int(stat.split("/")[2]))
        return sorted(found)

    def pids(self) -> List[int]:
        return [self.pid] + self.child_pids()

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the daemon's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status", "rb") as fh:
                    for line in fh:
                        if line.startswith(b"VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def dump_spans(self, timeout_s: float = 30.0) -> List[str]:
        """Ask every traced process to write its spans; wait for the
        files.  Returns their paths."""
        pids = self.pids()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGUSR1)
            except ProcessLookupError:
                continue
        paths = [os.path.join(self.trace_dir,
                              f"spans-{self.name}-{pid}.json")
                 for pid in pids]
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(os.path.exists(p) for p in paths):
                return paths
            time.sleep(0.02)
        raise DaemonError(f"{self.name}: span dump timed out")

    def kill(self) -> None:
        """SIGKILL every process of the daemon, as a crash would."""
        os.killpg(self.pid, signal.SIGKILL)
        self.proc.wait(STOP_TIMEOUT_S)
        _wait_group_gone(self.pid)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL the process group; reap the child."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait(STOP_TIMEOUT_S)
        _wait_group_gone(proc.pid)


def _wait_group_gone(pgid: int) -> None:
    """Forked children are reaped by init once their parent is gone;
    wait until none is left in the group."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def _group_alive(pgid: int) -> bool:
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != b"Z":
            return True
    return False


class Topology:
    """The daemons one workload talks to, and how each is restarted.

    ``kind`` is ``memory`` (one terpd), ``durable`` (terpd with a pool
    directory), ``replicated`` (a standby plus a primary shipping to
    it) or ``cluster`` (a one-shard cluster behind its router).
    """

    def __init__(self, kind: str, work: str,
                 trace_dir: Optional[str] = None,
                 trace_every: int = 1) -> None:
        self.kind = kind
        self.work = work
        self.trace_dir = trace_dir
        self.trace_every = trace_every
        self.pool = os.path.join(work, "pool")
        self.standby_pool = os.path.join(work, "standby-pool")
        self.standby: Optional[Daemon] = None
        self.primary: Optional[Daemon] = None
        self.port = 0
        self._restarts = 0

    def _primary(self, standby_port: int = 0) -> Daemon:
        if self.kind == "cluster":
            return Daemon("cluster", "repro.cluster",
                          ["--shards", "1", "--port", "0"]
                          + SESSION_ARGS,
                          self.work, "cluster", self.trace_dir,
                          self.trace_every)
        args = ["--port", "0"] + SESSION_ARGS
        if self.kind in ("durable", "replicated"):
            args += ["--pool-dir", self.pool]
        if self.kind == "replicated":
            args += ["--replicate-to", f"127.0.0.1:{standby_port}"]
        name = f"terpd-{self._restarts}" if self._restarts else "terpd"
        return Daemon("terpd", "repro.service", args, self.work, name,
                      self.trace_dir, self.trace_every)

    def start(self) -> int:
        """Launch every daemon; returns the client port once serving."""
        if self.kind == "replicated":
            self.standby = Daemon(
                "standby", "repro.replication",
                ["--pool-dir", self.standby_pool, "--listen-port", "0"],
                self.work, "standby", self.trace_dir, self.trace_every)
            self.standby.start()
            self.standby.wait_serving()
        self.primary = self._primary(
            self.standby.port if self.standby else 0)
        self.primary.start()
        self.port = self.primary.wait_serving()
        return self.port

    def daemons(self) -> List[Daemon]:
        return [d for d in (self.primary, self.standby) if d is not None]

    def peak_rss_mb(self) -> float:
        return sum(d.peak_rss_mb() for d in self.daemons())

    def crash(self) -> None:
        """SIGKILL the serving process: terpd, the primary, or the whole
        cluster (supervisor, router and shard)."""
        self.primary.kill()

    def restart(self) -> int:
        """Relaunch what :meth:`crash` killed; returns the client port
        once serving."""
        self._restarts += 1
        self.primary = self._primary(
            self.standby.port if self.standby else 0)
        self.primary.start()
        self.port = self.primary.wait_serving()
        return self.port

    def stop(self) -> None:
        for daemon in self.daemons():
            daemon.stop()
