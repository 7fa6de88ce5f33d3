"""terpd benchmark: one workload, end-to-end or traced per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mostly --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  The
run goes through three daemon lifecycles.  Each is set up, warmed up
for a second, measured for a third of ``--seconds``, and then has its
serving process SIGKILLed and restarted four times.  The samples of
all three are pooled; ``setup_s`` and ``recovery_s`` are the medians
of the three set-ups and twelve restarts.  ``--trace 1`` runs the same traffic
twice, untraced and then with every daemon's layers traced, and
reports the per-layer metrics of ``layers.py`` plus the tracing
overhead (traced minus untraced).

Every run prints a machine fingerprint and a table of its metrics,
then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from daemons import HASH_SEED, Topology  # noqa: E402
from machine import fingerprint  # noqa: E402
from wire import Conn, OpError  # noqa: E402
from workloads import (  # noqa: E402
    RETRY_S, WORKLOADS, CycleLog, Tenant, Workload)

#: Name and unit of every end-to-end metric, in report order.
END_TO_END = [
    ("cycles_per_s", "1/s"),
    ("cycle_p50_ms", "ms"),
    ("cycle_p90_ms", "ms"),
    ("psync_p50_ms", "ms"),
    ("psync_p90_ms", "ms"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ok_ratio", "ratio"),
    ("tew_mean_us", "us"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("daemon_rss_mb", "MiB"),
]
#: each segment warms up this long before its window opens.
WARMUP_S = 1.0
#: An end-to-end run splits ``--seconds`` over this many daemon
#: lifecycles and pools their samples, so no one lifetime's process
#: placement or disk state sets a run's numbers.  Each lifecycle is
#: also one timed set-up.
SEGMENTS = 3
#: crash-restarts per segment.  ``recovery_s`` is the median of all of
#: them: the first restart of a replicated primary re-syncs faster with
#: its standby than later ones, so one restart per segment would make
#: the median jump between the two.
RECOVERIES_PER_SEGMENT = 4
#: Each kill waits a seeded pause of up to this long, so kills do not
#: land at one fixed phase of the daemons' periodic work (10 ms sweeps,
#: group-commit windows).
KILL_JITTER_S = 0.2
#: how often the traced run samples the shipper's lag.
REPL_SAMPLE_S = 0.05
WORK_ROOT = ".perfbench"


def _now() -> int:
    return time.perf_counter_ns()


class Window:
    """Outcomes and samples of the cycles that started in the window."""

    def __init__(self) -> None:
        self.log = CycleLog()
        self.cycle_ns: List[int] = []

    def add(self, log: CycleLog, cycle_ns: Optional[int]) -> None:
        self.log.add(log)
        if cycle_ns is not None:
            self.cycle_ns.append(cycle_ns)


async def _tenant_loop(workload: Workload, tenant: Tenant, port: int,
                       window: Window, mismatches: List[str],
                       t_start: int, t_end: int) -> None:
    while _now() < t_end:
        log = CycleLog()
        t0 = _now()
        complete = False
        if tenant.conn is None or tenant.conn.broken:
            tenant.close()
            log.attempted += 1
            try:
                await tenant.connect(port)
            except OpError as exc:
                log.failed[exc.kind] += 1
                await asyncio.sleep(RETRY_S)
        else:
            conn = tenant.conn
            forced = conn.forced_detaches
            wire = conn.bytes_sent + conn.bytes_received
            try:
                await workload.cycle(tenant, log)
                complete = True
            except OpError:
                pass
            # A forced detach of a tenant is a failure.
            log.failed["forced-detach"] += conn.forced_detaches - forced
            log.wire_bytes += conn.bytes_sent + conn.bytes_received - wire
        mismatches += log.mismatches
        if t0 >= t_start:
            window.add(log, _now() - t0 if complete else None)


async def _sampler(admin: Conn, t_start: int, t_end: int,
                   repl: bool, samples: List[Dict]) -> Dict:
    await asyncio.sleep(max(0.0, (t_start - _now()) / 1e9))
    metrics_start = await admin.call("metrics", {})
    while repl and _now() < t_end:
        samples.append(await admin.call("repl_status", {}))
        await asyncio.sleep(REPL_SAMPLE_S)
    return metrics_start


def _disk_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory,
                                              name)).st_blocks * 512
            except FileNotFoundError:
                continue
    return total


async def run_segment(name: str, seed: int, seconds: float, work: str,
                      window: Window, *, recoveries: int,
                      trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """One daemon lifecycle: set up, warm up, run the closed loop for
    ``seconds`` into ``window``, then ``recoveries`` times SIGKILL the
    serving process, restart it and check what survived."""
    workload = WORKLOADS[name](seed)
    os.makedirs(work)
    topo = Topology(workload.topology, work, trace_dir,
                    workload.trace_every)
    mismatches: List[str] = []
    seg: Dict[str, Any] = {"mismatches": mismatches, "exchanges": [],
                           "span_files": [], "restart_span_files": [],
                           "repl_samples": [], "recovery_s": []}
    admin: Optional[Conn] = None
    try:
        t0 = _now()
        port = topo.start()
        await workload.prepare(port)
        seg["setup_s"] = (_now() - t0) / 1e9

        if trace_dir is not None:
            for tenant in workload.tenants:
                tenant.exchanges = tenant.conn.exchanges = \
                    seg["exchanges"]
        admin = await Conn.open("127.0.0.1", port, "bench")
        t_start = _now() + int(WARMUP_S * 1e9)
        t_end = t_start + int(seconds * 1e9)
        repl = trace_dir is not None and workload.topology == "replicated"
        seg["metrics_start"], *_ = await asyncio.gather(
            _sampler(admin, t_start, t_end, repl, seg["repl_samples"]),
            *(_tenant_loop(workload, tenant, port, window, mismatches,
                           t_start, t_end)
              for tenant in workload.tenants))
        seg["metrics_end"] = await admin.call("metrics", {})
        seg["t_start"], seg["t_end"] = t_start, t_end
        seg["daemon_rss_mb"] = topo.peak_rss_mb()
        live = sum(len(t.acked) for t in workload.tenants) * 4096
        seg["disk_per_user_byte"] = (_disk_bytes(topo.pool) / live
                                     if live else 0.0)
        if trace_dir is not None:
            for daemon in topo.daemons():
                seg["span_files"] += daemon.dump_spans()
        for tenant in workload.tenants:
            tenant.close()

        jitter = random.Random(f"{seed}:kill")
        for _ in range(recoveries):
            await asyncio.sleep(jitter.uniform(0, KILL_JITTER_S))
            check = CycleLog()
            t0 = _now()
            topo.crash()
            port = topo.restart()
            await workload.recover(port, check)
            seg["recovery_s"].append((_now() - t0) / 1e9)
            await workload.verify_restart(port, check)
            mismatches += check.mismatches
            if trace_dir is not None:
                seg["restart_span_files"] += topo.primary.dump_spans()
    finally:
        if admin is not None:
            admin.close()
        for tenant in workload.tenants:
            tenant.close()
        topo.stop()
    return seg


def end_to_end(segments: List[Dict[str, Any]], window: Window,
               seconds: float) -> Dict[str, float]:
    """The end-to-end metrics over the segments' pooled samples;
    ``seconds`` is the total measured time."""
    log = window.log
    pct = layers.percentile
    held = windows = 0.0
    for seg in segments:
        for m, sign in ((seg["metrics_start"], -1),
                        (seg["metrics_end"], 1)):
            audit = m.get("audit") or {}
            held += sign * audit.get("held_mean_ns", 0.0) * \
                audit.get("windows", 0)
            windows += sign * audit.get("windows", 0)
    recovery = [r for seg in segments for r in seg["recovery_s"]]
    return {
        "cycles_per_s": len(window.cycle_ns) / seconds,
        "cycle_p50_ms": pct(window.cycle_ns, 50) / 1e6,
        "cycle_p90_ms": pct(window.cycle_ns, 90) / 1e6,
        "psync_p50_ms": pct(log.psync_ns, 50) / 1e6,
        "psync_p90_ms": pct(log.psync_ns, 90) / 1e6,
        "op_p50_us": pct(log.op_ns, 50) / 1e3,
        "op_p99_us": pct(log.op_ns, 99) / 1e3,
        "ok_ratio": 1.0 - sum(log.failed.values()) / max(1, log.attempted),
        "tew_mean_us": held / windows / 1e3 if windows else 0.0,
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "recovery_s": statistics.median(recovery) if recovery else 0.0,
        "daemon_rss_mb": max(s["daemon_rss_mb"] for s in segments),
    }


def _traced_input(seg: Dict[str, Any], window: Window,
                  e2e: Dict[str, float]) -> Dict[str, Any]:
    """What ``layers.per_layer`` reads from one traced segment."""
    log = window.log
    return dict(seg, e2e=e2e, attempted=log.attempted,
                user_bytes=log.user_bytes, wire_bytes=log.wire_bytes,
                psyncs=len(log.psync_ns))


async def benchmark(name: str, seed: int, seconds: float, trace: bool,
                    work: str) -> Dict[str, Any]:
    """``--trace 0``: ``SEGMENTS`` lifecycles, each measured for its
    share of ``seconds`` and crash-restarted ``RECOVERIES_PER_SEGMENT``
    times.  ``--trace 1``: one untraced and one traced lifecycle of
    ``seconds`` each."""
    if not trace:
        window = Window()
        segments = []
        for index in range(SEGMENTS):
            here = os.path.join(work, f"segment{index}")
            segments.append(await run_segment(
                name, seed, seconds / SEGMENTS, here, window,
                recoveries=RECOVERIES_PER_SEGMENT))
            shutil.rmtree(here, ignore_errors=True)
        values = end_to_end(segments, window, seconds)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
    else:
        plain_window, window = Window(), Window()
        plain = await run_segment(name, seed, seconds,
                                  os.path.join(work, "plain"),
                                  plain_window, recoveries=0)
        trace_dir = os.path.join(work, "spans")
        os.makedirs(trace_dir)
        durable = WORKLOADS[name].topology in ("durable", "replicated")
        traced = await run_segment(name, seed, seconds,
                                   os.path.join(work, "traced"), window,
                                   recoveries=1 if durable else 0,
                                   trace_dir=trace_dir)
        segments = [plain, traced]
        values = layers.per_layer(
            _traced_input(traced, window,
                          end_to_end([traced], window, seconds)),
            end_to_end([plain], plain_window, seconds))
        metrics = {k: (values[k], unit) for k, unit in layers.PER_LAYER}
    log = window.log
    return {
        "mismatches": [m for s in segments for m in s["mismatches"]],
        "attempted": log.attempted,
        "failed": sum(log.failed.values()),
        "failures": dict(log.failed),
        "samples": {"cycle": len(window.cycle_ns),
                    "psync": len(log.psync_ns), "op": len(log.op_ns)},
        "metrics": metrics,
    }


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="terpd benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "service",
                                       "server.py")):
        print("perfbench: run from the repository root (no "
              "src/repro/service here)", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so every daemon is still stopped.
    signal.signal(signal.SIGTERM, _interrupt)
    work = os.path.abspath(os.path.join(
        WORK_ROOT, f"{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    try:
        print("fingerprint " + json.dumps(fingerprint(work)), flush=True)
        result = asyncio.run(benchmark(args.workload, args.seed,
                                       args.seconds, bool(args.trace),
                                       work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print(f"samples {json.dumps(result['samples'])} "
          f"failures {json.dumps(result['failures'])}")
    for mismatch in result["mismatches"][:20]:
        print(f"MISMATCH {mismatch}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:44s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not result["mismatches"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The load generator runs under the daemons' fixed hash seed
        # too (see daemons.HASH_SEED).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
