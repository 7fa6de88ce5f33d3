"""``python -m repro.service`` — run the terpd daemon.

Examples::

    # TCP on the default port
    python -m repro.service --port 7077

    # Unix socket, tight 5ms session exposure budget, 1ms sweeps
    python -m repro.service --unix /tmp/terpd.sock \
        --session-ew-ms 5 --sweep-period-ms 1

The daemon serves until SIGINT/SIGTERM, then detaches every live
session and prints a final metrics report.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.pmo.store import DEFAULT_COMMIT_INTERVAL_US
from repro.service.server import (
    DEFAULT_SESSION_EW_NS, DEFAULT_SESSION_LINGER_NS,
    DEFAULT_SWEEP_PERIOD_NS, TerpService, fix_malloc_thresholds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="terpd: the TERP multi-tenant PMO daemon "
                    "(Table I API over length-prefixed JSON).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=7077,
                        help="TCP port; 0 picks an ephemeral port, "
                             "-1 disables TCP (default: %(default)s)")
    parser.add_argument("--unix", metavar="PATH", default=None,
                        help="also (or instead) serve on a Unix "
                             "socket at PATH")
    parser.add_argument("--ew-target-us", type=float, default=40.0,
                        help="arch engine EW target in us, the window-"
                             "combining horizon (default: %(default)s)")
    parser.add_argument("--session-ew-ms", type=float,
                        default=DEFAULT_SESSION_EW_NS / 1e6,
                        help="wall-clock exposure budget per session "
                             "in ms; the sweeper force-detaches "
                             "holdings older than this "
                             "(default: %(default)s)")
    parser.add_argument("--sweep-period-ms", type=float,
                        default=DEFAULT_SWEEP_PERIOD_NS / 1e6,
                        help="sweeper period in ms (default: "
                             "%(default)s)")
    parser.add_argument("--cb-capacity", type=int, default=32,
                        help="circular-buffer entries (default: "
                             "%(default)s)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="layout-randomization seed (default: "
                             "%(default)s)")
    parser.add_argument("--pool-dir", metavar="DIR", default=None,
                        help="durable pool directory: one CRC-guarded "
                             "file per PMO, flushed at psync through a "
                             "double-write journal, plus a session "
                             "journal enabling warm restart — start "
                             "again on the same DIR after a crash and "
                             "data, sessions, and the exposure clock "
                             "all survive")
    parser.add_argument("--commit-interval-us", type=int,
                        default=DEFAULT_COMMIT_INTERVAL_US,
                        help="group-commit window in us: how long the "
                             "flusher thread waits for more psyncs to "
                             "merge into one journal fsync; 0 commits "
                             "each batch as soon as the flusher is "
                             "free (default: %(default)s)")
    parser.add_argument("--replicate-to", metavar="HOST:PORT",
                        default=None,
                        help="stream every committed journal batch to "
                             "a warm standby (python -m "
                             "repro.replication) at HOST:PORT; "
                             "requires --pool-dir.  Commits wait for "
                             "the standby's ack while it is connected "
                             "(semi-sync), so an acked psync survives "
                             "primary death and promotion")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="run under cProfile and dump the stats "
                             "file to PATH on shutdown (inspect with "
                             "python -m pstats PATH)")
    parser.add_argument("--resume-linger-ms", type=float,
                        default=DEFAULT_SESSION_LINGER_NS / 1e6,
                        help="how long a dropped session's identity "
                             "lingers for token-based resume, in ms "
                             "(default: %(default)s)")
    parser.add_argument("--metrics-dump", metavar="PATH", default=None,
                        help="on shutdown, write the full observability "
                             "dump (metrics registry JSON, exposure "
                             "audit summary, trace stats) to PATH; "
                             "'-' writes to stdout")
    parser.add_argument("--no-obs", action="store_true",
                        help="run with observability in no-op mode "
                             "(every recorder short-circuits; the "
                             "overhead-measurement baseline)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress startup/shutdown chatter")
    return parser


def make_service(args: argparse.Namespace) -> TerpService:
    return TerpService(
        host=args.host,
        port=None if args.port < 0 else args.port,
        unix_path=args.unix,
        ew_target_us=args.ew_target_us,
        session_ew_ns=int(args.session_ew_ms * 1e6),
        sweep_period_ns=max(1, int(args.sweep_period_ms * 1e6)),
        cb_capacity=args.cb_capacity,
        seed=args.seed,
        obs_enabled=not args.no_obs,
        session_linger_ns=max(0, int(args.resume_linger_ms * 1e6)),
        pool_dir=args.pool_dir,
        commit_interval_us=max(0, args.commit_interval_us),
        replicate_to=args.replicate_to)


async def _amain(args: argparse.Namespace) -> int:
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    service = make_service(args)
    await service.start()
    if not args.quiet:
        where = []
        if service.bound_port is not None:
            where.append(f"tcp://{args.host}:{service.bound_port}")
        if args.unix:
            where.append(f"unix://{args.unix}")
        print(f"terpd serving on {' and '.join(where)} "
              f"(session EW budget {args.session_ew_ms}ms, "
              f"sweep every {args.sweep_period_ms}ms)", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:   # non-Unix event loops
            pass
    try:
        await stop.wait()
    finally:
        await service.stop()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            if not args.quiet:
                print(f"terpd profile written to {args.profile}",
                      flush=True)
        if args.metrics_dump:
            dump = json.dumps(service.dump_observability(), indent=2,
                              default=str)
            if args.metrics_dump == "-":
                print(dump, flush=True)
            else:
                with open(args.metrics_dump, "w",
                          encoding="utf-8") as fh:
                    fh.write(dump + "\n")
        if not args.quiet:
            print("terpd final metrics:", flush=True)
            print(json.dumps(service.metrics.to_dict(), indent=2),
                  flush=True)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fix_malloc_thresholds()
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
