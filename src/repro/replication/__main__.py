"""``python -m repro.replication`` — run a warm standby.

Examples::

    # Standby applying into ./standby-pool, listening on an ephemeral
    # port (printed on startup for the primary's --replicate-to):
    python -m repro.replication --pool-dir ./standby-pool \
        --listen-port 0

    # The primary ships to it:
    python -m repro.service --port 7077 --pool-dir ./primary-pool \
        --replicate-to 127.0.0.1:<standby port>

The standby applies shipped batches until it receives a ``promote``
control frame (or SIGINT/SIGTERM), at which point it either becomes a
live terpd on the requested port — recovery running verbatim over the
mirrored pool — or shuts down.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro.replication.applier import StandbyDaemon
from repro.service.server import (
    DEFAULT_SESSION_EW_NS, DEFAULT_SESSION_LINGER_NS,
    DEFAULT_SWEEP_PERIOD_NS, fix_malloc_thresholds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication",
        description="terpd warm standby: applies shipped journal "
                    "batches into its own pool directory; promotable "
                    "into a live terpd.")
    parser.add_argument("--pool-dir", metavar="DIR", required=True,
                        help="the standby's pool directory (the "
                             "primary's durable state is mirrored "
                             "here)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="replication bind address "
                             "(default: %(default)s)")
    parser.add_argument("--listen-port", type=int, default=7087,
                        help="replication port; 0 picks an ephemeral "
                             "port (default: %(default)s)")
    parser.add_argument("--ew-target-us", type=float, default=40.0,
                        help="promoted service: arch engine EW target "
                             "in us (default: %(default)s)")
    parser.add_argument("--session-ew-ms", type=float,
                        default=DEFAULT_SESSION_EW_NS / 1e6,
                        help="promoted service: session exposure "
                             "budget in ms (default: %(default)s)")
    parser.add_argument("--sweep-period-ms", type=float,
                        default=DEFAULT_SWEEP_PERIOD_NS / 1e6,
                        help="promoted service: sweeper period in ms "
                             "(default: %(default)s)")
    parser.add_argument("--cb-capacity", type=int, default=32,
                        help="promoted service: circular-buffer "
                             "entries (default: %(default)s)")
    parser.add_argument("--commit-interval-us", type=int, default=200,
                        help="promoted service: group-commit window "
                             "in us (default: %(default)s)")
    parser.add_argument("--resume-linger-ms", type=float,
                        default=DEFAULT_SESSION_LINGER_NS / 1e6,
                        help="promoted service: resume-token linger "
                             "in ms (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="promoted service: layout seed "
                             "(default: %(default)s)")
    parser.add_argument("--no-obs", action="store_true",
                        help="promoted service: observability in "
                             "no-op mode")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress startup/promotion chatter")
    return parser


def make_standby(args: argparse.Namespace) -> StandbyDaemon:
    service_kwargs = {
        "host": args.host,
        "ew_target_us": args.ew_target_us,
        "session_ew_ns": int(args.session_ew_ms * 1e6),
        "sweep_period_ns": max(1, int(args.sweep_period_ms * 1e6)),
        "cb_capacity": args.cb_capacity,
        "seed": args.seed,
        "obs_enabled": not args.no_obs,
        "session_linger_ns": max(0, int(args.resume_linger_ms * 1e6)),
        "commit_interval_us": max(0, args.commit_interval_us),
    }
    return StandbyDaemon(args.pool_dir, host=args.host,
                         port=args.listen_port,
                         service_kwargs=service_kwargs,
                         quiet=args.quiet)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fix_malloc_thresholds()
    standby = make_standby(args)
    port = standby.start()
    if not args.quiet:
        print(f"standby listening on {args.host}:{port} "
              f"(pool {args.pool_dir})", flush=True)
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        while not stop.is_set():
            stop.wait(0.25)
            # A promoted standby keeps serving until signalled; the
            # replication listener already refuses further applies.
    except KeyboardInterrupt:
        pass
    finally:
        if not args.quiet and standby.promoted:
            print("standby final applier status:", flush=True)
            print(json.dumps(standby.applier.status(), indent=2),
                  flush=True)
        standby.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
