"""Start one terpd process, optionally with layer tracing installed.

Usage::

    python perfbench/launcher.py [--trace-dir DIR --role NAME \
        --trace-every N] MODULE [ARGS...]

runs ``python -m MODULE ARGS...`` in this process.  With
``--trace-dir``, :func:`tracer.install` wraps the layer entry points
first, so the daemon (and every process it forks) records spans for
one frame in ``N``, and ``SIGUSR1`` writes them to
``DIR/spans-NAME-<pid>.json``.
"""

from __future__ import annotations

import argparse
import runpy
import sys


def main(argv) -> None:
    parser = argparse.ArgumentParser(prog="launcher.py")
    parser.add_argument("--trace-dir")
    parser.add_argument("--role", default="daemon")
    parser.add_argument("--trace-every", type=int, default=1)
    parser.add_argument("module")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    if opts.trace_dir is not None:
        import tracer
        tracer.install(opts.trace_dir, opts.role, opts.trace_every)
    sys.argv = [opts.module] + opts.args
    runpy.run_module(opts.module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
