"""Fast self-test of the benchmark.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload for a few seconds, untraced and traced, and checks
that each run is correct and emits every metric ``BENCHMARK.json``
names (or, without that file, every metric ``run.py`` and
``layers.py`` define) with a unit and a finite value.  Checks the
layer accounting on the two workloads it is stated for:

* ``durable-write``: ``account.psync_share`` is at least
  ``PSYNC_SHARE_MIN`` -- the store and its device calls explain the
  psync;
* ``read-mostly``: ``account.op_gap`` is at most ``OP_GAP_MAX`` --
  the request-path layers plus the transport, which add up to each
  matched op, describe the ops ``op_p50_us`` measures.

Then runs two workloads with a deliberately wrong expected value and
checks that the correctness check fails the run.  Exits 0 when every
check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = "3"
PSYNC_SHARE_MIN = 0.85
OP_GAP_MAX = 0.15


def _run(*argv: str):
    """``run.main`` in-process; returns (exit code, last JSON line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _expected_names():
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return ([n for n, _ in run.END_TO_END],
                [n for n, _ in layers.PER_LAYER])
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    e2e_names, layer_names = _expected_names()
    traced = {}
    for name in workloads.WORKLOADS:
        for trace, names in (("0", e2e_names), ("1", layer_names)):
            code, result = _run("--workload", name, "--seed", "7",
                                "--seconds", SECONDS, "--trace", trace)
            what = f"{name} trace {trace}"
            check(code == 0 and result["correct"], f"{what}: correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what}: {result['attempted']} ops, "
                  f"{result['failed']} failed")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(names),
                  f"{what}: emits exactly the listed metrics")
            check(all(isinstance(m.get("unit"), str) and m["unit"] and
                      isinstance(m.get("value"), (int, float)) and
                      math.isfinite(m["value"])
                      for m in metrics.values()),
                  f"{what}: every metric has a unit and a finite value")
            if trace == "1":
                traced[name] = {k: m["value"] for k, m in metrics.items()}

    share = traced["durable-write"]["account.psync_share"]
    check(share >= PSYNC_SHARE_MIN,
          f"durable-write: pmo.store explains {share:.2f} of a psync "
          f"(>= {PSYNC_SHARE_MIN})")
    gap = traced["read-mostly"]["account.op_gap"]
    check(gap <= OP_GAP_MAX,
          f"read-mostly: the matched ops' median is within {gap:.2f} "
          f"of op_p50_us (<= {OP_GAP_MAX})")

    original = workloads.CycleLog.check

    def wrong(self, what, got, want):
        if want is not None:
            want = bytes([want[0] ^ 0xFF]) + want[1:]
        original(self, what, got, want)

    workloads.CycleLog.check = wrong
    try:
        for name in ("durable-write", "read-mostly"):
            code, result = _run("--workload", name, "--seed", "7",
                                "--seconds", "1", "--trace", "0")
            check(code == 1 and result["correct"] is False,
                  f"{name}: a wrong expected value fails the run")
    finally:
        workloads.CycleLog.check = original

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
