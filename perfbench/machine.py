"""Machine fingerprint printed beside every run.

Context for comparing runs, not a gated metric: core count, the
filesystem the pool directories live on, the Python version, and a
30-sample probe of what that filesystem charges for the metadata
operations terpd's store makes on every commit (create + 4 KiB write +
fsync, and unlink).  It is printed on a line of its own before the
result, never folded into a metric.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Any, Dict, Tuple

PROBE_SAMPLES = 30


def _filesystem(path: str) -> Tuple[str, str]:
    """Type and options of the mount holding ``path`` (longest
    mount-point match); ``discard`` in the options, for one, makes
    every unlink of a written file wait on the device."""
    path = os.path.realpath(path)
    best, kind, options = "", "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind, options = mount, fields[2], fields[3]
    except OSError:
        pass
    return kind, options


def _probe(directory: str) -> Dict[str, float]:
    create_us, unlink_us = [], []
    page = b"\x5a" * 4096
    path = os.path.join(directory, "probe.tmp")
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter_ns()
        with open(path, "wb") as fh:
            fh.write(page)
            fh.flush()
            os.fsync(fh.fileno())
        t1 = time.perf_counter_ns()
        os.unlink(path)
        t2 = time.perf_counter_ns()
        create_us.append((t1 - t0) / 1e3)
        unlink_us.append((t2 - t1) / 1e3)
    return {
        "create_fsync_p50_us": statistics.median(create_us),
        "create_fsync_max_us": max(create_us),
        "unlink_p50_us": statistics.median(unlink_us),
        "unlink_max_us": max(unlink_us),
    }


def fingerprint(directory: str) -> Dict[str, Any]:
    kind, options = _filesystem(directory)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "filesystem": kind,
        "mount_options": options,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "probe": _probe(directory),
    }
