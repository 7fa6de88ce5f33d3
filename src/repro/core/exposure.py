"""Exposure-window accounting (Definition 5 and the Table III metrics).

Two granularities are tracked, mirroring the paper's EW/TEW split:

* **Exposure window (EW)** — a contiguous interval during which a PMO
  is mapped in the process address space (accessible by *any* thread
  of the process).
* **Thread exposure window (TEW)** — a contiguous interval during
  which one specific thread holds access permission to the PMO.

From the recorded intervals we derive the reported metrics (the
tracker keeps per-key running aggregates, never the intervals
themselves, so a long-lived daemon's memory stays flat):

* ``avg``/``max`` window size,
* **ER** (exposure rate) = total exposed time / total execution time,
* **TER** likewise over thread windows.

The tracker is purely observational: the semantics engine and runtime
call :meth:`open`/:meth:`close`; nothing here affects protection
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional

from repro.core.errors import TerpError


@dataclass(frozen=True)
class Window:
    """One closed exposure interval ``[start_ns, end_ns)``."""

    start_ns: int
    end_ns: int

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class WindowStats:
    """Running summary statistics over a set of windows."""

    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    min_ns: int = 0

    @property
    def avg_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def add(self, length_ns: int) -> None:
        if not self.count or length_ns > self.max_ns:
            self.max_ns = length_ns
        if not self.count or length_ns < self.min_ns:
            self.min_ns = length_ns
        self.count += 1
        self.total_ns += length_ns

    def merge(self, other: "WindowStats") -> None:
        if not other.count:
            return
        if not self.count or other.max_ns > self.max_ns:
            self.max_ns = other.max_ns
        if not self.count or other.min_ns < self.min_ns:
            self.min_ns = other.min_ns
        self.count += other.count
        self.total_ns += other.total_ns

    @classmethod
    def of(cls, windows: Iterable[Window]) -> "WindowStats":
        stats = cls()
        for window in windows:
            stats.add(window.length_ns)
        return stats


class WindowTracker:
    """Records open/close events for windows keyed by an arbitrary key.

    For EWs the key is the PMO id; for TEWs it is ``(thread_id, pmo_id)``.
    """

    def __init__(self) -> None:
        self._open: Dict[Hashable, int] = {}
        self._closed: Dict[Hashable, WindowStats] = {}

    def open(self, key: Hashable, now_ns: int) -> None:
        """Begin a window; opening an already-open window is an error
        (it would mean the semantics engine lost track of state)."""
        if key in self._open:
            raise TerpError(f"window for {key!r} already open")
        self._open[key] = now_ns

    def close(self, key: Hashable, now_ns: int) -> Window:
        """End the open window for ``key`` and return it."""
        try:
            start = self._open.pop(key)
        except KeyError:
            raise TerpError(f"no open window for {key!r}") from None
        if now_ns < start:
            raise TerpError(
                f"window for {key!r} closes at {now_ns} before open {start}")
        window = Window(start, now_ns)
        stats = self._closed.get(key)
        if stats is None:
            stats = self._closed[key] = WindowStats()
        stats.add(now_ns - start)
        return window

    def is_open(self, key: Hashable) -> bool:
        return key in self._open

    def shift_open(self, key: Hashable, new_start_ns: int) -> None:
        """Move an open window's start forward (e.g. to exclude the
        syscall processing time from the usable exposure window)."""
        start = self._open.get(key)
        if start is None:
            raise TerpError(f"no open window for {key!r}")
        if new_start_ns < start:
            raise TerpError("cannot shift a window start backwards")
        self._open[key] = new_start_ns

    def open_since(self, key: Hashable) -> Optional[int]:
        return self._open.get(key)

    def current_length(self, key: Hashable, now_ns: int) -> int:
        """Length of the currently open window, 0 if closed."""
        start = self._open.get(key)
        return 0 if start is None else now_ns - start

    def finish(self, now_ns: int) -> None:
        """Close every still-open window at end of run."""
        for key in list(self._open):
            self.close(key, now_ns)

    def keys(self) -> List[Hashable]:
        seen = set(self._closed) | set(self._open)
        return sorted(seen, key=repr)

    def stats(self, key: Hashable = None) -> WindowStats:
        """Closed-window statistics for ``key``, or over every key when
        key is None (a copy: the caller may merge into it)."""
        if key is None:
            parts: Iterable[WindowStats] = self._closed.values()
        else:
            parts = [self._closed[key]] if key in self._closed else []
        out = WindowStats()
        for stats in parts:
            out.merge(stats)
        return out

    def exposure_rate(self, total_ns: int, key: Hashable = None) -> float:
        """Total exposed time / total time (the paper's ER / TER)."""
        if total_ns <= 0:
            return 0.0
        return self.stats(key).total_ns / total_ns


@dataclass
class ExposureReport:
    """The per-workload row shape of Tables III and IV."""

    ew_avg_us: float
    ew_max_us: float
    er_percent: float
    tew_avg_us: float = 0.0
    ter_percent: float = 0.0
    silent_percent: float = 0.0
    cond_per_second: float = 0.0


class ExposureMonitor:
    """Aggregates EW and TEW trackers for one simulated run."""

    def __init__(self) -> None:
        self.ew = WindowTracker()
        self.tew = WindowTracker()

    # EW: keyed by pmo_id -------------------------------------------------
    def pmo_mapped(self, pmo_id: Hashable, now_ns: int) -> None:
        self.ew.open(pmo_id, now_ns)

    def pmo_unmapped(self, pmo_id: Hashable, now_ns: int) -> Window:
        return self.ew.close(pmo_id, now_ns)

    # TEW: keyed by (thread_id, pmo_id) ------------------------------------
    def thread_granted(self, thread_id: int, pmo_id: Hashable,
                       now_ns: int) -> None:
        self.tew.open((thread_id, pmo_id), now_ns)

    def thread_revoked(self, thread_id: int, pmo_id: Hashable,
                       now_ns: int) -> Window:
        return self.tew.close((thread_id, pmo_id), now_ns)

    def finish(self, now_ns: int) -> None:
        self.ew.finish(now_ns)
        self.tew.finish(now_ns)

    def report(self, total_ns: int, *, silent_percent: float = 0.0,
               cond_per_second: float = 0.0) -> ExposureReport:
        """Produce the Table III/IV row for this run."""
        from repro.core.units import ns_to_us
        ew_stats = self.ew.stats()
        tew_stats = self.tew.stats()
        return ExposureReport(
            ew_avg_us=ns_to_us(ew_stats.avg_ns),
            ew_max_us=ns_to_us(ew_stats.max_ns),
            er_percent=100.0 * self.ew.exposure_rate(total_ns),
            tew_avg_us=ns_to_us(tew_stats.avg_ns),
            ter_percent=100.0 * self.tew.exposure_rate(total_ns),
            silent_percent=silent_percent,
            cond_per_second=cond_per_second,
        )
