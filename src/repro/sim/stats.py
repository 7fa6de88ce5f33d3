"""Run results: everything the evaluation tables and figures consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.arch.params import CostBreakdown
from repro.core.exposure import ExposureMonitor, WindowStats
from repro.core.runtime import RuntimeCounters
from repro.core.units import ns_to_us


@dataclass
class PmoExposure:
    """Per-PMO exposure summary (Tables III/IV are averages of these)."""

    pmo: Hashable
    ew_avg_us: float
    ew_max_us: float
    er_percent: float
    tew_avg_us: float
    ter_percent: float


@dataclass
class RunResult:
    """The complete outcome of one simulated run."""

    wall_ns: int
    baseline_ns: int
    breakdown: CostBreakdown
    counters: RuntimeCounters
    per_pmo: List[PmoExposure]
    blocked_ns: int = 0
    num_threads: int = 1
    #: populated when the run used the TERP architecture engine
    arch_cases: Optional[object] = None

    @property
    def overhead_percent(self) -> float:
        """Execution-time overhead over the unprotected baseline."""
        if self.baseline_ns == 0:
            return 0.0
        return 100.0 * (self.wall_ns - self.baseline_ns) / self.baseline_ns

    @property
    def silent_percent(self) -> float:
        return self.counters.silent_percent

    @property
    def cond_per_second(self) -> float:
        """Conditional attach/detach executed per second of run time."""
        if self.wall_ns == 0:
            return 0.0
        calls = self.counters.attach_calls + self.counters.detach_calls
        return calls / (self.wall_ns / 1e9)

    # -- aggregate exposure (averaged over PMOs, as in Table IV) ----------

    def _avg(self, attr: str) -> float:
        if not self.per_pmo:
            return 0.0
        return sum(getattr(p, attr) for p in self.per_pmo) / len(self.per_pmo)

    @property
    def ew_avg_us(self) -> float:
        return self._avg("ew_avg_us")

    @property
    def ew_max_us(self) -> float:
        if not self.per_pmo:
            return 0.0
        return max(p.ew_max_us for p in self.per_pmo)

    @property
    def er_percent(self) -> float:
        return self._avg("er_percent")

    @property
    def tew_avg_us(self) -> float:
        return self._avg("tew_avg_us")

    @property
    def ter_percent(self) -> float:
        return self._avg("ter_percent")

    def overhead_breakdown_percent(self) -> Dict[str, float]:
        """Each cost category as % of baseline time (Figure 9 bars)."""
        if self.baseline_ns == 0:
            return {}
        from repro.core.units import cycles_to_ns
        out = {}
        for category, cycles in self.breakdown.cycles.items():
            out[category] = 100.0 * cycles_to_ns(cycles) / self.baseline_ns
        return out

    def to_dict(self) -> Dict:
        """JSON-serializable summary for external tooling."""
        return {
            "wall_ns": self.wall_ns,
            "baseline_ns": self.baseline_ns,
            "overhead_percent": self.overhead_percent,
            "silent_percent": self.silent_percent,
            "cond_per_second": self.cond_per_second,
            "blocked_ns": self.blocked_ns,
            "num_threads": self.num_threads,
            "breakdown_percent": self.overhead_breakdown_percent(),
            "counters": {
                "attach_calls": self.counters.attach_calls,
                "detach_calls": self.counters.detach_calls,
                "attach_syscalls": self.counters.attach_syscalls,
                "detach_syscalls": self.counters.detach_syscalls,
                "randomizations": self.counters.randomizations,
                "faults": self.counters.faults,
                "errors": self.counters.errors,
            },
            "per_pmo": [{
                "pmo": str(p.pmo),
                "ew_avg_us": p.ew_avg_us,
                "ew_max_us": p.ew_max_us,
                "er_percent": p.er_percent,
                "tew_avg_us": p.tew_avg_us,
                "ter_percent": p.ter_percent,
            } for p in self.per_pmo],
        }


def collect_exposure(monitor: ExposureMonitor, wall_ns: int,
                     num_threads: int) -> List[PmoExposure]:
    """Summarize the monitor's windows per PMO."""
    result = []
    for pmo in monitor.ew.keys():
        ew_stats = monitor.ew.stats(pmo)
        tew_stats = WindowStats()
        for key in monitor.tew.keys():
            if isinstance(key, tuple) and key[1] == pmo:
                tew_stats.merge(monitor.tew.stats(key))
        total_tew_ns = tew_stats.total_ns
        result.append(PmoExposure(
            pmo=pmo,
            ew_avg_us=ns_to_us(ew_stats.avg_ns),
            ew_max_us=ns_to_us(ew_stats.max_ns),
            er_percent=(100.0 * ew_stats.total_ns / wall_ns
                        if wall_ns else 0.0),
            tew_avg_us=ns_to_us(tew_stats.avg_ns),
            # TER normalizes per thread: total thread-window time over
            # total thread-time (threads x wall clock).
            ter_percent=(100.0 * total_tew_ns / (wall_ns * num_threads)
                         if wall_ns else 0.0),
        ))
    return result
