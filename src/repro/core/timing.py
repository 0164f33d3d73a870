"""Timing analysis of (retimed) circuits: arrivals, slacks, critical paths.

Early planning lives and dies by where the slack went; this module
reports it. All quantities are combinational-stage values on the
expanded retiming graph: arrival times are longest register-free path
delays (endpoint included), slack is measured against a target period,
and the critical path is the argmax arrival chain.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.netlist.graph import CircuitGraph


@dataclasses.dataclass
class TimingReport:
    """Slack summary of one circuit against a target period."""

    period: float
    arrivals: Dict[str, float]
    critical_path: List[str]

    @property
    def worst_arrival(self) -> float:
        return max(self.arrivals.values()) if self.arrivals else 0.0

    @property
    def worst_slack(self) -> float:
        return self.period - self.worst_arrival

    @property
    def met(self) -> bool:
        return self.worst_slack >= -1e-9

    def slack(self, unit: str) -> float:
        return self.period - self.arrivals[unit]

    def slack_histogram(self, bins: int = 8) -> List[Tuple[float, float, int]]:
        """``(lo, hi, count)`` triples over the slack distribution."""
        slacks = [self.period - a for a in self.arrivals.values()]
        if not slacks:
            return []
        lo, hi = min(slacks), max(slacks)
        if hi - lo < 1e-12:
            return [(lo, hi, len(slacks))]
        width = (hi - lo) / bins
        counts = [0] * bins
        for s in slacks:
            idx = min(bins - 1, int((s - lo) / width))
            counts[idx] += 1
        return [
            (lo + i * width, lo + (i + 1) * width, counts[i])
            for i in range(bins)
        ]

    def format(self, top: int = 5) -> str:
        """Human-readable summary."""
        lines = [
            f"target period : {self.period:.3f}",
            f"worst arrival : {self.worst_arrival:.3f} "
            f"(slack {self.worst_slack:+.3f}, {'MET' if self.met else 'VIOLATED'})",
            f"critical path : {' -> '.join(self.critical_path)}",
            "slack histogram:",
        ]
        for lo, hi, count in self.slack_histogram():
            bar = "#" * min(count, 60)
            lines.append(f"  [{lo:+8.2f}, {hi:+8.2f}) {count:>5} {bar}")
        ordered = sorted(self.arrivals.items(), key=lambda kv: -kv[1])[:top]
        lines.append(f"{top} latest arrivals:")
        for unit, arr in ordered:
            lines.append(f"  {unit}: {arr:.3f} (slack {self.period - arr:+.3f})")
        return "\n".join(lines)


def timing_report(graph: CircuitGraph, period: float) -> TimingReport:
    """Analyse ``graph`` against ``period``.

    Raises:
        NetlistError: ``graph`` has a combinational (zero-weight) cycle.
    """
    # Function-level import: importing repro.verify loads its checkers,
    # which every `import repro.core` (e.g. each serve worker) would pay.
    from repro.verify.timing import unit_arrivals

    arrivals = unit_arrivals(graph)
    critical = _critical_path(graph, arrivals)
    return TimingReport(period=period, arrivals=arrivals, critical_path=critical)


def _critical_path(
    graph: CircuitGraph, arrivals: Dict[str, float]
) -> List[str]:
    """Trace the argmax arrival back through zero-weight predecessors."""
    if not arrivals:
        return []
    end = max(arrivals, key=arrivals.get)
    path = [end]
    tol = 1e-9
    current = end
    while True:
        best_pred: Optional[str] = None
        for (u, v, _k), w in graph.in_connections(current):
            if w != 0:
                continue
            if abs(arrivals[u] + graph.delay(current) - arrivals[current]) < tol:
                best_pred = u
                break
        if best_pred is None or best_pred in path:
            break
        path.append(best_pred)
        current = best_pred
    return list(reversed(path))
