"""Render a trace as a human-readable report.

``python -m repro trace summarize out.jsonl`` prints four sections:

1. **Span tree** — spans aggregated by name at each nesting level,
   with call counts, total time, and *self* time (total minus the time
   covered by child spans), so "where did the wall clock go" is
   answerable at a glance;
2. **Stage table** — the same name/seconds/calls table the bench
   harness embeds in ``BENCH_<n>.json``, derived from the same spans
   (one source of truth: :meth:`repro.perf.PerfRecorder.ingest_spans`);
3. **Convergence tables** — per LAC retiming: round-by-round
   ``N_FOA``/``N_F``/objective and tile-weight spread; per min-period
   search: every FEAS probe with candidate period, verdict and rounds;
4. **One-liners** — floorplan annealing acceptance, FM cut
   trajectories, routing congestion.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.obs.export import SpanRecord, TraceDocument

__all__ = ["rollup", "summarize", "RollupRow"]


@dataclasses.dataclass
class RollupRow:
    """One aggregated line of the span tree."""

    depth: int
    name: str
    calls: int
    total: float
    self_time: float


def rollup(doc: TraceDocument) -> List[RollupRow]:
    """Aggregate the span forest by name at each nesting level.

    Spans sharing a name under the same (aggregated) parent group are
    merged: ``calls`` counts them, ``total`` sums their wall time, and
    ``self_time`` is ``total`` minus the wall time of their children —
    the time the spans spent in their own code.
    """
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for span in doc.spans:
        children.setdefault(span.parent_id, []).append(span)
    for group in children.values():
        group.sort(key=lambda s: s.start)

    rows: List[RollupRow] = []

    def walk(parent_ids: Sequence[Optional[int]], depth: int) -> None:
        merged: Dict[str, List[SpanRecord]] = {}
        for pid in parent_ids:
            for span in children.get(pid, []):
                merged.setdefault(span.name, []).append(span)
        for name, spans in merged.items():
            total = sum(s.elapsed for s in spans)
            covered = sum(
                c.elapsed for s in spans for c in children.get(s.span_id, [])
            )
            rows.append(
                RollupRow(depth, name, len(spans), total, total - covered)
            )
            walk([s.span_id for s in spans], depth + 1)

    walk([None], 0)
    return rows


def _format_tree(rows: Sequence[RollupRow]) -> List[str]:
    name_width = max(
        (2 * r.depth + len(r.name) + (len(f" ×{r.calls}") if r.calls > 1 else 0))
        for r in rows
    )
    name_width = max(name_width, len("span"))
    lines = [f"{'span':<{name_width}}  {'total':>9}  {'self':>9}"]
    for r in rows:
        label = "  " * r.depth + r.name + (f" ×{r.calls}" if r.calls > 1 else "")
        lines.append(
            f"{label:<{name_width}}  {r.total:>8.3f}s  {r.self_time:>8.3f}s"
        )
    return lines


def _fmt_rss(n: Optional[int]) -> str:
    return f"{n / 1048576.0:.1f}M" if n is not None else "-"


def _format_stage_table(doc: TraceDocument) -> List[str]:
    from repro.perf.recorder import PerfRecorder

    perf = PerfRecorder()
    perf.ingest_spans(doc.spans)
    stages = perf.stages
    if not stages:
        return ["(no stage spans)"]
    # Peak-RSS / CPU columns appear only when the resource monitor
    # stamped the spans; older traces render exactly as before.
    monitored = any(t.peak_rss_bytes is not None for t in stages)
    width = max(len(t.name) for t in stages)
    header = f"{'stage':<{width}}  {'seconds':>9}  calls"
    if monitored:
        header += f"  {'peak rss':>9}  {'cpu':>8}"
    lines = [header]
    for t in stages:
        line = f"{t.name:<{width}}  {t.seconds:>8.3f}s  {t.calls:>5}"
        if monitored:
            cpu = f"{t.cpu_seconds:.3f}s" if t.cpu_seconds is not None else "-"
            line += f"  {_fmt_rss(t.peak_rss_bytes):>9}  {cpu:>8}"
        lines.append(line)
    total = f"{'total':<{width}}  {perf.total_seconds:>8.3f}s"
    if monitored:
        total += f"  {'':>5}  {_fmt_rss(perf.peak_rss_bytes):>9}"
    lines.append(total)
    return lines


def _scope_of(doc: TraceDocument, span: SpanRecord) -> str:
    """Closest enclosing iteration label, for table headings."""
    by_id = {s.span_id: s for s in doc.spans}
    cur = span
    while cur.parent_id is not None:
        cur = by_id[cur.parent_id]
        if cur.name == "iteration":
            return f"iteration {cur.attrs.get('index', '?')}"
    return ""


def _format_lac_tables(doc: TraceDocument) -> List[str]:
    lines: List[str] = []
    for lac in doc.by_name("retime/lac"):
        rounds = sorted(
            doc.children_of(lac), key=lambda s: s.attrs.get("round", 0)
        )
        rounds = [r for r in rounds if r.name == "lac/round"]
        if not rounds:
            continue
        scope = _scope_of(doc, lac)
        title = "LAC convergence" + (f" ({scope})" if scope else "")
        lines.append(
            f"{title}: {len(rounds)} weighted min-area rounds, "
            f"best N_FOA={lac.attrs.get('n_foa', '?')}"
        )
        lines.append(
            f"  {'round':>5}  {'N_FOA':>5}  {'N_F':>5}  {'objective':>10}  "
            f"{'viol.tiles':>10}  {'w_max':>8}  {'seconds':>8}"
        )
        for r in rounds:
            a = r.attrs
            lines.append(
                f"  {a.get('round', '?'):>5}  {a.get('n_foa', '?'):>5}  "
                f"{a.get('n_f', '?'):>5}  {a.get('objective', 0.0):>10.1f}  "
                f"{len(a.get('violations', {})):>10}  "
                f"{a.get('weight_max', 1.0):>8.3f}  {r.elapsed:>7.3f}s"
            )
    return lines


def _format_feas_tables(doc: TraceDocument) -> List[str]:
    lines: List[str] = []
    for search in doc.by_name("min_period/search"):
        probes = [
            s
            for s in doc.children_of(search)
            if s.name in ("feas/probe", "feas/certify", "feas/refine")
        ]
        if not probes:
            continue
        probes.sort(key=lambda s: s.start)
        scope = _scope_of(doc, search)
        title = "min-period search" + (f" ({scope})" if scope else "")
        lines.append(
            f"{title}: engine={search.attrs.get('engine', '?')}, "
            f"{search.attrs.get('n_candidates', '?')} candidates, "
            f"T_min={search.attrs.get('t_min', float('nan')):.4f} "
            f"({len(probes)} probes)"
        )
        lines.append(
            f"  {'kind':<12}  {'T':>9}  {'verdict':<10}  {'rounds':>6}  "
            f"{'seconds':>8}"
        )
        for p in probes:
            a = p.attrs
            kind = p.name.split("/", 1)[1]
            rounds = a.get("rounds", "-")
            lines.append(
                f"  {kind:<12}  {a.get('t', float('nan')):>9.4f}  "
                f"{a.get('verdict', '?'):<10}  {rounds!s:>6}  {p.elapsed:>7.3f}s"
            )
    return lines


def _format_one_liners(doc: TraceDocument) -> List[str]:
    lines: List[str] = []
    for sa in doc.by_name("floorplan/anneal"):
        a = sa.attrs
        lines.append(
            f"floorplan anneal: {a.get('iterations', '?')} moves, "
            f"acceptance {a.get('acceptance_rate', 0.0):.1%}, "
            f"cost {a.get('initial_cost', 0.0):.1f} -> "
            f"{a.get('best_cost', 0.0):.1f}, final T={a.get('t_final', 0.0):.3g}"
        )
    fm_spans = doc.by_name("partition/fm")
    if fm_spans:
        cuts = [
            (s.attrs.get("initial_cut", "?"), s.attrs.get("final_cut", "?"))
            for s in fm_spans
        ]
        trajectory = ", ".join(f"{a}->{b}" for a, b in cuts)
        lines.append(f"FM bipartitions ({len(fm_spans)}): cut {trajectory}")
    for rt in doc.by_name("route/global"):
        a = rt.attrs
        lines.append(
            f"routing: {a.get('nets', '?')} nets, "
            f"wirelength {a.get('wirelength_tiles', '?')} tiles, "
            f"overflow {a.get('overflowed_cells', 0):.0f} cells "
            f"(max usage {a.get('max_usage', 0):.0f})"
        )
    for sp in doc.spans:
        n_rep = sp.attrs.get("n_repeaters")
        if n_rep is not None:
            lines.append(
                f"repeaters: {n_rep} inserted across "
                f"{sp.attrs.get('n_connections', '?')} connections"
            )
    return lines


def summarize(doc: TraceDocument) -> str:
    """Render the full report for a parsed trace."""
    lines: List[str] = []
    for root in doc.roots():
        if root.name == "plan":
            a = root.attrs
            lines.append(
                f"plan {a.get('circuit', '?')}: "
                f"{'converged' if a.get('converged') else 'not converged'}, "
                f"{a.get('iterations', '?')} iteration(s), "
                f"{root.elapsed:.3f}s"
            )
    if lines:
        lines.append("")
    lines.extend(_format_tree(rollup(doc)))
    lines.append("")
    lines.extend(_format_stage_table(doc))
    for section in (
        _format_lac_tables(doc),
        _format_feas_tables(doc),
        _format_one_liners(doc),
    ):
        if section:
            lines.append("")
            lines.extend(section)
    return "\n".join(lines)
