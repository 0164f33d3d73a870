"""Render a trace as a human-readable report.

``python -m repro trace summarize out.jsonl`` prints five sections,
after a list of the spans a killed run left unfinished, if any:

1. **Span tree** — spans aggregated by name at each nesting level,
   with call counts, total time, and *self* time (total minus the time
   covered by child spans), so "where did the wall clock go" is
   answerable at a glance;
2. **Stage table** — the same name/seconds/calls table the bench
   harness embeds in ``BENCH_<n>.json``, derived from the same spans
   (one source of truth: :meth:`repro.perf.PerfRecorder.ingest_spans`);
3. **Resilience ledger** — ``outcome.report()``'s ``resilience:``
   block, rebuilt by :meth:`repro.resilience.RunLedger.from_spans`;
4. **Convergence tables** — per LAC retiming: the min-area baseline's
   solve (engine, simplex iterations), then round-by-round
   ``N_FOA``/``N_F``/objective and tile-weight spread, marking rounds
   the solver replayed; per min-period
   search: every probe with candidate period, verdict, rounds and,
   for an infeasible probe, the length of its negative cycle;
5. **One-liners** — compile-cache lookups (hits, payload bytes, and
   search-input rebuilds by reason), floorplan annealing acceptance,
   FM cut trajectories, routing congestion and cost refreshes.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
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
    the time the spans spent in their own code. Closed spans whose
    parent never closed (a killed run) sit at the top level.
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

    walk([None] + [s.span_id for s in doc.unfinished], 0)
    return rows


def _format_tree(rows: Sequence[RollupRow]) -> List[str]:
    name_width = max(
        (
            2 * r.depth + len(r.name) + (len(f" ×{r.calls}") if r.calls > 1 else 0)
            for r in rows
        ),
        default=len("span"),
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


def _format_ledger(doc: TraceDocument) -> List[str]:
    from repro.resilience.ledger import RunLedger

    ledger = RunLedger.from_spans(doc.spans)
    return ledger.format().splitlines() if ledger.records else []


def _scope_of(doc: TraceDocument, span: SpanRecord) -> str:
    """Closest enclosing iteration label, for table headings."""
    by_id = {s.span_id: s for s in doc.spans + doc.unfinished}
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
        replayed = sum(1 for r in rounds if r.attrs.get("replayed"))
        lines.append(
            f"{title}: {len(rounds)} weighted min-area rounds "
            f"({replayed} replayed), best N_FOA={lac.attrs.get('n_foa', '?')}"
        )
        for base in doc.by_name("retime/min_area"):
            # The baseline shares LAC's parent and target period.
            if (base.parent_id, base.attrs.get("period")) == (
                lac.parent_id,
                lac.attrs.get("period"),
            ):
                a = base.attrs
                lines.append(
                    f"  min-area baseline: N_FOA={a.get('n_foa', '?')} "
                    f"N_F={a.get('n_f', '?')}, engine={a.get('engine', '?')}, "
                    f"{a.get('simplex_iterations', '?')} simplex iterations"
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
                + ("  replayed" if a.get("replayed") else "")
            )
    return lines


def _format_feas_tables(doc: TraceDocument) -> List[str]:
    lines: List[str] = []
    for search in doc.by_name("min_period/search"):
        probes = [s for s in doc.children_of(search) if s.name == "feas/probe"]
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
            f"  {'T':>9}  {'verdict':<10}  {'rounds':>6}  {'cycle':>5}  "
            f"{'seconds':>8}"
        )
        for p in probes:
            a = p.attrs
            rounds = a.get("rounds", "-")
            cycle = a.get("cycle_len", "-")
            lines.append(
                f"  {a.get('t', float('nan')):>9.4f}  "
                f"{a.get('verdict', '?'):<10}  {rounds!s:>6}  {cycle!s:>5}  "
                f"{p.elapsed:>7.3f}s"
            )
    return lines


def _format_compile(doc: TraceDocument) -> List[str]:
    lookups = [s for s in doc.by_name("compile") if "cache" in s.attrs]
    rebuilds = doc.by_name("compile/rebuild")
    if not lookups and not rebuilds:
        return []
    hits = sum(1 for s in lookups if s.attrs["cache"] == "hit")
    payload = sum(s.attrs.get("payload_bytes", 0) for s in lookups)
    reasons = Counter(s.attrs.get("reason", "?") for s in rebuilds)
    detail = ", ".join(f"{r} ×{n}" for r, n in sorted(reasons.items()))
    return [
        f"compile cache: {len(lookups)} lookups ({hits} hit), "
        f"{payload / 1024:.1f} KiB payload read/written; "
        f"{len(rebuilds)} search-input rebuilds"
        + (f" ({detail})" if detail else "")
    ]


def _format_one_liners(doc: TraceDocument) -> List[str]:
    lines: List[str] = _format_compile(doc)
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
            f"(max usage {a.get('max_usage', 0):.0f}), "
            f"{a.get('cost_refreshes', '?')} cost refreshes, "
            f"{a.get('topologies', '?')} Steiner builds, "
            f"{a.get('searches', '?')} maze searches"
        )
    for sp in doc.spans:
        n_rep = sp.attrs.get("n_repeaters")
        if n_rep is not None:
            lines.append(
                f"repeaters: {n_rep} inserted across "
                f"{sp.attrs.get('n_connections', '?')} connections"
            )
    return lines


def _format_unfinished(doc: TraceDocument) -> List[str]:
    """The spans that opened but never closed, nested, with open times."""
    if not doc.unfinished:
        return []
    t0 = min(s.start for s in doc.spans + doc.unfinished)
    depth: Dict[int, int] = {}
    lines = [f"unfinished: {len(doc.unfinished)} spans opened but never closed"]
    for span in doc.unfinished:
        depth[span.span_id] = depth.get(span.parent_id, -1) + 1
        scope = span.attrs.get("scope")
        label = f"{span.name} ({scope})" if scope else span.name
        lines.append(
            f"  {'  ' * depth[span.span_id]}{label}  opened at "
            f"{span.start - t0:.3f}s"
        )
    return lines


def summarize(doc: TraceDocument) -> str:
    """Render the full report for a parsed trace."""
    lines: List[str] = _format_unfinished(doc)
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
        _format_ledger(doc),
        _format_lac_tables(doc),
        _format_feas_tables(doc),
        _format_one_liners(doc),
    ):
        if section:
            lines.append("")
            lines.extend(section)
    return "\n".join(lines)
