"""``repro bench history``: the BENCH series as a queryable trend.

Every PR that touches performance leaves a ``BENCH_<n>.json`` behind
in ``benchmarks/results/``; this tool reads the whole numbered series
(any mix of schemas ``repro-bench/1`` .. ``/5``; a ``/5`` document's
wall clocks are medians over its repeats) and renders the trajectory:

* a run-by-run summary — wall clock, LAC seconds, cache hit counts,
  peak RSS where recorded — so the suite's speedup history (126s cold
  at PR 2 down to 8.4s cache-warm at PR 8) reads off one table;
* a per-stage wall-clock trend across runs, so "which stage got
  faster/slower between BENCH_3 and BENCH_4" needs no manual diffing;
* regression flags: between *comparable* adjacent runs (same mode,
  same quick flag, same circuit set — a cold baseline is not a
  regression of a warm run) a wall-clock increase beyond the
  threshold, a circuit that was ok and now fails, or a peak-RSS jump
  beyond the threshold is reported.

``python -m repro bench history`` (the only command-line entry point)
exits 0 unless ``--fail-on-regression`` is given and a flag fired:
history is primarily an artifact for reading, and older entries
legitimately differ (that is the point); CI uses the flag-free run as
a smoke gate that the series stays loadable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["load_history", "history_report"]


def _fmt_rss(n: Optional[float]) -> str:
    return f"{n / 1048576.0:.0f}M" if n else "-"


def load_history(out_dir: Path) -> List[Tuple[int, Dict[str, object]]]:
    """All ``BENCH_<n>.json`` documents in ``out_dir``, sorted by n.

    Raises :class:`~repro.errors.ReproError` if the directory has no
    BENCH files or one of them fails :func:`~repro.perf.bench.load_bench`
    — a corrupt series member should be loud, not silently skipped out
    of a trend.
    """
    from repro.perf.bench import _BENCH_RE, load_bench

    if not out_dir.is_dir():
        raise ReproError(f"bench history: no such directory: {out_dir}")
    docs: List[Tuple[int, Dict[str, object]]] = []
    for p in sorted(out_dir.iterdir()):
        m = _BENCH_RE.match(p.name)
        if not m:
            continue
        try:
            docs.append((int(m.group(1)), load_bench(p)))
        except ReproError as exc:
            raise ReproError(f"bench history: {exc}")
    if not docs:
        raise ReproError(f"bench history: no BENCH_<n>.json files in {out_dir}")
    docs.sort(key=lambda pair: pair[0])
    return docs


def _comparable(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Adjacent runs worth flagging regressions between."""
    names = lambda d: sorted(e["name"] for e in d["circuits"])  # noqa: E731
    return (
        a.get("mode") == b.get("mode")
        and a.get("quick") == b.get("quick")
        and names(a) == names(b)
    )


def _stage_trend(
    docs: Sequence[Tuple[int, Dict[str, object]]]
) -> List[str]:
    """Per-stage wall seconds across the series, one row per stage."""
    from repro.perf.bench import _stage_leaf, _stage_medians

    per_run: List[Dict[str, float]] = []
    names: List[str] = []
    for _, doc in docs:
        leaves: Dict[str, float] = {}
        for name, seconds in _stage_medians(doc).items():
            leaf = _stage_leaf(name)
            if "/" in leaf:  # nested retime/... views, not wall time
                continue
            leaves[leaf] = leaves.get(leaf, 0.0) + seconds
        per_run.append(leaves)
        for leaf in leaves:
            if leaf not in names:
                names.append(leaf)
    if not names:
        return []
    width = max(len(n) for n in names + ["stage"])
    header = f"{'stage':<{width}}" + "".join(
        f"  {'B' + str(n):>9}" for n, _ in docs
    )
    lines = [header]
    for name in names:
        cells = "".join(
            f"  {run[name]:>8.2f}s" if name in run else f"  {'-':>9}"
            for run in per_run
        )
        lines.append(f"{name:<{width}}{cells}")
    return lines


def history_report(
    docs: Sequence[Tuple[int, Dict[str, object]]],
    threshold: float = 0.25,
) -> Tuple[List[str], List[str]]:
    """Render the series; returns ``(report_lines, regression_lines)``."""
    report: List[str] = []
    regressions: List[str] = []

    report.append(
        f"{'bench':<8} {'schema':<14} {'mode':<5} {'cache':<5} "
        f"{'circ':>4} {'ok':>3} {'wall':>9} {'lac':>8} {'hits':>5} {'rss':>7}"
    )
    for n, doc in docs:
        totals = doc["totals"]
        circuits = doc["circuits"]
        ok = sum(1 for e in circuits if e.get("ok"))
        report.append(
            f"BENCH_{n:<2} {doc.get('schema', '?'):<14} "
            f"{doc.get('mode', '?'):<5} {str(doc.get('cache') or 'off'):<5} "
            f"{len(circuits):>4} {ok:>3} "
            f"{float(totals['wall_seconds']):>8.2f}s "
            f"{float(totals.get('lac_seconds', 0.0)):>7.2f}s "
            f"{totals.get('cache_hits', '-')!s:>5} "
            f"{_fmt_rss(totals.get('peak_rss_bytes')):>7}"
        )

    trend = _stage_trend(docs)
    if trend:
        report.append("")
        report.extend(trend)

    for (n_old, old), (n_new, new) in zip(docs, docs[1:]):
        if not _comparable(old, new):
            continue
        tag = f"BENCH_{n_old} -> BENCH_{n_new}"
        old_wall = float(old["totals"]["wall_seconds"])
        new_wall = float(new["totals"]["wall_seconds"])
        if old_wall > 0 and new_wall > old_wall * (1.0 + threshold):
            regressions.append(
                f"{tag}: wall regressed beyond {threshold:.0%}: "
                f"{old_wall:.2f}s -> {new_wall:.2f}s"
            )
        old_rss = old["totals"].get("peak_rss_bytes")
        new_rss = new["totals"].get("peak_rss_bytes")
        if old_rss and new_rss and new_rss > old_rss * (1.0 + threshold):
            regressions.append(
                f"{tag}: peak RSS regressed beyond {threshold:.0%}: "
                f"{_fmt_rss(old_rss)} -> {_fmt_rss(new_rss)}"
            )
        was_ok = {e["name"] for e in old["circuits"] if e.get("ok")}
        for entry in new["circuits"]:
            if entry["name"] in was_ok and not entry.get("ok"):
                regressions.append(
                    f"{tag}: {entry['name']} was ok, now fails "
                    f"({entry.get('error')})"
                )
    return report, regressions
