"""The ``repro bench`` runner: planner timings as ``BENCH_<n>.json``.

The library behind ``python -m repro bench`` (the only command-line
entry point; this module has none of its own): :func:`run_bench` /
:func:`write_bench` produce a document, :func:`load_bench` reads and
validates one back, :func:`compare_bench` diffs two.

Each run produces one JSON document (schema ``repro-bench/3``)::

    {
      "schema": "repro-bench/3",
      "mode": "warm",                 # warm-started LAC solver
      "quick": bool,
      "circuits": [
        {
          "name": "s298", "ok": true,
          "t_clk": ..., "n_wr": ..., "n_foa": ..., "n_f": ...,
          "ma_seconds": ...,          # min-area baseline (null if skipped)
          "lac_seconds": ...,         # whole LAC stage, first iteration
          "lac_round_seconds": [...], # per weighted-min-area round
          "solver": {...},            # IncrementalStats
          "stages": [{"name", "seconds", "calls"}, ...],
          "stage_coverage": ...,      # recorded top-level stage s / wall s
          "wall_seconds": ...
        }, ...
      ],
      "totals": {"wall_seconds", "lac_seconds", "ma_seconds", "n_wr"}
    }

Schema ``/2`` additions over ``/1``: circuit construction is recorded
as a ``build`` stage, the planner records the solve front half,
``min_period`` and ``retime/constraints`` as first-class stages, and
every entry carries ``stage_coverage`` — the fraction of its wall
clock accounted for by recorded top-level stages. A coverage floor can
be enforced with ``--min-stage-coverage`` (CI uses it to catch new
unrecorded bottlenecks).

Schema ``/3`` additions over ``/2``: the compiled-circuit cache
(:mod:`repro.compile`) is surfaced — the document carries ``"cache"``
(``"auto"`` with ``--cache-dir``, else ``"off"``), each ok entry
carries ``cache_hits``/``cache_misses`` plus ``compile_seconds`` and
``solve_seconds`` (the compile-vs-solve split of the retiming stages),
and the totals sum all four. ``--compare`` accepts ``/2`` documents:
the new fields are absent there and simply not compared.

Schema ``/4`` additions over ``/3``: resource telemetry from the
:mod:`repro.obs.monitor` sampler — each ok entry carries
``peak_rss_bytes`` (the run's RSS high-water mark), its stage rows may
carry ``peak_rss_bytes``/``cpu_seconds``, and the totals carry the
max ``peak_rss_bytes`` across circuits. All optional: documents from
monitorless runs (or older schemas) simply omit them, and ``--compare``
ignores absent fields. ``repro bench history`` reads a directory of
BENCH files into a per-stage wall/RSS trend report.

Files are numbered ``BENCH_0.json``, ``BENCH_1.json``, ... — the next
free integer in the output directory — so successive runs sit side by
side for comparison. Documents written before the cold LAC path was
removed may carry ``"mode": "cold"`` and an ``"engine"`` field; they
stay loadable, and ``bench history`` only compares runs of equal mode.

Circuits run through :func:`~repro.resilience.batch.run_batch`: one
that fails with a :class:`~repro.errors.ReproError` is recorded as
``{"ok": false, "error": ...}`` and benching continues; only a crash
(non-repro exception) aborts the run.
"""

from __future__ import annotations

import functools
import json
import re
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compile import CompileCache
from repro.core.context import RunContext
from repro.core.planner import plan_interconnect
from repro.errors import InterruptedRunError, ReproError
from repro.experiments.circuits import (
    TABLE1_CIRCUITS,
    TABLE1_SMOKE,
    CircuitSpec,
    get_circuit,
    run_settings,
)
from repro.ioutil import atomic_write
from repro.perf.recorder import PerfRecorder
from repro.resilience.batch import BatchItem, run_batch

BENCH_SCHEMA = "repro-bench/4"


def _stage_leaf(name: str) -> str:
    """Strip the scope prefix off a ledger stage name."""
    return name.rsplit(" · ", 1)[-1]


#: Stage leaves that make up the retiming *solve* half.
_SOLVE_STAGES = {"min_period", "retime"}


def bench_circuit(
    spec: CircuitSpec,
    quick: bool = False,
    cache: Optional[CompileCache] = None,
) -> Dict[str, object]:
    """Bench one circuit; returns its entry for the JSON document.

    ``cache`` is the compiled-circuit cache shared across the bench
    run; without one the cache is off, so every run compiles fresh.
    A failed plan raises its :class:`~repro.errors.ReproError`;
    :func:`run_bench` records it as a failed entry.
    """
    perf = PerfRecorder()
    if cache is None:
        cache = CompileCache(mode="off")
    iterations, overrides = run_settings(quick)
    hits0, misses0 = cache.stats.hits, cache.stats.misses
    start = time.perf_counter()
    with perf.stage("build"):
        graph = spec.build()
    outcome = plan_interconnect(
        graph,
        ctx=RunContext(perf=perf, compile_cache=cache),
        max_iterations=iterations,
        **spec.plan_kwargs(),
        **overrides,
    )
    wall = time.perf_counter() - start
    first = outcome.iterations[0]
    lac = first.lac
    stages = perf.to_dict()["stages"]
    compile_seconds = sum(
        float(s["seconds"]) for s in stages if _stage_leaf(s["name"]) == "compile"
    )
    solve_seconds = sum(
        float(s["seconds"]) for s in stages if _stage_leaf(s["name"]) in _SOLVE_STAGES
    )
    return {
        "name": spec.name,
        "ok": True,
        "t_clk": first.t_clk,
        "infeasible": first.infeasible,
        "n_wr": lac.n_wr if lac is not None else None,
        "n_foa": lac.report.n_foa if lac is not None else None,
        "n_f": lac.report.n_f if lac is not None else None,
        "ma_seconds": (
            round(first.min_area.seconds, 6)
            if first.min_area is not None
            else None
        ),
        "lac_seconds": round(first.lac_seconds, 6),
        "lac_round_seconds": (
            [round(s, 6) for s in lac.round_seconds] if lac is not None else []
        ),
        "solver": lac.solver_stats if lac is not None else None,
        "stages": stages,
        "stage_coverage": round(perf.total_seconds / wall, 4) if wall else 1.0,
        "wall_seconds": round(wall, 6),
        "cache_hits": cache.stats.hits - hits0,
        "cache_misses": cache.stats.misses - misses0,
        "compile_seconds": round(compile_seconds, 6),
        "solve_seconds": round(solve_seconds, 6),
        "peak_rss_bytes": perf.peak_rss_bytes,
    }


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    verbose: bool = False,
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Bench a set of circuits and return the full document.

    With ``cache_dir`` the compiled-circuit cache is on (mode
    ``"auto"``): a first run populates it, a second run over the same
    circuits is the cache-warm timing. Without it the cache is off and
    every circuit compiles from scratch — the cold timing.
    """
    if names:
        specs = [get_circuit(n) for n in names]
    else:
        specs = list(TABLE1_SMOKE if quick else TABLE1_CIRCUITS)
    cache = CompileCache(cache_dir) if cache_dir else CompileCache(mode="off")

    def _report(item: BatchItem) -> None:
        if item.ok:
            entry = item.result
            print(
                f"{item.name:>8}: lac={entry['lac_seconds']:.3f}s "
                f"n_wr={entry['n_wr']} wall={entry['wall_seconds']:.3f}s "
                f"coverage={entry['stage_coverage']:.0%}"
            )
        else:
            print(f"{item.name:>8}: FAILED ({item.error})")

    batch = run_batch(
        [
            (spec.name, functools.partial(bench_circuit, spec, quick=quick, cache=cache))
            for spec in specs
        ],
        on_item=_report if verbose else None,
    )
    if batch.interrupted:
        raise InterruptedRunError()
    entries: List[Dict[str, object]] = [
        item.result
        if item.ok
        else {
            "name": item.name,
            "ok": False,
            "error": item.error,
            "wall_seconds": round(item.seconds, 6),
        }
        for item in batch.items
    ]
    ok = [e for e in entries if e["ok"]]
    totals = {
        "wall_seconds": round(sum(e["wall_seconds"] for e in entries), 6),
        "lac_seconds": round(sum(e["lac_seconds"] for e in ok), 6),
        "ma_seconds": round(
            sum(e["ma_seconds"] for e in ok if e["ma_seconds"] is not None), 6
        ),
        "n_wr": sum(e["n_wr"] for e in ok if e["n_wr"] is not None),
        "cache_hits": sum(e.get("cache_hits", 0) for e in ok),
        "cache_misses": sum(e.get("cache_misses", 0) for e in ok),
        "compile_seconds": round(
            sum(e.get("compile_seconds", 0.0) for e in ok), 6
        ),
        "solve_seconds": round(sum(e.get("solve_seconds", 0.0) for e in ok), 6),
        # Max, not sum: circuits run sequentially, so the suite's
        # high-water mark is the biggest single circuit's.
        "peak_rss_bytes": max(
            (e["peak_rss_bytes"] for e in ok if e.get("peak_rss_bytes")),
            default=None,
        ),
    }
    return {
        "schema": BENCH_SCHEMA,
        "mode": "warm",
        "quick": quick,
        "cache": "auto" if cache_dir else "off",
        "circuits": entries,
        "totals": totals,
    }


def _stage_totals(doc: Dict[str, object]) -> Dict[str, float]:
    """Per-stage seconds summed over the document's ok circuits."""
    totals: Dict[str, float] = {}
    for entry in doc["circuits"]:
        if not entry.get("ok"):
            continue
        for stage in entry.get("stages", []):
            name = stage["name"]
            totals[name] = totals.get(name, 0.0) + float(stage["seconds"])
    return totals


def load_bench(path: Path | str) -> Dict[str, object]:
    """Read one bench document from ``path``.

    Raises :class:`~repro.errors.ReproError` when the file cannot be
    read, is not valid JSON, or is not a bench document (an object
    with ``totals`` and ``circuits``) — so a caller can tell "cannot
    compare" from a regression.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}")
    if (
        not isinstance(doc, dict)
        or not isinstance(doc.get("totals"), dict)
        or not isinstance(doc.get("circuits"), list)
    ):
        raise ReproError(f"{path} is not a bench document")
    return doc


def compare_bench(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold: float = 0.10,
) -> Tuple[List[str], List[str]]:
    """Compare two bench documents; returns ``(report, regressions)``.

    The report lists total and per-stage wall-clock deltas plus
    per-circuit walls. Regressions (non-empty -> the CLI exits 1) are:

    * total wall clock slower than ``old * (1 + threshold)``;
    * any planner *result* drift — ``t_clk``/``n_foa``/``n_f`` of a
      circuit present in both runs differing, or a circuit that was ok
      before now failing. Timing noise is expected; result drift never
      is.
    """

    def fmt_delta(old_s: float, new_s: float) -> str:
        if old_s <= 0:
            return f"{old_s:.3f}s -> {new_s:.3f}s"
        pct = (new_s - old_s) / old_s * 100.0
        return f"{old_s:.3f}s -> {new_s:.3f}s ({pct:+.1f}%)"

    report: List[str] = []
    regressions: List[str] = []

    old_wall = float(old["totals"]["wall_seconds"])
    new_wall = float(new["totals"]["wall_seconds"])
    report.append(f"total wall: {fmt_delta(old_wall, new_wall)}")
    # Cache counters exist from schema /3 on; older documents simply
    # don't report them.
    if "cache_hits" in old["totals"] or "cache_hits" in new["totals"]:
        report.append(
            "cache: "
            f"old {old.get('cache', 'n/a')} "
            f"(hits={old['totals'].get('cache_hits', 'n/a')}), "
            f"new {new.get('cache', 'n/a')} "
            f"(hits={new['totals'].get('cache_hits', 'n/a')})"
        )
    if old_wall > 0 and new_wall > old_wall * (1.0 + threshold):
        regressions.append(
            f"total wall regressed beyond {threshold:.0%}: "
            f"{old_wall:.3f}s -> {new_wall:.3f}s"
        )

    old_stages = _stage_totals(old)
    new_stages = _stage_totals(new)
    for name in sorted(set(old_stages) | set(new_stages)):
        report.append(
            f"stage {name:>24}: "
            f"{fmt_delta(old_stages.get(name, 0.0), new_stages.get(name, 0.0))}"
        )

    old_by_name = {e["name"]: e for e in old["circuits"]}
    for entry in new["circuits"]:
        prev = old_by_name.get(entry["name"])
        if prev is None:
            continue
        if prev.get("ok") and not entry.get("ok"):
            regressions.append(
                f"{entry['name']}: was ok, now fails ({entry.get('error')})"
            )
            continue
        if not (prev.get("ok") and entry.get("ok")):
            continue
        report.append(
            f"{entry['name']:>8}: wall "
            f"{fmt_delta(prev['wall_seconds'], entry['wall_seconds'])}"
        )
        for key in ("t_clk", "n_foa", "n_f"):
            if prev.get(key) != entry.get(key):
                regressions.append(
                    f"{entry['name']}: {key} drifted "
                    f"{prev.get(key)} -> {entry.get(key)}"
                )
    return report, regressions


_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def next_bench_path(out_dir: Path) -> Path:
    """First free ``BENCH_<n>.json`` path in ``out_dir``."""
    taken = set()
    if out_dir.is_dir():
        for p in out_dir.iterdir():
            m = _BENCH_RE.match(p.name)
            if m:
                taken.add(int(m.group(1)))
    n = 0
    while n in taken:
        n += 1
    return out_dir / f"BENCH_{n}.json"


def write_bench(doc: Dict[str, object], out_dir: Path) -> Path:
    """Write ``doc`` to the next free ``BENCH_<n>.json``; returns it.

    Atomic (tmp + fsync + replace): a kill mid-write cannot leave a
    truncated BENCH file for later comparisons to choke on.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = next_bench_path(out_dir)
    return atomic_write(path, json.dumps(doc, indent=2) + "\n")
