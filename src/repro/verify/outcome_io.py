"""Portable JSON form of a planning outcome, for offline audits.

``repro-ckpt/1`` checkpoints pickle the live objects — perfect for
resuming, useless for handing a result across a trust boundary. This
module defines ``repro-verify-outcome/1``: a plain-JSON snapshot of
exactly what the verification checkers need (the expanded graph, the
unit-region map, the tile grid's capacity accounting, the retiming
labels and reports, the periods, and the routing/repeater audit
snapshots), written with :func:`repro.ioutil.atomic_write` and
re-loadable into real planner dataclasses so
``python -m repro verify outcome.json`` certifies it like any live
outcome.

Solver-side state (partition, floorplan, provenance, ledger) is
deliberately dropped: an audit re-derives claims, it does not resume
computation.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional

from repro.errors import NetlistError, VerificationError
from repro.ioutil import atomic_write
from repro.netlist.io import graph_from_dict, graph_to_dict

OUTCOME_SCHEMA = "repro-verify-outcome/1"


def outcome_to_dict(outcome) -> Dict[str, Any]:
    """JSON-ready form of a :class:`~repro.core.planner.PlanningOutcome`."""
    config = outcome.config
    doc: Dict[str, Any] = {
        "schema": OUTCOME_SCHEMA,
        "circuit": outcome.circuit,
        "config": {"tech": dataclasses.asdict(config.tech)},
        "iterations": [_iteration_to_dict(it) for it in outcome.iterations],
    }
    return doc


def _iteration_to_dict(it) -> Dict[str, Any]:
    grid = it.grid
    doc: Dict[str, Any] = {
        "index": it.index,
        "t_init": it.t_init,
        "t_min": it.t_min,
        "t_clk": it.t_clk,
        "infeasible": it.infeasible,
        "degraded": it.degraded,
        "t_clk_requested": it.t_clk_requested,
        "graph": graph_to_dict(it.expanded.graph),
        "unit_region": dict(it.expanded.unit_region),
        "grid": {
            "n_cols": grid.n_cols,
            "n_rows": grid.n_rows,
            "tile_size": grid.tile_size,
            "region_of_cell": [
                [c, r, region]
                for (c, r), region in sorted(grid.region_of_cell.items())
            ],
            "kind": dict(grid.kind),
            "capacity": dict(grid.capacity),
            "used": dict(grid.used),
        },
        "retimings": {},
        "repeater_used": getattr(it, "repeater_used", None),
        "n_repeaters": getattr(it, "n_repeaters", None),
        "route_usage": _usage_to_list(getattr(it, "route_usage", None)),
        "route_congestion": getattr(it, "route_congestion", None),
    }
    if it.min_area is not None:
        doc["retimings"]["min-area"] = _target_to_dict(
            it.min_area.result, it.min_area.report
        )
    if it.lac is not None:
        doc["retimings"]["LAC"] = _target_to_dict(
            it.lac.retiming, it.lac.report, n_wr=it.lac.n_wr
        )
    return doc


def _target_to_dict(result, report, **extra) -> Dict[str, Any]:
    doc = {
        "labels": {u: r for u, r in result.labels.items() if r != 0},
        "total_ffs": result.total_ffs,
        "report": {
            "ff_count": dict(report.ff_count),
            "violations": dict(report.violations),
            "n_foa": report.n_foa,
            "n_f": report.n_f,
            "n_fn": report.n_fn,
        },
    }
    doc.update(extra)
    return doc


def _usage_to_list(usage) -> Optional[list]:
    if usage is None:
        return None
    return [[c, r, use] for (c, r), use in sorted(usage.items())]


def save_outcome_json(outcome, path) -> None:
    """Write the audit snapshot of ``outcome`` to ``path`` atomically."""
    atomic_write(path, json.dumps(outcome_to_dict(outcome), indent=1))


def load_outcome_json(path):
    """Rebuild a verifiable outcome from a ``repro-verify-outcome/1`` file.

    Returns a real :class:`~repro.core.planner.PlanningOutcome` (with
    the solver-only fields absent) so every checker runs unchanged.

    Raises:
        VerificationError: The file is unreadable, not valid JSON, or
            not this schema.
    """
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise VerificationError(f"cannot read outcome {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VerificationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != OUTCOME_SCHEMA:
        raise VerificationError(
            f"{path} is not a {OUTCOME_SCHEMA} file "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    return outcome_from_dict(doc, source=str(path))


def refuse_retired_backend(config: Dict[str, Any], source) -> None:
    """Refuse an outcome planned with a retired repeater backend.

    Outcomes written before the knob was removed record
    ``repeater_backend``. Only its per-connection ``"path"`` value
    matches the repeater count check, so any other value can be
    neither certified nor failed.

    Raises:
        VerificationError: ``config`` names a backend other than path.
    """
    backend = config.get("repeater_backend", "path")
    if backend != "path":
        raise VerificationError(
            f"{source}: config.repeater_backend={backend!r} is no longer "
            "supported (only 'path' plans can be verified)"
        )


def outcome_from_dict(doc: Dict[str, Any], source: str = "<dict>"):
    from repro.core.planner import PlannerConfig, PlanningOutcome
    from repro.tech.params import Technology

    try:
        cfg = doc.get("config") or {}
        refuse_retired_backend(cfg, source)
        tech = Technology(**cfg["tech"]) if "tech" in cfg else Technology()
        config = PlannerConfig(tech=tech)
        iterations = [
            _iteration_from_dict(it_doc) for it_doc in doc["iterations"]
        ]
        return PlanningOutcome(
            circuit=doc["circuit"], config=config, iterations=iterations
        )
    except (KeyError, TypeError, ValueError, NetlistError) as exc:
        raise VerificationError(
            f"malformed outcome JSON {source}: {type(exc).__name__}: {exc}"
        ) from exc


def _iteration_from_dict(doc: Dict[str, Any]):
    from repro.core.lac import LACResult
    from repro.core.metrics import AreaReport
    from repro.core.planner import PlanningIteration, TimedRetiming
    from repro.retime.expand import ExpandedCircuit
    from repro.retime.minarea import RetimingResult
    from repro.tiles.grid import TileGrid

    graph = graph_from_dict(doc["graph"])
    grid_doc = doc["grid"]
    grid = TileGrid(
        n_cols=grid_doc["n_cols"],
        n_rows=grid_doc["n_rows"],
        tile_size=grid_doc["tile_size"],
        region_of_cell={
            (c, r): region for c, r, region in grid_doc["region_of_cell"]
        },
        kind=dict(grid_doc["kind"]),
        capacity=dict(grid_doc["capacity"]),
        used=dict(grid_doc["used"]),
        block_region={},
    )
    expanded = ExpandedCircuit(
        graph=graph,
        unit_region=dict(doc["unit_region"]),
        unit_provenance={},
        n_connections_expanded=0,
    )

    def _target(target_doc):
        labels = {u: int(r) for u, r in target_doc["labels"].items()}
        try:
            retimed = graph.retimed(labels)
        except NetlistError:
            # Illegal labels: keep the result loadable so the retiming
            # checker can fail it with witnesses instead of crashing
            # the audit.
            retimed = None
        result = RetimingResult(
            labels=labels,
            graph=retimed,
            period=None,
            total_ffs=int(target_doc["total_ffs"]),
        )
        rep = target_doc["report"]
        report = AreaReport(
            ff_count={k: int(v) for k, v in rep["ff_count"].items()},
            violations={k: int(v) for k, v in rep["violations"].items()},
            n_foa=int(rep["n_foa"]),
            n_f=int(rep["n_f"]),
            n_fn=int(rep["n_fn"]),
        )
        return result, report

    min_area = None
    lac = None
    retimings = doc.get("retimings") or {}
    if "min-area" in retimings:
        result, report = _target(retimings["min-area"])
        min_area = TimedRetiming(result=result, report=report, seconds=0.0)
    if "LAC" in retimings:
        result, report = _target(retimings["LAC"])
        lac = LACResult(
            retiming=result,
            report=report,
            n_wr=int(retimings["LAC"].get("n_wr", 0)),
            tile_weights={},
            history=[],
        )

    usage = doc.get("route_usage")
    return PlanningIteration(
        index=int(doc["index"]),
        partition=None,
        floorplan=None,
        grid=grid,
        expanded=expanded,
        t_init=float(doc["t_init"]),
        t_min=float(doc["t_min"]),
        t_clk=float(doc["t_clk"]),
        min_area=min_area,
        lac=lac,
        lac_seconds=0.0,
        infeasible=bool(doc.get("infeasible", False)),
        degraded=bool(doc.get("degraded", False)),
        t_clk_requested=doc.get("t_clk_requested"),
        repeater_used=doc.get("repeater_used"),
        n_repeaters=doc.get("n_repeaters"),
        route_usage=(
            None
            if usage is None
            else {(c, r): int(use) for c, r, use in usage}
        ),
        route_congestion=doc.get("route_congestion"),
    )
