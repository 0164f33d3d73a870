"""Certificate checkers for one planning iteration.

Each checker re-derives one family of claims from first principles and
owns it exclusively — the ownership contract the differential fuzz
harness enforces:

* ``retiming`` — legality of the retiming labels and consistency of
  the stored retimed graph with them (fresh pass, register total);
* ``period``   — period ordering (``T_min`` bounded below by the
  largest unit delay), ``T_init`` re-derivation, and
  ``Δ(v) <= T_clk`` on the stored retimed graph, via the independent
  arrival computation in :mod:`repro.verify.timing`. Degraded
  iterations certify against the *achieved* ``t_clk``, never the
  infeasible ``t_clk_requested``;
* ``area``     — the per-tile LAC accounting (``ff_count``,
  ``violations``, ``N_FOA``/``N_F``/``N_FN``) re-summed from the
  stored graph against the tile grid. Remaining capacity is taken
  from the audited repeater reservation snapshot, so a corrupted
  live grid is the repeater checker's finding, not this one's;
* ``repeater`` — the grid's live ``used`` areas equal the snapshot
  taken at the repeater stage, and the total equals
  ``n_repeaters * tech.repeater_area``;
* ``routing``  — the congestion summary re-counted per tile cell from
  the recorded usage map against PathFinder's track capacities.

Checkers duck-type the iteration: outcomes restored from old
checkpoints (or rebuilt from audit JSON) that lack the newer audit
fields get *skipped* certificates, visible but not failing.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.netlist.graph import INTERCONNECT
from repro.retime.expand import IO_REGION
from repro.route.router import TRACKS
from repro.verify.certificate import (
    Certificate,
    failed_certificate,
    passed_certificate,
    skipped_certificate,
)
from repro.verify.retiming import (
    check_retiming_labels,
    derived_total_flip_flops,
)
from repro.verify.timing import combinational_arrivals, late_units

_TOL = 1e-6
_AREA_TOL = 1e-6


def _targets(iteration) -> Iterator[Tuple[str, object, object]]:
    """The iteration's retiming targets: ``(tag, result, report)``."""
    min_area = getattr(iteration, "min_area", None)
    if min_area is not None:
        yield "min-area", min_area.result, min_area.report
    lac = getattr(iteration, "lac", None)
    if lac is not None:
        yield "LAC", lac.retiming, lac.report


def iteration_certificates(iteration, tech) -> List[Certificate]:
    """Every certificate for one iteration, in ownership order."""
    subject = f"iteration {iteration.index}"
    if iteration.infeasible:
        return [
            skipped_certificate(
                "period",
                subject,
                "iteration marked infeasible; no retiming to certify",
            )
        ]
    certs = [check_periods(iteration)]
    for tag, result, report in _targets(iteration):
        certs.append(check_retiming(iteration, tag, result))
        certs.append(check_target_period(iteration, tag, result))
        certs.append(check_area(iteration, tag, result, report, tech))
    certs.append(check_repeaters(iteration, tech))
    certs.append(check_routing(iteration))
    return certs


# ----------------------------------------------------------------------
# period
# ----------------------------------------------------------------------
def check_periods(iteration) -> Certificate:
    """Ordering ``max unit delay <= T_min <= T_clk <= T_init`` and
    ``T_init`` re-derived."""
    subject = f"iteration {iteration.index}"
    witnesses: List[str] = []
    t_min, t_clk, t_init = iteration.t_min, iteration.t_clk, iteration.t_init
    if not (t_min <= t_clk + _TOL and t_clk <= t_init + _TOL):
        witnesses.append(
            f"period ordering broken: T_min={t_min:.6g} T_clk={t_clk:.6g} "
            f"T_init={t_init:.6g}"
        )
    expanded = iteration.expanded.graph
    floor = max((expanded.delay(u) for u in expanded.units()), default=0.0)
    if t_min + _TOL < floor:
        witnesses.append(
            f"T_min={t_min:.6g} below the largest unit delay {floor:.6g} "
            f"(no retiming gets below it)"
        )
    arrival = combinational_arrivals(expanded)
    if len(arrival) != expanded.num_units:
        witnesses.append("expanded graph has a combinational cycle")
    else:
        fresh = max(arrival.values(), default=0.0)
        if abs(fresh - t_init) > _TOL:
            witnesses.append(
                f"reported T_init={t_init:.6g} != re-derived expanded-graph "
                f"period {fresh:.6g}"
            )
    requested = getattr(iteration, "t_clk_requested", None)
    if getattr(iteration, "degraded", False):
        if requested is None:
            witnesses.append("degraded iteration records no requested period")
        elif t_clk + _TOL < requested:
            witnesses.append(
                f"degraded T_clk={t_clk:.6g} below the requested "
                f"{requested:.6g} (degradation only relaxes upward)"
            )
    if witnesses:
        return failed_certificate("period", subject, witnesses)
    return passed_certificate(
        "period", subject, t_min=t_min, t_clk=t_clk, t_init=t_init
    )


def check_target_period(iteration, tag: str, result) -> Certificate:
    """``Δ(v) <= T_clk`` on the stored retimed graph (achieved period)."""
    subject = f"iteration {iteration.index}/{tag}"
    stored = getattr(result, "graph", None)
    if stored is None:
        return skipped_certificate(
            "period", subject, "no stored retimed graph to time"
        )
    t_clk = iteration.t_clk
    arrival, late = late_units(stored, t_clk, tol=_TOL)
    witnesses: List[str] = []
    if len(arrival) != stored.num_units:
        witnesses.append("retimed graph has a combinational cycle")
    witnesses += [
        f"{u}: arrival {arrival[u]:.6g} > T_clk {t_clk:.6g}" for u in late
    ]
    if witnesses:
        return failed_certificate("period", subject, witnesses, t_clk=t_clk)
    return passed_certificate(
        "period",
        subject,
        t_clk=t_clk,
        max_arrival=max(arrival.values(), default=0.0),
    )


# ----------------------------------------------------------------------
# retiming
# ----------------------------------------------------------------------
def check_retiming(iteration, tag: str, result) -> Certificate:
    """Label legality + stored-graph consistency, from a fresh pass."""
    subject = f"iteration {iteration.index}/{tag}"
    original = iteration.expanded.graph
    labels = result.labels
    stored = getattr(result, "graph", None)
    witnesses = check_retiming_labels(original, labels, stored)
    total = derived_total_flip_flops(original, labels)
    stored_total = getattr(result, "total_ffs", None)
    if stored_total is not None and stored_total != total:
        witnesses.append(
            f"result claims {stored_total} flip-flops, labels imply {total}"
        )
    if witnesses:
        return failed_certificate("retiming", subject, witnesses)
    return passed_certificate("retiming", subject, total_ffs=total)


# ----------------------------------------------------------------------
# area
# ----------------------------------------------------------------------
def check_area(iteration, tag: str, result, report, tech) -> Certificate:
    """Re-sum the per-tile flip-flop accounting against the report."""
    subject = f"iteration {iteration.index}/{tag}"
    stored = getattr(result, "graph", None)
    if stored is None:
        return skipped_certificate(
            "area", subject, "no stored retimed graph to account"
        )
    unit_region = iteration.expanded.unit_region
    grid = iteration.grid
    reserved = getattr(iteration, "repeater_used", None)
    if reserved is None:
        reserved = grid.used

    ff_count = {}
    n_f = 0
    n_fn = 0
    for (u, _v, _k), w in stored.connections():
        if w <= 0:
            continue
        n_f += w
        if stored.kind(u) == INTERCONNECT:
            n_fn += w
        region = unit_region.get(u, IO_REGION)
        ff_count[region] = ff_count.get(region, 0) + w

    witnesses: List[str] = []
    violations = {}
    n_foa = 0
    for region, count in ff_count.items():
        if region == IO_REGION:
            continue
        cap = grid.capacity.get(region)
        if cap is None:
            witnesses.append(f"flip-flops charged to unknown region {region!r}")
            continue
        remaining = cap - reserved.get(region, 0.0)
        fits = int(max(0.0, remaining) // tech.ff_area)
        over = max(0, count - fits)
        if over:
            violations[region] = over
            n_foa += over

    for name, fresh, reported in (
        ("N_F", n_f, report.n_f),
        ("N_FN", n_fn, report.n_fn),
        ("N_FOA", n_foa, report.n_foa),
    ):
        if fresh != reported:
            witnesses.append(f"{name}: reported {reported}, re-summed {fresh}")
    if dict(report.ff_count) != ff_count:
        witnesses.append(
            _dict_mismatch("ff_count", dict(report.ff_count), ff_count)
        )
    if dict(report.violations) != violations:
        witnesses.append(
            _dict_mismatch("violations", dict(report.violations), violations)
        )
    if witnesses:
        return failed_certificate("area", subject, witnesses)
    return passed_certificate(
        "area", subject, n_f=n_f, n_fn=n_fn, n_foa=n_foa
    )


def _dict_mismatch(name: str, reported: dict, fresh: dict) -> str:
    diffs = []
    for key in sorted(set(reported) | set(fresh), key=str):
        a, b = reported.get(key), fresh.get(key)
        if a != b:
            diffs.append(f"{key}: reported {a}, re-summed {b}")
        if len(diffs) >= 4:
            break
    return f"{name} mismatch ({'; '.join(diffs)})"


# ----------------------------------------------------------------------
# repeater
# ----------------------------------------------------------------------
def check_repeaters(iteration, tech) -> Certificate:
    """Grid reservations equal the repeater-stage snapshot, re-summed."""
    subject = f"iteration {iteration.index}"
    snapshot = getattr(iteration, "repeater_used", None)
    if snapshot is None:
        return skipped_certificate(
            "repeater", subject, "outcome predates repeater audit snapshot"
        )
    grid = iteration.grid
    witnesses: List[str] = []
    for region in sorted(set(grid.used) | set(snapshot)):
        live = grid.used.get(region, 0.0)
        reserved = snapshot.get(region, 0.0)
        if live < -_AREA_TOL or reserved < -_AREA_TOL:
            witnesses.append(f"region {region}: negative reserved area")
        if abs(live - reserved) > _AREA_TOL:
            witnesses.append(
                f"region {region}: grid used {live:.6g} != repeater "
                f"reservation {reserved:.6g}"
            )
    n_repeaters = getattr(iteration, "n_repeaters", None)
    total = sum(snapshot.values())
    if n_repeaters is not None:
        expected = n_repeaters * tech.repeater_area
        if abs(total - expected) > _AREA_TOL:
            witnesses.append(
                f"total reserved {total:.6g} != {n_repeaters} repeaters x "
                f"{tech.repeater_area:.6g} = {expected:.6g}"
            )
    if witnesses:
        return failed_certificate("repeater", subject, witnesses)
    return passed_certificate(
        "repeater", subject, total_area=total, n_repeaters=n_repeaters
    )


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def check_routing(iteration) -> Certificate:
    """Re-count the congestion summary from the per-cell usage map."""
    subject = f"iteration {iteration.index}"
    usage = getattr(iteration, "route_usage", None)
    summary = getattr(iteration, "route_congestion", None)
    if usage is None or summary is None:
        return skipped_certificate(
            "routing", subject, "outcome predates routing audit snapshot"
        )
    grid = iteration.grid
    witnesses: List[str] = []
    max_usage = 0
    overflowed = 0
    overflow_known = True
    for cell, use in usage.items():
        if use < 0:
            witnesses.append(f"cell {cell}: negative track usage {use}")
        max_usage = max(max_usage, use)
        region = grid.region_of_cell.get(cell)
        if region is None:
            overflow_known = False
            continue
        if use > TRACKS[grid.kind[region]]:
            overflowed += 1

    fresh = {
        "used_cells": float(len(usage)),
        "max_usage": float(max_usage),
    }
    if overflow_known:
        fresh["overflowed_cells"] = float(overflowed)
    for key, value in fresh.items():
        reported = summary.get(key)
        if reported is None or abs(reported - value) > _TOL:
            witnesses.append(
                f"{key}: reported {reported}, re-counted {value:g}"
            )
    if witnesses:
        return failed_certificate("routing", subject, witnesses)
    return passed_certificate("routing", subject, **fresh)
