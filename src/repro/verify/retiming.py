"""Retiming legality primitives: a fresh pass over the original graph.

These functions re-derive retimed weights directly from the label map
— ``w_r(e) = w(e) + r(v) - r(u)`` — touching none of the solver-side
caches (no CSR snapshots, no warm accountants), and compare them
against whatever graph the solver stored. They are the single source
of truth for retiming legality: the :mod:`repro.verify.checkers`
retiming certificate builds on them.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import networkx as nx


def check_retiming_labels(
    original, labels: Mapping[str, int], stored=None
) -> List[str]:
    """Witnesses against legality of ``labels`` on ``original``.

    Checks, in one pass over the original connections:

    * host vertices keep ``r == 0`` (I/O timing preserved);
    * every re-derived weight ``w + r(v) - r(u)`` is non-negative;
    * when ``stored`` (the solver's retimed graph) is given, its unit
      set matches and every connection's weight equals the re-derived
      one.

    Returns an empty list when the retiming is legal (and consistent
    with ``stored``).
    """
    witnesses: List[str] = []
    for host in original.host_units():
        r = labels.get(host, 0)
        if r != 0:
            witnesses.append(f"host {host} has nonzero retiming label {r}")

    stored_units = None
    if stored is not None:
        stored_units = set(stored.units())
        original_units = set(original.units())
        for extra in sorted(stored_units - original_units)[:4]:
            witnesses.append(f"stored graph has unexpected unit {extra!r}")
        for missing in sorted(original_units - stored_units)[:4]:
            witnesses.append(f"stored graph is missing unit {missing!r}")

    for (u, v, key), w in original.connections():
        wr = w + labels.get(v, 0) - labels.get(u, 0)
        if wr < 0:
            witnesses.append(
                f"connection {u}->{v}#{key}: retimed weight {wr} < 0"
            )
        if stored is None or stored_units is None:
            continue
        if u not in stored_units or v not in stored_units:
            continue
        try:
            stored_w = stored.weight((u, v, key))
        except KeyError:
            witnesses.append(f"stored graph is missing connection {u}->{v}#{key}")
            continue
        if stored_w != wr:
            witnesses.append(
                f"connection {u}->{v}#{key}: stored weight {stored_w} != "
                f"label-derived {wr}"
            )
    if stored is not None and stored.num_connections != original.num_connections:
        witnesses.append(
            f"stored graph has {stored.num_connections} connections, "
            f"original has {original.num_connections}"
        )
    return witnesses


def derived_total_flip_flops(original, labels: Mapping[str, int]) -> int:
    """Total flip-flop count implied by ``labels``, from first principles."""
    total = 0
    for (u, v, _key), w in original.connections():
        total += w + labels.get(v, 0) - labels.get(u, 0)
    return total


def cycle_conservation_witnesses(
    original, retimed, samples: int = 16
) -> List[str]:
    """Flip-flop conservation on a sample of cycles.

    Retiming preserves the total weight around every cycle (the label
    terms telescope); a stored graph whose cycle weights drifted was
    not produced by any retiming. Samples up to ``samples`` simple
    cycles of the original graph.
    """
    simple_orig = original.simple_min_weight_digraph()
    simple_ret = retimed.simple_min_weight_digraph()
    witnesses: List[str] = []
    checked = 0
    for cycle in nx.simple_cycles(simple_orig):
        if checked >= samples:
            break
        checked += 1
        w_orig = _cycle_weight(simple_orig, cycle)
        w_ret = _cycle_weight(simple_ret, cycle)
        if w_ret is None:
            witnesses.append(
                f"cycle through {cycle[0]!r} missing from stored graph"
            )
        elif w_orig != w_ret:
            witnesses.append(
                f"cycle through {cycle[0]!r}: weight {w_orig} became {w_ret}"
            )
    return witnesses


def _cycle_weight(simple, cycle) -> Optional[int]:
    total = 0
    n = len(cycle)
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        if not simple.has_edge(u, v):
            return None
        total += simple.edges[u, v]["weight"]
    return total
