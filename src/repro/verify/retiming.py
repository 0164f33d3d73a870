"""Retiming legality primitives: a fresh pass over the original graph.

These functions re-derive retimed weights directly from the label map
— ``w_r(e) = w(e) + r(v) - r(u)`` — touching none of the solver-side
caches (no CSR snapshots, no warm accountants), and compare them
against whatever graph the solver stored. They are the single source
of truth for retiming legality: the :mod:`repro.verify.checkers`
retiming certificate builds on them.

Flip-flop conservation around cycles needs no check of its own: once
every stored weight equals ``w + r(v) - r(u)``, the label terms of any
cycle's sum telescope to zero, so the stored cycle weights equal the
original ones. (``tests/oracles/graph.py`` keeps a sampled cycle check
as a property test of the solvers.)
"""

from __future__ import annotations

from typing import List, Mapping


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

