"""The Table 1 benchmark suite.

The paper evaluates on ten ISCAS89 circuits. The original netlists are
not distributable, so each row of our Table 1 runs on a seeded
synthetic stand-in (:func:`repro.netlist.random_circuit`) whose size
tracks the original circuit — scaled down for the largest circuits so
the pure-Python flow finishes in minutes (see DESIGN.md,
"Substitutions"). Real gate/flip-flop counts of the originals are kept
here for reference.

``s1269`` is deliberately the hardest instance (highest flip-flop
density and the least floorplan slack): in the paper it is the one
circuit whose violations survive the second planning iteration.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.netlist.generate import random_circuit
from repro.netlist.graph import CircuitGraph


@dataclasses.dataclass(frozen=True)
class CircuitSpec:
    """One benchmark circuit: generator parameters + provenance."""

    name: str
    n_units: int
    n_ffs: int  # flip-flop budget (a floor: loops/registered I/O may mandate more)
    seed: int
    real_gates: int  # gate count of the original ISCAS89 circuit
    real_ffs: int  # flip-flop count of the original
    whitespace: float = 0.50
    n_blocks: Optional[int] = None

    def build(self) -> CircuitGraph:
        return random_circuit(
            self.name, n_units=self.n_units, n_ffs=self.n_ffs, seed=self.seed
        )

    def plan_kwargs(self) -> Dict[str, object]:
        """The per-circuit planner keywords this spec fixes."""
        return {
            "seed": self.seed,
            "whitespace": self.whitespace,
            "n_blocks": self.n_blocks,
        }


#: Paper's Table 1 circuits with synthetic stand-in sizes. Whitespace
#: (the floorplanner's per-block slack) is tuned per circuit so the
#: suite spans the regimes the paper's table shows: rows where min-area
#: retiming already fits (N/A decrease), rows where LAC removes all
#: violations in one planning iteration, rows needing the second
#: (floorplan-expansion) iteration, and one hard outlier (s1269).
TABLE1_CIRCUITS: List[CircuitSpec] = [
    CircuitSpec("s298", 120, 18, seed=298, real_gates=119, real_ffs=14, whitespace=0.33),
    CircuitSpec("s386", 150, 16, seed=386, real_gates=159, real_ffs=6, whitespace=0.36),
    CircuitSpec("s526", 170, 24, seed=526, real_gates=193, real_ffs=21, whitespace=0.38),
    CircuitSpec("s641", 190, 24, seed=641, real_gates=379, real_ffs=19, whitespace=0.50),
    CircuitSpec("s832", 200, 20, seed=832, real_gates=287, real_ffs=5, whitespace=0.50),
    CircuitSpec("s953", 220, 30, seed=953, real_gates=395, real_ffs=29, whitespace=0.42),
    CircuitSpec("s1196", 240, 28, seed=1196, real_gates=529, real_ffs=18, whitespace=0.45),
    CircuitSpec("s1269", 260, 52, seed=1269, real_gates=569, real_ffs=37, whitespace=0.35),
    CircuitSpec("s1423", 280, 44, seed=1423, real_gates=657, real_ffs=74, whitespace=0.50),
    CircuitSpec("s5378", 320, 52, seed=5378, real_gates=2779, real_ffs=179, whitespace=0.45),
]

#: Small subset for quick smoke runs and CI.
TABLE1_SMOKE: List[CircuitSpec] = TABLE1_CIRCUITS[:3]

BY_NAME: Dict[str, CircuitSpec] = {c.name: c for c in TABLE1_CIRCUITS}


def get_circuit(name: str) -> CircuitSpec:
    """Look up a benchmark circuit spec by name."""
    try:
        return BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark circuit {name!r}; have {sorted(BY_NAME)}"
        ) from None


#: Every name :func:`load_circuit` accepts (the suite plus ``s27``).
KNOWN_CIRCUITS: List[str] = ["s27"] + [c.name for c in TABLE1_CIRCUITS]


def load_circuit(name: str):
    """Resolve a circuit name into ``(graph, plan_kwargs)``.

    The one place that knows how to turn *any* plannable circuit name —
    a Table-1 benchmark or the ``s27`` tutorial circuit — into a built
    graph plus the per-circuit planner keywords (``seed``,
    ``whitespace``, ``n_blocks``; :meth:`CircuitSpec.plan_kwargs` for a
    benchmark). The ``plan`` CLI and the service worker both go through
    here, so a job submitted to the daemon runs exactly what the
    one-shot command would.

    Raises:
        KeyError: ``name`` is not a known circuit.
    """
    if name == "s27":
        from repro.netlist import s27_graph

        return s27_graph(), {"seed": 1, "whitespace": 0.4}
    spec = get_circuit(name)
    return spec.build(), spec.plan_kwargs()


def run_settings(
    quick: bool = False, iterations: int = 2
) -> Tuple[int, Dict[str, object]]:
    """``(max_iterations, planner overrides)`` of a run.

    The one definition of ``--quick`` (smoke/CI runs) that ``plan``,
    ``table1``, ``bench``, ``cache prewarm`` and the service worker
    share: a single planning iteration with a short floorplan anneal.
    A full run plans ``iterations`` times with no overrides.
    """
    if quick:
        return 1, {"floorplan_iterations": 300}
    return iterations, {}
