"""Bench: incremental vs re-anneal floorplan expansion (the s1269 story).

The paper expands congested blocks and re-floorplans; for s1269 the
"drastic" floorplan change made the fixed ``T_clk`` infeasible. Our
default expansion is incremental (re-pack the same sequence pair), and
EXPERIMENTS.md claims the paper's failure mode corresponds to forcing
a re-anneal. This bench runs both expansion modes from the same
first-iteration state on s1269 and reports what each does to the
second iteration: the incremental mode must stay feasible and remove
the violations; the re-anneal mode is allowed to do anything
(including going infeasible or worse) — the point is the *stability
gap* between them.
"""

import dataclasses

import pytest

from repro.compile import CompileCache
from repro.core.planner import _congested_blocks, _run_iteration, plan_interconnect
from repro.experiments import get_circuit
from repro.floorplan import expand_floorplan
from repro.resilience import ResilienceConfig, StageRunner


def test_incremental_vs_reanneal(benchmark):
    spec = get_circuit("s1269")
    graph = spec.build()
    outcome = benchmark.pedantic(
        lambda: plan_interconnect(
            graph,
            seed=spec.seed,
            whitespace=spec.whitespace,
            max_iterations=1,
        ),
        rounds=1,
        iterations=1,
    )
    first = outcome.first
    assert first.lac is not None and first.lac.n_foa > 0
    congested = _congested_blocks(first)
    assert congested

    config = outcome.config
    # Single attempts, no period degradation: the infeasible case must show.
    strict = dict(
        runner=StageRunner(ResilienceConfig(degrade_t_clk=False)), cache=CompileCache()
    )

    # Incremental: re-pack the stored sequence pair.
    plan_inc = expand_floorplan(
        first.floorplan, graph, congested, factor=config.expansion_factor
    )
    it_inc = _run_iteration(
        graph, first.partition, plan_inc, config, index=2, t_clk=first.t_clk, **strict
    )

    # Re-anneal: drop the sequence pair, forcing a from-scratch anneal
    # (the paper's "drastic change of the floorplan").
    detached = dataclasses.replace(first.floorplan, sequence_pair=None)
    plan_re = expand_floorplan(
        detached,
        graph,
        congested,
        factor=config.expansion_factor,
        seed=config.seed + 99,
    )
    it_re = _run_iteration(
        graph, first.partition, plan_re, config, index=2, t_clk=first.t_clk, **strict
    )

    inc_foa = it_inc.lac.report.n_foa if it_inc.lac else None
    re_foa = (
        "infeasible" if it_re.infeasible else (it_re.lac.report.n_foa if it_re.lac else None)
    )
    print(
        f"\ns1269 iteration 2: incremental N_FOA={inc_foa} "
        f"vs re-anneal N_FOA={re_foa} "
        f"(iteration-1 N_FOA was {first.lac.n_foa})"
    )
    # The headline property: the incremental revision stays feasible
    # and removes (almost) all violations.
    assert not it_inc.infeasible
    assert inc_foa is not None and inc_foa <= max(1, first.lac.n_foa // 10)
