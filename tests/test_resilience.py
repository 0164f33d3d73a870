"""Tests for the resilience layer: policies, stage runner, ledger,
fault injection, and graceful T_clk degradation through the planner."""

import time

import pytest

from repro.compile import CompileCache
from repro.core import PlannerConfig, plan_interconnect
from repro.core.planner import _run_iteration
from repro.errors import (
    FloorplanError,
    PlanningError,
    ReproError,
    RoutingError,
    StageFailedError,
    StageTimeoutError,
)
from repro.netlist import random_circuit
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceConfig,
    RunLedger,
    StagePolicy,
    StageRunner,
    default_resilience,
)
from repro.resilience.runner import perturbed_seed


class TestStagePolicy:
    def test_defaults(self):
        p = StagePolicy()
        assert p.max_attempts == 1 and p.timeout is None
        assert ReproError in p.retry_on

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StagePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            StagePolicy(timeout=0)

    def test_policy_lookup_and_with_timeout(self):
        cfg = ResilienceConfig(policies={"route": StagePolicy(max_attempts=3)})
        assert cfg.policy_for("route").max_attempts == 3
        assert cfg.policy_for("other").max_attempts == 1
        timed = cfg.with_timeout(5.0)
        assert timed.policy_for("route").timeout == 5.0
        assert timed.policy_for("route").max_attempts == 3
        assert timed.policy_for("other").timeout == 5.0
        # original untouched
        assert cfg.policy_for("route").timeout is None

    def test_default_resilience_retries_stochastic_stages(self):
        cfg = default_resilience()
        assert cfg.policy_for("floorplan").max_attempts == 2
        assert cfg.policy_for("route").max_attempts == 2
        assert cfg.policy_for("tiles").max_attempts == 1
        assert cfg.degrade_t_clk


class TestStageRunner:
    def _runner(self, **policies):
        return StageRunner(
            ResilienceConfig(
                policies={k: v for k, v in policies.items()}
            ),
            RunLedger(),
        )

    def test_success_first_try(self):
        runner = self._runner()
        assert runner.run("s", lambda a: a * 10) == 10
        (rec,) = runner.ledger.records
        assert rec.status == "ok" and rec.retries == 0 and rec.fallback is None

    def test_retry_recovers_and_passes_attempt_index(self):
        runner = self._runner(s=StagePolicy(max_attempts=3))
        seen = []

        def flaky(attempt):
            seen.append(attempt)
            if attempt < 3:
                raise RoutingError("transient")
            return "done"

        assert runner.run("s", flaky) == "done"
        assert seen == [1, 2, 3]
        (rec,) = runner.ledger.records
        assert rec.retries == 2 and rec.status == "ok"
        assert rec.attempts[0].error.startswith("RoutingError")

    def test_fallback_chain(self):
        runner = self._runner()

        def primary(_a):
            raise FloorplanError("primary broken")

        def alt(_a):
            return "fallback result"

        assert runner.run("s", primary, fallbacks=[("alt", alt)]) == (
            "fallback result"
        )
        (rec,) = runner.ledger.records
        assert rec.fallback == "alt"
        assert runner.ledger.n_fallbacks == 1

    def test_exhaustion_raises_stage_failed_with_history(self):
        runner = self._runner(s=StagePolicy(max_attempts=2))
        with pytest.raises(StageFailedError) as info:
            runner.run(
                "s",
                lambda a: (_ for _ in ()).throw(RoutingError(f"try {a}")),
                fallbacks=[
                    ("alt", lambda a: (_ for _ in ()).throw(RoutingError("alt")))
                ],
            )
        exc = info.value
        assert exc.stage == "s"
        assert len(exc.attempts) == 3  # 2 primary + 1 fallback
        assert [a.variant for a in exc.attempts] == ["primary", "primary", "alt"]
        assert "try 1" in str(exc)
        (rec,) = runner.ledger.records
        assert rec.status == "failed"

    def test_non_retryable_propagates_immediately(self):
        runner = self._runner(s=StagePolicy(max_attempts=3))
        calls = []

        def buggy(attempt):
            calls.append(attempt)
            raise TypeError("a genuine bug")

        with pytest.raises(TypeError):
            runner.run("s", buggy)
        assert calls == [1]  # no retry on non-ReproError
        (rec,) = runner.ledger.records
        assert rec.status == "failed"

    def test_timeout_raises_and_retries(self):
        runner = self._runner(
            s=StagePolicy(max_attempts=2, timeout=0.05)
        )
        durations = iter([0.5, 0.0])

        def slow(_a):
            time.sleep(next(durations))
            return "ok"

        assert runner.run("s", slow) == "ok"
        (rec,) = runner.ledger.records
        assert rec.attempts[0].status == "timeout"
        assert "deadline" in rec.attempts[0].error

    def test_timeout_exhaustion_raises_stage_failed(self):
        runner = self._runner(s=StagePolicy(max_attempts=1, timeout=0.05))
        with pytest.raises(StageFailedError) as info:
            runner.run("s", lambda _a: time.sleep(0.5))
        assert isinstance(info.value.__cause__, StageTimeoutError)

    def test_scope_appears_in_ledger(self):
        runner = self._runner()
        runner.scope = "iteration 2"
        runner.run("s", lambda a: a)
        assert runner.ledger.records[0].name == "iteration 2 · s"

    def test_perturbed_seed_convention(self):
        assert perturbed_seed(5, 1) == 5
        assert perturbed_seed(5, 2) != 5
        assert perturbed_seed(5, 2) != perturbed_seed(5, 3)


class TestFaultInjector:
    def test_fires_only_on_nth_call(self):
        inj = FaultInjector([FaultSpec("route", error=RoutingError, on_call=2)])
        inj.on_call("route")  # 1st: no fire
        with pytest.raises(RoutingError):
            inj.on_call("route")  # 2nd: fires
        inj.on_call("route")  # 3rd: no fire (not repeat)
        assert inj.calls("route") == 3

    def test_repeat_fires_forever(self):
        inj = FaultInjector(
            [FaultSpec("fp", error=FloorplanError, repeat=True)]
        )
        for _ in range(3):
            with pytest.raises(FloorplanError):
                inj.on_call("fp")

    def test_delay_injection(self):
        inj = FaultInjector([FaultSpec("s", delay=0.05)])
        start = time.perf_counter()
        inj.on_call("s")
        assert time.perf_counter() - start >= 0.05

    def test_error_forms(self):
        # instance, class, and factory are all accepted
        for err in (RoutingError("boom"), RoutingError, lambda: RoutingError("f")):
            inj = FaultInjector([FaultSpec("s", error=err)])
            with pytest.raises(RoutingError):
                inj.on_call("s")

    def test_stages_counted_independently(self):
        inj = FaultInjector.fail_once("a")
        inj.on_call("b")  # does not consume a's counter
        with pytest.raises(PlanningError):
            inj.on_call("a")

    def test_delay_counts_against_stage_deadline(self):
        inj = FaultInjector([FaultSpec("s", delay=0.5)])
        runner = StageRunner(
            ResilienceConfig(policies={"s": StagePolicy(timeout=0.05)}),
            faults=inj,
        )
        with pytest.raises(StageFailedError) as info:
            runner.run("s", lambda _a: "never")
        assert isinstance(info.value.__cause__, StageTimeoutError)


class TestLedger:
    def test_summary_and_format(self):
        ledger = RunLedger()
        runner = StageRunner(
            ResilienceConfig(policies={"s": StagePolicy(max_attempts=2)}),
            ledger,
        )

        def flaky(attempt):
            if attempt == 1:
                raise RoutingError("x")
            return 1

        runner.run("s", flaky)
        runner.run("t", lambda a: a)
        ledger.note("something degraded")
        assert ledger.n_retries == 1 and ledger.n_failures == 0
        text = ledger.format()
        assert "2 stage runs" in text
        assert "s: ok" in text  # eventful stage shown
        assert "t: ok" not in text  # quiet stage hidden unless verbose
        assert "t: ok" in ledger.format(verbose=True)
        assert "note: something degraded" in text

    def test_to_dict_round_trips_json(self):
        import json

        ledger = RunLedger()
        StageRunner(ResilienceConfig(), ledger).run("s", lambda a: a)
        dumped = json.loads(json.dumps(ledger.to_dict()))
        assert dumped["records"][0]["stage"] == "s"
        assert dumped["records"][0]["attempts"][0]["status"] == "ok"


@pytest.fixture(scope="module")
def small_probe():
    g = random_circuit("resil", n_units=50, n_ffs=14, seed=31)
    probe = plan_interconnect(
        g, seed=31, max_iterations=1, floorplan_iterations=400
    )
    return g, probe


class TestDegradation:
    def test_infeasible_t_clk_degrades(self, small_probe):
        """Acceptance: an infeasible T_clk yields a degraded iteration
        with an achieved period <= T_init, not infeasible=True."""
        g, probe = small_probe
        runner = StageRunner(default_resilience())
        it = _run_iteration(
            g,
            probe.first.partition,
            probe.first.floorplan,
            probe.config,
            index=2,
            t_clk=0.01,
            runner=runner,
            cache=CompileCache(),
        )
        assert not it.infeasible
        assert it.degraded
        assert it.t_clk_requested == 0.01
        assert it.t_min - 1e-9 <= it.t_clk <= it.t_init + 1e-9
        assert it.lac is not None
        assert any("degraded" in n for n in runner.ledger.notes)

    def test_strict_mode_keeps_infeasible_semantics(self, small_probe):
        g, probe = small_probe
        it = _run_iteration(
            g,
            probe.first.partition,
            probe.first.floorplan,
            probe.config,
            index=2,
            t_clk=0.01,
            runner=StageRunner(ResilienceConfig(degrade_t_clk=False)),
            cache=CompileCache(),
        )
        assert it.infeasible and not it.degraded and it.lac is None

    def test_feasible_t_clk_not_marked_degraded(self, small_probe):
        g, probe = small_probe
        assert not probe.first.degraded
        assert probe.first.t_clk_requested is None

    def test_find_relaxed_period_bounds(self, small_probe):
        from repro.resilience import find_relaxed_period
        from repro.retime import clock_period
        from tests.oracles.feasibility import is_feasible_period

        g, probe = small_probe
        graph = probe.first.expanded.graph
        t_init = clock_period(graph)
        relaxed = find_relaxed_period(graph, 0.01, t_init)
        assert relaxed is not None and 0.01 < relaxed <= t_init + 1e-9
        assert is_feasible_period(graph, relaxed) is not None

    def test_degraded_report_lines(self, small_probe):
        from repro.core.planner import PlanningOutcome

        g, probe = small_probe
        runner = StageRunner(default_resilience())
        it = _run_iteration(
            g,
            probe.first.partition,
            probe.first.floorplan,
            probe.config,
            index=2,
            t_clk=0.01,
            runner=runner,
            cache=CompileCache(),
        )
        outcome = PlanningOutcome(
            circuit=g.name,
            config=probe.config,
            iterations=[probe.first, it],
            ledger=runner.ledger,
        )
        assert outcome.degraded
        text = outcome.report()
        assert "degraded" in text


class TestPlannerResilience:
    def test_recovers_from_first_attempt_faults_on_s298(self):
        """Acceptance: injected first-attempt failures in floorplan and
        route still complete, with the retries in the ledger."""
        from repro.experiments import get_circuit

        spec = get_circuit("s298")
        faults = FaultInjector.fail_once(
            "floorplan", error=FloorplanError
        ).arm(FaultSpec("route", error=RoutingError))
        outcome = plan_interconnect(
            spec.build(),
            seed=spec.seed,
            whitespace=spec.whitespace,
            max_iterations=1,
            floorplan_iterations=500,
            faults=faults,
        )
        assert outcome.first.lac is not None
        ledger = outcome.ledger
        assert ledger.n_retries >= 2
        (fp,) = ledger.for_stage("floorplan")
        assert fp.status == "ok" and fp.retries == 1
        route = ledger.for_stage("route")[0]
        assert route.status == "ok" and route.retries == 1
        assert "retries" in outcome.report()

    def test_permanent_fault_fails_with_stage_history(self):
        g = random_circuit("perm", n_units=40, n_ffs=12, seed=11)
        faults = FaultInjector.fail_always("route", error=RoutingError)
        with pytest.raises(StageFailedError) as info:
            plan_interconnect(
                g, seed=11, max_iterations=1, floorplan_iterations=300,
                faults=faults,
            )
        assert info.value.stage == "route"
        assert len(info.value.attempts) == 2  # default route policy retries

    def test_pruned_retime_falls_back_to_unpruned(self):
        g = random_circuit("fb", n_units=50, n_ffs=14, seed=29)

        def plan(**ctx):
            return plan_interconnect(
                g,
                seed=29,
                max_iterations=1,
                floorplan_iterations=400,
                verify=True,
                **ctx,
            )

        faults = FaultInjector(
            [FaultSpec("retime", error=PlanningError, on_call=1)]
        )
        outcome = plan(faults=faults)
        (rec,) = outcome.ledger.for_stage("retime")
        assert rec.fallback == "unpruned"
        assert outcome.verification.ok, outcome.verification.format()
        # Pruned and unpruned systems may pick different degenerate
        # optima, so only the period is compared, not the labels.
        assert outcome.first.t_clk == plan().first.t_clk

    def test_custom_resilience_config_via_override(self):
        g = random_circuit("cfgres", n_units=40, n_ffs=12, seed=5)
        cfg = ResilienceConfig(
            policies={"route": StagePolicy(max_attempts=4)},
        )
        faults = FaultInjector(
            [
                FaultSpec("route", error=RoutingError, on_call=1),
                FaultSpec("route", error=RoutingError, on_call=2),
                FaultSpec("route", error=RoutingError, on_call=3),
            ]
        )
        outcome = plan_interconnect(
            g,
            seed=5,
            max_iterations=1,
            floorplan_iterations=300,
            resilience=cfg,
            faults=faults,
        )
        (rec,) = outcome.ledger.for_stage("route")
        assert rec.retries == 3 and rec.status == "ok"

    def test_ledger_attached_and_quiet_run_records_all_stages(self):
        g = random_circuit("quiet", n_units=40, n_ffs=12, seed=2)
        outcome = plan_interconnect(
            g, seed=2, max_iterations=1, floorplan_iterations=300
        )
        stages = {r.stage for r in outcome.ledger.records}
        assert {
            "partition",
            "floorplan",
            "tiles",
            "route",
            "repeater",
            "expand",
            "retime",
        } <= stages
        assert outcome.ledger.n_failures == 0

    def test_determinism_unchanged_without_faults(self):
        """Resilience wiring must not change the unfaulted flow."""
        g = random_circuit("det", n_units=40, n_ffs=12, seed=17)
        a = plan_interconnect(g, seed=17, max_iterations=1,
                              floorplan_iterations=300)
        b = plan_interconnect(g, seed=17, max_iterations=1,
                              floorplan_iterations=300)
        assert a.first.t_clk == b.first.t_clk
        assert a.first.lac.report.n_foa == b.first.lac.report.n_foa
        assert a.first.lac.retiming.labels == b.first.lac.retiming.labels
