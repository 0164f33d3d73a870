"""Tests for the fault-isolated batch runner and the Table-1 wiring."""

import functools
import time

import pytest

from repro.errors import (
    InfeasiblePeriodError,
    InterruptedRunError,
    PlanningError,
    RoutingError,
)
from repro.resilience.batch import BatchItem, BatchResult, run_batch


# Module-level item functions: ``jobs > 1`` pickles them into workers.
def _after(delay, value):
    time.sleep(delay)
    return value


def _infeasible(period):
    raise InfeasiblePeriodError(period, "negative-cost constraint cycle")


def _bug():
    raise TypeError("genuine bug")


def _interrupt():
    raise InterruptedRunError(signum=2)


class TestRunBatch:
    def test_isolates_repro_errors(self):
        def ok():
            return 42

        def boom():
            raise RoutingError("dead circuit")

        batch = run_batch([("a", ok), ("b", boom), ("c", ok)])
        assert [i.ok for i in batch.items] == [True, False, True]
        assert batch.n_ok == 2 and batch.n_failed == 1
        assert batch.results == [42, 42]
        assert batch.failed[0].name == "b"
        assert "RoutingError" in batch.failed[0].error
        assert batch.exit_code == 0  # partial success is success

    def test_all_failed_exits_nonzero(self):
        def boom():
            raise PlanningError("nope")

        batch = run_batch([("a", boom), ("b", boom)])
        assert batch.n_ok == 0
        assert batch.exit_code == 1
        assert "a FAILED" in batch.summary()

    def test_empty_batch_exits_nonzero(self):
        assert run_batch([]).exit_code == 1

    def test_non_repro_errors_propagate(self):
        def bug():
            raise TypeError("genuine bug")

        with pytest.raises(TypeError):
            run_batch([("a", bug)])

    def test_on_item_callback_sees_each_item(self):
        seen = []
        run_batch(
            [("a", lambda: 1), ("b", lambda: 2)],
            on_item=lambda item: seen.append((item.name, item.ok)),
        )
        assert seen == [("a", True), ("b", True)]

    def test_item_timing_recorded(self):
        batch = run_batch([("a", lambda: 1)])
        assert batch.items[0].seconds >= 0
        assert batch.items[0].status == "ok"
        assert BatchItem("x", ok=False).status == "FAILED"


class TestRunBatchJobs:
    """``jobs > 1`` runs items in worker processes with the same contract."""

    # The slow first item finishes last, so completion order differs
    # from submission order.
    WORK = [
        ("slow", functools.partial(_after, 0.5, "a")),
        ("fast", functools.partial(_after, 0.0, "b")),
        ("bad", functools.partial(_infeasible, 2.5)),
        ("last", functools.partial(_after, 0.0, "c")),
    ]

    @staticmethod
    def _fields(batch):
        return [(i.name, i.ok, i.result, i.error) for i in batch.items]

    def test_items_in_submission_order(self):
        batch = run_batch(self.WORK, jobs=2)
        assert [i.name for i in batch.items] == ["slow", "fast", "bad", "last"]
        assert batch.results == ["a", "b", "c"]
        assert not batch.interrupted

    def test_structured_repro_error_becomes_failed_item(self):
        batch = run_batch(self.WORK, jobs=2)
        bad = batch.items[2]
        assert not bad.ok
        # Flattened in the worker: this error does not survive pickling
        # as a raised exception with its message intact.
        assert bad.error == "InfeasiblePeriodError: negative-cost constraint cycle"
        assert batch.exit_code == 0

    def test_serial_run_gives_the_same_items(self):
        assert self._fields(run_batch(self.WORK, jobs=2)) == self._fields(
            run_batch(self.WORK, jobs=1)
        )

    def test_non_repro_error_propagates_from_a_worker(self):
        with pytest.raises(TypeError, match="genuine bug"):
            run_batch([("a", functools.partial(_after, 0.0, 1)), ("b", _bug)], jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_keeps_finished_items(self, jobs):
        seen = []
        batch = run_batch(
            [
                ("a", functools.partial(_after, 0.0, 1)),
                ("b", _interrupt),
                ("c", functools.partial(_after, 0.0, 3)),
            ],
            jobs=jobs,
            on_item=lambda item: seen.append(item.name),
        )
        assert batch.interrupted
        assert [i.name for i in batch.items] == seen == ["a"]


class TestTable1Resilient:
    """End-to-end: one injected failure yields a partial table."""

    @pytest.fixture(scope="class")
    def batch(self):
        from repro.experiments import get_circuit
        from repro.experiments.table1 import run_table1_resilient
        from repro.resilience import FaultInjector

        specs = [get_circuit("s298"), get_circuit("s386")]

        def faults_for(name):
            if name == "s298":
                return FaultInjector.fail_always("route")
            return None

        return run_table1_resilient(
            specs,
            max_iterations=1,
            faults_for=faults_for,
            plan_overrides={"floorplan_iterations": 300},
        )

    def test_partial_batch_statuses(self, batch):
        assert [i.name for i in batch.items] == ["s298", "s386"]
        assert [i.ok for i in batch.items] == [False, True]
        assert batch.exit_code == 0

    def test_failed_item_names_stage(self, batch):
        assert "route" in batch.items[0].error
        assert "StageFailedError" in batch.items[0].error

    def test_format_batch_marks_failed(self, batch):
        from repro.experiments.table1 import format_batch

        text = format_batch(batch)
        assert "s298 FAILED" in text
        assert "s386" in text
        assert "partial table" in text

    def test_ok_row_is_table1_row(self, batch):
        from repro.experiments.table1 import Table1Row

        row = batch.items[1].result
        assert isinstance(row, Table1Row)
        assert row.circuit == "s386"


class TestTable1CLI:
    """``python -m repro table1``: the CLI calls the harness directly."""

    def test_injected_fault_produces_partial_table(self, capsys):
        from repro.__main__ import main

        code = main(
            ["table1", "s298", "s386", "--quick", "--inject-fault", "s298:route"]
        )
        out = capsys.readouterr().out
        assert code == 0  # one circuit survived
        assert "s298 FAILED" in out
        assert "s386" in out and "partial table" in out

    def test_all_circuits_failing_exits_nonzero(self, capsys):
        from repro.__main__ import main

        code = main(
            ["table1", "s298", "--quick", "--inject-fault", "s298:floorplan"]
        )
        assert code == 1
        assert "s298 FAILED" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self, capsys):
        from repro.__main__ import main

        assert main(["table1", "s298", "--inject-fault", "garbage"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "garbage" in err

    def test_cli_forwards_table1_flags(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.table1 as table1

        real = table1.run_table1_resilient
        seen = {}

        def recording(specs, **kwargs):
            seen.update(kwargs, names=[spec.name for spec in specs])
            return real(specs, **kwargs)

        monkeypatch.setattr(table1, "run_table1_resilient", recording)
        from repro.__main__ import main

        code = main(
            [
                "table1",
                "s298",
                "--quick",
                "--inject-fault",
                "s298:floorplan",
                "--checkpoint-dir",
                str(tmp_path),
                "--no-cache",
            ]
        )
        assert code == 1
        assert "s298 FAILED" in capsys.readouterr().out
        assert seen["names"] == ["s298"]
        assert seen["jobs"] == 1
        assert seen["checkpoint_dir"] == str(tmp_path)
        assert seen["resume"] is False and seen["verify"] is False
        assert seen["compile_cache"].mode == "off"
        assert seen["faults_for"]("s298") is not None
        assert seen["faults_for"]("s386") is None
