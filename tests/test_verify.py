"""Tests for the independent certification layer (repro.verify)."""

import copy
import dataclasses
import json

import pytest

from repro.compile import CompileCache
from repro.core.planner import _run_iteration, plan_interconnect
from repro.errors import VerificationError
from repro.netlist import random_circuit
from repro.resilience import (
    RESULT_FAULT_KINDS,
    RESULT_FAULT_OWNER,
    CheckpointManager,
    ResultFault,
    StageRunner,
    default_resilience,
)
from repro.verify import (
    CHECKERS,
    audit_target,
    critical_period,
    load_outcome,
    load_outcome_json,
    save_outcome_json,
    verify_iteration,
    verify_outcome,
)


@pytest.fixture(scope="module")
def graph():
    return random_circuit("vf", n_units=60, n_ffs=16, seed=21)


@pytest.fixture(scope="module")
def outcome(graph):
    return plan_interconnect(
        graph, seed=21, max_iterations=2, floorplan_iterations=400
    )


class TestCleanOutcome:
    def test_certifies_clean(self, outcome):
        report = verify_outcome(outcome)
        assert report.ok
        assert report.failed_checkers() == ()
        assert not any(c.skipped for c in report.certificates)

    def test_covers_every_structural_checker(self, outcome):
        report = verify_outcome(outcome)
        seen = {c.checker for c in report.certificates}
        assert seen == {"retiming", "period", "area", "repeater", "routing"}
        assert seen < set(CHECKERS)  # equivalence is opt-in (simulation)

    def test_summary_and_format(self, outcome):
        report = verify_outcome(outcome)
        assert "all pass" in report.summary()
        text = report.format()
        assert "verification: vf" in text
        assert "FAIL" not in text

    def test_to_dict_round_trips_json(self, outcome):
        doc = verify_outcome(outcome).to_dict()
        assert doc["schema"] == "repro-verify/1"
        assert doc["ok"] is True
        json.dumps(doc)  # must be JSON-serialisable

    def test_spans_exported(self, outcome):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("root"):
            verify_outcome(outcome, tracer=tracer)
        names = [s.name for s in tracer.spans]
        assert "verify" in names
        assert any(n.startswith("verify/") for n in names)

    def test_independent_period_matches_solver(self, outcome):
        it = outcome.first
        assert critical_period(it.expanded.graph) == pytest.approx(it.t_init)


class TestResultFaults:
    @pytest.mark.parametrize("kind", RESULT_FAULT_KINDS)
    def test_exactly_owner_checker_fails(self, outcome, kind):
        corrupted = copy.deepcopy(outcome)
        note = ResultFault(kind).apply(corrupted)
        assert kind.split("_")[0] in note
        report = verify_outcome(corrupted)
        assert not report.ok
        assert report.failed_checkers() == (RESULT_FAULT_OWNER[kind],)

    def test_min_area_target(self, outcome):
        corrupted = copy.deepcopy(outcome)
        note = ResultFault("retime_label", target="min-area").apply(corrupted)
        assert "min-area" in note
        assert verify_outcome(corrupted).failed_checkers() == ("retiming",)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown result fault kind"):
            ResultFault("bitrot")

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            ResultFault("retime_label", target="both")

    def test_owner_property_covers_all_kinds(self):
        for kind in RESULT_FAULT_KINDS:
            assert ResultFault(kind).owner in CHECKERS

    def test_tampered_repeater_count_fails_repeater_checker(self, outcome):
        lying = dataclasses.replace(
            outcome.first, n_repeaters=outcome.first.n_repeaters + 3
        )
        certs = verify_iteration(lying, outcome.config.tech)
        failed = {c.checker for c in certs if not c.ok}
        assert failed == {"repeater"}

    def test_failure_report_names_witnesses(self, outcome):
        corrupted = copy.deepcopy(outcome)
        ResultFault("retime_label").apply(corrupted)
        report = verify_outcome(corrupted)
        failed = report.failed()
        assert failed and failed[0].witnesses
        assert "FAIL" in report.format()
        assert "FAILED" in report.summary()


class TestDegradedOutcome:
    @pytest.fixture(scope="class")
    def degraded_iteration(self, graph, outcome):
        # t_clk far below any vertex delay trips the fast infeasibility
        # reject before the min-area network simplex; a merely-tight
        # infeasible period (e.g. 0.6 * t_min) makes the simplex grind
        # for minutes proving infeasibility on the dense system.
        first = outcome.first
        it = _run_iteration(
            graph,
            first.partition,
            first.floorplan,
            outcome.config,
            index=9,
            t_clk=0.01,  # infeasible: forces degradation
            runner=StageRunner(default_resilience()),
            cache=CompileCache(),
        )
        assert it.degraded and not it.infeasible
        assert it.t_clk_requested == pytest.approx(0.01)
        return it

    def test_degraded_certifies_against_achieved_period(
        self, degraded_iteration, outcome
    ):
        certs = verify_iteration(degraded_iteration, outcome.config.tech)
        assert all(c.ok for c in certs)

    def test_degraded_mismatch_fails_period_checker(
        self, degraded_iteration, outcome
    ):
        # Claiming the *requested* (infeasible) period as achieved must
        # be caught by the period checker and only it.
        lying = dataclasses.replace(
            degraded_iteration, t_clk=degraded_iteration.t_clk_requested
        )
        certs = verify_iteration(lying, outcome.config.tech)
        failed = {c.checker for c in certs if not c.ok}
        assert failed == {"period"}


class TestOutcomeJson:
    def test_round_trip_certifies_clean(self, outcome, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome_json(outcome, path)
        loaded = load_outcome_json(path)
        report = verify_outcome(loaded)
        assert report.ok
        assert not any(c.skipped for c in report.certificates)

    def test_corrupted_snapshot_fails(self, outcome, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome_json(outcome, path)
        loaded = load_outcome_json(path)
        ResultFault("tile_sum").apply(loaded)
        assert verify_outcome(loaded).failed_checkers() == ("area",)

    def test_tampered_label_in_file_detected(self, outcome, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome_json(outcome, path)
        doc = json.loads(path.read_text())
        labels = doc["iterations"][0]["retimings"]["LAC"]["labels"]
        unit = sorted(
            u for u in doc["iterations"][0]["unit_region"] if u in labels
        )
        victim = unit[0] if unit else next(iter(doc["iterations"][0]["unit_region"]))
        labels[victim] = labels.get(victim, 0) + 1
        path.write_text(json.dumps(doc))
        report = verify_outcome(load_outcome_json(path))
        assert "retiming" in report.failed_checkers()

    def test_config_records_only_tech(self, outcome, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome_json(outcome, path)
        assert list(json.loads(path.read_text())["config"]) == ["tech"]

    @staticmethod
    def _saved_with_backend(outcome, path, backend):
        """An outcome file as written before the backend knob was retired."""
        save_outcome_json(outcome, path)
        doc = json.loads(path.read_text())
        doc["config"]["repeater_backend"] = backend
        path.write_text(json.dumps(doc))
        return path

    def test_retired_path_repeater_backend_accepted(self, outcome, tmp_path):
        path = self._saved_with_backend(outcome, tmp_path / "o.json", "path")
        assert verify_outcome(load_outcome_json(path)).ok

    def test_retired_tree_repeater_backend_refused(self, outcome, tmp_path):
        # A tree-buffered plan cannot be held to the per-connection
        # repeater count, so it is neither certified nor failed.
        path = self._saved_with_backend(outcome, tmp_path / "o.json", "tree")
        with pytest.raises(VerificationError, match="repeater_backend"):
            load_outcome_json(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(VerificationError, match="repro-verify-outcome/1"):
            load_outcome_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(VerificationError, match="not valid JSON"):
            load_outcome_json(path)


class TestCheckpointAudit:
    @pytest.fixture(scope="class")
    def ckpt_dir(self, graph, tmp_path_factory):
        root = tmp_path_factory.mktemp("vckpt")
        plan_interconnect(
            graph,
            seed=21,
            max_iterations=1,
            floorplan_iterations=300,
            checkpoint=CheckpointManager(root),
        )
        return root

    def test_audit_clean(self, ckpt_dir):
        results = audit_target(ckpt_dir)
        assert len(results) == 1
        name, note, report = results[0]
        assert name == "vf" and note is None and report.ok

    def test_audit_with_fault_rejects(self, ckpt_dir):
        results = audit_target(ckpt_dir, fault=ResultFault("route_usage"))
        _name, note, report = results[0]
        assert "route_usage" in note
        assert report.failed_checkers() == ("routing",)
        # the on-disk artifact was not modified: a re-audit is clean
        assert audit_target(ckpt_dir)[0][2].ok

    def test_truncated_checkpoint_rejected(self, ckpt_dir, tmp_path):
        src = next(ckpt_dir.rglob("outcome.ckpt"))
        bad = tmp_path / "outcome.ckpt"
        bad.write_bytes(src.read_bytes()[:-7])
        with pytest.raises(VerificationError, match="checksum"):
            load_outcome(bad)

    def test_retired_tree_repeater_backend_refused(self, ckpt_dir, tmp_path):
        import hashlib
        import pickle

        data = next(ckpt_dir.rglob("outcome.ckpt")).read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        old = pickle.loads(data[newline + 1 :])
        old.config.repeater_backend = "tree"  # as pickled by older runs
        payload = pickle.dumps(old)
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        path = tmp_path / "outcome.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(VerificationError, match="repeater_backend"):
            load_outcome(path)

    def test_wrong_kind_rejected(self, ckpt_dir):
        other = next(
            p for p in ckpt_dir.rglob("*.ckpt") if p.name != "outcome.ckpt"
        )
        with pytest.raises(VerificationError, match="kind"):
            load_outcome(other)

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(VerificationError, match="no such file"):
            audit_target(tmp_path / "nope")

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(VerificationError, match="no completed outcomes"):
            audit_target(tmp_path)


class TestBackwardCompatibility:
    def test_pre_audit_iteration_gets_skipped_certificates(self, outcome):
        old = dataclasses.replace(
            outcome.first,
            repeater_used=None,
            n_repeaters=None,
            route_usage=None,
            route_congestion=None,
        )
        certs = verify_iteration(old, outcome.config.tech)
        assert all(c.ok for c in certs)
        skipped = {c.checker for c in certs if c.skipped}
        assert skipped == {"repeater", "routing"}

    def test_infeasible_iteration_skips(self, outcome):
        infeasible = dataclasses.replace(
            outcome.first, infeasible=True, min_area=None, lac=None
        )
        certs = verify_iteration(infeasible, outcome.config.tech)
        assert len(certs) == 1
        assert certs[0].skipped and certs[0].checker == "period"

    def test_report_mentions_verification(self, outcome):
        audited = copy.copy(outcome)
        audited.verification = verify_outcome(outcome)
        assert "verification:" in audited.report()
