"""Parallel Table-1 regeneration: ``--jobs N`` must be a pure speed
knob — same table, same fault isolation, same partial-table semantics
as the serial path."""

import dataclasses

import pytest

from repro.experiments.circuits import TABLE1_CIRCUITS
from repro.experiments.table1 import (
    format_batch,
    parse_fault_args,
    run_table1_resilient,
)

SPECS = TABLE1_CIRCUITS[:2]
#: Quick planner settings: short anneal, one planning iteration.
OVERRIDES = {"floorplan_iterations": 120}


def zeroed(batch):
    """Strip wall-clock fields (the only legitimately nondeterministic
    columns) so formatted tables can be compared byte-for-byte."""
    for item in batch.items:
        item.seconds = 0.0
        if item.ok:
            item.result = dataclasses.replace(
                item.result, ma_seconds=0.0, lac_seconds=0.0
            )
    return batch


class TestParallelTable1:
    def test_jobs2_matches_serial_byte_for_byte(self):
        serial = run_table1_resilient(
            SPECS, max_iterations=1, plan_overrides=OVERRIDES
        )
        parallel = run_table1_resilient(
            SPECS, max_iterations=1, plan_overrides=OVERRIDES, jobs=2
        )
        assert [i.name for i in parallel.items] == [i.name for i in serial.items]
        assert format_batch(zeroed(parallel)) == format_batch(zeroed(serial))

    def test_fault_isolation_survives_parallelism(self):
        faults_for = parse_fault_args([f"{SPECS[0].name}:route"])
        batch = run_table1_resilient(
            SPECS,
            max_iterations=1,
            plan_overrides=OVERRIDES,
            faults_for=faults_for,
            jobs=2,
        )
        assert batch.n_failed == 1
        assert batch.n_ok == 1
        assert not batch.items[0].ok  # the faulted circuit, in order
        assert batch.items[1].ok
        assert batch.exit_code == 0  # partial table is a success
        text = format_batch(batch)
        assert "FAILED" in text
        assert "partial table" in text

    def test_jobs1_uses_serial_path(self):
        batch = run_table1_resilient(
            SPECS[:1], max_iterations=1, plan_overrides=OVERRIDES, jobs=1
        )
        assert batch.n_ok == 1
