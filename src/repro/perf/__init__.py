"""Performance instrumentation: stage timers and the bench runner.

:class:`PerfRecorder` accumulates named stage timings — either via the
``stage()`` context manager around ad-hoc code, or by ingesting a
run's stage spans (:meth:`PerfRecorder.ingest_spans`; a
``RunContext(perf=recorder)`` gets the spans its plan closed, and
``trace summarize`` builds the same table from a trace file).
``python -m repro bench`` runs the planner over the Table 1 circuits
with a recorder attached and writes the result as ``BENCH_<n>.json`` —
see :mod:`repro.perf.bench` for the schema.
"""

from repro.perf.recorder import PerfRecorder, StageTiming
from repro.perf.bench import (
    BENCH_SCHEMA,
    bench_circuit,
    compare_bench,
    load_bench,
    next_bench_path,
    run_bench,
    write_bench,
)
from repro.perf.history import history_report, load_history

__all__ = [
    "PerfRecorder",
    "StageTiming",
    "BENCH_SCHEMA",
    "bench_circuit",
    "run_bench",
    "write_bench",
    "next_bench_path",
    "load_bench",
    "compare_bench",
    "load_history",
    "history_report",
]
