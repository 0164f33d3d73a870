"""Command-line interface: ``python -m repro <command>``.

This is the package's only command-line entry point and its only
argument parser: each command calls the library functions directly
with the parsed values (the harness modules have no ``main`` of their
own). Command modules are imported inside each ``_cmd_*`` so a command
pays only for what it runs — ``serve`` start-up never imports the
Table-1 or bench harnesses.

Commands:

* ``plan <circuit>``   — run the full interconnect-planning flow on a
  Table-1 benchmark circuit (or ``s27``) and print the report;
* ``table1 [names..]`` — regenerate the paper's Table 1 (all circuits
  or a subset; ``--jobs N`` runs circuits in parallel);
* ``bench [names..]``  — time the planning flow per stage and write
  ``BENCH_<n>.json`` (see :mod:`repro.perf.bench`); ``--repeat N``
  records medians and IQRs over N runs, which ``--compare`` judges;
* ``verify [target]``  — without a target: retime s27 at minimum
  period and verify behavioural equivalence by gate-level simulation;
  with a target (a checkpoint directory, an ``outcome.ckpt`` file, or
  a ``plan --outcome-json`` snapshot): independently re-certify every
  completed outcome with :mod:`repro.verify` (exit 5 on a failed
  certificate). ``--inject-result-fault KIND`` corrupts each loaded
  outcome in memory first — the CI smoke test that the audit rejects
  what it must;
* ``cache``            — manage the compiled-circuit cache
  (``repro-compile/3`` artifacts used by ``plan``/``table1``/``bench``
  via ``--cache-dir``): ``cache info`` lists artifacts, ``cache
  clear`` empties the store, ``cache prewarm`` populates it by
  planning the Table-1 suite once;
* ``serve``            — run the planning service daemon: a bounded
  persistent job queue, a supervised worker-process pool (crashed
  workers requeue and resume bit-identically from checkpoints), and
  HTTP ``/healthz`` ``/readyz`` ``/jobs`` endpoints over ``--socket``
  (Unix domain) or ``--port`` (TCP) — see :mod:`repro.serve`;
* ``submit`` / ``jobs`` — client side of ``serve``: spool a job
  (``--wait`` blocks and exits with the job's own per-plan code) and
  list/inspect/cancel jobs or fetch their trace stream and metrics;
* ``circuits``         — list the benchmark suite;
* ``trace``            — work with trace files (``repro-trace/2``, the
  stream ``plan --trace`` writes as the run goes; ``repro-trace/1``
  reads too): ``trace summarize`` renders the span tree, stage table
  (with peak RSS / CPU columns when the run was monitored),
  convergence tables and the spans a killed run left unfinished,
  ``trace validate`` checks a file against its schema, ``trace
  metrics`` prints the run's metrics, replayed from its spans, as
  Prometheus text, and ``trace flamegraph`` writes folded stacks for
  flamegraph.pl / speedscope.

``bench history`` reads the whole ``BENCH_<n>.json`` series and prints
the wall-clock / peak-RSS trajectory, flagging regressions between
comparable runs; ``plan --trace`` and ``table1 --trace-dir`` write one
trace file per run and ``--progress`` shows spans on stderr as they
open and close (see :mod:`repro.obs`).

``-v`` / ``-vv`` (before the command) turn on INFO / DEBUG logging on
stderr; the library itself never configures logging handlers.

Exit codes (``plan`` and ``table1``): ``0`` success, ``1`` completed
but unsatisfied (not converged / all circuits failed), ``2`` usage or
flow error, ``3`` target period infeasible (``plan``), ``4``
interrupted by SIGINT/SIGTERM — durable progress (checkpoints, trace)
is flushed and the run is resumable with ``--resume`` when a
``--checkpoint-dir`` was given — ``5`` verification failed (a
``--verify`` run or a ``verify <target>`` audit hit a failing
certificate), ``6`` busy (``submit`` shed by a full or draining
service; nothing was spooled), and ``141`` when stdout's reader exits
first (``trace summarize T | head``: no traceback). See
:mod:`repro.cliutil` and the "Service" section of ``docs/api.md`` for
the full contract.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.cliutil import (
    EXIT_BROKEN_PIPE,
    EXIT_BUSY,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_INTERRUPTED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    install_interrupt_handlers,
    outcome_exit_code,
    stdout_reader_gone,
)


def _resume_error(args):
    """``--resume`` without a store to resume from, or ``None``."""
    if args.resume and not args.checkpoint_dir:
        return "--resume requires --checkpoint-dir"
    return None


def _resume_hint(args) -> str:
    """How to continue an interrupted run, when it has checkpoints."""
    if not args.checkpoint_dir:
        return ""
    return f"; rerun with --checkpoint-dir {args.checkpoint_dir} --resume to continue"


def _compile_cache(args):
    """The compile cache of ``plan``/``table1``: off, on disk or in memory."""
    from repro.compile import CompileCache

    return CompileCache(mode="off") if args.no_cache else CompileCache(args.cache_dir)


def _plan_option_error(args):
    """Why a ``plan`` option is out of range or inconsistent, or ``None``."""
    if args.iterations < 1:
        return f"--iterations must be at least 1, got {args.iterations}"
    if args.stage_timeout is not None and not args.stage_timeout > 0:
        return f"--stage-timeout must be positive, got {args.stage_timeout:g}"
    return _resume_error(args)


def _cmd_plan(args) -> int:
    from repro.core import RunContext, plan_interconnect
    from repro.errors import InterruptedRunError, ReproError, TelemetryError
    from repro.experiments.circuits import load_circuit, run_settings
    from repro.resilience import CheckpointManager, default_resilience

    error = _plan_option_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    try:
        graph, kwargs = load_circuit(args.circuit)
    except KeyError:
        print(
            f"error: unknown circuit {args.circuit!r} "
            "(see `python -m repro circuits`)",
            file=sys.stderr,
        )
        return EXIT_ERROR

    resilience = default_resilience()
    if args.stage_timeout is not None:
        resilience = resilience.with_timeout(args.stage_timeout)
    if args.no_degrade:
        resilience.degrade_t_clk = False
    iterations, overrides = run_settings(args.quick, args.iterations)
    ctx = RunContext(
        resilience=resilience,
        compile_cache=_compile_cache(args),
        checkpoint=(
            CheckpointManager(args.checkpoint_dir, resume=args.resume)
            if args.checkpoint_dir
            else None
        ),
        trace_path=args.trace,
        progress=_progress_view(args),
    )
    install_interrupt_handlers()
    try:
        outcome = plan_interconnect(
            graph,
            ctx=ctx,
            max_iterations=iterations,
            verify=args.verify,
            **kwargs,
            **overrides,
        )
    except InterruptedRunError as exc:
        if args.trace:
            print(f"trace written to {args.trace}", file=sys.stderr)
        print(
            f"planning {args.circuit} interrupted ({exc}){_resume_hint(args)}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except ReproError as exc:
        if args.trace and not isinstance(exc, TelemetryError):
            print(f"trace written to {args.trace}", file=sys.stderr)
        print(f"error: planning {args.circuit} failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    print(outcome.report())
    if args.outcome_json:
        from repro.verify import save_outcome_json

        save_outcome_json(outcome, args.outcome_json)
        print(f"outcome snapshot written to {args.outcome_json}", file=sys.stderr)
    code = outcome_exit_code(outcome)
    if code == EXIT_VERIFY_FAILED:
        print(outcome.verification.format(), file=sys.stderr)
    elif code == EXIT_INFEASIBLE:
        print(
            f"{args.circuit}: target period infeasible "
            "(no achievable retiming at T_clk)",
            file=sys.stderr,
        )
    elif code == EXIT_NOT_CONVERGED:
        print(
            f"{args.circuit}: not converged "
            "(local area violations remain after planning iterations)",
            file=sys.stderr,
        )
    return code


def _progress_view(args):
    """The ``--progress`` stderr view, or ``None``."""
    from repro.obs import HumanProgress

    return HumanProgress() if args.progress else None


def _table1_option_error(args):
    """Why a ``table1`` option is out of range or inconsistent, or ``None``."""
    if args.jobs < 1:
        return "--jobs must be >= 1"
    if args.progress and args.jobs > 1:
        return (
            "--progress requires a serial run (--jobs 1); span "
            "listeners cannot cross worker process boundaries"
        )
    return _resume_error(args)


def _cmd_table1(args) -> int:
    from repro.experiments.circuits import TABLE1_CIRCUITS, get_circuit, run_settings
    from repro.experiments.table1 import (
        format_batch,
        parse_fault_args,
        run_table1_resilient,
    )

    error = _table1_option_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    try:
        specs = (
            [get_circuit(name) for name in args.names]
            if args.names
            else TABLE1_CIRCUITS
        )
        faults_for = parse_fault_args(args.inject_fault)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    iterations, overrides = run_settings(args.quick)
    install_interrupt_handlers()
    batch = run_table1_resilient(
        specs,
        max_iterations=iterations,
        verbose=True,
        faults_for=faults_for,
        plan_overrides=overrides,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        verify=args.verify,
        trace_dir=args.trace_dir,
        progress=_progress_view(args),
        compile_cache=_compile_cache(args),
    )
    print()
    print(format_batch(batch))
    if batch.interrupted:
        print(
            f"interrupted after {len(batch.items)} of {len(specs)} "
            f"circuits{_resume_hint(args)}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if any(
        not item.ok
        and item.error
        and item.error.startswith("VerificationError")
        for item in batch.items
    ):
        return EXIT_VERIFY_FAILED
    return batch.exit_code


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro.errors import ReproError

    if args.names and args.names[0] == "history":
        from repro.perf.history import history_report, load_history

        try:
            docs = load_history(Path(args.out))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        threshold = 0.25 if args.threshold is None else args.threshold
        report, regressions = history_report(docs, threshold=threshold)
        _print_report(report, regressions)
        return 1 if regressions and args.fail_on_regression else EXIT_OK

    from repro.perf.bench import compare_bench, load_bench, run_bench, write_bench

    if args.compare:
        try:
            old, new = (load_bench(path) for path in args.compare)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        threshold = 0.10 if args.threshold is None else args.threshold
        report, regressions = compare_bench(old, new, threshold=threshold)
        _print_report(report, regressions)
        return 1 if regressions else EXIT_OK
    try:
        doc = run_bench(
            names=args.names,
            quick=args.quick,
            verbose=True,
            cache_dir=None if args.no_cache else args.cache_dir,
            repeat=args.repeat,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    path = write_bench(doc, Path(args.out))
    totals = doc["totals"]
    print(
        f"wrote {path} (mode={doc['mode']}, cache={doc.get('cache', 'off')} "
        f"hits={totals.get('cache_hits', 0)}, lac={totals['lac_seconds']:.3f}s, "
        f"wall={totals['wall_seconds']:.3f}s, median of {doc.get('repeat', 1)} "
        f"runs, IQR {totals.get('wall_iqr', 0.0):.3f}s)"
    )
    floor = args.min_stage_coverage
    low = [
        (e["name"], e["stage_coverage"])
        for e in doc["circuits"]
        if floor is not None and e["ok"] and e["stage_coverage"] < floor
    ]
    for name, cov in low:
        print(
            f"stage coverage for {name} is {cov:.0%}, below the "
            f"--min-stage-coverage floor of {floor:.0%}"
        )
    return 1 if low else EXIT_OK


def _print_report(report, regressions) -> None:
    for line in report:
        print(line)
    for line in regressions:
        print(f"REGRESSION: {line}")


def _cmd_verify(args) -> int:
    if args.target is None:
        if args.inject_result_fault:
            print(
                "error: --inject-result-fault requires a target "
                "(checkpoint dir, outcome.ckpt, or outcome JSON)",
                file=sys.stderr,
            )
            return EXIT_ERROR
        return _verify_s27()

    from repro.errors import ReproError
    from repro.resilience import ResultFault
    from repro.verify import audit_target

    fault = None
    if args.inject_result_fault:
        try:
            fault = ResultFault(args.inject_result_fault)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    try:
        results = audit_target(args.target, fault=fault)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    all_ok = True
    for name, note, report in results:
        if note is not None:
            print(f"{name}: injected {note}", file=sys.stderr)
        print(f"{name}:")
        print("  " + report.format().replace("\n", "\n  "))
        all_ok = all_ok and report.ok
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _verify_s27() -> int:
    """Historical no-target behaviour: simulate retimed s27."""
    from repro.netlist.bench import parse_bench_text
    from repro.netlist.s27 import S27_BENCH
    from repro.netlist import s27_graph
    from repro.retime import min_period_retiming
    from repro.verify import equivalence_certificate

    netlist = parse_bench_text(S27_BENCH, name="s27")
    _t, result = min_period_retiming(s27_graph())
    labels = {net: result.labels.get(net, 0) for net in netlist.gates}
    cert = equivalence_certificate(netlist, labels, n_cycles=64, seed=5)
    print("EQUIVALENT" if cert.ok else "NOT EQUIVALENT")
    return 0 if cert.ok else 1


def _cmd_trace(args) -> int:
    from repro.errors import ReproError
    from repro.obs import read_trace

    try:
        if args.trace_command == "flamegraph":
            from repro.obs import write_flamegraph

            out = args.out if args.out else args.file + ".folded"
            count = write_flamegraph(args.file, out)
            print(f"{out}: {count} folded stacks")
            return EXIT_OK
        doc = read_trace(args.file)
        if args.trace_command == "validate":
            unfinished = f", {len(doc.unfinished)} unfinished" if doc.unfinished else ""
            print(f"{args.file}: valid {doc.schema}, {len(doc.spans)} spans{unfinished}")
        elif args.trace_command == "metrics":
            from repro.obs import prometheus_lines, replay_metrics

            print("\n".join(prometheus_lines(replay_metrics(doc))))
        else:
            from repro.obs.summarize import summarize

            print(summarize(doc))
        return EXIT_OK
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _cmd_cache(args) -> int:
    from repro.compile import CompileCache

    cache = CompileCache(args.cache_dir, mode="auto")
    if args.cache_command == "info":
        entries = cache.entries()
        if not entries:
            print(f"{args.cache_dir}: empty compile cache")
            return EXIT_OK
        total = 0
        for e in entries:
            if "error" in e:
                print(f"{e['path']}: {e['error']}")
                continue
            total += e["size_bytes"]
            t_min = e.get("t_min")
            t_min_s = f"{t_min:.3f}" if isinstance(t_min, (int, float)) else "-"
            print(
                f"{e['fingerprint'][:16]}  {e.get('circuit', '?'):>16} "
                f"n={e.get('n', '?'):>5} t_min={t_min_s:>8} "
                f"periods={len(e.get('periods') or [])} "
                f"{e['size_bytes'] / 1024:.0f} KiB"
            )
        print(
            f"{len(entries)} artifact(s), {total / 1024:.0f} KiB in "
            f"{args.cache_dir}"
        )
        return EXIT_OK
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} artifact(s) from {args.cache_dir}")
        return EXIT_OK
    # prewarm: compile (and solve-enrich) the suite into the cache by
    # running the same plans table1 runs, so a later table1/bench run
    # over the same settings hits on every iteration.
    import functools

    from repro.core import RunContext, plan_interconnect
    from repro.experiments.circuits import TABLE1_CIRCUITS, get_circuit, run_settings
    from repro.resilience import run_batch

    try:
        specs = (
            [get_circuit(name) for name in args.names]
            if args.names
            else list(TABLE1_CIRCUITS)
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    iterations, overrides = run_settings(args.quick)

    def _prewarm(spec) -> int:
        misses0 = cache.stats.misses
        plan_interconnect(
            spec.build(),
            ctx=RunContext(compile_cache=cache),
            max_iterations=iterations,
            **spec.plan_kwargs(),
            **overrides,
        )
        return cache.stats.misses - misses0

    def _report(item) -> None:
        if not item.ok:
            status = f"FAILED ({item.error})"
        elif item.result:
            status = f"compiled {item.result} artifact(s)"
        else:
            status = "already warm"
        print(f"{item.name:>8}: {status}")

    batch = run_batch(
        [(spec.name, functools.partial(_prewarm, spec)) for spec in specs],
        on_item=_report,
    )
    print(
        f"cache at {args.cache_dir}: {len(cache.entries())} artifact(s), "
        f"{cache.stats.misses} compiled this run"
    )
    return EXIT_OK if batch.n_failed == 0 else 1


def _cmd_serve(args) -> int:
    from repro.serve.server import serve_main

    return serve_main(args)


def _cmd_submit(args) -> int:
    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    options = {}
    if args.quick:
        options["quick"] = True
    if args.iterations is not None:
        options["iterations"] = args.iterations
    if args.verify:
        options["verify"] = True
    try:
        client = ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        )
        status, doc = client.submit(
            args.circuit, options=options or None, deadline=args.deadline
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if status in (429, 503):
        reason = doc.get("error", "busy") if isinstance(doc, dict) else doc
        print(f"shed: {reason}", file=sys.stderr)
        return EXIT_BUSY
    if status != 201:
        error = doc.get("error", doc) if isinstance(doc, dict) else doc
        print(f"error: submission rejected ({status}): {error}", file=sys.stderr)
        return EXIT_ERROR
    job_id = doc["id"]
    print(job_id)
    if not args.wait:
        return EXIT_OK
    try:
        final = client.wait(job_id, timeout=args.timeout)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return _report_job(final, client=client)


def _report_job(doc, client=None) -> int:
    """Print a terminal job like the one-shot CLI would, map its exit."""
    import json as _json

    state = doc.get("state")
    result = doc.get("result")
    if state == "done" and result is not None:
        print(_json.dumps(result, indent=2, sort_keys=True))
        code = doc.get("exit_code")
        return code if isinstance(code, int) else EXIT_OK
    if state == "canceled":
        print(f"job {doc.get('id')} canceled", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(
        f"job {doc.get('id')} {state}: {doc.get('error', 'no result')}",
        file=sys.stderr,
    )
    code = doc.get("exit_code")
    return code if isinstance(code, int) else EXIT_NOT_CONVERGED


def _cmd_jobs(args) -> int:
    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    try:
        client = ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        )
        if args.job_id is None:
            return _list_jobs(client)
        if args.cancel:
            status, doc = client.cancel(args.job_id)
            if status == 200:
                print(f"canceled {args.job_id} ({doc.get('canceled')})")
                return EXIT_OK
            error = doc.get("error", doc) if isinstance(doc, dict) else doc
            print(f"error: {error}", file=sys.stderr)
            return EXIT_ERROR
        if args.events:
            sys.stdout.write(client.events(args.job_id))
            return EXIT_OK
        if args.metrics:
            sys.stdout.write(client.metrics(args.job_id))
            return EXIT_OK
        doc = client.job(args.job_id)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if doc is None:
        print(f"error: no job {args.job_id}", file=sys.stderr)
        return EXIT_ERROR
    import json as _json

    print(_json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _list_jobs(client) -> int:
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return EXIT_OK
    print(f"{'id':<20} {'circuit':>8} {'state':>9} {'att':>3} {'exit':>4}  note")
    for doc in jobs:
        exit_code = doc.get("exit_code")
        note = doc.get("error") or ""
        result = doc.get("result")
        if doc.get("state") == "done" and result:
            note = (
                f"t_clk={result.get('t_clk'):.6g} "
                f"n_foa={result.get('n_foa')} n_f={result.get('n_f')}"
            )
        print(
            f"{doc['id']:<20} {doc.get('circuit', '?'):>8} "
            f"{doc.get('state', '?'):>9} {doc.get('attempts', 0):>3} "
            f"{'-' if exit_code is None else exit_code:>4}  {note}"
        )
    return EXIT_OK


def _cmd_circuits(_args) -> int:
    from repro.experiments import TABLE1_CIRCUITS

    for spec in TABLE1_CIRCUITS:
        print(
            f"{spec.name:>8}: {spec.n_units} units, >= {spec.n_ffs} FFs, "
            f"whitespace {spec.whitespace} "
            f"(original: {spec.real_gates} gates / {spec.real_ffs} FFs)"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interconnect planning with LAC-retiming (Lu & Koh, DATE 2003)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan one benchmark circuit")
    p_plan.add_argument("circuit", help="circuit name (s27 or a Table-1 name)")
    p_plan.add_argument("--iterations", type=int, default=2)
    p_plan.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="stream the run's spans to FILE as repro-trace/2 JSONL while "
        "it runs (see `trace summarize` and `trace metrics`)",
    )
    p_plan.add_argument(
        "--progress",
        action="store_true",
        help="show spans on stderr as they open and close",
    )
    p_plan.add_argument(
        "--quick",
        action="store_true",
        help="one planning iteration, short anneal (smoke/CI runs)",
    )
    p_plan.add_argument(
        "--stage-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per stage attempt",
    )
    p_plan.add_argument(
        "--no-degrade",
        action="store_true",
        help="mark infeasible T_clk iterations instead of relaxing the period",
    )
    p_plan.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist stage-boundary checkpoints (repro-ckpt/1) under DIR; "
        "an interrupted run exits 4 and is resumable with --resume",
    )
    p_plan.add_argument(
        "--resume",
        action="store_true",
        help="restore completed stages from --checkpoint-dir instead of "
        "recomputing them (bit-identical to an uninterrupted run)",
    )
    p_plan.add_argument(
        "--verify",
        action="store_true",
        help="independently certify the finished plan (repro.verify); "
        "a failing certificate exits 5",
    )
    p_plan.add_argument(
        "--outcome-json",
        default=None,
        metavar="FILE",
        help="write a portable repro-verify-outcome/1 snapshot of the "
        "outcome, auditable later with `verify FILE`",
    )
    p_plan.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="reuse compiled-circuit artifacts (repro-compile/3) from DIR; "
        "results are bit-identical with and without the cache",
    )
    p_plan.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the compiled-circuit cache entirely",
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_table = sub.add_parser(
        "table1",
        help="regenerate Table 1 (fault-isolated: failing circuits are "
        "reported, not fatal)",
    )
    p_table.add_argument("names", nargs="*", help="subset of circuit names")
    p_table.add_argument("--quick", action="store_true", help="fast smoke run")
    p_table.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run circuits in N worker processes (default: serial)",
    )
    p_table.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="CIRCUIT:STAGE",
        help="deterministically fail STAGE for CIRCUIT (testing harness)",
    )
    p_table.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist per-circuit checkpoints under DIR; an interrupted "
        "batch exits 4 (interrupted, resumable) instead of a generic error",
    )
    p_table.add_argument(
        "--resume",
        action="store_true",
        help="skip circuits already completed in --checkpoint-dir, resume "
        "partial ones",
    )
    p_table.add_argument(
        "--verify",
        action="store_true",
        help="certify every circuit's plan; a failed certificate counts "
        "as a circuit failure and the batch exits 5",
    )
    p_table.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="reuse compiled-circuit artifacts from DIR (see `cache`)",
    )
    p_table.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the compiled-circuit cache",
    )
    p_table.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write each circuit's repro-trace/2 stream under DIR and "
        "merge a batch_summary.json after the batch",
    )
    p_table.add_argument(
        "--progress",
        action="store_true",
        help="show spans on stderr as they open and close (serial runs only)",
    )
    p_table.set_defaults(func=_cmd_table1)

    p_bench = sub.add_parser(
        "bench", help="time the planning flow per stage, write BENCH_<n>.json"
    )
    p_bench.add_argument(
        "names",
        nargs="*",
        help="subset of circuit names, or the single word 'history' to "
        "print the BENCH_<n>.json series trajectory",
    )
    p_bench.add_argument(
        "--quick", action="store_true", help="smoke subset, one iteration"
    )
    p_bench.add_argument(
        "--out", default="benchmarks/results", metavar="DIR",
        help="output directory (default: benchmarks/results)",
    )
    p_bench.add_argument(
        "--min-stage-coverage", type=float, default=None, metavar="FRAC",
        help="fail unless recorded stages cover at least this fraction "
        "of each circuit's wall clock",
    )
    p_bench.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the circuit set N times and record the median and IQR "
        "of the total and of each stage (default 1)",
    )
    p_bench.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two BENCH_<n>.json files instead of benching; "
        "exits nonzero on timing or result regressions",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="with --compare: allowed total median wall-clock regression, "
        "flagged only if also beyond the old side's IQR (default 0.10); "
        "with history: flagged growth fraction (default 0.25)",
    )
    p_bench.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="with history: exit 1 when a regression between comparable "
        "adjacent runs is flagged",
    )
    p_bench.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="share a compiled-circuit cache across the benched circuits "
        "and record hit/miss counts in the report",
    )
    p_bench.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the compiled-circuit cache",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser(
        "verify",
        help="certify saved outcomes (checkpoint dir / outcome JSON); "
        "without a target, simulate retimed s27 vs original",
    )
    p_verify.add_argument(
        "target",
        nargs="?",
        default=None,
        help="checkpoint directory, outcome.ckpt file, or outcome JSON "
        "snapshot to audit",
    )
    p_verify.add_argument(
        "--inject-result-fault",
        default=None,
        metavar="KIND",
        help="corrupt each loaded outcome in memory before certifying "
        "(retime_label, period, tile_sum, route_usage, repeater_area); "
        "the audit must then exit 5",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, clear, or prewarm the compiled-circuit cache "
        "(repro-compile/3 artifacts)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_info = cache_sub.add_parser(
        "info", help="list cached artifacts (circuit, size, solve state)"
    )
    p_cache_clear = cache_sub.add_parser(
        "clear", help="remove every cached artifact"
    )
    p_cache_prewarm = cache_sub.add_parser(
        "prewarm",
        help="populate the cache by planning the Table-1 suite (or a "
        "subset) once; later runs with the same settings hit",
    )
    p_cache_prewarm.add_argument(
        "names", nargs="*", help="subset of circuit names (default: all)"
    )
    p_cache_prewarm.add_argument(
        "--quick",
        action="store_true",
        help="prewarm for --quick runs (short anneal, one iteration); "
        "quick and full runs expand different graphs, so their "
        "artifacts are distinct",
    )
    for p in (p_cache_info, p_cache_clear, p_cache_prewarm):
        p.add_argument(
            "--cache-dir",
            required=True,
            metavar="DIR",
            help="compiled-circuit cache directory",
        )
        p.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the planning service daemon (bounded job queue + "
        "supervised worker pool + HTTP endpoints)",
    )
    p_serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve HTTP over a Unix domain socket at PATH",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="serve HTTP over TCP on --host:N (0 picks a free port)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_serve.add_argument(
        "--spool",
        default="serve-spool",
        metavar="DIR",
        help="persistent spool directory (queue, results, per-job "
        "checkpoints and telemetry); survives daemon restarts",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes running jobs concurrently (default 2)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max queued jobs before submissions shed with 429 "
        "(default 64)",
    )
    p_serve.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        metavar="N",
        help="claims per job before a crashing job fails (default 2)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock budget (submissions may "
        "override); exceeded jobs are killed and retried",
    )
    p_serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="kill a worker whose heartbeat goes stale this long "
        "(hung, not slow; default 30)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM: let running jobs finish this long before "
        "checkpointing and requeueing them (default 30)",
    )
    p_serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="supervision loop period (default 0.05)",
    )
    p_serve.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="KIND[:STAGE[:CALL]]",
        help="arm a deterministic service fault (worker_crash, "
        "queue_corrupt) — the CI harness for crash recovery",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a planning job to a running service"
    )
    p_submit.add_argument("circuit", help="circuit name (s27 or a Table-1 name)")
    p_submit.add_argument("--socket", default=None, metavar="PATH")
    p_submit.add_argument("--port", type=int, default=None, metavar="N")
    p_submit.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_submit.add_argument(
        "--quick", action="store_true", help="one iteration, short anneal"
    )
    p_submit.add_argument(
        "--iterations", type=int, default=None, metavar="N"
    )
    p_submit.add_argument(
        "--verify",
        action="store_true",
        help="certify the finished plan in the worker",
    )
    p_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job is terminal; exit with the job's own "
        "per-plan code (0/1/3/5)",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait limit (default 600)",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list or inspect jobs on a running service"
    )
    p_jobs.add_argument(
        "job_id", nargs="?", default=None, help="job id (omit to list all)"
    )
    p_jobs.add_argument("--socket", default=None, metavar="PATH")
    p_jobs.add_argument("--port", type=int, default=None, metavar="N")
    p_jobs.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_jobs.add_argument(
        "--events",
        action="store_true",
        help="print the job's repro-trace/2 stream as written so far",
    )
    p_jobs.add_argument(
        "--metrics",
        action="store_true",
        help="print the job's metrics as Prometheus text, replayed from "
        "its trace",
    )
    p_jobs.add_argument(
        "--cancel", action="store_true", help="cancel the job"
    )
    p_jobs.set_defaults(func=_cmd_jobs)

    p_list = sub.add_parser("circuits", help="list the benchmark suite")
    p_list.set_defaults(func=_cmd_circuits)

    p_trace = sub.add_parser(
        "trace",
        help="inspect a trace file (repro-trace/2, or /1)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    for name, doc in (
        (
            "summarize",
            "render span tree, stage table, convergence tables and any "
            "unfinished spans",
        ),
        ("validate", "check a trace file against its schema"),
        (
            "metrics",
            "print the run's metrics, replayed from its spans, as "
            "Prometheus text",
        ),
    ):
        p = trace_sub.add_parser(name, help=doc)
        p.add_argument("file", help="trace file (JSONL)")
        p.set_defaults(func=_cmd_trace)
    p_flame = trace_sub.add_parser(
        "flamegraph",
        help="write folded stacks (name;child <self-us> per line) for "
        "flamegraph.pl / speedscope",
    )
    p_flame.add_argument("file", help="trace file (JSONL)")
    p_flame.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path (default: <trace>.folded)",
    )
    p_flame.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(levelname).1s %(name)s: %(message)s",
        )
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        if not stdout_reader_gone():
            raise  # another pipe broke, e.g. a service socket
        # Send what is still buffered, and the interpreter's last flush,
        # to /dev/null instead of raising again on the way out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
