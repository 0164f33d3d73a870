"""Service-layer tests: wire schema, queue, supervisor, HTTP daemon.

The unit layers (wire records, spool transitions, supervisor
classification) run in-process with no sockets. The end-to-end class
boots the real daemon over a Unix socket in a subprocess and drives it
with the real client — the same path CI's serve-smoke job exercises.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cliutil import EXIT_BUSY, EXIT_INTERRUPTED, EXIT_NOT_CONVERGED, EXIT_OK
from repro.errors import QueueFullError, ServeError
from repro.resilience.faults import WORKER_CRASH_EXIT, FaultInjector, ServeFault
from repro.serve.client import ServeClient
from repro.serve.queue import JobQueue
from repro.serve.supervisor import Supervisor, WorkerTemplate
from repro.serve.wire import JobRecord, job_seq, new_job_id, normalize_options

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestWire:
    def test_round_trip(self):
        rec = JobRecord(id=new_job_id(3), circuit="s298", state="queued")
        back = JobRecord.from_json(rec.to_json())
        assert back == rec
        assert back.to_dict()["schema"] == "repro-job/1"

    def test_ids_are_fifo_sortable(self):
        ids = [new_job_id(i) for i in (1, 2, 10, 100)]
        assert sorted(ids) == ids
        assert [job_seq(i) for i in ids] == [1, 2, 10, 100]

    def test_rejects_corrupt_documents(self):
        with pytest.raises(ServeError):
            JobRecord.from_json("{not json")
        with pytest.raises(ServeError):
            JobRecord.from_json(json.dumps({"schema": "repro-job/1"}))
        doc = JobRecord(id="j1", circuit="s27", state="queued").to_dict()
        doc["state"] = "exploded"
        with pytest.raises(ServeError):
            JobRecord.from_dict(doc)

    def test_normalize_options(self):
        assert normalize_options(None) == {
            "quick": False,
            "iterations": 2,
            "verify": False,
        }
        assert normalize_options({"quick": True})["quick"] is True
        with pytest.raises(ServeError):
            normalize_options({"sneaky": 1})
        with pytest.raises(ServeError):
            normalize_options({"iterations": 0})
        with pytest.raises(ServeError):
            normalize_options({"iterations": True})


class TestJobQueue:
    def test_submit_claim_finish_lifecycle(self, tmp_path):
        q = JobQueue(tmp_path / "spool", capacity=4)
        rec = q.submit("s27", options={"quick": True})
        assert rec.state == "queued"
        assert q.path_for("queued", rec.id).exists()
        claimed = q.claim()
        assert claimed.id == rec.id and claimed.attempts == 1
        assert q.path_for("running", rec.id).exists()
        assert not q.path_for("queued", rec.id).exists()
        q.finish(claimed, "done", result={"t_clk": 1.0}, exit_code=0)
        final = q.get(rec.id)
        assert final.state == "done" and final.result == {"t_clk": 1.0}
        assert q.counts()["running"] == 0

    def test_fifo_order(self, tmp_path):
        q = JobQueue(tmp_path, capacity=8)
        ids = [q.submit("s27").id for _ in range(3)]
        assert [q.claim().id for _ in range(3)] == ids

    def test_capacity_sheds(self, tmp_path):
        q = JobQueue(tmp_path, capacity=2)
        q.submit("s27")
        q.submit("s27")
        with pytest.raises(QueueFullError):
            q.submit("s27")
        # Draining one slot reopens the gate.
        q.claim()
        q.submit("s27")

    def test_backoff_defers_claim(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27")
        claimed = q.claim()
        q.requeue(claimed, error="crash", backoff=60.0)
        assert q.claim(now=time.time()) is None  # still backing off
        assert q.claim(now=time.time() + 61.0).id == rec.id

    def test_requeue_refund_keeps_attempts(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        q.submit("s27")
        claimed = q.claim()
        assert claimed.attempts == 1
        q.requeue(claimed, error="drain", refund_attempt=True)
        assert q.claim().attempts == 1  # refunded, not 2

    def test_recover_requeues_running(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27")
        q.claim()
        q.heartbeat_path(rec.id).touch()
        q.out_path(rec.id).write_text("{}")
        # New queue over the same spool = daemon restart.
        q2 = JobQueue(tmp_path, capacity=4)
        assert q2.recover() == [rec.id]
        back = q2.get(rec.id)
        assert back.state == "queued" and back.attempts == 0
        assert not q2.heartbeat_path(rec.id).exists()
        assert not q2.out_path(rec.id).exists()

    def test_corrupt_record_is_quarantined(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27")
        path = q.path_for("queued", rec.id)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert q.claim() is None
        assert not path.exists()
        assert q.counts()["quarantined"] == 1

    def test_queue_corrupt_fault_spools_quarantinable_record(self, tmp_path):
        faults = FaultInjector(serve_faults=[ServeFault("queue_corrupt")])
        q = JobQueue(tmp_path, capacity=4, faults=faults)
        q.submit("s27")  # fault truncates this record on spool
        ok = q.submit("s27")
        assert q.claim().id == ok.id  # corrupt one skipped + quarantined
        assert q.counts()["quarantined"] == 1

    def test_seq_survives_restart(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        first = q.submit("s27")
        q2 = JobQueue(tmp_path, capacity=4)
        second = q2.submit("s27")
        assert job_seq(second.id) == job_seq(first.id) + 1

    def test_cancel_queued(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27")
        assert q.cancel_queued(rec.id).state == "canceled"
        assert q.get(rec.id).state == "canceled"
        assert q.cancel_queued(rec.id) is None


class _ScriptedSupervisor(Supervisor):
    """Supervisor whose workers run a python snippet instead of a planner.

    The snippet is forked from the worker template like a real job.
    """

    def __init__(self, queue, body, **kw):
        super().__init__(queue, **kw)
        self._body = body

    def _spawn(self, record, now):
        body = self._body % {"spool": str(self.queue.root)}
        self._track(record, self.template.start(exec, (body, {})), now)


def _settle(sup, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        sup.tick()
        if sup.idle and sup.queue.queued_count() == 0:
            return
        time.sleep(0.02)
    raise AssertionError("supervisor did not settle")


class TestSupervisor:
    def test_crash_requeues_then_fails_when_attempts_exhausted(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27", max_attempts=2)
        sup = _ScriptedSupervisor(
            q, "import os; os._exit(137)", workers=1, backoff=0.0
        )
        _settle(sup)
        final = q.get(rec.id)
        assert final.state == "failed"
        assert final.attempts == 2
        assert "crashed" in final.error
        assert sup.crashes_recovered == 1

    def test_result_exit_with_out_file_is_done(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27")
        body = (
            "import json, pathlib, sys; "
            "root = pathlib.Path(r'%(spool)s'); "
            f"(root / 'running' / '{rec.id}.out')"
            ".write_text(json.dumps({'t_clk': 2.5})); "
            "sys.exit(0)"
        )
        sup = _ScriptedSupervisor(q, body, workers=1)
        _settle(sup)
        final = q.get(rec.id)
        assert final.state == "done"
        assert final.exit_code == EXIT_OK
        assert final.result == {"t_clk": 2.5}

    def test_clean_exit_without_result_is_a_crash(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27", max_attempts=1)
        sup = _ScriptedSupervisor(q, "pass", workers=1, backoff=0.0)
        _settle(sup)
        final = q.get(rec.id)
        assert final.state == "failed" and "crashed" in final.error

    def test_flow_error_exit_2_fails_without_retry(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27", max_attempts=3)
        body = (
            "import json, pathlib, sys; "
            "root = pathlib.Path(r'%(spool)s'); "
            f"(root / 'running' / '{rec.id}.out')"
            ".write_text(json.dumps({'error': 'bad circuit'})); "
            "sys.exit(2)"
        )
        sup = _ScriptedSupervisor(q, body, workers=1)
        _settle(sup)
        final = q.get(rec.id)
        assert final.state == "failed"
        assert final.attempts == 1  # deterministic failure: no retry
        assert final.error == "bad circuit"

    def test_interrupted_exit_4_requeues_with_refund(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27", max_attempts=1)
        sup = _ScriptedSupervisor(
            q, "import sys; sys.exit(4)", workers=1
        )
        sup.tick()
        # Stop claims so the refunded requeue is observable instead of
        # being immediately re-claimed by the next tick.
        sup.accepting_claims = False
        deadline = time.monotonic() + 10
        while sup.running and time.monotonic() < deadline:
            sup.tick()
            time.sleep(0.02)
        back = q.get(rec.id)
        assert back.state == "queued"
        assert back.attempts == 0  # refunded: drain is not the job's fault

    def test_deadline_kill_consumes_attempt(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27", max_attempts=1, deadline=0.2)
        sup = _ScriptedSupervisor(
            q, "import time; time.sleep(60)", workers=1, backoff=0.0
        )
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            sup.tick()
            final = q.get(rec.id)
            if final.state == "failed":
                break
            time.sleep(0.05)
        final = q.get(rec.id)
        assert final.state == "failed"
        assert "deadline" in final.error

    def test_worker_crash_fault_fires_once(self, tmp_path):
        armed = ServeFault("worker_crash")
        faults = FaultInjector(serve_faults=[armed])
        assert faults.worker_fault() is armed
        assert faults.worker_fault() is None  # fires once, on_job=1

    def test_worker_crash_spec_hard_exits(self):
        fault = ServeFault.parse("worker_crash:retime:1")
        spec = fault.as_spec()
        assert spec.exit_code == WORKER_CRASH_EXIT
        code = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.resilience.faults import FaultInjector, ServeFault; "
            "inj = FaultInjector([ServeFault.parse('worker_crash:retime:1').as_spec()]); "
            "inj.on_call('floorplan'); "  # wrong stage: survives
            "inj.on_call('retime'); "  # fires: os._exit(137)
            "print('UNREACHABLE')"
        ) % SRC
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == WORKER_CRASH_EXIT
        assert "UNREACHABLE" not in proc.stdout

    def test_attempts_run_in_different_pids(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        rec = q.submit("s27", max_attempts=2)
        body = (
            "import os, pathlib; "
            "(pathlib.Path(r'%(spool)s') / f'pid-{os.getpid()}').touch(); "
            "os._exit(137)"
        )
        sup = _ScriptedSupervisor(q, body, workers=1, backoff=0.0)
        _settle(sup)
        assert q.get(rec.id).attempts == 2
        pids = [int(p.name[4:]) for p in tmp_path.glob("pid-*")]
        assert len(pids) == 2
        assert not {os.getpid(), sup.template.pid} & set(pids)

    def test_killed_template_restarts_for_next_job(self, tmp_path):
        q = JobQueue(tmp_path, capacity=4)
        body = (
            "import json, pathlib; "
            "running = pathlib.Path(r'%(spool)s') / 'running'; "
            "[p.with_suffix('.out').write_text(json.dumps({'t_clk': 1.0})) "
            "for p in running.glob('*.json')]"
        )
        sup = _ScriptedSupervisor(q, body, workers=1)
        first = q.submit("s27")
        _settle(sup)
        template = sup.template.pid
        os.kill(template, signal.SIGKILL)
        _wait_zombie(template)
        second = q.submit("s27")
        _settle(sup)
        assert q.get(first.id).state == "done"
        assert q.get(second.id).state == "done"
        assert q.get(second.id).attempts == 1
        assert sup.template.pid != template


def _wait_zombie(pid, timeout=10.0):
    """Wait until ``pid`` (a child of this process) has died."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stat = Path(f"/proc/{pid}/stat").read_text()
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} did not die")


#: Runs one job in a process forked from the template and records the
#: modules the job imported beyond what the template had preloaded.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from repro.serve.worker import job_main
try:
    job_main(spool, job_id)
finally:
    with open(out, "w") as fh:
        fh.write("\\n".join(sorted(set(sys.modules) - before)))
"""


class TestWorkerTemplate:
    def test_preload_covers_a_quick_job(self, tmp_path):
        q = JobQueue(tmp_path / "spool", capacity=4)
        rec = q.submit("s27", options={"quick": True})
        q.claim()
        out = tmp_path / "imported.txt"
        env = {"spool": str(q.root), "job_id": rec.id, "out": str(out)}
        proc = WorkerTemplate().start(exec, (_IMPORT_PROBE, env))
        proc.join(timeout=120)
        assert proc.exitcode in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert "circuit" in json.loads(q.out_path(rec.id).read_text())
        assert out.read_text().split() == []


def _start_daemon(tmp_path, *extra):
    sock = str(tmp_path / "repro.sock")
    spool = str(tmp_path / "spool")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock,
            "--spool",
            spool,
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServeClient(socket_path=sock)
    deadline = time.time() + 15
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died rc={proc.returncode}: {proc.communicate()[0]}"
            )
        if os.path.exists(sock):
            try:
                client.health()
                return proc, client, Path(spool)
            except ServeError:
                pass
        time.sleep(0.1)
    proc.kill()
    raise AssertionError("daemon never became healthy")


def _stop_daemon(proc, timeout=30):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)
    return proc.returncode


@pytest.mark.slow
class TestServeEndToEnd:
    def test_submit_run_drain(self, tmp_path):
        proc, client, spool = _start_daemon(
            tmp_path, "--workers", "2", "--queue-limit", "4"
        )
        try:
            health = client.health()
            assert health["ok"] and health["accepting"]
            assert client.ready()
            status, doc = client.submit("s27", options={"quick": True})
            assert status == 201
            final = client.wait(doc["id"], timeout=120)
            assert final["state"] == "done"
            assert final["exit_code"] == EXIT_OK
            result = final["result"]
            assert result["circuit"] == "s27" and result["converged"]
            # Telemetry endpoints serve the real wire formats.
            events = client.events(doc["id"])
            header = json.loads(events.splitlines()[0])
            assert header["schema"] == "repro-events/1"
            metrics = client.metrics(doc["id"])
            assert json.loads(metrics.splitlines()[0])["schema"] == (
                "repro-metrics/1"
            )
            # Job listing includes the finished job.
            assert any(j["id"] == doc["id"] for j in client.jobs())
        finally:
            rc = _stop_daemon(proc)
        assert rc == 0
        assert list((spool / "running").glob("*")) == []

    def test_sigterm_drain_reaps_the_worker_template(self, tmp_path):
        proc, client, _spool = _start_daemon(tmp_path, "--workers", "1")
        try:
            # The template starts on the first claim, not with the daemon.
            assert client.health()["workers"]["template_pid"] is None
            _status, doc = client.submit("s27", options={"quick": True})
            assert client.wait(doc["id"], timeout=120)["state"] == "done"
            template = client.health()["workers"]["template_pid"]
            assert Path(f"/proc/{template}").exists()
        finally:
            rc = _stop_daemon(proc)
        assert rc == 0
        assert not Path(f"/proc/{template}").exists()

    def test_second_job_hits_the_spool_compile_cache(self, tmp_path):
        proc, client, spool = _start_daemon(tmp_path, "--workers", "1")
        try:
            finals, caches = [], []
            for _ in range(2):
                _status, doc = client.submit("s27", options={"quick": True})
                finals.append(client.wait(doc["id"], timeout=120))
                status, text = client.request("GET", f"/jobs/{doc['id']}/trace")
                assert status == 200
                spans = [json.loads(line) for line in text.splitlines()[1:]]
                caches.append(
                    [s["attrs"]["cache"] for s in spans if s["name"] == "compile"]
                )
        finally:
            _stop_daemon(proc)
        assert caches == [["miss"], ["hit"]]
        assert list((spool / "compile-cache").glob("*.cc"))
        first, second = (final["result"] for final in finals)
        for field in ("t_clk", "n_foa", "n_f"):
            assert first[field] == second[field], field

    def test_unknown_circuit_rejected_with_400(self, tmp_path):
        proc, client, _spool = _start_daemon(tmp_path)
        try:
            status, doc = client.submit("not-a-circuit")
            assert status == 400
            assert "unknown circuit" in doc["error"]
        finally:
            _stop_daemon(proc)

    def test_queue_full_sheds_429_and_submit_exits_6(self, tmp_path):
        # One slow worker + capacity 1: the second unclamable job fills
        # the queue, the third submission must shed.
        proc, client, _spool = _start_daemon(
            tmp_path, "--workers", "1", "--queue-limit", "1"
        )
        try:
            status, first = client.submit("s298", options={"quick": True})
            assert status == 201
            deadline = time.time() + 15
            while time.time() < deadline:
                doc = client.job(first["id"])
                if doc and doc["state"] == "running":
                    break
                time.sleep(0.05)
            status, _doc = client.submit("s27", options={"quick": True})
            assert status == 201  # fills the single queue slot
            status, doc = client.submit("s27", options={"quick": True})
            assert status == 429
            assert "full" in doc["error"]
            # The CLI client maps the shed to EXIT_BUSY.
            cli = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "submit",
                    "s27",
                    "--quick",
                    "--socket",
                    str(tmp_path / "repro.sock"),
                ],
                env=dict(os.environ, PYTHONPATH=SRC),
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert cli.returncode == EXIT_BUSY
            assert "shed" in cli.stderr
        finally:
            _stop_daemon(proc, timeout=120)

    def test_cancel_queued_job(self, tmp_path):
        proc, client, _spool = _start_daemon(
            tmp_path, "--workers", "1", "--queue-limit", "4"
        )
        try:
            client.submit("s298", options={"quick": True})
            status, doc = client.submit("s27", options={"quick": True})
            assert status == 201
            status, body = client.cancel(doc["id"])
            assert status == 200 and body["canceled"] == "queued"
            assert client.job(doc["id"])["state"] == "canceled"
            status, body = client.cancel(doc["id"])
            assert status == 409
        finally:
            _stop_daemon(proc, timeout=120)
