"""Crash-safe stage-boundary checkpoints for planner and batch runs.

A :class:`CheckpointManager` gives a planning run durable progress: the
:class:`~repro.resilience.runner.StageRunner` commits each stage's
result when — and only when — the stage *succeeds* (a failed retry
attempt never reaches the store), and a later run started with
``resume=True`` restores those results instead of recomputing them.
Because every stage of the flow is deterministic given its inputs and
seeds, restoring a prefix of stage results and recomputing the rest
reproduces the uninterrupted outcome bit for bit.

Store layout (one subdirectory per circuit under the root)::

    <root>/<circuit>/
        partition_1-<hash>.ckpt        # one file per committed stage
        iteration_1_retime_1-<hash>.ckpt
        outcome.ckpt                   # the finished PlanningOutcome
        quarantine/                    # corrupt/mismatched files, kept

Each ``.ckpt`` file is a sealed file (:func:`repro.ioutil.write_sealed`)
of schema ``repro-ckpt/1`` whose payload is a pickle::

    {"circuit": "s298", "fingerprint": "<sha256 of graph+config>",
     "key": "iteration 1/retime#1", "kind": "stage", "meta": {...},
     "schema": "repro-ckpt/1", "sha256": "<payload digest>"}\\n
    <pickle bytes>

Files are written atomically, so a kill mid-commit leaves the previous
snapshot intact. On restore :func:`repro.ioutil.read_sealed` verifies
the schema, the key and the payload checksum, and this store checks
the run fingerprint; any mismatch — truncation, a flipped bit, a
checkpoint from a different graph/config — moves the file into
``quarantine/`` (:func:`repro.ioutil.quarantine`) with a logged
warning and reports a miss, so the stage is recomputed cleanly rather
than resumed wrong. So does a payload whose ``is_current()`` method
returns ``False``: a
:class:`~repro.compile.artifact.CompiledCircuit` pickled under an older
``COMPILE_SCHEMA`` is recompiled, not resumed into a crash.

The *fingerprint* (:func:`run_fingerprint`) hashes the circuit graph,
the planner config and ``max_iterations``; the run's plumbing (retry
posture, telemetry sinks, compile cache) is not part of the config, so
checkpoints are interchangeable across it. Stage keys are ``<scope>/<stage>#<n>`` where
``n`` counts requests of that scope+stage pair within the run, so the
Nth ``expand_floorplan`` of a resumed run lines up with the Nth of the
original.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pickle
import re
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import CheckpointError, SealedFileError
from repro.ioutil import quarantine, read_sealed, sweep_staging, write_sealed

log = logging.getLogger(__name__)

CKPT_SCHEMA = "repro-ckpt/1"

#: Header kinds.
KIND_STAGE = "stage"
KIND_OUTCOME = "outcome"

#: The reserved key for the run's final outcome snapshot.
OUTCOME_KEY = "outcome"

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def run_fingerprint(graph, config, max_iterations: int) -> str:
    """Content hash identifying what a run computes.

    Two runs with equal fingerprints produce identical results, so
    their checkpoints are interchangeable. Covers the full graph (via
    :func:`repro.netlist.io.graph_to_dict`), the whole planner config
    and ``max_iterations``. The run's plumbing (telemetry sinks, retry
    posture, compile cache) lives in a
    :class:`~repro.core.context.RunContext`, not the config, so it can
    never reach the hash.
    """
    from repro.netlist.io import graph_to_dict

    doc = {
        "schema": CKPT_SCHEMA,
        "graph": graph_to_dict(graph),
        # The retired knobs stay hashed at their only values, so
        # default-run digests are unchanged and tree/slicing,
        # multi-start or unpruned ones go stale.
        "config": {
            **dataclasses.asdict(config),
            "prune": True,
            "floorplan_backend": "sequence_pair",
            "repeater_backend": "path",
            "anneal_replicas": 1,
            "anneal_jobs": 1,
        },
        "max_iterations": max_iterations,
    }
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _slug(key: str) -> str:
    """Filesystem-safe, collision-free file name for a stage key."""
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:8]
    return f"{_SLUG_RE.sub('_', key).strip('_')}-{digest}.ckpt"


class CheckpointManager:
    """Durable stage-result store for one (or many) planning runs.

    Construct with the store root and the resume switch, then let
    :func:`~repro.core.planner.plan_interconnect` call :meth:`bind`
    with the circuit name and run fingerprint; commits and restores
    only work once bound. One manager serves one run — the stage-key
    counters are run-local.

    ``resume=False`` never restores (and clears stale snapshots for
    the circuit on bind), so a fresh run always recomputes;
    ``resume=True`` restores any committed, valid snapshot.

    ``faults`` (a :class:`~repro.resilience.faults.FaultInjector`) may
    corrupt files after commit — the test harness for the quarantine
    path.
    """

    def __init__(
        self,
        root: Union[str, Path],
        resume: bool = False,
        faults=None,
    ):
        self.root = Path(root)
        self.resume = resume
        self.faults = faults
        self.dir: Optional[Path] = None
        self.fingerprint: Optional[str] = None
        self.circuit: Optional[str] = None
        self._counts: Dict[Tuple[str, str], int] = {}

    # -- binding -------------------------------------------------------
    def bind(self, circuit: str, fingerprint: str) -> None:
        """Point the manager at one run: circuit subdir + fingerprint."""
        self.circuit = circuit
        self.fingerprint = fingerprint
        self._counts = {}
        self.dir = self.root / _SLUG_RE.sub("_", circuit)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.dir}: {exc}"
            ) from exc
        # A kill mid-commit can leave tmp files; they are never read,
        # but clearing them keeps the store tidy.
        sweep_staging(self.dir)
        if not self.resume:
            # A fresh run supersedes whatever a previous run left here.
            for stale in self.dir.glob("*.ckpt"):
                stale.unlink(missing_ok=True)

    def _require_bound(self) -> Path:
        if self.dir is None:
            raise CheckpointError(
                "checkpoint manager is not bound to a run "
                "(plan_interconnect calls bind())"
            )
        return self.dir

    # -- stage keys ----------------------------------------------------
    def key(self, scope: str, stage: str) -> str:
        """Allocate the key for the next request of ``scope``/``stage``.

        Called once per stage *request* (hit or miss), so the counter —
        and therefore the key sequence — is identical between an
        original run and its resume.
        """
        n = self._counts.get((scope, stage), 0) + 1
        self._counts[(scope, stage)] = n
        return f"{scope}/{stage}#{n}" if scope else f"{stage}#{n}"

    def path_for(self, key: str) -> Path:
        if key == OUTCOME_KEY:
            return self._require_bound() / "outcome.ckpt"
        return self._require_bound() / _slug(key)

    # -- commit --------------------------------------------------------
    def commit(
        self, key: str, value: Any, kind: str = KIND_STAGE, **meta: Any
    ) -> Optional[Path]:
        """Atomically persist ``value`` under ``key``.

        Returns the written path, or ``None`` when the value cannot be
        pickled — an unpicklable stage result downgrades to "not
        checkpointed" with a warning rather than failing the run.
        """
        path = self.path_for(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            log.warning(
                "checkpoint %s: result not picklable (%s: %s); skipping",
                key,
                type(exc).__name__,
                exc,
            )
            return None
        header = {
            "schema": CKPT_SCHEMA,
            "kind": kind,
            "key": key,
            "circuit": self.circuit,
            "fingerprint": self.fingerprint,
            "meta": {k: v for k, v in meta.items() if v is not None},
        }
        write_sealed(path, header, payload)
        log.debug("checkpoint committed: %s (%d bytes)", key, len(payload))
        if self.faults is not None:
            self.faults.on_checkpoint_commit(key, path)
        return path

    # -- restore -------------------------------------------------------
    def restore(self, key: str) -> Tuple[bool, Any, Dict[str, Any]]:
        """Load ``key`` if resuming and a valid snapshot exists.

        Returns ``(hit, value, meta)``. Corrupt, truncated,
        fingerprint-mismatched or stale-layout files are quarantined
        (moved into ``quarantine/`` beside the store) and reported as a
        miss so the caller recomputes.
        """
        if not self.resume:
            return False, None, {}
        path = self.path_for(key)
        if not path.exists():
            return False, None, {}
        try:
            header, value = self._load(path, key)
        except SealedFileError as exc:
            log.warning(
                "checkpoint %s quarantined: %s — recomputing the stage",
                path,
                exc.reason,
            )
            quarantine(path, path.parent / "quarantine")
            return False, None, {}
        log.info("checkpoint restored: %s", key)
        return True, value, header.get("meta") or {}

    def _load(self, path: Path, key: str) -> Tuple[Dict[str, Any], Any]:
        try:
            header, payload = read_sealed(
                path, CKPT_SCHEMA, key=key, fingerprint=self.fingerprint
            )
        except SealedFileError as exc:
            if exc.field != "fingerprint":
                raise
            raise SealedFileError(
                path,
                "stale fingerprint (checkpoint was written by a run with a "
                "different graph/config)",
            ) from None
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            raise SealedFileError(
                path, f"unpicklable payload ({type(exc).__name__}: {exc})"
            ) from exc
        # A payload may refuse a snapshot of an older layout of its
        # class (e.g. a compile artifact pickled before a schema bump);
        # the run fingerprint cannot see that, so ask the value.
        is_current = getattr(value, "is_current", None)
        if callable(is_current) and not is_current():
            raise SealedFileError(
                path,
                f"stale payload layout ({type(value).__name__} schema "
                f"{getattr(value, 'schema', None)!r})",
            )
        return header, value

    # -- whole-run outcome ---------------------------------------------
    def commit_outcome(self, outcome: Any) -> Optional[Path]:
        """Persist the finished run's outcome (marks the run complete)."""
        return self.commit(OUTCOME_KEY, outcome, kind=KIND_OUTCOME)

    def restore_outcome(self) -> Optional[Any]:
        """The completed outcome of a previous run, or ``None``."""
        hit, value, _meta = self.restore(OUTCOME_KEY)
        return value if hit else None
