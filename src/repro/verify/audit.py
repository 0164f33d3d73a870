"""Offline audit of saved planning runs.

``audit_target`` points the verification layer at artifacts on disk:

* an ``outcome.ckpt`` file (or any ``repro-ckpt/1`` outcome file);
* a circuit's checkpoint directory containing ``outcome.ckpt``;
* a checkpoint *root* holding several circuit subdirectories — every
  completed outcome underneath is audited;
* a ``repro-verify-outcome/1`` JSON snapshot written by
  ``plan --outcome-json`` (:mod:`repro.verify.outcome_io`).

Checkpoint headers are validated structurally (schema, kind, payload
checksum) before unpickling; the run *fingerprint* is deliberately not
required — an audit has no graph/config pair to re-fingerprint against,
and its whole point is to re-derive the claims instead of trusting
provenance.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import VerificationError
from repro.resilience.checkpoint import CKPT_SCHEMA, KIND_OUTCOME
from repro.verify.certificate import VerificationReport
from repro.verify.outcome_io import load_outcome_json, refuse_retired_backend
from repro.verify.plan import verify_outcome


def load_outcome_checkpoint(path):
    """Unpickle a committed ``repro-ckpt/1`` outcome file, verified.

    Raises:
        VerificationError: The file is unreadable, corrupt (header,
            schema, or payload checksum), or not an outcome snapshot —
            a corrupt artifact cannot be *certified*, only rejected.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise VerificationError(f"cannot read checkpoint {path}: {exc}") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise VerificationError(f"{path}: truncated checkpoint (no header line)")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VerificationError(f"{path}: corrupt checkpoint header ({exc})")
    if not isinstance(header, dict) or header.get("schema") != CKPT_SCHEMA:
        raise VerificationError(
            f"{path}: not a {CKPT_SCHEMA} file "
            f"(schema={header.get('schema') if isinstance(header, dict) else None!r})"
        )
    if header.get("kind") != KIND_OUTCOME:
        raise VerificationError(
            f"{path}: checkpoint kind {header.get('kind')!r} is not an "
            "outcome snapshot (point the audit at outcome.ckpt)"
        )
    payload = data[newline + 1 :]
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise VerificationError(
            f"{path}: payload checksum mismatch (truncated or corrupted)"
        )
    try:
        outcome = pickle.loads(payload)
    except Exception as exc:
        raise VerificationError(
            f"{path}: unpicklable outcome payload "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    refuse_retired_backend(vars(outcome.config), path)
    return outcome


def discover_outcomes(target) -> List[Tuple[str, Path]]:
    """``(name, path)`` of every auditable outcome under ``target``."""
    target = Path(target)
    if target.is_file():
        return [(target.stem, target)]
    if not target.is_dir():
        raise VerificationError(f"no such file or directory: {target}")
    direct = target / "outcome.ckpt"
    if direct.exists():
        return [(target.name, direct)]
    # CheckpointManager lays runs out as <root>/<circuit>/outcome.ckpt,
    # so a batch root is two levels up from the outcomes; search
    # recursively and name each by its directory.
    found = sorted(
        (path.parent.name, path)
        for path in target.rglob("outcome.ckpt")
        if "quarantine" not in path.parts
    )
    if not found:
        raise VerificationError(
            f"no completed outcomes under {target} (expected outcome.ckpt "
            "files; was the run interrupted before finishing?)"
        )
    return found


def load_outcome(path):
    """Load one auditable outcome: ``.json`` snapshot or ``.ckpt`` pickle."""
    path = Path(path)
    if path.suffix == ".json":
        return load_outcome_json(path)
    return load_outcome_checkpoint(path)


def audit_target(
    target, fault=None
) -> List[Tuple[str, Optional[str], VerificationReport]]:
    """Audit every outcome under ``target``.

    Returns ``(name, fault_note, report)`` per outcome. ``fault`` (a
    :class:`~repro.resilience.faults.ResultFault`) corrupts each
    loaded outcome *in memory* before verification — the CI harness
    proving the audit rejects what it should; the on-disk artifact is
    never modified.
    """
    results = []
    for name, path in discover_outcomes(target):
        outcome = load_outcome(path)
        note = None
        if fault is not None:
            note = fault.apply(outcome)
        results.append((name, note, verify_outcome(outcome)))
    return results
