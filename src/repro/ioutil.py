"""Durable file I/O helpers shared by every on-disk artifact writer.

Traces, bench documents, graph JSON and checkpoints are all written
through :func:`atomic_write`: the bytes land in a temporary file in the
*same directory*, are flushed and fsynced, and only then renamed over
the destination with :func:`os.replace`. A crash — or a SIGKILL — at
any point leaves either the old file or the new file, never a
truncated hybrid. (``os.replace`` is atomic on POSIX and on Windows;
the same-directory requirement keeps the rename on one filesystem.)

The temporary file is opened with ``O_EXCL`` under a per-pid,
per-attempt name, so *concurrent* writers — service workers sharing a
compile cache, ``table1 --jobs`` processes, threads within one daemon
— can never interleave bytes into the same staging file. Whichever
writer renames last wins whole; every intermediate observation of the
destination is a complete document.

This module also owns the *sealed-file* format of checkpoints
(``repro-ckpt/1``) and compiled circuits (``repro-compile/4``): a
``sort_keys`` JSON header line carrying the payload's ``sha256``, then
the payload. Callers keep their policy — which header fields identify
a file, how the payload decodes, and whether a rejected file is moved
aside (:func:`quarantine`) or refused.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from repro.errors import SealedFileError

log = logging.getLogger(__name__)


def fsync_dir(path: Union[str, Path]) -> None:
    """Best-effort fsync of a directory, making renames in it durable.

    Silently a no-op where directories cannot be opened for reading
    (e.g. Windows); the rename itself is still atomic there.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: Union[bytes, str]) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace).

    ``str`` data is encoded as UTF-8. Parent directories are created
    as needed. On any failure the temporary file is removed and the
    destination is left untouched. Returns ``path`` as a
    :class:`~pathlib.Path`.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL claims the staging file exclusively; the attempt counter
    # sidesteps leftovers from a previous kill (same pid reused) and
    # races between threads sharing one pid. The name keeps the
    # ``.*.tmp.*`` shape that :func:`sweep_staging` cleans up.
    fd = None
    tmp = None
    for attempt in range(10_000):
        candidate = path.parent / f".{path.name}.tmp.{os.getpid()}.{attempt}"
        try:
            fd = os.open(
                str(candidate), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
            tmp = candidate
            break
        except FileExistsError:
            continue
    if fd is None:
        raise OSError(f"cannot allocate a staging file for {path}")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path


def write_sealed(
    path: Union[str, Path],
    header: Dict[str, Any],
    payload: bytes,
    *,
    skip_identical: bool = False,
) -> bool:
    """Write ``header`` (plus the payload's ``sha256``) and ``payload``.

    Atomic. With ``skip_identical`` a file whose header already equals
    the new one (same digest, so the same payload) is left alone.
    Returns whether it wrote.
    """
    header = {**header, "sha256": hashlib.sha256(payload).hexdigest()}
    if skip_identical:
        try:
            if read_header(path) == header:
                return False
        except SealedFileError:
            pass
    line = json.dumps(header, sort_keys=True).encode("utf-8")
    atomic_write(path, line + b"\n" + payload)
    return True


def _parse_header(path, line: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SealedFileError(path, "corrupt header (not valid JSON)") from None
    if not isinstance(header, dict):
        raise SealedFileError(path, "malformed header")
    return header


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """The header of a sealed file, without reading its payload.

    Raises :class:`~repro.errors.SealedFileError` when the file is
    unreadable, has no header line or the line is not a JSON object.
    """
    try:
        with open(path, "rb") as f:
            line = f.readline()
    except OSError as exc:
        raise SealedFileError(path, f"unreadable ({exc})") from exc
    if not line.endswith(b"\n"):
        raise SealedFileError(path, "truncated (no header line)")
    return _parse_header(path, line)


def read_sealed(
    path: Union[str, Path], schema: str, **expect: Any
) -> Tuple[Dict[str, Any], bytes]:
    """``(header, payload)`` of a verified sealed file.

    Checks, in order: the file reads, it has a header line, the line
    is a JSON object, its ``schema`` equals ``schema``, each ``expect``
    field equals the header's (in argument order), and the payload
    matches the header's ``sha256``. The first failure raises
    :class:`~repro.errors.SealedFileError` naming it.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SealedFileError(path, f"unreadable ({exc})") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise SealedFileError(path, "truncated (no header line)")
    header = _parse_header(path, data[:newline])
    if header.get("schema") != schema:
        raise SealedFileError(path, f"wrong schema {header.get('schema')!r}")
    for field, want in expect.items():
        if header.get(field) != want:
            raise SealedFileError(
                path,
                f"{field} mismatch (file says {header.get(field)!r})",
                field=field,
            )
    payload = data[newline + 1 :]
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise SealedFileError(
            path, "checksum mismatch (truncated or corrupted payload)"
        )
    return header, payload


def quarantine(path: Union[str, Path], qdir: Union[str, Path]) -> None:
    """Move a rejected file into ``qdir``; delete it if the move fails.

    Either way the bad file can never be read from ``path`` again.
    """
    path, qdir = Path(path), Path(qdir)
    try:
        qdir.mkdir(exist_ok=True)
        path.replace(qdir / path.name)
    except OSError as exc:
        log.warning("could not quarantine %s (%s); deleting", path, exc)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


def sweep_staging(directory: Union[str, Path]) -> None:
    """Delete the ``.*.tmp.*`` files of writers killed mid-write.

    Only for a directory no live writer is staging into.
    """
    for tmp in Path(directory).glob(".*.tmp.*"):
        tmp.unlink(missing_ok=True)
