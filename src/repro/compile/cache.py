"""Content-addressed disk + in-process cache for compiled circuits.

Store layout (flat, one file per fingerprint)::

    <root>/
        <sha256-fingerprint>.cc    # one compiled artifact
        quarantine/                # corrupt/mismatched files, kept

Each ``.cc`` file follows the checkpoint file convention
(:mod:`repro.resilience.checkpoint`): a one-line JSON header followed
by the payload — here a zlib-compressed pickle of the
:class:`~repro.compile.artifact.CompiledCircuit`::

    {"schema": "repro-compile/1", "kind": "compiled-circuit",
     "fingerprint": "<key>", "circuit": "s298", "codec": "zlib",
     "sha256": "<payload digest>", "meta": {...}}\\n
    <zlib bytes>

Writes are atomic (:func:`repro.ioutil.atomic_write`); on load the
schema, fingerprint, checksum and the artifact's own embedded
fingerprint are all verified, and any mismatch quarantines the file
and reports a miss so the caller recompiles cleanly.

The store is safe under concurrent writers without any locking:
staging files are ``O_EXCL``-claimed per writer, the final rename is
atomic, and a writer that finds its exact payload already on disk
skips the rewrite entirely (content-addressing makes "last writer
wins" indistinguishable from "first writer wins"). Service workers and
``table1 --jobs`` processes share one store this way.

Modes:

* ``"auto"`` — read and write (the default);
* ``"readonly"`` — serve hits, never touch the disk (safe for
  ``--jobs`` workers sharing one prewarmed store);
* ``"off"`` — compile fresh every time, no disk access at all.

A small in-process LRU fronts the disk store either way, so the
repeated compiles *within* one process (table1 re-runs, bench warm
passes) never deserialise twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pickle
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.compile.artifact import COMPILE_SCHEMA, CompiledCircuit, compile_fingerprint
from repro.ioutil import atomic_write
from repro.tech.params import DEFAULT_TECH, Technology

log = logging.getLogger(__name__)

#: Header kind for compiled-circuit files.
KIND_COMPILED = "compiled-circuit"

#: Legal cache modes.
CACHE_MODES = ("auto", "off", "readonly")

#: File suffix for compiled-circuit artifacts.
SUFFIX = ".cc"


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/write counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    writes: int = 0
    skipped_writes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class CompileCache:
    """Content-addressed store of :class:`CompiledCircuit` artifacts."""

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        mode: str = "auto",
        max_memory_entries: int = 4,
    ):
        if mode not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {mode!r} (expected one of {', '.join(CACHE_MODES)})"
            )
        self.root = Path(root) if root is not None else None
        self.mode = mode
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
        self.stats = CacheStats()

    # -- mode predicates -----------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def writable(self) -> bool:
        return self.mode == "auto" and self.root is not None

    # -- paths ---------------------------------------------------------
    def path_for(self, fingerprint: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{fingerprint}{SUFFIX}"

    # -- lookup --------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[CompiledCircuit]:
        """The cached artifact for ``fingerprint``, or ``None``."""
        if not self.enabled:
            return None
        artifact = self._memory.get(fingerprint)
        if artifact is not None:
            self._memory.move_to_end(fingerprint)
            self.stats.memory_hits += 1
            return artifact
        path = self.path_for(fingerprint)
        if path is None or not path.exists():
            return None
        artifact = self._load(path, fingerprint)
        if artifact is None:
            return None
        self.stats.disk_hits += 1
        artifact.dirty = False
        self._remember(artifact)
        return artifact

    def get_or_compile(
        self,
        graph,
        tech: Technology = DEFAULT_TECH,
        prune: bool = True,
    ) -> Tuple[CompiledCircuit, bool]:
        """The artifact for ``graph`` — cached, or freshly compiled.

        Returns ``(artifact, hit)``. A fresh compile is stored
        immediately (in ``"auto"`` mode), before the solve enriches it;
        :meth:`save` persists the enrichment afterwards.
        """
        fingerprint = compile_fingerprint(graph, tech, prune=prune)
        artifact = self.get(fingerprint)
        if artifact is not None:
            self.stats.hits += 1
            return artifact, True
        self.stats.misses += 1
        artifact = CompiledCircuit.compile(
            graph, tech, prune=prune, fingerprint=fingerprint
        )
        self.put(artifact)
        return artifact, False

    # -- store ---------------------------------------------------------
    def put(self, artifact: CompiledCircuit) -> Optional[Path]:
        """Remember ``artifact``; persist it to disk in ``"auto"`` mode."""
        if not self.enabled:
            return None
        self._remember(artifact)
        if not self.writable:
            return None
        path = self.path_for(artifact.fingerprint)
        try:
            payload = zlib.compress(
                pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL), 1
            )
        except Exception as exc:
            log.warning(
                "compile cache: artifact for %s not picklable (%s: %s); skipping",
                artifact.circuit,
                type(exc).__name__,
                exc,
            )
            return None
        header = {
            "schema": COMPILE_SCHEMA,
            "kind": KIND_COMPILED,
            "fingerprint": artifact.fingerprint,
            "circuit": artifact.circuit,
            "codec": "zlib",
            "sha256": hashlib.sha256(payload).hexdigest(),
            "meta": {
                "n": artifact.n,
                "t_init": artifact.t_init,
                "t_min": artifact.t_min,
                "n_candidates": len(artifact.candidates),
                "periods": sorted({p for (p, _pr) in artifact.clock_pair_sets}),
            },
        }
        # Concurrent writers (service workers, table1 --jobs) routinely
        # race to store the same content-addressed artifact. When the
        # file already holds this exact payload, skip the rewrite: less
        # churn, and no window where a reader sees the file mid-replace
        # on filesystems with weaker rename semantics.
        if self._holds_payload(path, artifact.fingerprint, header["sha256"]):
            artifact.dirty = False
            self.stats.skipped_writes += 1
            return path
        data = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
        atomic_write(path, data)
        artifact.dirty = False
        self.stats.writes += 1
        log.debug(
            "compile cache: wrote %s (%s, %d bytes)",
            path.name,
            artifact.circuit,
            len(data),
        )
        return path

    @staticmethod
    def _holds_payload(path: Path, fingerprint: str, sha256: str) -> bool:
        """Whether ``path`` already stores exactly this payload.

        Header-only check (cheap); any unreadable/mismatched file just
        reports ``False`` and the caller rewrites it atomically.
        """
        try:
            with open(path, "rb") as f:
                header = json.loads(f.readline().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return False
        return (
            isinstance(header, dict)
            and header.get("fingerprint") == fingerprint
            and header.get("sha256") == sha256
        )

    def save(self, artifact: CompiledCircuit) -> Optional[Path]:
        """Persist ``artifact`` iff the solve enriched it since the last write."""
        if artifact.dirty and self.writable:
            return self.put(artifact)
        return None

    # -- load / quarantine ---------------------------------------------
    def _load(self, path: Path, fingerprint: str) -> Optional[CompiledCircuit]:
        try:
            data = path.read_bytes()
        except OSError as exc:
            self._quarantine(path, f"unreadable ({exc})")
            return None
        newline = data.find(b"\n")
        if newline < 0:
            self._quarantine(path, "truncated (no header line)")
            return None
        try:
            header = json.loads(data[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._quarantine(path, "corrupt header (not valid JSON)")
            return None
        if not isinstance(header, dict) or header.get("schema") != COMPILE_SCHEMA:
            self._quarantine(
                path,
                f"wrong schema {header.get('schema')!r}"
                if isinstance(header, dict)
                else "malformed header",
            )
            return None
        if header.get("fingerprint") != fingerprint:
            self._quarantine(
                path, f"fingerprint mismatch (file says {header.get('fingerprint')!r})"
            )
            return None
        payload = data[newline + 1 :]
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            self._quarantine(path, "checksum mismatch (truncated or corrupted payload)")
            return None
        try:
            artifact = pickle.loads(zlib.decompress(payload))
        except Exception as exc:
            self._quarantine(
                path, f"undecodable payload ({type(exc).__name__}: {exc})"
            )
            return None
        if (
            not isinstance(artifact, CompiledCircuit)
            or artifact.fingerprint != fingerprint
        ):
            self._quarantine(path, "payload does not match its fingerprint")
            return None
        return artifact

    def _quarantine(self, path: Path, reason: str) -> None:
        log.warning(
            "compile cache: %s quarantined: %s — recompiling", path, reason
        )
        qdir = path.parent / "quarantine"
        try:
            qdir.mkdir(exist_ok=True)
            path.replace(qdir / path.name)
        except OSError as exc:
            log.warning("could not quarantine %s (%s); deleting", path, exc)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------
    def _remember(self, artifact: CompiledCircuit) -> None:
        self._memory[artifact.fingerprint] = artifact
        self._memory.move_to_end(artifact.fingerprint)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def entries(self) -> List[Dict[str, Any]]:
        """Header summaries of every artifact on disk (no payloads read)."""
        out: List[Dict[str, Any]] = []
        for path in self._iter_files():
            try:
                with open(path, "rb") as f:
                    line = f.readline()
                header = json.loads(line.decode("utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                out.append({"path": str(path), "error": "unreadable header"})
                continue
            if not isinstance(header, dict):
                out.append({"path": str(path), "error": "malformed header"})
                continue
            entry = {
                "path": str(path),
                "size_bytes": path.stat().st_size,
                "circuit": header.get("circuit"),
                "fingerprint": header.get("fingerprint"),
                "schema": header.get("schema"),
            }
            entry.update(header.get("meta") or {})
            out.append(entry)
        return out

    def clear(self) -> int:
        """Drop every artifact (memory + disk). Returns files removed."""
        self._memory.clear()
        removed = 0
        for path in self._iter_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _iter_files(self) -> Iterator[Path]:
        if self.root is None or not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob(f"*{SUFFIX}")))
