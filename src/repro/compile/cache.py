"""Content-addressed disk + in-process cache for compiled circuits.

Store layout (flat, one file per fingerprint)::

    <root>/
        <sha256-fingerprint>.cc    # one compiled artifact
        quarantine/                # corrupt/mismatched files, kept

Each ``.cc`` file is a sealed file (:func:`repro.ioutil.write_sealed`,
the envelope checkpoints use too) whose payload is a zlib-compressed
pickle of the :class:`~repro.compile.artifact.CompiledCircuit`'s replay
record::

    {"circuit": "s298", "codec": "zlib", "fingerprint": "<key>",
     "kind": "compiled-circuit", "meta": {...},
     "schema": "repro-compile/4", "sha256": "<payload digest>"}\\n
    <zlib bytes>

What the payload holds: the vertex order, the min-area objective
gather arrays and weakly connected components, ``T_init``, the largest
unit delay, the candidate-period count, every stored period's
clocking rows with their bounds ``W(u, v) - 1``, and the min-period
witness (``T_min`` plus its pre-normalise labels). That is all a warm
re-plan reads, so a hit deserialises a few tens of KiB. What it does
not hold: the dense n×n W/D matrices and the candidate-period list
(the search inputs, >97% of a compile's bytes).
A loaded artifact rebuilds them from the expanded graph — after
checking the graph's fingerprint — only when the solve needs them: a
min-period search with no stored witness, or clocking rows for a
period not stored yet (a new ``T_clk``). Each rebuild records a
``compile/rebuild`` span with its ``reason``. A fresh compile and the
in-process LRU keep the search inputs they computed.

Writes are atomic; on load :func:`repro.ioutil.read_sealed` verifies
the schema, fingerprint and checksum and this store the artifact's own
embedded fingerprint, and any mismatch quarantines the file
(:func:`repro.ioutil.quarantine`) and reports a miss so the caller
recompiles cleanly.

The store is safe under concurrent writers without any locking:
staging files are ``O_EXCL``-claimed per writer, the final rename is
atomic, and a writer that finds its exact payload already on disk
skips the rewrite entirely (content-addressing makes "last writer
wins" indistinguishable from "first writer wins"). Service workers and
``table1 --jobs`` processes share one store this way.

Modes:

* ``"auto"`` — read and write (the default);
* ``"readonly"`` — serve hits, never write to the disk;
* ``"off"`` — compile fresh every time, no disk access at all.

A small in-process LRU fronts the disk store either way, so the
repeated compiles *within* one process (table1 re-runs, bench warm
passes) never deserialise twice.
"""

from __future__ import annotations

import dataclasses
import logging
import pickle
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.compile.artifact import COMPILE_SCHEMA, CompiledCircuit, compile_fingerprint
from repro.errors import SealedFileError
from repro.ioutil import (
    quarantine,
    read_header,
    read_sealed,
    sweep_staging,
    write_sealed,
)
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
    #: Payload bytes (compressed) read by disk hits and written by puts.
    bytes_read: int = 0
    bytes_written: int = 0

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
    ) -> Tuple[CompiledCircuit, bool]:
        """The artifact for ``graph`` — cached, or freshly compiled.

        Returns ``(artifact, hit)``. A fresh compile is stored
        immediately (in ``"auto"`` mode), before the solve enriches it;
        :meth:`save` persists the enrichment afterwards.
        """
        fingerprint = compile_fingerprint(graph, tech)
        artifact = self.get(fingerprint)
        if artifact is not None:
            self.stats.hits += 1
            return artifact, True
        self.stats.misses += 1
        artifact = CompiledCircuit.compile(graph, tech, fingerprint=fingerprint)
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
            "meta": {
                "n": artifact.n,
                "t_init": artifact.t_init,
                "t_min": artifact.t_min,
                "n_candidates": artifact.n_candidates,
                "periods": sorted(artifact.clock_pair_sets),
            },
        }
        # Concurrent writers (service workers, table1 --jobs) routinely
        # race to store the same content-addressed artifact. When the
        # file already holds this exact payload, skip the rewrite: less
        # churn, and no window where a reader sees the file mid-replace
        # on filesystems with weaker rename semantics.
        wrote = write_sealed(path, header, payload, skip_identical=True)
        artifact.dirty = False
        if not wrote:
            self.stats.skipped_writes += 1
            return path
        self.stats.writes += 1
        self.stats.bytes_written += len(payload)
        log.debug(
            "compile cache: wrote %s (%s, %d bytes)",
            path.name,
            artifact.circuit,
            len(payload),
        )
        return path

    def save(self, artifact: CompiledCircuit) -> Optional[Path]:
        """Persist ``artifact`` iff the solve enriched it since the last write."""
        if artifact.dirty and self.writable:
            return self.put(artifact)
        return None

    # -- load / quarantine ---------------------------------------------
    def _load(self, path: Path, fingerprint: str) -> Optional[CompiledCircuit]:
        try:
            artifact, size = self._decode(path, fingerprint)
        except SealedFileError as exc:
            log.warning(
                "compile cache: %s quarantined: %s — recompiling", path, exc.reason
            )
            quarantine(path, path.parent / "quarantine")
            return None
        self.stats.bytes_read += size
        return artifact

    @staticmethod
    def _decode(path: Path, fingerprint: str) -> Tuple[CompiledCircuit, int]:
        _header, payload = read_sealed(path, COMPILE_SCHEMA, fingerprint=fingerprint)
        try:
            artifact = pickle.loads(zlib.decompress(payload))
        except Exception as exc:
            raise SealedFileError(
                path, f"undecodable payload ({type(exc).__name__}: {exc})"
            ) from exc
        if (
            not isinstance(artifact, CompiledCircuit)
            or artifact.fingerprint != fingerprint
        ):
            raise SealedFileError(path, "payload does not match its fingerprint")
        return artifact, len(payload)

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
                header = read_header(path)
            except SealedFileError as exc:
                out.append({"path": str(path), "error": exc.reason})
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
        """Drop every artifact (memory + disk). Returns artifacts removed.

        Also sweeps the staging files of writers killed mid-``put``.
        """
        self._memory.clear()
        if self.root is not None:
            sweep_staging(self.root)
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
