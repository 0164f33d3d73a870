"""Fault-isolated batch execution.

``run_batch`` is the one per-circuit loop of the package: the Table-1
harness, ``repro bench`` and ``repro cache prewarm`` all hand it named
work items. Each item catches :class:`~repro.errors.ReproError` where
it runs, so one bad circuit cannot kill a whole Table-1 regeneration.
The result records per-item status, error text, and timing;
``exit_code`` is nonzero only when *every* item failed — a partial
table is a success.

``jobs > 1`` runs the items in a process pool; this module is the only
place the package fans plans out to processes. Items are collected in
submission order, so a batch reads identically however the workers
interleave.

A SIGINT/SIGTERM delivered through the CLI's handlers arrives as
:class:`~repro.errors.InterruptedRunError`; the batch stops, keeps the
items already finished, and marks the result ``interrupted`` so the
driver can print the partial table and exit with the "interrupted,
resumable" code instead of a generic failure.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import InterruptedRunError, ReproError


@dataclasses.dataclass
class BatchItem:
    """Outcome of one batch item."""

    name: str
    ok: bool
    result: Any = None
    error: Optional[str] = None  # "ExcType: message" when failed
    seconds: float = 0.0

    @property
    def status(self) -> str:
        return "ok" if self.ok else "FAILED"


@dataclasses.dataclass
class BatchResult:
    """All items of one batch run."""

    items: List[BatchItem] = dataclasses.field(default_factory=list)
    interrupted: bool = False  # stopped by SIGINT/SIGTERM; resumable

    @property
    def n_ok(self) -> int:
        return sum(1 for i in self.items if i.ok)

    @property
    def n_failed(self) -> int:
        return len(self.items) - self.n_ok

    @property
    def failed(self) -> List[BatchItem]:
        return [i for i in self.items if not i.ok]

    @property
    def results(self) -> List[Any]:
        """Results of successful items, in order."""
        return [i.result for i in self.items if i.ok]

    @property
    def exit_code(self) -> int:
        """0 while anything succeeded; 1 only when everything failed."""
        if not self.items:
            return 1
        return 0 if self.n_ok > 0 else 1

    def summary(self) -> str:
        parts = [f"{self.n_ok}/{len(self.items)} circuits ok"]
        if self.interrupted:
            parts.append("interrupted (resumable)")
        for item in self.failed:
            parts.append(f"{item.name} FAILED ({item.error})")
        return "; ".join(parts)


def _run_item(name: str, fn: Callable[[], Any]) -> BatchItem:
    """Run one item where it is scheduled, flattening ``ReproError``.

    Module-level so it pickles into worker processes. The error is
    flattened to ``"Type: message"`` here, not in the parent, because
    repro exceptions with structured constructors (e.g.
    ``InfeasiblePeriodError(period, detail)``) do not round-trip
    through pickle as raised exceptions.
    """
    start = time.perf_counter()
    try:
        result = fn()
    except ReproError as exc:
        return BatchItem(
            name=name,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - start,
        )
    return BatchItem(
        name=name, ok=True, result=result, seconds=time.perf_counter() - start
    )


def run_batch(
    work: Sequence[Tuple[str, Callable[[], Any]]],
    *,
    jobs: int = 1,
    on_item: Optional[Callable[[BatchItem], None]] = None,
) -> BatchResult:
    """Run ``(name, fn)`` items, isolating ``ReproError`` failures.

    ``jobs > 1`` (with more than one item) runs the items in a pool of
    ``min(jobs, len(work))`` worker processes, so each ``fn`` must
    pickle (a ``functools.partial`` of a module-level function);
    otherwise they run in-process. Either way the items come back in
    submission order. Exceptions outside ``ReproError`` (genuine bugs,
    a plain ``KeyboardInterrupt``) propagate; an
    :class:`~repro.errors.InterruptedRunError` stops the batch, cancels
    the work not yet started and returns the partial result with
    ``interrupted`` set — an item in flight is not recorded (its
    checkpoints, if any, make it resumable). ``on_item`` is called
    after each item — batch drivers use it for progress output.
    """
    work = list(work)
    batch = BatchResult()
    pool = None
    if jobs > 1 and len(work) > 1:
        # Imported here: a serial batch never pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(work)))
        futures = [pool.submit(_run_item, name, fn) for name, fn in work]
        items = (future.result() for future in futures)
    else:
        items = (_run_item(name, fn) for name, fn in work)
    try:
        for item in items:
            batch.items.append(item)
            if on_item is not None:
                on_item(item)
    except InterruptedRunError:
        batch.interrupted = True
    finally:
        if pool is not None:
            # Interrupted: do not wait; items in flight finish in their
            # workers, so their checkpoints stay usable.
            pool.shutdown(wait=not batch.interrupted, cancel_futures=True)
    return batch
