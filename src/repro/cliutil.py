"""Shared CLI plumbing: exit codes and interrupt handling.

``python -m repro`` is the only command-line entry point; its commands
and the service worker (which reports a job's per-plan code) speak the
same exit-code contract:

* ``0`` — success (``plan``: converged; ``table1``: >= 1 circuit ok);
* ``1`` — completed but unsatisfied (not converged / every circuit
  failed);
* ``2`` — usage or flow error;
* ``3`` — target period infeasible (``plan`` only);
* ``4`` — interrupted by SIGINT/SIGTERM, progress checkpointed where a
  checkpoint directory was given; rerun with ``--resume`` to continue;
* ``5`` — verification failed: the flow completed but the independent
  certificate checkers (:mod:`repro.verify`) rejected a result
  (``plan --verify``, ``table1 --verify``, ``verify <target>``);
* ``6`` — busy: the service shed the request (``submit`` against a
  full queue — HTTP 429 — or a draining daemon — HTTP 503); nothing
  was spooled, resubmit later;
* ``141`` — stdout's reader exited first (``trace summarize T | head``):
  the command stops quietly, with no traceback, and exits as a shell
  reports a process killed by ``SIGPIPE`` (128 + 13).

:func:`install_interrupt_handlers` converts SIGINT/SIGTERM into
:class:`~repro.errors.InterruptedRunError`, so ``finally`` blocks run
on the way out — the in-flight trace is flushed and committed
checkpoints stay durable — and the command exits with
:data:`EXIT_INTERRUPTED` instead of dying mid-write.
:func:`outcome_exit_code` maps a finished plan to its code, and
:func:`stdout_reader_gone` tells a closed stdout pipe from any other
broken pipe (a service socket's, which surfaces as before).
"""

from __future__ import annotations

import select
import signal
import sys

from repro.errors import InterruptedRunError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_INTERRUPTED = 4
EXIT_VERIFY_FAILED = 5
EXIT_BUSY = 6
EXIT_BROKEN_PIPE = 141


def outcome_exit_code(outcome) -> int:
    """Map a finished planning outcome to the ``plan`` exit code."""
    verification = getattr(outcome, "verification", None)
    if verification is not None and not verification.ok:
        return EXIT_VERIFY_FAILED
    if outcome.converged:
        return EXIT_OK
    if outcome.final.infeasible:
        return EXIT_INFEASIBLE
    return EXIT_NOT_CONVERGED


def stdout_reader_gone() -> bool:
    """True when stdout is a pipe whose reading end has been closed.

    ``poll`` flags such a pipe ``POLLERR`` (``POLLHUP`` on some
    systems); a terminal, a file or a live pipe is writable. False
    where ``poll`` is unavailable or stdout has no file descriptor.
    """
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (AttributeError, OSError, ValueError):
        return False
    broken = select.POLLERR | select.POLLHUP
    return any(mask & broken for _fd, mask in poller.poll(0))


def install_interrupt_handlers() -> None:
    """Route SIGINT/SIGTERM through :class:`InterruptedRunError`.

    Best-effort: silently a no-op when not on the main thread or on
    platforms without the signal (the default behaviour then applies).
    """

    def _handler(signum, frame):
        raise InterruptedRunError(signum)

    for sig in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
        if sig is None:
            continue
        try:
            signal.signal(sig, _handler)
        except (ValueError, OSError):  # non-main thread / unsupported
            pass
