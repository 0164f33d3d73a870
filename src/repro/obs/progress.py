"""The human progress view behind ``--progress``.

:class:`HumanProgress` is a tracer listener that renders an indented
open/close line per span to stderr, so stdout report output stays
clean. The machine-readable live view is the trace itself: a
``repro-trace/2`` file is written as spans open and close, so ``tail
-f`` on ``--trace FILE`` follows a run.

Attach it after the resource monitor so closes observed here already
carry the ``peak_rss_bytes`` stamps.
"""

from __future__ import annotations

import sys
from typing import Dict, IO, Optional

__all__ = ["HumanProgress"]


class HumanProgress:
    """TTY renderer for ``--progress``: one line per span open/close.

    Only spans down to ``max_depth`` are rendered — the solver opens
    thousands of sub-millisecond probe spans that would scroll any
    terminal into uselessness; stages and their immediate children are
    the watchable granularity.
    """

    def __init__(self, out: Optional[IO[str]] = None, max_depth: int = 2):
        self._out = out if out is not None else sys.stderr
        self.max_depth = max_depth
        self._depth: Dict[int, int] = {}

    def _write(self, line: str) -> None:
        self._out.write(line + "\n")
        self._out.flush()

    def on_open(self, span) -> None:
        depth = self._depth.get(span.parent_id, -1) + 1
        self._depth[span.span_id] = depth
        if depth > self.max_depth:
            return
        label = span.name
        scope = span.attrs.get("scope")
        if scope:
            label = f"{label} ({scope})"
        self._write(f"[{span.start:9.3f}s] {'  ' * depth}> {label}")

    def on_close(self, span) -> None:
        depth = self._depth.pop(span.span_id, 0)
        if depth > self.max_depth:
            return
        extra = ""
        rss = span.attrs.get("peak_rss_bytes")
        if rss:
            extra += f"  rss={rss / 1048576.0:.1f}MiB"
        err = span.attrs.get("error")
        if err:
            extra += f"  error={err}"
        self._write(
            f"[{span.end:9.3f}s] {'  ' * depth}< {span.name}"
            f"  {span.end - span.start:.3f}s{extra}"
        )
