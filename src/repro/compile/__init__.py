"""Compile/solve split: content-addressed compiled-circuit artifacts.

The planner's per-iteration front half (vertex order, W/D matrices,
candidate periods, pruned constraint pairs) is pure in the
expanded graph + tech + a few config switches. This package packages
that front half as a :class:`CompiledCircuit` artifact, names it by a
content fingerprint, and caches it on disk (:class:`CompileCache`) so
repeated and parametric runs skip straight to the solve. Only the
artifact's replay record goes to disk; the dense search inputs are
rebuilt from the graph on the rare paths that need them.
"""

from repro.compile.artifact import (
    COMPILE_SCHEMA,
    CompiledCircuit,
    compile_fingerprint,
)
from repro.compile.cache import CACHE_MODES, CacheStats, CompileCache

__all__ = [
    "COMPILE_SCHEMA",
    "CACHE_MODES",
    "CacheStats",
    "CompileCache",
    "CompiledCircuit",
    "compile_fingerprint",
]
