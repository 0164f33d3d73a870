"""Reference implementations the test suite checks shipped kernels against.

Each module here is a plain, slow, easy-to-audit version of a
computation that ``src/`` ships in one fast form only. They are test
code: nothing under ``src/`` imports them.

* :mod:`tests.oracles.wd` — tuple Bellman–Ford W/D matrices and the
  dict-loop scalarised cost matrix;
* :mod:`tests.oracles.feasibility` — period feasibility through explicit
  constraint objects and a networkx Bellman–Ford;
* :mod:`tests.oracles.annealer` — the object-based sequence-pair
  annealer (full re-pack per move);
* :mod:`tests.oracles.lac_cold` — LAC-retiming with one cold weighted
  min-area solve per round.
"""
