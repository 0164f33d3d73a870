"""Reference implementations the test suite checks shipped kernels against.

Each module here is a plain, slow, easy-to-audit version of a
computation that ``src/`` ships in one fast form only. They are test
code: nothing under ``src/`` imports them.

* :mod:`tests.oracles.graph` — the retiming graph on a networkx
  ``MultiDiGraph`` (the reference for ``CircuitGraph``'s flat storage),
  the min-weight simple digraph and the sampled cycle-conservation
  check;
* :mod:`tests.oracles.wd` — tuple Bellman–Ford W/D matrices and the
  dict-loop scalarised cost matrix;
* :mod:`tests.oracles.feasibility` — period feasibility through explicit
  constraint objects and a networkx Bellman–Ford;
* :mod:`tests.oracles.annealer` — the object-based sequence-pair
  annealer (full re-pack per move);
* :mod:`tests.oracles.fm` — the dict-loop FM gain and pass;
* :mod:`tests.oracles.flow` — min-area retiming through the
  min-cost-flow dual and networkx network simplex;
* :mod:`tests.oracles.mcf` — the successive-shortest-path min-cost
  flow (the flat network and its named-node wrapper) and the retiming
  dual on it;
* :mod:`tests.oracles.lac_cold` — LAC-retiming with one cold weighted
  min-area solve per round;
* :mod:`tests.oracles.router` — the global router re-pricing every cell
  before every net;
* :mod:`tests.oracles.prepared` — the mid-flow ablation instance with
  the planner's stages wired by hand.
"""
