"""Reference implementations kept as test oracles, not as options.

The library has one production path for each job: one serving engine
(the columnar ``FleetMonitor``), one tree inference path (compiled flat
arrays) and one split finder (the presorted training frontier).  The
slower implementations each of them replaced are the clearest statement
of the intended semantics, so they live here and the golden parity
suites compare the production paths against them bit for bit:

* :mod:`tests.oracles.object_monitor` — the per-drive object serving
  engine (``tests/test_detection_columnar.py``);
* :mod:`tests.oracles.node_walk` — Figure-1 node-graph inference for
  trees and ensembles (``tests/test_tree_compiled.py`` and the
  provenance parity tests);
* :mod:`tests.oracles.resort` — per-node re-sorting split and surrogate
  search (``tests/test_tree_frontier.py``).

Nothing under ``src/`` imports from here.
"""
