"""Contigra reproduction: graph mining with containment constraints.

Reproduces "Contigra: Graph Mining with Containment Constraints"
(Che, Jamshidi, Vora — EuroSys '24) as a pure-Python library:

* :mod:`repro.graph` — data-graph substrate (graphs, generators, I/O);
* :mod:`repro.patterns` — patterns, isomorphism, symmetry breaking,
  exploration plans;
* :mod:`repro.mining` — the Peregrine+-style pattern-matching engine
  (ETasks, caches, processors);
* :mod:`repro.core` — the paper's contribution: containment
  constraints, cross-task dependencies, VTasks with task fusion,
  promotion, lateral cancellation, virtual state-space analysis;
* :mod:`repro.apps` — Maximal Quasi-Cliques, Keyword Search, Nested
  Subgraph Queries, anti-vertex queries;
* :mod:`repro.baselines` — brute-force oracles, Peregrine+ post-hoc
  checking, a budgeted TThinker simulation;
* :mod:`repro.bench` — synthetic Table-1 datasets and the experiment
  harness.

Quickstart::

    from repro.bench import dataset
    from repro.apps import maximal_quasi_cliques

    graph = dataset("dblp")
    result = maximal_quasi_cliques(graph, gamma=0.8, max_size=5)
    print(result.count, "maximal quasi-cliques")
"""

from . import apps, baselines, bench, core, graph, mining, patterns
from .errors import (
    MemoryBudgetExceeded,
    ReproError,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)

__version__ = "1.0.0"

__all__ = [
    "graph",
    "patterns",
    "mining",
    "core",
    "apps",
    "baselines",
    "bench",
    "ReproError",
    "TimeLimitExceeded",
    "MemoryBudgetExceeded",
    "StorageBudgetExceeded",
    "__version__",
]
