"""repro — reproduction of Dory & Ghaffari (PODC 2019).

Distributed approximation of minimum-weight 2-edge-connected spanning
subgraphs: a deterministic ``(5+eps)``-approximation in near-optimal
``O~(D + sqrt(n))`` CONGEST rounds, plus an ``O(log n)``-approximation
running in low-congestion-shortcut time.

Public API highlights:

>>> import repro
>>> g = repro.graphs.cycle_with_chords(50, 20, seed=1)
>>> result = repro.approximate_two_ecss(g, eps=0.5)
>>> result.certified_ratio <= result.guarantee
True
"""

from repro import graphs
from repro.core.k_ecss import approximate_k_ecss
from repro.core.tap import approximate_tap
from repro.core.tecss import approximate_two_ecss
from repro.core.unweighted import unweighted_tap
from repro.dist import distributed_two_ecss
from repro.runtime import SolveQuery, SolverSession

__version__ = "1.9.0"

__all__ = [
    "SolveQuery",
    "SolverSession",
    "approximate_k_ecss",
    "approximate_tap",
    "approximate_two_ecss",
    "distributed_two_ecss",
    "unweighted_tap",
    "graphs",
    "__version__",
]
