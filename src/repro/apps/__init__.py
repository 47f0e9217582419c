"""Applications: the paper's containment-constrained workloads.

Maximal quasi-cliques, keyword search and nested subgraph queries
(with anti-vertex queries lowered onto them), plus the unconstrained
quasi-clique miners of Figs 2 and 19 and an MQC result certificate.
"""

from .antivertex import anti_vertex_query, lower_anti_vertices
from .kws import (
    KeywordSearchResult,
    classify_workload,
    frequent_and_rare_keywords,
    keyword_patterns,
    keyword_search,
)
from .mqc import (
    MaximalQuasiCliqueResult,
    build_mqc_engine,
    maximal_quasi_cliques,
)
from .nsq import (
    nested_subgraph_query,
    paper_query_tailed_triangles,
    paper_query_triangles,
)
from .verify import verify_maximal_quasi_cliques
from .quasicliques import (
    QuasiCliqueResult,
    mine_quasi_cliques,
    mine_quasi_cliques_fused,
)

__all__ = [
    "verify_maximal_quasi_cliques",
    "maximal_quasi_cliques",
    "build_mqc_engine",
    "MaximalQuasiCliqueResult",
    "mine_quasi_cliques",
    "mine_quasi_cliques_fused",
    "QuasiCliqueResult",
    "keyword_search",
    "keyword_patterns",
    "classify_workload",
    "frequent_and_rare_keywords",
    "KeywordSearchResult",
    "nested_subgraph_query",
    "paper_query_triangles",
    "paper_query_tailed_triangles",
    "anti_vertex_query",
    "lower_anti_vertices",
]
