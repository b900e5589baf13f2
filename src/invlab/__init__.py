"""Exact computation of digraph inversion numbers.

Bit-packed GF(2) machinery, oriented-graph inversions, the standard
constructions (dijoin, k-join, blow-up, reversed-path tournaments), exact
solvers with certified witnesses, and a CLI of reproducible sweeps.
"""

from .digraph import (
    Digraph,
    InversionFamily,
    apply_family,
    invert,
    is_acyclic,
    nonisomorphic_tournaments,
    reverse,
)
from .construct import (
    blow_up,
    c3,
    dijoin,
    extend_family_to_c3_dijoin,
    graph_from_expr,
    k_join,
    qn,
    qn_family,
    transitive,
)
from .f2 import (
    gram_factor,
    gram_of,
    min_gram_dim,
)
from .solver import (
    InvResult,
    SearchOptions,
    Sub,
    exists_family,
    inv_exact,
    inv_order_backend,
)

__version__ = "0.1.0"

__all__ = [
    "Digraph",
    "InvResult",
    "InversionFamily",
    "SearchOptions",
    "Sub",
    "apply_family",
    "blow_up",
    "c3",
    "dijoin",
    "exists_family",
    "extend_family_to_c3_dijoin",
    "gram_factor",
    "gram_of",
    "graph_from_expr",
    "inv_exact",
    "inv_order_backend",
    "invert",
    "is_acyclic",
    "k_join",
    "min_gram_dim",
    "nonisomorphic_tournaments",
    "qn",
    "qn_family",
    "reverse",
    "transitive",
]
