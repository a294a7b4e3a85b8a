"""Hamiltonian cycles, path factors, and toughness certificates for
Cartesian products of a path with a graph.

The package builds Hamiltonian cycles constructively when the base graph
carries a perfect matching or a factor into 2- and 3-vertex paths, emits
checkable certificates whenever the answer is negative, and cross-checks
everything against brute-force oracles at desk scale.
"""

from .cycles import (
    BuildResult,
    HamCycle,
    build_cycle,
    build_cycle_matching,
    build_cycle_path_factor,
    verify_column_contract,
    verify_cycle,
    verify_product_cycle,
)
from .factors import (
    FactorCertificate,
    PathFactor,
    factor_obstruction,
    find_p23_factor,
    find_perfect_matching,
)
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    format_graph,
    parse_graph,
    spanning_tree_containing,
)
from .kernels import backend_name
from .oracle import (
    enumerate_trees,
    find_hamiltonian_cycle,
    find_product_cycle,
    fixtures,
    scan_balanced_odd,
    scan_below_layer_bound,
)
from .toughness import (
    CutWitness,
    is_one_tough,
    product_cut_from_bipartite,
    product_cut_from_high_degree,
    toughness_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BuildResult",
    "CutWitness",
    "FactorCertificate",
    "Graph",
    "HamCycle",
    "PathFactor",
    "backend_name",
    "bipartition",
    "build_cycle",
    "build_cycle_matching",
    "build_cycle_path_factor",
    "cartesian_product",
    "enumerate_trees",
    "factor_obstruction",
    "find_hamiltonian_cycle",
    "find_p23_factor",
    "find_perfect_matching",
    "find_product_cycle",
    "fixtures",
    "format_graph",
    "is_one_tough",
    "parse_graph",
    "product_cut_from_bipartite",
    "product_cut_from_high_degree",
    "scan_balanced_odd",
    "scan_below_layer_bound",
    "spanning_tree_containing",
    "toughness_exact",
    "verify_column_contract",
    "verify_cycle",
    "verify_product_cycle",
]
