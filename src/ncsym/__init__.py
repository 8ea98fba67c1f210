"""Exact-arithmetic symmetric functions in noncommuting variables, built
around the chromatic symmetric function of a labeled graph."""

from .chromatic import (
    EPositivityReport,
    XSignReport,
    chromatic_symmetric_function,
    classical_csf,
    classify_e_positivity,
    connected_mobius,
    csf_by_deletion_contraction,
    csf_from_colorings,
    csf_from_contraction_lattice,
    csf_from_edge_subsets,
    k_deletion_sum,
    matching_x_identity,
    tree_x_expansion,
    x_sign_report,
)
from .chromatic_bases import (
    CLIQUE_PER_BLOCK,
    PATH_PER_BLOCK,
    AtomicGeneratorStrategy,
    ChromaticBasis,
    build_basis,
    express,
    generator_graph,
    strategy_from_generators,
    transition_matrix,
)
from .elements import (
    BASES,
    NCSymElement,
    SymElement,
    act,
    add,
    basis_term,
    coefficient,
    convert,
    element_from_json_dict,
    element_to_json_dict,
    induce,
    is_negative_in,
    is_positive_in,
    multiply,
    one,
    project,
    scale,
    sym_basis_term,
    word_expansion,
)
from .errors import (
    DomainError,
    GraphParseError,
    InvariantViolation,
    ResourceLimitError,
)
from .graphs import (
    LabeledGraph,
    all_labeled_graphs,
    all_labeled_trees,
    complete_graph_union,
    components_partition,
    delete_edges,
    find_cycles,
    format_graph,
    induced_subgraph,
    is_clique_union,
    is_tree,
    parse_graph,
    random_graph,
    relabel,
    slash_union,
)
from .partitions import (
    IntegerPartition,
    Permutation,
    SetPartition,
    enumerate_partitions,
    mobius_from_bottom,
    mobius_interval,
    parse_partition,
    parts_factorial,
    multiplicity_factorial,
)

__version__ = "0.1.0"
