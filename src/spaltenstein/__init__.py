"""Exact presentations and tableau bases for the cohomology of partial
flag varieties annihilated by a fixed nilpotent matrix."""

from .presentation import (
    BasisError,
    GradedQuotient,
    HilbertSeries,
    TransferError,
    TruncationError,
    VerificationError,
    anti_invariant_transfer,
    build_quotient,
    certify_basis,
    clear_caches,
    generators,
    h_of_tableau,
    normal_form,
    rel_equivalence,
    structure_constants,
)
from .reports import betti, components, poset_dot, poset_edges
from .symring import (
    BlockStructure,
    Polynomial,
    complete_block,
    elementary_block,
    permute,
)
from .tableaux import (
    Composition,
    Partition,
    Tableau,
    cell_order,
    column_sequence_to_partition,
    compositions,
    count_column_strict,
    dims,
    dominance_leq,
    enumerate_column_strict,
    enumerate_semistandard,
    iter_pairs,
    partition_to_column_sequence,
    partitions,
    reduce_tableau,
    straighten,
    tableau_degree,
    transpose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
