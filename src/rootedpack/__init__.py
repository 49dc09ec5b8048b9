"""Packing two disjoint balanced rooted spanning structures.

Decides and constructs two arc-disjoint k-safe spanning r-arborescences,
two arc-disjoint spanning (r,k)-flow branchings, or two edge-disjoint
(r,k)-safe spanning trees, via compact-substructure FPT pipelines, with
brute-force oracles and independent validators.
"""

from .graphs import (
    ArcSelection,
    EdgeSelection,
    ProblemInstance,
    RootedDigraph,
    RootedGraph,
    cap_parallel,
    duplicate_edges,
    hanging_component_sizes,
    parse_instance,
    serialize_instance,
    subtree_sizes,
)
from .connectivity import (
    CutWitness,
    FlowNetwork,
    critical_arcs,
    is_extendable_pair,
    is_k_root_connected,
    is_root_connected,
    max_flow,
)
from .flows import (
    BranchingFlow,
    FlowDecomposition,
    branching_flow_feasible,
    decompose_flow,
    is_spanning_rk_flow_branching,
    minimize_flow_branching,
)
from .matroid import (
    ForcedForestContext,
    TreeMapping,
    find_disjoint_bases,
    has_two_disjoint_spanning_trees,
    is_completable_pair,
    tree_mapping,
)
from .oracles import (
    OracleBudget,
    oracle_arb,
    oracle_flow,
    oracle_tree,
    validate_witness,
)
from .solver_arb import (
    SolveOptions,
    candidate_pool,
    classify_vertices,
    complete_to_spanning,
    enumerate_compact_kernels,
    grow_to_classic,
    solve_arb,
    validate_compact_kernel,
)
from .solver_flow import (
    candidate_pool_flow,
    classify_vertices_flow,
    complete_to_spanning_flow,
    enumerate_compact_cores,
    grow_to_classic_core,
    solve_flow,
    validate_compact_core,
)
from .solver_tree import (
    candidate_pool_tree,
    classify_vertices_tree,
    complete_to_spanning_trees,
    enumerate_compact_certificates,
    grow_to_classic_certificate,
    solve_tree,
    validate_compact_certificate,
)
from .instancegen import (
    CnfFormula,
    ReductionOutput,
    parse_dimacs,
    random_instance,
    sat_reduction,
    witness_tree_from_assignment,
)
from .fptcommon import CompactStructure, LargenessView
from .reports import SolveReport

__version__ = "0.1.0"


def solve_instance(instance: ProblemInstance, options: "SolveOptions | None" = None) -> SolveReport:
    """Dispatch a parsed instance to the solver for its kind."""
    solver = {"arb": solve_arb, "flow": solve_flow, "tree": solve_tree}[instance.kind]
    return solver(instance.graph, instance.k, options)
