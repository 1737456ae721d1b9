"""Structural analysis of finite directed multigraphs for graph
C*-correspondences: Condition (L), Condition (S), invariant vertex subsets,
periodicity, and simplicity verdicts, with constructive witnesses."""

from .conditions import (
    ConditionL,
    ConditionS,
    PeriodicityVerdict,
    WitnessRequest,
    condition_L,
    condition_L_bruteforce,
    condition_S,
    find_witness,
    is_disjoint_cycles,
    is_nonreturning_set,
    is_returning,
    periodicity,
)
from .correspondence import (
    PathVector,
    VertexWeights,
    inner_product,
    is_nonreturning_vector,
    left_action,
    norm,
    operator_sandwich,
    sup_norm,
)
from .graphs import (
    CapExceeded,
    Connectivity,
    Edge,
    Graph,
    InvalidGraphError,
    Path,
    ValidationIssue,
    ValidationResult,
    VertexClasses,
    connectivity,
    count_paths,
    cycle_exits,
    paths_of_length,
    power_graph,
    simple_cycles,
    vertex_classes,
)
from .ideals import (
    SubsetLattice,
    is_hereditary,
    is_saturated,
    lattice,
    lattice_bruteforce,
    saturated_hereditary_closure,
)
from .io_formats import (
    Diagnostic,
    FormatError,
    GraphDocument,
    GraphSemanticError,
    ParseError,
    emit_dot,
    parse_dsl,
    parse_dsl_document,
    parse_json,
    serialize_dsl,
    serialize_json,
)
from .verdicts import (
    CITATIONS,
    AnalysisReport,
    InternalInvariantError,
    ReportFlags,
    SchweizerStatus,
    classify,
    report_to_dict,
    schweizer_check,
    simplicity_verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
