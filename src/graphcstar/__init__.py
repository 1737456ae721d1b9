"""Structural analysis of finite directed multigraphs for graph
C*-correspondences: Condition (L), Condition (S), invariant vertex subsets,
periodicity, and simplicity verdicts, with constructive witnesses.

``import graphcstar`` loads no submodule: each public name is imported from
its module on first use (PEP 562), so a caller pays only for the modules it
touches.
"""

from importlib import import_module as _import_module

# Each public name and the submodule that defines it.
_MODULE_OF = {name: module for module, names in (
    ("conditions", "ConditionL ConditionS PeriodicityVerdict WitnessRequest condition_L "
                   "condition_L_bruteforce condition_S find_witness is_disjoint_cycles "
                   "is_nonreturning_set is_returning periodicity"),
    ("correspondence", "PathVector VertexWeights inner_product is_nonreturning_vector "
                       "left_action norm operator_sandwich sup_norm"),
    ("graphs", "CapExceeded Connectivity Edge Graph InternalInvariantError InvalidGraphError "
               "Path ValidationIssue ValidationResult VertexClasses connectivity vertex_classes"),
    ("ideals", "SubsetLattice is_hereditary is_saturated lattice lattice_bruteforce "
               "saturated_hereditary_closure"),
    ("io_formats", "Diagnostic FormatError GraphSemanticError ParseError emit_dot parse_dsl "
                   "parse_json serialize_dsl serialize_json"),
    ("paths", "count_paths cycle_exits paths_of_length power_graph simple_cycles"),
    ("verdicts", "CITATIONS AnalysisReport ReportFlags SchweizerStatus classify "
                 "report_to_dict schweizer_check simplicity_verdict"),
) for name in names.split()}

__all__ = sorted({*_MODULE_OF, *_MODULE_OF.values()})


def __getattr__(name: str):
    if name in _MODULE_OF.values():
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
