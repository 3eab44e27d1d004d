"""Exact polyhedral geometry of analysis-l1 regularization.

The package answers four kinds of question about the regularizer
x -> ||D^T x||_1 attached to a least-squares data term:

* which sign patterns of D^T x are realizable, and which of those label
  extremal (minimal nonzero) faces of the unit ball (`ballgeo`);
* how those faces fit together as a lattice (`ballgeo.hasse_diagram`);
* what the full solution set of a given instance looks like: dimension,
  half-space description, compactness, extreme points (`solset`);
* how to build an instance whose solution set is a prescribed polytope
  (`construct`).

Everything is exact up to explicit numerical tolerances (`Tolerances`);
the only solvers involved are a dense two-phase simplex (`lp`) and an
ADMM loop with an active-set polish (`solset.solve_admm`).
"""
from .linalg import DEFAULT_TOLS, Tolerances, null_space_basis, rank, span_equal
from .signs import SignVector, SignPoset, consistent, dual_pairing_max, leq, sign_of
from .lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, IterationLimitError,
                 LinearProgram, LpOutcome, l1_epigraph_rows,
                 max_linear_over, maximize_each, minimize_l1_over_affine,
                 solve)
from .dictionaries import (complete_graph_edges, connected_components,
                           difference_dict, fused_lasso_dict, identity_dict,
                           incidence_dict, phi_separates_components)
from .ballgeo import (Dictionary, Face, HasseDiagram, InfeasibleSignError,
                      brute_force_feasible_signs, enumerate_feasible_signs,
                      face_contains, face_from_sign, hasse_diagram,
                      is_extremal, is_feasible, is_pre_extremal,
                      minimal_face_of_point, to_dot)
from .solset import (ConvergenceError, ProblemInstance,
                     SolutionSetDescription, UnboundedSolutionSetError,
                     coordinate_bounds, describe_solution_set,
                     enumerate_extreme_solutions, is_extreme_solution,
                     maximal_sign, objective, optimality_residual, solve_admm,
                     solution_hasse)
from .construct import (AffineSubspace, ConstructedInstance,
                        EmptyIntersectionError, SphereConditionError,
                        VerificationReport, check_sphere_condition,
                        construct_ball_instance, construct_face_instance,
                        support_gap, verify_construction)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLS", "Tolerances", "null_space_basis", "rank", "span_equal",
    "SignVector", "SignPoset", "consistent", "dual_pairing_max", "leq",
    "sign_of",
    "INFEASIBLE", "OPTIMAL", "UNBOUNDED", "IterationLimitError",
    "LinearProgram", "LpOutcome", "l1_epigraph_rows", "max_linear_over",
    "maximize_each", "minimize_l1_over_affine", "solve",
    "complete_graph_edges", "connected_components", "difference_dict",
    "fused_lasso_dict", "identity_dict", "incidence_dict",
    "phi_separates_components",
    "Dictionary", "Face", "HasseDiagram", "InfeasibleSignError",
    "brute_force_feasible_signs", "enumerate_feasible_signs", "face_contains",
    "face_from_sign", "hasse_diagram", "is_extremal", "is_feasible",
    "is_pre_extremal", "minimal_face_of_point", "to_dot",
    "ConvergenceError", "ProblemInstance", "SolutionSetDescription",
    "UnboundedSolutionSetError", "coordinate_bounds", "describe_solution_set",
    "enumerate_extreme_solutions", "is_extreme_solution", "maximal_sign",
    "objective", "optimality_residual", "solve_admm", "solution_hasse",
    "AffineSubspace", "ConstructedInstance", "EmptyIntersectionError",
    "SphereConditionError", "VerificationReport", "check_sphere_condition",
    "construct_ball_instance", "construct_face_instance", "support_gap",
    "verify_construction",
]
