"""Polynomial equations over 2x2 complex matrices: solve them, count their
solutions, and construct equations with any prescribed finite count."""

from .construct import (ConstructionPlan, ConstructionResult, DomainError,
                        UnreachableCase, ValidationFailure, build_partition,
                        choose_p, choose_values, construct, special_case,
                        solve_coefficients)
from .mat2 import (Eigen2, Mat2, MatrixEquation, PolyMat2, Vec2, det2,
                   eigen2, eval_batch, eval_equation, poly_matrix,
                   rank_and_nullspace)
from .poly import (NonConvergence, Poly, Root, SingularSystem, dense_solve,
                   find_roots)
from .solver import (CriticalDatum, InfiniteCertificate, InternalInconsistency,
                     Solution, SolutionSet, critical_data, detect_infinite,
                     enumerate_diagonalizable, find_nondiagonalizable,
                     scalar_solutions, solution_bound, solve_equation)
from .verify import (CrossCheck, VerificationReport, brute_force_scan,
                     count_cross_check, verify_solution_set)

__all__ = [
    "ConstructionPlan", "ConstructionResult", "CriticalDatum", "CrossCheck",
    "DomainError", "Eigen2", "InfiniteCertificate",
    "InternalInconsistency", "Mat2", "MatrixEquation", "NonConvergence",
    "Poly", "PolyMat2", "Root", "SingularSystem", "Solution", "SolutionSet",
    "UnreachableCase", "ValidationFailure", "Vec2", "VerificationReport",
    "brute_force_scan", "build_partition", "choose_p", "choose_values",
    "construct", "count_cross_check", "critical_data", "dense_solve", "det2",
    "detect_infinite", "eigen2", "enumerate_diagonalizable",
    "eval_batch", "eval_equation", "find_nondiagonalizable", "find_roots", "poly_matrix",
    "rank_and_nullspace", "scalar_solutions",
    "solution_bound", "solve_coefficients", "solve_equation", "special_case",
    "verify_solution_set",
]

__version__ = "0.1.0"
