"""Polynomial equations over 2x2 complex matrices: solve them, count their
solutions, and construct equations with any prescribed finite count."""

from .construct import (ConstructionPlan, ConstructionResult, DomainError,
                        ValidationFailure, build_partition, choose_p,
                        choose_values, construct, special_case,
                        solve_coefficients)
from .mat2 import (Mat2, MatrixEquation, PolyMat2, Vec2, det2, eval_batch,
                   poly_matrix, rank_and_nullspace)
from .poly import NonConvergence, Poly, Root, find_roots
from .solver import (CriticalDatum, InfiniteCertificate, InternalInconsistency,
                     Solution, SolutionSet, critical_data, detect_infinite,
                     enumerate_diagonalizable, find_nondiagonalizable,
                     scalar_solutions, solution_bound, solve_equation)
from .verify import (CrossCheck, VerificationReport, brute_force_scan,
                     count_cross_check, verify_solution_set)

__all__ = [
    "ConstructionPlan", "ConstructionResult", "CriticalDatum", "CrossCheck",
    "DomainError", "InfiniteCertificate", "InternalInconsistency", "Mat2",
    "MatrixEquation", "NonConvergence", "Poly", "PolyMat2", "Root",
    "Solution", "SolutionSet", "ValidationFailure", "Vec2",
    "VerificationReport", "brute_force_scan", "build_partition", "choose_p",
    "choose_values", "construct", "count_cross_check", "critical_data",
    "det2", "detect_infinite", "enumerate_diagonalizable", "eval_batch",
    "find_nondiagonalizable", "find_roots", "poly_matrix",
    "rank_and_nullspace", "scalar_solutions",
    "solution_bound", "solve_coefficients", "solve_equation", "special_case",
    "verify_solution_set",
]

__version__ = "0.1.0"
