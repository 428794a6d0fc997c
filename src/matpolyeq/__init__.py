"""Polynomial equations over 2x2 complex matrices: solve them, count their
solutions, and construct equations with any prescribed finite count."""

from .construct import (ConstructionPlan, ConstructionResult, DomainError,
                        ValidationFailure, construct)
from .mat2 import Mat2, MatrixEquation, PolyMat2, Vec2, eval_batch, poly_matrix
from .poly import NonConvergence, Poly, Root, find_roots
from .solver import (CriticalDatum, InfiniteCertificate, InternalInconsistency,
                     Solution, SolutionSet, critical_data, solution_bound,
                     solve_equation)
from .verify import (CrossCheck, VerificationReport, brute_force_scan,
                     count_cross_check, verify_solution_set)

__all__ = [
    "ConstructionPlan", "ConstructionResult", "CriticalDatum", "CrossCheck",
    "DomainError", "InfiniteCertificate", "InternalInconsistency", "Mat2",
    "MatrixEquation", "NonConvergence", "Poly", "PolyMat2", "Root",
    "Solution", "SolutionSet", "ValidationFailure", "Vec2",
    "VerificationReport", "brute_force_scan", "construct",
    "count_cross_check", "critical_data", "eval_batch", "find_roots",
    "poly_matrix", "solution_bound", "solve_equation", "verify_solution_set",
]

__version__ = "0.1.0"
