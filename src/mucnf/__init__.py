"""Toolkit for generating and analyzing minimally unsatisfiable k-CNFs."""

__version__ = "0.1.0"

from .cnf import CnfFormula, evaluate, read_dimacs, write_dimacs
from .generator import GeneratorParams, GeneratedInstance, build_instance, generate
from .solver import SolveResult, solve_brute_force, solve_dpll, solve_external
from .mu import MuReport, analyze_mu, delete_clause

__all__ = [
    "CnfFormula",
    "GeneratorParams",
    "GeneratedInstance",
    "MuReport",
    "SolveResult",
    "analyze_mu",
    "build_instance",
    "delete_clause",
    "evaluate",
    "generate",
    "read_dimacs",
    "solve_brute_force",
    "solve_dpll",
    "solve_external",
    "write_dimacs",
]
