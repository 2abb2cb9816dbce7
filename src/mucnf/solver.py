"""Satisfiability backends: DPLL, exhaustive enumeration, external subprocess.

All three agree on verdicts; every sat result carries a total model that
has been (or can be) confirmed with cnf.evaluate. DPLL is the workhorse;
brute force is the independent oracle for small instances; the external
adapter shells out to any DIMACS solver speaking SAT-competition output.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cnf import Assignment, CnfFormula, evaluate, write_dimacs


class SolveTimeoutError(Exception):
    """A solve exceeded its deadline; never converted to a verdict."""


class BruteForceCapError(ValueError):
    """Formula too large for exhaustive enumeration."""


class ExternalSolverError(RuntimeError):
    """External solver failed to run or produced unparseable output."""


class SolverIntegrityError(ExternalSolverError):
    """External solver claimed sat but its model does not verify."""


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


@dataclass
class SolveResult:
    status: str  # "sat" or "unsat"
    model: Optional[Assignment] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def solve_dpll(formula: CnfFormula, timeout: Optional[float] = None) -> SolveResult:
    """Complete DPLL with unit propagation and pure-literal elimination.

    Branching: unassigned variable with the most occurrences in unresolved
    clauses, ties to the lowest index, true tried first. Deterministic.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    stats = SolveStats()
    clauses = formula.clauses
    n = formula.num_variables
    m = len(clauses)

    if any(len(c) == 0 for c in clauses):
        stats.conflicts = 1
        return SolveResult("unsat", None, stats)

    # occ[lit + n] lists the clause indices containing literal lit
    occ: list[list[int]] = [[] for _ in range(2 * n + 1)]
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occ[lit + n].append(ci)

    sat_count = [0] * m          # true literals per clause
    free_count = [len(c) for c in clauses]  # unassigned literals per clause
    assign: list[Optional[bool]] = [None] * (n + 1)
    trail: list[int] = []
    unresolved = [m]             # clauses with sat_count == 0

    def set_var(var: int, val: bool) -> None:
        assign[var] = val
        trail.append(var)
        tl = var if val else -var
        for ci in occ[tl + n]:
            if sat_count[ci] == 0:
                unresolved[0] -= 1
            sat_count[ci] += 1
        for ci in occ[n - tl]:
            free_count[ci] -= 1

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            var = trail.pop()
            val = assign[var]
            assign[var] = None
            tl = var if val else -var
            for ci in occ[tl + n]:
                sat_count[ci] -= 1
                if sat_count[ci] == 0:
                    unresolved[0] += 1
            for ci in occ[n - tl]:
                free_count[ci] += 1

    def propagate(pending: list) -> bool:
        """Drain implied assignments; False on conflict."""
        while pending:
            var, val = pending.pop()
            cur = assign[var]
            if cur is not None:
                if cur is not val:
                    stats.conflicts += 1
                    return False
                continue
            set_var(var, val)
            stats.propagations += 1
            fl = -var if val else var
            for ci in occ[fl + n]:
                if sat_count[ci] == 0:
                    fc = free_count[ci]
                    if fc == 0:
                        stats.conflicts += 1
                        return False
                    if fc == 1:
                        for lit in clauses[ci]:
                            if assign[abs(lit)] is None:
                                pending.append((abs(lit), lit > 0))
                                break
        return True

    def find_pures() -> list:
        pos = bytearray(n + 1)
        neg = bytearray(n + 1)
        for ci in range(m):
            if sat_count[ci] == 0:
                for lit in clauses[ci]:
                    v = abs(lit)
                    if assign[v] is None:
                        if lit > 0:
                            pos[v] = 1
                        else:
                            neg[v] = 1
        return [
            (v, bool(pos[v]))
            for v in range(1, n + 1)
            if assign[v] is None and pos[v] != neg[v]
        ]

    def pick_branch_var() -> int:
        counts = [0] * (n + 1)
        for ci in range(m):
            if sat_count[ci] == 0:
                for lit in clauses[ci]:
                    v = abs(lit)
                    if assign[v] is None:
                        counts[v] += 1
        best, best_count = 0, 0
        for v in range(1, n + 1):
            if counts[v] > best_count:
                best, best_count = v, counts[v]
        return best

    def search(pending: list) -> bool:
        """Depth-first search over the trail, with an explicit stack.

        frames holds [mark, var, value] for each open decision: `mark` is
        the trail length when its node was entered, so refuting the node
        undoes to it. Branches try true first, in the recursive order.
        """
        frames: list = []
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise SolveTimeoutError("DPLL solve exceeded its deadline")
            mark = len(trail)
            while propagate(pending):
                if unresolved[0] == 0:
                    return True
                pending = find_pures()
                if not pending:
                    frames.append([mark, pick_branch_var(), True])
                    break
            else:
                # conflict: undo this node and every decision whose false
                # branch is refuted too, then flip the deepest true branch
                undo_to(mark)
                while frames and not frames[-1][2]:
                    undo_to(frames.pop()[0])
                if not frames:
                    return False
                frames[-1][2] = False
            stats.decisions += 1
            _, var, val = frames[-1]
            pending = [(var, val)]

    initial = [(abs(c[0]), c[0] > 0) for c in clauses if len(c) == 1]
    if search(initial):
        model = {v: assign[v] if assign[v] is not None else True for v in range(1, n + 1)}
        return SolveResult("sat", model, stats)
    return SolveResult("unsat", None, stats)


def solve_brute_force(formula: CnfFormula, cap: int = 24) -> SolveResult:
    """Exhaustively enumerate total assignments in ascending binary order.

    Assignment i (an integer counting up from 0) sets variable v true iff
    bit v-1 of i is set; the first satisfying assignment is returned.
    Refuses formulas beyond `cap` variables.
    """
    n = formula.num_variables
    if n > cap:
        raise BruteForceCapError(
            f"{n} variables exceeds the brute-force cap of {cap}; use DPLL"
        )
    masks = []
    for clause in formula.clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))

    total = 1 << n
    chunk = 1 << 16
    for start in range(0, total, chunk):
        block = np.arange(start, min(start + chunk, total), dtype=np.int64)
        falsified = np.zeros(len(block), dtype=bool)
        for pos, neg in masks:
            falsified |= ((block & pos) == 0) & ((block & neg) == neg)
        hits = np.nonzero(~falsified)[0]
        if len(hits):
            first = start + int(hits[0])
            model = {v: bool((first >> (v - 1)) & 1) for v in range(1, n + 1)}
            return SolveResult("sat", model, SolveStats())
    return SolveResult("unsat", None, SolveStats())


def solve_external(
    formula: CnfFormula, solver_command: str, timeout: Optional[float] = None
) -> SolveResult:
    """Run an external DIMACS solver and parse SAT-competition output.

    A claimed model is re-verified with evaluate() before being returned;
    a non-verifying model raises SolverIntegrityError, never passes through.
    """
    argv = shlex.split(solver_command)
    fd, path = tempfile.mkstemp(suffix=".cnf", prefix="mucnf-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(write_dimacs(formula))
        try:
            proc = subprocess.run(
                argv + [path], capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise SolveTimeoutError(f"external solver exceeded {timeout}s")
        except OSError as exc:
            raise ExternalSolverError(f"failed to run {argv[0]!r}: {exc}")
    finally:
        os.unlink(path)

    status = None
    model_lits: list[int] = []
    for line in proc.stdout.splitlines():
        if line.startswith("s "):
            verdict = line.split(None, 1)[1].strip()
            if verdict == "SATISFIABLE":
                status = "sat"
            elif verdict == "UNSATISFIABLE":
                status = "unsat"
            else:
                raise ExternalSolverError(f"unrecognized status line {line!r}")
        elif line.startswith("v ") or line == "v":
            for tok in line.split()[1:]:
                try:
                    lit = int(tok)
                except ValueError:
                    raise ExternalSolverError(f"non-integer token {tok!r} in {line!r}")
                if lit != 0:
                    model_lits.append(lit)
    if status is None:
        raise ExternalSolverError(
            "no 's SATISFIABLE'/'s UNSATISFIABLE' line in solver output "
            f"(exit code {proc.returncode})"
        )
    if status == "unsat":
        return SolveResult("unsat", None, SolveStats())

    model = {v: True for v in range(1, formula.num_variables + 1)}
    for lit in model_lits:
        if abs(lit) <= formula.num_variables:
            model[abs(lit)] = lit > 0
    if not evaluate(formula, model):
        raise SolverIntegrityError(
            "external solver claimed sat but its model does not satisfy the formula"
        )
    return SolveResult("sat", model, SolveStats())


def make_backend(
    name: str,
    solver_command: Optional[str] = None,
    timeout: Optional[float] = None,
) -> Callable[[CnfFormula], SolveResult]:
    """Bind a backend name ('dpll', 'brute', 'external') to a solve callable."""
    if name == "dpll":
        return lambda f: solve_dpll(f, timeout=timeout)
    if name == "brute":
        return solve_brute_force
    if name == "external":
        if not solver_command:
            raise ValueError("external backend requires a solver command")
        return lambda f: solve_external(f, solver_command, timeout=timeout)
    raise ValueError(f"unknown backend {name!r} (expected dpll, brute, or external)")
