"""Satisfiability backends: DPLL, exhaustive enumeration, external subprocess.

All three agree on verdicts; every sat result carries a total model that
has been (or can be) confirmed with cnf.evaluate. DPLL is the workhorse;
brute force is the independent oracle for small instances; the external
adapter shells out to any DIMACS solver speaking SAT-competition output.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

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

    Sets of clauses are integers whose bit c stands for clause c: one per
    literal, of the clauses that hold it, and a stack with one per trail
    position, of the clauses the trail up to there leaves unresolved.
    Occurrence counts are bit counts, O(variables) word operations per
    node, and backtracking truncates the stack. Propagation visits the
    clauses of a falsified literal in ascending index, so the order of the
    search, and with it the model and every counter, is that of a plain
    scan over all clauses at each node.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    stats = SolveStats()
    clauses = formula.clauses
    n = formula.num_variables

    if any(len(c) == 0 for c in clauses):
        stats.conflicts = 1
        return SolveResult("unsat", None, stats)

    # occ_bits[lit + n]: bit c is set iff clause c holds literal lit
    occ_bits = [0] * (2 * n + 1)
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occ_bits[lit + n] |= 1 << ci

    assign: list[Optional[bool]] = [None] * (n + 1)
    trail: list[int] = []
    # unresolved[j]: the clauses no literal of trail[:j] satisfies
    unresolved = [(1 << len(clauses)) - 1]

    def set_var(var: int, val: bool) -> None:
        assign[var] = val
        trail.append(var)
        unresolved.append(unresolved[-1] & ~occ_bits[n + var if val else n - var])

    def undo_to(mark: int) -> None:
        for var in trail[mark:]:
            assign[var] = None
        del trail[mark:]
        del unresolved[mark + 1:]

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
            # the unresolved clauses that held the literal just made false:
            # no unassigned literal left is a conflict, one is implied
            hit = occ_bits[n - var if val else n + var] & unresolved[-1]
            while hit:
                low = hit & -hit
                hit ^= low
                unit = 0
                for lit in clauses[low.bit_length() - 1]:
                    if assign[abs(lit)] is None:
                        if unit:
                            break
                        unit = lit
                else:
                    if not unit:
                        stats.conflicts += 1
                        return False
                    pending.append((abs(unit), unit > 0))
        return True

    def pures_or_branch() -> tuple:
        """(pure literals, 0), or ([], the most frequent variable, ties to
        the lowest index), from occurrence counts in unresolved clauses."""
        top = unresolved[-1]
        pures = []
        best_var, best = 1, -1
        for v in range(1, n + 1):
            if assign[v] is None:
                pos = (occ_bits[n + v] & top).bit_count()
                neg = (occ_bits[n - v] & top).bit_count()
                if (pos > 0) != (neg > 0):
                    pures.append((v, pos > 0))
                elif pos + neg > best:
                    best_var, best = v, pos + neg
        if pures:
            return pures, 0
        return [], best_var

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
                if not unresolved[-1]:
                    return True
                pending, branch_var = pures_or_branch()
                if not pending:
                    frames.append([mark, branch_var, True])
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


BRUTE_FORCE_MAX_VARIABLES = 24
_BLOCK_BITS = 16  # assignments tested together, as the bits of one integer


def solve_brute_force(formula: CnfFormula) -> SolveResult:
    """Exhaustively enumerate total assignments in ascending binary order.

    Assignment i (an integer counting up from 0) sets variable v true iff
    bit v-1 of i is set; the first satisfying assignment is returned.
    A block of 2**16 assignments is tested as the bits of one integer: a
    clause keeps the OR of its literals' bitsets. Refuses formulas beyond
    BRUTE_FORCE_MAX_VARIABLES variables.
    """
    n = formula.num_variables
    if n > BRUTE_FORCE_MAX_VARIABLES:
        raise BruteForceCapError(
            f"{n} variables exceeds the brute-force cap of "
            f"{BRUTE_FORCE_MAX_VARIABLES}; use DPLL"
        )
    low = min(n, _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    # bits[n + lit]: bit j is set iff assignment j of the block makes lit
    # true. Variable v <= low alternates runs of 2**(v-1) false and true
    # assignments; shift-and-or doubling builds that in linear time.
    bits = [0] * (2 * n + 1)
    for v in range(1, low + 1):
        run = 1 << (v - 1)
        pattern, period = ((1 << run) - 1) << run, 2 * run
        while period < 1 << low:
            pattern |= pattern << period
            period *= 2
        bits[n + v], bits[n - v] = pattern, full ^ pattern
    for block in range(1 << (n - low)):
        # a variable v > low is constant within a block: bit v-low-1 of it
        for v in range(low + 1, n + 1):
            on = block >> (v - low - 1) & 1
            bits[n + v], bits[n - v] = (full, 0) if on else (0, full)
        satisfying = full
        for clause in formula.clauses:
            covered = 0
            for lit in clause:
                covered |= bits[n + lit]
            satisfying &= covered
            if not satisfying:
                break
        if satisfying:
            first = block << low | (satisfying & -satisfying).bit_length() - 1
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
    # imported here: only external-solver runs need them
    import shlex
    import subprocess
    import tempfile

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
