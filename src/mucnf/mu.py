"""Minimal-unsatisfiability analysis by single-clause deletion.

A formula's satisfiability number counts the clauses whose individual
removal leaves a satisfiable formula; the formula is minimally
unsatisfiable (MU) exactly when that number equals the clause count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .cnf import Assignment, CnfFormula, evaluate
from .generator import GeneratedInstance
from .solver import SolveResult, SolveTimeoutError, SolverIntegrityError

SolveFn = Callable[[CnfFormula], SolveResult]


class NotUnsatError(ValueError):
    """analyze_mu was given a satisfiable formula; MU is undefined."""


def delete_clause(formula: CnfFormula, index: int) -> CnfFormula:
    """Formula with clause `index` removed; order and variable count unchanged."""
    if not 0 <= index < len(formula.clauses):
        raise IndexError(
            f"clause index {index} out of range [0, {len(formula.clauses)})"
        )
    clauses = formula.clauses[:index] + formula.clauses[index + 1:]
    return CnfFormula(formula.num_variables, clauses, formula.comments)


@dataclass
class MuReport:
    """Per-clause deletion outcomes for an unsatisfiable formula.

    deletion_sat[i] is True / False for a decided deletion and None when
    the solve timed out or was skipped by early exit. With undecided
    entries the satisfiability number is only bracketed and the MU flag
    may be unknown (None).
    """

    clause_count: int
    deletion_sat: Tuple[Optional[bool], ...]
    witnesses: Dict[int, Assignment] = field(default_factory=dict)

    @property
    def sat_number_range(self) -> Tuple[int, int]:
        lo = sum(1 for s in self.deletion_sat if s is True)
        hi = self.clause_count - sum(1 for s in self.deletion_sat if s is False)
        return lo, hi

    @property
    def sat_number(self) -> Optional[int]:
        lo, hi = self.sat_number_range
        return lo if lo == hi else None

    @property
    def is_mu(self) -> Optional[bool]:
        lo, hi = self.sat_number_range
        if hi < self.clause_count:
            return False
        if lo == self.clause_count:
            return True
        return None

    @property
    def undecided(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.deletion_sat) if s is None)

    def deletion_bitmap(self) -> str:
        """One character per clause: '1' sat after deletion, '0' unsat, 'x' undecided."""
        return "".join(
            "1" if s is True else "0" if s is False else "x" for s in self.deletion_sat
        )


def analyze_mu(
    formula: CnfFormula,
    solve: SolveFn,
    early_exit: bool = False,
    keep_witnesses: bool = True,
) -> MuReport:
    """Solve every single-clause deletion of an unsatisfiable formula.

    Deletions run in clause-index order. With early_exit, analysis stops
    at the first unsat deletion (enough to refute MU); remaining entries
    are left undecided. Per-deletion timeouts are recorded as undecided
    rather than aborting the report. Every sat outcome's witness is
    re-verified with evaluate() before it is trusted.
    """
    base = solve(formula)
    if base.is_sat:
        raise NotUnsatError("formula is satisfiable; minimal unsatisfiability is undefined")
    return _deletion_report(formula, lambda i, reduced: solve(reduced).model,
                            early_exit, keep_witnesses)


def _deletion_report(
    formula: CnfFormula,
    model_for: Callable[[int, CnfFormula], Optional[Assignment]],
    early_exit: bool,
    keep_witnesses: bool,
) -> MuReport:
    """Decide every deletion, in clause-index order, with `model_for`.

    model_for(i, reduced) returns a model of `reduced` (the formula without
    clause i), or None when it is unsat; a SolveTimeoutError leaves the
    deletion undecided. Every model is re-verified with evaluate() before it
    is trusted. With early_exit the loop stops at the first unsat deletion.
    """
    m = len(formula.clauses)
    outcomes: list[Optional[bool]] = [None] * m
    witnesses: Dict[int, Assignment] = {}
    for i in range(m):
        reduced = delete_clause(formula, i)
        try:
            model = model_for(i, reduced)
        except SolveTimeoutError:
            continue
        if model is None:
            outcomes[i] = False
            if early_exit:
                break
            continue
        if not evaluate(reduced, model):
            raise SolverIntegrityError(f"non-verifying model for deletion {i}")
        outcomes[i] = True
        if keep_witnesses:
            witnesses[i] = model
    return MuReport(m, tuple(outcomes), witnesses)


def analyze_cells(
    instance: GeneratedInstance,
    early_exit: bool = False,
    keep_witnesses: bool = True,
) -> MuReport:
    """analyze_mu's report for a generated instance, by max-flow instead of search.

    The counting argument leaves every assignment violating some clause, so
    deleting the positive clause S of p-cell P* leaves a satisfiable formula
    iff some assignment violates S alone: S false, P*\\S true, every other
    p-cell with at most k-1 false variables and every q-cell with at most
    k-1 true ones. Q_j then needs d_j = max(0, |Q_j| - (k-1) - |S ∩ Q_j|)
    false variables from the other p-cells, each of which can give at most
    k-1 in all and |P_i ∩ Q_j| to Q_j. The deletion is sat iff that flow
    meets every d_j, and the flow says how many variables of each P_i ∩ Q_j
    the witness makes false. Negative clauses are the same with p and q,
    and true and false, swapped.

    One flow serves every clause with the same side, cell and profile
    |S ∩ Q_j|. As in analyze_mu, every witness is re-verified with
    evaluate() against the formula with that clause deleted, early_exit
    stops at the first unsat deletion, and keep_witnesses keeps the models.
    """
    formula = instance.formula
    k = instance.params.k
    n = formula.num_variables
    layouts = (instance.p_cells, instance.q_cells)
    g = len(instance.p_cells)
    cell_of = ([0] * (n + 1), [0] * (n + 1))
    for side in (0, 1):
        for c, cell in enumerate(layouts[side]):
            for v in cell:
                cell_of[side][v] = c
    # Side 0 decides positive deletions: its columns are the q-cells and its
    # rows the p-cells; side 1 swaps them. grids[side][col][row] lists the
    # variables in both cells, ascending: those a flow from col to row flips.
    by_q = [[[] for _ in range(g)] for _ in range(g)]
    for v in range(1, n + 1):
        by_q[cell_of[1][v]][cell_of[0][v]].append(v)
    grids = (by_q, [list(col) for col in zip(*by_q)])
    caps = tuple([[len(vs) for vs in col] for col in grid] for grid in grids)
    sizes = tuple([len(cell) for cell in layouts[1 - side]] for side in (0, 1))

    flows: Dict[tuple, Optional[Dict[Tuple[int, int], int]]] = {}

    def model_for(i: int, reduced: CnfFormula) -> Optional[Assignment]:
        clause = formula.clauses[i]
        side = 0 if clause[0] > 0 else 1
        home = cell_of[side][abs(clause[0])]
        profile = [0] * g
        for lit in clause:
            profile[cell_of[1 - side][abs(lit)]] += 1
        key = (side, home, tuple(profile))
        if key not in flows:
            flows[key] = _cell_flow(caps[side], sizes[side], home, profile, k)
        flow = flows[key]
        if flow is None:
            return None
        fill = side == 0
        witness = dict.fromkeys(range(1, n + 1), fill)
        for lit in clause:
            witness[abs(lit)] = not fill
        for (col, row), units in flow.items():
            for v in grids[side][col][row][:units]:
                witness[v] = not fill
        return witness

    return _deletion_report(formula, model_for, early_exit, keep_witnesses)


def _cell_flow(
    cap: list, col_sizes: list, home: int, profile: list, k: int
) -> Optional[Dict[Tuple[int, int], int]]:
    """Units per (column, row) of a flow meeting every column's demand, or None.

    Column j demands max(0, col_sizes[j] - (k-1) - profile[j]) units; row i
    takes at most k-1 in all (none for `home`) and at most cap[j][i] from
    column j. Columns are filled one at a time along shortest augmenting
    paths. A column with no augmenting path left never gains one later, so
    the first such column proves the demands cannot all be met.
    """
    g = len(col_sizes)
    spare = [k - 1] * g
    spare[home] = 0     # pinned by the deleted clause: a dead end for paths
    flow = [[0] * g for _ in range(g)]
    for start in range(g):
        need = col_sizes[start] - (k - 1) - profile[start]
        while need > 0:
            # nodes: columns 0..g-1, rows g..2g-1; forward edges column ->
            # row with room, backward edges row -> column along used flow
            parent = [-1] * (2 * g)
            parent[start] = start
            queue = [start]
            end = -1
            for node in queue:
                if node < g:
                    for row in range(g):
                        if parent[g + row] < 0 and flow[node][row] < cap[node][row]:
                            parent[g + row] = node
                            if spare[row]:
                                end = row
                                break
                            queue.append(g + row)
                    if end >= 0:
                        break
                else:
                    row = node - g
                    for col in range(g):
                        if parent[col] < 0 and flow[col][row]:
                            parent[col] = node
                            queue.append(col)
            if end < 0:
                return None
            push, row = min(need, spare[end]), end
            while True:
                col = parent[g + row]
                push = min(push, cap[col][row] - flow[col][row])
                if col == start:
                    break
                row = parent[col] - g
                push = min(push, flow[col][row])
            row = end
            while True:
                col = parent[g + row]
                flow[col][row] += push
                if col == start:
                    break
                row = parent[col] - g
                flow[col][row] -= push
            spare[end] -= push
            need -= push
    return {
        (col, row): units
        for col, units_by_row in enumerate(flow)
        for row, units in enumerate(units_by_row)
        if units
    }
