"""Minimal-unsatisfiability analysis by single-clause deletion.

A formula's satisfiability number counts the clauses whose individual
removal leaves a satisfiable formula; the formula is minimally
unsatisfiable (MU) exactly when that number equals the clause count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .cnf import Assignment, CnfFormula, PartialAssignmentError, evaluate
from .solver import SolveResult, SolveTimeoutError, SolverIntegrityError

SolveFn = Callable[[CnfFormula], SolveResult]


class NotUnsatError(ValueError):
    """analyze_mu was given a satisfiable formula; MU is undefined."""


def delete_clause(formula: CnfFormula, index: int) -> CnfFormula:
    """Formula with clause `index` removed; order and variable count unchanged.

    The copy is not validated again: its clauses are a subset of a formula
    that was validated when it was built, so they are valid too.
    """
    if not 0 <= index < len(formula.clauses):
        raise IndexError(
            f"clause index {index} out of range [0, {len(formula.clauses)})"
        )
    clauses = formula.clauses[:index] + formula.clauses[index + 1:]
    return CnfFormula._from_valid(formula.num_variables, clauses, formula.comments)


@dataclass
class MuReport:
    """Per-clause deletion outcomes for an unsatisfiable formula.

    deletion_sat[i] is True / False for a decided deletion and None when
    the solve timed out or was skipped by early exit. With undecided
    entries the satisfiability number is only bracketed and the MU flag
    may be unknown (None).
    """

    deletion_sat: Tuple[Optional[bool], ...]
    witnesses: Dict[int, Assignment]

    @property
    def clause_count(self) -> int:
        return len(self.deletion_sat)

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
) -> MuReport:
    """Decide every single-clause deletion of an unsatisfiable formula.

    Deletions run in clause-index order. With early_exit, analysis stops
    at the first unsat deletion (enough to refute MU); remaining entries
    are left undecided. Per-deletion timeouts are recorded as undecided
    rather than aborting the report.

    Most sat deletions need no solve (recursive model rotation). A witness
    for deletion i makes exactly clause i false; flipping one variable of
    clause i makes it true, and if exactly one clause j is then false, the
    new assignment is a candidate witness for j, and the walk goes on from
    there. The walk is keyed on assignments, so it may pass a clause again
    with another assignment, and it runs at most one step per clause after
    each solved sat deletion. A deletion with a candidate is decided by it
    without a solve, so one whose solve would time out may still be
    decided.

    Every witness, the solver's or a rotated candidate, is checked in place
    on the clause bitmasks before the report keeps it: it must leave no
    clause but clause i false, the condition of
    evaluate(delete_clause(formula, i), witness), with no formula copy. A
    solver model is read by index, as evaluate() reads it; one that is not
    total raises PartialAssignmentError, and a failing witness raises
    SolverIntegrityError naming its deletion.

    A deletion that needs a solve is solved under the negation of its
    clause: the formula without clause i plus the unit clause (-l) for each
    literal l of clause i. The whole formula is unsat, so every model of
    the formula without clause i falsifies clause i; the units change no
    verdict and only prune the search. Their models are models of the
    deletion, so the witness check is unchanged, but the solver may return
    other models than without the units, so the witnesses may differ.
    The formula handed to `solve` is not validated again: the clauses of a
    valid formula and the negations of their literals are valid.
    model_for(i) takes only the clause index: see _deletion_report.
    """
    base = solve(formula)
    if base.is_sat:
        raise NotUnsatError("formula is satisfiable; minimal unsatisfiability is undefined")
    clauses = formula.clauses
    m, n = len(clauses), formula.num_variables
    # assignments are int bitsets, bit v set iff variable v is true; clause c
    # is false under `bits` iff bits & pos[c] == 0 and bits & neg[c] == neg[c]
    pos = [sum(1 << lit for lit in clause if lit > 0) for clause in clauses]
    neg = [sum(1 << -lit for lit in clause if lit < 0) for clause in clauses]
    occ: list[list[int]] = [[] for _ in range(2 * n + 1)]  # occ[n + lit]
    for c, clause in enumerate(clauses):
        for lit in clause:
            occ[n + lit].append(c)
    seen: set = set()
    candidates: Dict[int, int] = {}

    def check(i: int, bits: int) -> None:
        """Raise unless `bits` leaves no clause but clause i false."""
        for c in range(m):
            if not bits & pos[c] and bits & neg[c] == neg[c] and c != i:
                raise SolverIntegrityError(f"non-verifying model for deletion {i}")

    def walk(i: int, bits: int) -> None:
        """Rotate the witness `bits` of clause i, for at most m steps."""
        seen.add(bits)
        stack = [(i, bits)]
        for _ in range(m):
            if not stack:
                return
            i, bits = stack.pop()
            for lit in clauses[i]:
                flipped = bits ^ (1 << abs(lit))
                if flipped in seen:
                    continue
                seen.add(flipped)
                # only clauses holding -lit, which the flip made false, can
                # be false now
                false = [c for c in occ[n - lit]
                         if not flipped & pos[c] and flipped & neg[c] == neg[c]]
                if len(false) == 1:
                    candidates.setdefault(false[0], flipped)
                    stack.append((false[0], flipped))

    def model_for(i: int) -> Optional[Assignment]:
        if i in candidates:
            bits = candidates[i]
            check(i, bits)
            return {v: bool(bits >> v & 1) for v in range(1, n + 1)}
        # the units of ¬C_i are sound only because `formula` was shown unsat
        # above: then every model of the formula without clause i falsifies it
        units = tuple((-lit,) for lit in clauses[i])
        model = solve(CnfFormula._from_valid(n, clauses[:i] + clauses[i + 1:] + units)).model
        if model is not None:
            for v in range(1, n + 1):
                if v not in model:
                    raise PartialAssignmentError(v)
            check(i, sum(1 << v for v in range(1, n + 1) if model[v]))
            walk(i, sum(1 << v for v in range(1, n + 1) if model.get(v)))
        return model

    return _deletion_report(formula, model_for, early_exit)


def _deletion_report(
    formula: CnfFormula,
    model_for: Callable[[int], Optional[Assignment]],
    early_exit: bool,
) -> MuReport:
    """Decide every deletion, in clause-index order, with `model_for`.

    model_for(i) returns a model of the formula without clause i, which it
    has already checked, or None when that formula is unsat; a
    SolveTimeoutError leaves the deletion undecided. The report keeps every
    model as the witness of its deletion. With early_exit the loop stops at
    the first unsat deletion.
    """
    m = len(formula.clauses)
    outcomes: list[Optional[bool]] = [None] * m
    witnesses: Dict[int, Assignment] = {}
    for i in range(m):
        try:
            model = model_for(i)
        except SolveTimeoutError:
            continue
        outcomes[i] = model is not None
        if model is not None:
            witnesses[i] = model
        elif early_exit:
            break
    return MuReport(tuple(outcomes), witnesses)


def analyze_cells(
    formula: CnfFormula,
    p_cells: Sequence[Sequence[int]],
    q_cells: Sequence[Sequence[int]],
    early_exit: bool = False,
) -> MuReport:
    """analyze_mu's report for a generated formula, by max-flow instead of search.

    `p_cells` and `q_cells` are the formula's two partitions, as
    build_instance returns them or generator.recognize finds them; k is the
    clause width, and the clauses may come in any order.

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
    |S ∩ Q_j|. An unsat deletion builds no formula copy. Each witness is
    checked with evaluate() on a copy of the formula without its clause
    (delete_clause, which does not validate the copy again), and a failing
    one raises SolverIntegrityError naming its deletion. As
    in analyze_mu, the report keeps every witness, and early_exit stops at
    the first unsat deletion.
    """
    k = len(formula.clauses[0])
    n = formula.num_variables
    layouts = (p_cells, q_cells)
    g = len(p_cells)
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

    def model_for(i: int) -> Optional[Assignment]:
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
        if not evaluate(delete_clause(formula, i), witness):
            raise SolverIntegrityError(f"non-verifying model for deletion {i}")
        return witness

    return _deletion_report(formula, model_for, early_exit)


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
