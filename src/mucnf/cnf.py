"""Propositional CNF data model and DIMACS serialization.

Literals use the DIMACS signed-integer convention: variable ``v`` (1-based)
is the literal ``v`` when positive and ``-v`` when negated. A clause is a
tuple of literals, a formula an ordered tuple of clauses. Clause order and
literal order are part of the value and are never canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

Clause = Tuple[int, ...]
Assignment = Dict[int, bool]


class PartialAssignmentError(ValueError):
    """Raised when evaluate() is given an assignment missing a variable."""

    def __init__(self, variable: int):
        super().__init__(f"assignment is not total: variable {variable} is unassigned")
        self.variable = variable


class DimacsParseError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"DIMACS parse error at line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF: variable count, ordered clauses, comment lines.

    Comments carry provenance (generator parameters, seed) and are emitted
    as ``c`` lines in DIMACS output.

    The constructor validates every literal, so a formula is validated once,
    where it enters the program (read_dimacs, build_instance or a direct
    call). Formulas derived from a valid one, such as the deletion copies of
    the mu module, are built with _from_valid, which skips that check: their
    literals are already known to be valid.
    """

    num_variables: int
    clauses: Tuple[Clause, ...]
    comments: Tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        object.__setattr__(self, "comments", tuple(self.comments))
        if self.num_variables < 0:
            raise ValueError(f"num_variables must be >= 0, got {self.num_variables}")
        for ci, clause in enumerate(self.clauses):
            seen = set()
            for lit in clause:
                if lit == 0:
                    raise ValueError(f"clause {ci}: literal 0 is not allowed")
                if abs(lit) > self.num_variables:
                    raise ValueError(
                        f"clause {ci}: variable {abs(lit)} exceeds "
                        f"num_variables={self.num_variables}"
                    )
                if lit in seen:
                    raise ValueError(f"clause {ci}: duplicate literal {lit}")
                seen.add(lit)

    @classmethod
    def _from_valid(
        cls, num_variables: int, clauses: Tuple[Clause, ...], comments: Tuple[str, ...] = ()
    ) -> CnfFormula:
        """A formula from parts known to be valid, without __post_init__.

        `clauses` must be a tuple of tuples whose literals would pass the
        constructor's check for `num_variables` (for example, clauses of a
        formula with that variable count, or their negations), and
        `comments` a tuple; neither is copied or checked.
        """
        formula = object.__new__(cls)
        object.__setattr__(formula, "num_variables", num_variables)
        object.__setattr__(formula, "clauses", clauses)
        object.__setattr__(formula, "comments", comments)
        return formula

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff the total assignment satisfies every clause.

    Raises PartialAssignmentError if any variable of the formula's range
    is unassigned (the assignment must be total over [1, num_variables]).
    """
    for v in range(1, formula.num_variables + 1):
        if v not in assignment:
            raise PartialAssignmentError(v)
    for clause in formula.clauses:
        if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            return False
    return True


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS CNF text; byte-deterministic for a given formula."""
    lines = [f"c {c}" if c else "c" for c in formula.comments]
    lines.append(f"p cnf {formula.num_variables} {formula.num_clauses}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Inverse of write_dimacs: clause order, literal order within clauses,
    and comment lines are all preserved, so read(write(f)) == f.
    """
    comments = []
    num_variables = None
    declared_clauses = None
    clauses = []
    current: list[int] = []
    seen: set[int] = set()
    current_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[2:] if line.startswith("c ") else line[1:])
            continue
        if line.startswith("p"):
            if num_variables is not None:
                raise DimacsParseError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header {line!r}", line_no)
            try:
                num_variables = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsParseError(f"non-integer counts in header {line!r}", line_no)
            if num_variables < 0 or declared_clauses < 0:
                raise DimacsParseError("negative counts in header", line_no)
            continue
        if line == "%":
            break   # SATLIB trailer: what follows is not clause data
        if num_variables is None:
            raise DimacsParseError("clause data before 'p cnf' header", line_no)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsParseError(f"non-integer token {tok!r}", line_no)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
                seen.clear()
            else:
                if abs(lit) > num_variables:
                    raise DimacsParseError(
                        f"variable {abs(lit)} out of range (header declares "
                        f"{num_variables} variables)",
                        line_no,
                    )
                if lit in seen:
                    raise DimacsParseError(
                        f"clause {len(clauses)}: duplicate literal {lit}", line_no)
                seen.add(lit)
                current.append(lit)
                current_line = line_no
    if num_variables is None:
        raise DimacsParseError("missing 'p cnf' header", max(1, len(text.splitlines())))
    if current:
        raise DimacsParseError("clause not terminated by 0", current_line)
    if len(clauses) != declared_clauses:
        raise DimacsParseError(
            f"header declares {declared_clauses} clauses but found {len(clauses)}",
            len(text.splitlines()),
        )
    return CnfFormula(num_variables, tuple(clauses), tuple(comments))
