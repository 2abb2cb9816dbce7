"""Construction of the unsatisfiable k-CNF family C = C1 ∧ C2.

Given clause width k and group count g, the (2k-2)g + 1 variables are
partitioned in order into g-1 cells of size 2k-2 plus a final cell of
size 2k-1. C1 takes all positive k-clauses over each cell of the identity
partition; C2 takes all negative k-clauses over each cell of a seeded
random permutation of the variables. The conjunction is unsatisfiable:
satisfying C1 allows at most (k-1)g false variables and satisfying C2 at
most (k-1)g true ones, but (2k-2)g < (2k-2)g + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .cnf import Clause, CnfFormula
from .rng import permutation

Cell = Tuple[int, ...]


@dataclass(frozen=True)
class GeneratorParams:
    """(k, g, seed) triple; k is the clause width, g the cell-group count."""

    k: int
    g: int
    seed: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def num_variables(self) -> int:
        return (2 * self.k - 2) * self.g + 1

    @property
    def num_clauses(self) -> int:
        k, g = self.k, self.g
        return 2 * ((g - 1) * comb(2 * k - 2, k) + comb(2 * k - 1, k))


def partition_in_order(params: GeneratorParams, order: Sequence[int]) -> Tuple[Cell, ...]:
    """Split a variable ordering into g-1 cells of size 2k-2 and a final cell of 2k-1.

    `order` must be a permutation of [1..num_variables]; cells are
    consecutive runs of it, the odd-sized cell last.
    """
    n = params.num_variables
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order is not a permutation of [1..{n}]")
    small = 2 * params.k - 2
    cells = []
    for i in range(params.g - 1):
        cells.append(tuple(order[i * small:(i + 1) * small]))
    cells.append(tuple(order[(params.g - 1) * small:]))
    return tuple(cells)


def cell_clauses(cell: Sequence[int], k: int, positive: bool) -> List[Clause]:
    """All C(|cell|, k) k-clauses over a cell, one polarity throughout.

    Subsets are enumerated in lexicographic order of sorted variable
    indices; literals within each clause are sorted ascending by variable.
    """
    if len(cell) < k:
        raise ValueError(f"cell of size {len(cell)} cannot form {k}-clauses")
    sign = 1 if positive else -1
    return [
        tuple(sign * v for v in combo)
        for combo in itertools.combinations(sorted(cell), k)
    ]


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated formula together with both partition layouts.

    The cell layouts let callers check the counting argument directly:
    a total assignment satisfies the positive half iff every p-cell has
    at most k-1 false variables, and the negative half iff every q-cell
    has at most k-1 true variables.
    """

    params: GeneratorParams
    formula: CnfFormula
    p_cells: Tuple[Cell, ...]
    q_cells: Tuple[Cell, ...]


def build_instance(params: GeneratorParams) -> GeneratedInstance:
    """Build the formula and its layouts for (k, g, seed); deterministic."""
    n = params.num_variables
    identity = list(range(1, n + 1))
    p_cells = partition_in_order(params, identity)
    q_cells = partition_in_order(params, permutation(n, params.seed))

    clauses: List[Clause] = []
    for cell in p_cells:
        clauses.extend(cell_clauses(cell, params.k, positive=True))
    for cell in q_cells:
        clauses.extend(cell_clauses(cell, params.k, positive=False))
    assert len(clauses) == params.num_clauses

    comments = (
        f"generator: mucnf {__version__}",
        f"params: k={params.k} g={params.g} seed={params.seed}",
    )
    formula = CnfFormula(n, tuple(clauses), comments)
    return GeneratedInstance(params, formula, p_cells, q_cells)


def generate(params: GeneratorParams) -> CnfFormula:
    """The generated CNF: C1's clauses (all positive) then C2's (all negative)."""
    return build_instance(params).formula


def recognize(formula: CnfFormula) -> Optional[Tuple[Tuple[Cell, ...], Tuple[Cell, ...]]]:
    """The p-cells and q-cells of a formula in the generated family, or None.

    Reads the clauses only, never the comments. With k the first clause's
    width, the variable and clause counts must be the generator's for some
    g; they are checked before anything is built per variable. Then, per
    polarity, the components of "shares a clause" must have
    partition_in_order's sizes, and the clauses must be exactly each
    component's k-subsets (so each has width k and that polarity, and, the
    count being fixed, none repeats). Cells are ascending tuples, smaller first.
    """
    clauses = formula.clauses
    if not clauses or len(clauses[0]) < 2:
        return None
    k, n = len(clauses[0]), formula.num_variables
    g, rest = divmod(n - 1, 2 * k - 2)
    if rest or g < 1:
        return None
    params = GeneratorParams(k, g, 0)
    if params.num_clauses != len(clauses):
        return None
    sizes = [len(cell) for cell in partition_in_order(params, range(1, n + 1))]
    layouts = []
    for positive in (True, False):
        group = [c for c in clauses if (c[0] > 0) == positive]
        root = list(range(n + 1))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for clause in group:
            for lit in clause[1:]:
                root[find(abs(lit))] = find(abs(clause[0]))
        components: dict = {}
        for v in range(1, n + 1):
            components.setdefault(find(v), []).append(v)
        cells = sorted(map(tuple, components.values()), key=lambda c: (len(c), c))
        if [len(cell) for cell in cells] != sizes:
            return None
        want = {c for cell in cells for c in cell_clauses(cell, k, positive)}
        if {tuple(sorted(c, key=abs)) for c in group} != want:
            return None
        layouts.append(tuple(cells))
    return layouts[0], layouts[1]
