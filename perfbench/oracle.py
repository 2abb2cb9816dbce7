"""Reference computations the benchmark checks the program against.

Nothing here imports mucnf. The formulas are rebuilt from the README's
pinned spec (splitmix64, rejection-sampled bounded draws, descending
Fisher-Yates, clause order), and every single-clause deletion is decided
by a max-flow on the cell graph instead of a SAT search.

Deletion rule. Call the identity-order cells p-cells and the permuted-order
cells q-cells. An assignment satisfies the positive half iff every p-cell
has at most k-1 false variables, and the negative half iff every q-cell has
at most k-1 true ones; the counting argument makes both impossible at once.
Deleting the positive clause S of p-cell P* therefore leaves a satisfiable
formula iff some assignment makes exactly S false inside P* (fewer than k
false there would satisfy the whole formula) and meets every other cell
bound. With S false and P*\\S true, q-cell Q_j still needs
d_j = max(0, |Q_j| - (k-1) - |S & Q_j|) false variables from the free
variables of the other p-cells, and each such p-cell can give at most k-1.
That is a transportation problem: source -> Q_j (capacity d_j),
Q_j -> P_i (capacity |P_i & Q_j|, i != *), P_i -> sink (capacity k-1).
The deletion is satisfiable iff the maximum flow saturates the source.
Negative clauses are the same with the roles of p and q (and of true and
false) swapped.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Sequence, Tuple

MASK64 = (1 << 64) - 1


def splitmix64_permutation(n: int, seed: int) -> List[int]:
    """Permutation of [1..n] per the README's pinned splitmix64 spec."""
    state = seed

    def next_u64() -> int:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(bound: int) -> int:
        threshold = (1 << 64) % bound
        while True:
            r = next_u64()
            if r >= threshold:
                return r % bound

    items = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def cells(order: Sequence[int], k: int, g: int) -> List[Tuple[int, ...]]:
    """g-1 runs of 2k-2 variables, then the final run of 2k-1."""
    w = 2 * k - 2
    return [tuple(order[i * w:(i + 1) * w]) for i in range(g - 1)] + [
        tuple(order[(g - 1) * w:])
    ]


class Instance:
    """One generated formula rebuilt from (k, g, seed), with its cell layout."""

    def __init__(self, k: int, g: int, seed: int):
        self.k, self.g, self.seed = k, g, seed
        n = (2 * k - 2) * g + 1
        self.num_variables = n
        self.p_cells = cells(range(1, n + 1), k, g)
        self.q_cells = cells(splitmix64_permutation(n, seed), k, g)
        self.clauses: List[Tuple[int, ...]] = []
        # (side, cell index) of each clause, side 0 positive / 1 negative
        self.owner: List[Tuple[int, int]] = []
        for side, layout, sign in ((0, self.p_cells, 1), (1, self.q_cells, -1)):
            for ci, cell in enumerate(layout):
                for combo in itertools.combinations(sorted(cell), k):
                    self.clauses.append(tuple(sign * v for v in combo))
                    self.owner.append((side, ci))
        p_of = {v: i for i, cell in enumerate(self.p_cells) for v in cell}
        q_of = {v: j for j, cell in enumerate(self.q_cells) for v in cell}
        self.cell_of = (p_of, q_of)
        # table[i][j] = |P_i & Q_j|
        self.table = [[0] * g for _ in range(g)]
        for v in range(1, n + 1):
            self.table[p_of[v]][q_of[v]] += 1

    def deletion_bitmap(self) -> str:
        """'1' where deleting the clause leaves a satisfiable formula, else '0'."""
        memo: Dict[tuple, bool] = {}
        out = []
        for clause, (side, home) in zip(self.clauses, self.owner):
            other = self.cell_of[1 - side]
            profile = [0] * self.g
            for lit in clause:
                profile[other[abs(lit)]] += 1
            key = (side, home, tuple(profile))
            if key not in memo:
                memo[key] = self._deletion_sat(side, home, profile)
            out.append("1" if memo[key] else "0")
        return "".join(out)

    def _deletion_sat(self, side: int, home: int, profile: Sequence[int]) -> bool:
        g, k = self.g, self.k
        # rows: cells of the deleted clause's side; columns: the other side
        if side == 0:
            rows = self.table
        else:
            rows = [list(col) for col in zip(*self.table)]
        col_sizes = [sum(rows[i][j] for i in range(g)) for j in range(g)]
        demand = [max(0, col_sizes[j] - (k - 1) - profile[j]) for j in range(g)]
        # nodes: 0 source, 1..g columns, g+1..2g rows, 2g+1 sink
        size = 2 * g + 2
        sink = size - 1
        cap = [[0] * size for _ in range(size)]
        for j in range(g):
            cap[0][1 + j] = demand[j]
            for i in range(g):
                if i != home:
                    cap[1 + j][1 + g + i] = rows[i][j]
        for i in range(g):
            if i != home:
                cap[1 + g + i][sink] = k - 1
        return max_flow(cap, 0, sink) == sum(demand)


def max_flow(cap: List[List[int]], source: int, sink: int) -> int:
    """Edmonds-Karp on a dense residual capacity matrix (modified in place)."""
    size = len(cap)
    total = 0
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v in range(size):
                if parent[v] < 0 and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return total
        push = None
        v = sink
        while v != source:
            u = parent[v]
            push = cap[u][v] if push is None else min(push, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= push
            cap[v][u] += push
            v = u
        total += push


def pigeonhole(h: int) -> Tuple[int, List[List[int]]]:
    """PHP(h+1, h): h+1 pigeons, h holes; variable i*h + j + 1 puts pigeon i in hole j.

    It is minimally unsatisfiable: dropping a pigeon's clause lets the other
    h pigeons take one hole each, and dropping the clash clause of pigeons
    a, b in hole j lets both sit in j while the rest fill the other holes.
    """
    def var(i: int, j: int) -> int:
        return i * h + j + 1

    clauses = [[var(i, j) for j in range(h)] for i in range(h + 1)]
    for j in range(h):
        for a, b in itertools.combinations(range(h + 1), 2):
            clauses.append([-var(a, j), -var(b, j)])
    return (h + 1) * h, clauses
