import random

import pytest

from mucnf.cnf import CnfFormula


def random_kcnf(rng: random.Random, num_vars: int, num_clauses: int, k: int = 3) -> CnfFormula:
    """Random k-CNF with distinct variables per clause (no tautologies)."""
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


def pigeonhole(holes: int) -> CnfFormula:
    """PHP(holes+1, holes): variable 1 + p*holes + h puts pigeon p in hole h."""
    var = lambda p, h: 1 + p * holes + h
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(holes + 1)]
    clauses += [(-var(a, h), -var(b, h))
                for h in range(holes) for a in range(holes + 1) for b in range(a + 1, holes + 1)]
    return CnfFormula((holes + 1) * holes, tuple(clauses))


def scramble(formula: CnfFormula, rng: random.Random):
    """`formula` with variables renamed and clause and literal orders shuffled.

    Returns (scrambled, names, order): variable v is renamed names[v], and
    clause j of the scrambled formula is clause order[j] of the original.
    """
    n = formula.num_variables
    shuffled = list(range(1, n + 1))
    rng.shuffle(shuffled)
    names = dict(zip(range(1, n + 1), shuffled))
    order = list(range(formula.num_clauses))
    rng.shuffle(order)
    clauses = []
    for i in order:
        clause = [names[abs(lit)] * (1 if lit > 0 else -1) for lit in formula.clauses[i]]
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    return CnfFormula(n, tuple(clauses), formula.comments), names, order


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

