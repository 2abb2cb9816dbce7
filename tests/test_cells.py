"""The cells analysis against every other way of deciding a deletion.

analyze_cells decides each single-clause deletion of a generated instance
by a max-flow on its cell graph. It must return exactly the MuReport that a
SAT search returns: deletion by deletion against brute force on small
instances, against DPLL at (3, 5) and (3, 8), and against the counting
oracle of tests/cell_oracle.py on hundreds of formulas.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import mucnf.mu
from mucnf.generator import GeneratorParams, build_instance, recognize
from mucnf.mu import analyze_cells, analyze_mu, delete_clause
from mucnf.cnf import evaluate
from mucnf.solver import SolverIntegrityError, solve_brute_force, solve_dpll
from tests.cell_oracle import deletion_outcomes
from tests.conftest import scramble


def cells_report(inst, **options):
    return analyze_cells(inst.formula, inst.p_cells, inst.q_cells, **options)


@pytest.mark.parametrize("k,g", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_matches_brute_force_deletion_by_deletion(k, g):
    verdicts = set()
    for seed in range(50):
        inst = build_instance(GeneratorParams(k, g, seed))
        f = inst.formula
        want = tuple(
            solve_brute_force(delete_clause(f, i)).is_sat for i in range(f.num_clauses)
        )
        assert cells_report(inst).deletion_sat == want, seed
        verdicts.update(want)
    if g > 1:
        # both verdicts occur, so the comparison is not vacuous
        assert verdicts == {True, False}


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 2**64 - 1), st.booleans())
def test_matches_dpll_on_random_seeds(k, g, seed, early_exit):
    inst = build_instance(GeneratorParams(k, g, seed))
    want = analyze_mu(inst.formula, solve_dpll, early_exit=early_exit)
    assert cells_report(inst, early_exit=early_exit).deletion_bitmap() == want.deletion_bitmap()


@pytest.mark.parametrize("g,count", [(5, 20), (8, 2)])
def test_matches_dpll_report(g, count):
    for seed in range(count):
        inst = build_instance(GeneratorParams(3, g, 9000 + seed))
        want = analyze_mu(inst.formula, solve_dpll)
        assert cells_report(inst).deletion_sat == want.deletion_sat, seed


@pytest.mark.parametrize("k,g,count", [(3, 5, 500), (4, 3, 50)])
def test_matches_counting_oracle(k, g, count):
    mu = 0
    for seed in range(count):
        inst = build_instance(GeneratorParams(k, g, 777 + seed))
        report = cells_report(inst)
        assert report.deletion_sat == deletion_outcomes(inst), seed
        mu += report.is_mu
    assert 0 < mu < count


@pytest.mark.parametrize("k,g", [(2, 3), (3, 5), (4, 3)])
def test_recognized_cells_of_scrambled_formulas(k, g):
    # the partitions recognize() finds give the original report, clause by clause
    rng = random.Random(f"{k}/{g}")
    for seed in range(10):
        inst = build_instance(GeneratorParams(k, g, seed))
        want = cells_report(inst).deletion_sat
        scrambled, _, order = scramble(inst.formula, rng)
        report = analyze_cells(scrambled, *recognize(scrambled))
        assert report.deletion_sat == tuple(want[i] for i in order), seed


def lemma_clauses(inst, k):
    """Clauses whose k variables all lie in one cell of size 2k-2 of the
    other partition: a q-cell for a positive clause, a p-cell for a negative
    one. The counting lemma says deleting such a clause leaves the formula
    unsat. For a positive clause S: a model of the rest makes S false, and
    counting false variables over the p-cells and the q-cells then leaves
    every q-cell Q_j exactly |Q_j| - (k-1) false ones. A q-cell of size
    2k-2 that holds S has k false ones, more than k-1."""
    named = []
    for i, clause in enumerate(inst.formula.clauses):
        cells = inst.q_cells if clause[0] > 0 else inst.p_cells
        variables = {abs(lit) for lit in clause}
        if any(len(cell) == 2 * k - 2 and variables <= set(cell) for cell in cells):
            named.append(i)
    return named


def assert_lemma_holds(k, g, seed):
    inst = build_instance(GeneratorParams(k, g, seed))
    named = lemma_clauses(inst, k)
    report = cells_report(inst)
    assert [report.deletion_sat[i] for i in named] == [False] * len(named), seed
    return len(named)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, 3 if k == 4 else 4))),
    st.integers(0, 2**64 - 1))
def test_counting_lemma_deletions_are_unsat(kg, seed):
    assert_lemma_holds(*kg, seed)


def test_counting_lemma_at_k5():
    # about 0.25 s per formula; seeds 2 and 3 name 12 and 2 clauses
    assert sum(assert_lemma_holds(5, 2, seed) for seed in range(4)) > 0


def test_witnesses_verify():
    inst = build_instance(GeneratorParams(3, 5, 4))
    report = cells_report(inst)
    assert set(report.witnesses) == {
        i for i, sat in enumerate(report.deletion_sat) if sat
    }
    for i, witness in report.witnesses.items():
        assert evaluate(delete_clause(inst.formula, i), witness)


def test_early_exit_stops_at_first_unsat():
    for seed in range(20):
        inst = build_instance(GeneratorParams(3, 5, seed))
        full = cells_report(inst)
        fast = cells_report(inst, early_exit=True)
        assert fast.is_mu == full.is_mu
        if full.is_mu:
            assert fast == full
        else:
            first = full.deletion_sat.index(False)
            assert fast.deletion_sat[:first + 1] == full.deletion_sat[:first + 1]
            assert fast.undecided == tuple(range(first + 1, full.clause_count))


def test_tampered_witness_is_integrity_error(monkeypatch):
    # a flow that claims every deletion sat without moving any variable
    monkeypatch.setattr(mucnf.mu, "_cell_flow", lambda *args: {})
    with pytest.raises(SolverIntegrityError, match="deletion 0"):
        cells_report(build_instance(GeneratorParams(3, 5, 1)))
