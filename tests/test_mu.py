import itertools

import pytest

from mucnf.cnf import CnfFormula, evaluate
from mucnf.generator import GeneratorParams, generate
from mucnf.mu import MuReport, NotUnsatError, analyze_mu, delete_clause
from mucnf.solver import SolveTimeoutError, solve_brute_force, solve_dpll


class TestDeleteClause:
    def test_deletion_leaves_51_clauses(self):
        f = generate(GeneratorParams(3, 5, 0))
        assert delete_clause(f, 0).num_clauses == 51

    def test_only_clause_leaves_empty_sat_formula(self):
        f = CnfFormula(1, ((1,),))
        sub = delete_clause(f, 0)
        assert sub.num_clauses == 0
        assert solve_dpll(sub).status == "sat"

    def test_variable_count_unchanged(self):
        f = generate(GeneratorParams(3, 5, 0))
        assert delete_clause(f, 10).num_variables == 21

    def test_out_of_range(self):
        f = CnfFormula(1, ((1,),))
        with pytest.raises(IndexError):
            delete_clause(f, 1)
        with pytest.raises(IndexError):
            delete_clause(f, -1)

    def test_order_preserved(self):
        f = CnfFormula(3, ((1,), (2,), (3,)))
        assert delete_clause(f, 1).clauses == ((1,), (3,))


class TestAnalyzeMu:
    def test_smallest_mu_formula(self):
        f = CnfFormula(1, ((1,), (-1,)))
        report = analyze_mu(f, solve_dpll)
        assert report.sat_number == 2
        assert report.is_mu is True
        assert report.deletion_bitmap() == "11"

    def test_redundant_clause_breaks_mu(self):
        f = CnfFormula(2, ((1,), (-1,), (1, 2)))
        report = analyze_mu(f, solve_dpll)
        assert report.sat_number == 2
        assert report.is_mu is False
        assert report.deletion_sat[2] is False

    def test_satisfiable_input_rejected(self):
        with pytest.raises(NotUnsatError):
            analyze_mu(CnfFormula(1, ((1,),)), solve_dpll)

    def test_witnesses_verify(self):
        f = generate(GeneratorParams(2, 2, 8))
        report = analyze_mu(f, solve_dpll, keep_witnesses=True)
        assert any(report.deletion_sat)
        for i, witness in report.witnesses.items():
            assert evaluate(delete_clause(f, i), witness)

    def test_early_exit_stops_at_first_unsat(self):
        f = CnfFormula(2, ((1, 2), (1,), (-1,)))
        report = analyze_mu(f, solve_dpll, early_exit=True)
        assert report.is_mu is False
        assert report.sat_number is None
        assert report.undecided == (1, 2)

    def test_backend_independence(self):
        for seed in range(5):
            f = generate(GeneratorParams(2, 2, seed))
            a = analyze_mu(f, solve_dpll, keep_witnesses=False)
            b = analyze_mu(f, solve_brute_force, keep_witnesses=False)
            assert a.deletion_sat == b.deletion_sat
            assert a.sat_number == b.sat_number
            assert a.is_mu == b.is_mu

    def test_timeout_recorded_as_undecided(self):
        f = CnfFormula(1, ((1,), (-1,)))
        calls = {"n": 0}

        def flaky(formula):
            calls["n"] += 1
            if calls["n"] == 2:  # first deletion solve
                raise SolveTimeoutError("simulated")
            return solve_dpll(formula)

        report = analyze_mu(f, flaky)
        assert report.deletion_sat == (None, True)
        assert report.sat_number_range == (1, 2)
        assert report.is_mu is None

    def test_monotone_deletion_consistency(self):
        # if deleting clause i leaves a sat formula, deleting i plus any
        # second clause does too
        f = generate(GeneratorParams(2, 1, 3))
        report = analyze_mu(f, solve_brute_force)
        for i, sat in enumerate(report.deletion_sat):
            if sat:
                for j in range(f.num_clauses):
                    if j == i:
                        continue
                    sub = delete_clause(delete_clause(f, max(i, j)), min(i, j))
                    assert solve_brute_force(sub).status == "sat"
