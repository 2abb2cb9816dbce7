import random

import pytest

from mucnf.cnf import (
    CnfFormula,
    DimacsParseError,
    PartialAssignmentError,
    evaluate,
    read_dimacs,
    write_dimacs,
)
from mucnf.generator import GeneratorParams, generate
from tests.conftest import random_kcnf


class TestCnfFormula:
    def test_rejects_literal_zero(self):
        with pytest.raises(ValueError, match="literal 0"):
            CnfFormula(2, ((1, 0),))

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError, match="exceeds"):
            CnfFormula(2, ((1, 3),))

    def test_rejects_duplicate_literal(self):
        with pytest.raises(ValueError, match="duplicate"):
            CnfFormula(2, ((1, 2, 1),))

    def test_allows_complementary_literals(self):
        # v and -v in one clause is a tautology, not a duplicate
        f = CnfFormula(1, ((1, -1),))
        assert f.num_clauses == 1


class TestEvaluate:
    def test_empty_formula_is_satisfied(self):
        assert evaluate(CnfFormula(2, ()), {1: True, 2: False}) is True

    def test_complementary_units_falsified(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert evaluate(f, {1: True}) is False
        assert evaluate(f, {1: False}) is False

    def test_generated_formula_falsified_by_all_true(self):
        # every all-negative clause fails under the all-true assignment
        f = generate(GeneratorParams(3, 5, 1))
        assert evaluate(f, {v: True for v in range(1, 22)}) is False

    def test_partial_assignment_names_missing_variable(self):
        f = CnfFormula(3, ((1, 2),))
        with pytest.raises(PartialAssignmentError) as exc:
            evaluate(f, {1: True, 3: False})
        assert exc.value.variable == 2

    def test_agrees_with_naive_reimplementation(self, rng):
        def naive(formula, assignment):
            for clause in formula.clauses:
                ok = False
                for lit in clause:
                    value = assignment[abs(lit)]
                    if (lit > 0 and value) or (lit < 0 and not value):
                        ok = True
                if not ok:
                    return False
            return True

        for _ in range(200):
            n = rng.randint(3, 10)
            f = random_kcnf(rng, n, rng.randint(1, 20), k=3)
            sigma = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            assert evaluate(f, sigma) == naive(f, sigma)


class TestWriteDimacs:
    def test_single_clause(self):
        f = CnfFormula(2, ((1, -2),))
        assert write_dimacs(f) == "p cnf 2 1\n1 -2 0\n"

    def test_generated_header(self):
        text = write_dimacs(generate(GeneratorParams(3, 5, 7)))
        assert "p cnf 21 52" in text

    def test_empty_formula(self):
        assert write_dimacs(CnfFormula(3, ())) == "p cnf 3 0\n"

    def test_comments_carry_provenance(self):
        text = write_dimacs(generate(GeneratorParams(3, 5, 7)))
        assert "k=3 g=5 seed=7" in text


class TestReadDimacs:
    def test_single_clause(self):
        f = read_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f == CnfFormula(2, ((1, -2),))

    def test_variable_out_of_range(self):
        with pytest.raises(DimacsParseError, match="out of range") as exc:
            read_dimacs("p cnf 3 1\n5 0\n")
        assert exc.value.line_no == 2

    def test_duplicate_literal_names_its_own_line(self):
        with pytest.raises(DimacsParseError, match="clause 0: duplicate literal 1") as exc:
            read_dimacs("c x\np cnf 2 3\n1 1 0\n-1 0\n2 -2 0\n")
        assert exc.value.line_no == 3

    def test_duplicate_literal_on_a_continuation_line(self):
        # a clause may span lines; the error names the line of the repeat
        with pytest.raises(DimacsParseError, match="clause 1: duplicate literal -2") as exc:
            read_dimacs("p cnf 3 2\n1 0\n-2 3\n-2 0\n")
        assert exc.value.line_no == 4

    def test_malformed_header(self):
        with pytest.raises(DimacsParseError, match="header"):
            read_dimacs("p dnf 3 1\n1 0\n")

    def test_missing_terminating_zero(self):
        with pytest.raises(DimacsParseError, match="not terminated"):
            read_dimacs("p cnf 3 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsParseError, match="declares 2 clauses"):
            read_dimacs("p cnf 3 2\n1 0\n")

    def test_satlib_percent_trailer_ends_clause_data(self):
        # the uf*.cnf files of SATLIB end with a '%' line and a lone '0'
        text = ("c This Formular is generated by mcnf\n"
                "c\n"
                "p cnf 3  2 \n"
                " 1 -2 3 0\n"
                "-1 2 -3 0\n"
                "%\n"
                "0\n"
                "\n")
        f = read_dimacs(text)
        assert f.num_variables == 3
        assert f.clauses == ((1, -2, 3), (-1, 2, -3))

    def test_clause_before_header(self):
        with pytest.raises(DimacsParseError, match="header"):
            read_dimacs("1 0\np cnf 3 1\n")

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_round_trip_generator_outputs(self, k, g):
        for seed in (0, 1, 99):
            f = generate(GeneratorParams(k, g, seed))
            assert read_dimacs(write_dimacs(f)) == f

    def test_round_trip_random_formulas(self, rng):
        for _ in range(100):
            f = random_kcnf(rng, rng.randint(3, 12), rng.randint(0, 25))
            assert read_dimacs(write_dimacs(f)) == f
