import itertools
import random
import time
from math import comb

import pytest

from mucnf.cnf import CnfFormula, evaluate, write_dimacs
from mucnf.generator import (
    GeneratorParams,
    build_instance,
    cell_clauses,
    generate,
    partition_in_order,
    recognize,
)
from mucnf.solver import solve_brute_force
from tests.conftest import pigeonhole, scramble


class TestGeneratorParams:
    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            GeneratorParams(1, 5, 0)

    def test_rejects_g_below_one(self):
        with pytest.raises(ValueError, match="g must be >= 1"):
            GeneratorParams(3, 0, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            GeneratorParams(3, 5, -1)

    def test_derived_counts(self):
        p = GeneratorParams(3, 5, 0)
        assert p.num_variables == 21
        assert p.num_clauses == 52

    def test_k3_clause_count_closed_form(self):
        for g in range(1, 9):
            assert GeneratorParams(3, g, 0).num_clauses == 8 * g + 12


class TestPartitionInOrder:
    def test_identity_k3_g5(self):
        p = GeneratorParams(3, 5, 0)
        cells = partition_in_order(p, list(range(1, 22)))
        assert cells == (
            (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16),
            (17, 18, 19, 20, 21),
        )

    def test_single_cell_k2_g1(self):
        p = GeneratorParams(2, 1, 0)
        assert partition_in_order(p, [1, 2, 3]) == ((1, 2, 3),)

    def test_k4_g5_sizes_and_cover(self):
        p = GeneratorParams(4, 5, 0)
        assert p.num_variables == 31
        cells = partition_in_order(p, list(range(1, 32)))
        assert [len(c) for c in cells] == [6, 6, 6, 6, 7]
        assert sorted(v for c in cells for v in c) == list(range(1, 32))

    def test_respects_given_order(self):
        p = GeneratorParams(2, 2, 0)
        cells = partition_in_order(p, [5, 4, 3, 2, 1])
        assert cells == ((5, 4), (3, 2, 1))

    def test_rejects_non_permutation(self):
        p = GeneratorParams(2, 1, 0)
        with pytest.raises(ValueError, match="permutation"):
            partition_in_order(p, [1, 2, 2])


class TestCellClauses:
    def test_positive_pairs(self):
        assert cell_clauses([1, 2, 3], 2, positive=True) == [(1, 2), (1, 3), (2, 3)]

    def test_negative_triples(self):
        assert cell_clauses([1, 2, 3, 4], 3, positive=False) == [
            (-1, -2, -3), (-1, -2, -4), (-1, -3, -4), (-2, -3, -4),
        ]

    def test_count_matches_binomial(self):
        assert len(cell_clauses(range(1, 6), 3, positive=True)) == comb(5, 3)

    def test_unsorted_cell_is_sorted_first(self):
        assert cell_clauses([3, 1, 2], 2, positive=True) == [(1, 2), (1, 3), (2, 3)]

    def test_rejects_small_cell(self):
        with pytest.raises(ValueError, match="cannot form"):
            cell_clauses([1, 2], 3, positive=True)


class TestGenerate:
    @pytest.mark.parametrize(
        "k,g,clauses",
        [(3, 5, 52), (3, 8, 76), (3, 10, 92), (3, 12, 108), (3, 15, 132),
         (4, 5, 190), (4, 6, 220)],
    )
    def test_table_row_counts(self, k, g, clauses):
        f = generate(GeneratorParams(k, g, 77))
        assert f.num_clauses == clauses
        assert f.num_variables == (2 * k - 2) * g + 1

    def test_polarity_split(self):
        f = generate(GeneratorParams(3, 4, 5))
        half = f.num_clauses // 2
        assert all(all(lit > 0 for lit in c) for c in f.clauses[:half])
        assert all(all(lit < 0 for lit in c) for c in f.clauses[half:])

    def test_first_clause_is_first_k_variables(self):
        for k in (2, 3, 4):
            f = generate(GeneratorParams(k, 3, 9))
            assert f.clauses[0] == tuple(range(1, k + 1))

    def test_clause_width_is_k(self):
        f = generate(GeneratorParams(4, 2, 3))
        assert all(len(c) == 4 for c in f.clauses)

    def test_deterministic_dimacs(self):
        a = write_dimacs(generate(GeneratorParams(3, 5, 42)))
        b = write_dimacs(generate(GeneratorParams(3, 5, 42)))
        assert a == b

    def test_seed_changes_negative_half(self):
        f1 = generate(GeneratorParams(3, 5, 1))
        f2 = generate(GeneratorParams(3, 5, 2))
        half = f1.num_clauses // 2
        assert f1.clauses[:half] == f2.clauses[:half]
        assert f1.clauses[half:] != f2.clauses[half:]

    def test_small_instances_unsat_by_enumeration(self):
        for k, g in [(2, 1), (2, 2), (3, 1)]:
            for seed in range(5):
                f = generate(GeneratorParams(k, g, seed))
                assert solve_brute_force(f).status == "unsat"


SHAPES = [(2, 1), (2, 3), (2, 10), (3, 1), (3, 5), (3, 8), (4, 3), (5, 2)]


def as_sets(cells):
    return {frozenset(cell) for cell in cells}


class TestRecognize:
    @pytest.mark.parametrize("k,g", SHAPES)
    def test_generated_and_scrambled(self, k, g):
        rng = random.Random(f"{k}/{g}")
        for seed in range(5):
            inst = build_instance(GeneratorParams(k, g, seed))
            p_cells, q_cells = recognize(inst.formula)
            assert p_cells == inst.p_cells
            assert as_sets(q_cells) == as_sets(inst.q_cells)
            scrambled, names, _ = scramble(inst.formula, rng)
            p_cells, q_cells = recognize(scrambled)
            for got, cells in ((p_cells, inst.p_cells), (q_cells, inst.q_cells)):
                assert as_sets(got) == {frozenset(names[v] for v in c) for c in cells}

    def test_comments_are_not_read(self):
        f = generate(GeneratorParams(3, 5, 7))
        want = recognize(f)
        for comments in ((), ("params: k=3 g=5 seed=8",), ("params: k=three",)):
            assert recognize(CnfFormula(f.num_variables, f.clauses, comments)) == want

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda cs: cs.pop(3), id="dropped"),
        pytest.param(lambda cs: cs.__setitem__(1, cs[0]), id="duplicated"),
        pytest.param(lambda cs: cs.append(cs[0]), id="appended-duplicate"),
        pytest.param(lambda cs: cs.__setitem__(0, (-1, 2, 3)), id="flipped-sign"),
        # (1, 2, 5) joins p-cells {1..4} and {5..8}, and (1, 2, 3) is gone
        pytest.param(lambda cs: cs.__setitem__(0, (1, 2, 5)), id="moved-across-cells"),
    ])
    def test_edited_formula_gives_none(self, edit):
        f = generate(GeneratorParams(3, 5, 7))
        clauses = list(f.clauses)
        edit(clauses)
        assert recognize(CnfFormula(f.num_variables, tuple(clauses))) is None

    def test_other_cell_sizes_give_none(self):
        # all pairs over {1, 2, 3, 4} and nothing over 5..9 is as many
        # positive clauses as cells of sizes 2, 2, 2, 3 have
        negative = generate(GeneratorParams(2, 4, 1)).clauses[6:]
        positive = tuple(itertools.combinations(range(1, 5), 2))
        assert len(positive) == len(negative)
        assert recognize(CnfFormula(9, positive + negative)) is None

    @pytest.mark.parametrize("holes", [5, 6, 9])
    def test_pigeonhole_is_not_generated(self, holes):
        assert recognize(pigeonhole(holes)) is None

    @pytest.mark.parametrize("formula", [
        pytest.param(CnfFormula(0, ()), id="no-clauses"),
        pytest.param(CnfFormula(1, ((1,), (-1,))), id="width-1"),
        pytest.param(CnfFormula(1, ((1, -1),)), id="g-would-be-0"),
        # 5 = 4g + 1 at k = 3 with g = 1, but the clause count is wrong
        pytest.param(CnfFormula(5, ((1, 2, 3),)), id="clause-count"),
        pytest.param(CnfFormula(22, generate(GeneratorParams(3, 5, 7)).clauses),
                     id="unused-variable"),
    ])
    def test_sizes_not_the_generators(self, formula):
        assert recognize(formula) is None

    def test_huge_header_is_rejected_quickly(self):
        t0 = time.perf_counter()
        assert recognize(CnfFormula(10**9, ((1, 2),))) is None
        assert recognize(CnfFormula(10**9 + 1, ((1, 2),))) is None
        assert time.perf_counter() - t0 < 0.1


def cell_count_ok(cells, sigma, k, want_false):
    for cell in cells:
        bad = sum(1 for v in cell if sigma[v] is want_false)
        if bad > k - 1:
            return False
    return True


class TestCellCountingCharacterization:
    def test_halves_match_cell_counts(self):
        # satisfying the positive half == at most k-1 false per p-cell;
        # satisfying the negative half == at most k-1 true per q-cell
        inst = build_instance(GeneratorParams(3, 2, 11))
        n = inst.formula.num_variables
        half = len(inst.formula.clauses) // 2
        c1 = CnfFormula(n, inst.formula.clauses[:half])
        c2 = CnfFormula(n, inst.formula.clauses[half:])
        rng = random.Random(13)
        for _ in range(500):
            sigma = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            assert evaluate(c1, sigma) == cell_count_ok(inst.p_cells, sigma, 3, False)
            assert evaluate(c2, sigma) == cell_count_ok(inst.q_cells, sigma, 3, True)
