import random
from math import comb

import pytest

from mucnf.cnf import CnfFormula, evaluate, read_dimacs, write_dimacs
from mucnf.generator import (
    GeneratorParams,
    build_instance,
    cell_clauses,
    generate,
    partition_in_order,
    regenerate,
)
from mucnf.solver import solve_brute_force


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


class TestRegenerate:
    def test_round_trip_through_dimacs(self):
        for params in (GeneratorParams(2, 1, 0), GeneratorParams(3, 5, 2**64 - 1)):
            inst = regenerate(read_dimacs(write_dimacs(generate(params))))
            assert inst == build_instance(params)

    def test_extra_comments_are_ignored(self):
        f = generate(GeneratorParams(3, 4, 8))
        g = CnfFormula(f.num_variables, f.clauses, ("renamed", "params: k=3 g=4 seed=8"))
        assert regenerate(g).params == GeneratorParams(3, 4, 8)

    @pytest.mark.parametrize("comment", [
        None,
        "params: k=3 g=5",
        "params: k=3 g=5 seed=7 extra=1",
        "params: g=5 k=3 seed=7",
        "params: k=three g=5 seed=7",
        "params: k=3 g=5 seed=-7",
        "params: k=3 g=5 seed=18446744073709551616",
        "params: k=1 g=5 seed=7",
        "params: k=3 g=0 seed=7",
        "params: k=3 g=999999999999999999999999 seed=7",
        "params: k=3 g=5 seed=8",
        "params: k=3 g=4 seed=7",
        "params: k=4 g=5 seed=7",
    ])
    def test_anything_but_its_own_provenance_gives_none(self, comment):
        f = generate(GeneratorParams(3, 5, 7))
        comments = (comment,) if comment else ()
        assert regenerate(CnfFormula(f.num_variables, f.clauses, comments)) is None

    def test_changed_clauses_give_none(self):
        f = generate(GeneratorParams(3, 5, 7))
        swapped = f.clauses[1:2] + f.clauses[:1] + f.clauses[2:]
        assert regenerate(CnfFormula(f.num_variables, swapped, f.comments)) is None
        assert regenerate(CnfFormula(f.num_variables, f.clauses[:-1], f.comments)) is None


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
        half = inst.num_positive_clauses
        c1 = CnfFormula(n, inst.formula.clauses[:half])
        c2 = CnfFormula(n, inst.formula.clauses[half:])
        rng = random.Random(13)
        for _ in range(500):
            sigma = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            assert evaluate(c1, sigma) == cell_count_ok(inst.p_cells, sigma, 3, False)
            assert evaluate(c2, sigma) == cell_count_ok(inst.q_cells, sigma, 3, True)
