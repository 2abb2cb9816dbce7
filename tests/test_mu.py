import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import mucnf.cli
from mucnf.cnf import CnfFormula, PartialAssignmentError, evaluate, write_dimacs
from mucnf.experiment import BatchSpec, run_batch
from mucnf.generator import GeneratorParams, generate
from mucnf.mu import MuReport, NotUnsatError, _deletion_report, analyze_mu, delete_clause
from mucnf.solver import (
    SolveResult,
    SolveTimeoutError,
    SolverIntegrityError,
    solve_brute_force,
    solve_dpll,
)
from tests.conftest import pigeonhole, random_kcnf, scramble


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
        report = analyze_mu(f, solve_dpll)
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
            a = analyze_mu(f, solve_dpll)
            b = analyze_mu(f, solve_brute_force)
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

    def test_non_verifying_model_is_integrity_error(self):
        f = CnfFormula(2, ((1,), (-1,), (2,)))

        def lying(formula):
            # every sat deletion keeps (2,); a model with 2 false violates it
            result = solve_dpll(formula)
            if result.is_sat:
                result.model[2] = False
            return result

        with pytest.raises(SolverIntegrityError, match="deletion 0"):
            analyze_mu(f, lying)

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


def rotation_free(formula, solve, early_exit=False):
    """analyze_mu's deletions with one solve each: the reference for the walk."""
    return _deletion_report(formula, lambda i: solve(delete_clause(formula, i)).model,
                            early_exit)


def _unsat_3cnfs(count, seed=5):
    rng, found = random.Random(seed), []
    while len(found) < count:
        f = random_kcnf(rng, 12, 60)
        if not solve_dpll(f).is_sat:
            found.append(f)
    return found


class TestModelRotation:
    # (3,5) seeds 0 and 3, (2,20) seed 0 and (4,3) seed 1 are not MU
    CASES = (
        [(f"php{h + 1},{h}", lambda h=h: scramble(pigeonhole(h), random.Random(h))[0])
         for h in range(3, 7)]
        + [(f"gen{k},{g},{seed}", lambda k=k, g=g, seed=seed: generate(GeneratorParams(k, g, seed)))
           for k, g, seeds in ((3, 5, range(6)), (2, 20, range(2)), (4, 3, (1,)))
           for seed in seeds]
        + [(f"rand{j}", lambda j=j: _unsat_3cnfs(3)[j]) for j in range(3)]
    )

    @pytest.mark.parametrize("early_exit", [False, True], ids=["full", "early-exit"])
    @pytest.mark.parametrize("make", [make for _, make in CASES], ids=[n for n, _ in CASES])
    def test_same_deletions_as_one_solve_each(self, make, early_exit):
        f = make()
        report = analyze_mu(f, solve_dpll, early_exit=early_exit)
        assert report.deletion_sat == rotation_free(f, solve_dpll, early_exit).deletion_sat
        for i, witness in report.witnesses.items():
            assert evaluate(delete_clause(f, i), witness)

    @pytest.mark.parametrize("holes,solves", [(5, 7), (6, 10)])
    def test_pigeonhole_solve_counts_are_pinned(self, holes, solves):
        # one solve per clause plus the whole formula before the walk:
        # 82 for PHP(6,5), 134 for PHP(7,6)
        calls = []

        def counted(formula):
            calls.append(formula)
            return solve_dpll(formula)

        report = analyze_mu(pigeonhole(holes), counted)
        assert report.is_mu is True
        assert len(calls) == solves

    @pytest.mark.parametrize("holes,decisions", [(5, 258), (6, 1476)])
    def test_pigeonhole_decisions_are_pinned(self, holes, decisions):
        # summed over every solve; 650 for PHP(6,5) and 4,052 for PHP(7,6)
        # when the deletions were solved without the units of ¬C_i
        results = []

        def recording(formula):
            results.append(solve_dpll(formula))
            return results[-1]

        analyze_mu(pigeonhole(holes), recording)
        assert sum(r.stats.decisions for r in results) == decisions

    def test_walk_decides_deletions_whose_solve_times_out(self):
        def timing_out_after_first_sat(formula):
            if timing_out_after_first_sat.sat:
                raise SolveTimeoutError("simulated")
            result = solve_dpll(formula)
            timing_out_after_first_sat.sat = result.is_sat
            return result
        timing_out_after_first_sat.sat = False
        report = analyze_mu(pigeonhole(4), timing_out_after_first_sat)
        # one solve found a model; the walk decided the others
        assert set(report.deletion_sat) == {True, None}
        assert report.deletion_sat.count(True) > 10

    def test_corrupted_candidate_is_integrity_error(self):
        class Skewed(dict):
            """A model whose get() disagrees with indexing on variable 1: the
            walk reads models through get(), evaluate() by index, so the
            solver's own model verifies and the candidates built from it are
            corrupted."""
            def get(self, v, default=None):
                return not self[v] if v == 1 else self[v]

        def skewing(formula):
            result = solve_dpll(formula)
            if result.is_sat:
                result = SolveResult("sat", Skewed(result.model), result.stats)
            return result

        with pytest.raises(SolverIntegrityError, match="non-verifying model"):
            analyze_mu(pigeonhole(4), skewing)


class TestNegatedClauseUnits:
    @pytest.mark.parametrize("make", [lambda: scramble(pigeonhole(4), random.Random(4))[0],
                                      lambda: _unsat_3cnfs(1)[0]], ids=["php5,4", "rand0"])
    def test_deletion_solves_get_the_units_of_the_deleted_clause(self, make):
        f = make()
        calls = []

        def recording(formula):
            calls.append(formula)
            return solve_dpll(formula)

        analyze_mu(f, recording)
        assert calls[0] == f
        solved = []
        for call in calls[1:]:
            # formula without clause i, then (-l,) for each l of clause i, in order
            matches = [i for i, clause in enumerate(f.clauses)
                       if call.clauses == delete_clause(f, i).clauses
                       + tuple((-lit,) for lit in clause)]
            assert len(matches) == 1
            solved.append(matches[0])
        assert solved and solved == sorted(set(solved))

    EDGE_CASES = {
        # deleting a tautology gives conflicting units; the rest is still unsat
        "tautology": CnfFormula(3, ((3, -3), (1, 2), (-1,), (-2, 3), (-2, -3))),
        # the empty clause gives no units, and its deletion is the only sat one
        "empty-clause": CnfFormula(2, ((), (1, 2), (-1,))),
    }

    @pytest.mark.parametrize("early_exit", [False, True], ids=["full", "early-exit"])
    @pytest.mark.parametrize("solve", [solve_dpll, solve_brute_force], ids=["dpll", "brute"])
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases_match_the_reference(self, name, solve, early_exit):
        f = self.EDGE_CASES[name]
        report = analyze_mu(f, solve, early_exit=early_exit)
        assert report.deletion_sat == rotation_free(f, solve, early_exit).deletion_sat
        assert report.deletion_sat[0] is (name == "empty-clause")
        for i, witness in report.witnesses.items():
            assert evaluate(delete_clause(f, i), witness)

    def test_dpll_and_brute_force_agree_on_random_3cnfs(self):
        for f in _unsat_3cnfs(5):
            dpll = analyze_mu(f, solve_dpll)
            brute = analyze_mu(f, solve_brute_force)
            assert dpll.deletion_bitmap() == brute.deletion_bitmap()


@st.composite
def small_unsat_cnfs(draw):
    """Random clauses of width 1-3 over at most 5 variables, then one clause
    blocking each model in turn until nothing satisfies the formula."""
    n = draw(st.integers(1, 5))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(
        st.lists(lit, min_size=1, max_size=3, unique_by=abs).map(tuple), max_size=12))
    while True:
        result = solve_brute_force(CnfFormula(n, tuple(clauses)))
        if not result.is_sat:
            return CnfFormula(n, tuple(clauses))
        clauses.append(tuple(-v if result.model[v] else v for v in range(1, n + 1)))


@settings(max_examples=150, deadline=None)
@given(small_unsat_cnfs(), st.booleans())
def test_dpll_and_brute_force_give_the_same_deletions(f, early_exit):
    dpll = analyze_mu(f, solve_dpll, early_exit=early_exit)
    brute = analyze_mu(f, solve_brute_force, early_exit=early_exit)
    assert dpll.deletion_sat == brute.deletion_sat
    assert dpll.deletion_sat == rotation_free(f, solve_brute_force, early_exit).deletion_sat


def _with_assignment(f):
    n = f.num_variables
    return st.tuples(st.just(f), st.lists(st.booleans(), min_size=n, max_size=n))


class TestInPlaceWitnessCheck:
    """analyze_mu checks each witness on its clause bitmasks, with no copy of
    the formula; evaluate() on the formula without the clause is the
    reference."""

    ONE_WITNESS = CnfFormula(2, ((1, 2), (-1,), (-2,)))

    @settings(max_examples=150, deadline=None)
    @given(small_unsat_cnfs().flatmap(_with_assignment))
    @example((ONE_WITNESS, [False, False]))
    @example((ONE_WITNESS, [True, False]))
    def test_error_iff_evaluate_rejects_the_model(self, case):
        f, values = case
        w = dict(enumerate(values, 1))
        calls = []

        def solve(formula):
            # call 0 is the whole formula and call 1 the solve of deletion 0,
            # which no walk can reach first
            calls.append(formula)
            result = solve_dpll(formula)
            return SolveResult("sat", dict(w), result.stats) if len(calls) == 2 else result

        if evaluate(delete_clause(f, 0), w):
            assert analyze_mu(f, solve).witnesses[0] == w
        else:
            with pytest.raises(SolverIntegrityError, match="deletion 0$"):
                analyze_mu(f, solve)

    def test_later_lie_names_the_lowest_failing_deletion(self):
        f = scramble(pigeonhole(4), random.Random(4))[0]
        calls = []

        def lying(formula):
            # from the second deletion solve on, flip the variable of the
            # last unit (-l,): l makes the deleted clause true, so, as the
            # formula is unsat, some other clause is false
            calls.append(formula)
            result = solve_dpll(formula)
            if len(calls) > 2 and result.is_sat:
                v = abs(formula.clauses[-1][0])
                result.model[v] = not result.model[v]
            return result

        with pytest.raises(SolverIntegrityError) as exc:
            analyze_mu(f, lying)
        # the deletion whose units the failing solve ended with
        failing = [i for i, clause in enumerate(f.clauses)
                   if calls[2].clauses == delete_clause(f, i).clauses
                   + tuple((-lit,) for lit in clause)]
        assert len(calls) == 3 and len(failing) == 1 and failing[0] > 0
        assert str(exc.value) == f"non-verifying model for deletion {failing[0]}"

    def test_solver_model_is_read_by_index(self):
        class Skewed(dict):
            def get(self, v, default=None):
                return not self[v] if v == 1 else self[v]

        def skewing(formula):
            result = solve_dpll(formula)
            if result.is_sat:
                result = SolveResult("sat", Skewed(result.model), result.stats)
            return result

        # the check reads the solver's model by index, as evaluate() does, so
        # deletion 0's model passes; the walk reads it through get(), so a
        # rotated candidate fails later
        with pytest.raises(SolverIntegrityError) as exc:
            analyze_mu(pigeonhole(4), skewing)
        assert str(exc.value) == "non-verifying model for deletion 2"

    def test_partial_model_names_its_lowest_missing_variable(self):
        def partial(formula):
            result = solve_dpll(formula)
            if result.is_sat:
                del result.model[5], result.model[7]
            return result

        with pytest.raises(PartialAssignmentError) as exc:
            analyze_mu(pigeonhole(3), partial)
        assert exc.value.variable == 5


@st.composite
def valid_cnfs(draw):
    """Any valid formula over at most 4 variables: comments, empty clauses,
    repeated clauses and tautologies (v and -v in one clause) included."""
    n = draw(st.integers(0, 4))
    lit = st.integers(1, max(n, 1)).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(lit, max_size=4, unique=True).map(tuple) if n else st.just(())
    clauses = draw(st.lists(clause, max_size=8))
    repeats = draw(st.lists(st.integers(0, max(len(clauses) - 1, 0)), max_size=3))
    clauses += [clauses[j] for j in repeats if clauses]
    comments = draw(st.lists(st.text(max_size=6), max_size=2))
    # lists in, so the constructor's own tuple conversion is exercised too
    return CnfFormula(n, [list(c) for c in clauses], comments)


@st.composite
def valid_unsat_cnfs(draw):
    """valid_cnfs, then one clause blocking each model in turn until nothing
    satisfies the formula."""
    f = draw(valid_cnfs())
    clauses = list(f.clauses)
    while True:
        result = solve_brute_force(CnfFormula(f.num_variables, tuple(clauses)))
        if not result.is_sat:
            return CnfFormula(f.num_variables, tuple(clauses), f.comments)
        clauses.append(tuple(-v if result.model[v] else v
                             for v in range(1, f.num_variables + 1)))


def _assert_same_formula(copy, validated):
    assert copy == validated
    assert hash(copy) == hash(validated)
    assert type(copy.clauses) is tuple
    assert all(type(clause) is tuple for clause in copy.clauses)
    assert type(copy.comments) is tuple


class TestUnvalidatedCopies:
    """delete_clause and analyze_mu's deletion solves build their formulas
    without validating them again; each must equal the formula the
    validating constructor builds from the same parts."""

    @settings(max_examples=200, deadline=None)
    @given(valid_cnfs())
    def test_delete_clause_equals_the_validated_rebuild(self, f):
        m = f.num_clauses
        for i in range(m):
            expected = CnfFormula(f.num_variables, f.clauses[:i] + f.clauses[i + 1:],
                                  f.comments)
            _assert_same_formula(delete_clause(f, i), expected)
        for i in (m, -1):
            with pytest.raises(IndexError, match=rf"clause index {i} out of range \[0, {m}\)"):
                delete_clause(f, i)

    @settings(max_examples=150, deadline=None)
    @given(valid_unsat_cnfs(), st.booleans())
    # deleting (3, -3) solves with the units (-3,) and (3,): valid, but conflicting
    @example(TestNegatedClauseUnits.EDGE_CASES["tautology"], False)
    def test_analyze_mu_solves_only_valid_formulas(self, f, early_exit):
        handed = []

        def recording(formula):
            handed.append(formula)
            _assert_same_formula(formula, CnfFormula(formula.num_variables, formula.clauses,
                                                     formula.comments))
            return solve_brute_force(formula)

        analyze_mu(f, recording, early_exit=early_exit)
        assert handed[0] is f


class TestValidateOnce:
    """Every formula is validated once, where it enters the program; the
    copies derived from it are not validated again."""

    @pytest.fixture
    def validations(self, monkeypatch):
        counted = []
        post_init = CnfFormula.__post_init__

        def counting(formula):
            counted.append(formula)
            post_init(formula)

        monkeypatch.setattr(CnfFormula, "__post_init__", counting)
        return counted

    def test_batch_validates_each_generated_instance(self, validations):
        stats = run_batch(BatchSpec(3, 5, 3, 0))
        assert len(validations) == 3
        assert [f.comments[1] for f in validations] == [
            f"params: k=3 g=5 seed={r.seed}" for r in stats.per_formula]
        # the sat deletions' checks built copies, and none was validated
        assert sum(r.deletion_bitmap.count("1") for r in stats.per_formula) > 0

    def test_check_mu_validates_only_the_parsed_file(self, tmp_path, capsys, validations):
        php = tmp_path / "php5-4.cnf"
        php.write_text(write_dimacs(scramble(pigeonhole(4), random.Random(4))[0]))
        validations.clear()
        assert mucnf.cli.main(["check-mu", "--backend", "dpll", str(php)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "MU: yes, satisfiability number 45/45"
        assert len(validations) == 1
        assert validations[0].num_clauses == 45
