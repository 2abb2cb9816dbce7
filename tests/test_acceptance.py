"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The statistical batches (criteria 4-6) run on the
`cells` analysis that every batch uses; criterion 4 repeats the analysis of
its formulas under DPLL, which takes most of the suite's time.
"""

import random
from math import comb

import pytest

from mucnf.cli import main
from mucnf.cnf import CnfFormula, evaluate
from mucnf.generator import GeneratorParams, build_instance, generate
from mucnf.mu import analyze_cells, analyze_mu, delete_clause
from mucnf.solver import solve_brute_force, solve_dpll
from mucnf.experiment import BatchSpec, run_batch, trend_study
from tests.cell_oracle import deletion_outcomes
from tests.conftest import random_kcnf


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def row1_batch():
    # criterion 4's 500-formula batch at (3, 5); reused by criterion 6
    return run_batch(BatchSpec(3, 5, 500, 20260826))


@pytest.fixture(scope="module")
def trend_batches():
    # criterion 5's reduced-scale trend; reused by criterion 6
    return trend_study(3, [5, 8, 10], 100, 99)


def test_criterion_1_structural_formulas():
    for k in (2, 3, 4):
        for g in range(1, 9):
            f = generate(GeneratorParams(k, g, 1))
            assert f.num_variables == (2 * k - 2) * g + 1
            expect = 2 * ((g - 1) * comb(2 * k - 2, k) + comb(2 * k - 1, k))
            assert f.num_clauses == expect
            if k == 3:
                assert f.num_clauses == 8 * g + 12
    table = {(3, 5): 52, (3, 8): 76, (3, 10): 92, (3, 12): 108, (3, 15): 132,
             (4, 5): 190, (4, 6): 220}
    for (k, g), m in table.items():
        assert generate(GeneratorParams(k, g, 2)).num_clauses == m
    assert report("criterion 1", True, "variable/clause counts exact over the grid")


def test_criterion_2_unsatisfiability():
    failures = 0
    for k, g in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        for seed in range(100):
            if solve_brute_force(generate(GeneratorParams(k, g, seed))).status != "unsat":
                failures += 1
    for seed in range(100):
        if solve_dpll(generate(GeneratorParams(3, 5, seed))).status != "unsat":
            failures += 1
    assert report("criterion 2", failures == 0,
                  f"{failures} sat verdicts over 600 generated instances")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260826)
    disagreements = 0
    for _ in range(1000):
        n = rng.randint(4, 16)
        f = random_kcnf(rng, n, rng.randint(1, int(4.5 * n)))
        if solve_dpll(f).status != solve_brute_force(f).status:
            disagreements += 1
    deletions = 0
    for g in (1, 2):
        for seed in range(10):
            f = generate(GeneratorParams(3, g, seed))
            for i in range(f.num_clauses):
                sub = delete_clause(f, i)
                deletions += 1
                if solve_dpll(sub).status != solve_brute_force(sub).status:
                    disagreements += 1
    assert report("criterion 3", disagreements == 0,
                  f"{disagreements} disagreements over 1000 random 3-CNFs and "
                  f"{deletions} deletions")


def test_criterion_4_row1_statistics(row1_batch):
    s = row1_batch
    # every formula's deletion verdicts agree with the counting oracle,
    # which shares no code with the SAT backends, and with a DPLL search
    # over every deletion of the same 500 formulas
    disagreements = 0
    for r in s.per_formula:
        inst = build_instance(GeneratorParams(3, 5, r.seed))
        dpll = analyze_mu(inst.formula, solve_dpll)
        oracle = "".join("1" if sat else "0" for sat in deletion_outcomes(inst))
        if not r.deletion_bitmap == dpll.deletion_bitmap() == oracle:
            disagreements += 1
    ok_mu = 58.0 <= s.mu_percent <= 72.0
    ok_mean = 50.8 <= s.mean_sat_no <= 51.8
    ok_std = 1.0 <= s.std_dev_sat_no <= 2.2
    detail = (f"mu%={s.mu_percent:.1f} (want [58, 72]), "
              f"mean={s.mean_sat_no:.2f} (want [50.8, 51.8]), "
              f"std={s.std_dev_sat_no:.2f} (want [1.0, 2.2]), "
              f"{disagreements} of {len(s.per_formula)} formulas disagree "
              f"with the counting oracle or DPLL")
    report("criterion 4",
           ok_mu and ok_mean and ok_std and disagreements == 0, detail)
    assert disagreements == 0, detail
    assert ok_mu, detail
    assert ok_mean, detail
    # The exact law of the satisfiability number at (3, 5), summed over
    # every p x q intersection table (tests/test_cell_oracle.py), has
    # MU% = 64.766, mean = 51.2487 and population std = 1.38887. The
    # earlier reference std of 0.71 cannot hold: with MU% = 65 and mean
    # 51.3 the non-MU formulas average exactly two unsat deletions, which
    # forces std >= sqrt(0.35 * 2**2 - 0.7**2) ~= 0.95. Under the exact law
    # the sample std of 500 formulas falls below 1.0 with probability
    # ~0.03% and above 2.2 with ~0.09% (400,000 simulated batches); its
    # upper tail is long because rare formulas lose up to 32 deletions.
    assert ok_std, detail


def test_criterion_5_trend(trend_batches):
    paper = {5: 65.0, 8: 79.0, 10: 82.0}
    percents = [b.mu_percent for b in trend_batches]
    ok = True
    for b in trend_batches:
        if abs(b.mu_percent - paper[b.g]) > 12.0:
            ok = False
    for a, b in zip(percents, percents[1:]):
        if b < a - 8.0:
            ok = False
    assert report("criterion 5", ok,
                  f"mu% by g in (5, 8, 10): {[round(p, 1) for p in percents]} "
                  f"(reference 65/79/82, tolerance 12, slack 8)")


def test_criterion_6_mu_report_soundness(row1_batch, trend_batches):
    # iff-invariant over every completed report in the batches above;
    # analyze_cells already re-verified every sat witness with evaluate()
    # during those runs (a non-verifying model raises, aborting the batch)
    records = list(row1_batch.per_formula)
    for b in trend_batches:
        records.extend(b.per_formula)
    for r in records:
        if r.completed:
            assert (r.is_mu is True) == (r.sat_number == r.clause_count)
    # explicit witness re-verification on a retained-witness subsample
    checked = 0
    for seed in range(20):
        inst = build_instance(GeneratorParams(3, 5, 20260826 + seed))
        f = inst.formula
        for rep in (analyze_cells(f, inst.p_cells, inst.q_cells), analyze_mu(f, solve_dpll)):
            for i, sat in enumerate(rep.deletion_sat):
                if sat:
                    assert evaluate(delete_clause(f, i), rep.witnesses[i])
                    checked += 1
    assert report("criterion 6", True,
                  f"iff-invariant on {len(records)} reports; "
                  f"{checked} witnesses re-verified independently")


def test_criterion_7_cell_counting():
    inst = build_instance(GeneratorParams(3, 5, 31337))
    n = inst.formula.num_variables
    half = len(inst.formula.clauses) // 2
    c1 = CnfFormula(n, inst.formula.clauses[:half])
    c2 = CnfFormula(n, inst.formula.clauses[half:])
    rng = random.Random(7)
    mismatches = 0
    for _ in range(10_000):
        sigma = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        want_c1 = all(
            sum(1 for v in cell if not sigma[v]) <= 2 for cell in inst.p_cells
        )
        want_c2 = all(
            sum(1 for v in cell if sigma[v]) <= 2 for cell in inst.q_cells
        )
        if evaluate(c1, sigma) != want_c1 or evaluate(c2, sigma) != want_c2:
            mismatches += 1
    assert report("criterion 7", mismatches == 0,
                  f"{mismatches} mismatches over 10,000 assignments")


def test_criterion_8_determinism(tmp_path, capsys):
    texts = []
    for name in ("run1.csv", "run2.csv"):
        csv = tmp_path / name
        code = main(["experiment", "-k", "3", "-g", "5", "-n", "50",
                     "--base-seed", "42", "--csv", str(csv)])
        assert code == 0
        texts.append(csv.read_text())
    capsys.readouterr()
    assert report("criterion 8", texts[0] == texts[1],
                  "two experiment runs produced byte-identical CSV")
