import os
import random
import stat
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import mucnf
from mucnf.cnf import CnfFormula, evaluate
from mucnf.generator import GeneratorParams, generate
from mucnf.mu import delete_clause
from mucnf.solver import (
    BruteForceCapError,
    ExternalSolverError,
    SolveTimeoutError,
    SolverIntegrityError,
    make_backend,
    solve_brute_force,
    solve_dpll,
    solve_external,
)
from tests.conftest import pigeonhole, random_kcnf


class TestDpll:
    def test_empty_formula_sat(self):
        r = solve_dpll(CnfFormula(3, ()))
        assert r.status == "sat"
        assert evaluate(CnfFormula(3, ()), r.model)
        assert len(r.model) == 3

    def test_empty_clause_unsat(self):
        assert solve_dpll(CnfFormula(2, ((1, 2), ()))).status == "unsat"

    def test_complementary_units_unsat(self):
        assert solve_dpll(CnfFormula(1, ((1,), (-1,)))).status == "unsat"

    def test_unit_chain(self):
        f = CnfFormula(3, ((1,), (-1, 2), (-2, 3)))
        r = solve_dpll(f)
        assert r.status == "sat"
        assert r.model == {1: True, 2: True, 3: True}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_generated_formula_unsat(self, seed):
        assert solve_dpll(generate(GeneratorParams(3, 5, seed))).status == "unsat"

    def test_sat_models_verify(self, rng):
        for _ in range(200):
            f = random_kcnf(rng, rng.randint(4, 12), rng.randint(5, 40))
            r = solve_dpll(f)
            if r.status == "sat":
                assert evaluate(f, r.model)

    def test_timeout_raises(self):
        f = generate(GeneratorParams(3, 12, 0))
        with pytest.raises(SolveTimeoutError):
            solve_dpll(f, timeout=0.001)

    def test_deterministic_stats(self):
        f = generate(GeneratorParams(3, 5, 3))
        assert solve_dpll(f).stats == solve_dpll(f).stats

    @pytest.mark.parametrize("make,stats,true_vars", [
        (lambda: generate(GeneratorParams(3, 5, 1)), (202, 1067, 102), None),
        (lambda: delete_clause(generate(GeneratorParams(3, 5, 1)), 0), (7, 21, 0),
         [4, 5, 6, 9, 11, 13, 16, 17, 19, 20]),
        (lambda: delete_clause(generate(GeneratorParams(3, 6, 2)), 30), (46, 204, 21),
         [3, 4, 5, 7, 10, 12, 13, 14, 17, 19, 21, 23, 24]),
        (lambda: pigeonhole(3), (10, 50, 6), None),
        (lambda: random_kcnf(random.Random(5), 12, 50), (7, 25, 2),
         [1, 2, 3, 4, 9, 10, 11, 12]),
        (lambda: pigeonhole(6), (1438, 7196, 720), None),
        (lambda: generate(GeneratorParams(3, 8, 1)), (2778, 19872, 1390), None),
        (lambda: random_kcnf(random.Random(1), 30, 128), (68, 417, 33),
         [4, 8, 12, 13, 14, 15, 18, 19, 20, 22, 29]),
        (lambda: random_kcnf(random.Random(4), 30, 128), (33, 221, 15),
         [1, 3, 4, 5, 7, 9, 11, 14, 16, 18, 20, 21, 22, 23, 28, 30]),
        (lambda: random_kcnf(random.Random(5), 30, 128), (34, 192, 18), None),
        # the tautology (3, -3, 7) adds to the counts of 3, -3 and 7: 7 decisions without it
        (lambda: CnfFormula(12, random_kcnf(random.Random(3), 12, 40).clauses + ((3, -3, 7),)),
         (10, 42, 3), [1, 4, 5, 6, 7, 8, 11, 12]),
        # pure literals are taken after the first decision and again later
        (lambda: random_kcnf(random.Random(0), 12, 40), (5, 17, 1), [1, 2, 6, 10, 12]),
    ])
    def test_search_order_is_pinned(self, make, stats, true_vars):
        # pinned counters and models: the search keeps its branching order
        f = make()
        r = solve_dpll(f)
        assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == stats
        if true_vars is None:
            assert r.status == "unsat"
        else:
            assert [v for v in range(1, f.num_variables + 1) if r.model[v]] == true_vars


@st.composite
def small_cnfs(draw):
    """Random clauses of width 0-4 over at most 6 variables; tautologies
    and empty clauses included."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return CnfFormula(0, tuple(() for _ in range(draw(st.integers(0, 1)))))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(
        st.lists(lit, max_size=4, unique=True).map(tuple), max_size=20))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=200, deadline=None)
@given(small_cnfs())
def test_dpll_verdict_matches_brute_force(f):
    r = solve_dpll(f)
    assert r.status == solve_brute_force(f).status
    if r.is_sat:
        assert evaluate(f, r.model)


class TestBruteForce:
    def test_unit_clause(self):
        r = solve_brute_force(CnfFormula(1, ((1,),)))
        assert r.status == "sat"
        assert r.model == {1: True}

    def test_first_model_in_ascending_binary_order(self):
        # order counts up with variable 1 as the least significant bit:
        # all-false comes first, so (1 or 2) is first satisfied by {1:T, 2:F}
        r = solve_brute_force(CnfFormula(2, ((1, 2),)))
        assert r.model == {1: True, 2: False}

    def test_smallest_generated_instance_unsat(self):
        for seed in range(10):
            f = generate(GeneratorParams(2, 1, seed))
            assert f.num_clauses == 6
            assert solve_brute_force(f).status == "unsat"

    def test_cap_refusal(self):
        with pytest.raises(BruteForceCapError):
            solve_brute_force(CnfFormula(25, ((1,),)))

    def test_first_model_beyond_the_first_block(self):
        # 17 and 20 are constant within a block of 2**16 assignments, so the
        # first model lies in block 0b1001 (17 and 20 true), with 1 true
        r = solve_brute_force(CnfFormula(20, ((17,), (20,), (1, 2))))
        assert r.status == "sat"
        assert r.model == {v: v in (1, 17, 20) for v in range(1, 21)}

    def test_conflict_among_block_variables_unsat(self):
        f = CnfFormula(18, ((1, 2), (17, 18), (-17, 18), (17, -18), (-17, -18)))
        assert solve_brute_force(f).status == "unsat"

    def test_zero_variables(self):
        r = solve_brute_force(CnfFormula(0, ()))
        assert (r.status, r.model) == ("sat", {})
        assert solve_brute_force(CnfFormula(0, ((),))).status == "unsat"

    def test_agrees_with_dpll(self, rng):
        for _ in range(300):
            f = random_kcnf(rng, rng.randint(4, 12), rng.randint(5, 50))
            assert solve_brute_force(f).status == solve_dpll(f).status

    def test_agrees_with_dpll_over_several_blocks(self, rng):
        statuses = []
        for _ in range(30):
            n = rng.randint(17, 20)
            f = random_kcnf(rng, n, rng.randint(3 * n, 6 * n))
            r = solve_brute_force(f)
            assert r.status == solve_dpll(f).status
            assert r.status == "unsat" or evaluate(f, r.model)
            statuses.append(r.status)
        assert {"sat", "unsat"} <= set(statuses)


def test_package_imports_without_numpy():
    # numpy is a test-only dependency: importing mucnf must not load it
    src = os.path.dirname(os.path.dirname(mucnf.__file__))

    def loaded(imports):
        code = f"import sys{imports}; print(' '.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    with_mucnf = loaded(", mucnf, mucnf.cli, mucnf.experiment")
    assert "numpy" not in with_mucnf
    # nor the modules only some runs use: OpenSSL (through secrets), the
    # process pool and subprocess. Counted against a bare interpreter in the
    # same environment, since site hooks may preload modules of their own.
    heavy = {"secrets", "hmac", "_hashlib", "concurrent.futures", "multiprocessing",
             "subprocess", "shlex"}
    added = with_mucnf - loaded("")
    assert not added & heavy, sorted(added & heavy)


STUB_HONEST = """\
#!/usr/bin/env python3
# tiny exhaustive DIMACS solver emitting SAT-competition output
import itertools, sys
clauses, n = [], 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line[0] == 'c':
        continue
    if line[0] == 'p':
        n = int(line.split()[2]); continue
    clauses.append([int(t) for t in line.split() if t != '0'])
for bits in itertools.product([False, True], repeat=n):
    val = {i + 1: b for i, b in enumerate(bits)}
    if all(any(val[abs(l)] == (l > 0) for l in c) for c in clauses):
        print('s SATISFIABLE')
        print('v ' + ' '.join(str(v if val[v] else -v) for v in val) + ' 0')
        sys.exit(10)
print('s UNSATISFIABLE')
sys.exit(20)
"""

STUB_LIAR = """\
#!/usr/bin/env python3
import sys
print('s SATISFIABLE')
print('v 1 2 0')
sys.exit(10)
"""

STUB_GARBAGE = """\
#!/usr/bin/env python3
print('no verdict here')
"""


def write_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestExternal:
    def test_unsat_verdict(self, tmp_path):
        cmd = write_stub(tmp_path, "honest.py", STUB_HONEST)
        f = CnfFormula(1, ((1,), (-1,)))
        assert solve_external(f, cmd).status == "unsat"

    def test_sat_model_verified(self, tmp_path):
        cmd = write_stub(tmp_path, "honest.py", STUB_HONEST)
        f = CnfFormula(2, ((1, 2), (-1, 2)))
        r = solve_external(f, cmd)
        assert r.status == "sat"
        assert evaluate(f, r.model)

    def test_lying_solver_is_integrity_error(self, tmp_path):
        cmd = write_stub(tmp_path, "liar.py", STUB_LIAR)
        f = CnfFormula(2, ((-1,), (-2,)))
        with pytest.raises(SolverIntegrityError):
            solve_external(f, cmd)

    def test_unparseable_output(self, tmp_path):
        cmd = write_stub(tmp_path, "garbage.py", STUB_GARBAGE)
        with pytest.raises(ExternalSolverError, match="no 's"):
            solve_external(CnfFormula(1, ((1,),)), cmd)

    def test_missing_executable(self):
        with pytest.raises(ExternalSolverError, match="failed to run"):
            solve_external(CnfFormula(1, ((1,),)), "/nonexistent/solver")

    def test_agrees_with_dpll_on_deletions(self, tmp_path):
        cmd = write_stub(tmp_path, "honest.py", STUB_HONEST)
        f = generate(GeneratorParams(2, 2, 4))
        for i in range(f.num_clauses):
            sub = delete_clause(f, i)
            assert solve_external(sub, cmd).status == solve_dpll(sub).status


class TestMakeBackend:
    def test_names(self):
        assert make_backend("dpll")(CnfFormula(1, ((1,),))).status == "sat"
        assert make_backend("brute")(CnfFormula(1, ((1,),))).status == "sat"

    def test_external_requires_command(self):
        with pytest.raises(ValueError, match="solver command"):
            make_backend("external")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cdcl")
