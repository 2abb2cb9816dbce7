import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mucnf.cli
import mucnf.experiment
from mucnf.cli import main
from mucnf.cnf import CnfFormula, evaluate, write_dimacs
from mucnf.generator import GeneratorParams, generate
from mucnf.mu import analyze_mu
from mucnf.solver import solve_dpll
from tests.conftest import pigeonhole, scramble


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_expected_header(self, capsys):
        code, out, err = run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "7")
        assert code == 0
        assert "p cnf 21 52" in out
        assert "config:" in err

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        code, out, _ = run(capsys, "generate", "-k", "2", "-g", "1", "--seed", "0",
                           "-o", str(path))
        assert code == 0
        assert out == ""
        assert "p cnf 3 6" in path.read_text()

    def test_omitted_seed_is_drawn_and_printed(self, capsys):
        code, out, err = run(capsys, "generate", "-k", "2", "-g", "1")
        assert code == 0
        assert "--seed not given; drew" in err
        note = next(line for line in err.splitlines() if line.startswith("note:"))
        seed = int(note.rsplit(" ", 1)[1])
        assert 0 <= seed < 1 << 64
        # the printed seed reproduces the run
        code, again, _ = run(capsys, "generate", "-k", "2", "-g", "1", "--seed", str(seed))
        assert code == 0
        assert again == out

    def test_invalid_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "-k", "1", "-g", "5", "--seed", "0")
        assert code == 2
        assert "k must be >= 2" in err


def test_runs_as_python_module():
    src = str(Path(mucnf.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "mucnf", "generate", "-k", "2", "-g", "1",
                           "--seed", "0"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "p cnf 3 6" in proc.stdout


class TestSolve:
    def test_generated_instance_unsat(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "7", "-o", str(path))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "UNSAT" in out

    def test_sat_prints_model(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 1\n1 -2 0\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert out.splitlines()[0] == "SAT"
        assert out.splitlines()[1].startswith("v ")

    @pytest.mark.parametrize("text,values", [
        ("p cnf 0 0\n", "v 0"),
        ("p cnf 2 1\n1 -2 0\n", "v 1 -2 0"),
    ])
    def test_values_line(self, tmp_path, capsys, text, values):
        path = tmp_path / "f.cnf"
        path.write_text(text)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert out == f"SAT\n{values}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\n5 0\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 3
        assert "out of range" in err

    def test_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "12", "--seed", "0", "-o", str(path))
        code, _, err = run(capsys, "solve", str(path), "--timeout", "0.001")
        assert code == 4

    @pytest.mark.parametrize("command", ["solve", "check-mu"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_timeout_must_be_finite_and_positive(self, tmp_path, capsys, command, value):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, err = run(capsys, command, str(path), "--timeout", value)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: --timeout: {value} is not a finite number > 0")

    def test_solver_work_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "php.cnf"
        path.write_text(write_dimacs(pigeonhole(5)))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 0
        assert out == "UNSAT\n"
        stats = solve_dpll(pigeonhole(5)).stats
        assert err.splitlines()[-1] == (
            f"solver: decisions={stats.decisions} propagations={stats.propagations} "
            f"conflicts={stats.conflicts}")

    def test_reads_stdin_with_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"p cnf 1 2\n1 0\n-1 0\n")))
        code, out, _ = run(capsys, "solve", "-")
        assert code == 0
        assert "UNSAT" in out

    @pytest.mark.parametrize("command", ["solve", "check-mu"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys, monkeypatch,
                                           command, source):
        data = b"p cnf 1 2\n1 0\n\xff-1 0\n"
        path = tmp_path / "f.cnf"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, command, str(path) if source == "file" else "-")
        assert code == 3
        assert out == ""
        assert "error: DIMACS parse error at line 3: not UTF-8 text (byte 0xff)" in err

    def test_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(mucnf.cli, "read_dimacs", exhausted)
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "error: out of memory"
        assert "Traceback" not in err

    def test_log_names_external_backend(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, _, err = run(capsys, "solve", str(path), "--solver", "/bin/true")
        assert code == 1  # no status line
        assert "backend=external" in err

    def test_non_integer_model_token_is_solver_error(self, tmp_path, capsys):
        solver = tmp_path / "bad-model.py"
        solver.write_text("#!/usr/bin/env python3\n"
                          "print('s SATISFIABLE')\nprint('v 1 x 0')\n")
        solver.chmod(0o755)
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code, out, err = run(capsys, "solve", str(path), "--solver", str(solver))
        assert code == 1
        assert out == ""
        assert "non-integer token 'x'" in err

    def test_deep_search_solves(self, tmp_path, capsys):
        # 2,000 independent XOR pairs: one DPLL decision per pair, deeper
        # than Python's recursion limit
        clauses = []
        for x in range(1, 4001, 2):
            clauses += [(x, x + 1), (-x, -(x + 1))]
        f = CnfFormula(4000, tuple(clauses))
        path = tmp_path / "xor.cnf"
        path.write_text(write_dimacs(f))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        status, values = out.splitlines()
        assert status == "SAT"
        lits = [int(tok) for tok in values.split()[1:-1]]
        assert evaluate(f, {abs(lit): lit > 0 for lit in lits})

    def test_brute_backend(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run(capsys, "solve", str(path), "--backend", "brute")
        assert code == 0
        assert "UNSAT" in out


class TestCheckMu:
    def test_smallest_mu_formula(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(CnfFormula(1, ((1,), (-1,)))))
        code, out, _ = run(capsys, "check-mu", str(path))
        assert code == 0
        assert "MU: yes, satisfiability number 2/2" in out

    def test_non_mu_formula(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(CnfFormula(2, ((1,), (-1,), (1, 2)))))
        code, out, _ = run(capsys, "check-mu", str(path))
        assert code == 0
        assert "MU: no" in out

    def test_sat_input_fails(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code, _, err = run(capsys, "check-mu", str(path))
        assert code == 1
        assert "satisfiable" in err

    def test_generated_file_uses_cells(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "11", "-o", str(path))
        code, out, err = run(capsys, "check-mu", str(path))
        assert code == 0
        assert "backend=cells" in err
        code, dpll_out, err = run(capsys, "check-mu", str(path), "--backend", "dpll")
        assert code == 0
        assert "backend=dpll" in err
        assert out == dpll_out

    @pytest.mark.parametrize("params", [
        "params: k=3 g=5 seed=12",             # names another formula
        "params: k=3 g=5 seed=banana",         # malformed
        "params: k=3 g=500000000000 seed=11",  # out of range
        None,                                  # no comment at all
    ])
    def test_comments_do_not_decide_the_backend(self, tmp_path, capsys, params):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "11", "-o", str(path))
        _, want, _ = run(capsys, "check-mu", str(path))
        text = path.read_text()
        if params is None:
            text = "".join(line for line in text.splitlines(True) if not line.startswith("c"))
        else:
            text = text.replace("params: k=3 g=5 seed=11", params)
        path.write_text(text)
        code, out, err = run(capsys, "check-mu", str(path))
        assert code == 0
        assert "backend=cells" in err
        assert out == want

    @pytest.mark.parametrize("extra", [(), ("--early-exit",)], ids=["full", "early-exit"])
    def test_scrambled_generated_file_uses_cells(self, tmp_path, capsys, extra):
        f = generate(GeneratorParams(3, 5, 11))
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(scramble(f, random.Random(3))[0]))
        code, out, err = run(capsys, "check-mu", str(path), *extra)
        assert code == 0
        assert "backend=cells" in err
        code, dpll_out, err = run(capsys, "check-mu", str(path), "--backend", "dpll", *extra)
        assert code == 0
        assert "backend=dpll" in err
        assert out == dpll_out

    def test_early_exit_on_generated_file(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "0", "-o", str(path))
        outs = [run(capsys, "check-mu", str(path), "--early-exit", *extra)[1]
                for extra in ((), ("--backend", "dpll"))]
        assert outs[0] == outs[1]

    def test_solver_work_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "php.cnf"
        path.write_text(write_dimacs(pigeonhole(5)))
        code, out, err = run(capsys, "check-mu", str(path))
        assert code == 0
        assert out == f"MU: yes, satisfiability number 81/81\ndeletions: {'1' * 81}\n"
        results = []

        def recording(f):
            results.append(solve_dpll(f))
            return results[-1]

        analyze_mu(pigeonhole(5), recording)
        assert len(results) == 7  # the pinned count of tests/test_mu.py
        total = lambda name: sum(getattr(r.stats, name) for r in results)
        assert err.splitlines()[-1] == (
            f"solver: solves=7 decisions={total('decisions')} "
            f"propagations={total('propagations')} conflicts={total('conflicts')}")

    def test_cells_reports_no_solver_work(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "11", "-o", str(path))
        code, _, err = run(capsys, "check-mu", str(path))
        assert code == 0
        assert "solver:" not in err

    def test_rerun_is_identical(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "2", "-g", "2", "--seed", "5", "-o", str(path))
        _, out1, _ = run(capsys, "check-mu", str(path))
        _, out2, _ = run(capsys, "check-mu", str(path))
        assert out1 == out2


class TestExperiment:
    def test_prints_table_and_writes_csv(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        code, out, _ = run(capsys, "experiment", "-k", "2", "-g", "1", "-n", "3",
                           "--base-seed", "1", "--csv", str(csv))
        assert code == 0
        assert "clauses" in out
        text = csv.read_text()
        assert text.startswith("k,g,seed,clause_count")
        assert "2,1,3,6," in text

    def test_csv_byte_identical_across_runs(self, tmp_path, capsys):
        texts = []
        for name in ("a.csv", "b.csv"):
            csv = tmp_path / name
            run(capsys, "experiment", "-k", "2", "-g", "2", "-n", "5",
                "--base-seed", "42", "--csv", str(csv))
            texts.append(csv.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("command,flags", [
        ("experiment", ["-g", "2"]),
        ("trend", ["-g", "1,2"]),
    ])
    @pytest.mark.parametrize("extra", [
        ["--backend", "dpll"], ["--solver", "/bin/true"], ["--timeout", "1"],
    ])
    def test_batches_take_no_backend_flags(self, capsys, command, flags, extra):
        # batches are generated instances: always analysed by cells
        with pytest.raises(SystemExit) as exc:
            main([command, "-k", "2", *flags, "-n", "1", "--base-seed", "0", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "-g", "5", "-n", "2", "--base-seed", str(2**64 - 1)],
        ["experiment", "-g", "5", "-n", "2", "--base-seed", "-1"],
        # row 0 fits; row 1 starts at 2**64 - 1 and needs two seeds
        ["trend", "-g", "5,8", "-n", "2", "--base-seed", str(2**64 - 3)],
    ])
    def test_seed_range_checked_before_any_formula(self, capsys, monkeypatch, argv):
        analysed = []
        monkeypatch.setattr(mucnf.experiment, "analyze_cells",
                            lambda *args, **kwargs: analysed.append(args))
        code, out, err = run(capsys, argv[0], "-k", "3", *argv[1:])
        assert code == 2
        assert out == ""
        assert "with count 2 leaves the 64-bit seed range" in err
        assert analysed == []

    def test_config_line_names_cells(self, capsys):
        code, _, err = run(capsys, "experiment", "-k", "2", "-g", "1", "-n", "1",
                           "--base-seed", "0")
        assert code == 0
        assert "backend=cells" in err


class TestTrend:
    def test_one_g_trend_is_experiment(self, tmp_path, capsys):
        outputs = []
        for command in ("experiment", "trend"):
            csv = tmp_path / f"{command}.csv"
            code, out, _ = run(capsys, command, "-k", "3", "-g", "5", "-n", "20",
                               "--base-seed", "9", "--csv", str(csv))
            assert code == 0
            outputs.append((out, csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_two_rows(self, capsys):
        code, out, _ = run(capsys, "trend", "-k", "2", "-g", "1,2", "-n", "2",
                           "--base-seed", "0")
        assert code == 0
        assert len(out.splitlines()) == 3  # header + 2 rows

    @pytest.mark.parametrize("g", ["", ","])
    def test_empty_g_list_is_usage_error(self, capsys, g):
        code, out, err = run(capsys, "trend", "-k", "3", "-g", g, "-n", "2",
                             "--base-seed", "0")
        assert code == 2
        assert out == ""
        assert "must not be empty" in err

    @pytest.mark.parametrize("g,token", [("5,,8", "''"), ("a", "'a'"), ("5,", "''")])
    def test_bad_g_token_is_usage_error(self, capsys, g, token):
        code, out, err = run(capsys, "trend", "-k", "3", "-g", g, "-n", "2",
                             "--base-seed", "0")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"error: -g: {token} in {g!r} is not an integer"
