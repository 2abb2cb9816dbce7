import pytest

from mucnf.cli import main
from mucnf.cnf import CnfFormula, evaluate, write_dimacs


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

    def test_invalid_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "-k", "1", "-g", "5", "--seed", "0")
        assert code == 2
        assert "k must be >= 2" in err


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

    def test_reads_stdin_with_dash(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1 2\n1 0\n-1 0\n"))
        code, out, _ = run(capsys, "solve", "-")
        assert code == 0
        assert "UNSAT" in out

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
        "params: k=3 g=5 seed=12",             # regenerates a different formula
        "params: k=3 g=5 seed=banana",         # malformed
        "params: k=3 g=500000000000 seed=11",  # out of range
    ])
    def test_unmatched_provenance_falls_back_to_dpll(self, tmp_path, capsys, params):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "11", "-o", str(path))
        _, want, _ = run(capsys, "check-mu", str(path))
        path.write_text(path.read_text().replace("params: k=3 g=5 seed=11", params))
        code, out, err = run(capsys, "check-mu", str(path))
        assert code == 0
        assert "backend=dpll" in err
        assert out == want

    def test_early_exit_on_generated_file(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        run(capsys, "generate", "-k", "3", "-g", "5", "--seed", "0", "-o", str(path))
        outs = [run(capsys, "check-mu", str(path), "--early-exit", *extra)[1]
                for extra in ((), ("--backend", "dpll"))]
        assert outs[0] == outs[1]

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
