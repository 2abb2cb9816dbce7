"""The names perfbench's trace mode relies on must stay where it looks for them.

perfbench/spans.py replaces module attributes of mucnf.cli, mucnf.experiment,
mucnf.generator and mucnf.mu while a traced round runs (getattr fails on a
missing one), and perfbench/workloads.py reads FormulaRecord.completed. A
refactor that drops one of those names breaks `perfbench/run.py --trace 1`;
these tests break first. The trace also pins where witnesses are checked:
analyze_cells calls one delete_clause and one evaluate per sat deletion, and
none for an unsat one; analyze_mu, under check-mu, checks its witnesses on
its own clause bitmasks and calls neither.
"""

import dataclasses
import random

import mucnf.cli
import mucnf.experiment
import mucnf.mu
from mucnf.cnf import write_dimacs
from mucnf.experiment import BatchSpec, FormulaRecord
from perfbench.spans import Tracer
from tests.conftest import pigeonhole, scramble


def test_tracer_installs_and_restores():
    evaluate = mucnf.mu.evaluate
    with Tracer().installed():
        assert mucnf.mu.evaluate is not evaluate
    assert mucnf.mu.evaluate is evaluate


def test_formula_record_keeps_completed():
    fields = {f.name: f for f in dataclasses.fields(FormulaRecord)}
    assert fields["completed"].default is True


def assert_one_check_per_sat_deletion(tracer, bitmaps):
    sat = sum(bitmap.count("1") for bitmap in bitmaps)
    assert tracer.calls["mu.delete_clause"] == sat
    assert tracer.calls["cnf.evaluate"] == sat


def test_batch_checks_each_sat_deletion_once():
    with Tracer().installed() as tracer:
        stats = mucnf.experiment.run_batch(BatchSpec(3, 5, 3, 0))
    bitmaps = [r.deletion_bitmap for r in stats.per_formula]
    # seed 0 is not MU, so unsat deletions are counted too
    assert any("0" in bitmap for bitmap in bitmaps)
    assert_one_check_per_sat_deletion(tracer, bitmaps)


def test_check_mu_checks_witnesses_without_copies(tmp_path, capsys):
    php = tmp_path / "php5-4.cnf"
    php.write_text(write_dimacs(scramble(pigeonhole(4), random.Random(4))[0]))
    with Tracer().installed() as tracer:
        assert mucnf.cli.main(["check-mu", str(php)]) == 0
    bitmap = capsys.readouterr().out.splitlines()[1].removeprefix("deletions: ")
    assert bitmap == "1" * 45
    assert tracer.calls["mu.analyze_mu"] == 1
    assert tracer.calls["mu.delete_clause"] == 0
    assert tracer.calls["cnf.evaluate"] == 0
