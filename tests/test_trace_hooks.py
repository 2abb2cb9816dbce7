"""The names perfbench's trace mode relies on must stay where it looks for them.

perfbench/spans.py replaces module attributes of mucnf.cli, mucnf.experiment,
mucnf.generator and mucnf.mu while a traced round runs (getattr fails on a
missing one), and perfbench/workloads.py reads FormulaRecord.completed. A
refactor that drops one of those names breaks `perfbench/run.py --trace 1`;
these tests break first.
"""

import dataclasses

import mucnf.mu
from mucnf.experiment import FormulaRecord
from perfbench.spans import Tracer


def test_tracer_installs_and_restores():
    evaluate = mucnf.mu.evaluate
    with Tracer().installed():
        assert mucnf.mu.evaluate is not evaluate
    assert mucnf.mu.evaluate is evaluate


def test_formula_record_keeps_completed():
    fields = {f.name: f for f in dataclasses.fields(FormulaRecord)}
    assert fields["completed"].default is True
