"""The benchmark's three workloads: their inputs, one timed round, its checks.

A workload makes all its inputs from the run seed. One round is a fixed set
of operations (formulas, or check-mu calls); the runner repeats rounds
until the time budget is used, so every run attempts whole rounds. Each
round returns its wall time and its raw output; `check` then turns the raw
output into one Outcome per operation, comparing it with the reference in
oracle.py. Checks run outside the timed window and outside any tracing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import mucnf.cli
import mucnf.experiment
from mucnf import CnfFormula, GeneratorParams, generate, solve_brute_force
from mucnf.experiment import BatchSpec

import oracle

SUMMARY_HEADER = "k,g,count,completed,mu_percent,mean_sat_no,std_dev_sat_no"


@dataclass
class Outcome:
    ms: float      # time to analyse the formula
    deep: bool     # of the workload's largest size (the one formula_ms_p50 uses)
    ok: bool       # finished and agreed with its check


@dataclass
class Round:
    wall: float        # seconds the program ran
    workers: int
    raw: object        # workload-specific output, handed to check()


def base_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}/{seed}").getrandbits(48)


def reference(k: int, g: int, seed: int) -> Optional[oracle.Instance]:
    """The oracle's rebuild of formula (k, g, seed); None if mucnf.generate differs."""
    inst = oracle.Instance(k, g, seed)
    if generate(GeneratorParams(k, g, seed)).clauses != tuple(inst.clauses):
        return None
    return inst


def oracle_agrees_with_brute_force(seed: int) -> bool:
    """The max-flow verdicts equal solve_brute_force, deletion by deletion."""
    rng = random.Random(f"selfcheck/{seed}")
    for k, g in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(4):
            inst = oracle.Instance(k, g, rng.getrandbits(64))
            bitmap = inst.deletion_bitmap()
            if solve_brute_force(CnfFormula(inst.num_variables, inst.clauses)).is_sat:
                return False
            for i in range(len(inst.clauses)):
                reduced = CnfFormula(inst.num_variables, inst.clauses[:i] + inst.clauses[i + 1:])
                if solve_brute_force(reduced).is_sat != (bitmap[i] == "1"):
                    return False
    return True


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """mucnf.cli.main(argv) with its stdout captured; stderr (the config log) dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mucnf.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
    return rc, out.getvalue()


class ExperimentK3G5:
    """run_batch at (3, 5), serial, ROUND formulas per round."""

    name = "experiment-k3g5"
    k, g = 3, 5
    ROUND = 5
    workers = 1
    block, repeats = 8, 2

    def __init__(self, seed: int, workdir: Path):
        self.base = base_seed(self.name, seed)

    def run_round(self, r: int, workers: int) -> Round:
        spec = BatchSpec(k=self.k, g=self.g, count=self.ROUND,
                         base_seed=self.base + r * self.ROUND)
        t0 = time.perf_counter()
        try:
            stats = mucnf.experiment.run_batch(spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            stats = None
        return Round(time.perf_counter() - t0, 1, (spec, stats))

    def check(self, rnd: Round) -> List[Outcome]:
        spec, stats = rnd.raw
        if stats is None:
            return [Outcome(math.nan, True, False)] * spec.count
        outcomes = []
        for i, rec in enumerate(stats.per_formula):
            inst = reference(self.k, self.g, spec.base_seed + i)
            ok = inst is not None and rec.seed == inst.seed and rec.completed
            if ok:
                bitmap = inst.deletion_bitmap()
                ok = (rec.clause_count == len(inst.clauses)
                      and rec.deletion_bitmap == bitmap
                      and rec.sat_number == bitmap.count("1")
                      and rec.is_mu == ("0" not in bitmap))
            outcomes.append(Outcome(rec.millis, True, ok))
        return outcomes


class TrendK3Deep:
    """CLI `trend -k 3 -g 8,10 -n 2 --timing`, on a pool of 2 workers."""

    name = "trend-k3-deep"
    k = 3
    G = (8, 10)
    N = 2
    workers = 2
    block, repeats = 1, 1

    def __init__(self, seed: int, workdir: Path):
        self.base = base_seed(self.name, seed)
        self.csv_path = workdir / "trend.csv"

    def run_round(self, r: int, workers: int) -> Round:
        base = self.base + r * self.N * len(self.G)
        argv = ["trend", "-k", str(self.k), "-g", ",".join(map(str, self.G)),
                "-n", str(self.N), "--base-seed", str(base),
                "--parallelism", str(workers), "--csv", str(self.csv_path), "--timing"]
        t0 = time.perf_counter()
        rc, _ = call_cli(argv)
        wall = time.perf_counter() - t0
        text = self.csv_path.read_text() if rc == 0 else ""
        return Round(wall, workers, (base, rc, text))

    def check(self, rnd: Round) -> List[Outcome]:
        base, rc, text = rnd.raw
        lines = text.splitlines()
        split = lines.index(SUMMARY_HEADER) if SUMMARY_HEADER in lines else len(lines)
        rows = {(int(r["g"]), int(r["seed"])): r for r in csv.DictReader(lines[:split])}
        summaries = {int(r["g"]): r for r in csv.DictReader(lines[split:])}
        outcomes = []
        for j, g in enumerate(self.G):
            seeds = [base + j * self.N + i for i in range(self.N)]
            got = [rows.get((g, s)) for s in seeds]
            summary_ok = None not in got and self._summary_ok(summaries.get(g), got)
            for seed, row in zip(seeds, got):
                if row is None:
                    outcomes.append(Outcome(math.nan, g == self.G[-1], False))
                    continue
                inst = reference(self.k, g, seed)
                ok = summary_ok and inst is not None and row.get("solve_millis")
                if ok:
                    bitmap = inst.deletion_bitmap()
                    ok = (row["clause_count"] == str(len(inst.clauses))
                          and row["satisfiability_number"] == str(bitmap.count("1"))
                          and row["is_mu"] == ("false" if "0" in bitmap else "true"))
                ms = float(row["solve_millis"]) if ok else math.nan
                outcomes.append(Outcome(ms, g == self.G[-1], bool(ok)))
        return outcomes

    def _summary_ok(self, summary: Optional[dict], rows: List[dict]) -> bool:
        """The summary row equals one recomputed from the per-formula rows."""
        if summary is None:
            return False
        done = [r for r in rows if r["satisfiability_number"] != ""]
        sat = [int(r["satisfiability_number"]) for r in done]
        if int(summary["count"]) != len(rows) or int(summary["completed"]) != len(done):
            return False
        mu = 100.0 * sum(r["is_mu"] == "true" for r in done) / len(done) if done else 0.0
        expect = [(summary["mu_percent"], mu, 0.005)]
        if sat:
            std = statistics.stdev(sat) if len(sat) > 1 else 0.0
            expect += [(summary["mean_sat_no"], statistics.fmean(sat), 0.00005),
                       (summary["std_dev_sat_no"], std, 0.00005)]
        return all(text != "" and abs(float(text) - value) <= tol + 1e-9
                   for text, value, tol in expect)


class CheckMuPhp:
    """CLI `check-mu` on renamed, reshuffled PHP(h+1, h) files, h = 5 and 6."""

    name = "check-mu-php"
    HOLES = (5, 6)
    POOL = 24          # file pairs written at set-up; round r uses pair r mod POOL
    workers = 1
    block, repeats = 2, 3

    def __init__(self, seed: int, workdir: Path):
        self.files: List[List[Tuple[Path, int, int]]] = []
        for p in range(self.POOL):
            pair = []
            for h in self.HOLES:
                rng = random.Random(f"{self.name}/{seed}/{p}/{h}")
                n, clauses = oracle.pigeonhole(h)
                names = list(range(1, n + 1))
                rng.shuffle(names)
                clauses = [[names[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in c]
                           for c in clauses]
                rng.shuffle(clauses)
                path = workdir / f"php{h}-{p:02d}.cnf"
                path.write_text(f"c PHP({h + 1},{h}) renamed\np cnf {n} {len(clauses)}\n"
                                + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
                pair.append((path, h, len(clauses)))
            self.files.append(pair)

    def run_round(self, r: int, workers: int) -> Round:
        raw = []
        for path, h, m in self.files[r % self.POOL]:
            t0 = time.perf_counter()
            rc, out = call_cli(["check-mu", str(path)])
            raw.append((h, m, rc, out, time.perf_counter() - t0))
        return Round(sum(item[-1] for item in raw), 1, raw)

    def check(self, rnd: Round) -> List[Outcome]:
        # every PHP(h+1, h) is MU, whatever the variable names and clause order
        return [
            Outcome(dt * 1000.0, h == self.HOLES[-1],
                    rc == 0 and out.splitlines() == [
                        f"MU: yes, satisfiability number {m}/{m}", "deletions: " + "1" * m])
            for h, m, rc, out, dt in rnd.raw
        ]


WORKLOADS = {w.name: w for w in (ExperimentK3G5, TrendK3Deep, CheckMuPhp)}
