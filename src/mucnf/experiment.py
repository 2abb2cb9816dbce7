"""Batch harness: generate many instances per (k, g), analyze each for
minimal unsatisfiability, and aggregate MU percent plus satisfiability
number statistics.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import IO, List, Sequence

# generate, analyze_mu and make_backend are not called here: perfbench/spans.py
# looks them up on this module when it traces a run
from .generator import GeneratorParams, build_instance, generate
from .mu import analyze_cells, analyze_mu
from .solver import make_backend


@dataclass(frozen=True)
class BatchSpec:
    """One experiment row: `count` formulas at (k, g), seeds base_seed + index."""

    k: int
    g: int
    count: int
    base_seed: int
    parallelism: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass
class FormulaRecord:
    index: int
    seed: int
    clause_count: int
    sat_number: int
    is_mu: bool
    deletion_bitmap: str
    millis: float
    # always True: analyze_cells decides every deletion; perfbench/workloads.py
    # still reads it
    completed: bool = True


@dataclass
class BatchStats:
    """Aggregates over the formulas of one batch.

    Standard deviation is the sample standard deviation (divisor n-1).
    Positive/negative deletion rates split the per-clause outcomes at the
    formula's polarity boundary (first half all-positive clauses, second
    half all-negative).
    """

    k: int
    g: int
    count: int
    clause_number: int
    mu_percent: float
    mean_sat_no: float
    std_dev_sat_no: float
    pos_deletion_sat_rate: float
    neg_deletion_sat_rate: float
    elapsed: float
    per_formula: List[FormulaRecord] = field(default_factory=list)


def _run_one(args) -> FormulaRecord:
    index, spec = args
    seed = spec.base_seed + index
    instance = build_instance(GeneratorParams(spec.k, spec.g, seed))
    t0 = time.perf_counter()
    report = analyze_cells(instance, keep_witnesses=False)
    millis = (time.perf_counter() - t0) * 1000.0
    return FormulaRecord(
        index=index,
        seed=seed,
        clause_count=report.clause_count,
        sat_number=report.sat_number,
        is_mu=report.is_mu,
        deletion_bitmap=report.deletion_bitmap(),
        millis=millis,
    )


def _run_specs(specs: Sequence[BatchSpec]) -> List[BatchStats]:
    """Analyze every formula of every spec, in order, on one pool of workers.

    The specs share one parallelism, capped at the number of formulas: the
    pool forks all its workers at the first submit. A row's `elapsed` runs
    from the start until its last formula is done.
    """
    t0 = time.perf_counter()
    jobs = [(i, spec) for spec in specs for i in range(spec.count)]
    parallelism = min(max((spec.parallelism for spec in specs), default=1), len(jobs))
    with contextlib.ExitStack() as stack:
        if parallelism > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=parallelism))
            # on an error, drop the queued formulas of every row
            stack.callback(pool.shutdown, cancel_futures=True)
            records = pool.map(_run_one, jobs)
        else:
            records = map(_run_one, jobs)
        return [
            _aggregate(spec, list(itertools.islice(records, spec.count)), t0)
            for spec in specs
        ]


def _aggregate(spec: BatchSpec, records: List[FormulaRecord], t0: float) -> BatchStats:
    clause_number = GeneratorParams(spec.k, spec.g, spec.base_seed).num_clauses
    sat_numbers = [r.sat_number for r in records]
    half = clause_number // 2
    pos_sat = sum(r.deletion_bitmap[:half].count("1") for r in records)
    neg_sat = sum(r.deletion_bitmap[half:].count("1") for r in records)
    return BatchStats(
        k=spec.k,
        g=spec.g,
        count=spec.count,
        clause_number=clause_number,
        mu_percent=100.0 * sum(1 for r in records if r.is_mu) / len(records),
        mean_sat_no=statistics.fmean(sat_numbers),
        std_dev_sat_no=statistics.stdev(sat_numbers) if len(sat_numbers) > 1 else 0.0,
        pos_deletion_sat_rate=pos_sat / (half * len(records)),
        neg_deletion_sat_rate=neg_sat / (half * len(records)),
        elapsed=time.perf_counter() - t0,
        per_formula=records,
    )


def run_batch(spec: BatchSpec) -> BatchStats:
    """Analyze `spec.count` formulas; deterministic apart from timings."""
    return _run_specs([spec])[0]


def trend_study(
    k: int,
    g_values: Sequence[int],
    count: int,
    base_seed: int,
    parallelism: int = 1,
) -> List[BatchStats]:
    """One batch per g, ascending; row i draws seeds from base_seed + i*count.

    All rows share one pool of `parallelism` workers.
    """
    if not g_values:
        raise ValueError("g values must not be empty")
    if list(g_values) != sorted(g_values):
        raise ValueError("g values must be ascending")
    specs = [
        BatchSpec(k=k, g=g, count=count, base_seed=base_seed + i * count,
                  parallelism=parallelism)
        for i, g in enumerate(g_values)
    ]
    return _run_specs(specs)


def format_table(rows: Sequence[BatchStats]) -> str:
    """Human-readable table mirroring the experiment columns."""
    header = (
        f"{'k':>3} {'g':>4} {'clauses':>8} {'MU %':>7} "
        f"{'mean sat no':>12} {'std dev':>8} {'pos rate':>9} {'neg rate':>9}"
    )
    lines = [header]
    for s in rows:
        lines.append(
            f"{s.k:>3} {s.g:>4} {s.clause_number:>8} {s.mu_percent:>7.1f} "
            f"{s.mean_sat_no:>12.2f} {s.std_dev_sat_no:>8.2f} "
            f"{s.pos_deletion_sat_rate:>9.4f} {s.neg_deletion_sat_rate:>9.4f}"
        )
    return "\n".join(lines)


def write_csv(rows: Sequence[BatchStats], fh: IO[str], timing: bool = False) -> None:
    """Per-formula rows then one summary row per batch.

    Timing columns are opt-in so the default output is byte-identical
    across reruns of the same spec. Every formula is decided, so the
    summary's `completed` column equals `count`.
    """
    cols = ["k", "g", "seed", "clause_count", "satisfiability_number", "is_mu"]
    if timing:
        cols.append("solve_millis")
    fh.write(",".join(cols) + "\n")
    for s in rows:
        for r in s.per_formula:
            row = [str(s.k), str(s.g), str(r.seed), str(r.clause_count),
                   str(r.sat_number), str(r.is_mu).lower()]
            if timing:
                row.append(f"{r.millis:.1f}")
            fh.write(",".join(row) + "\n")
    fh.write("k,g,count,completed,mu_percent,mean_sat_no,std_dev_sat_no\n")
    for s in rows:
        fh.write(
            f"{s.k},{s.g},{s.count},{s.count},{s.mu_percent:.2f},"
            f"{s.mean_sat_no:.4f},{s.std_dev_sat_no:.4f}\n"
        )
