"""mucnf benchmark: MU-analysis throughput through the public entry points.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

NAME is experiment-k3g5, trend-k3-deep or check-mu-php (see README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 each
round runs once untraced and once under the timing wrappers of spans.py,
and the run reports the per-layer split and the tracing overhead. Every
operation is checked against oracle.py. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
P95_MIN_FORMULAS = 200
NAMES = ("experiment-k3g5", "trend-k3-deep", "check-mu-php")

# per-layer metrics that every workload exercises; the rest are printed only
PER_LAYER_JSON = (
    "solver.solve_calls", "solver.solve_ms", "solver.ms_per_solve",
    "solver.sat_verdicts", "solver.decisions", "solver.propagations",
    "solver.conflicts", "mu.delete_clause_calls", "mu.delete_clause_ms",
    "mu.analyze_mu_self_ms", "mu.solves_per_formula", "cnf.evaluate_calls",
    "cnf.evaluate_ms", "trace.formulas", "trace.overhead_pct",
)


def setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of import mucnf + preparing the inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def end_to_end(outcomes, wall: float, setup: float) -> dict:
    good = [o for o in outcomes if o.ok]
    deep = [o.ms for o in good if o.deep]
    return {
        "formulas_per_s": (len(good) / wall, "formulas/s"),
        "formula_ms_p50": (statistics.median(deep) if deep else float("nan"), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(t, pairs, untraced_rounds) -> dict:
    solves = t.calls["solver.solve"]
    formulas = t.calls["mu.analyze_mu"]
    both = [(u.ms, v.ms) for u, v in pairs if u.ok and v.ok]
    overhead = 100.0 * (sum(v for _, v in both) / sum(u for u, _ in both) - 1) if both else 0.0
    busy = sum(o.ms for rnd, outs in untraced_rounds for o in outs if o.ok) / \
        sum(rnd.wall * rnd.workers * 1000.0 for rnd, _ in untraced_rounds)
    return {
        "solver.solve_calls": (solves, "count"),
        "solver.solve_ms": (t.ms("solver.solve"), "ms"),
        "solver.ms_per_solve": (t.ms("solver.solve") / max(solves, 1), "ms"),
        "solver.sat_verdicts": (t.counts["sat_verdicts"], "count"),
        "solver.decisions": (t.counts["decisions"], "count"),
        "solver.propagations": (t.counts["propagations"], "count"),
        "solver.conflicts": (t.counts["conflicts"], "count"),
        "mu.delete_clause_calls": (t.calls["mu.delete_clause"], "count"),
        "mu.delete_clause_ms": (t.ms("mu.delete_clause"), "ms"),
        "mu.analyze_mu_self_ms": (t.self_ms("mu.analyze_mu"), "ms"),
        "mu.solves_per_formula": (solves / max(formulas, 1), "count"),
        "cnf.evaluate_calls": (t.calls["cnf.evaluate"], "count"),
        "cnf.evaluate_ms": (t.ms("cnf.evaluate"), "ms"),
        "cnf.read_dimacs_ms": (t.ms("cnf.read_dimacs"), "ms"),
        "cnf.dimacs_bytes_read": (t.counts["dimacs_bytes_read"], "bytes"),
        "generator.build_instance_ms": (t.ms("generator.build_instance"), "ms"),
        "rng.permutation_ms": (t.ms("rng.permutation"), "ms"),
        "experiment.run_batch_ms": (t.ms("experiment.run_batch"), "ms"),
        "experiment.aggregate_ms": (t.self_ms("experiment.run_batch"), "ms"),
        "experiment.write_csv_ms": (t.ms("experiment.write_csv"), "ms"),
        "experiment.pool_busy_share": (busy, "share"),
        "cli.main_self_ms": (t.self_ms("cli.main"), "ms"),
        "trace.formulas": (formulas, "count"),
        "trace.overhead_pct": (overhead, "%"),
    }


def measure(w, seconds: float):
    """Untraced rounds, in blocks of w.block rounds run w.repeats times over.

    A round's repeats are a whole block pass apart, so they fall in different
    stretches of the host's load. The round's time is its fastest repeat and
    an operation's time its fastest analysis; every repeat is checked.
    Returns (all outcomes, best outcomes, best wall, total wall, rounds).
    """
    outcomes, best = [], []
    wall = best_wall = 0.0
    r = 0
    while wall < seconds:
        block = range(r, r + w.block)
        passes = [[w.run_round(i, w.workers) for i in block] for _ in range(w.repeats)]
        for reps in zip(*passes):
            checks = [w.check(rnd) for rnd in reps]
            for outs in checks:
                outcomes += outs
            wall += sum(rnd.wall for rnd in reps)
            best_wall += min(rnd.wall for rnd in reps)
            best += [replace(ops[0], ms=min(o.ms for o in ops), ok=all(o.ok for o in ops))
                     for ops in zip(*checks)]
        r += w.block
    return outcomes, best, best_wall, wall, r


def measure_traced(w, seconds: float, tracer):
    """Each round untraced as in measure(), then serially under the tracer.

    Traced rounds are serial, since pool workers cannot report spans, so the
    overhead is taken against a serial untraced run of the same round.
    Returns (all outcomes, (untraced, traced) outcome pairs,
    [(untraced round, its outcomes)], total wall, rounds).
    """
    outcomes, pairs, untraced_rounds = [], [], []
    wall = 0.0
    r = 0
    while wall < seconds:
        rnd = w.run_round(r, w.workers)
        outs = w.check(rnd)
        untraced_rounds.append((rnd, outs))
        runs = [(rnd, outs)]
        if rnd.workers > 1:
            serial = w.run_round(r, 1)
            runs.append((serial, w.check(serial)))
        with tracer.installed():
            trnd = w.run_round(r, 1)
        runs.append((trnd, w.check(trnd)))
        for x, outs in runs:
            outcomes += outs
            wall += x.wall
        pairs += zip(runs[-2][1], runs[-1][1])
        r += 1
    return outcomes, pairs, untraced_rounds, wall, r


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    setup = setup_seconds(name, seed, workdir)
    w = workloads.WORKLOADS[name](seed, workdir)
    selfcheck = workloads.oracle_agrees_with_brute_force(seed)

    if traced:
        tracer = Tracer()
        outcomes, pairs, untraced_rounds, wall, r = measure_traced(w, seconds, tracer)
        metrics = per_layer(tracer, pairs, untraced_rounds)
        shown = PER_LAYER_JSON
    else:
        outcomes, best, best_wall, wall, r = measure(w, seconds)
        metrics = end_to_end(best, best_wall, setup)
        shown = tuple(metrics)
    failed = sum(not o.ok for o in outcomes)

    print(f"workload {name}  seed {seed}  trace {int(traced)}  rounds {r}  "
          f"program wall {wall:.2f} s")
    if not selfcheck:
        print("  ORACLE SELF-CHECK FAILED: max-flow verdicts differ from solve_brute_force")
    for key, (value, unit) in metrics.items():
        print(f"  {key:30s} {value:14.4f} {unit}")
    if not traced:
        good = sorted(o.ms for o in best if o.ok)
        if len(good) >= P95_MIN_FORMULAS:
            p95 = statistics.quantiles(good, n=100, method="inclusive")[94]
            print(f"  {'formula_ms_p95':30s} {p95:14.4f} ms  (n={len(good)})")
        else:
            print(f"  {'formula_ms_p95':30s} {'-':>14} ms  (n={len(good)} < {P95_MIN_FORMULAS})")
    print(f"  operations attempted {len(outcomes)}, failed {failed}")
    return {
        "correct": selfcheck and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in shown},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mucnf" / "__init__.py").is_file():
        print(f"error: no mucnf sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    t0 = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"  benchmark process time {time.perf_counter() - t0:.1f} s")
    text = json.dumps(result)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
