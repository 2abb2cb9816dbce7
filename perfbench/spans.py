"""Timing wrappers around the public functions each mucnf layer calls into.

The wrappers are installed by replacing module attributes (the names the
calling layer looks up at call time) and removed again on exit, so an
untraced round runs the program untouched. Spans are not kept one by one:
each wrapper adds its duration to a per-name total and to its parent's
child time, which is enough for totals and self times (duration minus the
part covered by child spans). Tracing only works in one process; pool
workers would record into their own copy of the tracer.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import mucnf.cli
import mucnf.experiment
import mucnf.generator
import mucnf.mu


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)   # seconds
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()   # SolveStats sums, verdicts, bytes
        self._child: List[float] = []       # child seconds of each open span

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """fn timed as span `name`; observe(args, result) runs outside the span."""
        def wrapped(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._child:
                    self._child[-1] += dt
            if observe is not None:
                observe(args, result)
            return result
        return wrapped

    def _observe_solve(self, args, result) -> None:
        self.counts["sat_verdicts"] += result.is_sat
        self.counts["decisions"] += result.stats.decisions
        self.counts["propagations"] += result.stats.propagations
        self.counts["conflicts"] += result.stats.conflicts

    def _observe_read(self, args, result) -> None:
        self.counts["dimacs_bytes_read"] += len(args[0].encode())

    def _backend(self, make_backend: Callable) -> Callable:
        """make_backend whose returned solve callable is a `solver.solve` span."""
        def wrapped(*args, **kwargs):
            return self.span("solver.solve", make_backend(*args, **kwargs), self._observe_solve)
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        patches = [
            (mucnf.cli, "main", self.span("cli.main", mucnf.cli.main)),
            (mucnf.cli, "read_dimacs",
             self.span("cnf.read_dimacs", mucnf.cli.read_dimacs, self._observe_read)),
            (mucnf.cli, "write_csv", self.span("experiment.write_csv", mucnf.cli.write_csv)),
            (mucnf.cli, "analyze_mu", self.span("mu.analyze_mu", mucnf.cli.analyze_mu)),
            (mucnf.cli, "make_backend", self._backend(mucnf.cli.make_backend)),
            (mucnf.experiment, "run_batch",
             self.span("experiment.run_batch", mucnf.experiment.run_batch)),
            (mucnf.experiment, "generate",
             self.span("experiment.generate", mucnf.experiment.generate)),
            (mucnf.experiment, "analyze_mu",
             self.span("mu.analyze_mu", mucnf.experiment.analyze_mu)),
            (mucnf.experiment, "make_backend", self._backend(mucnf.experiment.make_backend)),
            (mucnf.generator, "build_instance",
             self.span("generator.build_instance", mucnf.generator.build_instance)),
            (mucnf.generator, "permutation",
             self.span("rng.permutation", mucnf.generator.permutation)),
            (mucnf.mu, "delete_clause", self.span("mu.delete_clause", mucnf.mu.delete_clause)),
            (mucnf.mu, "evaluate", self.span("cnf.evaluate", mucnf.mu.evaluate)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def ms(self, name: str) -> float:
        return self.total[name] * 1000.0

    def self_ms(self, name: str) -> float:
        return self.self_time[name] * 1000.0
