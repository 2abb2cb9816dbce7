import concurrent.futures
import io
import statistics

import pytest

import mucnf.cli
import mucnf.experiment
from mucnf.experiment import BatchSpec, format_table, run_batch, trend_study, write_csv
from mucnf.generator import GeneratorParams


def small_spec(**overrides):
    base = dict(k=2, g=2, count=6, base_seed=100)
    base.update(overrides)
    return BatchSpec(**base)


class TestBatchSpec:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            BatchSpec(3, 5, 0, 1)

    @pytest.mark.parametrize("base_seed,count", [(-1, 1), (2**64 - 1, 2), (2**64, 1)])
    def test_rejects_seeds_beyond_64_bits(self, base_seed, count):
        with pytest.raises(ValueError, match=f"base seed {base_seed} with count {count}"):
            BatchSpec(3, 5, count, base_seed)

    def test_accepts_the_last_64_bit_seeds(self):
        assert BatchSpec(3, 5, 2, 2**64 - 2).base_seed == 2**64 - 2

    @pytest.mark.parametrize("k,g,message", [(1, 5, "k must be >= 2, got 1"),
                                             (3, 0, "g must be >= 1, got 0")])
    def test_rejects_what_the_generator_rejects(self, k, g, message):
        with pytest.raises(ValueError) as generator:
            GeneratorParams(k, g, 0)
        assert str(generator.value) == message
        with pytest.raises(ValueError) as spec:
            BatchSpec(k, g, 2, 0)
        assert str(spec.value) == message

    def test_bad_k_forks_no_pool(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for an invalid spec")

        # _run_specs imports the pool class when it needs one, so patch its home
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="k must be >= 2, got 1"):
            run_batch(BatchSpec(1, 5, 2, 0), parallelism=2)
        with pytest.raises(ValueError, match="k must be >= 2, got 1"):
            trend_study(1, [5], 2, 0, parallelism=2)
        argv = ["experiment", "-k", "1", "-g", "5", "-n", "2", "--parallelism", "2",
                "--base-seed", "0"]
        assert mucnf.cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: k must be >= 2, got 1"


class TestRunBatch:
    def test_rejects_zero_parallelism(self):
        with pytest.raises(ValueError, match="parallelism must be >= 1, got 0"):
            run_batch(BatchSpec(3, 5, 1, 1), parallelism=0)
        with pytest.raises(ValueError, match="parallelism must be >= 1, got -1"):
            trend_study(3, [5], 1, 1, parallelism=-1)

    def test_single_mu_formula_statistics(self):
        # seed chosen so the single formula is MU: degenerate statistics
        stats = run_batch(BatchSpec(2, 1, 1, 3))
        assert stats.count == 1
        assert stats.mu_percent == 100.0
        assert stats.mean_sat_no == stats.clause_number
        assert stats.std_dev_sat_no == 0.0

    def test_aggregates_recompute_from_records(self):
        stats = run_batch(small_spec(count=12))
        sat_numbers = [r.sat_number for r in stats.per_formula]
        assert stats.mean_sat_no == statistics.fmean(sat_numbers)
        assert stats.std_dev_sat_no == statistics.stdev(sat_numbers)
        mu = sum(1 for r in stats.per_formula if r.is_mu)
        assert stats.mu_percent == 100.0 * mu / stats.count

    def test_seeds_derive_from_base(self):
        stats = run_batch(small_spec())
        assert [r.seed for r in stats.per_formula] == [100 + i for i in range(6)]

    def test_deterministic_modulo_timing(self):
        a = run_batch(small_spec())
        b = run_batch(small_spec())
        strip = lambda s: [
            (r.index, r.seed, r.sat_number, r.is_mu, r.deletion_bitmap)
            for r in s.per_formula
        ]
        assert strip(a) == strip(b)
        assert (a.mu_percent, a.mean_sat_no, a.std_dev_sat_no) == (
            b.mu_percent, b.mean_sat_no, b.std_dev_sat_no,
        )

    def test_parallel_matches_serial(self):
        a = run_batch(small_spec(count=4))
        b = run_batch(small_spec(count=4), parallelism=2)
        assert [r.sat_number for r in a.per_formula] == [r.sat_number for r in b.per_formula]

    def test_pool_never_larger_than_the_batch(self, monkeypatch):
        # the pool forks all its workers at the first submit, so more
        # workers than formulas would fork idle processes
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

            def shutdown(self, cancel_futures=False):
                pass

        # _run_specs imports the pool class when it needs one, so patch its home
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        stats = run_batch(small_spec(count=3), parallelism=8)
        assert sizes == [3]
        assert len(stats.per_formula) == 3
        trend_study(2, [1, 2], 2, 0, parallelism=3)
        assert sizes == [3, 3]
        run_batch(small_spec(count=1), parallelism=4)  # one formula: no pool
        assert sizes == [3, 3]

    def test_polarity_split_rates(self):
        stats = run_batch(small_spec(count=10))
        assert 0.0 <= stats.pos_deletion_sat_rate <= 1.0
        assert 0.0 <= stats.neg_deletion_sat_rate <= 1.0


class TestTrendStudy:
    def test_rejects_descending(self):
        with pytest.raises(ValueError, match="ascending"):
            trend_study(2, [3, 2], 1, 0)

    def test_rejects_empty_g_list(self):
        with pytest.raises(ValueError, match="empty"):
            trend_study(2, [], 1, 0)

    def test_one_row_per_g(self):
        rows = trend_study(2, [1, 2], 3, 50)
        assert [r.g for r in rows] == [1, 2]
        assert all(r.count == 3 for r in rows)

    def test_parallel_matches_serial(self):
        def rows(stats):
            return [(s.g, [(r.seed, r.deletion_bitmap) for r in s.per_formula])
                    for s in stats]

        serial = trend_study(2, [1, 2, 3], 4, 20)
        assert rows(trend_study(2, [1, 2, 3], 4, 20, parallelism=2)) == rows(serial)

    def test_degenerate_single_g(self):
        rows = trend_study(3, [1], 2, 9)
        assert len(rows) == 1
        assert rows[0].clause_number == 20


class TestOutput:
    def test_table_contains_row(self):
        stats = run_batch(small_spec(count=2))
        table = format_table([stats])
        assert "clauses" in table
        assert f"{stats.clause_number}" in table

    def test_csv_schema(self):
        stats = run_batch(small_spec(count=2))
        buf = io.StringIO()
        write_csv([stats], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,g,seed,clause_count,satisfiability_number,is_mu"
        assert len(lines) == 1 + 2 + 1 + 1  # header, rows, summary header, summary
        assert lines[3] == "k,g,count,completed,mu_percent,mean_sat_no,std_dev_sat_no"
        assert lines[4].startswith("2,2,2,2,")  # every formula is decided

    def test_csv_timing_column_optional(self):
        stats = run_batch(small_spec(count=1))
        buf = io.StringIO()
        write_csv([stats], buf, timing=True)
        assert buf.getvalue().splitlines()[0].endswith(",solve_millis")

    def test_csv_byte_deterministic(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv([run_batch(small_spec(count=3))], buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
