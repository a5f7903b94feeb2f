"""Log2-bucket latency histograms (`repro.obs.hist`).

The load-bearing contract is the within-one-bucket guarantee: every
quantile estimate is the midpoint of the bucket holding the exact
nearest-rank order statistic, so it can never be more than one log2
bucket (a factor of two) away from the true value.  The serving bench
(`repro.bench.serving_load`) reports p50/p99/p999 from this sketch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs.hist import UNDERFLOW_BUCKET, LogHistogram, bucket_index


def exact_nearest_rank(values, q):
    """The ceil(q*n)-th smallest sample — the rule the sketch mirrors."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestBucketIndex:
    def test_bucket_covers_half_open_power_of_two_interval(self):
        # Bucket e covers [2**(e-1), 2**e).
        assert bucket_index(1.0) == 1
        assert bucket_index(1.999) == 1
        assert bucket_index(2.0) == 2
        assert bucket_index(0.5) == 0
        assert bucket_index(0.75) == 0
        assert bucket_index(0.25) == -1

    def test_zero_and_negative_land_in_underflow_bucket(self):
        assert bucket_index(0.0) == UNDERFLOW_BUCKET
        assert bucket_index(-3.0) == UNDERFLOW_BUCKET

    def test_boundaries_are_exact_not_log_rounded(self):
        # frexp-based binning: exact powers of two open a new bucket,
        # the largest float below stays in the previous one.
        for e in (-30, -5, 0, 7, 40):
            edge = math.ldexp(1.0, e)
            assert bucket_index(edge) == e + 1
            assert bucket_index(math.nextafter(edge, 0.0)) == e


class TestRecordAndStats:
    def test_count_sum_min_max_mean_are_exact(self):
        hist = LogHistogram()
        values = [0.004, 0.1, 3.0, 0.004, 250.0]
        hist.record_many(values)
        assert hist.count == len(hist) == 5
        assert hist.sum == pytest.approx(sum(values))
        assert hist.min == min(values)
        assert hist.max == max(values)
        assert hist.mean() == pytest.approx(sum(values) / 5)

    def test_empty_histogram(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.buckets() == []

    def test_zero_samples_are_kept_not_dropped(self):
        # Queue waits of exactly 0 s are common on idle replicas.
        hist = LogHistogram()
        hist.record_many([0.0, 0.0, 0.0, 5.0])
        assert hist.count == 4
        assert hist.quantile(0.5) == 0.0  # underflow bucket midpoint
        assert hist.quantile(1.0) == 5.0

    def test_quantile_rejects_out_of_range(self):
        hist = LogHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_quantile_endpoints_are_exact_min_max(self):
        hist = LogHistogram()
        hist.record_many([0.3, 0.9, 7.0])
        assert hist.quantile(0.0) == 0.3
        assert hist.quantile(1.0) == 7.0


class TestWithinOneBucket:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantile_within_one_bucket_of_exact(self, q, seed):
        # Log-uniform latencies spanning microseconds to seconds — the
        # shape serve latencies actually have (multimodal across batch
        # boundaries).
        rng = np.random.default_rng(seed)
        values = np.exp(rng.uniform(np.log(1e-6), np.log(2.0), size=4096))
        hist = LogHistogram()
        hist.record_many(values)
        estimate = hist.quantile(q)
        exact = exact_nearest_rank(values, q)
        # The estimate is the midpoint of the bucket holding the exact
        # nearest-rank statistic: same bucket, hence within a factor of
        # two, always.
        assert bucket_index(estimate) == bucket_index(exact)
        assert exact / 2 < estimate < exact * 2

    def test_quantiles_are_monotone_in_q(self):
        rng = np.random.default_rng(7)
        hist = LogHistogram()
        hist.record_many(rng.exponential(1e-3, size=1000))
        qs = [0.1, 0.5, 0.9, 0.99, 0.999]
        estimates = [hist.quantile(q) for q in qs]
        assert estimates == sorted(estimates)


class TestSerialization:
    def test_to_dict_is_deterministic_and_sorted(self):
        import json

        a, b = LogHistogram(), LogHistogram()
        for h in (a, b):
            h.record_many([5.0, 1e-5, 0.25])
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        keys = list(a.to_dict()["buckets"])
        assert keys == [str(k) for k in sorted(int(k) for k in keys)]


class TestServingLoadQuantiles:
    """Satellite contract: serve-bench percentiles come from the sketch."""

    def test_reported_percentiles_ordered_and_deterministic(self):
        from repro.bench.serving_load import run_serving_load

        kwargs = dict(replicas=2, batch_max=4, n_requests=24, seed=11)
        report = run_serving_load(**kwargs)
        again = run_serving_load(**kwargs)
        for config in (report.sequential, report.batched, report.scaled):
            assert (
                config.p50_latency
                <= config.p99_latency
                <= config.p999_latency
            )
            assert config.mean_latency > 0.0
            # p999 estimate can never exceed twice the true maximum
            # (within-one-bucket bound); the exact max bounds exactness.
            assert config.p999_latency < 2.0 * config.sim_makespan
        # Same seed, same sketch: byte-identical report payloads.
        assert report.to_dict() == again.to_dict()
