"""Registry semantics: buckets, reservoirs, exposition, no-op mode."""

import pytest

from repro.core.errors import TerpError
from repro.obs import Observability
from repro.obs.registry import (
    NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, Histogram,
    MetricsRegistry, Reservoir)


class TestHistogramBuckets:
    def test_bucket_edges_are_le_inclusive(self):
        """A value equal to an upper bound counts in that bucket,
        Prometheus ``le`` (less-or-equal) semantics."""
        hist = Histogram("h", buckets=(10, 100, 1000))
        for value in (10, 100, 1000):
            hist.observe(value)
        counts = dict(hist.bucket_counts())
        assert counts["10"] == 1          # exactly 10 is <= 10
        assert counts["100"] == 2
        assert counts["1000"] == 3
        assert counts["+Inf"] == 3

    def test_values_between_and_beyond_bounds(self):
        hist = Histogram("h", buckets=(10, 100, 1000))
        for value in (1, 11, 99, 101, 5_000):
            hist.observe(value)
        counts = dict(hist.bucket_counts())
        assert counts["10"] == 1          # just 1
        assert counts["100"] == 3         # 1, 11, 99
        assert counts["1000"] == 4        # + 101
        assert counts["+Inf"] == 5        # + 5000 in the overflow
        assert hist.count == 5
        assert hist.max_value == 5_000

    def test_cumulative_monotonic(self):
        hist = Histogram("h", buckets=(10, 100, 1000))
        for value in range(0, 2000, 7):
            hist.observe(value)
        cumulative = [n for _, n in hist.bucket_counts()]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.count

    def test_rejects_unsorted_or_duplicate_buckets(self):
        with pytest.raises(TerpError):
            Histogram("h", buckets=(100, 10))
        with pytest.raises(TerpError):
            Histogram("h", buckets=(10, 10, 100))
        with pytest.raises(TerpError):
            Histogram("h", buckets=())


class TestReservoir:
    def test_deterministic_under_seeded_rng(self):
        """Two reservoirs fed the same overflow sequence keep
        bit-identical samples — percentiles reproduce run to run."""
        a = Reservoir(64, seed=42)
        b = Reservoir(64, seed=42)
        values = [(i * 2654435761) % 100_000 for i in range(5_000)]
        for value in values:
            a.record(value)
            b.record(value)
        assert a.samples == b.samples
        for p in (0, 50, 90, 99, 100):
            assert a.percentile(p) == b.percentile(p)
        # A different seed diverges once eviction starts.
        c = Reservoir(64, seed=43)
        for value in values:
            c.record(value)
        assert c.samples != a.samples

    def test_exact_below_capacity(self):
        res = Reservoir(100, seed=1)
        for value in range(50):
            res.record(value)
        assert sorted(res.samples) == list(range(50))
        assert res.count == 50
        assert res.total == sum(range(50))
        assert res.max_value == 49
        assert res.percentile(0) == 0
        assert res.percentile(100) == 49

    def test_percentiles_exact_below_capacity(self):
        res = Reservoir(1000, seed=1)
        for value in range(1, 101):
            res.record(value)
        assert res.count == 100
        assert res.percentile(0) == 1
        assert res.percentile(100) == 100
        assert 49 <= res.percentile(50) <= 51
        assert res.max_value == 100
        assert res.mean == pytest.approx(50.5)

    def test_reservoir_stays_bounded_and_representative(self):
        res = Reservoir(64, seed=3)
        for value in range(10_000):
            res.record(value)
        assert res.count == 10_000
        assert len(res.samples) == 64
        # A uniform 0..10k population: the sampled median should not
        # collapse to either extreme.
        assert 1_000 < res.percentile(50) < 9_000

    def test_totals_exact_beyond_capacity(self):
        res = Reservoir(16, seed=5)
        for value in range(1, 1001):
            res.record(value)
        assert res.count == 1000
        assert res.total == 500_500       # exact even though sampled
        assert res.max_value == 1000
        assert len(res.samples) == 16

    def test_percentile_bounds_checked(self):
        res = Reservoir(4, seed=1)
        res.record(1)
        with pytest.raises(TerpError):
            res.percentile(101)
        assert Reservoir(4, seed=1).percentile(50) is None


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", labels={"x": "1"}) is not reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("dual")
        with pytest.raises(TerpError):
            reg.gauge("dual")
        with pytest.raises(TerpError):
            reg.histogram("dual")

    def test_noop_mode_hands_out_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is NULL_COUNTER
        assert reg.gauge("g") is NULL_GAUGE
        assert reg.histogram("h") is NULL_HISTOGRAM
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(123)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0
        assert reg.to_dict() == {"counters": {}, "gauges": {},
                                 "histograms": {}}
        assert reg.prometheus_text() == ""

    def test_counter_monotonic(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(TerpError):
            counter.inc(-1)

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("reqs", "total requests").inc(7)
        reg.gauge("open", "open things").set(3)
        hist = reg.histogram("lat", "latency", buckets=(10, 100))
        hist.observe(5)
        hist.observe(50)
        hist.observe(5_000)
        text = reg.prometheus_text()
        assert "# HELP reqs total requests" in text
        assert "# TYPE reqs counter" in text
        assert "reqs 7" in text
        assert "# TYPE open gauge" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="100"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5055" in text
        assert "lat_count 3" in text
        assert text.endswith("\n")

    def test_labelled_series_render(self):
        reg = MetricsRegistry()
        reg.counter("op", labels={"op": "attach"}).inc(2)
        reg.counter("op", labels={"op": "detach"}).inc(3)
        text = reg.prometheus_text()
        assert 'op{op="attach"} 2' in text
        assert 'op{op="detach"} 3' in text
        # One TYPE header for the family, not one per series.
        assert text.count("# TYPE op counter") == 1


class TestObservabilityBundle:
    def test_noop_bundle_disables_everything(self):
        obs = Observability.noop()
        assert not obs.enabled
        assert not obs.registry.enabled
        assert not obs.tracer.enabled
        assert not obs.audit.enabled
        dump = obs.dump()
        assert dump["enabled"] is False
        assert dump["audit"]["events"] == 0

    def test_dump_merges_extra(self):
        obs = Observability()
        obs.registry.counter("c").inc()
        dump = obs.dump(extra={"custom": 1})
        assert dump["custom"] == 1
        assert dump["metrics"]["counters"]["c"] == 1
