"""Registry semantics: instruments, modes, snapshots, digests."""

import pytest

from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    SpanTracer,
    digest_view,
    get_registry,
    use_registry,
)
from repro.obs.metrics import SAMPLE_EVERY
from repro.utils.errors import ValidationError


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = MetricsRegistry().counter("repro_test_total")
        counter.inc()
        counter.inc(2.0)
        counter.inc(5.0, shard="a")
        assert counter.value() == 3.0
        assert counter.value(shard="a") == 5.0

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValidationError):
            counter.inc(-1.0)

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("repro_test_total")
        counter.inc(1.0, a="1", b="2")
        counter.inc(1.0, b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_test_depth")
        gauge.set(7.0)
        gauge.inc(3.0)
        gauge.dec()
        assert gauge.value() == 9.0


class TestHistogram:
    def test_observations_land_in_upper_inclusive_buckets(self):
        hist = MetricsRegistry().histogram(
            "repro_test_rows", buckets=(1.0, 10.0, 100.0)
        )
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count() == 5
        assert hist.sum() == 556.5
        series = hist.series_dicts()[0]
        assert series["bucket_counts"] == [2, 1, 1, 1]  # +overflow

    def test_quantile_is_monotone_and_positive(self):
        hist = MetricsRegistry().histogram(
            "repro_test_rows", buckets=DEFAULT_SIZE_BUCKETS
        )
        for value in (3, 5, 60, 200, 900):
            hist.observe(value)
        p50, p99 = hist.quantile(0.5), hist.quantile(0.99)
        assert 0.0 < p50 <= p99

    def test_quantile_of_empty_series_is_zero(self):
        hist = MetricsRegistry().histogram("repro_test_rows")
        assert hist.quantile(0.5) == 0.0

    def test_unsorted_buckets_raise(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().histogram("repro_test_rows", buckets=(2.0, 1.0))


class TestRegistration:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x_total") is registry.counter(
            "repro_x_total"
        )

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValidationError):
            registry.gauge("repro_x_total")

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_x", buckets=(1.0, 2.0))
        with pytest.raises(ValidationError):
            registry.histogram("repro_x", buckets=(1.0, 3.0))


class TestModes:
    def test_off_mode_noops_everything(self):
        registry = MetricsRegistry(mode="off")
        registry.counter("repro_x_total").inc(5.0)
        registry.gauge("repro_y").set(3.0)
        registry.histogram("repro_z").observe(1.0)
        registry.event("boom", reason="test")
        assert registry.counter("repro_x_total").value() == 0.0
        assert registry.histogram("repro_z").count() == 0
        assert registry.events == []

    def test_sample_mode_thins_histograms_only(self):
        registry = MetricsRegistry(mode="sample")
        hist = registry.histogram("repro_z")
        for _ in range(2 * SAMPLE_EVERY):
            hist.observe(1.0)
        registry.counter("repro_x_total").inc(5.0)
        assert hist.count() == 2  # every SAMPLE_EVERY-th observation
        assert registry.counter("repro_x_total").value() == 5.0

    def test_unknown_mode_raises(self):
        with pytest.raises(ValidationError):
            MetricsRegistry(mode="loud")


class TestEvents:
    def test_events_are_sequenced_and_bounded(self):
        registry = MetricsRegistry(event_capacity=2)
        for i in range(3):
            registry.event("tick", minute=float(i), index=i)
        assert [record.seq for record in registry.events] == [1, 2]
        assert registry.events_dropped == 1


class TestSnapshot:
    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "help text").inc(2.0, shard="0:4")
        registry.event("tick", minute=5.0)
        snapshot = registry.snapshot(run={"command": "test"})
        assert snapshot["format"] == MetricsRegistry.SNAPSHOT_FORMAT
        assert snapshot["run"] == {"command": "test"}
        (metric,) = snapshot["metrics"]
        assert metric["name"] == "repro_x_total"
        assert metric["samples"] == [
            {"labels": {"shard": "0:4"}, "value": 2.0}
        ]
        (event,) = snapshot["events"]
        assert event["name"] == "tick" and event["minute"] == 5.0

    def test_digest_excludes_wall_metrics_and_mode(self):
        def build(mode, wall_value):
            registry = MetricsRegistry(mode=mode)
            registry.counter("repro_rows_total").inc(10.0)
            registry.counter("repro_seconds_total", wall=True).inc(wall_value)
            return registry

        a = build("on", 1.25).snapshot_digest()
        b = build("sample", 99.0).snapshot_digest()
        assert a == b

    def test_digest_changes_with_deterministic_content(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_rows_total").inc(10.0)
        b.counter("repro_rows_total").inc(11.0)
        assert a.snapshot_digest() != b.snapshot_digest()

    def test_wall_fields_excluded_from_digest(self):
        registry = MetricsRegistry()
        run_a = {"preset": "tiny", "jobs": 1, "wall_fields": ["jobs"]}
        run_b = {"preset": "tiny", "jobs": 4, "wall_fields": ["jobs"]}
        assert registry.snapshot_digest(run_a) == registry.snapshot_digest(
            run_b
        )
        view = digest_view(registry.snapshot(run_a))
        assert view["run"] == {"preset": "tiny"}


class TestDefaultRegistry:
    def test_use_registry_swaps_and_restores(self):
        original = get_registry()
        fresh = MetricsRegistry()
        with use_registry(fresh) as active:
            assert active is fresh
            assert get_registry() is fresh
        assert get_registry() is original


class TestSpanTracer:
    def test_virtual_clock_spans_are_deterministic(self):
        ticks = iter([0.0, 5.0, 5.0, 7.5])
        tracer = SpanTracer(clock=lambda: next(ticks))
        with tracer.span("simulate"):
            pass
        with tracer.span("sample"):
            pass
        assert tracer.seconds == {"simulate": 5.0, "sample": 2.5}
        assert tracer.counts == {"simulate": 1, "sample": 1}

    def test_imperative_start_switch_stop(self):
        # switch() reads the clock twice: once to close "a", once to
        # open "b".
        ticks = iter([0.0, 1.0, 1.0, 3.0])
        tracer = SpanTracer(clock=lambda: next(ticks))
        tracer.start("a")
        tracer.switch("b")
        tracer.stop()
        assert tracer.seconds == {"a": 1.0, "b": 2.0}

    def test_double_start_raises(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        tracer.start("a")
        with pytest.raises(RuntimeError):
            tracer.start("b")
