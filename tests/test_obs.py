"""Self-tests for the observability subsystem: instrument math, span
nesting and exception safety, registry lifecycle, and the guarantee
that everything is a no-op while disabled."""

import json

import pytest

from repro import obs
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.tracing import Tracer, _NOOP


class TestCounter:
    def test_disabled_is_noop(self):
        counter = obs.counter("t.disabled")
        counter.inc()
        counter.inc(5, user="a")
        assert counter.total() == 0
        assert counter.series() == {}
        assert obs.runtime.hook_fires == 0

    def test_labeled_series(self):
        obs.enable()
        counter = obs.counter("t.labeled")
        counter.inc(user="a")
        counter.inc(2, user="a")
        counter.inc(user="b")
        counter.inc(10)
        assert counter.value(user="a") == 3
        assert counter.value(user="b") == 1
        assert counter.value() == 10
        assert counter.total() == 14
        assert counter.series() == {"": 10, "user=a": 3, "user=b": 1}

    def test_label_order_is_irrelevant(self):
        obs.enable()
        counter = obs.counter("t.order")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2


class TestGauge:
    def test_last_write_wins(self):
        obs.enable()
        gauge = obs.gauge("t.gauge")
        gauge.set(3, phase="x")
        gauge.set(7, phase="x")
        assert gauge.value(phase="x") == 7
        assert gauge.value(phase="missing") is None

    def test_disabled_is_noop(self):
        gauge = obs.gauge("t.gauge_off")
        gauge.set(3)
        assert gauge.value() is None


class TestHistogram:
    def test_bucket_assignment_and_cumulation(self):
        obs.enable()
        hist = obs.histogram("t.buckets", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 10.0, 50.0, 500.0):
            hist.observe(value)
        # upper bounds are inclusive; cumulative Prometheus-style counts
        assert hist.bucket_counts() == {"1": 2, "10": 4, "100": 5, "+inf": 6}
        assert hist.count() == 6
        assert hist.sum() == pytest.approx(566.5)
        assert hist.mean() == pytest.approx(566.5 / 6)

    def test_min_max_are_exact(self):
        obs.enable()
        hist = obs.histogram("t.minmax", buckets=(10.0, 1000.0))
        hist.observe(3.0)
        hist.observe(700.0)
        summary = hist.series_summary()[""]
        assert summary["min"] == 3.0
        assert summary["max"] == 700.0

    def test_quantile_interpolates_within_bucket(self):
        obs.enable()
        hist = obs.histogram("t.quant", buckets=(0.0, 100.0))
        # 100 observations uniformly inside (0, 100]: the q-quantile
        # estimate is q * 100 by linear interpolation.
        for i in range(1, 101):
            hist.observe(float(i))
        assert hist.quantile(0.5) == pytest.approx(50.0)
        assert hist.quantile(0.25) == pytest.approx(25.0)

    def test_quantile_clamped_to_observed_range(self):
        obs.enable()
        hist = obs.histogram("t.clamp", buckets=(64.0, 16384.0))
        # few samples in one huge bucket: naive interpolation would put
        # p50 far above the largest value ever observed
        for value in (700.0, 800.0, 900.0):
            hist.observe(value)
        assert hist.quantile(0.5) <= 900.0
        assert hist.quantile(0.99) <= 900.0
        assert hist.quantile(0.0) >= 700.0

    def test_quantile_overflow_bucket_reports_max(self):
        obs.enable()
        hist = obs.histogram("t.overflow", buckets=(1.0,))
        hist.observe(123.0)
        assert hist.quantile(0.99) == 123.0

    def test_quantile_validation_and_empty(self):
        obs.enable()
        hist = obs.histogram("t.qv", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert hist.quantile(0.5) is None

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(3.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())

    def test_disabled_is_noop(self):
        hist = obs.histogram("t.hist_off", buckets=(1.0,))
        hist.observe(5.0)
        assert hist.count() == 0
        assert hist.series_summary() == {}


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = Registry()
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_reset_clears_in_place(self):
        """Modules hold direct instrument references; reset must zero
        those same objects, not orphan them."""
        obs.enable()
        registry = Registry()
        counter = registry.counter("x")
        counter.inc(5)
        registry.reset()
        assert registry.counter("x") is counter
        assert counter.total() == 0


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        obs.enable()
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records()[0], tracer.records()[1]
        assert inner.name == "inner" and inner.parent == "outer" and inner.depth == 1
        assert outer.name == "outer" and outer.parent is None and outer.depth == 0
        assert inner.duration_ns >= 0
        assert tracer.depth() == 0

    def test_exception_recorded_and_not_swallowed(self):
        obs.enable()
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        record = tracer.records()[0]
        assert record.status == "error"
        assert record.error == "ValueError"
        assert tracer.depth() == 0  # stack unwound despite the exception
        assert tracer.aggregate()["failing"]["errors"] == 1

    def test_ring_eviction_preserves_aggregates(self):
        obs.enable()
        tracer = Tracer(capacity=4)
        for _ in range(10):
            with tracer.span("phase"):
                pass
        assert len(tracer.records()) == 4
        agg = tracer.aggregate()["phase"]
        assert agg["count"] == 10
        assert agg["total_ms"] >= agg["max_ms"]

    def test_disabled_returns_shared_noop(self):
        tracer = Tracer()
        span = tracer.span("anything")
        assert span is _NOOP
        with span:
            pass
        assert tracer.records() == []
        assert obs.runtime.hook_fires == 0

    def test_reset_clears_records_and_stacks(self):
        obs.enable()
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.records() == []
        assert tracer.aggregate() == {}
        assert tracer.depth() == 0


class TestExport:
    def test_snapshot_and_renderers(self):
        obs.enable()
        obs.counter("t.snap_counter").inc(3, kind="read")
        obs.histogram("t.snap_hist", buckets=(1.0, 10.0)).observe(2.0)
        obs.gauge("t.snap_gauge").set(7)
        with obs.span("t.snap_phase"):
            pass
        snap = obs.snapshot()
        assert snap["counters"]["t.snap_counter"]["total"] == 3
        assert snap["gauges"]["t.snap_gauge"]["series"][""] == 7
        assert snap["histograms"]["t.snap_hist"]["series"][""]["count"] == 1
        assert snap["spans"]["t.snap_phase"]["count"] == 1

        text = obs.render_text(snap)
        assert "t.snap_counter" in text
        assert "span timings (per phase)" in text
        parsed = json.loads(obs.render_json(snap))
        assert parsed["counters"]["t.snap_counter"]["total"] == 3

    def test_empty_snapshot_renders_placeholder(self):
        snap = obs.snapshot(registry=Registry(), tracer=Tracer())
        assert "no observability data" in obs.render_text(snap)


class TestRuntime:
    def test_enable_disable_roundtrip(self):
        assert not obs.is_enabled()
        obs.enable()
        assert obs.is_enabled()
        obs.disable()
        assert not obs.is_enabled()

    def test_reset_zeroes_hook_fires(self):
        obs.enable()
        obs.counter("t.fires").inc()
        assert obs.runtime.hook_fires > 0
        obs.reset()
        assert obs.runtime.hook_fires == 0


class TestForestObsLabels:
    """Forest-mode instrumentation: per-shard recompute labels and the
    server's dirty-shard histogram, and the guarantee that obs-report
    reconciliation still balances when the store is sharded."""

    def test_per_shard_recompute_labels(self):
        from repro.mtree.forest import MerkleForest
        from repro.obs.metrics import REGISTRY

        obs.reset()
        obs.enable()
        forest = MerkleForest(order=4, shards=4)
        obs.reset()  # building the forest hashes every shard's root too
        for i in range(40):
            forest.insert(b"k%02d" % i, b"v")
        _root, recomputed = forest.refresh_root()
        counter = REGISTRY.counter("mtree.node_recomputations")
        series = counter.series()
        # every touched shard reports under its own label, plus the top
        assert "shard=top" in series
        shard_labels = [label for label in series
                        if label.startswith("shard=") and label != "shard=top"]
        assert shard_labels, series
        # the labeled total is exactly the refresh pass's own count
        assert counter.total() == recomputed

    def test_dirty_shards_histogram_observed_by_server_core(self):
        from repro.mtree.database import WriteQuery
        from repro.net.core import ServerCore
        from repro.obs.metrics import REGISTRY
        from repro.protocols.base import Request

        obs.reset()
        obs.enable()
        core = ServerCore(order=4, shards=4)
        core.apply_batch([
            ("alice", Request(query=WriteQuery(b"k%02d" % i, b"v"),
                              extras={"user": "alice", "rid": f"r{i}"}))
            for i in range(12)])
        hist = REGISTRY.histogram("server.dirty_shards")
        assert hist.count() >= 1
        assert hist.sum() >= 1  # at least one dirty shard was seen

    def test_forest_of_one_reports_its_one_dirty_shard(self):
        """S=1 is a forest of one: a batch that wrote observes its one
        dirty shard, as any forest does."""
        from repro.mtree.database import WriteQuery
        from repro.net.core import ServerCore
        from repro.obs.metrics import REGISTRY
        from repro.protocols.base import Request

        obs.reset()
        obs.enable()
        core = ServerCore(order=4)
        core.apply_batch([
            ("alice", Request(query=WriteQuery(b"k", b"v"),
                              extras={"user": "alice", "rid": "r"}))])
        hist = REGISTRY.histogram("server.dirty_shards")
        assert (hist.count(), hist.sum()) == (1, 1)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_obs_report_reconciliation_balances_in_forest_mode(self, shards):
        from repro.analysis.metrics import obs_reconciliation
        from repro.core.scenarios import build_simulation
        from repro.simulation.workload import steady_workload

        obs.reset()
        obs.enable()
        try:
            workload = steady_workload(3, 4, spacing=6, keyspace=16,
                                       write_ratio=0.6, scan_ratio=0.1, seed=9)
            simulation = build_simulation("protocol2", workload, k=4,
                                          shards=shards, seed=9)
            report = simulation.execute()
            snap = obs.snapshot()
        finally:
            obs.disable()
        reconciliation = obs_reconciliation(report, snap)
        assert all(entry["ok"] for entry in reconciliation.values()), \
            reconciliation
        if shards > 1:
            series = snap["counters"]["mtree.node_recomputations"]["series"]
            assert any(label.startswith("shard=") for label in series)
