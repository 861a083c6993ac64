"""Operational telemetry: quantile histograms, Prometheus text, the
sampling profiler and the regression gate."""

import threading

import pytest

from repro.obs import (MetricsRegistry, SamplingProfiler,
                       escape_label_value, metric_key, profiled,
                       render_dashboard, render_prometheus)
from repro.obs.metrics import (Histogram, bucket_index,
                               bucket_upper_bound)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestLabelEscaping:
    def test_sorted_labels(self):
        assert metric_key("x", {"b": 2, "a": 1}) == "x{a=1,b=2}"

    def test_comma_and_equals_no_longer_collide(self):
        # Regression: these two instrument identities used to render
        # to the same key.
        k1 = metric_key("m", {"a": "1,b=2"})
        k2 = metric_key("m", {"a": "1", "b": "2"})
        assert k1 != k2

    def test_escape_round_trips_distinctness(self):
        values = ["a,b", "a\\,b", "a=b", "{", "}", "a\\"]
        escaped = {escape_label_value(v) for v in values}
        assert len(escaped) == len(values)

    def test_plain_values_untouched(self):
        assert escape_label_value("osm") == "osm"
        assert escape_label_value(42) == "42"

    def test_registry_separates_tricky_labels(self):
        reg = MetricsRegistry()
        reg.counter("m", a="1,b=2").inc()
        reg.counter("m", a="1", b="2").inc(5)
        snap = reg.snapshot()
        assert len(snap["counters"]) == 2


class TestBuckets:
    def test_exact_powers_land_in_own_bucket(self):
        for i in range(-20, 21):
            bound = bucket_upper_bound(i)
            assert bucket_index(bound) == i

    def test_monotone(self):
        last = None
        for v in [0.001, 0.01, 0.5, 1.0, 1.1, 2.0, 100.0, 1e6]:
            idx = bucket_index(v)
            if last is not None:
                assert idx >= last
            last = idx

    def test_value_within_bucket_range(self):
        for v in [0.0037, 1.5, 7.2, 123.456]:
            i = bucket_index(v)
            assert bucket_upper_bound(i - 1) < v <= bucket_upper_bound(i)


class TestHistogramQuantiles:
    def test_exact_aggregates_kept(self):
        h = Histogram(clock=FakeClock())
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == 2.5

    def test_quantiles_within_bucket_width(self):
        h = Histogram(clock=FakeClock())
        values = [float(i) for i in range(1, 1001)]
        for v in values:
            h.observe(v)
        # One log bucket is ~19% wide; allow that relative error.
        assert h.quantile(0.5) == pytest.approx(500, rel=0.2)
        assert h.quantile(0.9) == pytest.approx(900, rel=0.2)
        assert h.quantile(0.99) == pytest.approx(990, rel=0.2)

    def test_quantiles_clamped_to_min_max(self):
        h = Histogram(clock=FakeClock())
        h.observe(3.0)
        assert h.quantile(0.5) == 3.0
        assert h.quantile(0.99) == 3.0

    def test_non_positive_values_counted(self):
        h = Histogram(clock=FakeClock())
        h.observe(0.0)
        h.observe(-1.0)
        h.observe(2.0)
        assert h.count == 3
        assert h.non_positive == 2
        assert h.bucket_counts()[0] == (0.0, 2)

    def test_summary_has_quantiles_and_buckets(self):
        h = Histogram(clock=FakeClock())
        for v in [0.5, 1.0, 2.0]:
            h.observe(v)
        s = h.summary()
        for key in ("count", "sum", "min", "max", "mean",
                    "p50", "p90", "p99", "buckets"):
            assert key in s
        assert sum(n for _, n in s["buckets"]) == 3

    def test_empty_summary_minimal(self):
        s = Histogram(clock=FakeClock()).summary()
        assert s == {"count": 0, "sum": 0.0}

    def test_deterministic_across_orders(self):
        a = Histogram(clock=FakeClock())
        b = Histogram(clock=FakeClock())
        values = [0.1, 5.0, 2.5, 0.9, 100.0, 3.3]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.summary() == b.summary()


class TestHistogramWindow:
    def test_window_sees_only_recent(self):
        clock = FakeClock()
        h = Histogram(clock=clock)
        h.observe(100.0)           # t=0
        clock.t = 120.0
        h.observe(1.0)             # two minutes later
        whole = h.summary()
        recent = h.window_summary(seconds=60)
        assert whole["count"] == 2
        assert recent["count"] == 1
        assert recent["max"] == 1.0

    def test_idle_window_empty(self):
        clock = FakeClock()
        h = Histogram(clock=clock)
        h.observe(5.0)
        clock.t = 1000.0
        assert h.window_summary(seconds=60)["count"] == 0

    def test_registry_window_snapshot(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        reg.histogram("lat").observe(2.0)
        clock.t = 10.0
        reg.histogram("lat").observe(4.0)
        win = reg.window_snapshot(seconds=60)
        assert win["lat"]["count"] == 2


class TestRegistryThreadSafety:
    def test_concurrent_get_or_create_and_observe(self):
        reg = MetricsRegistry()
        errors = []

        def hammer(tid):
            try:
                for i in range(2000):
                    reg.counter("c", t=tid % 4).inc()
                    reg.histogram("h", t=tid % 4).observe(i + 1.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap = reg.snapshot()
        assert sum(snap["counters"].values()) == 8 * 2000
        assert sum(h["count"] for h in
                   snap["histograms"].values()) == 8 * 2000

    def test_snapshot_during_writes(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                reg.counter(f"w{i % 50}").inc()
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(50):
                snap = reg.snapshot()
                assert isinstance(snap["counters"], dict)
        finally:
            stop.set()
            t.join()


class TestPrometheusRender:
    def make_registry(self):
        reg = MetricsRegistry(clock=FakeClock())
        reg.counter("storm.session.runs", sampler="rs-tree").inc(3)
        reg.gauge("storm.cluster.coverage").set(0.75)
        h = reg.histogram("storm.sample.latency_seconds",
                          sampler="rs-tree")
        for v in [0.001, 0.002, 0.004, 0.1]:
            h.observe(v)
        return reg

    def test_counter_and_gauge_lines(self):
        text = render_prometheus(self.make_registry())
        assert ('storm_session_runs_total{sampler="rs-tree"} 3'
                in text)
        assert "storm_cluster_coverage 0.75" in text

    def test_histogram_buckets_cumulative_and_inf(self):
        text = render_prometheus(self.make_registry())
        bucket_lines = [ln for ln in text.splitlines()
                        if "storm_sample_latency_seconds_bucket"
                        in ln]
        assert bucket_lines
        assert any('le="+Inf"' in ln for ln in bucket_lines)
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == 4
        assert "storm_sample_latency_seconds_count" in text
        assert "storm_sample_latency_seconds_sum" in text

    def test_quantile_lines_match_registry(self):
        reg = self.make_registry()
        text = render_prometheus(reg)
        h = reg.histogram("storm.sample.latency_seconds",
                          sampler="rs-tree")
        p99 = h.quantile(0.99)
        quantile_line = [
            ln for ln in text.splitlines()
            if 'quantile="0.99"' in ln
            and ln.startswith("storm_sample_latency_seconds")]
        assert quantile_line
        assert float(quantile_line[0].rsplit(" ", 1)[1]) \
            == pytest.approx(p99)

    def test_type_headers(self):
        text = render_prometheus(self.make_registry())
        assert "# TYPE storm_session_runs_total counter" in text
        assert "# TYPE storm_cluster_coverage gauge" in text
        assert ("# TYPE storm_sample_latency_seconds histogram"
                in text)

    def test_deterministic(self):
        reg = self.make_registry()
        assert render_prometheus(reg) == render_prometheus(reg)


def _busy(deadline_event, depth=0):
    # A recognisable frame for the profiler to catch.
    total = 0
    while not deadline_event.is_set():
        total += sum(range(200))
    return total


class TestProfiler:
    def test_profiles_a_busy_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy, args=(stop,))
        worker.start()
        try:
            with profiled(hz=500.0) as prof:
                while prof.samples < 5:
                    pass
        finally:
            stop.set()
            worker.join()
        assert prof.samples >= 5
        assert prof.stacks
        assert any("_busy" in stack for stack in prof.stacks)

    def test_collapsed_format_and_file(self, tmp_path):
        prof = SamplingProfiler()
        prof.stacks = {"mod:a;mod:b": 3, "mod:c": 1}
        text = prof.collapsed()
        assert text.splitlines() == ["mod:a;mod:b 3", "mod:c 1"]
        out = tmp_path / "prof.collapsed"
        assert prof.write_collapsed(str(out)) == 2
        assert out.read_text() == text + "\n"

    def test_top_frames_are_leaves(self):
        prof = SamplingProfiler()
        prof.stacks = {"m:root;m:hot": 5, "m:root;m:cold": 1,
                       "m:other;m:hot": 2}
        assert prof.top_frames(1) == [("m:hot", 7)]

    def test_rejects_bad_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_stop_idempotent(self):
        prof = SamplingProfiler(hz=200.0).start()
        prof.stop()
        prof.stop()
        assert not prof.running

    def test_profiler_publishes_only_profile_metrics(self):
        reg = MetricsRegistry()
        reg.counter("storm.session.samples").inc(7)
        stop = threading.Event()
        worker = threading.Thread(target=_busy, args=(stop,))
        worker.start()
        try:
            with profiled(hz=500.0, registry=reg) as prof:
                while prof.samples < 3:
                    pass
        finally:
            stop.set()
            worker.join()
        snap = reg.snapshot()
        # storm.* engine counters untouched; only storm.profile.*
        # appeared.
        assert snap["counters"]["storm.session.samples"] == 7
        extra = [k for k in snap["counters"]
                 if k != "storm.session.samples"]
        assert extra
        assert all(k.startswith("storm.profile.") for k in extra)


class TestDashboardQuantiles:
    def test_histogram_row_shows_quantiles(self):
        reg = MetricsRegistry(clock=FakeClock())
        h = reg.histogram("lat")
        for v in [1.0, 2.0, 4.0]:
            h.observe(v)
        text = render_dashboard(reg)
        row = [ln for ln in text.splitlines() if "lat" in ln][0]
        for token in ("p50=", "p90=", "p99=", "mean=", "count=3"):
            assert token in row

    def test_byte_stable(self):
        reg = MetricsRegistry(clock=FakeClock())
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.histogram("h").observe(1.0)
        assert render_dashboard(reg) == render_dashboard(reg)
