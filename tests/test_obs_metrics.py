"""The metrics registry: counters, gauges, histograms, null twins."""

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (TIME_BUCKETS, VALUE_BUCKETS, Counter,
                               Gauge, Histogram, MetricsRegistry,
                               NullMetricsRegistry, check_name)


class TestNames:
    def test_dotted_lowercase_accepted(self):
        for name in ("controller.ticks", "db.morsel.exec_seconds",
                     "sim_events", "a.b_c.d2"):
            assert check_name(name) == name

    def test_bad_names_rejected(self):
        for name in ("", "Controller.ticks", ".ticks", "ticks.",
                     "a..b", "a b", "9lives"):
            with pytest.raises(ReproError):
                check_name(name)


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ReproError):
            Counter("x").inc(-1)

    def test_snapshot(self):
        c = Counter("x")
        c.inc(4)
        assert c.as_dict() == {"name": "x", "kind": "counter",
                               "value": 4.0}


class TestGauge:
    def test_set_and_adjust(self):
        g = Gauge("x")
        g.set(7)
        g.inc(-3)
        assert g.value == 4.0


class TestHistogram:
    def test_buckets_count_and_stats(self):
        h = Histogram("x", (1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.total == 555.5
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.mean == pytest.approx(138.875)

    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram("x", (1.0, 10.0))
        h.observe(1.0)
        # le="1" semantics: the observation is <= the first edge
        assert h.bucket_counts == [1, 0, 0]

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ReproError):
            Histogram("x", (10.0, 1.0))
        with pytest.raises(ReproError):
            Histogram("x", ())

    def test_empty_snapshot_has_null_extrema(self):
        snap = Histogram("x", (1.0,)).as_dict()
        assert snap["min"] is None and snap["max"] is None


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.histogram("h") is reg.histogram("h", VALUE_BUCKETS)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ReproError):
            reg.gauge("a")

    def test_bad_name_rejected_on_creation(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("Bad.Name")

    def test_names_sorted_and_lookup(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.gauge("a")
        assert reg.names() == ["a", "z"]
        assert len(reg) == 2
        assert "z" in reg and "q" not in reg
        assert reg.get("z").kind == "counter"
        with pytest.raises(ReproError):
            reg.get("q")

    def test_snapshot_covers_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h", TIME_BUCKETS).observe(0.5)
        snap = reg.snapshot()
        assert [e["name"] for e in snap] == ["c", "g", "h"]
        assert {e["kind"] for e in snap} == {"counter", "gauge",
                                             "histogram"}


class TestNullRegistry:
    def test_hands_out_shared_singletons(self):
        reg = NullMetricsRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.gauge("a") is reg.gauge("b")
        assert reg.histogram("a") is reg.histogram("b")

    def test_recording_is_a_no_op(self):
        reg = NullMetricsRegistry()
        reg.counter("a").inc(5)
        reg.gauge("a").set(5)
        reg.histogram("a").observe(5)
        assert reg.counter("a").value == 0.0
        assert len(reg) == 0
        assert reg.snapshot() == []
        assert not reg.enabled
