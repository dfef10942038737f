"""Unit tests for the metrics registry: families, children, no-op mode."""

import pytest

import repro.obs.registry as registry_mod
from repro.errors import ValidationError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    POW2_BUCKETS,
    default_registry,
    set_default_registry,
)


class TestCounter:
    def test_unlabeled_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_labeled_children_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("op",))
        c.labels(op="a").inc(3)
        c.labels(op="b").inc()
        assert c.labels(op="a").value == 3
        assert c.labels(op="b").value == 1

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("c_total").inc(-1)

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("op",))
        with pytest.raises(ValidationError):
            c.labels(other="x")
        with pytest.raises(ValidationError):
            c.labels(op="x", extra="y")

    def test_unlabeled_call_on_labeled_family_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("op",))
        with pytest.raises(ValidationError):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_set_max_keeps_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set_max(4)
        g.set_max(2)
        assert g.value == 4


@pytest.fixture
def buckets(monkeypatch):
    """Bucket bounds of the histograms registered next."""
    def set_buckets(bounds):
        monkeypatch.setattr(registry_mod, "DEFAULT_TIME_BUCKETS", tuple(bounds))
    return set_buckets


class TestHistogram:
    def test_le_bucket_semantics(self, buckets):
        buckets((1.0, 2.0, 4.0))
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (0.5, 1.0, 1.5, 4.0, 9.0):
            h.observe(v)
        snap = h.snapshot()["samples"][0]
        # le-cumulative: 1.0 catches 0.5 and 1.0; 2.0 adds 1.5; 4.0 adds 4.0.
        assert snap["buckets"] == {"1": 2, "2": 3, "4": 4, "+Inf": 5}
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(16.0)

    def test_bucket_counts_sum_to_count(self, buckets):
        buckets(POW2_BUCKETS)
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(100):
            h.observe(float(v))
        snap = h.snapshot()["samples"][0]
        assert snap["buckets"]["+Inf"] == snap["count"] == 100

    def test_default_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.buckets == DEFAULT_TIME_BUCKETS


class TestRegistration:
    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", ("op",))
        b = reg.counter("x_total", "different help", ("op",))
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValidationError):
            reg.gauge("x_total")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("op",))
        with pytest.raises(ValidationError):
            reg.counter("x_total", labelnames=("rank",))

    def test_get_and_families(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        reg.gauge("b")
        assert reg.get("a_total").kind == "counter"
        assert reg.get("missing") is None
        assert sorted(f.name for f in reg.families()) == ["a_total", "b"]

    def test_reset_drops_families(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.reset()
        assert reg.get("a_total") is None
        # Re-registering after reset starts from zero.
        assert reg.counter("a_total").value == 0


class TestNoOpMode:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        g = reg.gauge("g")
        h = reg.histogram("h")
        reg.disable()
        c.inc()
        g.set(5)
        g.set_max(9)
        h.observe(0.5)
        assert c.value == 0
        assert g.value == 0
        assert h.snapshot()["samples"][0]["count"] == 0
        reg.enable()
        c.inc()
        assert c.value == 1

    def test_construct_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c_total").inc()
        assert reg.counter("c_total").value == 0


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)
        assert default_registry() is previous

    def test_swap_rejects_non_registry(self):
        with pytest.raises(ValidationError):
            set_default_registry(object())


class TestSnapshot:
    def test_family_snapshot_shape(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "the help", ("op",))
        c.labels(op="a").inc(2)
        snap = c.snapshot()
        assert snap["name"] == "c_total"
        assert snap["type"] == "counter"
        assert snap["help"] == "the help"
        assert snap["samples"] == [{"labels": {"op": "a"}, "value": 2.0}]

    def test_collect_covers_all_families(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.gauge("b").set(3)
        names = {fam["name"] for fam in reg.collect()}
        assert names == {"a_total", "b"}
