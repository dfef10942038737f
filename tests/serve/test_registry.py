"""Tests for the versioned model registry (atomic hot-swap semantics)."""

import threading

import numpy as np
import pytest

from repro.errors import ServeError, ValidationError
from repro.serve import ModelRegistry
from repro.serve import registry as registry_module


class TestPublish:
    def test_versions_monotonic_from_one(self, served_model, alt_model):
        reg = ModelRegistry()
        assert reg.publish(served_model) == 1
        assert reg.publish(alt_model) == 2
        assert reg.publish(served_model) == 3

    def test_current_returns_latest(self, served_model, alt_model):
        reg = ModelRegistry()
        reg.publish(served_model)
        reg.publish(alt_model)
        assert reg.current().version == 2
        assert reg.current().model is alt_model

    def test_empty_registry_raises(self):
        reg = ModelRegistry()
        with pytest.raises(ServeError):
            reg.current()
        assert reg.current_or_none() is None

    def test_only_models_accepted(self):
        reg = ModelRegistry()
        with pytest.raises(ValidationError):
            reg.publish("not a model")

    def test_fingerprint_matches_model(self, served_model):
        reg = ModelRegistry()
        reg.publish(served_model)
        assert reg.current().fingerprint == served_model.fingerprint()

    def test_tag_recorded(self, served_model):
        reg = ModelRegistry()
        reg.publish(served_model, tag="nightly")
        assert reg.current().tag == "nightly"

    def test_info_is_json_friendly(self, served_model):
        import json

        reg = ModelRegistry()
        reg.publish(served_model)
        json.dumps(reg.info())  # must not raise
        assert reg.info()["current"]["version"] == 1


class TestHistory:
    def test_history_bounded(self, served_model, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_HISTORY", 2)
        reg = ModelRegistry()
        for _ in range(6):
            reg.publish(served_model)
        assert reg.versions() == [4, 5, 6]  # 2 retained + current
        assert len(reg) == 3

    def test_get_retained_version(self, served_model, alt_model):
        reg = ModelRegistry()
        reg.publish(served_model)
        reg.publish(alt_model)
        assert reg.get(1).model is served_model
        assert reg.get(2).model is alt_model
        with pytest.raises(ServeError):
            reg.get(99)

    def test_rollback_previous(self, served_model, alt_model):
        reg = ModelRegistry()
        reg.publish(served_model)
        reg.publish(alt_model)
        new_version = reg.rollback()
        assert new_version == 3  # versions never move backwards
        assert reg.current().model is served_model

    def test_rollback_specific_version(self, served_model, alt_model):
        reg = ModelRegistry()
        reg.publish(served_model)  # v1
        reg.publish(alt_model)     # v2
        reg.publish(alt_model)     # v3
        reg.rollback(version=1)
        assert reg.current().model is served_model

    def test_rollback_empty_history_raises(self, served_model):
        reg = ModelRegistry()
        reg.publish(served_model)
        with pytest.raises(ServeError):
            reg.rollback()


class TestHotSwap:
    def test_subscriber_notified(self, served_model):
        reg = ModelRegistry()
        seen = []
        reg.subscribe(lambda record: seen.append(record.version))
        reg.publish(served_model)
        reg.publish(served_model)
        assert seen == [1, 2]

    def test_swap_count(self, served_model):
        reg = ModelRegistry()
        reg.publish(served_model)
        assert reg.swaps == 0  # first publish is an install, not a swap
        reg.publish(served_model)
        assert reg.swaps == 1

    def test_concurrent_publish_and_read_consistent(self, served_model, alt_model):
        """Readers always observe a fully formed record, never a mixture."""
        reg = ModelRegistry()
        reg.publish(served_model)
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                record = reg.current()
                # A torn swap would pair one version's model with another's
                # fingerprint; recompute to prove the pairing is intact.
                if record.fingerprint != record.model.fingerprint():
                    bad.append(record.version)  # pragma: no cover

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(30):
            reg.publish(served_model if i % 2 else alt_model)
        stop.set()
        for t in threads:
            t.join()
        assert not bad
        assert reg.current().version == 31

    def test_streaming_refresh_publishes(self, small_gaussians):
        """StreamingKeyBin2.refresh(publish_to=...) hot-swaps the registry."""
        from repro import StreamingKeyBin2

        x, _ = small_gaussians
        reg = ModelRegistry()
        skb = StreamingKeyBin2(seed=0)
        skb.partial_fit(x[:1000])
        skb.refresh(publish_to=reg)
        assert reg.current().version == 1
        assert reg.current().model is skb.model_
        skb.partial_fit(x[1000:])
        skb.refresh(publish_to=reg)
        assert reg.current().version == 2
        assert reg.current().model is skb.model_
