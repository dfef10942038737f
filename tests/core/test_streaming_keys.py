"""One key table while the consolidation delta equals the history.

Until a projection state's first merge (and again after a recovery
rebuild) ``keys_delta`` is the ``keys`` table itself, so each batch folds
its keys once per projection. These tests pin when the sharing holds, that
it ends at the first consolidation, and that nothing it touches —
in-situ merges, recovery rebuilds, checkpoints — changes an output.
"""

import numpy as np
import pytest

from repro.comm.spmd import run_spmd
import repro.core.streaming as streaming_mod
from repro.core.streaming import KeyCounter, StreamingKeyBin2
from repro.data.gaussians import gaussian_mixture
from repro.insitu.distributed import consolidate_streaming_state
from tests.kernels.oracle import ReferenceKeyBin2
from repro.obs import MetricsRegistry, set_default_registry

N_PROJ = 3
PARAMS = {"n_projections": N_PROJ, "feature_range": (-12.0, 12.0)}


@pytest.fixture(scope="module")
def blocks():
    x, _ = gaussian_mixture(n_points=2400, n_dims=6, n_clusters=3, seed=3)
    return [x[i:i + 400] for i in range(0, 2400, 400)]


def _tables(skb, table="keys"):
    out = []
    for st in skb._states:
        kc = getattr(st, table)
        keys, counts = kc.to_arrays()
        out.append((keys.tobytes(), counts.tobytes(), kc.evicted_keys,
                    kc.evicted_points))
    return out


def _assert_same_state(a, b):
    """Recursive equality of two state_dict payloads, arrays by value."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same_state(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_same_state(u, v)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


@pytest.fixture
def fold_calls(monkeypatch):
    calls = []
    original = KeyCounter._fold

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KeyCounter, "_fold", counting)
    return calls


@pytest.mark.parametrize("fused", [True, False])
def test_partial_fit_folds_once_per_projection(blocks, fold_calls, fused):
    cls = StreamingKeyBin2 if fused else ReferenceKeyBin2
    skb = cls(seed=0, **PARAMS)
    for i, x in enumerate(blocks[:3]):
        skb.partial_fit(x)
        assert len(fold_calls) == N_PROJ * (i + 1)
    assert all(st.keys_delta is st.keys for st in skb._states)


def _two_rank_program(comm, blocks, record):
    skb = StreamingKeyBin2(seed=0, **PARAMS)
    mine = blocks[comm.rank::2]
    skb.partial_fit(mine[0])
    if comm.rank == 0:
        record["shared_before"] = all(
            st.keys_delta is st.keys for st in skb._states)
    consolidate_streaming_state(comm, skb)
    if comm.rank == 0:
        record["shared_after"] = any(
            st.keys_delta is st.keys for st in skb._states)
        record["delta_empty"] = all(
            len(st.keys_delta) == 0 for st in skb._states)
        # The ledger holds this rank's own keys only, not the peer's.
        own = StreamingKeyBin2(seed=0, **PARAMS)
        own.partial_fit(mine[0])
        record["ledger_is_own"] = _tables(skb, "keys_local") == _tables(own)
    for x in mine[1:]:
        skb.partial_fit(x)
    consolidate_streaming_state(comm, skb)
    skb.refresh()
    return skb.model_.fingerprint(), _tables(skb)


def test_sharing_ends_at_first_consolidation(blocks):
    record = {}
    per_rank = run_spmd(_two_rank_program, 2, executor="thread",
                        args=(blocks, record))
    assert record == {"shared_before": True, "shared_after": False,
                      "delta_empty": True, "ledger_is_own": True}
    pooled = StreamingKeyBin2(seed=0, **PARAMS)
    for x in blocks[0::2] + blocks[1::2]:
        pooled.partial_fit(x)
    pooled.refresh()
    for fingerprint, tables in per_rank:
        assert fingerprint == pooled.model_.fingerprint()
        assert tables == _tables(pooled)


def test_sharing_reforms_after_rebuild_from_local(blocks, fold_calls):
    skb = StreamingKeyBin2(seed=0, **PARAMS)
    skb.partial_fit(blocks[0])
    for st in skb._states:
        st.reset_deltas()
    skb.partial_fit(blocks[1])
    assert not any(st.keys_delta is st.keys for st in skb._states)
    for st in skb._states:
        st.rebuild_from_local()
    assert all(st.keys_delta is st.keys for st in skb._states)
    own = StreamingKeyBin2(seed=0, **PARAMS)
    own.partial_fit(blocks[0])
    own.partial_fit(blocks[1])
    assert _tables(skb) == _tables(own)
    del fold_calls[:]
    skb.partial_fit(blocks[2])
    assert len(fold_calls) == N_PROJ


@pytest.mark.parametrize("capacity", [100_000, 300])
def test_checkpoint_before_first_merge_restores_one_table(
        blocks, tmp_path, capacity, monkeypatch):
    monkeypatch.setattr(streaming_mod, "KEY_CAPACITY", capacity)
    skb = StreamingKeyBin2(seed=0, **PARAMS)
    for x in blocks[:3]:
        skb.partial_fit(x)
    skb.save_state(tmp_path / "mid.kb2")
    back = StreamingKeyBin2.load_state(tmp_path / "mid.kb2")
    assert all(st.keys_delta is st.keys for st in back._states)
    for x in blocks[3:]:
        skb.partial_fit(x)
        back.partial_fit(x)
    _assert_same_state(back.state_dict(), skb.state_dict())
    skb.refresh()
    back.refresh()
    assert back.model_.fingerprint() == skb.model_.fingerprint()


def test_checkpoint_after_a_merge_restores_two_tables(blocks, tmp_path):
    skb = StreamingKeyBin2(seed=0, **PARAMS)
    skb.partial_fit(blocks[0])
    for st in skb._states:
        st.reset_deltas()
    skb.partial_fit(blocks[1])
    skb.save_state(tmp_path / "s.kb2")
    back = StreamingKeyBin2.load_state(tmp_path / "s.kb2")
    for st, orig in zip(back._states, skb._states):
        assert st.keys_delta is not st.keys
        for table in ("keys", "keys_delta", "keys_local"):
            a, b = getattr(st, table), getattr(orig, table)
            assert all(np.array_equal(u, v)
                       for u, v in zip(a.to_arrays(), b.to_arrays()))


def test_refresh_sets_key_evicted_fraction(blocks, monkeypatch):
    monkeypatch.setattr(streaming_mod, "KEY_CAPACITY", 50)
    reg = MetricsRegistry()
    previous = set_default_registry(reg)
    try:
        skb = StreamingKeyBin2(seed=0, **PARAMS)
        for x in blocks:
            skb.partial_fit(x)
        skb.refresh()
    finally:
        set_default_registry(previous)
    got = {
        s["labels"]["projection"]: s["value"]
        for s in reg.get("stream_key_evicted_fraction").snapshot()["samples"]
    }
    want = {str(i): st.keys.evicted_points / skb.n_seen_
            for i, st in enumerate(skb._states)}
    assert got == want
    assert all(0 < v < 1 for v in got.values())
