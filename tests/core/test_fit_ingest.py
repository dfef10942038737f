"""Fits and streaming ingest run through the fused kernels only.

* *Guard.* With ``bin_indices``, the one-array binning helper ``predict``
  uses, patched to raise everywhere it is reachable, ``KeyBin2.fit``, a
  2-rank ``fit_distributed`` and ``StreamingKeyBin2.partial_fit`` plus
  ``refresh`` (fixed and adaptive grids) still run.
* *Non-finite input.* NaN and Inf rows still raise ``ValidationError``
  naming the row, in batch and on the SPMD rank that holds them.
* *Constant collectives.* At 2 ranks, the messages a rank sends do not
  depend on the number of trials or candidate depths: the bounds, the
  histograms and the cell tables of every candidate each travel in one
  collective, and rank 0 sends at most 8 messages per fit.
"""

import sys

import numpy as np
import pytest

from repro.comm.spmd import run_spmd
from repro.core.distributed import fit_distributed, keybin2_spmd
from repro.core.estimator import KeyBin2
from repro.core.streaming import StreamingKeyBin2
from repro.data.gaussians import gaussian_mixture
from repro.errors import RankFailedError, ValidationError
from repro.kernels.keys import bin_indices


@pytest.fixture(scope="module")
def data():
    x, _ = gaussian_mixture(n_points=1200, n_dims=12, n_clusters=3, seed=4)
    return x


@pytest.fixture
def no_reference_ingest(monkeypatch):
    """Make every ``repro`` module's handle on ``bin_indices`` raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("ingest reached bin_indices")

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, "bin_indices", None) is bin_indices:
            monkeypatch.setattr(module, "bin_indices", forbidden)


class TestGuard:
    def test_batch_fit_avoids_reference_kernels(self, data, no_reference_ingest):
        kb = KeyBin2(n_projections=3, seed=0).fit(data)
        assert kb.labels_.shape == (data.shape[0],)

    def test_spmd_fit_avoids_reference_kernels(self, data, no_reference_ingest):
        res = fit_distributed(np.array_split(data, 2), executor="thread",
                              n_projections=3, seed=0)
        assert res.concatenated_labels().shape == (data.shape[0],)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_streaming_ingest_avoids_reference_kernels(
        self, data, no_reference_ingest, adaptive
    ):
        skb = StreamingKeyBin2(n_projections=3, adaptive=adaptive, seed=0)
        for batch in np.array_split(data, 3):
            skb.partial_fit(batch)
        skb.refresh()
        assert skb.model_.n_clusters >= 1
        assert skb.n_seen_ == data.shape[0]

    def test_guard_bites(self, data, no_reference_ingest):
        kb = KeyBin2(n_projections=3, seed=0).fit(data)
        with pytest.raises(AssertionError, match="bin_indices"):
            kb.predict(data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteInput:
    def test_batch_names_row(self, data, bad):
        x = data.copy()
        x[37, 5] = bad
        with pytest.raises(ValidationError, match=r"row 37\b"):
            KeyBin2(n_projections=2, seed=0).fit(x)

    def test_batch_projection_none_names_row(self, data, bad):
        x = data[:, :3].copy()
        x[1100, 2] = bad
        with pytest.raises(ValidationError, match=r"row 1100\b"):
            KeyBin2(n_projections=2, projection="none", seed=0).fit(x)

    def test_spmd_names_local_row(self, data, bad):
        shards = np.array_split(data.copy(), 2)
        shards[1][9, 0] = bad

        def prog(comm):
            return keybin2_spmd(comm, shards[comm.rank], n_projections=2, seed=0)

        with pytest.raises(RankFailedError, match=r"row 9\b") as err:
            run_spmd(prog, 2, executor="thread", timeout=30)
        assert err.value.rank == 1


def _messages(x, **options):
    """Messages each rank sends in a 2-rank fit."""
    res = fit_distributed(np.array_split(x, 2), executor="thread", seed=0,
                          **options)
    return [t["messages_sent"] for t in res.traffic]


def test_bounds_and_histogram_messages_do_not_scale_with_trials(data):
    # The bounds, the histograms and every candidate's cell table each
    # travel in one collective, whatever the number of candidates.
    four = _messages(data, n_projections=4)
    assert _messages(data, n_projections=8) == four
    assert _messages(data, n_projections=4, candidate_depths=(3, 4, 5)) == four
    assert four[0] <= 8
