"""Every fit path computes the same model: batch, SPMD, streaming, restored.

On a gaussian mixture drawn by seed, size and dimensionality, these fits
must agree with ``KeyBin2.fit`` on the model fingerprint and on the
training labels:

* ``fit_distributed`` at 1, 2 and 4 ranks (thread executor, random uneven
  contiguous shards) under every consolidation mode;
* a one-batch ``StreamingKeyBin2`` plus ``refresh``, ingesting through
  the fused kernels and through the reference chain of
  ``tests/kernels/oracle.py``;
* that streaming state after ``save_state``/``load_state`` and ``refresh``.

All of them end in the shared tail (:mod:`repro.core.tail`). The data is
drawn from mixtures rather than arbitrary floats: the fused GEMM may round
a projected value one ulp differently from the reference GEMM, which only
shows when a value sits within an ulp of a bin edge — measure zero for
points in generic position (see :mod:`repro.kernels.fused`).

Named exceptions, each an intentional difference the configs below align:

* *Range.* Streaming measures its range on the first batch and widens it
  by ``range_expand``; only one batch with ``range_expand=0`` reproduces
  the batch range (its fixed 5% margin is the batch default
  ``range_margin``).
* *Key capacity.* Streaming keeps at most ``key_capacity`` distinct keys
  and evicts the rest; the capacity here holds every key.
* *Smoother.* Streaming has no ``smoother`` option and always uses the
  paper's moving average, the batch default.
* *Depth.* Streaming stores deep keys as uint8 and caps depth at 8; batch
  ``"auto"`` depths reach 12.
* *Seed.* SPMD needs a plain integer seed shared by every rank.
* *Labels.* Streaming keeps keys, not points, so its training labels are
  ``predict`` on the training data.

Further tests hold batch and SPMD (1 and 2 ranks) together on the ingest
branches the default configuration does not reach: more than 8 projected
dimensions, the KDE smoother, ``projection="none"`` and ``"auto"`` depths
past 8 (uint16 deep bins).
"""

from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.distributed import fit_distributed
from repro.core.estimator import KeyBin2
import repro.core.streaming as streaming_mod
from repro.core.streaming import StreamingKeyBin2
from repro.data.gaussians import gaussian_mixture
from tests.kernels.oracle import reference_partial_fit

N_PROJECTIONS = 3
DEPTHS = (3, 4, 5, 6)

PATHS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _uneven_shards(x, n_ranks, rng):
    """``n_ranks`` contiguous, non-empty shards with random sizes."""
    cuts = np.sort(rng.choice(np.arange(1, x.shape[0]), n_ranks - 1, replace=False))
    return np.split(x, cuts)


def _streaming(x, seed, fused, **options):
    with patch.object(streaming_mod, "KEY_CAPACITY", x.shape[0]):
        skb = StreamingKeyBin2(
            n_projections=N_PROJECTIONS, candidate_depths=DEPTHS,
            range_expand=0.0, seed=seed, **options,
        )
    if fused:
        return skb.partial_fit(x).refresh()
    return reference_partial_fit(skb, x).refresh()


@PATHS
@given(
    seed=st.integers(0, 2**16),
    n_points=st.integers(300, 3000),
    n_dims=st.integers(4, 24),
    n_clusters=st.integers(2, 6),
)
def test_fit_paths_agree(tmp_path_factory, seed, n_points, n_dims, n_clusters):
    x, _ = gaussian_mixture(n_points=n_points, n_dims=n_dims,
                            n_clusters=n_clusters, seed=seed)
    batch = KeyBin2(n_projections=N_PROJECTIONS, candidate_depths=DEPTHS,
                    seed=seed).fit(x)
    want = batch.model_.fingerprint()
    rng = np.random.default_rng(seed)

    for n_ranks in (1, 2, 4):
        shards = _uneven_shards(x, n_ranks, rng)
        for mode in ("master", "allreduce", "ring"):
            res = fit_distributed(shards, executor="thread", seed=seed,
                                  n_projections=N_PROJECTIONS,
                                  candidate_depths=DEPTHS, consolidation=mode)
            assert res.model.fingerprint() == want, (n_ranks, mode)
            assert np.array_equal(res.concatenated_labels(), batch.labels_)

    for fused in (True, False):
        skb = _streaming(x, seed, fused)
        assert skb.model_.fingerprint() == want, fused
        assert np.array_equal(skb.predict(x), batch.labels_)

    path = tmp_path_factory.mktemp("ckpt") / "state.kb2"
    skb.save_state(path)
    restored = StreamingKeyBin2.load_state(path).refresh()
    assert restored.model_.fingerprint() == want
    assert np.array_equal(restored.predict(x), batch.labels_)


def _assert_spmd_equals_batch(x, seed, options):
    batch = KeyBin2(seed=seed, **options).fit(x)
    want = batch.model_.fingerprint()
    rng = np.random.default_rng(seed)
    for n_ranks in (1, 2):
        res = fit_distributed(_uneven_shards(x, n_ranks, rng), executor="thread",
                              seed=seed, **options)
        assert res.model.fingerprint() == want, n_ranks
        assert np.array_equal(res.concatenated_labels(), batch.labels_), n_ranks
    return batch


BRANCHES = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@BRANCHES
@given(
    seed=st.integers(0, 2**16),
    n_points=st.integers(300, 3000),
    n_dims=st.integers(10, 24),
    n_clusters=st.integers(2, 6),
    options=st.sampled_from([
        {"n_components": 10},
        {"smoother": "kde"},
    ]),
)
def test_ingest_branches_spmd_equals_batch(seed, n_points, n_dims, n_clusters,
                                           options):
    """More than 8 projected dimensions (wide key rows in streaming) and the
    KDE smoother, which runs in the tail, not in ingest. Streaming has no
    smoother option, so only the wide states are held to it too."""
    x, _ = gaussian_mixture(n_points=n_points, n_dims=n_dims,
                            n_clusters=n_clusters, seed=seed)
    batch = _assert_spmd_equals_batch(
        x, seed, dict(n_projections=N_PROJECTIONS, candidate_depths=DEPTHS, **options)
    )
    if "n_components" in options:
        assert batch.model_.projection.shape[1] == 10
        for fused in (True, False):
            skb = _streaming(x, seed, fused, **options)
            assert skb.model_.fingerprint() == batch.model_.fingerprint(), fused
            assert np.array_equal(skb.predict(x), batch.labels_)


@BRANCHES
@given(
    seed=st.integers(0, 2**16),
    n_points=st.integers(300, 3000),
    n_dims=st.integers(2, 6),
    n_clusters=st.integers(2, 5),
)
def test_projection_none_spmd_equals_batch(seed, n_points, n_dims, n_clusters):
    """Raw features, no GEMM: the bounds pass reduces the input itself."""
    x, _ = gaussian_mixture(n_points=n_points, n_dims=n_dims,
                            n_clusters=n_clusters, seed=seed)
    batch = _assert_spmd_equals_batch(
        x, seed, dict(n_projections=2, candidate_depths=DEPTHS, projection="none")
    )
    assert batch.model_.projection is None


@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16))
def test_auto_depths_past_8_spmd_equals_batch(seed):
    """``"auto"`` resolves depths 6–9 at 70k points: the deepest bins no
    longer fit a byte and travel as uint16 rows."""
    x, _ = gaussian_mixture(n_points=70_000, n_dims=6, n_clusters=4, seed=seed)
    batch = _assert_spmd_equals_batch(
        x, seed, dict(n_projections=2, candidate_depths="auto")
    )
    assert batch._resolved_depths == (6, 7, 8, 9)
