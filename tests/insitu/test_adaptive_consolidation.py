"""Distributed adaptive binning: epoch-coordinated grid agreement.

Extends the delta-merge consolidation suite to ``adaptive=True``: all
ranks must leave every consolidation on the *same* chain grid, mass must
be conserved through every coordinated rebin, and the final state must be
bit-identical to a serial pooled run — independent of the consolidation
cadence and of which rank saw the widest data (the epoch-coordination
protocol of DESIGN.md §3.9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.spmd import run_spmd
from repro.core.streaming import StreamingKeyBin2
from repro.insitu.distributed import consolidate_streaming_state
from tests.data.streams import RangeGrowthStream

DEPTHS = (4, 5, 6)
N_RANKS = 3


def _rank_batches(rank: int, growth: float, n_batches: int = 6,
                  batch_size: int = 120, n_dims: int = 6):
    """Per-rank streams with *different* growth — ranks disagree on how
    wide the world is until consolidation reconciles them."""
    return [x for x, _ in RangeGrowthStream(
        n_batches=n_batches, batch_size=batch_size, n_dims=n_dims,
        growth=growth, seed=100 + rank)]


def _make_skb(**kw) -> StreamingKeyBin2:
    kw.setdefault("n_projections", 3)
    kw.setdefault("candidate_depths", DEPTHS)
    kw.setdefault("seed", 0)
    # Distributed adaptive binning needs every rank on the same *base*
    # grid — chain levels are only comparable relative to a shared
    # level-0 span, so the base must come from config, not from each
    # rank's (different) first batch.
    kw.setdefault("feature_range", (-4.0, 4.0))
    return StreamingKeyBin2(adaptive=True, **kw)


def _grid_snapshot(skb):
    return [
        (st.levels.copy(), st.space.r_min.copy(), st.space.r_max.copy(),
         st.bin_epoch)
        for st in skb._states
    ]


def _state_snapshot(skb):
    out = []
    for st in skb._states:
        keys, counts = st.keys.to_arrays()
        out.append((
            st.hist.copy(),
            keys.copy(), counts.copy(),
        ))
    return skb.n_seen_, out


def _consolidating_program(comm, growths, every):
    batches = _rank_batches(comm.rank, growths[comm.rank])
    skb = _make_skb()
    grids, masses = [], []
    for i, x in enumerate(batches):
        skb.partial_fit(x)
        if (i + 1) % every == 0 or i + 1 == len(batches):
            consolidate_streaming_state(comm, skb)
            grids.append(_grid_snapshot(skb))
            masses.append([
                (int(st.hist.sum()), st.space.n_dims) for st in skb._states
            ])
    return grids, masses, _state_snapshot(skb)


def _serial_pooled(growths):
    """One estimator fed every rank's data round-robin per batch index —
    the merge order consolidation reproduces."""
    all_batches = [_rank_batches(r, growths[r]) for r in range(len(growths))]
    skb = _make_skb()
    for i in range(len(all_batches[0])):
        for r in range(len(growths)):
            skb.partial_fit(all_batches[r][i])
    return skb


GROWTHS = [1.2, 1.6, 2.1]  # rank 2 drives the widening


class TestGridAgreement:
    @pytest.mark.parametrize("every", [1, 2, 100])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_all_ranks_agree_after_every_merge(self, executor, every):
        per_rank = run_spmd(_consolidating_program, N_RANKS,
                            executor=executor, args=(GROWTHS, every),
                            timeout=120.0)
        reference_grids = per_rank[0][0]
        for grids, _, _ in per_rank[1:]:
            assert len(grids) == len(reference_grids)
            for mine, theirs in zip(grids, reference_grids):
                for (lv_a, lo_a, hi_a, ep_a), (lv_b, lo_b, hi_b, ep_b) in zip(
                    mine, theirs
                ):
                    np.testing.assert_array_equal(lv_a, lv_b)
                    # Bit-equal bounds: every rank computed them from the
                    # same base with the same float expression.
                    np.testing.assert_array_equal(lo_a, lo_b)
                    np.testing.assert_array_equal(hi_a, hi_b)

    def test_widest_rank_drives_everyone(self):
        per_rank = run_spmd(_consolidating_program, N_RANKS,
                            executor="thread", args=(GROWTHS, 2),
                            timeout=120.0)
        final_grids = per_rank[0][0][-1]
        assert any(np.any(levels > 0) for levels, _, _, _ in final_grids)

    @pytest.mark.parametrize("every", [1, 2])
    def test_mass_conserved_through_coordinated_rebins(self, every):
        per_rank = run_spmd(_consolidating_program, N_RANKS,
                            executor="thread", args=(GROWTHS, every),
                            timeout=120.0)
        batch_rows = 120
        n_batches = 6
        for _, masses, (seen, _) in per_rank:
            assert seen == N_RANKS * n_batches * batch_rows
            for round_idx, per_state in enumerate(masses):
                expected_seen = N_RANKS * min(
                    (round_idx + 1) * every, n_batches) * batch_rows
                for hist_mass, n_dims in per_state:
                    assert hist_mass == expected_seen * n_dims


def _divergent_base_program(comm):
    """Each rank seeds its base grid from its own data — incomparable
    chains, which consolidation must refuse loudly on every rank."""
    rng = np.random.default_rng(comm.rank)
    # No feature_range: rank r's base spans roughly ±(r+1)·sigma.
    skb = _make_skb(feature_range=None)
    skb.partial_fit((comm.rank + 1.0) * rng.normal(size=(200, 6)))
    try:
        consolidate_streaming_state(comm, skb)
    except Exception as exc:  # noqa: BLE001 — recording, not handling
        return type(exc).__name__, str(exc)
    return None


class TestDivergentBases:
    def test_mismatched_bases_raise_on_every_rank(self):
        from repro.errors import ValidationError  # noqa: F401

        per_rank = run_spmd(_divergent_base_program, N_RANKS,
                            executor="thread", timeout=60.0)
        for result in per_rank:
            assert result is not None, "divergent bases went undetected"
            name, message = result
            assert name == "ValidationError"
            assert "base grid" in message
            assert "feature_range" in message


class TestCadenceInvariance:
    def test_final_state_matches_serial_pooled_bitwise(self):
        """Whatever the cadence, the final merged state must equal the
        serial pooled estimator bit for bit: grids, histograms, keys."""
        serial_seen, serial_states = _state_snapshot(_serial_pooled(GROWTHS))
        for every in (1, 2, 100):
            per_rank = run_spmd(_consolidating_program, N_RANKS,
                                executor="thread", args=(GROWTHS, every),
                                timeout=120.0)
            for _, _, (seen, states) in per_rank:
                assert seen == serial_seen
                for (h_a, k_a, c_a), (h_b, k_b, c_b) in zip(
                    states, serial_states
                ):
                    np.testing.assert_array_equal(h_a, h_b)
                    np.testing.assert_array_equal(k_a, k_b)
                    np.testing.assert_array_equal(c_a, c_b)

    def test_mixed_cadences_converge(self):
        """Rank-local histories differ (different data), but one final
        merge after different intermediate cadences lands on one grid."""
        out_1 = run_spmd(_consolidating_program, N_RANKS, executor="thread",
                         args=(GROWTHS, 1), timeout=120.0)
        out_100 = run_spmd(_consolidating_program, N_RANKS, executor="thread",
                           args=(GROWTHS, 100), timeout=120.0)
        final_1 = out_1[0][0][-1]
        final_100 = out_100[0][0][-1]
        for (lv_a, lo_a, hi_a, _), (lv_b, lo_b, hi_b, _) in zip(
            final_1, final_100
        ):
            np.testing.assert_array_equal(lv_a, lv_b)
            np.testing.assert_array_equal(lo_a, lo_b)
            np.testing.assert_array_equal(hi_a, hi_b)


def _checkpoint_program(comm, growths, tmpdir):
    """Checkpoint mid-stream after a rebin, restore, keep consolidating —
    the restored run must finish exactly like the uninterrupted one."""
    batches = _rank_batches(comm.rank, growths[comm.rank])
    skb = _make_skb()
    for x in batches[:3]:
        skb.partial_fit(x)
    consolidate_streaming_state(comm, skb)
    path = f"{tmpdir}/rank{comm.rank}.kb2"
    skb.save_state(path)
    skb = StreamingKeyBin2.load_state(path)
    for x in batches[3:]:
        skb.partial_fit(x)
    consolidate_streaming_state(comm, skb)
    return _grid_snapshot(skb), _state_snapshot(skb)


def _straight_program(comm, growths):
    batches = _rank_batches(comm.rank, growths[comm.rank])
    skb = _make_skb()
    for x in batches[:3]:
        skb.partial_fit(x)
    consolidate_streaming_state(comm, skb)
    for x in batches[3:]:
        skb.partial_fit(x)
    consolidate_streaming_state(comm, skb)
    return _grid_snapshot(skb), _state_snapshot(skb)


class TestCheckpointRestore:
    def test_restored_ranks_rejoin_the_grid_exactly(self, tmp_path):
        ckpt = run_spmd(_checkpoint_program, N_RANKS, executor="thread",
                        args=(GROWTHS, str(tmp_path)), timeout=120.0)
        straight = run_spmd(_straight_program, N_RANKS, executor="thread",
                            args=(GROWTHS,), timeout=120.0)
        for (g_a, (seen_a, st_a)), (g_b, (seen_b, st_b)) in zip(
            ckpt, straight
        ):
            assert seen_a == seen_b
            for (lv_a, lo_a, hi_a, _), (lv_b, lo_b, hi_b, _) in zip(g_a, g_b):
                np.testing.assert_array_equal(lv_a, lv_b)
                np.testing.assert_array_equal(lo_a, lo_b)
                np.testing.assert_array_equal(hi_a, hi_b)
            for (h_a, k_a, c_a), (h_b, k_b, c_b) in zip(st_a, st_b):
                np.testing.assert_array_equal(h_a, h_b)
                np.testing.assert_array_equal(k_a, k_b)
                np.testing.assert_array_equal(c_a, c_b)


class TestWireFormat:
    """The default registry is process-global, so under the thread
    executor ONE shared registry (installed from the test body, keyed by
    the per-rank ``rank`` label) is the only race-free way to observe
    per-rank byte accounting."""

    @staticmethod
    def _grid_bytes_by_rank(reg):
        per_rank = {}
        for family in reg.collect():
            if family["name"] == "insitu_consolidation_bytes_total":
                for sample in family["samples"]:
                    if sample["labels"].get("kind") == "grid":
                        rank = sample["labels"]["rank"]
                        per_rank[rank] = per_rank.get(rank, 0) + sample["value"]
        return per_rank

    def test_non_adaptive_sends_no_grid_bytes(self):
        """Fixed-range estimators must not pay for (or change) the wire
        format: no "grid" byte series when adaptive is off."""
        from repro.obs import MetricsRegistry, set_default_registry

        def program(comm):
            rng = np.random.default_rng(comm.rank)
            skb = StreamingKeyBin2(n_projections=3,
                                   candidate_depths=DEPTHS,
                                   seed=0)
            skb.partial_fit(rng.normal(size=(200, 6)))
            consolidate_streaming_state(comm, skb)

        reg = MetricsRegistry()
        prev = set_default_registry(reg)
        try:
            run_spmd(program, 2, executor="thread", timeout=60.0)
        finally:
            set_default_registry(prev)
        assert self._grid_bytes_by_rank(reg) == {}

    def test_adaptive_records_grid_bytes_when_widening(self):
        from repro.obs import MetricsRegistry, set_default_registry

        def program(comm, growths):
            batches = _rank_batches(comm.rank, growths[comm.rank],
                                    n_batches=4)
            skb = _make_skb()
            for x in batches:
                skb.partial_fit(x)
            consolidate_streaming_state(comm, skb)

        reg = MetricsRegistry()
        prev = set_default_registry(reg)
        try:
            run_spmd(program, 2, executor="thread",
                     args=([1.4, 2.0],), timeout=60.0)
        finally:
            set_default_registry(prev)
        per_rank = self._grid_bytes_by_rank(reg)
        assert set(per_rank) == {"0", "1"}
        assert all(total > 0 for total in per_rank.values())
