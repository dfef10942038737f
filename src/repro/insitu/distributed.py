"""Distributed in-situ analysis (paper §5.1).

"Simulations can be performed in parallel, with different nodes taking
care of different segments of a trajectory, or, more accurately, different
trajectories given particular starting conditions. As simulations
progress, in-situ analysis is necessary to determine what conformational
spaces have been analyzed…"

This driver couples one simulation per SPMD rank to a *shared* streaming
KeyBin2 state: every rank accumulates local histograms and occupied-cell
counts over its own frames; periodically the histograms are summed with an
allreduce and the cell tables unioned, so every rank labels with the same
global model. A conformation first visited by rank 3's simulation is
recognized when rank 0's trajectory reaches it — the cross-trajectory
convergence §5 is about.

All ranks construct identical projection matrices and binning ranges from
the shared seed and the a-priori feature range, so merged histograms are
meaningful without any calibration traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.base import Communicator, ReduceOp
from repro.comm.faults import maybe_inject
from repro.comm.mailbox import MailboxComm
from repro.comm.membership import agree_on_survivors
from repro.comm.ring import ring_allreduce
from repro.comm.spmd import run_spmd
from repro.comm.traffic import payload_nbytes
from repro.core.streaming import StreamingKeyBin2
from repro.errors import RankFailedError, ValidationError
from repro.insitu.checkpoint import CheckpointManager, common_checkpoint_round
from repro.obs import default_registry, trace
from repro.insitu.fingerprint import fingerprint_change_points, window_fingerprints
from repro.metrics.external import normalized_mutual_info
from repro.proteins.encode import encode_frames
from repro.proteins.trajectory import Trajectory

__all__ = [
    "DistributedInSituResult",
    "RecoveryContext",
    "consolidate_streaming_state",
    "resilient_consolidate",
    "distributed_insitu_spmd",
    "run_distributed_insitu",
]

#: Survivor recoveries a resilient run may make before failures abort it
#: (``None``: bounded only by the rank count).
MAX_RECOVERIES: Optional[int] = None


@dataclass
class DistributedInSituResult:
    """Per-rank outcome of a distributed in-situ run."""

    labels: np.ndarray                # final labels for this rank's frames
    fingerprints: list
    fingerprint_changes: np.ndarray
    n_clusters: int                   # global cluster count (same all ranks)
    phase_nmi: Optional[float]
    traffic: Dict[str, int] = field(default_factory=dict)
    recoveries: int = 0               # rank-failure recoveries survived
    frames_lost: int = 0              # lost ranks' merged frames dropped
    lost_ranks: Tuple[int, ...] = ()  # physical ranks lost along the way
    resumed_round: Optional[int] = None  # checkpoint round this run resumed from


def consolidate_streaming_state(
    comm: Communicator,
    skb: StreamingKeyBin2,
    reduce_algo: str = "linear",
) -> None:
    """Delta-merge streaming state across ranks, in place.

    Only *increments since the last merge* travel: each projection's
    ``hist_delta``, one table at the deepest candidate depth, rides one
    flat allreduce buffer (and the deltas sum to the true global increment
    no matter how many merges came before — the merged totals in
    ``st.hist`` are never re-reduced, which is what makes repeated
    consolidation idempotent and mass-conserving); key-counter deltas are
    allgathered as sparse arrays and folded into each rank's merged table
    via :meth:`~repro.core.streaming.KeyCounter.merge_arrays`, which
    enforces the capacity cap and accumulates peers' eviction totals.

    ``reduce_algo`` selects the histogram reduction: ``"linear"`` uses the
    communicator's default allreduce, ``"ring"`` the bandwidth-optimal
    :func:`~repro.comm.ring.ring_allreduce` (each rank sends O(2·len)
    bytes regardless of rank count).

    Every round records per-rank telemetry into the obs default registry:
    ``insitu_consolidation_bytes_total{kind,rank,algo}`` (delta bytes on
    the wire — the paper's O(2·K·N_rp·B) term under ``kind="hist"``; the
    adaptive grid-agreement buffer rides under ``kind="grid"`` and is
    absent entirely in fixed-range mode),
    ``insitu_consolidation_rounds_total``, peer cells folded, and
    eviction totals, plus ``consolidate/...`` phase spans.

    With ``skb.adaptive``, a grid-agreement MAX-allreduce runs *before*
    the delta merge: ranks pool their observed need envelopes and chain
    levels and all rebin to the same (widest) grid, so deltas accumulated
    at older bin epochs are exactly rebinned — never dropped — before
    summation.
    """
    if reduce_algo not in ("linear", "ring"):
        raise ValidationError(
            f"reduce_algo must be 'linear' or 'ring', got {reduce_algo!r}"
        )
    assert skb._states is not None
    reg = default_registry()
    rank = str(comm.rank)
    grid_bytes = 0
    with trace.span("consolidate"):
        # --- adaptive grid agreement (before ANY delta travels) ------------
        # Each rank's deltas are meaningful only on its own grid, and a
        # rank that saw wider data than its peers has already widened
        # locally. Pool the per-dimension need envelopes and chain levels
        # with one MAX allreduce (lows negated so MAX pools the minimum),
        # then every rank widens to the common target: the cover of the
        # pooled need, never below the widest pooled level (a rank's level
        # can exceed its need's cover because of the forced +1 progression
        # on float-boundary retries). Since the chain is totally ordered,
        # every rank lands on the *same* grid, and each rank's pending
        # deltas — possibly accumulated at an older bin epoch — are
        # exactly rebinned rather than dropped before the merge below.
        if getattr(skb, "adaptive", False):
            with trace.span("grid_allreduce"):
                # The buffer also carries each base bound twice (±value):
                # under MAX, a vector is identical on every rank iff its
                # pooled max equals the negated pooled max of its negation
                # — a free equality proof. Chain levels are only
                # comparable on a shared base grid (same seed + same
                # feature_range, or deterministically derived bounds), so
                # divergent bases must be a loud error, not a silent
                # merge of incompatible grids. Every rank sees the same
                # pooled buffer, so all raise together — no deadlock.
                grid_buf = np.concatenate(
                    [
                        np.concatenate(
                            [
                                -st.need_lo,
                                st.need_hi,
                                st.levels.astype(np.float64),
                                st.base_space.r_min,
                                -st.base_space.r_min,
                                st.base_space.r_max,
                                -st.base_space.r_max,
                            ]
                        )
                        for st in skb._states
                    ]
                )
                pooled = comm.allreduce(grid_buf, op=ReduceOp.MAX)
                grid_bytes = grid_buf.nbytes
                off = 0
                for idx, st in enumerate(skb._states):
                    n = st.space.n_dims
                    need_lo = -pooled[off : off + n]
                    need_hi = pooled[off + n : off + 2 * n]
                    pooled_levels = pooled[
                        off + 2 * n : off + 3 * n
                    ].astype(np.int64)
                    bmin_hi = pooled[off + 3 * n : off + 4 * n]
                    bmin_lo = -pooled[off + 4 * n : off + 5 * n]
                    bmax_hi = pooled[off + 5 * n : off + 6 * n]
                    bmax_lo = -pooled[off + 6 * n : off + 7 * n]
                    off += 7 * n
                    mismatch = (bmin_hi != bmin_lo) | (bmax_hi != bmax_lo)
                    if mismatch.any():
                        dim = int(np.flatnonzero(mismatch)[0])
                        raise ValidationError(
                            f"adaptive grid agreement: ranks disagree on the "
                            f"base grid of projection {idx}, dimension {dim} "
                            f"(base_min spans [{bmin_lo[dim]}, {bmin_hi[dim]}]"
                            f", base_max spans [{bmax_lo[dim]}, "
                            f"{bmax_hi[dim]}] across ranks); distributed "
                            "adaptive binning needs every rank to derive the "
                            "same base grid — construct the estimators with "
                            "a shared seed and an explicit feature_range"
                        )
                    st.observe(need_lo, need_hi)
                    target = np.maximum(st.target_levels(), pooled_levels)
                    if st.rebin_to(target):
                        skb._note_rebin(idx)
        # --- histogram deltas: one flat buffer, one deep table a projection ---
        flat_delta = np.concatenate([st.hist_delta.ravel() for st in skb._states])
        with trace.span("hist_allreduce"):
            if reduce_algo == "ring":
                total_delta = ring_allreduce(comm, flat_delta, op=ReduceOp.SUM)
            else:
                total_delta = comm.allreduce(flat_delta, op=ReduceOp.SUM)
        offset = 0
        for st in skb._states:
            size = st.hist.size
            global_inc = total_delta[offset : offset + size].reshape(st.hist.shape)
            # st.hist already contains this rank's own delta; add the peers'.
            st.hist += global_inc - st.hist_delta
            offset += size
        # --- key-counter deltas: allgather sparse increments, fold into the
        # merged table. Below capacity the merged tables are the same multiset
        # on every rank; evictions are content-deterministic (count, then key
        # bytes), so replicas that overflow agree on what to drop.
        payload = [
            st.keys_delta.to_arrays()
            + (st.keys_delta.evicted_keys, st.keys_delta.evicted_points)
            for st in skb._states
        ]
        with trace.span("keys_allgather"):
            gathered = comm.allgather(payload)
        evictions_before = sum(st.keys.evicted_keys for st in skb._states)
        cells_folded = 0
        for proj_idx, st in enumerate(skb._states):
            # Ledger the own delta first: until a state's first merge its
            # keys_delta is the `keys` table itself, which the peer folds
            # below change.
            st.reset_deltas()
            for rank_idx, rank_payload in enumerate(gathered):
                if rank_idx == comm.rank:
                    continue  # own delta is already in st.keys via partial_fit
                keys, counts, ev_keys, ev_points = rank_payload[proj_idx]
                cells_folded += int(keys.shape[0])
                st.keys.merge_arrays(
                    keys, counts, evicted_keys=ev_keys, evicted_points=ev_points
                )
        # --- points seen: delta allreduce, folded the same way ---
        seen_inc = int(
            comm.allreduce(np.array([skb.n_seen_delta_], dtype=np.int64))[0]
        )
        skb.n_seen_ += seen_inc - skb.n_seen_delta_
        skb.n_seen_delta_ = 0
    if reg.enabled:
        # Per-round wire accounting: what THIS rank contributed to the
        # collective, by payload kind. Summed over rounds this is exactly
        # the O(histogram × rounds) bound tests/insitu pin.
        bytes_total = reg.counter(
            "insitu_consolidation_bytes_total",
            "Delta bytes this rank put on the wire per consolidation payload "
            "kind (hist = flat histogram delta, keys = sparse key-cell delta, "
            "seen = points-seen scalar).",
            ("kind", "rank", "algo"),
        )
        bytes_total.labels(kind="hist", rank=rank, algo=reduce_algo).inc(
            flat_delta.nbytes
        )
        bytes_total.labels(kind="keys", rank=rank, algo=reduce_algo).inc(
            payload_nbytes(payload)
        )
        bytes_total.labels(kind="seen", rank=rank, algo=reduce_algo).inc(8)
        if grid_bytes:
            bytes_total.labels(kind="grid", rank=rank, algo=reduce_algo).inc(
                grid_bytes
            )
        reg.counter(
            "insitu_consolidation_rounds_total",
            "Distributed delta-merge rounds completed, per rank and reduce algo.",
            ("rank", "algo"),
        ).labels(rank=rank, algo=reduce_algo).inc()
        reg.counter(
            "insitu_consolidation_cells_folded_total",
            "Peer key-cells folded into the merged table, per rank.",
            ("rank",),
        ).labels(rank=rank).inc(cells_folded)
        evictions_after = sum(st.keys.evicted_keys for st in skb._states)
        reg.counter(
            "insitu_consolidation_evictions_total",
            "Key-cells evicted by capacity during delta merges, per rank.",
            ("rank",),
        ).labels(rank=rank).inc(evictions_after - evictions_before)


@dataclass
class RecoveryContext:
    """Mutable fault-tolerance state threaded through a resilient run.

    ``comm`` is replaced by its shrunken successor on every recovery, so
    callers must always go through the context (never cache the
    communicator) once recovery is enabled.
    """

    comm: Communicator
    recover: bool = False
    recoveries: int = field(default=0, init=False)
    frames_lost: int = field(default=0, init=False)
    lost_ranks: List[int] = field(default_factory=list, init=False)

    @property
    def can_recover(self) -> bool:
        if not self.recover or not isinstance(self.comm, MailboxComm):
            return False
        if self.comm.size <= 1:
            return False  # nobody left to agree with
        if MAX_RECOVERIES is not None and self.recoveries >= MAX_RECOVERIES:
            return False
        return True


def _physical_rank(comm: Communicator) -> int:
    return comm.physical_rank if isinstance(comm, MailboxComm) else comm.rank


def _recover_from_failure(
    ctx: RecoveryContext, skb: StreamingKeyBin2, exc: RankFailedError
) -> None:
    """One recovery round: agree on survivors, shrink, roll back, re-account.

    The roll-back is exact without touching disk: each rank's own-history
    ledger (``hist_local``/``keys_local``/``n_own_``) is the portion of its
    *own* frames already merged, so discarding the merged global view and
    re-seeding the deltas from the ledger
    (:meth:`~repro.core.streaming._ProjectionState.rebuild_from_local`)
    leaves every survivor holding exactly its own full history as one big
    unmerged delta. The retried consolidation on the shrunken communicator
    then reproduces, to the frame, the state a run over only the surviving
    ranks' trajectories would have built — the dead rank's already-merged
    mass vanishes along with the discarded global view.
    """
    comm = ctx.comm
    assert isinstance(comm, MailboxComm)
    # The blamed rank: confirmed deaths (failure sentinel seen) are never
    # probed again; an unconfirmed timeout stays a mere suspect — the peer
    # may be slow, and the agreement protocol lets it rejoin.
    suspects: List[int] = []
    confirmed: List[int] = []
    blamed_phys = getattr(exc, "rank", None)
    phys_to_cur = {comm._physical[r]: r for r in range(comm.size)}
    if blamed_phys in phys_to_cur and phys_to_cur[blamed_phys] != comm.rank:
        target = confirmed if getattr(exc, "confirmed", False) else suspects
        target.append(phys_to_cur[blamed_phys])
    # Pre-rebuild accounting: the merged-global frame count and this rank's
    # merged share of it. Their difference across survivors is the mass
    # that dies with the lost ranks.
    merged_global = skb.n_seen_ - skb.n_seen_delta_
    merged_own = skb.n_own_ - skb.n_seen_delta_
    with trace.span("recover"):
        # Wake peers blocked on live ranks (e.g. waiting for the root's
        # broadcast) so they join the agreement now, not at their timeout.
        comm.announce_recovery(
            -1 if blamed_phys is None else int(blamed_phys),
            bool(getattr(exc, "confirmed", False)),
            str(exc),
        )
        survivors = agree_on_survivors(
            comm, suspects=suspects, confirmed_dead=confirmed
        )
        lost_phys = [
            comm._physical[r] for r in range(comm.size) if r not in survivors
        ]
        new_comm = comm.shrink(survivors)
        ctx.comm = new_comm
        ctx.recoveries += 1
        ctx.lost_ranks.extend(lost_phys)
        # Aborted collectives leave n_seen_ untouched (the seen allreduce is
        # the last step of a consolidation), so survivors agree on the
        # merged-global count; MAX is belt-and-braces for mid-round deaths.
        global_seen = int(
            new_comm.allreduce(
                np.array([merged_global], dtype=np.int64), op=ReduceOp.MAX
            )[0]
        )
        survivor_seen = int(
            new_comm.allreduce(
                np.array([merged_own], dtype=np.int64), op=ReduceOp.SUM
            )[0]
        )
        lost = max(0, global_seen - survivor_seen)
        ctx.frames_lost += lost
        assert skb._states is not None
        for st in skb._states:
            st.rebuild_from_local()
        skb.n_seen_ = skb.n_own_
        skb.n_seen_delta_ = skb.n_own_
    reg = default_registry()
    if reg.enabled:
        r = str(new_comm.physical_rank)
        reg.counter(
            "insitu_recoveries_total",
            "Rank-failure recoveries this rank survived (agreement + "
            "communicator shrink + ledger rollback + re-merge).",
            ("rank",),
        ).labels(rank=r).inc()
        reg.counter(
            "insitu_frames_lost_total",
            "Frames of already-merged mass dropped with lost ranks, as "
            "observed by this surviving rank.",
            ("rank",),
        ).labels(rank=r).inc(lost)


def resilient_consolidate(
    ctx: RecoveryContext,
    skb: StreamingKeyBin2,
    reduce_algo: str = "linear",
) -> None:
    """Consolidate via ``ctx.comm``, recovering from rank failures.

    On :class:`~repro.errors.RankFailedError` the survivors agree on a new
    membership, shrink the communicator, roll the streaming state back to
    each rank's own-history ledger, and retry — in a loop, so a second
    failure during the retried consolidation triggers another recovery.
    A failure during the recovery protocol itself (agreement
    non-convergence or a death inside the re-accounting collectives) fails
    fast: at that point a consistent shrink cannot be guaranteed and a
    clean restart from checkpoints beats a split brain.
    """
    while True:
        try:
            consolidate_streaming_state(ctx.comm, skb, reduce_algo=reduce_algo)
            return
        except RankFailedError as exc:
            if not ctx.can_recover:
                raise
            _recover_from_failure(ctx, skb, exc)


def distributed_insitu_spmd(
    comm: Communicator,
    trajectory: Trajectory,
    chunk_size: int = 250,
    consolidate_every: int = 4,
    seed: int = 0,
    reduce_algo: str = "linear",
    recover: bool = False,
    checkpoint_dir: Optional[str] = None,
    **keybin_params: Any,
) -> DistributedInSituResult:
    """SPMD in-situ analysis: each rank passes its *own* trajectory.

    All ranks share ``seed`` (identical projections/ranges). Every
    ``consolidate_every`` chunks, streaming state is delta-merged globally
    — the only communication, sized O(histograms + new occupied cells).
    ``reduce_algo`` selects the histogram reduction topology (``"linear"``
    or ``"ring"``; see :func:`consolidate_streaming_state`).

    Fault tolerance:

    * ``recover=True`` turns rank failures during consolidation into
      survivor recoveries (see :func:`resilient_consolidate`) instead of
      run-wide aborts; :data:`MAX_RECOVERIES` caps how many.
    * ``checkpoint_dir`` enables per-rank checkpoints after every
      successful consolidation, and *resume*: when
      the directory already holds a checkpoint round common to all ranks,
      every rank restores it and skips the chunks it covers.
    """
    if chunk_size < 1 or consolidate_every < 1:
        raise ValidationError("chunk_size and consolidate_every must be >= 1")
    n_frames = trajectory.n_frames
    n_chunks_local = -(-n_frames // chunk_size)
    # Ranks may hold different trajectory lengths; every rank must join
    # every consolidation, so the consolidation count is agreed globally.
    # The same allreduce carries -n_frames so every rank learns the global
    # minimum and a zero-frame rank fails fast *on all ranks at once*,
    # instead of one rank raising mid-loop while its peers block in the
    # next consolidation until the deadlock timeout.
    agreed = comm.allreduce(
        np.array([n_chunks_local, -n_frames], dtype=np.int64), op=ReduceOp.MAX
    )
    n_chunks_global = int(agreed[0])
    if int(-agreed[1]) < 1:
        raise ValidationError(
            "a rank holds a trajectory with no frames; every rank needs at "
            "least one frame to join the shared model"
        )
    features = encode_frames(trajectory.angles)

    params = {
        "feature_range": (0.0, 6.0),
        "candidate_depths": (5, 6, 7, 8),
    }
    params.update(keybin_params)
    skb = StreamingKeyBin2(seed=seed, **params)

    # Checkpointing keys on the *physical* rank so a recovered (shrunk)
    # run keeps appending to the same per-rank history, and a restarted
    # run finds it again.
    ckpt_mgr: Optional[CheckpointManager] = None
    resumed_round: Optional[int] = None
    start_chunk = 0
    consolidation_round = 0
    if checkpoint_dir is not None:
        ckpt_mgr = CheckpointManager(checkpoint_dir, _physical_rank(comm))
        # Resume from the newest round every rank holds. The directory scan
        # is deterministic on a shared filesystem, but the MIN allreduce
        # makes the choice robust to ranks racing each other's writes.
        local_common = common_checkpoint_round(checkpoint_dir, comm.size)
        agreed_round = int(
            comm.allreduce(
                np.array(
                    [-1 if local_common is None else local_common],
                    dtype=np.int64,
                ),
                op=ReduceOp.MIN,
            )[0]
        )
        if agreed_round >= 0:
            skb = ckpt_mgr.load(agreed_round)
            meta = skb.restored_meta_ or {}
            start_chunk = int(meta.get("chunks_done", 0))
            consolidation_round = agreed_round
            resumed_round = agreed_round

    rctx = RecoveryContext(comm=comm, recover=recover)
    # Executor ranks run on worker threads, which start from an empty
    # trace context; re-root so every span below attributes to its rank
    # (insitu/rank2/partial_fit/project, insitu/rank2/consolidate/...).
    with trace.propagate(("insitu", f"rank{comm.rank}")):
        chunk_idx = start_chunk
        for start in range(
            start_chunk * chunk_size, n_chunks_global * chunk_size, chunk_size
        ):
            if start < n_frames:
                stop = min(start + chunk_size, n_frames)
                skb.partial_fit(features[start:stop])
            chunk_idx += 1
            if chunk_idx % consolidate_every == 0 or chunk_idx == n_chunks_global:
                consolidation_round += 1
                maybe_inject(rctx.comm, "consolidation")
                resilient_consolidate(rctx, skb, reduce_algo=reduce_algo)
                if ckpt_mgr is not None:
                    ckpt_mgr.save(
                        skb,
                        consolidation_round,
                        meta={
                            "chunks_done": chunk_idx,
                            "n_ranks": rctx.comm.size,
                            "epoch": getattr(rctx.comm, "epoch", 0),
                        },
                    )

        skb.refresh()
        with trace.span("label_frames"):
            labels = skb.predict(features)
    prints = window_fingerprints(labels)
    changes = fingerprint_change_points(prints)
    phase_nmi = (
        float(normalized_mutual_info(trajectory.phase_ids, labels))
        if trajectory.phase_ids is not None
        else None
    )
    # Global cluster count (model is identical everywhere after merging).
    n_clusters = skb.n_clusters_
    return DistributedInSituResult(
        labels=labels,
        fingerprints=prints,
        fingerprint_changes=changes,
        n_clusters=n_clusters,
        phase_nmi=phase_nmi,
        traffic=rctx.comm.traffic.snapshot(),
        recoveries=rctx.recoveries,
        frames_lost=rctx.frames_lost,
        lost_ranks=tuple(rctx.lost_ranks),
        resumed_round=resumed_round,
    )


def _entry(comm, trajectories, chunk_size, consolidate_every, seed, reduce_algo,
           recover, checkpoint_dir, params):
    res = distributed_insitu_spmd(
        comm, trajectories[comm.rank], chunk_size=chunk_size,
        consolidate_every=consolidate_every, seed=seed,
        reduce_algo=reduce_algo, recover=recover,
        checkpoint_dir=checkpoint_dir, **params,
    )
    return res


def run_distributed_insitu(
    trajectories: Sequence[Trajectory],
    chunk_size: int = 250,
    consolidate_every: int = 4,
    seed: int = 0,
    executor: str = "thread",
    timeout: Optional[float] = 600.0,
    reduce_algo: str = "linear",
    recover: bool = False,
    checkpoint_dir: Optional[str] = None,
    faults: Optional[Any] = None,
    suspicion_timeout: Optional[float] = None,
    **keybin_params: Any,
) -> List[Any]:
    """Front-end: one rank per trajectory, results in rank order.

    With ``recover=True`` the run survives rank failures: failed ranks'
    slots in the returned list hold the exception that killed them, and
    survivors' :class:`DistributedInSituResult` entries report
    ``recoveries``/``frames_lost``. ``faults`` takes a
    :class:`~repro.comm.faults.FaultPlan` (or its ``parse`` spec string)
    for deterministic chaos testing. ``suspicion_timeout`` (seconds,
    below ``timeout``) turns receive stalls into liveness probes before
    any failure is declared, so a slow-but-alive rank is waited out
    instead of evicted (slow ≠ dead).
    """
    if not trajectories:
        raise ValidationError("need at least one trajectory")
    for i, traj in enumerate(trajectories):
        if traj.n_frames < 1:
            raise ValidationError(
                f"trajectory {i} ({traj.name!r}) has no frames; every rank "
                "needs at least one frame"
            )
    return run_spmd(
        _entry,
        len(trajectories),
        executor=executor,
        args=(list(trajectories), chunk_size, consolidate_every, seed,
              reduce_algo, recover, checkpoint_dir, dict(keybin_params)),
        timeout=timeout,
        faults=faults,
        return_exceptions=recover,
        suspicion_timeout=suspicion_timeout,
    )
