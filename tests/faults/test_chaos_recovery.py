"""Chaos tests: rank-failure recovery must be *exact*, not approximate.

The invariant under test: after any planned kill, the survivors' final
model state equals — label for label — the state of a fault-free
distributed run over only the surviving ranks' trajectories. Mass neither
leaks nor duplicates: the lost rank's already-merged frames vanish with
the discarded global view, and the recovery counters account for exactly
the frames the plan implies.
"""

import numpy as np
import pytest

from repro.comm.faults import DropMessage, FaultPlan, KillRank, SlowRank
from repro.errors import RankFailedError
from repro.insitu import distributed as insitu_distributed
from repro.insitu.distributed import run_distributed_insitu
from repro.proteins.trajectory import TrajectorySimulator

N_RESIDUES = 24
N_FRAMES = 160
CHUNK = 40            # 4 chunks per rank
EVERY = 2             # -> consolidations after chunks 2 and 4
KEYBIN = {"feature_range": (0.0, 6.0), "candidate_depths": (5, 6)}


def _trajs(n, n_frames=N_FRAMES, base_seed=50):
    proto = TrajectorySimulator(N_RESIDUES, n_frames, 4, seed=base_seed)
    targets = proto.simulate().phase_targets
    return [
        TrajectorySimulator(
            N_RESIDUES, n_frames, 4, phase_targets=targets, seed=base_seed + 1 + i
        ).simulate(name=f"traj{i}")
        for i in range(n)
    ]


def _run(trajs, **kw):
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("consolidate_every", EVERY)
    kw.setdefault("seed", 0)
    return run_distributed_insitu(trajs, **kw, **KEYBIN)


def _split(results):
    survivors = {i: r for i, r in enumerate(results)
                 if not isinstance(r, BaseException)}
    failed = {i: r for i, r in enumerate(results)
              if isinstance(r, BaseException)}
    return survivors, failed


class TestKillRecoveryExactness:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_survivor_state_equals_pooled_survivor_run(self, victim, executor):
        """Kill each rank in turn at the 2nd consolidation; survivors must
        match a fault-free run over only their trajectories, exactly."""
        trajs = _trajs(3)
        plan = FaultPlan([KillRank(victim, at=1)])
        results = _run(trajs, recover=True, faults=plan, timeout=15.0,
                       executor=executor)
        survivors, failed = _split(results)
        assert set(failed) == {victim}
        assert set(survivors) == {0, 1, 2} - {victim}

        reference = _run([t for i, t in enumerate(trajs) if i != victim],
                         timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.recoveries == 1
            assert res.lost_ranks == (victim,)
            # The victim merged exactly one round before dying: CHUNK*EVERY.
            assert res.frames_lost == CHUNK * EVERY
            assert res.n_clusters == ref.n_clusters
            np.testing.assert_array_equal(res.labels, ref.labels)

    def test_kill_before_first_merge_loses_nothing(self):
        """A rank killed before any consolidation never merged mass, so
        the survivors lose zero frames."""
        trajs = _trajs(3)
        results = _run(trajs, recover=True, faults=FaultPlan([KillRank(2, at=0)]),
                       timeout=15.0)
        survivors, failed = _split(results)
        assert set(failed) == {2}
        reference = _run(trajs[:2], timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.recoveries == 1
            assert res.frames_lost == 0
            np.testing.assert_array_equal(res.labels, ref.labels)

    @pytest.mark.parametrize("every", [1, 2])
    def test_exactness_is_cadence_invariant(self, every):
        trajs = _trajs(3)
        results = _run(trajs, consolidate_every=every, recover=True,
                       faults=FaultPlan([KillRank(1, at=1)]), timeout=15.0)
        survivors, failed = _split(results)
        assert set(failed) == {1}
        reference = _run([trajs[0], trajs[2]], consolidate_every=every,
                         timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.frames_lost == CHUNK * every
            np.testing.assert_array_equal(res.labels, ref.labels)

    def test_silent_death_recovers_via_timeout_path(self):
        """mode='exit' leaves no sentinel: survivors must converge through
        the unconfirmed-suspect path (process executor only)."""
        trajs = _trajs(3)
        plan = FaultPlan([KillRank(2, at=1, mode="exit")])
        results = _run(trajs, recover=True, faults=plan, timeout=6.0,
                       executor="process")
        survivors, failed = _split(results)
        assert set(failed) == {2}
        reference = _run(trajs[:2], timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.recoveries == 1
            assert res.frames_lost == CHUNK * EVERY
            np.testing.assert_array_equal(res.labels, ref.labels)


class TestMultiKill:
    def test_cascaded_kills_counted_exactly(self):
        """Two kills at different rounds: recoveries and frames_lost must
        match the plan exactly, and the final state the two survivors."""
        trajs = _trajs(4, n_frames=240)          # 6 chunks -> 3 consolidations
        plan = FaultPlan([KillRank(1, at=1), KillRank(2, at=2)])
        results = _run(trajs, recover=True, faults=plan, timeout=15.0)
        survivors, failed = _split(results)
        assert set(failed) == {1, 2}
        reference = _run([trajs[0], trajs[3]], timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.recoveries == 2
            assert res.lost_ranks == (1, 2)
            # rank 1 died holding 1 merged round (80 frames), rank 2 holding
            # 2 merged rounds (160 frames).
            assert res.frames_lost == 80 + 160
            np.testing.assert_array_equal(res.labels, ref.labels)


class TestNonFatalFaults:
    def test_dropped_message_recovers_with_zero_loss(self):
        """A dropped consolidation message looks like a dead peer, but the
        agreement round discovers everyone alive: the run completes with a
        full survivor set and exactly the fault-free result."""
        trajs = _trajs(3)
        # 2nd message rank 1 sends rank 0: its hist-delta contribution to
        # the first consolidation (the 1st was the chunk-count allreduce).
        plan = FaultPlan([DropMessage(1, 0, nth=2)])
        results = _run(trajs, recover=True, faults=plan, timeout=2.0)
        survivors, failed = _split(results)
        assert not failed
        reference = _run(trajs, timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.recoveries == 1
            assert res.frames_lost == 0
            assert res.lost_ranks == ()
            np.testing.assert_array_equal(res.labels, ref.labels)

    def test_slow_rank_triggers_no_recovery(self):
        trajs = _trajs(3)
        plan = FaultPlan([SlowRank(1, seconds=0.002)])
        results = _run(trajs, recover=True, faults=plan, timeout=30.0)
        survivors, failed = _split(results)
        assert not failed
        reference = _run(trajs, timeout=30.0)
        for ref, (rank, res) in zip(reference, sorted(survivors.items())):
            assert res.recoveries == 0
            assert res.frames_lost == 0
            np.testing.assert_array_equal(res.labels, ref.labels)


class TestFailFast:
    def test_without_recover_every_rank_fails_fast(self):
        """recover=False keeps the old contract: the whole run aborts with
        RankFailedError, promptly, on every executor."""
        trajs = _trajs(3)
        plan = FaultPlan([KillRank(1, at=1)])
        with pytest.raises(RankFailedError) as excinfo:
            _run(trajs, recover=False, faults=plan, timeout=15.0)
        assert excinfo.value.rank == 1
        assert "InjectedFault" in str(excinfo.value)

    def test_recovery_budget_exhaustion_fails(self, monkeypatch):
        """A zero recovery budget turns the first failure into an abort even
        with recover=True — survivors re-raise instead of shrinking."""
        monkeypatch.setattr(insitu_distributed, "MAX_RECOVERIES", 0)
        trajs = _trajs(3)
        plan = FaultPlan([KillRank(1, at=1)])
        results = _run(trajs, recover=True, faults=plan, timeout=15.0)
        survivors, failed = _split(results)
        assert not survivors
        assert set(failed) == {0, 1, 2}
