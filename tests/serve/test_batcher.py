"""Tests for the micro-batching request queue."""

import asyncio
import time

import numpy as np
import pytest

from repro.errors import QueueFullError, ServeError, ValidationError
from repro.serve import BatchPolicy, MicroBatcher, ServeStats
from repro.serve.batcher import IDLE_YIELDS


class _Recorder:
    """Fake model call that records the batch shapes it was handed."""

    def __init__(self, fail=False):
        self.batch_sizes = []
        self.fail = fail

    def __call__(self, rows):
        self.batch_sizes.append(rows.shape[0])
        if self.fail:
            raise ValidationError("boom")
        return rows[:, 0].astype(np.int64), type("R", (), {"version": 7})()


def run(coro):
    return asyncio.run(coro)


class TestPolicy:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValidationError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValidationError):
            BatchPolicy(max_delay_s=-1)
        with pytest.raises(ValidationError):
            BatchPolicy(max_batch=10, max_queue=5)


class TestBatching:
    def test_single_submit_round_trips(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(rec, BatchPolicy(max_delay_s=0.001)).start()
            label, extra = await batcher.submit(np.array([5.0, 1.0]))
            await batcher.stop()
            return label, extra, rec

        label, extra, rec = run(scenario())
        assert label == 5
        assert extra.version == 7
        assert rec.batch_sizes == [1]

    def test_concurrent_submits_coalesce(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=64, max_delay_s=0.02)
            ).start()
            rows = [np.array([float(i), 0.0]) for i in range(40)]
            results = await asyncio.gather(*(batcher.submit(r) for r in rows))
            await batcher.stop()
            return results, rec

        results, rec = run(scenario())
        assert [lab for lab, _ in results] == list(range(40))
        # 40 concurrent submits must NOT become 40 model calls.
        assert max(rec.batch_sizes) > 1
        assert sum(rec.batch_sizes) == 40

    def test_max_batch_respected(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=8, max_delay_s=0.02, max_queue=1000)
            ).start()
            rows = [np.array([float(i)]) for i in range(30)]
            await asyncio.gather(*(batcher.submit(r) for r in rows))
            await batcher.stop()
            return rec

        rec = run(scenario())
        assert max(rec.batch_sizes) <= 8
        assert sum(rec.batch_sizes) == 30

    def test_results_map_to_correct_callers(self):
        """Labels must come back to the caller whose row produced them."""
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=16, max_delay_s=0.01)
            ).start()

            async def one(i):
                label, _ = await batcher.submit(np.array([float(i), -1.0]))
                return i, label

            pairs = await asyncio.gather(*(one(i) for i in range(50)))
            await batcher.stop()
            return pairs

        for i, label in run(scenario()):
            assert label == i

    def test_stats_recorded(self):
        async def scenario():
            stats = ServeStats()
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=8, max_delay_s=0.01), stats=stats
            ).start()
            await asyncio.gather(
                *(batcher.submit(np.array([1.0])) for _ in range(20))
            )
            await batcher.stop()
            return stats

        stats = run(scenario())
        assert stats.batched_points_total == 20
        assert stats.batches_total >= 3  # max_batch=8 forces >= ceil(20/8)
        assert stats.versions_served == {7: 20}
        assert stats.snapshot()["mean_batch_size"] > 1


class TestFlushOnLoopReadiness:
    """A batch flushes when the event loop stops handing it rows, not when
    a timer fires; ``max_delay_s`` and ``max_batch`` only cap the linger
    while rows keep arriving."""

    def test_lone_submit_skips_the_window(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(rec, BatchPolicy(max_delay_s=10.0)).start()
            t0 = time.perf_counter()
            label, _ = await batcher.submit(np.array([3.0]))
            elapsed = time.perf_counter() - t0
            await batcher.stop()
            return label, elapsed, rec

        label, elapsed, rec = run(scenario())
        assert label == 3
        assert rec.batch_sizes == [1]
        assert elapsed < 1.0  # nowhere near the 10 s window

    def test_lone_submit_flushes_within_a_few_loop_iterations(self):
        """Counted in event-loop iterations, not wall time: a timer-based
        linger lets the loop spin many idle iterations before it fires."""
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(rec, BatchPolicy(max_delay_s=10.0)).start()
            fut = batcher.submit_nowait(np.array([3.0]))
            ticks = 0
            while not fut.done():
                ticks += 1
                await asyncio.sleep(0)
            await batcher.stop()
            return ticks

        # One iteration to wake the worker, IDLE_YIELDS idle ones, the flush.
        assert run(scenario()) <= IDLE_YIELDS + 2

    @pytest.mark.parametrize("lag", [1, 2])
    def test_rows_a_few_iterations_behind_join_the_flush(self, lag):
        """A row whose bytes already sit in a socket buffer reaches
        ``submit_nowait`` a loop iteration or two after the first row
        (select wakes the reader, then its handler parses and submits)."""
        async def late(batcher, value):
            for _ in range(lag):
                await asyncio.sleep(0)
            return await batcher.submit_nowait(np.array([value]))

        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(rec, BatchPolicy(max_delay_s=10.0)).start()
            results = await asyncio.gather(
                batcher.submit(np.array([1.0])), late(batcher, 2.0)
            )
            await batcher.stop()
            return results, rec

        results, rec = run(scenario())
        assert [lab for lab, _ in results] == [1, 2]
        assert rec.batch_sizes == [2]

    def test_endless_arrivals_flush_at_max_batch(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=8, max_delay_s=10.0)
            ).start()
            futures = []

            async def producer():
                # One row every loop iteration, until the first flush.
                while not rec.batch_sizes:
                    futures.append(batcher.submit_nowait(np.array([1.0])))
                    await asyncio.sleep(0)

            t0 = time.perf_counter()
            await producer()
            elapsed = time.perf_counter() - t0
            await batcher.stop()
            await asyncio.gather(*futures)
            return elapsed, rec

        elapsed, rec = run(scenario())
        assert rec.batch_sizes[0] == 8
        assert elapsed < 1.0

    def test_zero_delay_flushes_without_lingering(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(rec, BatchPolicy(max_delay_s=0.0)).start()

            async def late():
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                return await batcher.submit(np.array([2.0]))

            await asyncio.gather(batcher.submit(np.array([1.0])), late())
            await batcher.stop()
            return rec

        assert run(scenario()).batch_sizes == [1, 1]


class TestFailureAndBackpressure:
    def test_predict_error_propagates_to_all_waiters(self):
        async def scenario():
            batcher = MicroBatcher(
                _Recorder(fail=True), BatchPolicy(max_delay_s=0.005)
            ).start()
            results = await asyncio.gather(
                *(batcher.submit(np.array([1.0])) for _ in range(5)),
                return_exceptions=True,
            )
            await batcher.stop()
            return results

        results = run(scenario())
        assert len(results) == 5
        assert all(isinstance(r, ValidationError) for r in results)

    def test_queue_full_rejects_fast(self):
        async def scenario():
            stats = ServeStats()
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=4, max_delay_s=0.01, max_queue=4),
                stats=stats,
            ).start()
            # Stage a backlog directly (the worker's wakeup event stays
            # clear, so it cannot drain mid-test) and verify the bound.
            loop = asyncio.get_running_loop()
            backlog = [
                (np.array([float(i)]), loop.create_future(), None,
                 time.monotonic(), None)
                for i in range(4)
            ]
            batcher._pending.extend(backlog)
            with pytest.raises(QueueFullError):
                await batcher.submit(np.array([9.0]))
            assert stats.rejected_total == 1
            await batcher.stop()  # drains the staged backlog cleanly
            return [fut.result() for _, fut, _, _, _ in backlog]

        results = run(scenario())
        assert [lab for lab, _ in results] == [0, 1, 2, 3]

    def test_submit_before_start_raises(self):
        async def scenario():
            batcher = MicroBatcher(_Recorder())
            with pytest.raises(ServeError):
                await batcher.submit(np.array([1.0]))

        run(scenario())

    def test_double_start_raises(self):
        async def scenario():
            batcher = MicroBatcher(_Recorder()).start()
            with pytest.raises(ServeError):
                batcher.start()
            await batcher.stop()

        run(scenario())

    def test_ragged_rows_fail_batch_without_killing_worker(self):
        """Rows of mismatched lengths in one flush must reject that batch's
        futures (np.asarray cannot stack them) — not crash the worker and
        leave every later submit hanging forever."""
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=8, max_delay_s=0.01)
            ).start()
            bad = await asyncio.gather(
                batcher.submit(np.array([1.0, 2.0])),
                batcher.submit(np.array([1.0, 2.0, 3.0])),
                return_exceptions=True,
            )
            # The worker survived: a well-formed follow-up still round-trips.
            label, _ = await batcher.submit(np.array([4.0, 0.0]))
            await batcher.stop()
            return bad, label

        bad, label = run(scenario())
        assert all(isinstance(r, Exception) for r in bad)
        assert label == 4

    def test_worker_crash_fails_pending_and_marks_dead(self):
        """If the worker loop itself dies, pending futures must be failed
        (not left hanging) and later submits must raise, not enqueue rows
        nobody will ever flush."""
        async def scenario():
            batcher = MicroBatcher(
                _Recorder(), BatchPolicy(max_batch=8, max_delay_s=0.01)
            ).start()

            def exploding_flush(batch):
                raise RuntimeError("synthetic worker bug")

            batcher._flush = exploding_flush
            with pytest.raises(ServeError, match="crashed"):
                await batcher.submit(np.array([1.0]))
            await asyncio.sleep(0)  # let the worker task finish unwinding
            with pytest.raises(ServeError, match="crashed"):
                batcher.submit_nowait(np.array([2.0]))
            assert batcher.queue_depth == 0

        run(scenario())

    def test_stop_drains_pending(self):
        async def scenario():
            rec = _Recorder()
            batcher = MicroBatcher(
                rec, BatchPolicy(max_batch=128, max_delay_s=1.0)
            ).start()
            futures = [
                asyncio.ensure_future(batcher.submit(np.array([float(i)])))
                for i in range(10)
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await batcher.stop()    # must flush, not strand them
            return await asyncio.gather(*futures)

        results = run(scenario())
        assert [lab for lab, _ in results] == list(range(10))
