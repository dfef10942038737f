"""Shared machinery of the layered benchmark.

* :class:`Tracer` keeps spans in memory around the benchmark's calls into
  the system under test and writes them out once, when the run ends.
* :class:`Outcome` is what every workload returns: end-to-end metrics,
  per-layer metrics, exact counts, correctness failures and the named
  figures the human-readable report prints.
* Timing statistics (median, tail percentile with its sample count),
  span arithmetic (busy time, self time, unattributed time), process
  memory readings and the host fingerprint.

All clocks are ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so stamps
taken in different rank processes compare directly.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

now = time.monotonic

#: CPU time of the calling thread. Single-process compute is timed with it:
#: on an idle host it equals wall time, and it does not count the time the
#: hypervisor of a shared host gives this machine's vCPUs to others, which
#: moved wall time by up to 30 % between runs on a shared 2-vCPU machine.
#: Host speed moved CPU time as well; :class:`SpeedGauge` scales for that.
cpu = time.thread_time

#: spans, per-run records and the serve workload's model files
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")


class Tracer:
    """In-memory spans: name, start, end, parent span and process id.

    ``enabled`` may be flipped between units of work, so one traced run can
    interleave untraced units and measure what recording costs. Disabled
    spans cost one generator frame and record nothing.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        record: Dict[str, Any] = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pid": self._pid,
            "status": "ok",
            **attrs,
        }
        self._stack.append(span_id)
        record["start"] = now()
        try:
            yield record
        except BaseException:
            record["status"] = "error"
            raise
        finally:
            record["end"] = now()
            self._stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs: Any) -> int:
        """Record a finished span timed elsewhere (safe from any thread)."""
        span_id = next(self._ids)
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "pid": self._pid, "status": "ok", **attrs,
                           "start": start, "end": end})
        return span_id


# -- inputs --------------------------------------------------------------------


#: centres are at least SEPARATION·σ_max apart, as in
#: :func:`repro.data.gaussians.gaussian_mixture`
SEPARATION = 6.0
SIGMA_RANGE = (0.8, 1.2)
#: draws the centres, spreads and weights, the same for every workload seed
STRUCTURE_SEED = 2


class Mixture:
    """Gaussian mixture with a fixed structure and seeded draws.

    Centres, spreads and weights come from ``STRUCTURE_SEED``, so the work a
    run does hardly depends on the workload seed; :meth:`sample` draws rows
    as a pure function of its seed words.
    """

    def __init__(self, n_dims: int, n_clusters: int):
        rng = np.random.default_rng(STRUCTURE_SEED)
        lo, hi = SIGMA_RANGE
        min_dist = SEPARATION * hi
        box = min_dist * max(2.0, n_clusters ** (1.0 / min(n_dims, 3)))
        centers: List[np.ndarray] = []
        while len(centers) < n_clusters:
            c = rng.uniform(-box, box, size=n_dims)
            if all(np.linalg.norm(c - o) >= min_dist for o in centers):
                centers.append(c)
        self.centers = np.array(centers)
        self.sigmas = rng.uniform(lo, hi, size=(n_clusters, n_dims))
        self.weights = rng.dirichlet(np.full(n_clusters, 10.0))

    def sample(self, rows: int, *seed_words: int) -> Tuple[np.ndarray, np.ndarray]:
        """``rows`` points and their component ids, drawn from ``seed_words``."""
        rng = np.random.default_rng(list(seed_words))
        y = rng.choice(len(self.weights), size=rows, p=self.weights)
        noise = rng.standard_normal((rows, self.centers.shape[1]))
        return self.centers[y] + noise * self.sigmas[y], y


def write_spans(path: str, spans: Iterable[Dict[str, Any]]) -> None:
    """One JSON object per line, in start order."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for record in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(record) + "\n")


# -- span arithmetic ----------------------------------------------------------


def named(spans: Iterable[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [s for s in spans if s["name"] == name]


def durations(spans: Iterable[Dict[str, Any]]) -> List[float]:
    return [s["end"] - s["start"] for s in spans]


def busy_s(spans: Iterable[Dict[str, Any]], name: str) -> float:
    return float(sum(durations(named(spans, name))))


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"])
            )
    return {
        (s["pid"], s["id"]): (s["end"] - s["start"])
        - _union_length(children.get((s["pid"], s["id"]), []))
        for s in spans
    }


def unattributed_frac(spans: Sequence[Dict[str, Any]], root: str) -> float:
    """Share of the ``root`` units' wall time that no child span covers."""
    roots = named(spans, root)
    wall = sum(durations(roots))
    if wall <= 0:
        return 0.0
    selfs = self_times(spans)
    return float(sum(selfs[(s["pid"], s["id"])] for s in roots) / wall)


# -- timing statistics -----------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values: Sequence[float], pct: float) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` for the workload's fixed tail.

    ``pct`` is fixed per workload, chosen at sizing as the highest
    percentile that keeps at least ten samples beyond it. When a short run
    has too few samples for it, the highest percentile that does is used
    instead (and reported); with fewer than twenty samples the tail is the
    maximum.
    """
    n = len(values)
    if n == 0:
        return 0.0, pct, 0
    chosen = 100.0
    for cand in (pct, 99.0, 95.0, 90.0, 75.0, 50.0):
        if cand <= pct and n * (1.0 - cand / 100.0) >= 10:
            chosen = cand
            break
    return float(np.percentile(values, chosen)), chosen, n


def interleaved_overhead(units: Sequence[Tuple[float, bool]]) -> float:
    """Tracing overhead from units run alternately traced and untraced.

    ``units`` holds ``(duration, traced)`` in run order. Each traced unit
    is compared with the mean of its two untraced neighbours, which
    cancels any linear drift of unit cost over the run.
    """
    ratios = [
        units[i][0] / (0.5 * (units[i - 1][0] + units[i + 1][0]))
        for i in range(1, len(units) - 1)
        if units[i][1] and not units[i - 1][1] and not units[i + 1][1]
    ]
    return p50(ratios) - 1.0 if ratios else 0.0


# -- process memory --------------------------------------------------------------


def _status_mb(field: str, pid: Any) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for process {pid}")


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    return _status_mb("VmHWM", pid)


def vm_rss_mb(pid: Any = "self") -> float:
    """Current resident set (VmRSS) of a live process, in MiB."""
    return _status_mb("VmRSS", pid)


class StealMeter:
    """Share of CPU time the hypervisor gave to other guests since creation,
    from the ``steal`` column of /proc/stat (0 where the kernel has none)."""

    def __init__(self):
        self._start = (now(), self._ticks())

    @staticmethod
    def _ticks() -> int:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0

    def share(self) -> float:
        t0, ticks0 = self._start
        elapsed = now() - t0
        capacity = elapsed * os.sysconf("SC_CLK_TCK") * os.cpu_count()
        return (self._ticks() - ticks0) / capacity if capacity > 0 else 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, found by scanning /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name sits in parentheses and may contain spaces.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


# -- host fingerprint ---------------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    from repro.kernels.backend import get_backend

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": get_backend(None).name,
    }


# -- workload outcome ----------------------------------------------------------------


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: correctness failures; any entry makes the run exit nonzero
    problems: List[str] = field(default_factory=list)
    #: end-to-end metrics (untraced runs) or per-layer metrics (traced runs)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: counts that must repeat exactly between two runs at one seed
    counts: Dict[str, float] = field(default_factory=dict)
    #: the workload's figures under their own names: name -> (value, unit)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: context recorded with the result (sizes, setup repetitions, ...)
    info: Dict[str, Any] = field(default_factory=dict)
    #: spans of a traced run, written out when the run ends
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def median_setup(setup_fn, repeats: int) -> Tuple[float, List[float], Any]:
    """Run ``setup_fn`` ``repeats`` times; return (median s, all, last result).

    ``setup_fn(last)`` returns ``(seconds, state)`` and receives whether it
    is the final repetition, whose state the measured phase keeps. The
    median is in reference seconds (see :class:`SpeedGauge`); the list
    holds the raw wall times.
    """
    gauge = SpeedGauge(now, samples=4)
    times, scaled = [], []
    state = None
    for i in range(repeats):
        k = gauge.mark()
        seconds, state = setup_fn(i == repeats - 1)
        gauge.mark()
        times.append(seconds)
        scaled.append(gauge.scale(seconds, k))
    return float(np.median(scaled)), times, state


# -- host speed --------------------------------------------------------------------


class SpeedGauge:
    """Host speed from a fixed reference computation, timed between units.

    On a shared host the same work ran up to 50 % slower from one minute to
    the next, in thread CPU time as well as wall time, and the speed moved
    within a second too. A reference computation that does not touch the
    program under test, run just before and just after each timed unit,
    slows with it: on a 2-vCPU guest, over four minutes of 25k-row
    ``partial_fit`` calls, the 20-second medians of their CPU time varied
    by 9.5 % (coefficient of variation) and by 1.4 % once each call was
    divided by the mean of the reference times just before and after it.
    The reference mixes the two kinds of work the program does: a
    GEMM with key folding and ``np.unique`` (the kernels' shape) and a
    dictionary loop in the interpreter (the refresh tail's shape).

    The GEMM's ``rows`` set the reference's working set. 4k rows stay in
    cache; that reference tracks units of tens of milliseconds, the 25k-row
    streaming batches (figures above) and the 250-frame in-situ rounds. A
    whole-dataset fit streams hundreds of MB and slowed by only
    0.4-0.6 times as much as the in-cache reference did: divided by it, the
    CPU times of 88 successive 300k-row ``KeyBin2.fit`` calls varied by
    10.6 % against 8.6 % unscaled, and by 6.8 % when divided by a 100k-row
    reference instead. Fits use that one.

    :meth:`mark` times the reference (``samples`` runs, mean per run) by
    ``clock`` and returns its index; :meth:`scale` turns a unit timed
    between marks ``k`` and ``k + 1`` into reference seconds: seconds on a
    host where one reference run takes its ``NOMINAL_S``.
    """

    #: rows -> one reference run on an Intel Xeon 2-vCPU guest, BLAS on
    #: one thread
    NOMINAL_S = {4_000: 0.004, 100_000: 0.09}

    def __init__(self, clock=cpu, samples: int = 1, rows: int = 4_000):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((rows, 64))
        self._w = rng.standard_normal((64, 48))
        self.ref_s = self.NOMINAL_S[rows]
        self._table = {i: i for i in range(1000)}
        self.clock = clock
        self.samples = samples
        self.marks: List[float] = []

    def _reference(self) -> int:
        keys = np.floor(self._x @ self._w * 4.0).astype(np.int64)
        keys = keys[:, 0] * 1_000_003 + keys[:, 1] * 101 + keys[:, 2]
        total = len(np.unique(keys))
        table = self._table
        for _ in range(30):
            for i in range(1000):
                total += table[i]
        return total

    def mark(self) -> int:
        t0 = self.clock()
        for _ in range(self.samples):
            self._reference()
        self.marks.append((self.clock() - t0) / self.samples)
        return len(self.marks) - 1

    def scale(self, seconds: float, k: int) -> float:
        around = self.marks[k:k + 2]
        return seconds * self.ref_s * len(around) / sum(around)
