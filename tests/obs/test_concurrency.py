"""Concurrency guarantees: exact totals and un-torn snapshots under load.

The registry's contract (module docstring, constraint 2) is that counter
totals are exact and histogram snapshots internally consistent no matter
how many threads hammer one series. These tests hammer from >= 8 threads
with a start barrier so the increments genuinely race.
"""

import threading

import repro.obs.registry as registry_mod
from repro.obs import MetricsRegistry, POW2_BUCKETS

N_THREADS = 8
N_ITER = 2_000


def _hammer(n_threads, target):
    barrier = threading.Barrier(n_threads)

    def run(i):
        barrier.wait()
        target(i)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_counter_totals_exact_under_contention():
    reg = MetricsRegistry()
    c = reg.counter("c_total")

    def work(_i):
        for _ in range(N_ITER):
            c.inc()

    _hammer(N_THREADS, work)
    assert c.value == N_THREADS * N_ITER


def test_labeled_counter_children_exact_under_contention():
    reg = MetricsRegistry()
    fam = reg.counter("c_total", "help", ("worker",))

    def work(i):
        # Every thread creates/looks up its own child AND a shared one,
        # racing the family's child-creation path as well as the adds.
        own = fam.labels(worker=str(i))
        shared = fam.labels(worker="shared")
        for _ in range(N_ITER):
            own.inc()
            shared.inc(2)

    _hammer(N_THREADS, work)
    for i in range(N_THREADS):
        assert fam.labels(worker=str(i)).value == N_ITER
    assert fam.labels(worker="shared").value == 2 * N_THREADS * N_ITER


def test_gauge_inc_dec_balance_under_contention():
    reg = MetricsRegistry()
    g = reg.gauge("g")

    def work(_i):
        for _ in range(N_ITER):
            g.inc()
            g.dec()

    _hammer(N_THREADS, work)
    assert g.value == 0


def test_histogram_snapshots_never_torn_under_contention(monkeypatch):
    monkeypatch.setattr(registry_mod, "DEFAULT_TIME_BUCKETS", POW2_BUCKETS)
    reg = MetricsRegistry()
    h = reg.histogram("h")
    stop = threading.Event()
    torn = []

    def observe(i):
        for k in range(N_ITER):
            h.observe(float((i * N_ITER + k) % 5000))

    def scrape():
        # Concurrent scraper: every snapshot must be internally consistent
        # (cumulative buckets end at count; never a torn view).
        while not stop.is_set():
            snap = h.snapshot()["samples"][0]
            if snap["buckets"]["+Inf"] != snap["count"]:
                torn.append(snap)
        stop.wait(0)

    scraper = threading.Thread(target=scrape)
    scraper.start()
    try:
        _hammer(N_THREADS, observe)
    finally:
        stop.set()
        scraper.join()
    assert not torn
    final = h.snapshot()["samples"][0]
    assert final["count"] == N_THREADS * N_ITER
    assert final["buckets"]["+Inf"] == final["count"]


def test_registration_race_yields_one_family():
    reg = MetricsRegistry()
    got = []

    def register(_i):
        got.append(reg.counter("raced_total", "help", ("op",)))

    _hammer(N_THREADS, register)
    assert len({id(f) for f in got}) == 1
