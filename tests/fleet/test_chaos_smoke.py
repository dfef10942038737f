"""Fleet chaos smoke: SIGKILL a process replica mid-load, zero client errors.

The CI ``fleet`` job's core assertion. Process-mode replicas give real
crash semantics (a SIGKILLed interpreter cannot flush, drain, or say
goodbye); the router must absorb the crash via failover + ejection so an
open-loop client stream sees *no* hard failure — explicit sheds and
router-classified retries are allowed, ``error``/``timeout`` outcomes
are not.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.fleet import ReplicaSupervisor, router_in_thread
from repro.serve import ServeClient
from repro.serve.loadgen import run_open_loop


def _fleet_status(host, port):
    with ServeClient(host, port) as client:
        return client.request({"op": "fleet-status"})


def _kill_mid_request(sup, host, port, rid, deadline_s=10.0):
    """SIGKILL ``rid`` while the router has a request in flight to it.

    The balancer sends each request to the less loaded of two replicas,
    so a replica whose load hint is a little higher than its peers' can
    go seconds without a request. Freezing every replica (SIGSTOP) lets
    requests pile up until the router has one outstanding on each; then
    ``rid`` is killed with its request in flight, which must fail over,
    and the others resume (SIGCONT).
    """
    pids = {r: rep.proc.pid for r, rep in sup._replicas.items()}
    for pid in pids.values():
        os.kill(pid, signal.SIGSTOP)
    try:
        deadline = time.monotonic() + deadline_s
        while _fleet_status(host, port)["replicas"][rid]["outstanding"] < 1:
            assert time.monotonic() < deadline, f"no request reached {rid}"
            time.sleep(0.005)
        sup.kill(rid)  # SIGKILL also ends a stopped process
    finally:
        for r, pid in pids.items():
            if r != rid:
                os.kill(pid, signal.SIGCONT)


def test_kill_one_of_three_mid_load_zero_client_errors(
        model_paths, fleet_model, small_gaussians):
    x, _ = small_gaussians
    with ReplicaSupervisor(model_paths["v1"], n_replicas=3,
                           mode="process") as sup:
        endpoints = sup.start()
        with router_in_thread(endpoints, probe_interval_s=0.1) as handle:
            host, port = handle.address
            result = {}

            def load():
                result["report"] = run_open_loop(
                    host, port, x[:256], rate=300.0, duration_s=4.0,
                    n_connections=8, request_timeout_s=5.0,
                )

            loader = threading.Thread(target=load)
            loader.start()
            time.sleep(1.0)  # traffic established on all three replicas
            _kill_mid_request(sup, host, port, "r1")
            loader.join(timeout=30.0)
            assert not loader.is_alive()

            report = result["report"]
            # Zero client-visible hard failures; sheds would be fine but
            # unconfigured replicas here don't shed either.
            assert report.outcomes["error"] == 0
            assert report.outcomes["timeout"] == 0
            assert report.requests_ok == report.requests_sent
            assert report.requests_ok > 500

            status = _fleet_status(host, port)
            assert status["healthy_replicas"] == 2
            assert not status["replicas"]["r1"]["healthy"]
            # The crash shows up as router-side failovers, not client
            # errors: rerouted requests landed on the survivors.
            failovers = sum(
                per.get("failover", 0) for per in status["routed"].values()
            )
            assert failovers >= 1
            survivors_ok = sum(
                per.get("ok", 0)
                for rid, per in status["routed"].items() if rid != "r1"
            )
            assert survivors_ok > 0
