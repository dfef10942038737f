"""Replicated serving tier: a capacity-aware router over N model servers.

One :class:`~repro.serve.server.ModelServer` serves a fitted KeyBin2
model well; a production footprint needs *N* of them behind a single
endpoint — with health-aware routing, tenant quotas, and model rollouts that cannot split-brain the fleet. This
subpackage is that tier, speaking the existing JSON wire protocol
unchanged so every client and load tool drives a fleet transparently:

quotas      per-tenant token-bucket quotas ahead of replica admission
replica     ReplicaSupervisor: spawn/monitor/restart local replicas
router      FleetRouter: p2c routing, probing, failover (a serve LineServer)
rollout     staged canary → percentage → fleet model promotion
journal     crash-safe rollout WAL + restart recovery (fleet-recover)
bench       scaling + zero-downtime-reload benchmark (fleet-bench)

Quickstart::

    from repro.fleet import ReplicaSupervisor, router_in_thread
    from repro.serve import ServeClient

    with ReplicaSupervisor("model.json", n_replicas=3) as sup:
        with router_in_thread(sup.start()) as handle:
            with ServeClient(*handle.address) as client:
                print(client.predict(x[0]).label)

or from the command line: ``python -m repro fleet --model model.json``.
"""

from __future__ import annotations

from repro.fleet.bench import run_fleet_bench
from repro.fleet.journal import (
    JournalError,
    RolloutJournal,
    plan_recovery,
    reconcile_replica,
    recover_fleet,
)
from repro.fleet.quotas import TenantQuotaPolicy, TenantQuotas
from repro.fleet.replica import ReplicaSupervisor
from repro.fleet.rollout import RolloutError, RolloutManager
from repro.fleet.router import FleetRouter, router_in_thread

__all__ = [
    "FleetRouter",
    "JournalError",
    "ReplicaSupervisor",
    "RolloutError",
    "RolloutJournal",
    "RolloutManager",
    "TenantQuotaPolicy",
    "TenantQuotas",
    "plan_recovery",
    "reconcile_replica",
    "recover_fleet",
    "router_in_thread",
    "run_fleet_bench",
]
