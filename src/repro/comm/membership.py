"""Survivor agreement after a rank failure (recovery membership protocol).

When a collective aborts with :class:`~repro.errors.RankFailedError`, the
surviving ranks must agree — without any coordinator that is itself
guaranteed alive — on *who* survived, so they can all shrink to the same
sub-communicator and re-merge. :func:`agree_on_survivors` runs a bounded
gossip protocol over the existing mailbox substrate:

1. every participant repeatedly broadcasts its current view (the set of
   ranks it believes alive) to every rank not yet *confirmed* dead;
2. a peer that answers contributes its view (death information is unioned
   — a rank anyone has confirmed dead is dead for everyone); a peer that
   neither answers within the probe timeout nor has announced a failure
   sentinel is confirmed dead;
3. the protocol terminates when a full round passes in which every live
   peer echoed exactly the caller's view — i.e. all survivors hold the
   same set — or fails fast after ``size + 2`` rounds.

The initial suspect (the rank the failed collective blamed) is treated as
*maybe dead* unless its death was confirmed by a failure sentinel: a recv
timeout can also mean the peer is slow or a message was lost, and such a
peer rejoins the agreement as soon as its own receive times out. This is
what lets the recovery path double as a retry path for transient message
loss — the survivor set comes back complete and the consolidation is
simply re-run on the next epoch.

The probe timeout must dominate the peers' receive timeout: a peer still
blocked inside the abandoned collective only joins the agreement after its
own recv times out. :func:`agreement_timeout_for` encodes that rule.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.comm.mailbox import MailboxComm
from repro.errors import RankFailedError

__all__ = ["agree_on_survivors", "agreement_timeout_for"]

_AGREE_TAG_BASE = -450
#: Shortest per-peer probe wait of an agreement round, in seconds.
AGREEMENT_TIMEOUT_FLOOR_S = 2.0


def agreement_timeout_for(comm_timeout: Optional[float]) -> float:
    """Probe timeout that safely dominates the communicator's recv timeout."""
    if comm_timeout is None:
        return max(AGREEMENT_TIMEOUT_FLOOR_S, 30.0)
    return max(AGREEMENT_TIMEOUT_FLOOR_S, comm_timeout * 1.25 + 0.5)


def agree_on_survivors(
    comm: MailboxComm,
    suspects: Iterable[int] = (),
    confirmed_dead: Iterable[int] = (),
) -> List[int]:
    """Agree with the other survivors on who is still alive.

    Parameters
    ----------
    comm:
        The communicator the failure happened on (current epoch).
    suspects:
        Ranks (current numbering) the caller suspects but cannot confirm
        — typically the ``rank`` of an unconfirmed
        :class:`~repro.errors.RankFailedError`. They are still probed.
    confirmed_dead:
        Ranks whose death is certain (failure sentinel seen); never probed.

    Each peer's view message is awaited for :func:`agreement_timeout_for`
    of the communicator's recv timeout.

    Returns the sorted survivor list in the communicator's numbering
    (always includes the caller). Raises
    :class:`~repro.errors.RankFailedError` if no consensus emerges within
    the round bound — at that point failing fast beats a split brain.
    """
    me, size = comm.rank, comm.size
    probe_timeout = agreement_timeout_for(comm._timeout)
    dead: Set[int] = {int(r) for r in confirmed_dead}
    # Sentinels observed before the agreement started count as confirmed.
    phys_to_cur = {comm._physical[r]: r for r in range(size)}
    for phys in comm.drain_failure_notices():
        if phys in phys_to_cur:
            dead.add(phys_to_cur[phys])
    dead.discard(me)
    alive: Set[int] = set(range(size)) - dead
    suspected: Set[int] = {int(r) for r in suspects} & alive - {me}

    for round_no in range(size + 2):
        tag = _AGREE_TAG_BASE - round_no
        view = sorted(alive)
        for peer in alive - {me}:
            comm.send(view, peer, tag)
        consensus = True
        for peer in sorted(alive - {me}):
            status, payload = comm.recv_probe(peer, tag, probe_timeout)
            if status == "ok":
                peer_view = set(payload)
                if peer_view != alive:
                    consensus = False
                # Death info is monotone: union what the peer learned.
                newly_dead = alive - peer_view - {me}
                if newly_dead:
                    dead |= newly_dead
                suspected.discard(peer)
            else:  # timeout or failure sentinel: peer is gone
                dead.add(peer)
                consensus = False
        # Fold in sentinels drained while probing (third-party deaths).
        for phys in comm.drain_failure_notices():
            if phys in phys_to_cur and phys_to_cur[phys] != me:
                dead.add(phys_to_cur[phys])
        new_alive = set(range(size)) - dead
        if new_alive != alive:
            consensus = False
            alive = new_alive
        if consensus and not suspected:
            return sorted(alive)
        suspected &= alive
    raise RankFailedError(
        f"rank {comm.physical_rank}: survivor agreement did not converge "
        f"after {size + 2} rounds (last view: {sorted(alive)})",
        rank=-1,
        confirmed=False,
    )
