"""FIFO scheduling: requests serviced strictly in arrival order.

The paper's trivial baseline (Section 3.1): each retrieval typically
switches to a random tape and positions to a random block, so FIFO's
service rate is insensitive to queue length and its delay grows linearly
with the queue.
"""

from __future__ import annotations

from typing import Optional

from .base import MajorDecision, Scheduler, SchedulerContext
from .sweep import ServiceEntry


class FifoScheduler(Scheduler):
    """Service exactly the oldest pending request per schedule."""

    name = "fifo"

    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        oldest = context.pending.oldest()
        if oldest is None:
            return None
        replicas = context.catalog.replicas_of(oldest.block_id)
        if not replicas:
            # Every copy is gone: the service loop fails the request
            # before the next decision.
            return None
        # FIFO is oblivious to scheduling concerns, but reading a mounted
        # copy over an unmounted one is plain I/O-stack behaviour.  The
        # fallback replica must be on a tape the pending list exposes
        # (multi-drive runs hide tapes claimed by other drives).
        visible = context.pending.candidate_tapes()
        chosen = next(
            (replica for replica in replicas if replica.tape_id == context.mounted_id),
            next(
                (replica for replica in replicas if replica.tape_id in visible),
                replicas[0],
            ),
        )
        context.pending.remove_many([oldest])
        entry = ServiceEntry(
            position_mb=chosen.position_mb,
            block_id=oldest.block_id,
            requests=[oldest],
        )
        return MajorDecision(tape_id=chosen.tape_id, entries=[entry])
