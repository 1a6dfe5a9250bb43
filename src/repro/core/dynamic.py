"""The dynamic scheduling family (paper Section 3.1).

Dynamic algorithms share the static major rescheduler but add an
incremental scheduler: a request arriving during a sweep whose block has
a copy on the mounted tape is inserted into the service list on the fly,
provided the requested block is still ahead of the tape head in the
existing sweep.  Otherwise the request is deferred to the pending list.
"""

from __future__ import annotations

from .base import SchedulerContext
from .static_ import StaticScheduler
from .sweep import ServiceEntry
from ..workload.requests import Request


class DynamicScheduler(StaticScheduler):
    """Static tape selection + on-the-fly insertion into the sweep."""

    def __init__(self, policy, ordering: str = "sweep") -> None:
        super().__init__(policy, ordering=ordering)
        self.name = f"dynamic-{policy.name}"
        if ordering != "sweep":
            self.name += f"-{ordering}"

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        service = context.service
        mounted = context.mounted_id
        if service is None or mounted is None:
            context.pending.append(request)
            return False
        catalog = context.catalog
        block_id = request.block_id
        if not catalog.has_replica_on(block_id, mounted):
            context.pending.append(request)
            return False
        # Coalesce onto an already scheduled (not yet started) read.
        existing = service.find_block(block_id)
        if existing is not None:
            existing.attach(request)
            return True
        replica = catalog.replica_on(block_id, mounted)
        entry = ServiceEntry(
            position_mb=replica.position_mb,
            block_id=block_id,
            requests=[request],
        )
        if service.insert(entry):
            return True
        context.pending.append(request)
        return False
