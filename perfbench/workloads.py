"""The benchmark's workloads: one scenario each, expanded from a seed.

A workload is one :class:`~repro.ExperimentConfig` scenario.  ``configs``
expands the benchmark's ``--seed`` into a fixed list of copies that
differ only in their simulation (and fault) seeds, so the same seed
always gives the same inputs, and the model metrics pool several
independent trajectories instead of resting on one.

Each scenario copies one the repository already runs, and each loads a
different layer of the simulator, so a change to one layer has a
workload that exercises it and workloads that bypass it:

* ``paper-base`` — the paper's Figure 4 base point.  Closed queue of 60,
  dynamic scheduler, one drive, no replicas.  The DES kernel, the
  pending list, the drive model and the metrics collector carry the run.
* ``envelope-repl`` — the Figure 8 regime.  Vertical layout with nine
  replicas at SP-1 under the envelope-extension scheduler.  Envelope
  compute and its incremental index dominate.
* ``exact-gap`` — the ``exact-batch`` optimality baseline at the gap
  report's closed-queue-20 point.  The branch-and-bound search takes most
  of the host time; no other workload calls it.  At longer queues the
  search cost per decision is so heavy-tailed that a pass's work varies
  with the seed by several percent.
* ``open-multidrive`` — open Poisson arrivals at the near-saturation
  rate of the open-queueing benchmark (one per 70 s), served by the gap
  report's three-drive jukebox with the replicas and 1% soft media
  errors of its ``faults`` scenario (NR-2, errors retried or failed
  over), under the paper's default hot/cold skew.  It runs the
  multi-drive service loop, the open-arrival source and the fault layer;
  it never runs the single-drive loop.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List

from repro import ExperimentConfig, Layout
from repro.faults import FaultConfig


@dataclass(frozen=True)
class Workload:
    """A named scenario and how many seeded copies one pass runs."""

    name: str
    base: ExperimentConfig
    runs_per_pass: int

    def configs(self, seed: int) -> List[ExperimentConfig]:
        """The pass of configs for ``seed`` (same seed, same list)."""
        rng = random.Random(f"{self.name}:{seed}")
        configs = []
        for _ in range(self.runs_per_pass):
            config = self.base.with_(seed=rng.randrange(2**31))
            if config.faults is not None:
                faults = dataclasses.replace(
                    config.faults, seed=rng.randrange(2**31)
                )
                config = config.with_(faults=faults)
            configs.append(config)
        return configs


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-base",
            base=ExperimentConfig(
                scheduler="dynamic-max-bandwidth",
                queue_length=60,
                horizon_s=200_000.0,
            ),
            runs_per_pass=6,
        ),
        Workload(
            name="envelope-repl",
            base=ExperimentConfig(
                scheduler="envelope-max-bandwidth",
                layout=Layout.VERTICAL,
                replicas=9,
                start_position=1.0,
                queue_length=60,
                horizon_s=100_000.0,
            ),
            runs_per_pass=6,
        ),
        Workload(
            name="exact-gap",
            base=ExperimentConfig(
                scheduler="exact-batch",
                queue_length=20,
                horizon_s=120_000.0,
            ),
            runs_per_pass=16,
        ),
        Workload(
            name="open-multidrive",
            base=ExperimentConfig(
                scheduler="dynamic-max-bandwidth",
                queue_length=None,
                mean_interarrival_s=70.0,
                drive_count=3,
                replicas=2,
                faults=FaultConfig(media_error_rate=0.01),
                horizon_s=200_000.0,
            ),
            runs_per_pass=10,
        ),
    )
}
