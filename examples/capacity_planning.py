#!/usr/bin/env python3
"""Capacity planning: should you replicate hot data in your jukebox?

The paper's Section 4.8 answer is nuanced: replication always improves
raw performance, but improves performance *per dollar* only under high
skew.  This example sweeps the skew (RH) and replication degree (NR)
for a jukebox and prints an advisory table: the expansion factor, the
throughput gain, and the cost-performance ratio at each point — ending
with the paper's "for free" recommendation when spare capacity exists.

Usage::

    python examples/capacity_planning.py [horizon_seconds]
"""

import sys

from repro import ExperimentConfig, Layout, run
from repro.analysis import effective_queue_length
from repro.layout import expansion_factor
from repro.report import format_table

PERCENT_HOT = 10.0
BASE_QUEUE = 60


def throughput(skew: float, replicas: int, queue: int, horizon_s: float) -> float:
    config = ExperimentConfig(
        scheduler="envelope-max-bandwidth",
        layout=Layout.VERTICAL,
        percent_hot=PERCENT_HOT,
        percent_requests_hot=skew,
        replicas=replicas,
        start_position=1.0 if replicas else 0.0,
        queue_length=queue,
        horizon_s=horizon_s,
    )
    return run(config).throughput_kb_s


def main() -> None:
    horizon_s = float(sys.argv[1]) if len(sys.argv) > 1 else 120_000.0
    skews = (20.0, 40.0, 80.0)
    replica_counts = (0, 2, 9)

    rows = []
    for skew in skews:
        baseline = throughput(skew, 0, BASE_QUEUE, horizon_s)
        for replicas in replica_counts:
            expansion = expansion_factor(replicas, PERCENT_HOT)
            same_cost_queue = effective_queue_length(BASE_QUEUE, expansion)
            raw = throughput(skew, replicas, BASE_QUEUE, horizon_s)
            fair = (
                baseline
                if replicas == 0
                else throughput(skew, replicas, same_cost_queue, horizon_s)
            )
            rows.append(
                (
                    f"RH-{skew:g}",
                    replicas,
                    expansion,
                    raw / baseline,
                    fair / baseline,
                )
            )

    print(f"Jukebox: 10 tapes x 7 GB, PH-{PERCENT_HOT:g}, queue {BASE_QUEUE}.")
    print("perf_gain: same workload, one jukebox.  costperf: per dollar,")
    print(f"workload spread over E jukeboxes (queue {BASE_QUEUE}/E).\n")
    print(
        format_table(
            ("skew", "NR", "expansion E", "perf_gain", "costperf"),
            rows,
            float_format="{:.3f}",
        )
    )

    print(
        "\nReading the table: raw performance always improves with NR, but"
        "\ncost-performance only exceeds 1.0 under high skew — the paper's"
        "\nSection 4.8 conclusion.  If your jukebox already has spare"
        "\ncapacity, the replicas occupy space you were not selling:"
        "\nappend them to the tape ends and take the perf_gain column for"
        "\nfree."
    )


if __name__ == "__main__":
    main()
