#!/usr/bin/env python3
"""The full storage hierarchy of the paper's introduction, end to end.

"Hot data are placed or cached in semiconductor memory, and warm data
are on magnetic disks" — the tape jukebox serves the cold remainder.
This example runs client traffic (Poisson arrivals, strong RH-80 skew)
against a three-tier hierarchy and shows:

* how much traffic each tier absorbs,
* the user-visible latency split (microseconds / sub-second / minutes),
* how the caches *flatten the skew* the jukebox observes — which is why
  the paper studies jukeboxes under moderated skews in the first place.

Usage::

    python examples/hierarchical_storage.py [horizon_seconds]
"""

import random
import sys

from repro.core import make_scheduler
from repro.hierarchy import HierarchySimulator
from repro.layout import PlacementSpec, build_catalog
from repro.report import format_table
from repro.tape import Jukebox
from repro.workload import HotColdSkew

BLOCK_MB = 16.0
CLIENT_RH = 80.0


def build_hierarchy(memory_blocks: int, disk_blocks: int) -> HierarchySimulator:
    catalog = build_catalog(
        PlacementSpec(percent_hot=10, block_mb=BLOCK_MB), 10, 7 * 1024.0
    )
    return HierarchySimulator(
        jukebox=Jukebox.build(),
        catalog=catalog,
        scheduler=make_scheduler("dynamic-max-bandwidth"),
        memory_blocks=memory_blocks,
        disk_blocks=disk_blocks,
        skew=HotColdSkew(CLIENT_RH),
        rng=random.Random(11),
        mean_interarrival_s=40.0,
    )


def main() -> None:
    horizon_s = float(sys.argv[1]) if len(sys.argv) > 1 else 200_000.0

    configurations = (
        ("tape only", 0, 0),
        ("disk cache", 0, 600),
        ("memory + disk", 64, 600),
    )
    rows = []
    flattening = []
    for label, memory_blocks, disk_blocks in configurations:
        hierarchy = build_hierarchy(memory_blocks, disk_blocks)
        stats = hierarchy.run(horizon_s)
        rows.append(
            (
                label,
                stats.total,
                stats.memory_hits,
                stats.disk_hits,
                stats.tape_misses,
                stats.latency.mean,
            )
        )
        flattening.append((label, hierarchy.observed_tape_skew))

    print(f"Three-tier hierarchy, client skew RH-{CLIENT_RH:g}, PH-10, "
          f"{horizon_s:,.0f} s:\n")
    print(
        format_table(
            ("configuration", "requests", "mem_hits", "disk_hits",
             "tape_reads", "mean_latency_s"),
            rows,
        )
    )
    print("\nSkew observed by the jukebox (percent of tape requests that "
          "are for hot blocks):")
    print(
        format_table(
            ("configuration", "observed_RH"),
            [(label, skew) for label, skew in flattening],
        )
    )
    print(
        "\nThe caches soak up hot traffic: the jukebox's effective skew"
        f"\ndrops well below the client RH-{CLIENT_RH:g} — the 'relatively"
        " cold'\noperating regime the paper assumes for tape."
    )


if __name__ == "__main__":
    main()
