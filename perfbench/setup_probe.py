"""One cold set-up of a workload, timed inside a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``

Times everything a run pays before its first simulated event: importing
``repro``, expanding the workload's configs, and assembling each
config's simulator (catalog build and validation, timing tables,
scheduler, request source).  The simulators are assembled through the
public ``repro.run`` with a one-second horizon, so the simulated part is
negligible.  Prints the set-up seconds and the mean of the reference
loop timed just before and just after it (see ``calibrate.py``).
"""

import sys
import time
from pathlib import Path

from calibrate import time_reference

BEFORE = time_reference()
START = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    for config in workload.configs(int(sys.argv[2])):
        repro.run(config.with_(horizon_s=1.0))
    setup_s = time.perf_counter() - START
    reference_s = (BEFORE + time_reference()) / 2.0
    print(repr(setup_s), repr(reference_s))


if __name__ == "__main__":
    main()
