"""A plain run loads only what it uses, and the public surface stays whole.

Both checks start a fresh interpreter: in the test process every module
is already imported, so nothing lazy would be exercised.

``DEFERRED`` lists the modules no plain run calls: the analysis layer,
campaign-facing experiment helpers, tracing, overload control, the
write-back loop, batch statistics, the noisy and serpentine drives, the
alternative workloads and the lifecycle planner.  A short run of each
scheduler family (and a faulted open-loop multi-drive run) must leave
every one of them unloaded.  The list may only grow.

``FAMILY_DEFERRED`` lists the scheduler families only their own runs
load: FIFO, dynamic and a faulted open-loop multi-drive run must leave
the envelope and LTSP modules unloaded.  It may only grow too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a plain run must not load.  Grow it; never shrink it.
DEFERRED = (
    "repro.analysis",
    "repro.analysis.approximations",
    "repro.analysis.bounds",
    "repro.analysis.costperf",
    "repro.analysis.gap",
    "repro.experiments.figures",
    "repro.experiments.sweeps",
    "repro.experiments.replications",
    "repro.experiments.store",
    "repro.obs",
    "repro.obs.export",
    "repro.obs.registry",
    "repro.obs.spans",
    "repro.obs.summary",
    "repro.obs.tracer",
    "repro.qos.admission",
    "repro.qos.breaker",
    "repro.qos.guard",
    "repro.qos.manager",
    "repro.service.writeback",
    "repro.stats.batchmeans",
    "repro.stats.warmup",
    "repro.tape.noisy",
    "repro.tape.serpentine",
    "repro.workload.clustered",
    "repro.workload.trace",
    "repro.workload.zipf",
    "repro.layout.lifecycle",
    "repro.des.monitor",
)

#: Scheduler families a FIFO or dynamic run must not load.  Grow it;
#: never shrink it.
FAMILY_DEFERRED = (
    "repro.core.envelope",
    "repro.core.exact",
)

#: The fault layer a fault-free run must not load.
FAULT_LAYER = (
    "repro.faults.errors",
    "repro.faults.injector",
    "repro.faults.masking",
    "repro.rng",
)

PROBE = """
import json, sys
import repro
from repro import ExperimentConfig, Layout, run
from repro.faults import FaultConfig

def loaded(names):
    return sorted(name for name in names if name in sys.modules)

short = dict(horizon_s=3000.0)
for config in (
    ExperimentConfig(scheduler="fifo", queue_length=20, **short),
    ExperimentConfig(scheduler="dynamic-max-bandwidth", queue_length=20, **short),
    ExperimentConfig(scheduler="exact-batch", queue_length=10, **short),
    ExperimentConfig(
        scheduler="envelope-max-bandwidth", layout=Layout.VERTICAL,
        replicas=9, start_position=1.0, queue_length=20, **short,
    ),
):
    assert run(config).report.completed > 0
fault_free = loaded(FAULT_LAYER)
faulted = ExperimentConfig(
    scheduler="dynamic-max-bandwidth", queue_length=None,
    mean_interarrival_s=70.0, drive_count=3, replicas=2,
    faults=FaultConfig(media_error_rate=0.01), **short,
)
assert run(faulted).report.completed > 0
plain = loaded(DEFERRED)
from repro.obs import Tracer
run(faulted, obs=Tracer())
print(json.dumps({
    "fault_free": fault_free,
    "plain": plain,
    "traced": loaded(["repro.obs.tracer"]),
}))
"""

FAMILY_PROBE = """
import json, sys
from repro import ExperimentConfig, run
from repro.faults import FaultConfig

short = dict(horizon_s=3000.0)
for config in (
    ExperimentConfig(scheduler="fifo", queue_length=20, **short),
    ExperimentConfig(scheduler="dynamic-max-bandwidth", queue_length=20, **short),
    ExperimentConfig(
        scheduler="dynamic-max-bandwidth", queue_length=None,
        mean_interarrival_s=70.0, drive_count=3, replicas=2,
        faults=FaultConfig(media_error_rate=0.01), **short,
    ),
):
    assert run(config).report.completed > 0
print(json.dumps(sorted(name for name in FAMILY_DEFERRED if name in sys.modules)))
"""

SURFACE = """
import importlib, json, pkgutil
import repro

packages = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)
problems = []
for package in packages:
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        try:
            value = getattr(module, name)
        except AttributeError as error:
            problems.append(f"getattr({package}, {name}): {error}")
            continue
        namespace = {}
        try:
            exec(f"from {package} import {name}", namespace)
        except ImportError as error:
            problems.append(f"from {package} import {name}: {error}")
            continue
        if namespace[name] is not value:
            problems.append(f"{package}.{name}: import and getattr disagree")
        if name not in listed:
            problems.append(f"{name} missing from dir({package})")
print(json.dumps({"packages": packages, "problems": problems}))
"""


def fresh(script: str, **constants) -> dict:
    """Run ``script`` in a new interpreter and parse its last line."""
    prelude = "".join(f"{key} = {value!r}\n" for key, value in constants.items())
    completed = subprocess.run(
        [sys.executable, "-c", prelude + script],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_plain_runs_leave_optional_layers_unloaded():
    probe = fresh(PROBE, DEFERRED=DEFERRED, FAULT_LAYER=FAULT_LAYER)
    assert probe["fault_free"] == []
    assert probe["plain"] == []
    # ... and attaching a tracer is what loads it.
    assert probe["traced"] == ["repro.obs.tracer"]


def test_other_families_leave_envelope_and_exact_unloaded():
    assert fresh(FAMILY_PROBE, FAMILY_DEFERRED=FAMILY_DEFERRED) == []


def test_every_package_export_resolves():
    surface = fresh(SURFACE)
    assert "repro.obs" in surface["packages"]
    assert surface["problems"] == []
