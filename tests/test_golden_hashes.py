"""Hash-level determinism regression: the bit-identical guard.

Every digest below was captured on the pre-optimization tree (before the
slotted DES kernel, cached timing tables, and indexed envelope/pending
paths landed).  A run of the same canonical config must reproduce the
same :func:`repro.service.metrics.report_digest` byte for byte — any
drift in scheduler decisions, event ordering, or float arithmetic shows
up here first.

The matrix deliberately covers every optimized layer: the Figure-4
family sweep (FIFO / static / dynamic), the Figure-8 envelope family
(including the O(n²t²) computer and its incremental ``on_arrival``
path), the serpentine timing model, multi-drive, and runs with faults
and QoS enabled (the masked-catalog and admission paths).  The LTSP
batch families are pinned on the single-drive Figure-4 point and on the
paths it misses: ``exact-batch`` on three drives (fractional deferred
weight) and under a starvation guard (forced decisions re-plan foreign
entries), and ``approx-greedy-cost`` on two drives.  Three fault cases
pin the pending index's mask paths: blocks lost outright, tapes failing
and copies condemned on three claiming drives, and an oldest-request
policy behind the multi-drive claim filter.  Two single-drive cases pin
the paths the closed-loop Figure-4 point misses: robot picks exhausting
their retries (a tape taken out of service mid-exchange) together with
drive repairs, and open arrivals with deadline expiry.

To re-pin after an *intentional* behaviour change, print fresh digests:

    PYTHONPATH=src python -m pytest tests/test_golden_hashes.py --tb=line
"""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, RetryPolicy
from repro.layout.placement import Layout
from repro.qos import QoSConfig
from repro.service.metrics import report_digest

FIG4 = ExperimentConfig(
    scheduler="dynamic-max-bandwidth",
    queue_length=60,
    horizon_s=60_000.0,
    seed=42,
)

FIG8 = ExperimentConfig(
    scheduler="envelope-max-bandwidth",
    layout=Layout.VERTICAL,
    replicas=9,
    start_position=1.0,
    queue_length=60,
    horizon_s=60_000.0,
    seed=42,
)

CASES = {
    "fig4_dynamic_max_bandwidth": FIG4,
    "fig4_static_max_bandwidth": FIG4.with_(scheduler="static-max-bandwidth"),
    "fig4_fifo": FIG4.with_(scheduler="fifo"),
    "fig8_envelope_max_bandwidth": FIG8,
    "fig8_envelope_max_requests": FIG8.with_(scheduler="envelope-max-requests"),
    "fig8_envelope_oldest_max_requests": FIG8.with_(
        scheduler="envelope-oldest-max-requests"
    ),
    "fig8_envelope_faults": FIG8.with_(
        replicas=2,
        faults=FaultConfig(
            media_error_rate=0.05, bad_replica_rate=0.02, retry=RetryPolicy()
        ),
    ),
    "fig8_envelope_qos": FIG8.with_(
        qos=QoSConfig(
            deadline_s=4000.0,
            admission="bounded-queue",
            max_pending=80,
            starvation_age_s=6000.0,
        ),
    ),
    "fig4_dynamic_faults_qos": FIG4.with_(
        replicas=2,
        layout=Layout.VERTICAL,
        start_position=1.0,
        faults=FaultConfig(media_error_rate=0.05, retry=RetryPolicy()),
        qos=QoSConfig(deadline_s=4000.0, starvation_age_s=6000.0),
    ),
    "fig4_serpentine": FIG4.with_(drive_technology="serpentine"),
    "fig4_multidrive": FIG4.with_(
        drive_count=2, tape_count=8, capacity_mb=2000.0
    ),
    "fig4_exact_batch": FIG4.with_(scheduler="exact-batch"),
    "fig4_approx_greedy_cost": FIG4.with_(scheduler="approx-greedy-cost"),
    "fig4_approx_best_pass": FIG4.with_(scheduler="approx-best-pass"),
    "fig4_exact_batch_multidrive3": FIG4.with_(
        scheduler="exact-batch", drive_count=3, queue_length=20
    ),
    "fig4_exact_batch_starvation_qos": FIG4.with_(
        scheduler="exact-batch", qos=QoSConfig(starvation_age_s=3000.0)
    ),
    "fig4_approx_greedy_cost_multidrive": FIG4.with_(
        scheduler="approx-greedy-cost",
        drive_count=2,
        tape_count=8,
        capacity_mb=2000.0,
    ),
    "fig4_dynamic_lost_blocks": FIG4.with_(
        replicas=0,
        faults=FaultConfig(bad_replica_rate=0.05, retry=RetryPolicy()),
    ),
    "fig4_multidrive_mask_growth": FIG4.with_(
        drive_count=3,
        replicas=2,
        faults=FaultConfig(
            bad_replica_rate=0.05,
            robot_pick_error_rate=0.3,
            media_error_rate=0.05,
        ),
    ),
    "fig4_oldest_multidrive_faults": FIG4.with_(
        scheduler="dynamic-oldest-max-bandwidth",
        drive_count=2,
        replicas=1,
        faults=FaultConfig(bad_replica_rate=0.1, robot_pick_error_rate=0.2),
    ),
    "fig4_pick_exhaustion_drive_failures": FIG4.with_(
        replicas=1,
        faults=FaultConfig(
            robot_pick_error_rate=0.3,
            drive_mtbf_s=8000.0,
            drive_mttr_s=1200.0,
            retry=RetryPolicy(max_attempts=2),
        ),
    ),
    "open_single_drive_qos": FIG4.with_(
        queue_length=None,
        mean_interarrival_s=90.0,
        qos=QoSConfig(
            deadline_s=3000.0, admission="bounded-queue", max_pending=40
        ),
    ),
    "open_single_drive_idle_failures": FIG4.with_(
        queue_length=None,
        mean_interarrival_s=600.0,
        replicas=1,
        faults=FaultConfig(
            media_error_rate=0.02, drive_mtbf_s=8000.0, drive_mttr_s=1200.0
        ),
    ),
    "open_multidrive_drive_failures": FIG4.with_(
        queue_length=None,
        mean_interarrival_s=40.0,
        drive_count=2,
        replicas=1,
        faults=FaultConfig(
            media_error_rate=0.02, drive_mtbf_s=8000.0, drive_mttr_s=1200.0
        ),
    ),
}

#: sha256 of each case's report, pinned on the pre-optimization tree.
#: The multi-drive cases were re-pinned once when drives stopped
#: planning mid-exchange arrivals against the outgoing tape and started
#: executing each scheduler's own service-list order.
GOLDEN = {
    "fig4_dynamic_max_bandwidth": "fff45a7a06f6b6cffe23ed98288a6322f28cf1432b887646c6a5022253c4b8c5",
    "fig4_static_max_bandwidth": "84bc9af77fb61cc23f188eb5fe6ae8f24bbcabba259d98acd5a167ac748eafb5",
    "fig4_fifo": "f9b6dcf3d1885d565e79d32bd43ce4e045fc39685cd3333f10e8568f94c6592c",
    "fig8_envelope_max_bandwidth": "4c1347ff60264c9bf04a64b21b79dc9a5cf8f106abe652dd87d52ee51a74db79",
    "fig8_envelope_max_requests": "a2902a502f0ac81b02a9962f0ce84a578ceef49569d912931fdc841d50c21f03",
    "fig8_envelope_oldest_max_requests": "1d6fc3e7d6de6a3850a98f3fcd213aafac04080e2dfd84cbf497bdb2acfc34df",
    "fig8_envelope_faults": "498861721a04b17defdaed6c3b2b0ef78cb400007f9c92026abdbe6691f112e0",
    "fig8_envelope_qos": "9c07f83760c016c049857e301cfb1668caa955a9109de60028778fda5ac0f18e",
    "fig4_dynamic_faults_qos": "8621fbb9b16a0c5db1dc251569528820938ed3acf11eba0095a7081c3e191ecc",
    "fig4_serpentine": "01df9667ce284d938428e74e3e527dac948ffd9f165656cb6ecfe68028b62d9c",
    "fig4_multidrive": "8b7be25cdc5a486174ea1c60a25e58b8c97bb53a606891ae2bf4da14853f37de",
    # LTSP optimality-baseline families, pinned at their introduction.
    "fig4_exact_batch": "c149b3b26b387e8923931e3bb06d504fff6fa15a83de5abcb47aa8a165b56b3a",
    "fig4_approx_greedy_cost": "bac0e5590567174a28530f5a53fb0ddc6c1c926b861de0cc5012757d5dedf8cd",
    "fig4_approx_best_pass": "80024f04ff6ad040a441230f5509d2a6bd186a1c94a433223a229802f54b483b",
    # Batch-family paths the Figure-4 pins miss, pinned before the
    # tape-level pruning and shared transition matrix landed.
    "fig4_exact_batch_multidrive3": "cba6baa38a315c7a7d6aa6cf7203512daadf1c74b3bd76008ff9ded9f42327ae",
    "fig4_exact_batch_starvation_qos": "593ccbfce4fa4aca23a57b487535f0ecdc4795f36c26b69b048a06a0f0a09335",
    "fig4_approx_greedy_cost_multidrive": "2f8665abfd994a27699c7e8086df7882632ac2cdca68a0aa76bcd924894b2aaa",
    # Fault-mask paths of the static/dynamic pending index (lost blocks,
    # tapes failing and copies condemned under multi-drive claims, the
    # oldest-request policy behind claim filtering), pinned before the
    # masks were pushed into the index.
    "fig4_dynamic_lost_blocks": "ae5980783b7b4c8713f450c93543b882cceea5e1c49fc44b336226f939daa6fe",
    "fig4_multidrive_mask_growth": "c3330694f7b29151c36001b8df60240877acfcfa2c3fad317d7a12a7bea5e414",
    "fig4_oldest_multidrive_faults": "376cbf474259bcf16019d01532e8dfcb0abcf5ad989380cda999882973db38b5",
    # Single-drive paths no other pin covers (pick exhaustion with drive
    # repairs; open arrivals with expiry), pinned before the two service
    # loops were folded into one.
    "fig4_pick_exhaustion_drive_failures": "98fcf1f7ea62e6fd8a7f124ea19bbb3bc076ce1919cb5566139513ac097dc29c",
    "open_single_drive_qos": "f764855339838abda3e0ebd0f8e1b8c5ab294c01c7d54f9e5cc01fca11a8f7f2",
    # A single drive that fails while idle is repaired before it mounts
    # (light open load, so failures fall due during idle waits).
    "open_single_drive_idle_failures": "635599b264dd38f4f0876a78995944b55f3c5d0ff4d6a7c12f5aa59c84c9503a",
    # Open arrivals on two drives with drive failures and repairs.
    "open_multidrive_drive_failures": "bcca9bdf251c217ee9a7fd2934479a6fba9f61596a106d66df5cd42d487ed2ef",
}


#: The suite runs through ``repro.api.run``; a deprecated shim sneaking
#: back in fails it.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def test_case_matrix_is_fully_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name):
    digest = report_digest(run(CASES[name]).report)
    assert digest == GOLDEN[name], (
        f"{name}: report digest drifted — scheduler decisions or metrics "
        f"are no longer bit-identical to the pinned pre-optimization run "
        f"(got {digest})"
    )


def test_digest_is_repeatable_within_process():
    """Two runs of the same config in one process hash identically."""
    first = report_digest(run(CASES["fig4_fifo"]).report)
    second = report_digest(run(CASES["fig4_fifo"]).report)
    assert first == second == GOLDEN["fig4_fifo"]
