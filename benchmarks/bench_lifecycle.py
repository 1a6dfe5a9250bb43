"""Extension benchmark: the Section 4.8 filling-lifecycle recommendation.

Executes the paper's closing recommendation end to end: as the jukebox
fills, the planner chooses vertical-plus-replicas-at-the-ends while
spare capacity lasts, overwrites the hot tape near overflow, and
finally recaptures the replica space.  The bench measures throughput at
each fill level under the recommended layout versus a naive layout that
never replicates, quantifying the "for free" improvement from spare
capacity.
"""

import pytest

from repro.api import run
from repro.experiments.config import ExperimentConfig
from repro.layout.lifecycle import LifecyclePlanner, LifecycleStage
from repro.report import format_table

from _util import HORIZON_S

TAPES = 10
CAPACITY = 7 * 1024.0
FILL_LEVELS = (0.5, 0.7, 0.9, 1.0)


def run_plan(plan, data_blocks):
    config = ExperimentConfig(
        scheduler="envelope-max-bandwidth",
        layout=plan.spec.layout,
        percent_hot=plan.spec.percent_hot,
        replicas=plan.spec.replicas,
        start_position=plan.spec.start_position,
        queue_length=60,
        horizon_s=HORIZON_S,
        data_blocks=data_blocks,
    )
    return run(config).throughput_kb_s


def run_naive(data_blocks):
    config = ExperimentConfig(
        scheduler="envelope-max-bandwidth",
        replicas=0,
        start_position=0.0,
        queue_length=60,
        horizon_s=HORIZON_S,
        data_blocks=data_blocks,
    )
    return run(config).throughput_kb_s


@pytest.mark.benchmark(group="lifecycle")
def test_lifecycle_recommendation(benchmark, capsys):
    planner = LifecyclePlanner(tape_count=TAPES, capacity_mb=CAPACITY)

    def sweep():
        rows = []
        for fraction in FILL_LEVELS:
            data_blocks = int(fraction * planner.total_slots)
            plan = planner.plan(data_blocks)
            recommended = run_plan(plan, data_blocks)
            naive = run_naive(data_blocks)
            rows.append(
                (
                    f"{fraction:.0%}",
                    plan.stage.value,
                    plan.replicas,
                    recommended,
                    naive,
                    recommended / naive,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nSection 4.8 lifecycle: recommended vs never-replicate layout")
        print(
            format_table(
                ("fill", "stage", "NR", "recommended_KB/s", "naive_KB/s", "ratio"),
                rows,
                float_format="{:.3f}",
            )
        )

    by_fill = {row[0]: row for row in rows}
    # While filling, spare-capacity replication is a measurable free win
    # (a few percent: the partially filled naive layout is itself fast,
    # so the margin is smaller than the full-jukebox replication gains).
    assert by_fill["50%"][1] == LifecycleStage.FILLING.value
    assert by_fill["50%"][5] > 1.02
    # At the brim the plans converge to the same unreplicated layout.
    assert by_fill["100%"][1] == LifecycleStage.RECAPTURED.value
    assert by_fill["100%"][5] == pytest.approx(1.0, abs=0.02)
    # The advantage decays monotonically-ish as spare capacity shrinks.
    ratios = [row[5] for row in rows]
    assert ratios[0] >= ratios[-1]
