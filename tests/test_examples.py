"""Every example script must run end to end (tiny horizons).

Scripts run with deprecation warnings as errors, so an example that
calls a deprecated API fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Script -> argv giving it a fast-but-meaningful run.
EXAMPLE_ARGS = {
    "quickstart.py": ["20000"],
    "envelope_walkthrough.py": [],
    "capacity_planning.py": ["8000"],
    "video_archive.py": ["15000"],
    "hierarchical_storage.py": ["20000"],
    "scheduler_shootout.py": ["8000", "20"],
    "trace_demo.py": ["20000"],
}


def test_every_example_is_covered():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXAMPLE_ARGS), (
        "add new examples to EXAMPLE_ARGS so they stay runnable"
    )


@pytest.mark.parametrize("script", sorted(EXAMPLE_ARGS))
def test_example_runs(script):
    completed = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            str(EXAMPLES_DIR / script),
            *EXAMPLE_ARGS[script],
        ],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), f"{script} printed nothing"


def test_quickstart_reports_improvement():
    completed = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            str(EXAMPLES_DIR / "quickstart.py"),
            "30000",
        ],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert completed.returncode == 0
    assert "throughput" in completed.stdout
    assert "Replication + envelope scheduling" in completed.stdout
