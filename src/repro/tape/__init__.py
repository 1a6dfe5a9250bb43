"""Tape hardware substrate: timing model, drive, robot, and jukebox."""

from .._lazy import lazy_exports
from .drive import DriveCounters, DriveStateError, TapeDrive
from .jukebox import DEFAULT_TAPE_COUNT, Jukebox
from .robot import RobotArm, RobotError
from .tape import DEFAULT_TAPE_CAPACITY_MB, Tape, TapePool
from .timing import Direction, DriveTimingModel, EXB_8505XL, LinearSegment

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".noisy": ("NoisyTimingModel", "random_walk_validation"),
        ".serpentine": ("DLT_STYLE", "SerpentineTimingModel"),
    },
)

__all__ = [
    "DEFAULT_TAPE_CAPACITY_MB",
    "DEFAULT_TAPE_COUNT",
    "DLT_STYLE",
    "Direction",
    "SerpentineTimingModel",
    "DriveCounters",
    "DriveStateError",
    "DriveTimingModel",
    "EXB_8505XL",
    "Jukebox",
    "LinearSegment",
    "NoisyTimingModel",
    "RobotArm",
    "RobotError",
    "Tape",
    "TapeDrive",
    "TapePool",
    "random_walk_validation",
]
