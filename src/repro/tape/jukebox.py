"""The jukebox: one drive, a robot arm, and a pool of tapes.

This composes :class:`~repro.tape.drive.TapeDrive`,
:class:`~repro.tape.robot.RobotArm`, and
:class:`~repro.tape.tape.TapePool` into the single-drive jukebox the
paper studies (an Exabyte EXB-210: 10 tapes x 7 GB).  A library with
more drives is one jukebox per drive over a shared pool
(:meth:`Jukebox.drive_bay`).  Operations return durations; the service
model turns them into simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .drive import TapeDrive
from .robot import RobotArm
from .tape import DEFAULT_TAPE_CAPACITY_MB, TapePool
from .timing import DriveTimingModel, EXB_8505XL

#: Number of tapes in the paper's default jukebox.
DEFAULT_TAPE_COUNT = 10


@dataclass
class Jukebox:
    """A single-drive tape jukebox."""

    pool: TapePool
    drive: TapeDrive
    robot: RobotArm
    switches: int = 0

    @classmethod
    def build(
        cls,
        tape_count: int = DEFAULT_TAPE_COUNT,
        capacity_mb: float = DEFAULT_TAPE_CAPACITY_MB,
        timing: DriveTimingModel = EXB_8505XL,
    ) -> "Jukebox":
        """Construct a jukebox with ``tape_count`` identical tapes."""
        pool = TapePool.uniform(tape_count, capacity_mb)
        drive = TapeDrive(timing=timing)
        robot = RobotArm(timing=timing, slot_count=tape_count)
        return cls(pool=pool, drive=drive, robot=robot)

    @property
    def timing(self) -> DriveTimingModel:
        """The drive timing model in effect."""
        return self.drive.timing

    @property
    def tape_count(self) -> int:
        """Number of tapes resident in the jukebox."""
        return len(self.pool)

    @property
    def mounted_id(self) -> Optional[int]:
        """Currently mounted tape id, or ``None``."""
        return self.drive.mounted_id

    @property
    def head_mb(self) -> float:
        """Current head position on the mounted tape (MB)."""
        return self.drive.head_mb

    def drive_bay(self) -> "Jukebox":
        """Another drive of this library, as a jukebox of its own.

        The bay shares this jukebox's tape pool but has its own drive and
        its own record of which cartridge its drive holds.  A multi-drive
        service loop keeps any tape in at most one drive and serializes
        the arm's motions across bays.
        """
        return Jukebox(
            pool=self.pool,
            drive=TapeDrive(timing=self.timing),
            robot=RobotArm(timing=self.timing, slot_count=len(self.pool)),
        )

    # ------------------------------------------------------------------
    def switch_to(self, tape_id: int) -> float:
        """Mount ``tape_id``; return total duration (0 if already mounted).

        A switch is rewind + eject + robot swap + load; the initial mount
        of an empty drive skips the rewind/eject.
        """
        if tape_id < 0 or tape_id >= len(self.pool):
            raise ValueError(f"no tape {tape_id} in a {len(self.pool)}-tape jukebox")
        if self.drive.mounted_id == tape_id:
            return 0.0
        seconds = 0.0
        if self.drive.is_loaded:
            seconds += self.drive.rewind()
            seconds += self.drive.eject()
        seconds += self.robot.swap(tape_id)
        seconds += self.drive.load(self.pool[tape_id])
        self.switches += 1
        return seconds

    def access(self, position_mb: float, size_mb: float) -> float:
        """Locate + read on the mounted tape; return the duration."""
        return self.drive.access(position_mb, size_mb)

    def unload_for_repair(self) -> None:
        """Pull the mounted cartridge during a drive repair (untimed).

        The drive comes back empty and the cartridge returns to its
        slot, keeping drive and robot state consistent for the next
        :meth:`switch_to`.
        """
        self.drive.force_unload()
        self.robot.return_to_slot()
