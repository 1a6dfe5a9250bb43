"""Reproducible named random streams.

A simulation mixes several stochastic components (block skew draws,
Poisson interarrivals, future extensions).  Deriving each component's
generator from a root seed plus a stable stream *name* keeps runs
reproducible even when components are added, removed, or consume
different amounts of randomness: stream "arrivals" yields the same
sequence regardless of what stream "skew" consumed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, stream_name: str) -> int:
    """A stable 64-bit seed for ``stream_name`` under ``root_seed``."""
    digest = hashlib.sha256(f"{root_seed}:{stream_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """Factory of independent, name-addressed ``random.Random`` streams."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The generator for ``name`` (created on first use, then shared)."""
        generator = self._streams.get(name)
        if generator is None:
            generator = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = generator
        return generator

    def fork(self, name: str) -> "RandomStreams":
        """A child stream space, independent of this one's named streams."""
        return RandomStreams(derive_seed(self.root_seed, f"fork:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"
