"""Hot/cold access skew (paper Section 4, workload assumptions).

The skew model has two parameters: PH, the percent of tape-resident data
that are hot (a layout property, carried by the catalog), and RH, the
percent of requests directed to hot data.  A hot request picks a hot
block uniformly at random; a cold request picks a cold block uniformly.
Requested block numbers are independent of one another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..layout.catalog import BlockCatalog


@dataclass(frozen=True)
class HotColdSkew:
    """RH — the percent of requests directed to hot blocks."""

    percent_requests_hot: float = 40.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.percent_requests_hot <= 100.0:
            raise ValueError(
                f"percent_requests_hot must be in [0, 100], "
                f"got {self.percent_requests_hot!r}"
            )

    def draw_block(self, rng: random.Random, catalog: BlockCatalog) -> int:
        """Draw one logical block id according to the skew."""
        want_hot = rng.random() < self.percent_requests_hot / 100.0
        n_hot = catalog.n_hot
        if want_hot and n_hot > 0:
            return rng.randrange(n_hot)
        n_cold = catalog.n_cold
        if n_cold > 0:
            return n_hot + rng.randrange(n_cold)
        if n_hot > 0:  # degenerate all-hot catalog
            return rng.randrange(n_hot)
        raise ValueError("catalog has no blocks to request")


class UniformSkew(HotColdSkew):
    """No skew: every block equally likely (RH effectively equals PH)."""

    def draw_block(self, rng: random.Random, catalog: BlockCatalog) -> int:
        if catalog.n_blocks == 0:
            raise ValueError("catalog has no blocks to request")
        return rng.randrange(catalog.n_blocks)
