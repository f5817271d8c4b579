"""Common Monte Carlo result container and the one CSV writer."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Estimate", "write_csv"]


@dataclass
class Estimate:
    """A seeded Monte Carlo estimate with its standard error.

    ``metadata`` carries operation-specific extras (bounds, redraw counts,
    grid arguments); values must stay JSON-serializable.
    """

    value: float
    stderr: float
    n_samples: int
    master_seed: int
    metadata: dict = field(default_factory=dict)

    @classmethod
    def proportion(cls, p: float, n_samples: int, master_seed: int, metadata: dict) -> "Estimate":
        """Frequency ``p`` of an event over ``n_samples`` draws, with the
        binomial standard error (floored away from 0 for ``p`` in {0, 1})."""
        p = float(p)
        return cls(
            value=p,
            stderr=math.sqrt(max(p * (1 - p), 1e-12) / n_samples),
            n_samples=n_samples,
            master_seed=master_seed,
            metadata=metadata,
        )

    def to_record(self) -> dict:
        """Flat result record used by the experiment writers."""
        rec = {
            "seed": self.master_seed,
            "value": self.value,
            "stderr": self.stderr,
            "n": self.n_samples,
            "metadata": dict(self.metadata),
        }
        if "bound" in self.metadata:
            rec["bound"] = self.metadata["bound"]
        return rec


def _cell(x) -> str:
    if isinstance(x, float):  # numpy's float64 too, whose own repr is not a number
        return float.__repr__(x)
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV: ints as decimal integers, floats as
    their shortest round-trip ``repr``, ``None`` as an empty cell, strings
    as given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)
