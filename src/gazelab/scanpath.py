"""Core gaze types shared across the generator, model, metrics, and I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Fixation:
    """One fixation: normalized coordinates in [0,1], duration in ms."""

    x: float
    y: float
    dur_ms: float


@dataclass
class Scanpath:
    """An ordered fixation sequence by one observer on one image."""

    image_id: int
    observer_id: int
    fixations: list[Fixation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.fixations)

    def xy(self) -> np.ndarray:
        """Fixation coordinates as an (n, 2) array."""
        return np.array([[f.x, f.y] for f in self.fixations], dtype=np.float64).reshape(-1, 2)

    def durations(self) -> np.ndarray:
        return np.array([f.dur_ms for f in self.fixations], dtype=np.float64)

    def validate(self) -> None:
        for i, f in enumerate(self.fixations):
            if not (0.0 <= f.x <= 1.0 and 0.0 <= f.y <= 1.0):
                raise ValueError(
                    f"fixation {i} of image {self.image_id} observer {self.observer_id}: "
                    f"coordinates ({f.x}, {f.y}) outside [0, 1]"
                )
            if not 0.0 < f.dur_ms < math.inf:
                raise ValueError(
                    f"fixation {i} of image {self.image_id} observer {self.observer_id}: "
                    f"duration {f.dur_ms} not positive and finite"
                )
