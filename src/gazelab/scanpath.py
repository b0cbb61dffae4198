"""Core gaze types shared across the generator, model, metrics, and I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the generator and the model clamp each drawn fixation duration to this, in ms
DUR_CLAMP_MS = (50.0, 5000.0)


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


def read_fixations(scanpaths) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sizes): the (F, 3) (x, y, dur_ms) fixation rows of
    ``scanpaths``, one after another, and each one's count, checked by one
    array test. A fault raises the ValueError of an empty scanpath or of
    ``Scanpath.validate`` for the first faulty scanpath."""
    sizes = np.array([len(sp) for sp in scanpaths], dtype=np.intp)
    rows = np.array([(f.x, f.y, f.dur_ms) for sp in scanpaths for f in sp.fixations],
                    dtype=np.float64).reshape(-1, 3)
    xy, dur = rows[:, :2], rows[:, 2]
    if not (sizes.all() and ((xy >= 0.0) & (xy <= 1.0)).all()
            and ((dur > 0.0) & (dur < math.inf)).all()):
        for sp in scanpaths:
            if len(sp) == 0:
                raise ValueError(
                    f"empty scanpath (image {sp.image_id}, observer {sp.observer_id})")
            sp.validate()
    return rows, sizes


def grid_cells(x, y, height: int, width: int) -> np.ndarray:
    """Row-major indices ``row * width + col`` of the cells holding the
    points (x[i], y[i]).

    The unit square splits into ``height`` rows and ``width`` columns:
    row = floor(y * height) and col = floor(x * width), with the closed
    upper edge (a coordinate of exactly 1) folded into the last row or
    column. A coordinate outside [0, 1] or NaN raises ValueError naming the
    first such point.
    """
    xs, ys = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    inside = (xs >= 0.0) & (xs <= 1.0) & (ys >= 0.0) & (ys <= 1.0)
    if not inside.all():
        i = int(inside.argmin())
        raise ValueError(f"grid_cell: coordinates ({x[i]}, {y[i]}) outside [0, 1]")
    return (np.minimum((ys * height).astype(np.intp), height - 1) * width
            + np.minimum((xs * width).astype(np.intp), width - 1))


def grid_cell(x: float, y: float, height: int, width: int) -> int:
    """``grid_cells`` of one point."""
    return int(grid_cells([x], [y], height, width)[0])


def cell_centers(height: int, width: int,
                 extent: tuple[float, float] = (1.0, 1.0)) -> np.ndarray:
    """(H*W, 2) centers of the row-major cells ``row * width + col`` on a
    screen of size ``extent``: ((col + 0.5) * extent[0] / width,
    (row + 0.5) * extent[1] / height); on the unit square ``grid_cells``
    inverts it."""
    rows, cols = np.divmod(np.arange(height * width), width)
    return np.stack([(cols + 0.5) * extent[0] / width,
                     (rows + 0.5) * extent[1] / height], axis=1)


def cell_center(index: int, height: int, width: int) -> tuple[float, float]:
    """``cell_centers`` of one cell on the unit square. An index that is
    not an integer in [0, height * width) raises ValueError."""
    if not (isinstance(index, (int, np.integer)) and 0 <= index < height * width):
        raise ValueError(f"cell index {index} is not an integer in "
                         f"[0, {height * width}) of the {height}x{width} grid")
    return tuple(cell_centers(height, width)[index].tolist())
