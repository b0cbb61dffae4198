"""Grid-cell convention shared by the model, metrics, saliency and ROIs."""

import numpy as np
import pytest

from gazelab.evaluate import build_saliency
from gazelab.metrics import quantize
from gazelab.scanpath import Fixation, Scanpath, cell_center, grid_cell
from gazelab.synthetic import BACKGROUND, SOCIAL, SyntheticScene

# powers of two, so k / n * n is exactly k and every edge is hit exactly
HEIGHT, WIDTH = 4, 8


def marked_scene(row, col):
    """A scene whose only social cell is (row, col)."""
    mask = np.full((HEIGHT, WIDTH), BACKGROUND, dtype=np.int64)
    mask[row, col] = SOCIAL
    return SyntheticScene(id=0, E=np.zeros((1, HEIGHT, WIDTH)), roi_mask=mask)


@pytest.mark.parametrize("k", range(WIDTH + 1))
def test_binning_agrees_on_cell_edges(k):
    # x = k / W runs over every column edge up to the closed edge x = 1.0
    x, y = k / WIDTH, min(k, HEIGHT) / HEIGHT
    row, col = min(k, HEIGHT - 1), min(k, WIDTH - 1)
    fix = Fixation(x, y, 100.0)

    assert divmod(grid_cell(x, y, HEIGHT, WIDTH), WIDTH) == (row, col)
    token = quantize(Scanpath(0, 0, [fix]), (WIDTH, HEIGHT)).tokens[0]
    assert token == col * HEIGHT + row
    smap = build_saliency([fix], sigma=0.1, resolution=(HEIGHT, WIDTH),
                          kind="raw")
    assert np.unravel_index(smap.grid.argmax(), smap.grid.shape) == (row, col)
    assert marked_scene(row, col).category_at(x, y) == "social"


@pytest.mark.parametrize("x, y", [(-0.5, 0.5), (0.5, -1e-12), (1.5, 0.5),
                                  (0.5, float("nan"))])
def test_out_of_range_coordinates_rejected(x, y):
    with pytest.raises(ValueError, match="outside"):
        grid_cell(x, y, HEIGHT, WIDTH)
    with pytest.raises(ValueError, match="outside"):
        marked_scene(0, 0).category_at(x, y)


def test_negative_saliency_fixation_rejected():
    # a negative index used to wrap around to the far side of the grid
    with pytest.raises(ValueError, match="outside"):
        build_saliency([Fixation(-0.5, 0.5, 100)], resolution=(8, 8))


def test_cell_center_inverts_grid_cell():
    for index in range(HEIGHT * WIDTH):
        x, y = cell_center(index, HEIGHT, WIDTH)
        assert grid_cell(x, y, HEIGHT, WIDTH) == index
