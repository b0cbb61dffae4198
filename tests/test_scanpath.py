"""Grid-cell convention shared by the model, metrics, saliency and ROIs,
and the checked read of fixations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazelab.analysis import roi_stats
from gazelab.evaluate import build_saliency, saliency_metrics
from gazelab.metrics import quantize, substitution_matrix
from gazelab.scanpath import (
    Fixation,
    Scanpath,
    cell_center,
    cell_centers,
    grid_cell,
    grid_cells,
    read_fixations,
)
from gazelab.synthetic import BACKGROUND, SOCIAL, SyntheticScene

from support import loop_grid_cell, oracle_cell_centers

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
    token = quantize(Scanpath(0, 0, [fix]), (WIDTH, HEIGHT))[0]
    assert token == col * HEIGHT + row
    smap = build_saliency([fix], sigma=0.1, resolution=(HEIGHT, WIDTH))
    assert np.unravel_index(smap.grid.argmax(), smap.grid.shape) == (row, col)
    roi = roi_stats([Scanpath(0, 0, [fix])], [marked_scene(row, col)])
    assert roi.proportions("social") == {0: 1.0}


@pytest.mark.parametrize("x, y", [(-0.5, 0.5), (0.5, -1e-12), (1.5, 0.5),
                                  (0.5, float("nan")), (0.25, 1.2)])
def test_out_of_range_coordinates_rejected(x, y):
    # every consumer of the grid rule names the first bad point alike
    good, bad = Fixation(0.5, 0.5, 100.0), Fixation(x, y, 100.0)
    smap = build_saliency([good], resolution=(HEIGHT, WIDTH))
    cases = [
        lambda: grid_cell(x, y, HEIGHT, WIDTH),
        lambda: build_saliency([good, bad], resolution=(HEIGHT, WIDTH)),
        lambda: saliency_metrics(smap, [good, bad], smap),
        lambda: saliency_metrics(smap, [good], smap, [good, bad]),
    ]
    for case in cases:
        with pytest.raises(ValueError) as err:
            case()
        assert str(err.value) == f"grid_cell: coordinates ({x}, {y}) outside [0, 1]"
    # roi_stats reads whole scanpaths, so it names the fixation as
    # read_fixations does
    with pytest.raises(ValueError) as err:
        roi_stats([Scanpath(0, 0, [good, bad])], [marked_scene(0, 0)])
    assert str(err.value) == (f"fixation 1 of image 0 observer 0: coordinates "
                              f"({x}, {y}) outside [0, 1]")


def test_negative_saliency_fixation_rejected():
    # a negative index used to wrap around to the far side of the grid
    with pytest.raises(ValueError, match="outside"):
        build_saliency([Fixation(-0.5, 0.5, 100)], resolution=(8, 8))


def test_cell_center_inverts_grid_cell():
    for index in range(HEIGHT * WIDTH):
        x, y = cell_center(index, HEIGHT, WIDTH)
        assert grid_cell(x, y, HEIGHT, WIDTH) == index


@pytest.mark.parametrize("index", [-1, 16, 5.7, 5.0, "5", None])
def test_cell_center_refuses_index_off_the_grid(index):
    with pytest.raises(ValueError) as err:
        cell_center(index, 4, 4)
    assert str(err.value) == \
        f"cell index {index} is not an integer in [0, 16) of the 4x4 grid"


class TestCellCenters:
    @pytest.mark.parametrize("height, width", [(1, 1), (4, 8), (8, 4),
                                               (3, 5), (7, 1), (12, 12),
                                               (16, 16)])
    def test_unit_square_matches_former_forms(self, height, width):
        table = cell_centers(height, width)
        assert table.shape == (height * width, 2)
        assert np.array_equal(table, oracle_cell_centers(height, width))
        cells = np.arange(height * width)
        assert grid_cells(table[:, 0], table[:, 1], height, width).tolist() \
            == cells.tolist()
        assert [cell_center(k, height, width) for k in cells] == \
            [tuple(xy) for xy in table.tolist()]

    @pytest.mark.parametrize("grid, aspect", [((8, 6), (4.0, 3.0)),
                                              ((5, 5), (4.0, 3.0)),
                                              ((7, 3), (1.3, 2.9))])
    def test_scanmatch_screen_matches_former_form(self, grid, aspect):
        # ScanMatch's column-major bins are the transposed grid's cells
        (gx, gy), (aw, ah) = grid, aspect
        table = cell_centers(gx, gy, (ah, aw))
        assert np.array_equal(table, oracle_cell_centers(gx, gy, (ah, aw)))
        bins = table[:, ::-1]
        d = np.sqrt(((bins[:, None, :] - bins[None, :, :]) ** 2).sum(axis=2))
        assert np.array_equal(substitution_matrix(grid, aspect),
                              1.0 - 2.0 * d / d[0, -1])


# coordinates with both closed edges, 0 and 1, drawn often
EDGE_COORDS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
BAD_COORDS = st.one_of(st.just(float("nan")), st.floats(1.0, 1e6, exclude_min=True),
                       st.floats(-1e6, 0.0, exclude_max=True))


class TestGridCells:
    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(EDGE_COORDS, EDGE_COORDS), max_size=12),
           height=st.integers(1, 9), width=st.integers(1, 9))
    def test_matches_loop_oracle(self, points, height, width):
        expected = [loop_grid_cell(x, y, height, width) for x, y in points]
        x = np.array([p[0] for p in points], dtype=np.float64)
        y = np.array([p[1] for p in points], dtype=np.float64)
        assert grid_cells(x, y, height, width).tolist() == expected
        assert [grid_cell(px, py, height, width) for px, py in points] == expected

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(EDGE_COORDS, EDGE_COORDS), max_size=5),
           bad=st.tuples(BAD_COORDS, EDGE_COORDS), swap=st.booleans(),
           after=st.lists(st.tuples(EDGE_COORDS | BAD_COORDS,
                                    EDGE_COORDS | BAD_COORDS), max_size=3))
    def test_first_bad_point_named(self, points, bad, swap, after):
        bad = bad[::-1] if swap else bad
        with pytest.raises(ValueError) as oracle:
            loop_grid_cell(*bad, 4, 5)
        everything = points + [bad] + after
        x = np.array([p[0] for p in everything], dtype=np.float64)
        y = np.array([p[1] for p in everything], dtype=np.float64)
        with pytest.raises(ValueError) as err:
            grid_cells(x, y, 4, 5)
        assert str(err.value) == str(oracle.value)
        with pytest.raises(ValueError) as err:
            grid_cell(*bad, 4, 5)
        assert str(err.value) == str(oracle.value)

    def test_empty_input_gives_no_cells(self):
        assert grid_cells(np.zeros(0), np.zeros(0), 3, 3).shape == (0,)


class TestReadFixations:
    def test_rows_and_sizes(self):
        a = Scanpath(0, 1, [Fixation(0.0, 1.0, 50.0), Fixation(0.5, 0.25, 80.0)])
        b = Scanpath(2, 3, [Fixation(1.0, 0.0, 7.5)])
        rows, sizes = read_fixations([a, b])
        assert rows.tolist() == [[0.0, 1.0, 50.0], [0.5, 0.25, 80.0],
                                 [1.0, 0.0, 7.5]]
        assert sizes.tolist() == [2, 1]

    @pytest.mark.parametrize("fixation, message", [
        (Fixation(0.5, 1.2, 90.0),
         "fixation 1 of image 4 observer 5: coordinates (0.5, 1.2) outside [0, 1]"),
        (Fixation(float("nan"), 0.5, 90.0),
         "fixation 1 of image 4 observer 5: coordinates (nan, 0.5) outside [0, 1]"),
        (Fixation(0.5, 0.5, 0.0),
         "fixation 1 of image 4 observer 5: duration 0.0 not positive and finite"),
        (Fixation(0.5, 0.5, float("inf")),
         "fixation 1 of image 4 observer 5: duration inf not positive and finite"),
    ])
    def test_validate_words_the_first_fault(self, fixation, message):
        good = Scanpath(0, 0, [Fixation(0.5, 0.5, 90.0)])
        bad = Scanpath(4, 5, [Fixation(0.5, 0.5, 90.0), fixation])
        later = Scanpath(6, 7, [])
        with pytest.raises(ValueError) as err:
            read_fixations([good, bad, later])
        assert str(err.value) == message

    def test_empty_scanpath_named(self):
        with pytest.raises(ValueError) as err:
            read_fixations([Scanpath(0, 0, [Fixation(0.5, 0.5, 90.0)]),
                            Scanpath(3, 1, [])])
        assert str(err.value) == "empty scanpath (image 3, observer 1)"
