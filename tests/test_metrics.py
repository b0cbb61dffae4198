"""Metric tests: binning, ScanMatch, MultiMatch, string-edit distance."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazelab.metrics import (
    ASPECT_RANGE,
    MAX_GRID_BINS,
    MAX_SCANPATH_TOKENS,
    MetricConfig,
    _align_batch,
    align_minimum_cost,
    edit_distances,
    multimatch,
    multimatch_pairs,
    nw_score,
    nw_scores,
    quantize,
    scanmatch,
    scanmatch_pairs,
    sed_pairs,
    string_edit_distance,
    substitution_matrix,
    value_pairs,
)
from gazelab.scanpath import Fixation, Scanpath

from support import (
    brute_force_nw,
    enumerate_monotone_pairings,
    loop_grid_cell,
    loop_multimatch,
    naive_levenshtein,
    plain_levenshtein,
    plain_nw,
    plain_scanmatch,
)


def random_scanpath(rng, n=None, image_id=0, observer_id=0):
    n = n or int(rng.integers(1, 8))
    fixations = [
        Fixation(float(rng.uniform()), float(rng.uniform()), float(rng.uniform(60, 800)))
        for _ in range(n)
    ]
    return Scanpath(image_id, observer_id, fixations)


def path_from(points, dur=100.0):
    return Scanpath(0, 0, [Fixation(x, y, dur) for x, y in points])


class TestMetricConfig:
    @pytest.mark.parametrize("name", ["sm_grid", "sed_grid"])
    @pytest.mark.parametrize("grid", [(MAX_GRID_BINS + 1, 1),
                                      (100_000, 100_000)])
    def test_grid_past_bin_bound_rejected(self, name, grid):
        # refused before a (bins x bins) matrix is built
        with pytest.raises(ValueError) as err:
            MetricConfig(**{name: grid})
        assert str(err.value) == (f"{name} {grid[0]}x{grid[1]} has "
                                  f"{grid[0] * grid[1]} bins, more than "
                                  f"{MAX_GRID_BINS}")

    @pytest.mark.parametrize("name", ["sm_grid", "sed_grid"])
    def test_grid_at_bin_bound_accepted(self, name):
        assert getattr(MetricConfig(**{name: (64, 64)}), name) == (64, 64)

    @pytest.mark.parametrize("aspect", [(1e-200, 1e-200), (1e160, 1e160),
                                        (4.0, 1e7), (float("nan"), 3.0)])
    def test_aspect_outside_range_rejected(self, aspect):
        with pytest.raises(ValueError, match=r"^aspect entries must lie in "
                                             r"\[1e-06, 1e\+06\]"):
            MetricConfig(aspect=aspect)

    def test_square_screen_scores_do_not_depend_on_scale_in_range(self):
        rng = np.random.default_rng(5)
        a, b = (path_from(rng.uniform(size=(6, 2))) for _ in range(2))
        scores = [(scanmatch(a, b, MetricConfig(aspect=(s, s))),
                   multimatch(a, b, MetricConfig(aspect=(s, s))).mean)
                  for s in (*ASPECT_RANGE, 1.0)]
        assert np.allclose(scores, scores[-1], rtol=1e-12, atol=0)


class TestQuantize:
    def test_corner_clamping(self):
        sp = path_from([(0.0, 0.0), (1.0, 1.0)])
        assert quantize(sp, (8, 6), 0.0) == [0, 8 * 6 - 1]

    def test_duration_expansion_ceil(self):
        sp = Scanpath(0, 0, [Fixation(0.5, 0.5, 120.0)])
        tokens = quantize(sp, (8, 6), 50.0)
        assert len(tokens) == 3
        assert len(set(tokens)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_fixation_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_scanpath(rng)
        gx, gy = 8, 6
        tbin = 50.0
        expected = []
        for f in sp.fixations:
            col = min(int(f.x * gx), gx - 1)
            row = min(int(f.y * gy), gy - 1)
            reps = int(np.ceil(f.dur_ms / tbin))
            expected.extend([col * gy + row] * reps)
        assert quantize(sp, (gx, gy), tbin) == expected

    @pytest.mark.parametrize("dur", [float("inf"), float("nan"), 0.0])
    def test_bad_duration_rejected(self, dur):
        sp = Scanpath(0, 0, [Fixation(0.5, 0.5, dur)])
        with pytest.raises(ValueError, match="not positive and finite"):
            quantize(sp, (8, 6), 50.0)

    def test_out_of_range_coordinates_rejected(self):
        sp = Scanpath(0, 0, [Fixation(1.2, 0.5, 100.0)])
        with pytest.raises(ValueError, match="outside"):
            quantize(sp, (8, 6), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantize(Scanpath(0, 0, []), (8, 6), 0.0)

    def test_expansion_capped_at_max_tokens(self):
        at_cap = Scanpath(0, 0, [Fixation(0.5, 0.5, 50.0 * MAX_SCANPATH_TOKENS)])
        assert len(quantize(at_cap, (8, 6), 50.0)) == MAX_SCANPATH_TOKENS
        # 1e7 ms at 50 ms bins would be 200,000 tokens
        huge = Scanpath(3, 4, [Fixation(0.5, 0.5, 100.0), Fixation(0.5, 0.5, 1e7)])
        with pytest.raises(ValueError, match=r"fixation 1 of image 3 observer 4: "
                                             r"duration 10000000.0 ms at sm_tbin 50.0"):
            quantize(huge, (8, 6), 50.0)


# coordinates with both closed edges, 0 and 1, drawn often
EDGE_COORDS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestBatchedQuantize:
    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(st.tuples(EDGE_COORDS, EDGE_COORDS,
                                     st.floats(1.0, 900.0)),
                           min_size=1, max_size=12),
           gx=st.integers(1, 9), gy=st.integers(1, 9),
           tbin=st.sampled_from([0.0, 50.0, 37.5]))
    @example(points=[(0.0, 0.0, 50.0), (1.0, 1.0, 50.0), (1.0, 0.0, 1.0)],
             gx=8, gy=6, tbin=50.0)
    def test_matches_per_fixation_grid_cell(self, points, gx, gy, tbin):
        sp = Scanpath(2, 5, [Fixation(x, y, d) for x, y, d in points])
        expected = []
        for x, y, d in points:
            row, col = divmod(loop_grid_cell(x, y, gy, gx), gx)
            reps = math.ceil(max(d / tbin, 1.0)) if tbin > 0 else 1
            expected.extend([col * gy + row] * reps)
        assert quantize(sp, (gx, gy), tbin) == expected

    def test_value_pairs_equal_the_three_batches(self):
        rng = np.random.default_rng(12)
        paths = [random_scanpath(rng, observer_id=k) for k in range(5)]
        paths.append(Scanpath(0, 9, [Fixation(1.0, 0.0, 80.0)]))
        pairs = [(paths[i], paths[j]) for i in range(6) for j in range(6)]
        sms, mms, seds = value_pairs(pairs)
        np.testing.assert_array_equal(sms, scanmatch_pairs(pairs))
        np.testing.assert_array_equal(seds, sed_pairs(pairs))
        assert mms == multimatch_pairs(pairs)

    def test_token_cap_names_the_fixation_in_its_own_scanpath(self):
        # 9,000 tokens before it in the batch, 6,000 in its own scanpath
        long = Scanpath(0, 0, [Fixation(0.5, 0.5, 50.0 * 9_000)])
        huge = Scanpath(3, 4, [Fixation(0.2, 0.2, 50.0 * 6_000),
                               Fixation(0.4, 0.4, 50.0 * 3_000),
                               Fixation(0.6, 0.6, 50.0 * 2_000)])
        with pytest.raises(ValueError, match=r"fixation 2 of image 3 observer 4: "
                                             r"duration 100000.0 ms at sm_tbin 50.0"):
            scanmatch_pairs([(long, huge)])

    def test_first_faulty_scanpath_in_pair_order_is_named(self):
        good = Scanpath(0, 0, [Fixation(0.5, 0.5, 100.0)])
        far = Scanpath(1, 1, [Fixation(0.5, 0.5, 100.0), Fixation(0.5, 1.5, 100.0)])
        empty = Scanpath(2, 2, [])
        with pytest.raises(ValueError, match="fixation 1 of image 1 observer 1"):
            value_pairs([(good, far), (empty, good)])
        with pytest.raises(ValueError, match=r"empty scanpath \(image 2, observer 2\)"):
            value_pairs([(good, empty), (far, good)])


class TestScanMatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_self_similarity_is_one(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_scanpath(rng)
        assert scanmatch(sp, sp) == 1.0

    def test_opposite_corners_clamp_to_zero(self):
        a = path_from([(0.0, 0.0)])
        b = path_from([(1.0, 1.0)])
        assert scanmatch(a, b, MetricConfig(sm_tbin=0.0)) == 0.0

    def test_substitution_matrix_extremes(self):
        sub = substitution_matrix((8, 6), (4.0, 3.0))
        np.testing.assert_allclose(np.diag(sub), 1.0)
        assert sub[0, -1] == pytest.approx(-1.0)
        assert sub.min() >= -1.0 - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_nw_matches_brute_force_on_random_strings(self, seed):
        rng = np.random.default_rng(100 + seed)
        sub = substitution_matrix((2, 2), (4.0, 3.0))
        a = [int(t) for t in rng.integers(0, 4, size=rng.integers(1, 5))]
        b = [int(t) for t in rng.integers(0, 4, size=rng.integers(1, 5))]
        got = nw_score(a, b, sub, 0.0)
        want = brute_force_nw(a, b, lambda p, q: sub[p, q], 0.0)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(200 + seed)
        a, b = random_scanpath(rng), random_scanpath(rng)
        assert scanmatch(a, b) == scanmatch(b, a)

    @pytest.mark.parametrize("seed", range(10))
    def test_range(self, seed):
        rng = np.random.default_rng(300 + seed)
        v = scanmatch(random_scanpath(rng), random_scanpath(rng))
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_degradation_along_diagonal(self, seed):
        rng = np.random.default_rng(400 + seed)
        pts = [(float(rng.uniform(0.02, 0.25)), float(rng.uniform(0.02, 0.25))) for _ in range(4)]
        base = path_from(pts)
        k = int(rng.integers(0, len(pts)))
        previous = 1.0
        for step in np.linspace(0.0, 0.7, 8):
            moved = list(pts)
            moved[k] = (min(pts[k][0] + step, 1.0), min(pts[k][1] + step, 1.0))
            value = scanmatch(base, path_from(moved))
            assert value <= previous + 1e-12
            previous = value

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            scanmatch(Scanpath(0, 0, []), path_from([(0.5, 0.5)]))


SUB_8X6 = substitution_matrix((8, 6), (4.0, 3.0))
# edit distance's substitution scores: -0.0 on the diagonal
SUB_UNIT = -(1.0 - np.eye(48))
# signed zeros only, so every cell ties and the tie rule sets the sign
SUB_ZEROS = np.where(np.random.default_rng(0).random((48, 48)) < 0.5, 0.0, -0.0)
tokens = st.integers(0, 47)
token_strings = st.lists(tokens, max_size=60)


@st.composite
def pairs_ending_together(draw):
    """Up to 16 pairs whose tables all end on one anti-diagonal."""
    total = draw(st.integers(0, 60))
    cuts = draw(st.lists(st.integers(0, total), min_size=1, max_size=16))
    return [(draw(st.lists(tokens, min_size=k, max_size=k)),
             draw(st.lists(tokens, min_size=total - k, max_size=total - k)))
            for k in cuts]


class TestBatchedNeedlemanWunsch:
    @settings(max_examples=200, deadline=None)
    @given(pairs=st.one_of(st.lists(st.tuples(token_strings, token_strings),
                                    min_size=1, max_size=16),
                           pairs_ending_together()),
           sub=st.sampled_from([SUB_8X6, SUB_UNIT, SUB_ZEROS]),
           gap=st.sampled_from([0.0, -0.0, -0.5, 0.3]))
    @example(pairs=[([5], [7])], sub=SUB_8X6, gap=-0.5)
    @example(pairs=[([], []), ([1], []), ([], [2, 3])], sub=SUB_8X6, gap=-0.5)
    def test_equals_plain_recurrence_exactly(self, pairs, sub, gap):
        got = nw_scores([a for a, _ in pairs], [b for _, b in pairs], sub, gap)
        want = np.array([plain_nw(a, b, sub, gap) for a, b in pairs])
        # bit for bit, so a signed zero counts
        assert got.tobytes() == want.tobytes()

    def test_empty_batch(self):
        assert nw_scores([], [], SUB_8X6, 0.0).shape == (0,)

    def test_empty_string_scores_its_gaps(self):
        got = nw_scores([[], [3, 4]], [[1, 2, 5], []], SUB_8X6, -0.5)
        assert got.tolist() == [-1.5, -1.0]

    def test_token_outside_matrix_rejected(self):
        with pytest.raises(ValueError, match="substitution matrix"):
            nw_score([0, 48], [1], SUB_8X6, 0.0)

    def test_scanmatch_pairs_equals_plain_scanmatch(self):
        rng = np.random.default_rng(31)
        cfg = MetricConfig(sm_gap=-0.2)
        paths = [random_scanpath(rng) for _ in range(6)]
        pairs = [(a, b) for a in paths for b in paths]
        got = scanmatch_pairs(pairs, cfg)
        assert got.tolist() == [plain_scanmatch(a, b, cfg) for a, b in pairs]
        assert scanmatch(paths[0], paths[1], cfg) == got[1]


# fixations on a 3x3 grid with three durations, full of alignment ties and
# zero-length saccades, or anywhere on the screen
coarse_fixations = st.tuples(
    st.sampled_from([1 / 6, 0.5, 5 / 6]),
    st.sampled_from([1 / 6, 0.5, 5 / 6]),
    st.sampled_from([100.0, 200.0, 300.0]),
)
fine_fixations = st.tuples(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 1000.0),
)
scanpaths = st.one_of(
    st.lists(coarse_fixations, min_size=1, max_size=12),
    st.lists(fine_fixations, min_size=1, max_size=12),
    st.lists(st.one_of(coarse_fixations, fine_fixations), min_size=1, max_size=2),
)


def plain_align(cost):
    """Minimal-cost monotone alignment, filled row by row on Python floats
    and traced back preferring the diagonal, then up, then left."""
    n, m = cost.shape
    c = cost.tolist()
    total = [[0.0] * m for _ in range(n)]
    total[0][0] = c[0][0]
    for j in range(1, m):
        total[0][j] = total[0][j - 1] + c[0][j]
    for i in range(1, n):
        total[i][0] = total[i - 1][0] + c[i][0]
        for j in range(1, m):
            total[i][j] = min(total[i - 1][j], total[i][j - 1],
                              total[i - 1][j - 1]) + c[i][j]
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        candidates = []
        if i > 0 and j > 0:
            candidates.append((total[i - 1][j - 1], (i - 1, j - 1)))
        if i > 0:
            candidates.append((total[i - 1][j], (i - 1, j)))
        if j > 0:
            candidates.append((total[i][j - 1], (i, j - 1)))
        _, (i, j) = min(candidates, key=lambda cand: cand[0])
        path.append((i, j))
    return path[::-1]


# small cost matrices, whole numbers full of ties or arbitrary floats
cost_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 3.0)),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
    ).map(lambda values: np.array(values).reshape(shape)))


class TestBatchedAlignment:
    @settings(max_examples=200, deadline=None)
    @given(costs=st.lists(cost_matrices, min_size=1, max_size=8))
    def test_paths_equal_single_and_plain_alignment(self, costs):
        n = np.array([c.shape[0] for c in costs])
        m = np.array([c.shape[1] for c in costs])
        padded = np.full((len(costs), n.max(), m.max()), 7.0)
        for p, c in enumerate(costs):
            padded[p, :n[p], :m[p]] = c
        pair, i, j, length = _align_batch(padded, n, m)
        assert length.sum() == len(pair) == len(i) == len(j)
        for p, c in enumerate(costs):
            path = list(zip(i[pair == p].tolist(), j[pair == p].tolist()))
            assert path == align_minimum_cost(c) == plain_align(c)
            best = min(sum(c[a, b] for a, b in walk)
                       for walk in enumerate_monotone_pairings(*c.shape))
            assert sum(c[a, b] for a, b in path) == pytest.approx(best, abs=1e-12)


class TestMultiMatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_identity_all_dimensions_one(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_scanpath(rng, n=int(rng.integers(2, 7)))
        result = multimatch(sp, sp)
        for value in result.as_dict().values():
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_opposite_directions_zero(self):
        a = path_from([(0.2, 0.5), (0.8, 0.5)])
        b = path_from([(0.8, 0.5), (0.2, 0.5)])
        assert multimatch(a, b).direction == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_three_fixation_alignment_matches_enumeration(self, seed):
        rng = np.random.default_rng(500 + seed)
        a = random_scanpath(rng, n=3)
        b = random_scanpath(rng, n=3)
        scale = np.array([4.0, 3.0]) * np.sqrt(2.0) / 5.0
        va = np.diff(a.xy() * scale, axis=0)
        vb = np.diff(b.xy() * scale, axis=0)
        cost = np.sqrt(((va[:, None, :] - vb[None, :, :]) ** 2).sum(axis=2))
        best = min(
            (sum(cost[i, j] for i, j in path) for path in enumerate_monotone_pairings(2, 2))
        )
        got = align_minimum_cost(cost)
        assert sum(cost[i, j] for i, j in got) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(600 + seed)
        a = random_scanpath(rng, n=int(rng.integers(1, 6)))
        b = random_scanpath(rng, n=int(rng.integers(1, 6)))
        assert multimatch(a, b).as_dict() == multimatch(b, a).as_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_dimensions_in_unit_interval(self, seed):
        rng = np.random.default_rng(700 + seed)
        a = random_scanpath(rng, n=int(rng.integers(2, 7)))
        b = random_scanpath(rng, n=int(rng.integers(2, 7)))
        for value in multimatch(a, b).as_dict().values():
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_single_fixation_fallback(self):
        a = path_from([(0.5, 0.5)])
        b = path_from([(0.5, 0.5), (0.7, 0.7)])
        result = multimatch(a, b)
        assert result.shape is None and result.length is None and result.direction is None
        assert result.position is not None and result.duration is not None
        assert result.mean == pytest.approx((result.position + result.duration) / 2.0)

    @settings(max_examples=300, deadline=None)
    @given(a=scanpaths, b=scanpaths)
    @example(a=[(0.5, 0.5, 100.0)], b=[(0.5, 0.5, 100.0), (0.5, 0.5, 100.0)])
    def test_equals_per_index_loop_exactly(self, a, b):
        a, b = (Scanpath(0, 0, [Fixation(*f) for f in sp]) for sp in (a, b))
        assert multimatch(a, b).as_dict() == loop_multimatch(a, b).as_dict()

    @settings(max_examples=150, deadline=None)
    @given(pool=st.lists(scanpaths, min_size=1, max_size=6),
           picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          min_size=1, max_size=10))
    def test_batch_equals_loop_and_single_pairs_exactly(self, pool, picks):
        # pairs share scanpath objects and include self-pairs
        pool = [Scanpath(0, 0, [Fixation(*f) for f in sp]) for sp in pool]
        pairs = [(pool[x % len(pool)], pool[y % len(pool)]) for x, y in picks]
        for ordered in (pairs, [(b, a) for a, b in pairs]):
            got = [r.as_dict() for r in multimatch_pairs(ordered)]
            assert got == [loop_multimatch(a, b).as_dict() for a, b in ordered]
            assert got == [multimatch(a, b).as_dict() for a, b in ordered]

    def test_empty_batch(self):
        assert multimatch_pairs([]) == []


class TestStringEditDistance:
    def test_identity_zero(self):
        rng = np.random.default_rng(0)
        sp = random_scanpath(rng)
        assert string_edit_distance(sp, sp) == 0

    def test_single_substitution(self):
        # tokens: (0.1,0.1)->0, (0.3,0.1)->5, (0.5,0.1)->10 on the 5x5 grid
        a = path_from([(0.1, 0.1), (0.3, 0.1)])
        b = path_from([(0.1, 0.1), (0.5, 0.1)])
        assert string_edit_distance(a, b) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_recursion(self, seed):
        rng = np.random.default_rng(800 + seed)
        a = [int(t) for t in rng.integers(0, 25, size=rng.integers(1, 7))]
        b = [int(t) for t in rng.integers(0, 25, size=rng.integers(1, 7))]
        assert edit_distances([a], [b], 25).tolist() == [naive_levenshtein(a, b)]

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(900 + seed)
        a, b = random_scanpath(rng), random_scanpath(rng)
        assert string_edit_distance(a, b) == string_edit_distance(b, a)

    def test_triangle_inequality_property(self):
        rng = np.random.default_rng(12345)
        triples = [
            [[int(t) for t in rng.integers(0, 25, size=rng.integers(1, 7))] for _ in range(3)]
            for _ in range(1000)
        ]
        a, b, c = zip(*triples)
        ac, ab, bc = (edit_distances(x, y, 25) for x, y in ((a, c), (a, b), (b, c)))
        assert (ac <= ab + bc).all()

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.lists(st.integers(0, 8), min_size=1, max_size=14),
                                    st.lists(st.integers(0, 8), min_size=1, max_size=14)),
                          min_size=1, max_size=8))
    @example(pairs=[([0], [0]), ([1, 2, 3], [3, 2, 1])])
    def test_batch_equals_row_by_row_oracle(self, pairs):
        got = edit_distances([a for a, _ in pairs], [b for _, b in pairs], 9)
        assert got.tolist() == [plain_levenshtein(a, b) for a, b in pairs]

    def test_empty_strings(self):
        assert edit_distances([[], [1, 2], []], [[3], [], []], 4).tolist() == [1, 2, 0]

    def test_sed_pairs_equal_row_by_row_oracle(self):
        rng = np.random.default_rng(41)
        cfg = MetricConfig(sed_grid=(3, 2))
        paths = [random_scanpath(rng) for _ in range(5)]
        pairs = [(a, b) for a in paths for b in paths]
        got = sed_pairs(pairs, cfg)
        assert got.tolist() == [
            plain_levenshtein(quantize(a, (3, 2)), quantize(b, (3, 2)))
            for a, b in pairs
        ]
        one = string_edit_distance(paths[0], paths[1], cfg)
        assert type(one) is int and one == got[1]
