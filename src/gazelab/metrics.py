"""Scanpath similarity metrics.

Three value-based comparisons between fixation sequences:

* ``scanmatch``: Needleman-Wunsch global alignment of spatially binned,
  duration-expanded token strings, substitution score linear in bin-center
  distance.
* ``multimatch``: five-dimensional saccade-vector similarity (shape, length,
  direction, position, duration) after a monotone alignment that minimizes
  summed vector differences.
* ``string_edit_distance``: Levenshtein distance on coarsely binned token
  strings without duration expansion.

Coordinates are normalized to [0,1] x [0,1]; distances are measured on a
screen with the configured aspect ratio. For MultiMatch the screen is scaled
so its diagonal has length sqrt(2), which puts every dimension in [0,1].

ScanMatch and string-edit distance share one Needleman-Wunsch kernel,
``nw_scores``, that aligns a whole batch of token-string pairs in one sweep
over the anti-diagonals of their tables, keeping two diagonals per pair and
sweeping only the pairs whose tables have not yet ended. ``scanmatch_pairs``
and ``sed_pairs`` score many scanpath pairs with one call to it.
``multimatch_pairs`` aligns many MultiMatch pairs in one anti-diagonal
sweep of their padded min-cost tables and one traceback. Each batch
reads and validates its distinct scanpaths once and bins their fixations
in one ``grid_cells`` call; ``value_pairs`` shares that read among all three
metrics. ``scanmatch``, ``multimatch``, ``string_edit_distance``,
``nw_score`` and ``align_minimum_cost`` are batches of one. All functions
are pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .scanpath import Scanpath, cell_centers, grid_cells, read_fixations


# the most bins a ScanMatch or string-edit grid may have. Each metric
# builds a dense (bins x bins) substitution matrix, and ScanMatch's
# pairwise center differences take twice that: at 4096 bins (64 x 64) the
# matrix is 128 MiB.
MAX_GRID_BINS = 4096

# fits any real screen; substitution_matrix squares center differences
ASPECT_RANGE = (1e-6, 1e6)


@dataclass
class MetricConfig:
    """Binning and alignment parameters.

    The substitution score for ScanMatch is ``1 - 2 d / d_max`` where ``d``
    is the Euclidean distance between bin centers on the aspect-scaled
    screen and ``d_max`` the distance between opposite corner bin centers,
    so scores span [-1, 1]. ``sm_tbin = 0`` disables duration expansion.
    """

    sm_grid: tuple[int, int] = (8, 6)
    sm_tbin: float = 50.0
    sm_gap: float = 0.0
    sed_grid: tuple[int, int] = (5, 5)
    aspect: tuple[float, float] = (4.0, 3.0)

    def __post_init__(self):
        if self.sm_grid[0] < 1 or self.sm_grid[1] < 1 or self.sed_grid[0] < 1 or self.sed_grid[1] < 1:
            raise ValueError(f"metric grids must be at least 1x1, got {self.sm_grid} and {self.sed_grid}")
        for name in ("sm_grid", "sed_grid"):
            gx, gy = getattr(self, name)
            if gx * gy > MAX_GRID_BINS:
                raise ValueError(f"{name} {gx}x{gy} has {gx * gy} bins, more than {MAX_GRID_BINS}")
        if self.sm_tbin < 0:
            raise ValueError(f"sm_tbin must be >= 0, got {self.sm_tbin}")
        if self.sm_gap > 0:
            raise ValueError(f"sm_gap must be <= 0, a penalty, got {self.sm_gap}")
        lo, hi = ASPECT_RANGE
        if not all(lo <= a <= hi for a in self.aspect):
            raise ValueError(f"aspect entries must lie in [{lo:g}, {hi:g}], got {self.aspect}")


# the longest duration-expanded token string ScanMatch aligns: 500 s of
# fixation at the default 50 ms bins. The sweep's cost grows with the
# product of two lengths, so a longer string is refused before it is built.
MAX_SCANPATH_TOKENS = 10_000


@dataclass
class _ReadPairs:
    """The distinct scanpaths of a batch of pairs in first-seen order, with
    their ``read_fixations`` rows and sizes; ``first[p]`` and ``second[p]``
    index pair p's two scanpaths."""

    paths: list
    sizes: np.ndarray
    rows: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _read_pairs(pairs) -> _ReadPairs:
    """Read and validate each distinct scanpath of ``pairs`` once, with
    ``read_fixations``'s errors for the first faulty scanpath in pair order."""
    slot: dict[int, int] = {}
    paths, first, second = [], [], []
    for a, b in pairs:
        for sp in (a, b):
            if id(sp) not in slot:
                slot[id(sp)] = len(paths)
                paths.append(sp)
        first.append(slot[id(a)])
        second.append(slot[id(b)])
    rows, sizes = read_fixations(paths)
    return _ReadPairs(paths, sizes, rows, np.array(first, dtype=np.intp),
                      np.array(second, dtype=np.intp))


def _tokens(read: _ReadPairs, grid: tuple[int, int], tbin: float) -> list[np.ndarray]:
    """Each distinct scanpath's token string; see ``quantize``."""
    if not read.paths:
        return []
    gx, gy = grid
    x, y, dur = read.rows.T
    # column-major ids col * gy + row: the row-major ids of the transposed grid
    tokens = grid_cells(y, x, gx, gy)
    reps = np.maximum(dur / tbin, 1.0) if tbin > 0 else np.ones_like(dur)
    # a fixation past the cap is refused below, so its count is clipped to
    # stay an integer
    counts = np.ceil(np.minimum(reps, MAX_SCANPATH_TOKENS + 1)).astype(np.intp)
    starts = np.cumsum(read.sizes) - read.sizes  # each scanpath's first fixation
    prior = np.cumsum(counts) - counts  # tokens before each fixation
    before = prior - np.repeat(prior[starts], read.sizes)  # ... in its scanpath
    over = np.flatnonzero(before + reps > MAX_SCANPATH_TOKENS)
    if over.size:
        k = int(np.searchsorted(starts, over[0], side="right")) - 1
        i = int(over[0] - starts[k])
        sp = read.paths[k]
        raise ValueError(
            f"fixation {i} of image {sp.image_id} observer {sp.observer_id}: "
            f"duration {sp.fixations[i].dur_ms} ms at sm_tbin {tbin} expands the scanpath "
            f"past {MAX_SCANPATH_TOKENS} tokens")
    return np.split(np.repeat(tokens, counts), prior[starts[1:]])


def quantize(sp: Scanpath, grid: tuple[int, int], tbin: float = 0.0) -> list[int]:
    """Token string of fixations binned onto a Gx x Gy grid, column-major ids.

    Cells follow ``grid_cells`` with Gy rows and Gx columns; the token id is
    ``col * Gy + row``. With ``tbin > 0`` each fixation token is repeated
    ``ceil(dur / tbin)`` times, so longer fixations occupy more of the
    string; a string longer than ``MAX_SCANPATH_TOKENS`` raises ValueError.
    """
    return _tokens(_read_pairs([(sp, sp)]), grid, tbin)[0].tolist()


def substitution_matrix(grid: tuple[int, int], aspect: tuple[float, float]) -> np.ndarray:
    """Pairwise substitution scores, 1 on the diagonal, -1 at opposite corners."""
    # the column-major bins are the row-major cells of the transposed grid
    # on the transposed screen, whose (y, x) centers swap back to (x, y)
    centers = cell_centers(*grid, aspect[::-1])[:, ::-1]
    diff = centers[:, None, :] - centers[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    d_max = d[0, -1] if d.shape[0] > 1 else 1.0
    if d_max == 0.0:
        return np.ones_like(d)
    return 1.0 - 2.0 * d / d_max


def nw_scores(a_list, b_list, sub: np.ndarray, gap: float) -> np.ndarray:
    """Needleman-Wunsch best global alignment scores of many pairs at once.

    Sweeps the anti-diagonals of every pair's (len(a)+1) x (len(b)+1)
    table together. Entry ``i`` of diagonal ``d`` holds cell ``(i, d - i)``,
    and only the last two diagonals are kept. The pairs are swept longest
    table first: a pair's score is read off diagonal ``len(a) + len(b)``,
    after which it drops out, so each diagonal runs on the live rows
    ``[:live]`` only. The strings are padded to the longest; a padded cell
    never feeds a cell inside its own pair's table. Each cell repeats the
    row-by-row recurrence's float operations and tie rule, so the scores
    are bit-identical to it for any gap. Scores come back in input order.
    """
    n_pairs = len(a_list)
    if n_pairs != len(b_list):
        raise ValueError(f"{n_pairs} first strings against {len(b_list)} second")
    out = np.empty(n_pairs)
    if n_pairs == 0:
        return out
    ends = np.array([len(a) + len(b) for a, b in zip(a_list, b_list)],
                    dtype=np.intp)
    order = np.argsort(-ends, kind="stable")
    ends = ends[order]
    a_list = [a_list[p] for p in order.tolist()]
    b_list = [b_list[p] for p in order.tolist()]
    len_a = np.array([len(a) for a in a_list], dtype=np.intp)
    n, m = int(len_a.max()), max(len(b) for b in b_list)
    A = np.zeros((n_pairs, n), dtype=np.intp)
    # B reversed and right-aligned, so the tokens b[j - 1] along a
    # diagonal, read in order of increasing i, are one contiguous slice
    B_rev = np.zeros((n_pairs, m), dtype=np.intp)
    for p, (a, b) in enumerate(zip(a_list, b_list)):
        A[p, :len(a)] = a
        B_rev[p, m - len(b):] = b[::-1]
    rows, k = sub.shape
    if ((A < 0) | (A >= rows)).any() or ((B_rev < 0) | (B_rev >= k)).any():
        raise ValueError(f"token outside the {rows}x{k} substitution matrix")
    A *= k  # row offsets into the flattened matrix
    flat = sub.ravel()
    # live[d]: the pairs whose table reaches diagonal d, a prefix of the rows
    live = np.searchsorted(-ends, -np.arange(ends[0] + 2), side="right").tolist()
    scores = np.empty(n_pairs)
    prev2 = np.empty((n_pairs, n + 1))
    prev1 = np.empty((n_pairs, n + 1))
    cur = np.empty((n_pairs, n + 1))
    for d in range(int(ends[0]) + 1):
        n_live = live[d]
        if d <= m:
            cur[:n_live, 0] = d * gap
        if d <= n:
            cur[:n_live, d] = d * gap
        lo, hi = max(1, d - m), min(n, d - 1)
        if lo <= hi:
            diag = flat[A[:n_live, lo - 1:hi] + B_rev[:n_live, m - d + lo:m - d + hi + 1]]
            np.add(prev2[:n_live, lo - 1:hi], diag, out=diag)
            gapped = prev1[:n_live, lo - 1:hi + 1] + gap  # up, then left
            # np.maximum(x, y) is y unless x > y: diag wins a tie with up,
            # and the best of those a tie with left, as in the recurrence
            np.maximum(gapped[:, :-1], diag, out=diag)
            np.maximum(gapped[:, 1:], diag, out=cur[:n_live, lo:hi + 1])
        done = live[d + 1]
        if done < n_live:
            scores[done:n_live] = cur[np.arange(done, n_live), len_a[done:n_live]]
        prev2, prev1, cur = prev1, cur, prev2
    out[order] = scores
    return out


def nw_score(a: list[int], b: list[int], sub: np.ndarray, gap: float) -> float:
    """Needleman-Wunsch best global alignment score of one pair."""
    return float(nw_scores([a], [b], sub, gap)[0])


def _scanmatch(read: _ReadPairs, cfg: MetricConfig) -> np.ndarray:
    tokens = _tokens(read, cfg.sm_grid, cfg.sm_tbin)
    lengths = np.array([len(t) for t in tokens], dtype=float)
    sub = substitution_matrix(cfg.sm_grid, cfg.aspect)
    scores = nw_scores([tokens[k] for k in read.first.tolist()],
                       [tokens[k] for k in read.second.tolist()], sub, cfg.sm_gap)
    longer = np.maximum(lengths[read.first], lengths[read.second])
    return np.clip(scores / longer, 0.0, 1.0)


def scanmatch_pairs(pairs, cfg: MetricConfig | None = None) -> np.ndarray:
    """ScanMatch similarity of each ``(a, b)`` scanpath pair, in [0, 1].

    Each distinct scanpath is validated and binned once, the substitution
    matrix is built once and all alignments run in one ``nw_scores`` call.
    """
    return _scanmatch(_read_pairs(pairs), cfg or MetricConfig())


def scanmatch(a: Scanpath, b: Scanpath, cfg: MetricConfig | None = None) -> float:
    """ScanMatch similarity in [0, 1].

    Aligns duration-expanded token strings and normalizes the alignment
    score by the longer expanded length; with maximum substitution score 1
    this makes the self-similarity exactly 1.
    """
    return float(scanmatch_pairs([(a, b)], cfg)[0])


def edit_distances(a_list, b_list, n_tokens: int) -> np.ndarray:
    """Unit-cost edit distance of each token-string pair, tokens below
    ``n_tokens``: the negated Needleman-Wunsch score with substitution
    score -1 off the diagonal and gap score -1."""
    sub = -(1.0 - np.eye(n_tokens))
    return (-nw_scores(a_list, b_list, sub, -1.0)).astype(int)


def _sed(read: _ReadPairs, cfg: MetricConfig) -> np.ndarray:
    tokens = _tokens(read, cfg.sed_grid, 0.0)
    return edit_distances([tokens[k] for k in read.first.tolist()],
                          [tokens[k] for k in read.second.tolist()],
                          cfg.sed_grid[0] * cfg.sed_grid[1])


def sed_pairs(pairs, cfg: MetricConfig | None = None) -> np.ndarray:
    """String-edit distance of each ``(a, b)`` scanpath pair, in one
    ``nw_scores`` call."""
    return _sed(_read_pairs(pairs), cfg or MetricConfig())


def string_edit_distance(a: Scanpath, b: Scanpath, cfg: MetricConfig | None = None) -> int:
    """Levenshtein distance between coarse token strings (one token per fixation)."""
    return int(sed_pairs([(a, b)], cfg)[0])


# ---------------------------------------------------------------------------
# MultiMatch


@dataclass
class MultiMatchResult:
    """Per-dimension similarities; dimensions without support are None."""

    shape: float | None
    length: float | None
    direction: float | None
    position: float | None
    duration: float | None
    mean: float = field(init=False)

    def __post_init__(self):
        dims = [v for v in (self.shape, self.length, self.direction, self.position, self.duration) if v is not None]
        self.mean = float(np.mean(dims))

    def as_dict(self) -> dict:
        return asdict(self)


def _screen_scale(aspect: tuple[float, float]) -> np.ndarray:
    aw, ah = aspect
    diag = np.hypot(aw, ah)
    return np.array([aw, ah]) * (np.sqrt(2.0) / diag)


def _min_cost_tables(cost: np.ndarray) -> np.ndarray:
    """Minimal summed cost from (0, 0) to every cell, for each of P padded
    (N, M) cost matrices at once.

    Row 0 and column 0 are running sums; each other cell is the least of
    its upper, left and upper-left neighbours plus its own cost, filled one
    anti-diagonal at a time. In the flattened (N*M) layout anti-diagonal
    ``d`` is the strided slice ``d + i*(M-1)`` and its neighbours are the
    same slice shifted by M, 1 and M+1. A padded cell never feeds a cell of
    its own pair's table.
    """
    cost = np.ascontiguousarray(cost, dtype=float)
    n_pairs, n, m = cost.shape
    total = np.empty_like(cost)
    total[:, 0, :] = np.cumsum(cost[:, 0, :], axis=1)
    total[:, :, 0] = np.cumsum(cost[:, :, 0], axis=1)
    if min(n, m) == 1:
        return total
    flat, c = total.reshape(n_pairs, n * m), cost.reshape(n_pairs, n * m)
    step = m - 1
    for d in range(2, n + m - 1):
        lo, hi = max(1, d - step), min(n - 1, d - 1)
        start, stop = d + lo * step, d + hi * step + 1
        best = np.minimum(flat[:, start - m:stop - m:step],
                          flat[:, start - 1:stop - 1:step])
        np.minimum(best, flat[:, start - m - 1:stop - m - 1:step], out=best)
        np.add(best, c[:, start:stop:step], out=flat[:, start:stop:step])
    return total


def _align_batch(cost: np.ndarray, n: np.ndarray, m: np.ndarray):
    """Minimal-cost monotone paths through P padded cost matrices.

    Pair ``p``'s matrix is ``cost[p, :n[p], :m[p]]``. Returns the pair,
    row and column of every path cell, pair by pair and each path from
    (0, 0) to its far corner, and the number of cells of each path. The
    traceback steps back from the far corner to the least of the diagonal,
    upper and left neighbours, preferring them in that order on a tie.
    """
    n_pairs, rows, cols = cost.shape
    total = _min_cost_tables(cost).ravel()
    base = np.arange(n_pairs) * (rows * cols)
    i, j = n - 1, m - 1
    steps_i, steps_j = [i], [j]
    length = np.ones(n_pairs, dtype=np.intp)
    moving = (i > 0) | (j > 0)
    while moving.any():
        length += moving
        at = base + i * cols + j
        diag = np.where((i > 0) & (j > 0), total[at - cols - 1], np.inf)
        up = np.where(i > 0, total[at - cols], np.inf)
        left = np.where(j > 0, total[at - 1], np.inf)
        take_diag = moving & (diag <= up) & (diag <= left)
        take_up = moving & ~take_diag & (up <= left)
        i = i - (take_diag | take_up)
        j = j - (moving & ~take_up)
        steps_i.append(i)
        steps_j.append(j)
        moving = (i > 0) | (j > 0)
    # each pair's column runs from its far corner to (0, 0) and then stays
    # there; reversed, its path is the last `length` entries
    steps_i, steps_j = np.array(steps_i[::-1]).T, np.array(steps_j[::-1]).T
    keep = np.arange(steps_i.shape[1]) >= (steps_i.shape[1] - length)[:, None]
    pair = np.repeat(np.arange(n_pairs), length)
    return pair, steps_i[keep], steps_j[keep], length


def align_minimum_cost(cost: np.ndarray) -> list[tuple[int, int]]:
    """Monotone alignment through a cost matrix with minimal summed cost.

    Moves are right, down, and diagonal; the path runs from (0,0) to the
    opposite corner and every visited cell is an aligned pair. A batch of
    one of the alignment ``multimatch_pairs`` runs.
    """
    n, m = cost.shape
    _, i, j, _ = _align_batch(cost[None], np.array([n]), np.array([m]))
    return list(zip(i.tolist(), j.tolist()))


def multimatch_pairs(pairs, cfg: MetricConfig | None = None) -> list[MultiMatchResult]:
    """MultiMatch of each ``(a, b)`` scanpath pair, all pairs aligned in one
    batch; see ``multimatch`` for the dimensions.

    Each distinct scanpath is validated and read once. The pairs' cost
    matrices are padded into one (P, N, M) array, aligned by
    ``_align_batch``, and every dimension is computed once over all pairs'
    concatenated paths. Each pair's means are ``np.mean`` over its own
    slice of them, so every value is bit-identical to scoring the pairs one
    by one.
    """
    return _multimatch(_read_pairs(pairs), cfg or MetricConfig())


def _multimatch(read: _ReadPairs, cfg: MetricConfig) -> list[MultiMatchResult]:
    if not read.first.size:
        return []
    # Alignment tie-breaking is orientation-dependent; every dimension is
    # symmetric in the pair, so computing in a canonical order makes
    # multimatch(a, b) == multimatch(b, a) exact.
    keys = [_canonical_key(sp) for sp in read.paths]
    swap = np.array([keys[b] < keys[a] for a, b in
                     zip(read.first.tolist(), read.second.tolist())], dtype=bool)
    first = np.where(swap, read.second, read.first)
    second = np.where(swap, read.first, read.second)

    # every distinct scanpath's (x, y, dur_ms) rows, padded to the longest
    sizes = read.sizes
    padded = np.zeros((len(sizes), int(sizes.max()), 3))
    padded[np.repeat(np.arange(len(sizes)), sizes),
           np.arange(len(read.rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = read.rows
    xy = padded[:, :, :2] * _screen_scale(cfg.aspect)
    dur = padded[:, :, 2]
    moves = np.zeros_like(xy)
    moves[:, :-1] = np.diff(xy, axis=1)

    # aligned items: saccade vectors, or the fixations themselves when
    # either scanpath has a single fixation
    saccades = (sizes[first] > 1) & (sizes[second] > 1)
    pa, pb = xy[first], xy[second]
    u = np.where(saccades[:, None, None], moves[first], pa)
    v = np.where(saccades[:, None, None], moves[second], pb)
    cost = np.sqrt(((u[:, :, None, :] - v[:, None, :, :]) ** 2).sum(axis=3))
    p, i, j, length = _align_batch(cost, sizes[first] - saccades, sizes[second] - saccades)

    # the float operations of scoring one aligned index at a time, so every
    # value is bit-identical to that loop (loop_multimatch in the tests)
    da, db = dur[first[p], i], dur[second[p], j]
    duration = 1.0 - np.abs(da - db) / np.maximum(da, db)
    shape = 1.0 - cost[p, i, j] / (2.0 * np.sqrt(2.0))
    amp_a, amp_b = np.hypot(u[p, i, 0], u[p, i, 1]), np.hypot(v[p, j, 0], v[p, j, 1])
    length_sim = 1.0 - np.abs(amp_a - amp_b) / np.sqrt(2.0)
    # absolute angle difference in [0, pi]; a zero-length saccade has angle 0
    turn = np.abs(np.arctan2(u[p, i, 1], u[p, i, 0]) - np.arctan2(v[p, j, 1], v[p, j, 0]))
    direction = 1.0 - np.minimum(turn, 2.0 * np.pi - turn) / np.pi
    position = 1.0 - np.hypot(pa[p, i, 0] - pb[p, j, 0], pa[p, i, 1] - pb[p, j, 1]) / np.sqrt(2.0)
    fixation_position = 1.0 - cost[p, i, j] / np.sqrt(2.0)

    dims = np.stack([shape, length_sim, direction, position, duration])
    fixation_dims = np.stack([fixation_position, duration])
    results = []
    ends = np.cumsum(length).tolist()
    for k, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
        if saccades[k]:
            results.append(MultiMatchResult(*np.mean(dims[:, lo:hi], axis=1).tolist()))
        else:
            results.append(MultiMatchResult(
                None, None, None, *np.mean(fixation_dims[:, lo:hi], axis=1).tolist()))
    return results


def multimatch(a: Scanpath, b: Scanpath, cfg: MetricConfig | None = None) -> MultiMatchResult:
    """Five-dimensional scanpath similarity on the sqrt(2)-diagonal screen.

    Saccade vectors are aligned by minimizing summed vector-difference
    norms. Shape is 1 - |v_a - v_b| / (2 sqrt 2), length 1 - |amp_a - amp_b|
    / sqrt 2, direction 1 - dtheta / pi, position 1 - |fix_a - fix_b| /
    sqrt 2 and duration 1 - |dur_a - dur_b| / max(dur) at the aligned
    indices, all averaged over the alignment. When either scanpath has a
    single fixation there are no saccades; fixations are aligned directly
    and only position and duration are reported. A batch of one of
    ``multimatch_pairs``.
    """
    return multimatch_pairs([(a, b)], cfg)[0]


def value_pairs(pairs, cfg: MetricConfig | None = None) -> tuple:
    """ScanMatch, MultiMatch and string-edit distance of each ``(a, b)``
    pair, as ``scanmatch_pairs``, ``multimatch_pairs`` and ``sed_pairs``
    return them, with each distinct scanpath validated and read once for
    all three."""
    cfg = cfg or MetricConfig()
    read = _read_pairs(pairs)
    sms, seds = _scanmatch(read, cfg), _sed(read, cfg)
    return sms, _multimatch(read, cfg), seds


def _canonical_key(sp: Scanpath):
    return (len(sp), tuple((f.x, f.y, f.dur_ms) for f in sp.fixations))

