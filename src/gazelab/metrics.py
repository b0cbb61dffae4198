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
over the anti-diagonals of their tables, keeping two diagonals per pair.
``scanmatch_pairs`` and ``sed_pairs`` score many scanpath pairs with one
call to it; ``scanmatch``, ``string_edit_distance`` and ``nw_score`` are
batches of one. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scanpath import Scanpath, grid_cell


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
        if self.sm_tbin < 0:
            raise ValueError(f"sm_tbin must be >= 0, got {self.sm_tbin}")
        if self.sm_gap > 0:
            raise ValueError(f"sm_gap must be <= 0, a penalty, got {self.sm_gap}")
        if min(self.aspect) <= 0:
            raise ValueError(f"aspect entries must be > 0, got {self.aspect}")


def _require_nonempty(*scanpaths: Scanpath) -> None:
    for sp in scanpaths:
        if len(sp) == 0:
            raise ValueError(
                f"empty scanpath (image {sp.image_id}, observer {sp.observer_id})"
            )


def quantize(sp: Scanpath, grid: tuple[int, int], tbin: float = 0.0) -> list[int]:
    """Token string of fixations binned onto a Gx x Gy grid, column-major ids.

    Cells follow ``grid_cell`` with Gy rows and Gx columns; the token id is
    ``col * Gy + row``. With ``tbin > 0`` each fixation token is repeated
    ``ceil(dur / tbin)`` times, so longer fixations occupy more of the
    string.
    """
    _require_nonempty(sp)
    sp.validate()
    gx, gy = grid
    tokens: list[int] = []
    for f in sp.fixations:
        row, col = divmod(grid_cell(f.x, f.y, gy, gx), gx)
        token = col * gy + row
        reps = int(np.ceil(f.dur_ms / tbin)) if tbin > 0 else 1
        tokens.extend([token] * max(reps, 1))
    return tokens


def _bin_centers(grid: tuple[int, int], aspect: tuple[float, float]) -> np.ndarray:
    gx, gy = grid
    aw, ah = aspect
    cols, rows = np.divmod(np.arange(gx * gy), gy)
    cx = (cols + 0.5) * aw / gx
    cy = (rows + 0.5) * ah / gy
    return np.stack([cx, cy], axis=1)


def substitution_matrix(grid: tuple[int, int], aspect: tuple[float, float]) -> np.ndarray:
    """Pairwise substitution scores, 1 on the diagonal, -1 at opposite corners."""
    centers = _bin_centers(grid, aspect)
    diff = centers[:, None, :] - centers[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    d_max = d[0, -1] if d.shape[0] > 1 else 1.0
    if d_max == 0.0:
        return np.ones_like(d)
    return 1.0 - 2.0 * d / d_max


def nw_scores(a_list, b_list, sub: np.ndarray, gap: float) -> np.ndarray:
    """Needleman-Wunsch best global alignment scores of many pairs at once.

    Sweeps the anti-diagonals of every pair's (len(a)+1) x (len(b)+1)
    table together. The strings are padded to the longest; a padded cell
    never feeds a cell inside its own pair's table, and pair ``p``'s score
    is read off diagonal ``len(a) + len(b)``. Entry ``i`` of diagonal ``d``
    holds cell ``(i, d - i)``, and only the last two diagonals are kept.
    Each cell repeats the row-by-row recurrence's float operations in the
    same order, so the scores are bit-identical to it for any gap.
    """
    n_pairs = len(a_list)
    if n_pairs != len(b_list):
        raise ValueError(f"{n_pairs} first strings against {len(b_list)} second")
    out = np.empty(n_pairs)
    if n_pairs == 0:
        return out
    len_a = np.array([len(a) for a in a_list], dtype=np.intp)
    len_b = np.array([len(b) for b in b_list], dtype=np.intp)
    n, m = int(len_a.max()), int(len_b.max())
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
    ends = len_a + len_b
    prev2 = np.empty((n_pairs, n + 1))
    prev1 = np.empty((n_pairs, n + 1))
    cur = np.empty((n_pairs, n + 1))
    for d in range(n + m + 1):
        if d <= m:
            cur[:, 0] = d * gap
        if d <= n:
            cur[:, d] = d * gap
        lo, hi = max(1, d - m), min(n, d - 1)
        if lo <= hi:
            s = flat[A[:, lo - 1:hi] + B_rev[:, m - d + lo:m - d + hi + 1]]
            diag = prev2[:, lo - 1:hi] + s
            up = prev1[:, lo - 1:hi] + gap
            left = prev1[:, lo:hi + 1] + gap
            best = np.where(diag >= up, diag, up)
            cur[:, lo:hi + 1] = np.where(left > best, left, best)
        done = np.flatnonzero(ends == d)
        out[done] = cur[done, len_a[done]]
        prev2, prev1, cur = prev1, cur, prev2
    return out


def nw_score(a: list[int], b: list[int], sub: np.ndarray, gap: float) -> float:
    """Needleman-Wunsch best global alignment score of one pair."""
    return float(nw_scores([a], [b], sub, gap)[0])


def _token_strings(pairs, grid: tuple[int, int], tbin: float):
    """Token strings of each pair's scanpaths, each distinct one quantized once."""
    tokens: dict[int, list[int]] = {}
    for pair in pairs:
        for sp in pair:
            if id(sp) not in tokens:
                tokens[id(sp)] = quantize(sp, grid, tbin)
    return [tokens[id(a)] for a, _ in pairs], [tokens[id(b)] for _, b in pairs]


def scanmatch_pairs(pairs, cfg: MetricConfig | None = None) -> np.ndarray:
    """ScanMatch similarity of each ``(a, b)`` scanpath pair, in [0, 1].

    The substitution matrix is built once and all alignments run in one
    ``nw_scores`` call.
    """
    cfg = cfg or MetricConfig()
    ta, tb = _token_strings(list(pairs), cfg.sm_grid, cfg.sm_tbin)
    sub = substitution_matrix(cfg.sm_grid, cfg.aspect)
    scores = nw_scores(ta, tb, sub, cfg.sm_gap)
    longer = np.array([max(len(x), len(y)) for x, y in zip(ta, tb)], dtype=float)
    return np.clip(scores / longer, 0.0, 1.0)


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


def sed_pairs(pairs, cfg: MetricConfig | None = None) -> np.ndarray:
    """String-edit distance of each ``(a, b)`` scanpath pair, in one
    ``nw_scores`` call."""
    cfg = cfg or MetricConfig()
    ta, tb = _token_strings(list(pairs), cfg.sed_grid, 0.0)
    return edit_distances(ta, tb, cfg.sed_grid[0] * cfg.sed_grid[1])


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
        return {
            "shape": self.shape,
            "length": self.length,
            "direction": self.direction,
            "position": self.position,
            "duration": self.duration,
            "mean": self.mean,
        }


def _screen_scale(aspect: tuple[float, float]) -> np.ndarray:
    aw, ah = aspect
    diag = np.hypot(aw, ah)
    return np.array([aw, ah]) * (np.sqrt(2.0) / diag)


def align_minimum_cost(cost: np.ndarray) -> list[tuple[int, int]]:
    """Monotone alignment through a cost matrix with minimal summed cost.

    Moves are right, down, and diagonal; the path runs from (0,0) to the
    opposite corner and every visited cell is an aligned pair. The table is
    filled on Python floats, which take the same ``min`` and ``+`` as NumPy
    scalars at a fraction of the cost per cell.
    """
    n, m = cost.shape
    c = cost.tolist()
    total = [[0.0] * m for _ in range(n)]
    row = total[0]
    row[0] = c[0][0]
    for j in range(1, m):
        row[j] = row[j - 1] + c[0][j]
    for i in range(1, n):
        prev, row, ci = total[i - 1], total[i], c[i]
        row[0] = prev[0] + ci[0]
        for j in range(1, m):
            row[j] = min(prev[j], row[j - 1], prev[j - 1]) + ci[j]
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
    path.reverse()
    return path


def multimatch(a: Scanpath, b: Scanpath, cfg: MetricConfig | None = None) -> MultiMatchResult:
    """Five-dimensional scanpath similarity on the sqrt(2)-diagonal screen.

    Saccade vectors are aligned by minimizing summed vector-difference
    norms. Shape is 1 - |v_a - v_b| / (2 sqrt 2), length 1 - |amp_a - amp_b|
    / sqrt 2, direction 1 - dtheta / pi, position 1 - |fix_a - fix_b| /
    sqrt 2 and duration 1 - |dur_a - dur_b| / max(dur) at the aligned
    indices, all averaged over the alignment. When either scanpath has a
    single fixation there are no saccades; fixations are aligned directly
    and only position and duration are reported.
    """
    cfg = cfg or MetricConfig()
    _require_nonempty(a, b)
    a.validate()
    b.validate()
    # Alignment tie-breaking is orientation-dependent; every dimension is
    # symmetric in the pair, so computing in a canonical order makes
    # multimatch(a, b) == multimatch(b, a) exact.
    if _canonical_key(b) < _canonical_key(a):
        a, b = b, a
    scale = _screen_scale(cfg.aspect)
    pa, pb = a.xy() * scale, b.xy() * scale
    da, db = a.durations(), b.durations()

    saccades = len(a) > 1 and len(b) > 1
    u, v = (np.diff(pa, axis=0), np.diff(pb, axis=0)) if saccades else (pa, pb)
    cost = np.sqrt(((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
    i, j = np.array(align_minimum_cost(cost)).T
    duration = 1.0 - np.abs(da[i] - db[j]) / np.maximum(da[i], db[j])
    if not saccades:
        position = 1.0 - cost[i, j] / np.sqrt(2.0)
        return MultiMatchResult(None, None, None, float(np.mean(position)),
                                float(np.mean(duration)))

    # the float operations of scoring one aligned index at a time, so every
    # value is bit-identical to that loop (loop_multimatch in the tests)
    shape = 1.0 - cost[i, j] / (2.0 * np.sqrt(2.0))
    amp_a, amp_b = np.hypot(u[i, 0], u[i, 1]), np.hypot(v[j, 0], v[j, 1])
    length = 1.0 - np.abs(amp_a - amp_b) / np.sqrt(2.0)
    # absolute angle difference in [0, pi]; a zero-length saccade has angle 0
    turn = np.abs(np.arctan2(u[i, 1], u[i, 0]) - np.arctan2(v[j, 1], v[j, 0]))
    direction = 1.0 - np.minimum(turn, 2.0 * np.pi - turn) / np.pi
    position = 1.0 - np.hypot(pa[i, 0] - pb[j, 0], pa[i, 1] - pb[j, 1]) / np.sqrt(2.0)
    return MultiMatchResult(*(float(np.mean(dim)) for dim in
                              (shape, length, direction, position, duration)))


def _canonical_key(sp: Scanpath):
    return (len(sp), tuple((f.x, f.y, f.dur_ms) for f in sp.fixations))

