"""Value and ranking evaluation, plus the saliency-map pipeline.

Two regimes compare predictions with ground truth:

* value: each prediction scored against the matching observer's scanpath
  (ScanMatch, MultiMatch mean, string-edit distance), with means and
  standard errors over pairs.
* ranking: each prediction ranked against every observer's ground truth on
  its image by ScanMatch; the matching observer's rank yields MRR and R@K.

The saliency path pools fixations per image into Gaussian-smoothed density
maps, each summing to one, and scores them with CC, AUC, NSS, sAUC, KLD,
and SIM.

Prediction makes one free-running rollout per image for all of its
observers (``ScanpathModel.sample_scanpaths``).

Each evaluation call is one batched array sweep per metric: ScanMatch and
string-edit distance score every pair of the call in one Needleman-Wunsch
sweep each, MultiMatch aligns every pair in one batch, and each distinct
scanpath is validated and binned once for all three
(``metrics.value_pairs``); ``rank_eval`` ranks all rows at once by
counting. There is no thread pool; ``value_eval`` and ``rank_eval`` accept
a ``threads`` keyword and ignore it, because the benchmark passes it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

# perfbench probes scanmatch, multimatch and string_edit_distance here
from .metrics import (  # noqa: F401
    MetricConfig,
    multimatch,
    scanmatch,
    scanmatch_pairs,
    string_edit_distance,
    value_pairs,
)
from .scanpath import grid_cells

log = logging.getLogger(__name__)

VALUE_METRICS = ("sm", "mm", "sed")
# the scores of one saliency map
SALIENCY_METRICS = ("cc", "auc", "nss", "sauc", "kld", "sim")


def _index_by_pair(preds) -> dict:
    out = {}
    for sp in preds:
        key = (sp.image_id, sp.observer_id)
        if key in out:
            raise ValueError(f"duplicate prediction for image {sp.image_id}, "
                             f"observer {sp.observer_id}")
        out[key] = sp
    return out


def predict_split(model, corpus, split: str, n_steps: int | None = None,
                  mode: str = "argmax", seed: int = 0):
    """One predicted scanpath per (image, observer) of the split.

    Each image's observers share one free-running rollout. Each observer
    draws from its own stream ``[seed, 21, image_id, observer_id]``, so a
    prediction does not depend on which other observers are predicted.
    """
    observers = sorted({sp.observer_id for sp in corpus.scanpaths[split]})
    if n_steps is None:
        n_steps = corpus.config.scanpath_len
    preds = []
    for image_id in corpus.split_ids[split]:
        seeds = [[int(seed), 21, int(image_id), int(observer_id)]
                 for observer_id in observers]
        preds += model.sample_scanpaths(
            corpus.scene_by_id(image_id).E, observers, seeds,
            n_steps=n_steps, mode=mode, image_id=image_id)
    return preds


@dataclass
class ValueResult:
    pairs: dict
    means: dict
    stderr: dict


def _value_rows(pairs, config: MetricConfig) -> list:
    """SM, MultiMatch mean and SED of each (prediction, ground truth) pair."""
    sms, mms, seds = value_pairs(pairs, config)
    return [{"sm": float(sm), "mm": mm.mean, "sed": float(sed)}
            for sm, mm, sed in zip(sms, mms, seds)]


def value_eval(preds, gt, config: MetricConfig | None = None,
               threads: int = 1) -> ValueResult:
    """Score each prediction against its own observer's ground truth; two
    predictions for one (image, observer) raise ``ValueError``.
    ``threads`` is ignored."""
    config = config or MetricConfig()
    by_pair = _index_by_pair(preds)
    ordered = sorted(gt, key=lambda sp: (sp.image_id, sp.observer_id))
    for sp in ordered:
        if (sp.image_id, sp.observer_id) not in by_pair:
            raise ValueError(
                f"missing prediction for image {sp.image_id}, "
                f"observer {sp.observer_id}")

    scored = _value_rows(
        [(by_pair[(sp.image_id, sp.observer_id)], sp) for sp in ordered],
        config)
    pairs = {(sp.image_id, sp.observer_id): row
             for sp, row in zip(ordered, scored)}
    means, stderr = {}, {}
    for name in VALUE_METRICS:
        values = np.array([row[name] for row in scored], dtype=float)
        means[name] = float(values.mean()) if values.size else float("nan")
        stderr[name] = (float(values.std(ddof=1) / np.sqrt(values.size))
                        if values.size > 1 else 0.0)
    return ValueResult(pairs=pairs, means=means, stderr=stderr)


def expected_random_mrr(n_observers: int) -> float:
    """Exact MRR when the correct rank is uniform on 1..n."""
    if n_observers < 1:
        raise ValueError("need at least one observer")
    return float(sum(1.0 / r for r in range(1, n_observers + 1))
                 / n_observers)


@dataclass
class RankingResult:
    ranks: dict
    mrr: float
    recall_at: dict


def rank_eval(preds, gt, config: MetricConfig | None = None,
              ks=(1, 5), threads: int = 1) -> RankingResult:
    """Rank every observer's ground truth against each prediction.

    Ground truths on the prediction's image are ordered by ScanMatch to
    the prediction, descending, ties broken by observer id ascending; the
    matching observer's position is the rank, counted for all rows at once
    as 1 + #(higher score) + #(equal score, lower observer id). Images
    lacking ground truth from every observer are excluded and logged. Two
    predictions for one (image, observer) raise ``ValueError``.
    ``threads`` is ignored.
    """
    config = config or MetricConfig()
    observers = sorted({sp.observer_id for sp in gt})
    gt_by_image: dict[int, dict] = {}
    for sp in gt:
        gt_by_image.setdefault(sp.image_id, {})[sp.observer_id] = sp
    usable = {}
    for image_id, per_obs in sorted(gt_by_image.items()):
        if set(per_obs) != set(observers):
            log.warning("rank_eval: image %s lacks ground truth from all "
                        "observers; excluded", image_id)
            continue
        usable[image_id] = per_obs
    pred_rows = [sp for key, sp in sorted(_index_by_pair(preds).items())
                 if key[0] in usable]
    column = {obs: k for k, obs in enumerate(observers)}
    for pred in pred_rows:
        if pred.observer_id not in column:
            raise ValueError(
                f"prediction observer {pred.observer_id} has no ground truth "
                f"on image {pred.image_id}")
    own = np.array([column[pred.observer_id] for pred in pred_rows],
                   dtype=np.intp)

    scores = scanmatch_pairs(
        [(pred, usable[pred.image_id][obs])
         for pred in pred_rows for obs in observers],
        config).reshape(len(pred_rows), len(observers))
    own_score = scores[np.arange(len(pred_rows)), own][:, None]
    # observers are sorted, so a lower column is a lower observer id
    ahead = (scores > own_score) | ((scores == own_score) &
                                    (np.arange(len(observers)) < own[:, None]))
    ranks_list = (1 + ahead.sum(axis=1)).tolist()
    ranks = {(sp.image_id, sp.observer_id): rank
             for sp, rank in zip(pred_rows, ranks_list)}
    values = np.array(ranks_list, dtype=float)
    mrr = float(np.mean(1.0 / values)) if values.size else float("nan")
    recall = {int(k): (float(np.mean(values <= k) * 100.0)
                       if values.size else float("nan"))
              for k in ks}
    return RankingResult(ranks=ranks, mrr=mrr, recall_at=recall)


def human_consistency(gt, config: MetricConfig | None = None) -> dict:
    """Leave-one-observer-out inter-observer agreement, grand means.

    For each (image, observer), the mean metric between that observer's
    scanpath and every other observer's on the same image. Images with a
    single observer are skipped with a warning.
    """
    config = config or MetricConfig()
    by_image: dict[int, list] = {}
    for sp in gt:
        by_image.setdefault(sp.image_id, []).append(sp)
    jobs, pairs = [], []
    for image_id, group in sorted(by_image.items()):
        if len(group) < 2:
            log.warning("human_consistency: image %s has a single "
                        "observer; skipped", image_id)
            continue
        group = sorted(group, key=lambda sp: sp.observer_id)
        for sp in group:
            others = [o for o in group if o.observer_id != sp.observer_id]
            jobs.append(slice(len(pairs), len(pairs) + len(others)))
            pairs.extend((sp, other) for other in others)
    rows = _value_rows(pairs, config)
    scored = [{name: float(np.mean([row[name] for row in rows[job]]))
               for name in VALUE_METRICS} for job in jobs]
    return {name: (float(np.mean([row[name] for row in scored]))
                   if scored else float("nan"))
            for name in VALUE_METRICS}


# ---------------------------------------------------------------------------
# saliency

@dataclass
class SaliencyMap:
    """A density map: nonnegative, summing to one."""

    grid: np.ndarray


def _cells(fixations, height: int, width: int) -> np.ndarray:
    """Each fixation's row-major cell (``scanpath.grid_cells``)."""
    xy = np.array([(f.x, f.y) for f in fixations], dtype=np.float64)
    return grid_cells(xy[:, 0], xy[:, 1], height, width)


# the most cells a saliency map may have: 2**24 float64 cells are 128 MiB,
# and a map is binned, smoothed twice and normalized in arrays of its size
MAX_SALIENCY_CELLS = 1 << 24


def build_saliency(fixations, sigma: float | None = None,
                   resolution=(64, 64)) -> SaliencyMap:
    """Gaussian-smoothed fixation density at the given (height, width).

    Fixations are binned to cells, convolved with a separable Gaussian
    truncated at three sigma and normalized to sum 1. Sigma defaults to
    width / 16 cells.
    """
    fixations = list(fixations)
    if not fixations:
        raise ValueError("cannot build a saliency map from zero fixations")
    height, width = int(resolution[0]), int(resolution[1])
    if height < 1 or width < 1:
        raise ValueError(f"resolution must be at least 1x1, got {height}x{width}")
    if height * width > MAX_SALIENCY_CELLS:
        raise ValueError(f"resolution {height}x{width} has more than "
                         f"{MAX_SALIENCY_CELLS} cells")
    if sigma is None:
        sigma = width / 16.0
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    counts = np.bincount(_cells(fixations, height, width),
                         minlength=height * width).astype(np.float64)
    counts = counts.reshape(height, width)
    radius = int(np.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    # np.convolve "same" returns max(M, N) values; slice the full product
    # instead so kernels wider than the grid still yield the grid size.
    def centered(signal):
        return np.convolve(signal, kernel, mode="full")[
            radius:radius + signal.shape[0]]

    smooth = np.apply_along_axis(centered, 1, counts)
    smooth = np.apply_along_axis(centered, 0, smooth)
    return SaliencyMap(grid=smooth / smooth.sum())


@dataclass
class SaliencyScores:
    cc: float
    auc: float
    nss: float
    sauc: float
    kld: float
    sim: float
    degenerate: bool = False


KLD_EPS = 1e-7


def _auc_from_values(pos: np.ndarray, neg: np.ndarray) -> float:
    """ROC area with thresholds at the positive values.

    Step integration of the ROC staircase, which reduces to the rank-sum
    statistic: the fraction of (positive, negative) pairs the positive
    wins, ties credited half.
    """
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left")
    at_or_below = np.searchsorted(neg_sorted, pos, side="right")
    wins = below + 0.5 * (at_or_below - below)
    return float(wins.sum() / (pos.size * neg.size))


def saliency_metrics(pred: SaliencyMap, gt_fixations, gt_map: SaliencyMap,
                     other_fixations=()) -> SaliencyScores:
    """Standard saliency scores of a predicted map.

    CC is Pearson between the two grids. AUC treats every fixated cell as
    positive and every other cell as negative, thresholding at fixated
    values. NSS is the mean z-scored prediction at fixation cells. sAUC
    replaces the negatives with fixation cells from other images. KLD and
    SIM compare density maps with a 1e-7 floor. A constant prediction has
    no z-score or correlation; those scores degenerate to 0 with a flag.
    """
    gt_fixations = list(gt_fixations)
    if pred.grid.shape != gt_map.grid.shape:
        raise ValueError(
            f"resolution mismatch: {pred.grid.shape} vs {gt_map.grid.shape}")
    if not gt_fixations:
        raise ValueError("gt_fixations must be nonempty")
    height, width = pred.grid.shape
    p = pred.grid.astype(float)
    g = gt_map.grid.astype(float)
    degenerate = False

    p_std = p.std()
    g_std = g.std()
    if p_std == 0.0 or g_std == 0.0:
        degenerate = True
        cc = 0.0
    else:
        cc = float(np.corrcoef(p.ravel(), g.ravel())[0, 1])

    cells = _cells(gt_fixations, height, width)
    fix_mask = np.zeros((height, width), dtype=bool)
    fix_mask.flat[cells] = True
    auc = _auc_from_values(p[fix_mask], p[~fix_mask])

    if p_std == 0.0:
        degenerate = True
        nss = 0.0
    else:
        z = (p - p.mean()) / p_std
        nss = float(np.mean(z.flat[cells]))

    other = list(other_fixations)
    if other:
        neg_vals = p.flat[_cells(other, height, width)]
        sauc = _auc_from_values(p[fix_mask], neg_vals)
    else:
        sauc = float("nan")

    kld = float(np.sum(g * np.log((g + KLD_EPS) / (p + KLD_EPS))))
    sim = float(np.sum(np.minimum(p, g)))
    return SaliencyScores(cc=cc, auc=auc, nss=nss, sauc=sauc, kld=kld,
                          sim=sim, degenerate=degenerate)


def saliency_report(preds, gt, resolution=(64, 64), sigma: float | None = None,
                    seed: int = 0, n_shuffle: int = 10) -> dict:
    """Per-image pooled saliency scores and their means.

    Fixations are pooled over observers per image on both sides. For each
    image, sAUC negatives come from the ground-truth fixations of up to
    ``n_shuffle`` other images chosen by the seed. ``maps`` holds the
    predicted map of every predicted image, scored or not.
    """
    pred_by_image: dict[int, list] = {}
    for sp in preds:
        pred_by_image.setdefault(sp.image_id, []).extend(sp.fixations)
    gt_by_image: dict[int, list] = {}
    for sp in gt:
        gt_by_image.setdefault(sp.image_id, []).extend(sp.fixations)
    maps = {image_id: build_saliency(fixations, sigma=sigma,
                                     resolution=resolution)
            for image_id, fixations in sorted(pred_by_image.items())}
    images = sorted(set(pred_by_image) & set(gt_by_image))
    rows = {}
    rng = np.random.default_rng([int(seed), 31])
    for image_id in images:
        others = [i for i in images if i != image_id]
        chosen = (rng.choice(len(others), size=min(n_shuffle, len(others)),
                             replace=False) if others else [])
        shuffle_fix = []
        for idx in chosen:
            shuffle_fix.extend(gt_by_image[others[int(idx)]])
        gt_map = build_saliency(gt_by_image[image_id], sigma=sigma,
                                resolution=resolution)
        rows[image_id] = saliency_metrics(maps[image_id], gt_by_image[image_id],
                                          gt_map, shuffle_fix)
    means = {}
    for name in SALIENCY_METRICS:
        values = [getattr(rows[i], name) for i in images]
        finite = [v for v in values if np.isfinite(v)]
        means[name] = float(np.mean(finite)) if finite else float("nan")
    return {"per_image": rows, "means": means, "maps": maps,
            "degenerate": any(rows[i].degenerate for i in images)}
