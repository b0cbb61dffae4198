"""Semantic-level gaze statistics and observer-feature analysis.

Fixations are grouped into social, nonsocial, and background regions to
give per-observer proportion, latency, and duration profiles. Rankings of
observers by those profiles are compared with a permutation-tested
Spearman correlation, trait groups with a Welch t statistic under label
permutation, and learned observer projections feed a leave-one-out
perceptron that tries to recover group membership from gaze alone.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .optim import Adam
from .scanpath import grid_cells, read_fixations
from .synthetic import CATEGORIES
from .tensor import Tape, Tensor, matmul, softplus, tanh, tsum

log = logging.getLogger(__name__)

COMPARE_TOL = 1e-12
# the LOOCV perceptron's hidden width and Adam step size
LOOCV_HIDDEN = 16
LOOCV_LR = 0.001


@dataclass
class CategoryStats:
    """One observer's behavior inside one region category.

    ``latency_ms`` is the mean time before the first fixation lands in the
    category, averaged over scanpaths that reach it; ``None`` when the
    observer never fixates the category (likewise for the mean duration).
    """

    proportion: float
    latency_ms: float | None
    mean_duration_ms: float | None


@dataclass
class RoiStats:
    per_observer: dict[int, dict[str, CategoryStats]]

    def proportions(self, category: str) -> dict[int, float]:
        """Map observer id to fixation proportion in one category."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        return {obs: stats[category].proportion
                for obs, stats in self.per_observer.items()}


def roi_stats(scanpaths, scenes) -> RoiStats:
    """Per-observer fixation statistics over region categories.

    Proportions are fixation counts per category over the observer's total;
    they sum to one. Latency to a category is the sum of durations of the
    fixations preceding the first one inside it, zero when the scanpath
    starts there. Every scanpath is read once (``read_fixations``), and
    the fixations on scenes of one mask shape are binned by one
    ``grid_cells`` call; each mean runs over its values in scanpath order.
    """
    scene_by_id = {scene.id: scene for scene in scenes}
    for sp in scanpaths:
        if sp.image_id not in scene_by_id:
            raise ValueError(f"unknown image id {sp.image_id}")
    rows, sizes = read_fixations(scanpaths)
    owner = np.repeat(np.arange(len(scanpaths)), sizes)
    image = np.array([sp.image_id for sp in scanpaths], dtype=np.intp)[owner]
    observer = np.array([sp.observer_id for sp in scanpaths],
                        dtype=np.intp)[owner]
    dur = rows[:, 2]

    codes = np.empty(len(rows), dtype=np.intp)
    by_shape: dict[tuple, list] = {}
    for image_id in np.unique(image).tolist():
        shape = scene_by_id[image_id].roi_mask.shape
        by_shape.setdefault(shape, []).append(image_id)
    for (height, width), ids in by_shape.items():
        at = np.isin(image, ids)
        masks = np.stack([scene_by_id[i].roi_mask.ravel() for i in ids])
        codes[at] = masks[np.searchsorted(ids, image[at]),
                          grid_cells(rows[at, 0], rows[at, 1], height, width)]

    # time before each fixation, summed in order along its own scanpath
    elapsed = np.zeros_like(dur)
    starts = np.cumsum(sizes) - sizes
    for steps in np.unique(sizes).tolist():
        at = starts[sizes == steps][:, None] + np.arange(steps)
        elapsed[at[:, 1:]] = np.cumsum(dur[at], axis=1)[:, :-1]

    per_observer = {}
    for obs in np.unique(observer).tolist():
        mine = observer == obs
        total = int(np.count_nonzero(mine))
        stats = {}
        for code, cat in enumerate(CATEGORIES):
            hit = np.flatnonzero(mine & (codes == code))
            durs = dur[hit]
            # the first hit of each scanpath; owner ascends with the index
            _, first = np.unique(owner[hit], return_index=True)
            lats = elapsed[hit[first]]
            stats[cat] = CategoryStats(
                proportion=len(hit) / total,
                latency_ms=float(np.mean(lats)) if lats.size else None,
                mean_duration_ms=float(np.mean(durs)) if durs.size else None,
            )
        per_observer[obs] = stats
    return RoiStats(per_observer=per_observer)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank run."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and \
                values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _shuffles(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` rows, each a shuffle of ``range(n)``: the same rows, drawn
    from the same stream, as ``count`` successive ``rng.permutation(n)``."""
    return rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)


def _exceeds(values: np.ndarray, observed: float, alternative: str) -> np.ndarray:
    """Which null values reach the observed one, within ``COMPARE_TOL``."""
    if alternative == "greater":
        return values >= observed - COMPARE_TOL
    if alternative == "less":
        return values <= observed + COMPARE_TOL
    return np.abs(values) >= abs(observed) - COMPARE_TOL


@dataclass
class CorrelationResult:
    rho: float
    p_value: float
    degenerate: bool
    method: str
    n_permutations: int


def spearman_rho(x, y, alternative: str = "greater",
                 n_permutations: int = 10000,
                 seed: int = 0) -> CorrelationResult:
    """Spearman rank correlation with a permutation p-value.

    Ties get mean ranks; the coefficient is Pearson on the rank vectors.
    The null distribution permutes one side. All permutations are
    enumerated when there are at most ``n_permutations`` of them, which
    makes the p-value exact; otherwise it is sampled with the add-one
    correction. A constant input has no ranking to correlate, so the
    result degenerates to zero with ``p = 1``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-D vectors")
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least 3 paired values")
    if alternative not in ("greater", "less", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return CorrelationResult(rho=0.0, p_value=1.0, degenerate=True,
                                 method="degenerate", n_permutations=0)
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    # Mean ranks are multiples of one half and average (n + 1) / 2, so the
    # centred ranks, their products and every sum of them are exact: each
    # permutation's coefficient is the same whatever the summation order.
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    scale = np.sqrt((dx @ dx) * (dy @ dy))
    rho = float(dx @ dy / scale)
    if math.factorial(n) <= n_permutations:
        perms = np.array(list(itertools.permutations(range(n))))
        method = "exact"
    else:
        perms = _shuffles(n, n_permutations, np.random.default_rng([seed, 37]))
        method = "sampled"
    hits = int(np.count_nonzero(_exceeds(dy[perms] @ dx / scale, rho,
                                         alternative)))
    total = perms.shape[0]
    p_value = hits / total if method == "exact" else (hits + 1) / (total + 1)
    return CorrelationResult(rho=rho, p_value=p_value, degenerate=False,
                             method=method, n_permutations=total)


def _welch_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Welch's t of each row pair ``a[i]``, ``b[i]``, in ``welch_t``'s float
    operations: zero for identical constants, infinite with the sign of the
    mean difference for other zero denominators."""
    diff = a.mean(axis=-1) - b.mean(axis=-1)
    denom = np.sqrt(a.var(axis=-1, ddof=1) / a.shape[-1]
                    + b.var(axis=-1, ddof=1) / b.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / denom
    return np.where(denom != 0.0, t, np.where(diff == 0.0, 0.0, np.copysign(np.inf, diff)))


def welch_t(a: np.ndarray, b: np.ndarray) -> float:
    """Welch's unequal-variance t statistic; zero for identical constants."""
    return float(_welch_rows(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


@dataclass
class GroupCompareResult:
    t: float
    p_value: float
    method: str
    n_permutations: int


def group_compare(values_a, values_b, n_permutations: int = 10000,
                  seed: int = 0) -> GroupCompareResult:
    """Two-sided permutation test of a group difference via Welch's t.

    Group labels are reshuffled over the pooled values; the p-value is the
    share of relabelings whose |t| reaches the observed one. Every split is
    enumerated when there are at most ``n_permutations`` of them (exact),
    otherwise splits are sampled with the add-one correction.
    """
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("each group needs at least 2 values")
    t_obs = welch_t(a, b)
    pooled = np.concatenate([a, b])
    n = pooled.shape[0]
    k = a.shape[0]
    total = math.comb(n, k)
    if total <= n_permutations:
        picked = np.zeros((total, n), dtype=bool)
        picked[np.arange(total)[:, None],
               list(itertools.combinations(range(n), k))] = True
        # each row: its picked indices, then the rest, each ascending
        orders = np.argsort(~picked, axis=1, kind="stable")
        method = "exact"
    else:
        orders = _shuffles(n, n_permutations, np.random.default_rng([seed, 41]))
        method = "sampled"
    t_null = _welch_rows(pooled[orders[:, :k]], pooled[orders[:, k:]])
    hits = int(np.count_nonzero(_exceeds(t_null, t_obs, "two-sided")))
    count = orders.shape[0]
    p_value = hits / count if method == "exact" else (hits + 1) / (count + 1)
    return GroupCompareResult(t=t_obs, p_value=p_value, method=method,
                              n_permutations=count)


@dataclass
class ObserverFeature:
    """Concatenated observer projections from the four guidance pathways."""

    observer_id: int
    v: np.ndarray


def extract_observer_features(model, observers=None) -> list[ObserverFeature]:
    """Per-observer vector [W_mu u, W_us u, W_uc u, W_um u] of the
    projections the model holds: FI holds the first three, FP the last.
    Without them no pathway reads the code and every observer looks alike.
    """
    weights = [model.params[name].data for name in
               ("W_mu", "W_us", "W_uc", "W_um") if name in model.params]
    if not weights:
        raise ValueError(
            "observer features require a pathway that reads the observer "
            "code (embedding mode with FI or FP)")
    if observers is None:
        observers = range(model.config.n_observers)
    observers = [int(obs) for obs in observers]
    codes = model.encode_observers(observers).data
    return [ObserverFeature(observer_id=obs,
                            v=np.concatenate([W @ u for W in weights]))
            for obs, u in zip(observers, codes)]


@dataclass
class LoocvResult:
    accuracy: float
    predictions: list
    probabilities: list
    classes: tuple


def classify_group_loocv(features, labels, epochs: int = 200,
                         seed: int = 0) -> LoocvResult:
    """Leave-one-out group classification with a small perceptron.

    Each fold z-scores with training-fold statistics, trains a network of
    ``LOOCV_HIDDEN`` tanh units and a logistic output with Adam, and
    predicts the held out observer. Accuracy is the percent of folds
    predicted correctly.

    Holding one observer out leaves the training labels imbalanced, so the
    loss reweights classes by inverse frequency; together with the small
    learning rate ``LOOCV_LR`` this keeps label-shuffled controls at chance
    instead of the below-chance drift an interpolating fit produces.

    All n folds train as one model: their rows, labels, class weights and
    weights stack along a leading fold axis, each epoch records one tape of
    batched ``matmul`` products, and one Adam step moves every fold. The
    loss is the sum of the folds' losses and Adam is elementwise, so each
    fold steps as it would alone.
    """
    rows = [f.v if isinstance(f, ObserverFeature) else np.asarray(f, float)
            for f in features]
    X = np.stack(rows).astype(float)
    n, dim = X.shape
    if n < 4:
        raise ValueError("need at least 4 observers for leave-one-out")
    if len(labels) != n:
        raise ValueError("labels must match the number of feature rows")
    classes = tuple(sorted(set(labels)))
    if len(classes) != 2:
        raise ValueError(f"need exactly 2 classes, got {classes}")
    y = np.array([classes.index(lab) for lab in labels], dtype=float)

    # fold s trains on every row but row s
    train = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    mu = X[train].mean(axis=1, keepdims=True)
    sd = X[train].std(axis=1, keepdims=True)
    sd = np.where(sd == 0.0, 1.0, sd)
    y_train = y[train]
    n_pos = y_train.sum(axis=1, keepdims=True)
    n_neg = (n - 1) - n_pos
    with np.errstate(divide="ignore"):
        weights = np.where(y_train == 1.0, (n - 1) / (2.0 * n_pos),
                           (n - 1) / (2.0 * n_neg))
    weights = np.where((n_pos > 0) & (n_neg > 0), weights, 1.0)
    hidden = LOOCV_HIDDEN
    W1, W2 = [], []
    for fold in range(n):
        rng = np.random.default_rng([seed, 43, fold])
        W1.append(rng.normal(0.0, 1.0 / np.sqrt(dim), (hidden, dim)).T)
        W2.append(rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, 1)))
    params = {
        "W1": Tensor(np.stack(W1), trainable=True),
        "b1": Tensor(np.zeros((n, 1, hidden)), trainable=True),
        "W2": Tensor(np.stack(W2), trainable=True),
        "b2": Tensor(np.zeros((n, 1, 1)), trainable=True),
    }

    def forward(rows) -> Tensor:
        """Each fold's logits of its own (n, k, dim) rows."""
        H = tanh(matmul(rows, params["W1"]) + params["b1"])
        return matmul(H, params["W2"]) + params["b2"]

    opt = Adam(params, lr=LOOCV_LR, weight_decay=0.0)
    Xt = Tensor((X[train] - mu) / sd)
    Yt = Tensor(y_train[:, :, None])
    Wt = Tensor(weights[:, :, None])
    for _ in range(epochs):
        with Tape() as tape:
            Z = forward(Xt)
            # stable bernoulli NLL: softplus(z) - y z = -log p(y | z)
            loss = tsum(Wt * (softplus(Z) - Yt * Z)) / float(n - 1)
        opt.step(tape.gradients(loss))
    z = forward((X[:, None, :] - mu) / sd).data
    # the logistic function in the tanh form the engine's gates use
    probabilities = (0.5 * (1.0 + np.tanh(0.5 * z))).ravel().tolist()
    predictions = [classes[int(prob >= 0.5)] for prob in probabilities]
    truth = [classes[int(v)] for v in y]
    accuracy = 100.0 * float(np.mean([p == t for p, t in
                                      zip(predictions, truth)]))
    return LoocvResult(accuracy=accuracy, predictions=predictions,
                       probabilities=probabilities, classes=classes)


def semantic_report(predictions, ground_truth, scenes, groups=None,
                    seed: int = 0) -> dict:
    """Correlation and group tables comparing predicted and true gaze.

    Builds region statistics for both sides, correlates the per-observer
    proportions per category, and, when a group label map is given, tests
    the group gap in each category for ground truth and predictions.
    """
    gt_stats = roi_stats(ground_truth, scenes)
    pred_stats = roi_stats(predictions, scenes)
    observers = sorted(gt_stats.per_observer)
    report: dict = {
        "observers": observers,
        "ground_truth": {obs: {cat: asdict(s[cat]) for cat in CATEGORIES}
                         for obs, s in gt_stats.per_observer.items()},
        "predicted": {obs: {cat: asdict(s[cat]) for cat in CATEGORIES}
                      for obs, s in pred_stats.per_observer.items()},
        "correlations": {},
    }
    for cat in CATEGORIES:
        gt_props = gt_stats.proportions(cat)
        pred_props = pred_stats.proportions(cat)
        shared = [obs for obs in observers if obs in pred_props]
        result = spearman_rho([gt_props[o] for o in shared],
                              [pred_props[o] for o in shared], seed=seed)
        report["correlations"][cat] = {
            "rho": result.rho, "p_value": result.p_value,
            "degenerate": result.degenerate, "method": result.method}
    if groups is not None:
        names = sorted(set(groups.values()))
        if len(names) != 2:
            raise ValueError(f"need exactly 2 groups, got {names}")
        report["group_comparison"] = {}
        for side, stats in (("ground_truth", gt_stats),
                            ("predicted", pred_stats)):
            tables = {}
            for cat in CATEGORIES:
                props = stats.proportions(cat)
                a = [props[o] for o in sorted(props) if groups[o] == names[0]]
                b = [props[o] for o in sorted(props) if groups[o] == names[1]]
                result = group_compare(a, b, seed=seed)
                tables[cat] = {"t": result.t, "p_value": result.p_value,
                               "method": result.method}
            report["group_comparison"][side] = tables
    return report
