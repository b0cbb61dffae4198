"""Supervised training: losses, same-image batches, and baseline protocols.

The objective is teacher-forced negative log-likelihood: cross-entropy of
each step's spatial map at the ground-truth cell, plus a weighted Gaussian
NLL of the log duration. Batches group scanpaths of distinct observers on
the same image so every update sees individual differences on a shared
stimulus. A batch holds scanpaths of one length, recorded as one pass of
the model's step core with one ``softmax_nll`` and one ``gaussian_nll``
over all B * T rows, and updated by one flat Adam step.

Baselines built here: the observer-agnostic model (all pathways off), the
per-observer fine-tuned copies of that model, and the one-hot conditioned
decoder, alongside the incremental ablation table. ``train`` is the one
optimization loop; fine-tuning runs it on each observer's own scanpaths.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from .evaluate import RECALL_KS, VALUE_METRICS
from .model import (
    ABLATION_VARIANTS,
    ModelConfig,
    ScanpathModel,
    ablation_config,
)
from .optim import Adam
from .scanpath import Scanpath, grid_cells, read_fixations
from .tensor import Tape, Tensor, gaussian_nll, softmax_nll

# Adam moves an entry by at most about lr per update, so a default run (15
# epochs of 168 batches at lr 1e-4) carries a parameter at most ~0.25 from
# where it starts. The observer codes W_u start near zero and must reach the
# unit scale their readout projections are sized for, and the inhibition
# strength b_ior starts at zero and must travel further than that (it ends
# near 1.7 on the default corpus); ten times the step lets both get there
# within one run.
FAST_PARAMS = ("W_u", "b_ior")
FAST_LR_SCALE = 10.0

# the duration NLL's weight against the position loss, and Adam's decay
DURATION_LOSS_WEIGHT = 0.1
WEIGHT_DECAY = 5e-5

# the scores of one ablation row, in report order
ABLATION_METRICS = VALUE_METRICS + ("mrr", *(f"r_at_{k}" for k in RECALL_KS))


@dataclass
class TrainConfig:
    """Optimization settings; fine-tuning fields are for the FT baseline."""

    epochs: int = 15
    lr: float = 1e-4
    batch_size: int = 2
    seed: int = 1
    ft_lr: float = 1e-5
    ft_epochs: int = 2

    def __post_init__(self):
        if self.epochs < 0 or self.ft_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("lr", "ft_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def position_loss(logits: Tensor, cells: np.ndarray) -> Tensor:
    """Mean over rows r of -log softmax(logits_r)[cells[r]].

    ``logits`` is (T * B, HW), the rows of a teacher-forced pass, and
    ``cells`` the ground-truth cell of each row; the loss is one fused
    ``softmax_nll`` node, which checks the shapes.
    """
    return softmax_nll(logits, cells)


def duration_loss(mu: Tensor, var: Tensor, log_durations: np.ndarray) -> Tensor:
    """Mean Gaussian NLL of log durations under per-row (mu, var).

    ``mu`` and ``var`` hold one entry per row of a teacher-forced pass and
    ``log_durations`` the ground truth's; the loss is one fused
    ``gaussian_nll`` node, which checks the shapes.
    """
    return gaussian_nll(mu, var, log_durations)


def batch_loss(model: ScanpathModel, E: np.ndarray, items):
    """Mean teacher-forced loss over the items [(observer_id, gt), ...] of
    one image; returns (total, position, duration).

    The items are read once (``read_fixations``, one ``grid_cells`` call)
    and recorded as one pass of the step core, so a batch adds no tape
    nodes per item. Every scanpath of a batch must have the same length;
    items of different lengths raise ValueError naming the lengths.
    """
    rows, sizes = read_fixations([gt for _, gt in items])
    steps = int(sizes[0])
    if (sizes != steps).any():
        raise ValueError("a batch holds scanpaths of one length, got "
                         f"lengths {sorted(set(sizes.tolist()))}")
    cfg = model.config
    # step-major: row t * B + b is step t of scanpath b
    cells = grid_cells(rows[:, 0], rows[:, 1], cfg.height,
                       cfg.width).reshape(-1, steps).T
    log_durations = np.log(rows[:, 2].reshape(-1, steps).T.ravel())
    logits, mu, var = model.teacher_forced_batch(
        E, [obs for obs, _ in items], cells)
    pos = position_loss(logits, cells.ravel())
    dur = duration_loss(mu, var, log_durations)
    return pos + dur * DURATION_LOSS_WEIGHT, pos, dur


def rollout_loss(model: ScanpathModel, E: np.ndarray, observer_id: int,
                 gt: Scanpath):
    """``batch_loss`` of one scanpath; returns (total, position, duration)."""
    return batch_loss(model, E, [(observer_id, gt)])


def _epoch_batches(corpus, split: str, batch_size: int, rng):
    """Batches of (image_id, [(observer_id, scanpath), ...]).

    Each batch holds scanpaths of distinct observers on one image; batch
    order and within-image grouping are reshuffled per call.
    """
    by_image: dict[int, list] = {}
    for sp in corpus.scanpaths[split]:
        by_image.setdefault(sp.image_id, []).append(sp)
    batches = []
    for image_id in sorted(by_image):
        group = sorted(by_image[image_id], key=lambda sp: sp.observer_id)
        order = rng.permutation(len(group))
        for start in range(0, len(group), batch_size):
            chunk = [group[i] for i in order[start:start + batch_size]]
            items = [(sp.observer_id, sp) for sp in chunk]
            if len({obs for obs, _ in items}) != len(items):
                raise ValueError(
                    f"duplicate observer in batch for image {image_id}")
            batches.append((image_id, items))
    rng.shuffle(batches)
    return batches


def train(model: ScanpathModel, corpus, config: TrainConfig):
    """Optimize in place; returns (model, per-epoch loss history).

    Each batch is one ``batch_loss`` recording, one backward pass and one
    Adam step; Adam moves the parameters into one flat buffer, so after
    training each ``p.data`` is a view of it. History rows are (epoch,
    position_loss, duration_loss, total), each averaged over the epoch's
    batches. Deterministic given the corpus and config seeds. A batch whose
    loss is not finite, as when a run diverges, raises ValueError; each
    step runs with NumPy's floating-point warnings off.
    """
    opt = Adam(model.params, lr=config.lr, weight_decay=WEIGHT_DECAY,
               lr_scale=dict.fromkeys(FAST_PARAMS, FAST_LR_SCALE))
    history = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 11, epoch])
        batches = _epoch_batches(corpus, "train", config.batch_size, rng)
        sums = np.zeros(3)
        for index, (image_id, items) in enumerate(batches):
            scene = corpus.scene_by_id(image_id)
            # a diverging run ends on the check below, not on NumPy warnings
            with np.errstate(all="ignore"):
                with Tape() as tape:
                    total, pos, dur = batch_loss(model, scene.E, items)
                if not np.isfinite(total.data):
                    observers = [obs for obs, _ in items]
                    raise ValueError(
                        f"non-finite loss at epoch {epoch} batch {index} "
                        f"(image {image_id}, observers {observers})")
                opt.step(tape.gradients(total))
            sums += (float(pos.data), float(dur.data), float(total.data))
        means = sums / max(1, len(batches))
        history.append((epoch, means[0], means[1], means[2]))
    return model, history


def fine_tune_per_observer(base: ScanpathModel, corpus, config: TrainConfig):
    """One copy of the base model adapted to each observer's training data.

    The base is meant to be an observer-agnostic model; each copy is
    trained by ``train`` on its observer's scanpaths alone, one scanpath a
    batch, for ft_epochs at ft_lr.
    """
    train_set = corpus.scanpaths["train"]
    ft_config = replace(config, lr=config.ft_lr, epochs=config.ft_epochs,
                        batch_size=1)
    tuned = {}
    for observer_id in sorted(p.id for p in corpus.profiles):
        own = [sp for sp in train_set if sp.observer_id == observer_id]
        if not own:
            raise ValueError(
                f"observer {observer_id} has no training scanpaths")
        params = {name: Tensor(p.data.copy(), trainable=True)
                  for name, p in base.params.items()}
        copy = ScanpathModel(base.config, params=params)
        train(copy, replace(corpus, scanpaths={"train": own}), ft_config)
        tuned[observer_id] = copy
    return tuned


def train_variant(variant: str, corpus, model_config: ModelConfig,
                  train_config: TrainConfig):
    """Initialize one ablation row's model from ``train_config.seed`` and
    train it."""
    config = ablation_config(model_config, variant)
    model = ScanpathModel(config, seed=train_config.seed)
    train(model, corpus, train_config)
    return model


def run_ablation_suite(corpus, train_config: TrainConfig,
                       model_config: ModelConfig | None = None,
                       metric_config=None):
    """Train all six variants under one seed and score them on the test split.

    Returns (rows, models): one row per variant with mean value metrics and
    ranking aggregates, plus the trained models keyed by variant name.
    Variants that share a config ("none" and "OE") share one trained model
    and its scores.
    """
    # perfbench probes evaluate.* where callers look the functions up
    from .evaluate import predict_split, rank_eval, value_eval

    if model_config is None:
        model_config = ModelConfig()
    rows = []
    models = {}
    done = {}  # config -> (model, scores)
    gt = corpus.scanpaths["test"]
    for variant in ABLATION_VARIANTS:
        key = astuple(ablation_config(model_config, variant))
        if key not in done:
            model = train_variant(variant, corpus, model_config, train_config)
            preds = predict_split(model, corpus, "test",
                                  seed=train_config.seed)
            value = value_eval(preds, gt, metric_config)
            ranking = rank_eval(preds, gt, metric_config)
            measured = {**value.means, "mrr": ranking.mrr, **{
                f"r_at_{k}": r for k, r in ranking.recall_at.items()}}
            done[key] = model, {name: measured[name]
                                for name in ABLATION_METRICS}
        models[variant], scores = done[key]
        rows.append({"variant": variant, **scores})
    return rows, models
