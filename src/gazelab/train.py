"""Supervised training: losses, same-image batches, and baseline protocols.

The objective is teacher-forced negative log-likelihood: cross-entropy of
each step's spatial map at the ground-truth cell, plus a weighted Gaussian
NLL of the log duration. Batches group scanpaths of distinct observers on
the same image so every update sees individual differences on a shared
stimulus.

Baselines built here: the observer-agnostic model (all pathways off), the
per-observer fine-tuned copies of that model, and the one-hot conditioned
decoder, alongside the incremental ablation table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ABLATION_VARIANTS,
    ModelConfig,
    ScanpathModel,
    ablation_config,
)
from .optim import Adam
from .scanpath import Scanpath, grid_cell
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


@dataclass
class TrainConfig:
    """Optimization settings; fine-tuning fields are for the FT baseline."""

    epochs: int = 15
    lr: float = 1e-4
    weight_decay: float = 5e-5
    batch_size: int = 2
    seed: int = 1
    ft_lr: float = 1e-5
    ft_epochs: int = 2
    duration_loss_weight: float = 0.1

    def __post_init__(self):
        if self.epochs < 0 or self.ft_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("lr", "weight_decay", "ft_lr", "duration_loss_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.lr == 0 or self.ft_lr == 0:
            raise ValueError("learning rates must be positive")


def position_loss(logits: Tensor, gt: Scanpath, height: int,
                  width: int) -> Tensor:
    """Mean over steps of -log softmax(logits_t)[ground-truth cell].

    ``logits`` is (T, HW), one row per ground-truth fixation; the loss is
    one fused ``softmax_nll`` node.
    """
    if logits.shape[0] != len(gt):
        raise ValueError(
            f"got {logits.shape[0]} step maps for {len(gt)} ground-truth "
            "fixations")
    gt.validate()
    return softmax_nll(logits, [grid_cell(f.x, f.y, height, width)
                                for f in gt.fixations])


def duration_loss(mu: Tensor, var: Tensor, gt: Scanpath) -> Tensor:
    """Mean Gaussian NLL of log durations under per-step (mu, var).

    ``mu`` and ``var`` hold one entry per ground-truth fixation; the loss
    is one fused ``gaussian_nll`` node.
    """
    if mu.shape != (len(gt),) or var.shape != (len(gt),):
        raise ValueError(
            f"got duration parameters of shapes {mu.shape} and {var.shape} "
            f"for {len(gt)} ground-truth fixations")
    gt.validate()
    return gaussian_nll(mu, var, np.log(gt.durations()))


def rollout_loss(model: ScanpathModel, E: np.ndarray, observer_id: int,
                 gt: Scanpath, duration_weight: float = 0.1):
    """Teacher-forced total loss; returns (total, position, duration)."""
    logits, mu, var = model.teacher_forced(E, observer_id, gt)
    pos = position_loss(logits, gt, model.config.height, model.config.width)
    dur = duration_loss(mu, var, gt)
    return pos + dur * duration_weight, pos, dur


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

    History rows are (epoch, position_loss, duration_loss, total), each
    averaged over the epoch's batches. Deterministic given the corpus and
    config seeds.
    """
    opt = Adam(model.params, lr=config.lr, weight_decay=config.weight_decay,
               lr_scale=dict.fromkeys(FAST_PARAMS, FAST_LR_SCALE))
    history = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 11, epoch])
        batches = _epoch_batches(corpus, "train", config.batch_size, rng)
        sums = np.zeros(3)
        for index, (image_id, items) in enumerate(batches):
            scene = corpus.scene_by_id(image_id)
            with Tape() as tape:
                total = pos = dur = None
                for observer_id, gt in items:
                    t, p, d = rollout_loss(model, scene.E, observer_id, gt,
                                           config.duration_loss_weight)
                    total = t if total is None else total + t
                    pos = p if pos is None else pos + p
                    dur = d if dur is None else dur + d
                scale = 1.0 / len(items)
                total = total * scale
            if not np.isfinite(total.data):
                observers = [obs for obs, _ in items]
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} batch {index} "
                    f"(image {image_id}, observers {observers})")
            grads = tape.gradients(total)
            opt.step(grads)
            sums += (float(pos.data) * scale, float(dur.data) * scale,
                     float(total.data))
        means = sums / max(1, len(batches))
        history.append((epoch, means[0], means[1], means[2]))
    return model, history


def fine_tune_per_observer(base: ScanpathModel, corpus, config: TrainConfig):
    """One copy of the base model adapted to each observer's training data.

    The base is meant to be an observer-agnostic model; each copy trains
    only on its observer's scanpaths for ft_epochs at ft_lr.
    """
    train_set = corpus.scanpaths["train"]
    observers = sorted(p.id for p in corpus.profiles)
    tuned = {}
    for observer_id in observers:
        own = [sp for sp in train_set if sp.observer_id == observer_id]
        if not own:
            raise ValueError(
                f"observer {observer_id} has no training scanpaths")
        params = {name: Tensor(p.data.copy(), trainable=True)
                  for name, p in base.params.items()}
        copy = ScanpathModel(base.config, params=params)
        opt = Adam(copy.params, lr=config.ft_lr,
                   weight_decay=config.weight_decay)
        for epoch in range(config.ft_epochs):
            rng = np.random.default_rng(
                [config.seed, 13, observer_id, epoch])
            order = rng.permutation(len(own))
            for index in order:
                gt = own[index]
                scene = corpus.scene_by_id(gt.image_id)
                with Tape() as tape:
                    total, _, _ = rollout_loss(
                        copy, scene.E, observer_id, gt,
                        config.duration_loss_weight)
                if not np.isfinite(total.data):
                    raise RuntimeError(
                        f"non-finite loss fine-tuning observer "
                        f"{observer_id} epoch {epoch} image {gt.image_id}")
                opt.step(tape.gradients(total))
        tuned[observer_id] = copy
    return tuned


def train_variant(variant: str, corpus, model_config: ModelConfig,
                  train_config: TrainConfig, init_seed: int = 0):
    """Initialize and train one ablation row's model."""
    config = ablation_config(model_config, variant)
    model = ScanpathModel(config, seed=init_seed)
    train(model, corpus, train_config)
    return model


def run_ablation_suite(corpus, train_config: TrainConfig,
                       model_config: ModelConfig | None = None,
                       metric_config=None, n_steps: int | None = None,
                       threads: int = 1):
    """Train all six variants under one seed and score them on the test split.

    Returns (rows, models): one row per variant with mean value metrics and
    ranking aggregates, plus the trained models keyed by variant name.
    """
    from .evaluate import predict_split, rank_eval, value_eval

    if model_config is None:
        model_config = ModelConfig()
    rows = []
    models = {}
    gt = corpus.scanpaths["test"]
    for variant in ABLATION_VARIANTS:
        model = train_variant(variant, corpus, model_config, train_config,
                              init_seed=train_config.seed)
        preds = predict_split(model, corpus, "test", n_steps=n_steps,
                              seed=train_config.seed)
        value = value_eval(preds, gt, metric_config, threads=threads)
        ranking = rank_eval(preds, gt, metric_config, threads=threads)
        rows.append({
            "variant": variant,
            "sm": value.means["sm"],
            "mm": value.means["mm"],
            "sed": value.means["sed"],
            "mrr": ranking.mrr,
            "r_at_1": ranking.recall_at[1],
            "r_at_5": ranking.recall_at[5],
        })
        models[variant] = model
    return rows, models
