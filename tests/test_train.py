"""Training tests: losses, batch rule, optimization loop, baselines."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from gazelab.model import ModelConfig, ScanpathModel, ablation_config, cell_center
from gazelab.scanpath import Fixation, Scanpath
from gazelab.synthetic import build_corpus, smoke_config
from gazelab.tensor import Tensor
import gazelab.train as train_module
from gazelab.train import (
    ABLATION_VARIANTS,
    TrainConfig,
    _epoch_batches,
    duration_loss,
    fine_tune_per_observer,
    position_loss,
    rollout_loss,
    run_ablation_suite,
    train,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def small_model_config(corpus_cfg, **overrides):
    base = dict(n_observers=corpus_cfg.n_observers,
                height=corpus_cfg.height, width=corpus_cfg.width,
                channels=corpus_cfg.channels, observer_dim=4, hidden=8,
                semantic_channels=2, max_steps=corpus_cfg.scanpath_len)
    base.update(overrides)
    return ModelConfig(**base)


def path_at(cells, height, width, durs, image_id=0, observer_id=0):
    fixes = tuple(Fixation(*cell_center(c, height, width), d)
                  for c, d in zip(cells, durs))
    return Scanpath(image_id=image_id, observer_id=observer_id,
                    fixations=fixes)


def tiny_model():
    """A model on a 3 x 4 grid and a constant scene for it."""
    cfg = ModelConfig(n_observers=3, height=3, width=4, channels=2,
                      observer_dim=2, hidden=3, semantic_channels=1,
                      max_steps=4)
    return ScanpathModel(cfg), np.ones((2, 3, 4))


class TestPositionLoss:
    def test_uniform_maps(self):
        hw = 12
        loss = position_loss(Tensor(np.zeros((3, hw))), np.array([0, 5, 11]))
        assert float(loss.data) == pytest.approx(np.log(hw), rel=1e-9)

    def test_perfect_prediction(self):
        hw = 12
        logits = np.zeros((3, hw))
        logits[[0, 1, 2], [2, 7, 9]] = 50.0
        loss = position_loss(Tensor(logits), np.array([2, 7, 9]))
        assert abs(float(loss.data)) < 1e-11

    def test_matches_hand_sum(self):
        rng = np.random.default_rng(0)
        hw = 12
        cells = [3, 1, 10, 4]
        logits = rng.normal(scale=2.0, size=(4, hw))
        loss = position_loss(Tensor(logits), np.array(cells))
        maps = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expect = np.mean([-np.log(m[c]) for m, c in zip(maps, cells)])
        assert float(loss.data) == pytest.approx(expect, abs=1e-12)

    def test_rows_are_step_major(self, monkeypatch):
        # batch_loss hands both losses row t * B + b = step t of scanpath b
        a = path_at([3, 1, 10], 3, 4, [200.0, 300.0, 400.0])
        b = path_at([0, 7, 4], 3, 4, [210.0, 310.0, 410.0], observer_id=1)
        seen = []

        def seen_position_loss(logits, cells):
            seen.append(cells.tolist())
            return position_loss(logits, cells)

        def seen_duration_loss(mu, var, log_durations):
            seen.append(log_durations.tolist())
            return duration_loss(mu, var, log_durations)

        monkeypatch.setattr(train_module, "position_loss", seen_position_loss)
        monkeypatch.setattr(train_module, "duration_loss", seen_duration_loss)
        train_module.batch_loss(*tiny_model(), [(0, a), (1, b)])
        assert seen == [[3, 0, 1, 7, 10, 4],
                        np.log([200.0, 210.0, 300.0, 310.0, 400.0,
                                410.0]).tolist()]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs 1 integer targets"):
            position_loss(Tensor(np.zeros((1, 12))), np.array([0, 1]))

    def test_out_of_bounds_fixation_rejected(self):
        # the losses take the cells of batch_loss's checked read
        model, E = tiny_model()
        good = path_at([0, 1], 3, 4, [200.0] * 2)
        bad = Scanpath(image_id=0, observer_id=1,
                       fixations=(Fixation(0.5, 0.5, 100.0),
                                  Fixation(0.5, 1.2, 100.0)))
        with pytest.raises(ValueError) as err:
            train_module.batch_loss(model, E, [(0, good), (1, bad)])
        assert str(err.value) == ("fixation 1 of image 0 observer 1: "
                                  "coordinates (0.5, 1.2) outside [0, 1]")


class TestDurationLoss:
    def test_zero_residual_unit_variance(self):
        loss = duration_loss(Tensor(np.log([300.0, 120.0])),
                             Tensor(np.ones(2)), np.log([300.0, 120.0]))
        assert float(loss.data) == pytest.approx(HALF_LOG_2PI, abs=1e-12)

    def test_doubling_variance_adds_half_log_two(self):
        mu = Tensor(np.log([250.0]))
        base = duration_loss(mu, Tensor([1.0]), np.log([250.0]))
        doubled = duration_loss(mu, Tensor([2.0]), np.log([250.0]))
        assert float(doubled.data) - float(base.data) == pytest.approx(
            0.5 * np.log(2.0), abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        durs = rng.uniform(80.0, 900.0, 5)
        mus = rng.normal(5.5, 0.5, 5)
        variances = rng.uniform(0.2, 2.0, 5)
        loss = duration_loss(Tensor(mus), Tensor(variances), np.log(durs))
        expect = np.mean(
            0.5 * (np.log(2 * np.pi) + np.log(variances) +
                   (np.log(durs) - mus) ** 2 / variances))
        assert float(loss.data) == pytest.approx(expect, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must match and be nonempty"):
            duration_loss(Tensor(np.zeros(0)), Tensor(np.zeros(0)),
                          np.log([100.0]))


class TestBatchRead:
    # batch_loss reads a batch once: one array check, one grid_cells call,
    # and Scanpath.validate only to word an error

    def test_bad_duration_rejected(self):
        model, E = tiny_model()
        bad = Scanpath(0, 2, (Fixation(0.5, 0.5, float("nan")),))
        with pytest.raises(ValueError) as err:
            train_module.batch_loss(model, E, [(2, bad)])
        assert str(err.value) == ("fixation 0 of image 0 observer 2: "
                                  "duration nan not positive and finite")

    def test_empty_ground_truth_rejected(self):
        model, E = tiny_model()
        with pytest.raises(ValueError) as err:
            train_module.batch_loss(model, E, [(0, Scanpath(0, 0, []))])
        assert str(err.value) == "empty scanpath (image 0, observer 0)"

    def test_one_check_and_one_binning_per_length(self, monkeypatch):
        calls = {"grid_cells": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(train_module, "grid_cells",
                            counted("grid_cells", train_module.grid_cells))
        monkeypatch.setattr(Scanpath, "validate",
                            counted("validate", Scanpath.validate))
        model, E = tiny_model()
        items = [(obs, path_at([obs, 5, 11, 2], 3, 4, [200.0 + obs] * 4,
                               observer_id=obs)) for obs in range(3)]
        train_module.batch_loss(model, E, items)
        assert calls == {"grid_cells": 1, "validate": 0}


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 15 and cfg.lr == 1e-4
        assert cfg.ft_lr == 1e-5 and cfg.ft_epochs == 2
        assert train_module.WEIGHT_DECAY == 5e-5
        assert train_module.DURATION_LOSS_WEIGHT == 0.1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)


class TestBatches:
    def test_same_image_distinct_observers(self):
        corpus = build_corpus(smoke_config(), 0)
        rng = np.random.default_rng(0)
        for image_id, items in _epoch_batches(corpus, "train", 3, rng):
            assert all(sp.image_id == image_id for _, sp in items)
            observers = [obs for obs, _ in items]
            assert len(set(observers)) == len(observers)

    def test_epoch_covers_every_pair_once(self):
        corpus = build_corpus(smoke_config(), 0)
        rng = np.random.default_rng(1)
        batches = _epoch_batches(corpus, "train", 2, rng)
        seen = [(image_id, obs) for image_id, items in batches
                for obs, _ in items]
        expect = {(sp.image_id, sp.observer_id)
                  for sp in corpus.scanpaths["train"]}
        assert len(seen) == len(expect)
        assert set(seen) == expect

    def test_shuffling_varies_with_rng(self):
        corpus = build_corpus(smoke_config(), 0)
        a = _epoch_batches(corpus, "train", 2, np.random.default_rng(2))
        b = _epoch_batches(corpus, "train", 2, np.random.default_rng(3))
        assert [img for img, _ in a] != [img for img, _ in b]


class TestTrain:
    def test_zero_epochs_is_identity(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        model = ScanpathModel(small_model_config(corpus_cfg), seed=0)
        before = {k: v.data.copy() for k, v in model.params.items()}
        _, history = train(model, corpus, TrainConfig(epochs=0))
        assert history == []
        for name, data in before.items():
            np.testing.assert_array_equal(model.params[name].data, data)

    def test_deterministic(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        cfg = TrainConfig(epochs=1, seed=5)
        runs = []
        for _ in range(2):
            model = ScanpathModel(small_model_config(corpus_cfg), seed=1)
            train(model, corpus, cfg)
            runs.append({k: v.data.copy() for k, v in model.params.items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_loss_decreases(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        model = ScanpathModel(small_model_config(corpus_cfg), seed=0)
        _, history = train(model, corpus,
                           TrainConfig(epochs=3, lr=3e-4, seed=0))
        assert len(history) == 3
        assert history[-1][3] < history[0][3]

    def test_trained_parameters_freed_without_cyclic_collector(self):
        # a recorded tensor marks its tape by a token, not by the tape,
        # which holds the trainable leaves: no reference cycle is left
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        model = ScanpathModel(small_model_config(corpus_cfg), seed=0)
        gc.collect()
        gc.disable()
        try:
            train(model, corpus, TrainConfig(epochs=1))
            # a Tensor takes no weak reference; its array dies with it
            param = weakref.ref(model.params["W_ih"].data)
            del model
            assert param() is None
        finally:
            gc.enable()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_loss_aborts_with_diagnostic(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        model = ScanpathModel(small_model_config(corpus_cfg), seed=0)
        model.params["W_dur"].data[:] = np.nan
        with pytest.raises(ValueError, match="epoch 0 batch 0"):
            train(model, corpus, TrainConfig(epochs=1))


class TestFineTune:
    def test_zero_ft_epochs_copies_base(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        base = ScanpathModel(
            ablation_config(small_model_config(corpus_cfg), "none"), seed=0)
        tuned = fine_tune_per_observer(base, corpus,
                                       TrainConfig(ft_epochs=0))
        assert sorted(tuned) == list(range(corpus_cfg.n_observers))
        for copy in tuned.values():
            assert copy is not base
            for name, p in base.params.items():
                np.testing.assert_array_equal(copy.params[name].data, p.data)

    def test_copies_diverge_across_observers(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        base = ScanpathModel(
            ablation_config(small_model_config(corpus_cfg), "none"), seed=0)
        tuned = fine_tune_per_observer(
            base, corpus, TrainConfig(ft_epochs=1, ft_lr=1e-3))
        digests = {obs: tuple(copy.params[n].data.tobytes()
                              for n in sorted(copy.params))
                   for obs, copy in tuned.items()}
        assert len(set(digests.values())) == len(digests)

    def test_fine_tuning_helps_own_observer(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        mc = ablation_config(small_model_config(corpus_cfg), "none")
        base = ScanpathModel(mc, seed=0)
        train(base, corpus, TrainConfig(epochs=2, seed=0))
        tuned = fine_tune_per_observer(base, corpus,
                                       TrainConfig(ft_epochs=2, seed=0))

        def split_loss(model, observer_id):
            total = 0.0
            count = 0
            for sp in corpus.scanpaths["train"]:
                if sp.observer_id != observer_id:
                    continue
                scene = corpus.scene_by_id(sp.image_id)
                loss, _, _ = rollout_loss(model, scene.E, observer_id, sp)
                total += float(loss.data)
                count += 1
            return total / count

        for observer_id, copy in tuned.items():
            assert split_loss(copy, observer_id) <= \
                split_loss(base, observer_id) + 1e-9

    def test_observer_without_data_rejected(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        stripped = dataclasses.replace(
            corpus,
            scanpaths={
                split: ([sp for sp in paths if sp.observer_id != 0]
                        if split == "train" else paths)
                for split, paths in corpus.scanpaths.items()})
        base = ScanpathModel(
            ablation_config(small_model_config(corpus_cfg), "none"), seed=0)
        with pytest.raises(ValueError, match="observer 0"):
            fine_tune_per_observer(base, stripped, TrainConfig(ft_epochs=1))


class TestAblationSuite:
    def test_six_rows_and_agnostic_identity(self):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        rows, models = run_ablation_suite(
            corpus, TrainConfig(epochs=1, seed=0),
            model_config=small_model_config(corpus_cfg))
        assert [row["variant"] for row in rows] == list(ABLATION_VARIANTS)
        for row in rows:
            for key in ("sm", "mm", "sed", "mrr", "r_at_1", "r_at_5"):
                assert np.isfinite(row[key])
            assert row["r_at_1"] <= row["r_at_5"]
        scene = corpus.scene_by_id(corpus.split_ids["test"][0])
        agnostic = models["none"]
        paths = [agnostic.sample_scanpath(scene.E, obs,
                                          n_steps=corpus_cfg.scanpath_len,
                                          mode="argmax", seed=0)
                 for obs in range(corpus_cfg.n_observers)]
        assert all(p.fixations == paths[0].fixations for p in paths)
