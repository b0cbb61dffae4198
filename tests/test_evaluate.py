"""Evaluation tests: value scoring, ranking, consistency, saliency."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from gazelab.evaluate import (
    MAX_SALIENCY_CELLS,
    SaliencyMap,
    build_saliency,
    expected_random_mrr,
    human_consistency,
    predict_split,
    rank_eval,
    saliency_metrics,
    saliency_report,
    value_eval,
)
from gazelab.metrics import MetricConfig, multimatch, scanmatch, string_edit_distance
from gazelab.model import ABLATION_VARIANTS, ModelConfig, ScanpathModel, ablation_config
from gazelab.scanpath import Fixation, Scanpath
from gazelab.synthetic import build_corpus, smoke_config

from support import plain_scanmatch


def random_scanpath(rng, image_id, observer_id, length=5):
    fixes = tuple(Fixation(float(rng.uniform(0.05, 0.95)),
                           float(rng.uniform(0.05, 0.95)),
                           float(rng.uniform(80.0, 600.0)))
                  for _ in range(length))
    return Scanpath(image_id=image_id, observer_id=observer_id,
                    fixations=fixes)


def random_set(seed, n_images=3, n_observers=4, length=5):
    rng = np.random.default_rng(seed)
    return [random_scanpath(rng, i, o, length)
            for i in range(n_images) for o in range(n_observers)]


def retarget(sp, observer_id):
    return Scanpath(image_id=sp.image_id, observer_id=observer_id,
                    fixations=sp.fixations)


class TestValueEval:
    def test_identity_predictions(self):
        gt = random_set(0)
        result = value_eval(list(gt), gt)
        assert result.means["sm"] == pytest.approx(1.0, abs=1e-12)
        assert result.means["sed"] == 0.0
        assert result.means["mm"] == pytest.approx(1.0, abs=1e-12)

    def test_means_match_hand_average(self):
        cfg = MetricConfig()
        gt = random_set(1, n_images=2, n_observers=2)
        preds = [random_scanpath(np.random.default_rng(100 + i),
                                 sp.image_id, sp.observer_id)
                 for i, sp in enumerate(gt)]
        result = value_eval(preds, gt, cfg)
        by_pair = {(p.image_id, p.observer_id): p for p in preds}
        sms, mms, seds = [], [], []
        for sp in gt:
            pred = by_pair[(sp.image_id, sp.observer_id)]
            sms.append(scanmatch(pred, sp, cfg))
            mms.append(multimatch(pred, sp, cfg).mean)
            seds.append(string_edit_distance(pred, sp, cfg))
        assert result.means["sm"] == pytest.approx(np.mean(sms), abs=1e-12)
        assert result.means["mm"] == pytest.approx(np.mean(mms), abs=1e-12)
        assert result.means["sed"] == pytest.approx(np.mean(seds), abs=1e-12)
        expect_se = np.std(sms, ddof=1) / np.sqrt(len(sms))
        assert result.stderr["sm"] == pytest.approx(expect_se, abs=1e-12)

    def test_missing_prediction_names_pair(self):
        gt = random_set(2, n_images=2, n_observers=2)
        preds = [sp for sp in gt if not (sp.image_id == 1 and
                                         sp.observer_id == 0)]
        with pytest.raises(ValueError, match="image 1, observer 0"):
            value_eval(preds, gt)

    def test_duplicate_prediction_names_pair(self):
        gt = random_set(2, n_images=2, n_observers=2)
        with pytest.raises(ValueError, match="duplicate prediction for "
                                             "image 1, observer 0"):
            value_eval(gt + [gt[2]], gt)

    def test_threaded_matches_serial(self):
        # threads is still accepted, and ignored
        gt = random_set(3)
        preds = random_set(4)
        serial = value_eval(preds, gt)
        threaded = value_eval(preds, gt, threads=4)
        assert serial.pairs == threaded.pairs
        assert serial.means == threaded.means
        assert rank_eval(preds, gt, threads=4) == rank_eval(preds, gt)


class TestRankEval:
    def test_self_retrieval(self):
        gt = random_set(5)
        result = rank_eval(list(gt), gt)
        assert result.mrr == 1.0
        assert result.recall_at[1] == 100.0
        assert result.recall_at[5] == 100.0
        assert all(rank == 1 for rank in result.ranks.values())

    def test_identical_predictions_hit_random_expectation(self):
        gt = random_set(6, n_images=3, n_observers=4)
        shared = {sp.image_id: sp for sp in gt if sp.observer_id == 0}
        preds = [retarget(shared[sp.image_id], sp.observer_id) for sp in gt]
        result = rank_eval(preds, gt)
        assert result.mrr == pytest.approx(expected_random_mrr(4), abs=1e-12)

    def test_expected_random_mrr_values(self):
        assert expected_random_mrr(1) == 1.0
        assert expected_random_mrr(8) == pytest.approx(
            sum(1.0 / r for r in range(1, 9)) / 8.0, abs=1e-15)
        assert expected_random_mrr(8) == pytest.approx(0.3397, abs=5e-4)

    def test_ties_break_by_observer_id(self):
        rng = np.random.default_rng(7)
        a = random_scanpath(rng, 0, 0)
        gt = [a, retarget(a, 1)]
        preds = [retarget(a, 0), retarget(a, 1)]
        result = rank_eval(preds, gt, ks=(1, 2))
        assert result.ranks[(0, 0)] == 1
        assert result.ranks[(0, 1)] == 2

    def test_row_of_equal_scores_ranks_by_observer_id(self):
        rng = np.random.default_rng(15)
        shared = random_scanpath(rng, 0, 0)
        gt = [retarget(shared, obs) for obs in range(4)]
        preds = random_set(16, n_images=1, n_observers=4)
        result = rank_eval(preds, gt)
        assert result.ranks == {(0, obs): obs + 1 for obs in range(4)}

    def test_incomplete_images_excluded_and_logged(self, caplog):
        gt = random_set(8, n_images=2, n_observers=3)
        gt = [sp for sp in gt if not (sp.image_id == 1 and
                                      sp.observer_id == 2)]
        preds = random_set(9, n_images=2, n_observers=3)
        with caplog.at_level(logging.WARNING):
            result = rank_eval(preds, gt)
        assert "image 1" in caplog.text
        assert all(image_id == 0 for image_id, _ in result.ranks)

    def test_duplicate_prediction_names_pair(self):
        gt = random_set(12, n_images=2, n_observers=2)
        preds = random_set(13, n_images=2, n_observers=2)
        with pytest.raises(ValueError, match="duplicate prediction for "
                                             "image 0, observer 1"):
            rank_eval(preds + [preds[1]], gt)

    def test_observer_without_ground_truth_rejected(self):
        gt = random_set(14, n_images=2, n_observers=2)
        with pytest.raises(ValueError, match="prediction observer 5 has no "
                                             "ground truth on image 1"):
            rank_eval(gt + [retarget(gt[2], 5)], gt)

    def test_rank_bounds_and_recall_monotonicity(self):
        gt = random_set(10, n_images=4, n_observers=5)
        preds = random_set(11, n_images=4, n_observers=5)
        result = rank_eval(preds, gt, ks=(1, 3, 5))
        assert all(1 <= rank <= 5 for rank in result.ranks.values())
        assert result.recall_at[1] <= result.recall_at[3] <= \
            result.recall_at[5]
        assert 0.0 < result.mrr <= 1.0


class TestBatchedScanMatch:
    """value_eval and rank_eval against a per-pair ScanMatch loop."""

    def corpus(self):
        gt = random_set(40, n_images=3, n_observers=4, length=6)
        # observers 1 and 2 share their ground truth on image 0: a tie
        gt[2] = retarget(gt[1], 2)
        preds = random_set(41, n_images=3, n_observers=4, length=6)
        preds[2] = retarget(gt[1], 2)
        preds[1] = retarget(gt[1], 1)
        return preds, gt

    def test_value_pairs_equal_loop(self):
        cfg = MetricConfig()
        preds, gt = self.corpus()
        result = value_eval(preds, gt, cfg)
        by_pair = {(p.image_id, p.observer_id): p for p in preds}
        for sp in gt:
            key = (sp.image_id, sp.observer_id)
            row = result.pairs[key]
            assert row["sm"] == plain_scanmatch(by_pair[key], sp, cfg)
            assert row["mm"] == multimatch(by_pair[key], sp, cfg).mean
            assert row["sed"] == float(
                string_edit_distance(by_pair[key], sp, cfg))

    def test_ranks_equal_loop(self):
        cfg = MetricConfig()
        preds, gt = self.corpus()
        result = rank_eval(preds, gt, cfg, ks=(1, 2))
        per_image = {}
        for sp in gt:
            per_image.setdefault(sp.image_id, {})[sp.observer_id] = sp
        ranks = {}
        for pred in preds:
            scored = sorted(
                ((plain_scanmatch(pred, sp, cfg), obs)
                 for obs, sp in per_image[pred.image_id].items()),
                key=lambda pair: (-pair[0], pair[1]))
            ranks[(pred.image_id, pred.observer_id)] = 1 + [
                obs for _, obs in scored].index(pred.observer_id)
        assert result.ranks == ranks
        # the tie goes to the lower observer id
        assert ranks[(0, 1)] == 1 and ranks[(0, 2)] == 2
        values = np.array([ranks[key] for key in sorted(ranks)], dtype=float)
        assert result.mrr == float(np.mean(1.0 / values))
        assert result.recall_at == {
            k: float(np.mean(values <= k) * 100.0) for k in (1, 2)}


class TestHumanConsistency:
    def test_identical_observers_agree_perfectly(self):
        rng = np.random.default_rng(12)
        base = random_scanpath(rng, 0, 0)
        gt = [base, retarget(base, 1), retarget(base, 2)]
        means = human_consistency(gt)
        assert means["sm"] == pytest.approx(1.0, abs=1e-12)
        assert means["sed"] == 0.0

    def test_two_observers_counted_symmetrically(self):
        cfg = MetricConfig()
        rng = np.random.default_rng(13)
        a = random_scanpath(rng, 0, 0)
        b = random_scanpath(rng, 0, 1)
        means = human_consistency([a, b], cfg)
        assert means["sm"] == pytest.approx(scanmatch(a, b, cfg), abs=1e-12)
        assert means["sed"] == pytest.approx(
            float(string_edit_distance(a, b, cfg)), abs=1e-12)

    def test_three_observer_hand_case(self):
        cfg = MetricConfig()
        rng = np.random.default_rng(14)
        paths = [random_scanpath(rng, 0, o) for o in range(3)]
        means = human_consistency(paths, cfg)
        pair = {(i, j): scanmatch(paths[i], paths[j], cfg)
                for i in range(3) for j in range(3) if i != j}
        per_obs = [np.mean([pair[(o, other)] for other in range(3)
                            if other != o]) for o in range(3)]
        assert means["sm"] == pytest.approx(np.mean(per_obs), abs=1e-12)

    def test_single_observer_image_skipped(self, caplog):
        rng = np.random.default_rng(15)
        lonely = random_scanpath(rng, 5, 0)
        pair = [random_scanpath(rng, 6, 0), random_scanpath(rng, 6, 1)]
        with caplog.at_level(logging.WARNING):
            means = human_consistency([lonely] + pair)
        assert "image 5" in caplog.text
        assert np.isfinite(means["sm"])


class TestBuildSaliency:
    def test_single_center_fixation(self):
        sal = build_saliency([Fixation(0.5, 0.5, 100.0)])
        grid = sal.grid
        row, col = np.unravel_index(np.argmax(grid), grid.shape)
        assert (row, col) == (32, 32)
        for k in (1, 3, 7):
            assert grid[32 + k, 32] == pytest.approx(grid[32 - k, 32],
                                                     abs=1e-15)
            assert grid[32, 32 + k] == pytest.approx(grid[32, 32 - k],
                                                     abs=1e-15)

    def test_density_normalized(self):
        rng = np.random.default_rng(16)
        fixes = [Fixation(float(rng.uniform()), float(rng.uniform()), 100.0)
                 for _ in range(17)]
        sal = build_saliency(fixes)
        assert sal.grid.sum() == pytest.approx(1.0, abs=1e-6)
        assert sal.grid.min() >= 0.0

    def test_superposition(self):
        # three sigma from every edge, so no kernel mass falls off the grid
        # and each fixation carries the same weight in the density
        f1 = Fixation(0.3, 0.35, 100.0)
        f2 = Fixation(0.7, 0.6, 100.0)
        combined = build_saliency([f1, f2])
        expect = (build_saliency([f1]).grid + build_saliency([f2]).grid) / 2
        np.testing.assert_allclose(combined.grid, expect, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero fixations"):
            build_saliency([])

    def test_resolution_past_cell_bound_rejected(self):
        # 10**14 cells outgrow any 64-bit address space; refused before
        # an allocation is tried
        with pytest.raises(ValueError) as err:
            build_saliency([Fixation(0.5, 0.5, 100.0)],
                           resolution=(10**7, 10**7))
        assert str(err.value) == ("resolution 10000000x10000000 has more "
                                  f"than {MAX_SALIENCY_CELLS} cells")

    def test_default_sigma_is_width_over_16(self):
        fixes = [Fixation(0.3, 0.4, 100.0)]
        default = build_saliency(fixes, resolution=(64, 64))
        explicit = build_saliency(fixes, sigma=4.0, resolution=(64, 64))
        np.testing.assert_array_equal(default.grid, explicit.grid)


class TestSaliencyMetrics:
    def fixtures(self, seed=17):
        rng = np.random.default_rng(seed)
        fixes = [Fixation(float(rng.uniform()), float(rng.uniform()), 100.0)
                 for _ in range(20)]
        gt_map = build_saliency(fixes)
        return fixes, gt_map

    def test_identity_scores(self):
        fixes, gt_map = self.fixtures()
        scores = saliency_metrics(gt_map, fixes, gt_map)
        assert scores.cc == pytest.approx(1.0, abs=1e-12)
        assert scores.kld < 1e-5
        assert scores.sim > 0.999
        assert not scores.degenerate

    def test_uniform_prediction_degenerates(self):
        fixes, gt_map = self.fixtures()
        uniform = SaliencyMap(np.full((64, 64), 1.0 / 4096))
        scores = saliency_metrics(uniform, fixes, gt_map)
        assert scores.nss == 0.0
        assert scores.degenerate

    def test_auc_matches_rank_sum_oracle(self):
        rng = np.random.default_rng(18)
        grid = rng.permutation(16).astype(float).reshape(4, 4) / 16.0
        pred = SaliencyMap(grid / grid.sum())
        fixes = [Fixation(0.1, 0.1, 100.0), Fixation(0.6, 0.6, 100.0)]
        gt_map = build_saliency(fixes, sigma=0.5, resolution=(4, 4))
        scores = saliency_metrics(pred, fixes, gt_map)
        cells = {(min(int(f.y * 4), 3), min(int(f.x * 4), 3))
                 for f in fixes}
        pos = [pred.grid[r, c] for r, c in cells]
        neg = [pred.grid[r, c] for r in range(4) for c in range(4)
               if (r, c) not in cells]
        wins = sum((1.0 if p > n else 0.5 if p == n else 0.0)
                   for p in pos for n in neg)
        assert scores.auc == pytest.approx(wins / (len(pos) * len(neg)),
                                           abs=1e-12)

    def test_gt_map_scores_own_fixations_high(self):
        fixes, gt_map = self.fixtures(seed=19)
        scores = saliency_metrics(gt_map, fixes, gt_map)
        assert scores.auc > 0.9
        assert scores.nss > 0.5

    def test_sauc_uses_shuffled_negatives(self):
        fixes, gt_map = self.fixtures(seed=20)
        rng = np.random.default_rng(21)
        other = [Fixation(float(rng.uniform()), float(rng.uniform()), 100.0)
                 for _ in range(30)]
        scores = saliency_metrics(gt_map, fixes, gt_map, other)
        assert 0.0 <= scores.sauc <= 1.0
        empty = saliency_metrics(gt_map, fixes, gt_map, ())
        assert np.isnan(empty.sauc)

    def test_kld_nonnegative_and_zero_at_identity(self):
        fixes, gt_map = self.fixtures(seed=22)
        rng = np.random.default_rng(23)
        other_fixes = [Fixation(float(rng.uniform()), float(rng.uniform()),
                                100.0) for _ in range(25)]
        other_map = build_saliency(other_fixes)
        assert saliency_metrics(other_map, fixes, gt_map).kld > 0.0
        assert abs(saliency_metrics(gt_map, fixes, gt_map).kld) < 1e-5

    def test_sim_and_cc_ranges(self):
        fixes, gt_map = self.fixtures(seed=24)
        rng = np.random.default_rng(25)
        for _ in range(5):
            noise = rng.uniform(0.0, 1.0, (64, 64))
            pred = SaliencyMap(noise / noise.sum())
            scores = saliency_metrics(pred, fixes, gt_map)
            assert 0.0 <= scores.sim <= 1.0
            assert -1.0 <= scores.cc <= 1.0

    def test_resolution_mismatch_rejected(self):
        fixes, gt_map = self.fixtures(seed=26)
        small = SaliencyMap(np.full((32, 32), 1.0 / 1024))
        with pytest.raises(ValueError, match="resolution"):
            saliency_metrics(small, fixes, gt_map)

    def test_empty_fixations_rejected(self):
        _, gt_map = self.fixtures(seed=27)
        with pytest.raises(ValueError, match="nonempty"):
            saliency_metrics(gt_map, [], gt_map)


class TestSaliencyReport:
    def test_pooled_report_structure(self):
        gt = random_set(28, n_images=4, n_observers=3)
        preds = random_set(29, n_images=4, n_observers=3)
        report = saliency_report(preds, gt, seed=0)
        assert sorted(report["per_image"]) == [0, 1, 2, 3]
        for name in ("cc", "auc", "nss", "sauc", "kld", "sim"):
            assert np.isfinite(report["means"][name])

    def test_deterministic_given_seed(self):
        gt = random_set(30, n_images=3, n_observers=2)
        preds = random_set(31, n_images=3, n_observers=2)
        a = saliency_report(preds, gt, seed=5)
        b = saliency_report(preds, gt, seed=5)
        assert a["means"] == b["means"]


class TestPredictSplit:
    # each image's observers share one rollout; every prediction must be
    # the one its observer's own rollout, on its own stream, gives
    @pytest.mark.parametrize("mode", ["argmax", "sample"])
    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_matches_one_rollout_per_observer(self, variant, mode):
        corpus_cfg = smoke_config()
        corpus = build_corpus(corpus_cfg, 0)
        config = ablation_config(ModelConfig(
            n_observers=4, height=8, width=8, channels=6, observer_dim=3,
            hidden=4, semantic_channels=2, max_steps=4), variant)
        model = ScanpathModel(config, seed=3)
        preds = predict_split(model, corpus, "test", mode=mode, seed=9)
        expect = [model.sample_scanpath(
            corpus.scene_by_id(image_id).E, obs, n_steps=4, mode=mode,
            seed=[9, 21, image_id, obs], image_id=image_id)
            for image_id in corpus.split_ids["test"] for obs in range(4)]
        assert len(preds) == len(expect)
        for got, want in zip(preds, expect):
            assert (got.image_id, got.observer_id) == \
                (want.image_id, want.observer_id)
            np.testing.assert_array_equal(got.xy(), want.xy())
            np.testing.assert_allclose(got.durations(), want.durations(),
                                       rtol=1e-12, atol=0)

    def test_steps_follow_corpus_scanpath_len(self):
        # not the length of the split's first record
        corpus = build_corpus(smoke_config(), 0)
        test = list(corpus.scanpaths["test"])
        test[0] = Scanpath(test[0].image_id, test[0].observer_id,
                           test[0].fixations[:2])
        corpus = replace(corpus, scanpaths={**corpus.scanpaths, "test": test})
        model = ScanpathModel(ModelConfig(
            n_observers=4, height=8, width=8, channels=6, observer_dim=3,
            hidden=4, semantic_channels=2, max_steps=4), seed=3)
        preds = predict_split(model, corpus, "test")
        assert {len(sp) for sp in preds} == {corpus.config.scanpath_len}
