"""Semantic statistics tests: ROI profiles, rank tests, group classifier."""

import itertools
import math

import numpy as np
import pytest

from gazelab.analysis import (
    ObserverFeature,
    _average_ranks,
    classify_group_loocv,
    extract_observer_features,
    group_compare,
    roi_stats,
    semantic_report,
    spearman_rho,
    welch_t,
)
from gazelab.model import ModelConfig, ScanpathModel
from gazelab.scanpath import Fixation, Scanpath
from gazelab.synthetic import CorpusConfig, SyntheticScene, build_corpus
from gazelab.tensor import Tensor


def grid_scene(scene_id, mask):
    mask = np.asarray(mask, dtype=np.int64)
    h, w = mask.shape
    return SyntheticScene(id=scene_id, E=np.zeros((1, h, w)), roi_mask=mask)


def path(image_id, observer_id, points):
    fixes = tuple(Fixation(x, y, dur) for x, y, dur in points)
    return Scanpath(image_id=image_id, observer_id=observer_id,
                    fixations=fixes)


@pytest.fixture(scope="module")
def small_corpus():
    # 6 observers: enough distinct proportion ranks for exact rank tests
    cfg = CorpusConfig(n_scenes=8, n_observers=6, n_group_a=3,
                       scanpath_len=5)
    return build_corpus(cfg, seed=0)


class TestRoiStats:
    def test_all_social(self):
        scene = grid_scene(0, [[2, 2], [2, 2]])
        stats = roi_stats([path(0, 0, [(0.2, 0.2, 100.0),
                                       (0.8, 0.8, 150.0)])], [scene])
        obs = stats.per_observer[0]
        assert obs["social"].proportion == 1.0
        assert obs["nonsocial"].proportion == 0.0
        assert obs["background"].proportion == 0.0
        assert obs["nonsocial"].latency_ms is None
        assert obs["background"].mean_duration_ms is None

    def test_latency_zero_at_first_fixation(self):
        scene = grid_scene(0, [[2, 0], [0, 0]])
        stats = roi_stats([path(0, 0, [(0.25, 0.25, 120.0),
                                       (0.75, 0.75, 80.0)])], [scene])
        assert stats.per_observer[0]["social"].latency_ms == 0.0

    def test_three_fixation_hand_tally(self):
        # mask rows top to bottom: [bg, nonsocial], [social, bg]
        scene = grid_scene(0, [[0, 1], [2, 0]])
        sp = path(0, 3, [(0.25, 0.25, 100.0), (0.75, 0.25, 200.0),
                         (0.25, 0.75, 300.0)])
        stats = roi_stats([sp], [scene])
        obs = stats.per_observer[3]
        assert obs["background"].proportion == pytest.approx(1 / 3)
        assert obs["nonsocial"].proportion == pytest.approx(1 / 3)
        assert obs["social"].proportion == pytest.approx(1 / 3)
        assert obs["background"].latency_ms == 0.0
        assert obs["nonsocial"].latency_ms == 100.0
        assert obs["social"].latency_ms == 300.0
        assert obs["background"].mean_duration_ms == 100.0
        assert obs["social"].mean_duration_ms == 300.0

    def test_latency_averages_only_hitting_scanpaths(self):
        social = grid_scene(0, [[0, 2]])
        plain = grid_scene(1, [[0, 0]])
        paths = [path(0, 0, [(0.25, 0.5, 100.0), (0.75, 0.5, 50.0)]),
                 path(1, 0, [(0.25, 0.5, 400.0)])]
        stats = roi_stats(paths, [social, plain])
        assert stats.per_observer[0]["social"].latency_ms == 100.0

    def test_unknown_image_rejected(self):
        scene = grid_scene(0, [[0]])
        with pytest.raises(ValueError, match="unknown image id 99"):
            roi_stats([path(99, 0, [(0.5, 0.5, 100.0)])], [scene])

    def test_proportions_sum_to_one(self, small_corpus):
        gt = [sp for split in ("train", "val", "test")
              for sp in small_corpus.scanpaths[split]]
        stats = roi_stats(gt, small_corpus.scenes)
        for obs, cats in stats.per_observer.items():
            total = sum(cats[c].proportion for c in cats)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_proportions_accessor_rejects_unknown_category(self):
        scene = grid_scene(0, [[0]])
        stats = roi_stats([path(0, 0, [(0.5, 0.5, 100.0)])], [scene])
        with pytest.raises(ValueError, match="unknown category"):
            stats.proportions("faces")

    def test_generator_group_gap_recovered(self):
        cfg = CorpusConfig()
        corpus = build_corpus(cfg, seed=0)
        gt = [sp for split in ("train", "val", "test")
              for sp in corpus.scanpaths[split]]
        stats = roi_stats(gt, corpus.scenes)
        social = stats.proportions("social")
        groups = {p.id: p.group for p in corpus.profiles}
        mean_a = np.mean([v for o, v in social.items() if groups[o] == "A"])
        mean_b = np.mean([v for o, v in social.items() if groups[o] == "B"])
        assert mean_a < mean_b


class TestRanks:
    def test_distinct_values(self):
        assert _average_ranks(np.array([30.0, 10.0, 20.0])).tolist() == \
            [3.0, 1.0, 2.0]

    def test_ties_get_mean_ranks(self):
        ranks = _average_ranks(np.array([1.0, 2.0, 2.0, 3.0]))
        assert ranks.tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        ranks = _average_ranks(np.array([7.0, 7.0, 7.0]))
        assert ranks.tolist() == [2.0, 2.0, 2.0]


def exhaustive_spearman_p(x, y, alternative="greater"):
    """Tie-free oracle: rho via the rank-difference formula, all n! perms."""
    n = len(x)
    rx = np.argsort(np.argsort(x)) + 1.0
    ry = np.argsort(np.argsort(y)) + 1.0

    def rho_of(ranks):
        d = rx - ranks
        return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))

    observed = rho_of(ry)
    hits = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        value = rho_of(ry[list(perm)])
        if alternative == "greater":
            hits += value >= observed - 1e-12
        else:
            hits += abs(value) >= abs(observed) - 1e-12
        total += 1
    return observed, hits / total


class TestSpearman:
    def test_identical_order(self):
        result = spearman_rho([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        assert result.rho == pytest.approx(1.0, abs=1e-12)

    def test_reversed_order(self):
        result = spearman_rho([1.0, 2.0, 3.0], [5.0, 4.0, 3.0])
        assert result.rho == pytest.approx(-1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        base = spearman_rho(x, y, seed=1)
        warped = spearman_rho(np.exp(x), 3.0 * y + 7.0, seed=1)
        assert warped.rho == base.rho
        assert warped.p_value == base.p_value

    def test_matches_exhaustive_permutation_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            expect_rho, expect_p = exhaustive_spearman_p(x, y, "greater")
            result = spearman_rho(x, y, alternative="greater")
            assert result.method == "exact"
            assert result.rho == pytest.approx(expect_rho, abs=1e-12)
            assert result.p_value == pytest.approx(expect_p, abs=1e-12)

    def test_two_sided_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        _, expect_p = exhaustive_spearman_p(x, y, "two-sided")
        result = spearman_rho(x, y, alternative="two-sided")
        assert result.p_value == pytest.approx(expect_p, abs=1e-12)

    def test_sampled_near_exhaustive(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=8)
        y = x + rng.normal(scale=1.5, size=8)
        _, expect_p = exhaustive_spearman_p(x, y, "greater")
        result = spearman_rho(x, y, seed=0)
        assert result.method == "sampled"
        assert result.p_value == pytest.approx(expect_p, abs=0.02)

    def test_constant_input_degenerates(self):
        result = spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert result.rho == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_rejects_bad_shapes_and_alternatives(self):
        with pytest.raises(ValueError, match="equal-length"):
            spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least 3"):
            spearman_rho([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="alternative"):
            spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                         alternative="sideways")

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        assert spearman_rho(x, y, seed=7).p_value == \
            spearman_rho(x, y, seed=7).p_value


def exhaustive_group_p(a, b):
    """All-splits oracle with sum-of-squares Welch arithmetic."""
    pooled = np.concatenate([a, b])
    n, k = len(pooled), len(a)
    idx = np.array(list(itertools.combinations(range(n), k)))
    xa = pooled[idx]
    sa = xa.sum(axis=1)
    ssa = (xa ** 2).sum(axis=1)
    sb = pooled.sum() - sa
    ssb = (pooled ** 2).sum() - ssa
    ma, mb = sa / k, sb / (n - k)
    va = (ssa - k * ma ** 2) / (k - 1)
    vb = (ssb - (n - k) * mb ** 2) / (n - k - 1)
    t = (ma - mb) / np.sqrt(va / k + vb / (n - k))
    t_obs = welch_t(a, b)
    return float(np.mean(np.abs(t) >= abs(t_obs) - 1e-12))


class TestGroupCompare:
    def test_welch_t_hand_value(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 4.0, 6.0])
        expect = (2.5 - 4.0) / math.sqrt((5.0 / 3.0) / 4.0 + 4.0 / 3.0)
        assert welch_t(a, b) == pytest.approx(expect, abs=1e-12)

    def test_identical_groups_null(self):
        result = group_compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p_value == 1.0

    def test_identical_constant_groups(self):
        result = group_compare([5.0, 5.0], [5.0, 5.0])
        assert result.t == 0.0
        assert result.p_value == 1.0

    def test_four_vs_four_matches_exhaustive(self):
        rng = np.random.default_rng(6)
        for trial in range(3):
            a = rng.normal(size=4)
            b = rng.normal(loc=0.8, size=4)
            result = group_compare(a, b)
            assert result.method == "exact"
            assert result.n_permutations == 70
            assert result.p_value == pytest.approx(exhaustive_group_p(a, b),
                                                   abs=1e-12)

    def test_total_separation_hits_floor(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 0.01, size=4)
        b = rng.normal(10.0, 0.01, size=4)
        result = group_compare(a, b)
        assert result.p_value == pytest.approx(2.0 / 70.0, abs=1e-12)

    def test_sampled_within_invariant_band(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=9)
        b = rng.normal(loc=0.5, size=9)
        result = group_compare(a, b, seed=0)
        assert result.method == "sampled"
        assert result.p_value == pytest.approx(exhaustive_group_p(a, b),
                                               abs=0.02)

    def test_small_group_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            group_compare([1.0], [1.0, 2.0])

    def test_sign_follows_mean_difference(self):
        assert group_compare([5.0, 6.0, 7.0], [1.0, 2.0, 3.0]).t > 0
        assert group_compare([1.0, 2.0, 3.0], [5.0, 6.0, 7.0]).t < 0


def feature_config(**overrides):
    base = dict(n_observers=3, height=2, width=2, channels=2,
                observer_dim=2, hidden=2, semantic_channels=1, max_steps=4)
    base.update(overrides)
    return ModelConfig(**base)


class TestObserverFeatures:
    def test_length_is_sum_of_projection_dims(self):
        cfg = feature_config()
        model = ScanpathModel(cfg, seed=0)
        feats = extract_observer_features(model)
        hw = cfg.height * cfg.width
        assert len(feats) == cfg.n_observers
        for feat in feats:
            assert feat.v.shape == (3 * cfg.hidden + hw,)

    def test_hand_projections(self):
        cfg = feature_config()
        model = ScanpathModel(cfg, seed=0)
        p = model.params
        p["W_u"].data[:] = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        p["W_mu"].data[:] = np.array([[1.0, 2.0], [3.0, 4.0]])
        p["W_us"].data[:] = np.arange(8.0).reshape(4, 2)
        p["W_uc"].data[:] = np.array([[5.0, 0.0], [0.0, 5.0]])
        p["W_um"].data[:] = np.array([[0.0, 1.0], [1.0, 0.0]])
        feats = extract_observer_features(model, observers=[0, 1])
        np.testing.assert_allclose(
            feats[0].v,
            [1.0, 3.0, 0.0, 2.0, 4.0, 6.0, 5.0, 0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            feats[1].v,
            [4.0, 8.0, 2.0, 6.0, 10.0, 14.0, 0.0, 10.0, 2.0, 0.0],
            atol=1e-12)

    def test_identical_embeddings_identical_features(self):
        cfg = feature_config()
        model = ScanpathModel(cfg, seed=1)
        model.params["W_u"].data[:, 1] = model.params["W_u"].data[:, 0]
        feats = extract_observer_features(model)
        np.testing.assert_array_equal(feats[0].v, feats[1].v)

    def test_deterministic(self):
        cfg = feature_config()
        model = ScanpathModel(cfg, seed=2)
        a = extract_observer_features(model)
        b = extract_observer_features(model)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.v, fb.v)

    def test_disabled_embedding_rejected(self):
        off = ScanpathModel(feature_config(enable_oe=False, enable_fi=False,
                                           enable_fp=False), seed=0)
        with pytest.raises(ValueError, match="embedding"):
            extract_observer_features(off)
        one_hot = ScanpathModel(
            feature_config(observer_mode="one_hot_concat", enable_fi=False,
                           enable_fp=False), seed=0)
        with pytest.raises(ValueError, match="embedding"):
            extract_observer_features(one_hot)


class TestClassifier:
    def separable(self, n=8, dim=4, seed=0):
        # margin on every dim so the z-scored geometry stays separable
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=0.1, size=(n, dim))
        labels = ["A"] * (n // 2) + ["B"] * (n - n // 2)
        X[:n // 2] -= 3.0
        X[n // 2:] += 3.0
        return X, labels

    def test_separable_features_classified_perfectly(self):
        X, labels = self.separable()
        result = classify_group_loocv(X, labels, seed=0)
        assert result.accuracy == 100.0
        assert result.predictions == labels

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(8, 4))
        correct = 0
        total = 0
        for shuffle in range(5):
            labels = list(rng.permutation(["A"] * 4 + ["B"] * 4))
            result = classify_group_loocv(X, labels, seed=shuffle)
            correct += sum(p == t for p, t in
                           zip(result.predictions, labels))
            total += len(labels)
        # binomial(40, 1/2) central 95% band
        assert 0.325 <= correct / total <= 0.675

    def test_accepts_observer_feature_objects(self):
        X, labels = self.separable(seed=1)
        feats = [ObserverFeature(i, row) for i, row in enumerate(X)]
        assert classify_group_loocv(feats, labels, seed=0).accuracy == 100.0

    def test_deterministic_given_seed(self):
        X, labels = self.separable(seed=2)
        a = classify_group_loocv(X, labels, seed=3)
        b = classify_group_loocv(X, labels, seed=3)
        assert a.accuracy == b.accuracy
        assert a.probabilities == b.probabilities

    def test_too_few_observers_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            classify_group_loocv(np.zeros((3, 2)), ["A", "B", "A"])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            classify_group_loocv(np.zeros((4, 2)), ["A"] * 4)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            classify_group_loocv(np.zeros((4, 2)), ["A", "B"])


class TestSemanticReport:
    def test_identity_predictions_correlate_perfectly(self, small_corpus):
        gt = [sp for split in ("train", "val", "test")
              for sp in small_corpus.scanpaths[split]]
        report = semantic_report(gt, gt, small_corpus.scenes)
        for cat in ("background", "nonsocial", "social"):
            entry = report["correlations"][cat]
            if not entry["degenerate"]:
                assert entry["rho"] == pytest.approx(1.0, abs=1e-12)
                assert entry["p_value"] < 0.05

    def test_group_tables_present(self, small_corpus):
        gt = [sp for split in ("train", "val", "test")
              for sp in small_corpus.scanpaths[split]]
        groups = {p.id: p.group for p in small_corpus.profiles}
        report = semantic_report(gt, gt, small_corpus.scenes, groups=groups)
        for side in ("ground_truth", "predicted"):
            table = report["group_comparison"][side]
            for cat in ("background", "nonsocial", "social"):
                assert np.isfinite(table[cat]["p_value"])

    def test_bad_group_count_rejected(self, small_corpus):
        gt = [sp for sp in small_corpus.scanpaths["train"]]
        groups = {p.id: str(p.id) for p in small_corpus.profiles}
        with pytest.raises(ValueError, match="2 groups"):
            semantic_report(gt, gt, small_corpus.scenes, groups=groups)
