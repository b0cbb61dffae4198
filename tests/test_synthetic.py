"""Generator tests: scenes, profiles, sampling, corpus assembly."""

import numpy as np
import pytest

from gazelab.metrics import scanmatch
from gazelab.scanpath import DUR_CLAMP_MS, cell_centers, grid_cells
from gazelab.synthetic import (
    CATEGORIES,
    IOR_SIGMA,
    CorpusConfig,
    build_corpus,
    generate_profiles,
    generate_scene,
    generate_scenes,
    priority_map,
    sample_gt_scanpath,
    smoke_config,
    split_counts,
)


def small_config():
    return smoke_config()


class TestScenes:
    def test_same_seed_bit_identical(self):
        cfg = small_config()
        a = generate_scenes(3, cfg, 11)
        b = generate_scenes(3, cfg, 11)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.E, sb.E)
            np.testing.assert_array_equal(sa.roi_mask, sb.roi_mask)

    def test_zero_scenes_empty(self):
        assert generate_scenes(0, small_config(), 1) == []

    def test_nonnegative_features(self):
        for scene in generate_scenes(5, small_config(), 3):
            assert scene.E.min() >= 0.0

    def test_blob_mass_matches_analytic_gaussian(self):
        # discrete channel mass vs 2 pi sigma^2 amp per blob, 64x64 grid
        cfg = CorpusConfig(height=64, width=64)
        cell_area = 1.0 / (64 * 64)
        for scene_id in range(4):
            scene = generate_scene(cfg, 0, scene_id)
            semantic = cfg.n_social_channels + cfg.n_nonsocial_channels
            for ch in range(semantic):
                analytic = sum(
                    2.0 * np.pi * b.sigma**2 * b.amp
                    for b in scene.blobs
                    if b.channel == ch
                )
                if analytic == 0.0:
                    continue
                mass = scene.E[ch].sum() * cell_area
                assert abs(mass - analytic) / analytic < 0.02

    def test_roi_mask_has_all_categories_across_batch(self):
        scenes = generate_scenes(10, small_config(), 5)
        seen = set()
        for scene in scenes:
            seen.update(np.unique(scene.roi_mask).tolist())
        assert seen == {0, 1, 2}


class TestProfiles:
    def test_social_preference_margin(self):
        cfg = CorpusConfig()
        profiles = generate_profiles(cfg, 0)
        k = cfg.n_social_channels
        a = np.mean([p.channel_pref[:k].mean() for p in profiles if p.group == "A"])
        b = np.mean([p.channel_pref[:k].mean() for p in profiles if p.group == "B"])
        assert b - a >= 0.3

    def test_pairwise_distinct(self):
        cfg = CorpusConfig()
        profiles = generate_profiles(cfg, 1)
        for i in range(len(profiles)):
            for j in range(i + 1, len(profiles)):
                gap = np.max(
                    np.abs(profiles[i].channel_pref - profiles[j].channel_pref)
                )
                assert gap > 0.0

    def test_deterministic(self):
        cfg = CorpusConfig(n_observers=6, n_group_a=3)
        a = generate_profiles(cfg, 9)
        b = generate_profiles(cfg, 9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.channel_pref, pb.channel_pref)
            assert (pa.center_bias, pa.temp, pa.log_dur_mean) == (
                pb.center_bias,
                pb.temp,
                pb.log_dur_mean,
            )

    def test_group_a_higher_center_bias_and_shorter_durations(self):
        cfg = CorpusConfig()
        profiles = generate_profiles(cfg, 2)
        cb_a = np.mean([p.center_bias for p in profiles if p.group == "A"])
        cb_b = np.mean([p.center_bias for p in profiles if p.group == "B"])
        dur_a = np.mean([p.log_dur_mean for p in profiles if p.group == "A"])
        dur_b = np.mean([p.log_dur_mean for p in profiles if p.group == "B"])
        assert cb_a > cb_b
        assert dur_a < dur_b


class TestSampling:
    def test_huge_ior_forbids_consecutive_repeats(self):
        cfg = small_config()
        scene = generate_scene(cfg, 4, 0)
        profile = generate_profiles(cfg, 4)[0]
        profile.ior_strength = 1e6
        sp = sample_gt_scanpath(profile, scene, 12, 0)
        cells = [(int(f.x * cfg.width), int(f.y * cfg.height)) for f in sp.fixations]
        for prev, cur in zip(cells, cells[1:]):
            assert prev != cur

    def test_tiny_temp_is_greedy(self):
        cfg = small_config()
        scene = generate_scene(cfg, 4, 1)
        profile = generate_profiles(cfg, 4)[0]
        profile.temp = 1e-6
        profile.ior_strength = 0.0
        p = priority_map(profile, scene)
        row, col = np.unravel_index(np.argmax(p), p.shape)
        sp = sample_gt_scanpath(profile, scene, 5, 3)
        for f in sp.fixations:
            assert int(f.x * cfg.width) == col and int(f.y * cfg.height) == row

    def test_first_fixation_frequencies_match_priority(self):
        # Monte Carlo over 1e5 seeds vs the exact step-one map, 3 sigma bounds
        cfg = small_config()
        scene = generate_scene(cfg, 8, 0)
        profile = generate_profiles(cfg, 8)[0]
        # moderate temp keeps every cell's expected count in the normal-
        # approximation regime; the check targets the sampler, not a tuning
        profile.temp = 0.3
        p = priority_map(profile, scene).reshape(-1)
        n = 100_000
        counts = np.zeros(p.size)
        for s in range(n):
            sp = sample_gt_scanpath(profile, scene, 1, s)
            f = sp.fixations[0]
            row = min(int(f.y * cfg.height), cfg.height - 1)
            col = min(int(f.x * cfg.width), cfg.width - 1)
            counts[row * cfg.width + col] += 1
        freq = counts / n
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(freq - p) <= 3.0 * sigma + 1e-12)

    def test_durations_clamped_and_positive(self):
        cfg = small_config()
        scene = generate_scene(cfg, 1, 0)
        profile = generate_profiles(cfg, 1)[0]
        sp = sample_gt_scanpath(profile, scene, 20, 5)
        durs = np.array([f.dur_ms for f in sp.fixations])
        assert np.all(durs >= 50.0) and np.all(durs <= 5000.0)

    def test_matches_priority_map_per_fixation(self):
        # the reference: the whole priority map recomputed per fixation,
        # with the same draws from the same stream
        cfg = small_config()
        scene = generate_scene(cfg, 6, 2)
        centers = cell_centers(cfg.height, cfg.width)
        for profile in generate_profiles(cfg, 6):
            rng = np.random.default_rng([6, profile.id])
            ior = np.zeros((cfg.height, cfg.width))
            want = []
            for _ in range(8):
                p = priority_map(profile, scene, ior).reshape(-1)
                x, y = centers[int(rng.choice(p.size, p=p))].tolist()
                dur = float(np.exp(rng.normal(profile.log_dur_mean,
                                              profile.log_dur_sd)))
                want.append((x, y, float(np.clip(dur, *DUR_CLAMP_MS))))
                ior = ior + np.exp(
                    -((centers[:, 0] - x) ** 2 + (centers[:, 1] - y) ** 2)
                    / (2.0 * IOR_SIGMA ** 2)).reshape(ior.shape)
            sp = sample_gt_scanpath(profile, scene, 8, [6, profile.id])
            assert [(f.x, f.y, f.dur_ms) for f in sp.fixations] == want

    def test_deterministic_per_seed(self):
        cfg = small_config()
        scene = generate_scene(cfg, 2, 0)
        profile = generate_profiles(cfg, 2)[1]
        a = sample_gt_scanpath(profile, scene, 6, 42)
        b = sample_gt_scanpath(profile, scene, 6, 42)
        assert a.fixations == b.fixations


class TestCorpus:
    def test_split_counts(self):
        assert split_counts(10) == (7, 1, 2)
        assert split_counts(60) == (42, 6, 12)
        assert split_counts(3) == (1, 1, 1)
        with pytest.raises(ValueError, match="at least 3"):
            split_counts(2)

    def test_partition_and_observer_coverage(self):
        cfg = small_config()
        corpus = build_corpus(cfg, 0)
        ids = sum((corpus.split_ids[s] for s in ("train", "val", "test")), [])
        assert sorted(ids) == list(range(cfg.n_scenes))
        for split in ("train", "val", "test"):
            observers = {sp.observer_id for sp in corpus.scanpaths[split]}
            assert observers == set(range(cfg.n_observers))
            pairs = {(sp.image_id, sp.observer_id) for sp in corpus.scanpaths[split]}
            assert len(pairs) == len(corpus.scanpaths[split])
            assert len(pairs) == len(corpus.split_ids[split]) * cfg.n_observers

    def test_regeneration_identical(self):
        cfg = small_config()
        a = build_corpus(cfg, 5)
        b = build_corpus(cfg, 5)
        assert a.split_ids == b.split_ids
        for split in a.scanpaths:
            assert a.scanpaths[split] == b.scanpaths[split]
        for sa, sb in zip(a.scenes, b.scenes):
            np.testing.assert_array_equal(sa.E, sb.E)


    def test_scene_past_value_bound_rejected(self):
        # configs only: nothing is allocated
        CorpusConfig(height=1182, width=1182)  # 16,765,488 values
        with pytest.raises(ValueError, match=(
                r"^CorpusConfig\(n_scenes=60, .*height=1183, width=1183, "
                r"channels=12, .*\) has 16793868 values per scene, more than "
                r"16777216$")):
            CorpusConfig(height=1183, width=1183)


class TestSignal:
    def test_identifiability_same_profile_closer(self):
        # the ranking experiments need the generator itself to separate observers
        cfg = CorpusConfig()
        profiles = generate_profiles(cfg, 7)
        scene = generate_scene(cfg, 999, 0)
        same, cross = [], []
        for s in range(50):
            drawn = {
                p.id: (
                    sample_gt_scanpath(p, scene, 6, [s, 1, p.id]),
                    sample_gt_scanpath(p, scene, 6, [s, 2, p.id]),
                )
                for p in profiles
            }
            for p in profiles:
                same.append(scanmatch(drawn[p.id][0], drawn[p.id][1]))
            for i in range(len(profiles)):
                for j in range(i + 1, len(profiles)):
                    cross.append(scanmatch(drawn[i][0], drawn[j][1]))
        assert np.mean(same) > np.mean(cross)

    def test_roi_coverage_over_twenty_scenes(self):
        cfg = CorpusConfig()
        scenes = generate_scenes(20, cfg, 7)
        profiles = generate_profiles(cfg, 7)
        counts = {"background": 0, "nonsocial": 0, "social": 0}
        for scene in scenes:
            for p in profiles:
                sp = sample_gt_scanpath(p, scene, 6, [7, 3, scene.id, p.id])
                xy = sp.xy()
                for code in scene.roi_mask.flat[grid_cells(
                        xy[:, 0], xy[:, 1], *scene.roi_mask.shape)]:
                    counts[CATEGORIES[code]] += 1
        total = sum(counts.values())
        for category, count in counts.items():
            assert count / total > 0.05, f"{category} under 5%"
