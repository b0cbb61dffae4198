"""Seeded synthetic gaze corpus: scenes, observer profiles, ground truth.

Real stimuli and eye-tracking are out of scope. Instead, scenes are stacks
of Gaussian blobs on dedicated semantic channels plus smooth background
channels, and observers are trait vectors (channel preferences, center
bias, inhibition of return, temperature, log-normal duration statistics).
Ground-truth scanpaths are drawn from each observer's own priority map, so
individual differences in the data are known by construction and
recoverable: group A down-weights social channels, fixates briefly, and
hugs the center; group B is the mirror image.

Everything is a pure function of (config, seed). The config sets only the
corpus extents; the blob shapes, the group trait bases and jitters and the
duration ranges are the module constants below. Scene i and the scanpath
of (scene, observer) each derive their own child seed, so generation is
order-independent and trivially parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scanpath import DUR_CLAMP_MS, Fixation, Scanpath, cell_centers

CATEGORIES = ("background", "nonsocial", "social")
BACKGROUND, NONSOCIAL, SOCIAL = 0, 1, 2


# scene and trait distributions of every corpus
BLOB_COUNT = (2, 5)
BLOB_SIGMA = (0.05, 0.08)
BLOB_AMP = (0.7, 1.2)
# semantic blobs keep this distance from the screen center, so center
# bias and semantic preference stay separately identifiable
BLOB_CENTER_GAP = 0.15
BACKGROUND_LEVEL = 0.25
CENTER_SIGMA = 0.32
IOR_SIGMA = 0.10
# group trait distributions: (group A, group B) bases
SOCIAL_PREF = (0.15, 1.05)
NONSOCIAL_PREF = (0.95, 0.60)
BACKGROUND_PREF = 0.15
PREF_JITTER = 0.25
CENTER_BIAS = (1.10, 0.35)
CENTER_BIAS_JITTER = 0.15
IOR_STRENGTH = 1.0
IOR_STRENGTH_JITTER = 0.25
TEMP = 0.16
TEMP_JITTER = 0.05
DUR_RANGE = ((150.0, 280.0), (320.0, 640.0))
LOG_DUR_SD = 0.25
# the most values a scene's (C, H, W) feature stack may hold: 2**24 float64
# values are 128 MiB, and every scene is built, written and read whole
MAX_SCENE_VALUES = 1 << 24


@dataclass
class CorpusConfig:
    """Corpus extents; defaults define the standard benchmark corpus.

    Observers 0..n_group_a-1 form group A, the rest group B.
    """

    n_scenes: int = 60
    n_observers: int = 8
    n_group_a: int = 4
    height: int = 16
    width: int = 16
    channels: int = 12
    n_social_channels: int = 4
    n_nonsocial_channels: int = 4
    scanpath_len: int = 6

    def __post_init__(self):
        # every scene places a social and a nonsocial blob, and every
        # scanpath holds a fixation
        for name in ("n_social_channels", "n_nonsocial_channels",
                     "scanpath_len"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_social_channels + self.n_nonsocial_channels >= self.channels:
            raise ValueError(
                f"need at least one background channel: {self.channels} total, "
                f"{self.n_social_channels}+{self.n_nonsocial_channels} semantic"
            )
        size = self.channels * self.height * self.width
        if size > MAX_SCENE_VALUES:
            raise ValueError(f"{self} has {size} values per scene, more than "
                             f"{MAX_SCENE_VALUES}")
        if not 0 < self.n_group_a < self.n_observers:
            raise ValueError(
                f"group split {self.n_group_a} of {self.n_observers} observers "
                "must leave both groups nonempty"
            )


@dataclass
class Blob:
    channel: int
    category: int
    cx: float
    cy: float
    sigma: float
    amp: float


@dataclass
class SyntheticScene:
    """Feature stack E and ROI labels."""

    id: int
    E: np.ndarray  # (C, H, W), nonnegative
    roi_mask: np.ndarray  # (H, W) of category codes
    blobs: list[Blob] = field(default_factory=list)

    @property
    def grid(self) -> tuple[int, int]:
        return self.E.shape[1], self.E.shape[2]


@dataclass
class ObserverProfile:
    id: int
    group: str  # "A" or "B"
    channel_pref: np.ndarray  # (C,)
    center_bias: float
    ior_strength: float
    temp: float
    log_dur_mean: float
    log_dur_sd: float

    def __post_init__(self):
        if self.temp <= 0:
            raise ValueError(f"profile {self.id}: temp must be > 0, got {self.temp}")
        if self.log_dur_sd <= 0:
            raise ValueError(f"profile {self.id}: log_dur_sd must be > 0")


def _gaussian_bump(centers, cx, cy, sigma, amp=1.0) -> np.ndarray:
    """Gaussian of peak ``amp`` at (cx, cy) on each row of ``cell_centers``."""
    gx, gy = centers[:, 0], centers[:, 1]
    return amp * np.exp(-(((gx - cx) ** 2) + ((gy - cy) ** 2)) / (2.0 * sigma**2))


def _smooth_field(rng, height, width, level) -> np.ndarray:
    """Low-level background texture: blurred uniform noise scaled to [0, level]."""
    raw = rng.uniform(size=(height + 4, width + 4))
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0])
    kernel /= kernel.sum()
    for axis in (0, 1):
        raw = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), axis, raw)
    field_ = raw[2:-2, 2:-2]
    span = field_.max() - field_.min()
    if span > 0:
        field_ = (field_ - field_.min()) / span
    return level * field_


def generate_scene(config: CorpusConfig, seed, scene_id: int) -> SyntheticScene:
    """One scene from its own child seed; see generate_scenes."""
    rng = np.random.default_rng([_as_seed(seed), 0, scene_id])
    h, w, c = config.height, config.width, config.channels
    centers = cell_centers(h, w)
    E = np.zeros((c, h, w))
    for ch in range(config.n_social_channels + config.n_nonsocial_channels, c):
        E[ch] = _smooth_field(rng, h, w, BACKGROUND_LEVEL)

    n_blobs = int(rng.integers(BLOB_COUNT[0], BLOB_COUNT[1] + 1))
    blobs: list[Blob] = []
    for b in range(n_blobs):
        # first two blobs pin one social and one nonsocial region per scene
        if b == 0:
            category = SOCIAL
        elif b == 1:
            category = NONSOCIAL
        else:
            category = SOCIAL if rng.uniform() < 0.5 else NONSOCIAL
        if category == SOCIAL:
            channel = int(rng.integers(0, config.n_social_channels))
        else:
            channel = config.n_social_channels + int(
                rng.integers(0, config.n_nonsocial_channels)
            )
        sigma = float(rng.uniform(*BLOB_SIGMA))
        margin = 3.5 * sigma + 0.02  # keep analytic mass on the canvas
        while True:
            cx = float(rng.uniform(margin, 1.0 - margin))
            cy = float(rng.uniform(margin, 1.0 - margin))
            if (cx - 0.5) ** 2 + (cy - 0.5) ** 2 >= BLOB_CENTER_GAP**2:
                break
        amp = float(rng.uniform(*BLOB_AMP))
        E[channel] += _gaussian_bump(centers, cx, cy, sigma, amp).reshape(h, w)
        blobs.append(Blob(channel, category, cx, cy, sigma, amp))

    roi_mask = np.zeros((h, w), dtype=np.int64)
    strongest = np.zeros((h, w))
    for blob in blobs:
        value = _gaussian_bump(centers, blob.cx, blob.cy, blob.sigma,
                               blob.amp).reshape(h, w)
        owned = (value >= 0.5 * blob.amp) & (value > strongest)
        roi_mask[owned] = blob.category
        strongest = np.maximum(strongest, np.where(owned, value, 0.0))

    return SyntheticScene(id=scene_id, E=E, roi_mask=roi_mask, blobs=blobs)


def generate_scenes(n: int, config: CorpusConfig, seed) -> list[SyntheticScene]:
    """n scenes, bit-identical under the same (config, seed)."""
    return [generate_scene(config, seed, i) for i in range(n)]


def generate_profiles(config: CorpusConfig, seed) -> list[ObserverProfile]:
    """Observer trait vectors in two groups.

    Group A (ids 0..n_group_a-1) down-weights social channels, raises center bias,
    and fixates briefly; group B mirrors it. Per-observer jitter plus an
    evenly spread duration scale make every profile unique, so scanpaths
    carry an individual signature as well as a group one.
    """
    rng = np.random.default_rng([_as_seed(seed), 1])
    c, n_a, n_observers = config.channels, config.n_group_a, config.n_observers
    n_soc, n_non = config.n_social_channels, config.n_nonsocial_channels
    profiles = []
    for obs in range(n_observers):
        group = "A" if obs < n_a else "B"
        gi = 0 if group == "A" else 1
        pref = np.empty(c)
        pref[:n_soc] = SOCIAL_PREF[gi] + rng.normal(0.0, PREF_JITTER, n_soc)
        pref[n_soc : n_soc + n_non] = NONSOCIAL_PREF[gi] + rng.normal(
            0.0, PREF_JITTER, n_non
        )
        pref[n_soc + n_non :] = BACKGROUND_PREF + rng.normal(
            0.0, 0.2 * PREF_JITTER, c - n_soc - n_non
        )
        lo, hi = DUR_RANGE[gi]
        rank = obs if group == "A" else obs - n_a
        size = n_a if group == "A" else n_observers - n_a
        frac = rank / max(size - 1, 1)
        log_dur = np.log(lo) + frac * (np.log(hi) - np.log(lo)) + rng.normal(0.0, 0.03)
        profiles.append(
            ObserverProfile(
                id=obs,
                group=group,
                channel_pref=pref,
                center_bias=max(
                    0.0, CENTER_BIAS[gi] + rng.normal(0.0, CENTER_BIAS_JITTER)
                ),
                ior_strength=max(
                    0.0, IOR_STRENGTH + rng.normal(0.0, IOR_STRENGTH_JITTER)
                ),
                temp=max(0.05, TEMP + rng.normal(0.0, TEMP_JITTER)),
                log_dur_mean=float(log_dur),
                log_dur_sd=LOG_DUR_SD,
            )
        )
    return profiles


def _fixed_drive(profile: ObserverProfile, scene: SyntheticScene,
                 centers: np.ndarray) -> np.ndarray:
    """The part of the priority logits that no fixation changes, over the
    scene's ``cell_centers``; see ``priority_map``."""
    bias = _gaussian_bump(centers, 0.5, 0.5, CENTER_SIGMA).reshape(scene.grid)
    drive = np.tensordot(profile.channel_pref, scene.E, axes=1)
    return drive + profile.center_bias * bias


def _inhibited_map(profile: ObserverProfile, drive: np.ndarray, ior) -> np.ndarray:
    """Spatial softmax of (drive - ior_strength IOR) / temp."""
    flat = ((drive - profile.ior_strength * ior) / profile.temp).reshape(-1)
    p = np.exp(flat - flat.max())
    return (p / p.sum()).reshape(drive.shape)


def priority_map(profile: ObserverProfile, scene: SyntheticScene,
                 ior: np.ndarray | float = 0.0) -> np.ndarray:
    """Spatial softmax of preference-weighted features with bias terms.

    P = softmax((sum_c pref_c E_c + center_bias CB - ior_strength IOR) / temp),
    CB the Gaussian of peak 1 at the screen center.
    """
    drive = _fixed_drive(profile, scene, cell_centers(*scene.grid))
    return _inhibited_map(profile, drive, ior)


def sample_gt_scanpath(
    profile: ObserverProfile, scene: SyntheticScene, T: int, seed
) -> Scanpath:
    """Draw T fixations from the profile's evolving priority map.

    Each fixation adds a Gaussian inhibition bump at its cell, so revisits
    are suppressed in proportion to ior_strength; the rest of the map's
    drive is computed once. Fixations land on cell centers; durations are
    log-normal draws clamped to DUR_CLAMP_MS.
    """
    if T < 1:
        raise ValueError("scanpath length must be >= 1")
    rng = np.random.default_rng(seed)
    h, w = scene.grid
    centers = cell_centers(h, w)
    drive = _fixed_drive(profile, scene, centers)
    ior = np.zeros((h, w))
    fixations = []
    for _ in range(T):
        p = _inhibited_map(profile, drive, ior)
        idx = int(rng.choice(h * w, p=p.reshape(-1)))
        x, y = centers[idx].tolist()
        dur = float(np.exp(rng.normal(profile.log_dur_mean, profile.log_dur_sd)))
        dur = float(np.clip(dur, *DUR_CLAMP_MS))
        fixations.append(Fixation(x, y, dur))
        ior = ior + _gaussian_bump(centers, x, y, IOR_SIGMA).reshape(h, w)
    return Scanpath(scene.id, profile.id, fixations)


@dataclass
class Corpus:
    """In-memory corpus: scenes, observers, per-split ground-truth scanpaths."""

    config: CorpusConfig
    seed: int
    scenes: list[SyntheticScene]
    profiles: list[ObserverProfile]
    split_ids: dict[str, list[int]]
    scanpaths: dict[str, list[Scanpath]]

    def scene_by_id(self, scene_id: int) -> SyntheticScene:
        return self._index()[scene_id]

    def _index(self) -> dict[int, SyntheticScene]:
        if not hasattr(self, "_scene_index"):
            self._scene_index = {s.id: s for s in self.scenes}
        return self._scene_index


def split_counts(n_scenes: int) -> tuple[int, int, int]:
    """70/10/20 with every split nonempty from 3 scenes up."""
    if n_scenes < 3:
        raise ValueError(f"need at least 3 scenes to split, got {n_scenes}")
    n_train = int(n_scenes * 0.7)
    n_val = max(1, int(n_scenes * 0.1))
    if n_train + n_val >= n_scenes:
        n_train = n_scenes - n_val - 1
    return n_train, n_val, n_scenes - n_train - n_val


def build_corpus(config: CorpusConfig, seed: int) -> Corpus:
    """Scenes, profiles, and one GT scanpath per (scene, observer).

    Scene ids are partitioned 70/10/20 into train/val/test by a seeded
    shuffle; every observer appears in every split. Scanpath randomness is
    keyed per (seed, scene, observer), independent of generation order.
    """
    scenes = generate_scenes(config.n_scenes, config, seed)
    profiles = generate_profiles(config, seed)
    rng = np.random.default_rng([_as_seed(seed), 2])
    order = list(rng.permutation(config.n_scenes))
    n_train, n_val, _ = split_counts(config.n_scenes)
    split_ids = {
        "train": sorted(int(i) for i in order[:n_train]),
        "val": sorted(int(i) for i in order[n_train : n_train + n_val]),
        "test": sorted(int(i) for i in order[n_train + n_val :]),
    }
    by_id = {s.id: s for s in scenes}
    scanpaths: dict[str, list[Scanpath]] = {}
    for split, ids in split_ids.items():
        rows = []
        for scene_id in ids:
            for profile in profiles:
                rows.append(
                    sample_gt_scanpath(
                        profile,
                        by_id[scene_id],
                        config.scanpath_len,
                        [_as_seed(seed), 3, scene_id, profile.id],
                    )
                )
        scanpaths[split] = rows
    return Corpus(
        config=config,
        seed=int(_as_seed(seed)),
        scenes=scenes,
        profiles=profiles,
        split_ids=split_ids,
        scanpaths=scanpaths,
    )


def smoke_config() -> CorpusConfig:
    """Tiny corpus for fast pipeline runs and CLI smoke tests."""
    return CorpusConfig(
        n_scenes=10,
        n_observers=4,
        n_group_a=2,
        height=8,
        width=8,
        channels=6,
        n_social_channels=2,
        n_nonsocial_channels=2,
        scanpath_len=4,
    )


def _as_seed(seed) -> int:
    if isinstance(seed, (list, tuple)):
        raise TypeError("corpus seeds must be single integers")
    return int(seed)
