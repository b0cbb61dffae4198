"""On-disk formats: gaze records, scenes, observers, checkpoints, PGM.

Everything is JSON or JSON Lines with an embedded schema version string
(``isp-gaze-v1`` and friends) so format drift is detectable; the only
binary artifact is the 8-bit PGM saliency image. Readers validate
strictly and name the offending line, writers are deterministic so equal
inputs give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import coerce_section
from .model import ModelConfig, ScanpathModel, init_params
from .scanpath import Fixation, Scanpath
from .synthetic import (
    CATEGORIES,
    Blob,
    Corpus,
    CorpusConfig,
    ObserverProfile,
    SyntheticScene,
)
from .tensor import Tensor

GAZE_FORMAT = "isp-gaze-v1"
SCENE_FORMAT = "isp-scene-v2"
CKPT_FORMAT = "isp-ckpt-v2"
OBSERVERS_FORMAT = "isp-observers-v1"
MANIFEST_FORMAT = "isp-corpus-v1"

SPLITS = ("train", "val", "test")


def _parse_json_line(path, lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{lineno}: invalid JSON: {err}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object")
    return record


def _check_header(path, lines, expected: str) -> None:
    if not lines:
        raise ValueError(f"{path}: empty file, expected {expected} header")
    header = _parse_json_line(path, 1, lines[0])
    if header.get("format") != expected:
        raise ValueError(
            f"{path}:1: expected format {expected!r}, "
            f"got {header.get('format')!r}")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # the bound rejects inf, nan and integers too large for a float
    return (_is_integer(value) or isinstance(value, float)) and \
        abs(value) <= sys.float_info.max


def _require_keys(path, lineno: int, record: dict, keys: tuple) -> None:
    missing = sorted(set(keys) - set(record))
    if missing:
        raise ValueError(f"{path}:{lineno}: missing keys {missing}")
    extra = sorted(set(record) - set(keys))
    if extra:
        raise ValueError(f"{path}:{lineno}: unexpected keys {extra}")


def write_scanpaths(scanpaths, path) -> None:
    lines = [json.dumps({"format": GAZE_FORMAT})]
    for sp in scanpaths:
        lines.append(json.dumps({
            "image_id": int(sp.image_id),
            "observer_id": int(sp.observer_id),
            "fixations": [[fix.x, fix.y, fix.dur_ms]
                          for fix in sp.fixations],
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def read_scanpaths(path) -> list:
    lines = Path(path).read_text().splitlines()
    _check_header(path, lines, GAZE_FORMAT)
    scanpaths = []
    for lineno, line in enumerate(lines[1:], start=2):
        record = _parse_json_line(path, lineno, line)
        _require_keys(path, lineno, record,
                      ("image_id", "observer_id", "fixations"))
        if not isinstance(record["fixations"], list) or \
                not record["fixations"]:
            raise ValueError(
                f"{path}:{lineno}: fixations must be a nonempty list")
        fixations = []
        for entry in record["fixations"]:
            if not isinstance(entry, list) or len(entry) != 3 or \
                    not all(_is_finite_number(v) for v in entry):
                raise ValueError(
                    f"{path}:{lineno}: fixation must be [x, y, dur_ms] "
                    f"of finite numbers, got {entry!r}")
            x, y, dur = (float(v) for v in entry)
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                raise ValueError(
                    f"{path}:{lineno}: coordinate out of [0,1]: "
                    f"({x}, {y})")
            if dur <= 0.0:
                raise ValueError(
                    f"{path}:{lineno}: non-positive duration {dur}")
            fixations.append(Fixation(x, y, dur))
        for key in ("image_id", "observer_id"):
            if not _is_integer(record[key]):
                raise ValueError(
                    f"{path}:{lineno}: {key} must be a JSON integer, "
                    f"got {record[key]!r}")
        scanpaths.append(Scanpath(image_id=record["image_id"],
                                  observer_id=record["observer_id"],
                                  fixations=fixations))
    return scanpaths


def write_scenes(scenes, path) -> None:
    lines = [json.dumps({"format": SCENE_FORMAT})]
    for scene in scenes:
        lines.append(json.dumps({
            "id": int(scene.id),
            "E": scene.E.tolist(),
            "roi_mask": scene.roi_mask.tolist(),
            "blobs": [dataclasses.asdict(blob) for blob in scene.blobs],
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def _numeric_array(path, lineno: int, key: str, value, kinds: str):
    """``value`` as an array whose dtype kind is one of ``kinds``."""
    try:
        arr = np.asarray(value)
    except (ValueError, OverflowError):
        arr = None  # ragged nesting
    if arr is None or arr.dtype.kind not in kinds:
        what = "integers" if kinds == "iu" else "numbers"
        raise ValueError(f"{path}:{lineno}: {key} must be a nested list of "
                         f"{what} of equal lengths")
    return arr


def read_scenes(path, shape: tuple | None = None) -> list:
    """Scenes of a scene file; ``shape`` is the (C, H, W) every E must have.

    E must be a finite 3-D array and roi_mask an (H, W) integer array of
    ``CATEGORIES`` codes.
    """
    lines = Path(path).read_text().splitlines()
    _check_header(path, lines, SCENE_FORMAT)
    scenes = []
    for lineno, line in enumerate(lines[1:], start=2):
        record = _parse_json_line(path, lineno, line)
        _require_keys(path, lineno, record, ("id", "E", "roi_mask", "blobs"))
        if not _is_integer(record["id"]):
            raise ValueError(f"{path}:{lineno}: id must be a JSON integer, "
                             f"got {record['id']!r}")
        E = _numeric_array(path, lineno, "E", record["E"], "iuf")
        if E.ndim != 3 or 0 in E.shape or not np.isfinite(E).all():
            raise ValueError(f"{path}:{lineno}: E must be a nonempty (C, H, W) "
                             f"array of finite numbers, got shape {E.shape}")
        if shape is not None and E.shape != tuple(shape):
            raise ValueError(f"{path}:{lineno}: E has shape {E.shape}, "
                             f"expected {tuple(shape)}")
        roi = _numeric_array(path, lineno, "roi_mask", record["roi_mask"],
                             "iu")
        if roi.shape != E.shape[1:]:
            raise ValueError(f"{path}:{lineno}: roi_mask has shape "
                             f"{roi.shape}, expected {E.shape[1:]}")
        if roi.min() < 0 or roi.max() >= len(CATEGORIES):
            raise ValueError(f"{path}:{lineno}: roi_mask codes must lie in "
                             f"[0, {len(CATEGORIES) - 1}]")
        try:
            blobs = [Blob(**blob) for blob in record["blobs"]]
        except TypeError as err:
            raise ValueError(f"{path}:{lineno}: bad blob entry: {err}") \
                from None
        scenes.append(SyntheticScene(
            id=record["id"],
            E=E.astype(float),
            roi_mask=roi.astype(np.int64),
            blobs=blobs,
        ))
    return scenes


_PROFILE_KEYS = ("id", "group", "channel_pref", "center_bias",
                 "ior_strength", "temp", "log_dur_mean", "log_dur_sd")


def write_observers(profiles, path) -> None:
    payload = {
        "format": OBSERVERS_FORMAT,
        "observers": [{
            "id": int(p.id),
            "group": p.group,
            "channel_pref": p.channel_pref.tolist(),
            "center_bias": p.center_bias,
            "ior_strength": p.ior_strength,
            "temp": p.temp,
            "log_dur_mean": p.log_dur_mean,
            "log_dur_sd": p.log_dur_sd,
        } for p in profiles],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_observers(path) -> list:
    data = json.loads(Path(path).read_text())
    if data.get("format") != OBSERVERS_FORMAT:
        raise ValueError(
            f"{path}: expected format {OBSERVERS_FORMAT!r}, "
            f"got {data.get('format')!r}")
    profiles = []
    for i, record in enumerate(data.get("observers", [])):
        _require_keys(path, i, record, _PROFILE_KEYS)
        kwargs = dict(record)
        kwargs["channel_pref"] = np.asarray(record["channel_pref"],
                                            dtype=float)
        profiles.append(ObserverProfile(**kwargs))
    return profiles


def write_checkpoint(model: ScanpathModel, path) -> None:
    payload = {
        "format": CKPT_FORMAT,
        "config": dataclasses.asdict(model.config),
        "params": {name: {"shape": list(p.data.shape),
                          "data": p.data.ravel().tolist()}
                   for name, p in sorted(model.params.items())},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def read_checkpoint(path) -> ScanpathModel:
    data = json.loads(Path(path).read_text())
    if data.get("format") != CKPT_FORMAT:
        raise ValueError(
            f"{path}: expected format {CKPT_FORMAT!r}, "
            f"got {data.get('format')!r}")
    try:
        config = coerce_section(ModelConfig, data.get("config", {}), "config")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = init_params(config, seed=0)
    stored = data.get("params", {})
    missing = sorted(set(expected) - set(stored))
    if missing:
        raise ValueError(f"{path}: checkpoint missing parameters {missing}")
    extra = sorted(set(stored) - set(expected))
    if extra:
        raise ValueError(f"{path}: unexpected parameters {extra}")
    params = {}
    for name, ref in expected.items():
        entry = stored[name]
        values = np.asarray(entry["data"], dtype=float)
        shape = tuple(entry["shape"])
        if shape != ref.data.shape:
            raise ValueError(
                f"{path}: parameter {name} has shape {shape}, "
                f"expected {ref.data.shape}")
        params[name] = Tensor(values.reshape(shape), trainable=True)
    return ScanpathModel(config, params=params)


def write_corpus(corpus: Corpus, out_dir) -> dict:
    """Write scenes, observers, per-split gaze files, and the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"scenes": "scenes.jsonl", "observers": "observers.json",
             "gaze": {split: f"gaze_{split}.jsonl" for split in SPLITS}}
    write_scenes(corpus.scenes, out / files["scenes"])
    write_observers(corpus.profiles, out / files["observers"])
    for split in SPLITS:
        write_scanpaths(corpus.scanpaths[split], out / files["gaze"][split])
    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": int(corpus.seed),
        "config": dataclasses.asdict(corpus.config),
        "splits": {split: [int(i) for i in ids]
                   for split, ids in corpus.split_ids.items()},
        "files": files,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"manifest": out / "manifest.json"}


def read_corpus(data_dir) -> Corpus:
    root = Path(data_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"{manifest_path}: no corpus manifest found")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{manifest_path}: expected format {MANIFEST_FORMAT!r}, "
            f"got {manifest.get('format')!r}")
    try:
        config = coerce_section(CorpusConfig, manifest.get("config", {}),
                                "corpus")
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    missing = sorted({"seed", "splits", "files"} - set(manifest))
    if missing:
        raise ValueError(f"{manifest_path}: missing keys {missing}")
    seed, files = manifest["seed"], manifest["files"]
    splits = manifest["splits"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f'{manifest_path}: "seed" must be an integer, '
                         f"got {seed!r}")
    gaze = files.get("gaze") if isinstance(files, dict) else None
    if not isinstance(gaze, dict):
        raise ValueError(f'{manifest_path}: "files" must be an object '
                         'holding a "gaze" object')
    unnamed = [key for key in ("scenes", "observers")
               if not isinstance(files.get(key), str)]
    unnamed += [f"gaze.{split}" for split in SPLITS
                if not isinstance(gaze.get(split), str)]
    if unnamed:
        raise ValueError(f'{manifest_path}: "files" lacks a file name for '
                         f"{unnamed}")
    if not isinstance(splits, dict) or sorted(splits) != sorted(SPLITS) or \
            not all(isinstance(ids, list) and all(
                isinstance(i, int) and not isinstance(i, bool) for i in ids)
                for ids in splits.values()):
        raise ValueError(f'{manifest_path}: "splits" must map each of '
                         f"{list(SPLITS)} to a list of integer image ids")
    scenes = read_scenes(root / files["scenes"],
                         (config.channels, config.height, config.width))
    profiles = read_observers(root / files["observers"])
    scanpaths = {split: read_scanpaths(root / gaze[split])
                 for split in SPLITS}
    split_ids = {split: list(ids) for split, ids in splits.items()}
    return Corpus(config=config, seed=seed, scenes=scenes,
                  profiles=profiles, split_ids=split_ids,
                  scanpaths=scanpaths)


def write_pgm(grid, path) -> None:
    """8-bit binary PGM of a nonnegative 2-D map, max-normalized."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"PGM needs a 2-D grid, got shape {g.shape}")
    peak = g.max()
    if peak > 0:
        scaled = np.round(g / peak * 255.0)
    else:
        scaled = np.zeros_like(g)
    h, w = g.shape
    header = f"P5\n{w} {h}\n255\n".encode()
    Path(path).write_bytes(header + scaled.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back a PGM written by write_pgm (binary 8-bit, single header)."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3][:w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).astype(float)
