"""On-disk formats: gaze records, scenes, observers, checkpoints, PGM.

Everything is JSON or JSON Lines with an embedded schema version string
(``isp-gaze-v1`` and friends) so format drift is detectable; the only
binary artifact is the 8-bit PGM saliency image. A checkpoint stores each
parameter's values as the base64 of their little-endian float64 bytes;
the files people author hold decimal numbers. Readers validate strictly
and name the offending line, writers are deterministic so equal inputs
give byte-identical files.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import numpy as np

from .config import coerce_section, is_finite_number, is_integer
from .model import ModelConfig, ScanpathModel, param_shapes
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
CKPT_FORMAT = "isp-ckpt-v5"
OBSERVERS_FORMAT = "isp-observers-v1"
MANIFEST_FORMAT = "isp-corpus-v2"

SPLITS = ("train", "val", "test")


def _read_text(path) -> str:
    """The UTF-8 text of a file; a byte sequence that is not UTF-8 is a
    ValueError naming the file and the line it is on."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split at "\\n" only: the same count
    that names a line in every error, unlike ``str.splitlines``, which also
    splits at form feeds and other separators."""
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _parse_json(path, text: str, lineno: int = 1) -> dict:
    """The JSON object in ``text``, which starts at line ``lineno`` of
    ``path``; errors name the file and the line."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{lineno + err.lineno - 1}: invalid JSON: "
                         f"{err.msg} (column {err.colno})") from None
    except (ValueError, RecursionError) as err:  # digit limit, nesting
        raise ValueError(f"{path}:{lineno}: invalid JSON: {err}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object")
    return record


def read_json(path, expected_format: str | None = None) -> dict:
    """The JSON object a whole file holds, checked for its format tag when
    ``expected_format`` is given."""
    document = _parse_json(path, _read_text(path))
    if expected_format is not None and \
            document.get("format") != expected_format:
        raise ValueError(f"{path}: expected format {expected_format!r}, "
                         f"got {document.get('format')!r}")
    return document


def _check_header(path, lines, expected: str) -> None:
    if not lines:
        raise ValueError(f"{path}: empty file, expected {expected} header")
    header = _parse_json(path, lines[0])
    if header.get("format") != expected:
        raise ValueError(
            f"{path}:1: expected format {expected!r}, "
            f"got {header.get('format')!r}")


def _require_keys(where: str, record: dict, keys: tuple) -> None:
    missing = sorted(set(keys) - set(record))
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    extra = sorted(set(record) - set(keys))
    if extra:
        raise ValueError(f"{where}: unexpected keys {extra}")


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
    """Scanpaths of a gaze file; each record's fixations must pass
    ``Scanpath.validate``, whose error follows the file and line."""
    lines = _read_lines(path)
    _check_header(path, lines, GAZE_FORMAT)
    scanpaths = []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}:{lineno}"
        record = _parse_json(path, line, lineno)
        _require_keys(where, record, ("image_id", "observer_id", "fixations"))
        for key in ("image_id", "observer_id"):
            if not is_integer(record[key]):
                raise ValueError(f"{where}: {key} must be a JSON integer, "
                                 f"got {record[key]!r}")
        rows = _numeric_array(f"{where}: fixations", record["fixations"])
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"{where}: fixations must be a nonempty list "
                             "of [x, y, dur_ms] triples")
        sp = Scanpath(record["image_id"], record["observer_id"],
                      [Fixation(*row) for row in rows.tolist()])
        try:
            sp.validate()
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
        scanpaths.append(sp)
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


def _numeric_array(where: str, value, integers: bool = False) -> np.ndarray:
    """``value``, a number or a list nested to equal lengths, as a float64
    array. Each number must be a JSON integer, or a float unless
    ``integers``, and finite as a float64; a bool is no number. ``where``
    names the value in the error."""
    what = "integers" if integers else "finite numbers"
    leaves = value if isinstance(value, list) else [value]
    # NumPy would read true as 1 and "1.5" as 1.5; the type scan of each
    # level refuses them
    while (kinds := set(map(type, leaves))) == {list}:
        leaves = list(chain.from_iterable(leaves))
    try:
        if kinds <= ({int} if integers else {int, float}):
            array = np.array(value, dtype=float)
            if np.isfinite(array).all():
                return array
    except (ValueError, OverflowError):  # ragged, beyond the float range
        pass
    raise ValueError(f"{where} must be a nested list of {what} of equal lengths")


_BLOB_KEYS = tuple(f.name for f in dataclasses.fields(Blob))


def _read_blobs(where: str, blobs, channels: int) -> list:
    """The blobs of one scene record at ``where``, whose E has ``channels``
    channels."""
    if not isinstance(blobs, list):
        raise ValueError(f"{where}: blobs must be a list, got {blobs!r}")
    for i, blob in enumerate(blobs):
        at = f"{where}: blobs[{i}]"
        if not isinstance(blob, dict):
            raise ValueError(f"{at} must be an object, got {blob!r}")
        _require_keys(at, blob, _BLOB_KEYS)
        for key, bound in (("channel", channels),
                           ("category", len(CATEGORIES))):
            if not is_integer(blob[key]) or not 0 <= blob[key] < bound:
                raise ValueError(f"{at}.{key} must be an integer in "
                                 f"[0, {bound}), got {blob[key]!r}")
        for key in _BLOB_KEYS[2:]:
            if not is_finite_number(blob[key]):
                raise ValueError(f"{at}.{key} must be a finite number, "
                                 f"got {blob[key]!r}")
    return [Blob(**blob) for blob in blobs]


# the generator writes [0, 6], and S @ E multiplies feature values together
MAX_FEATURE_MAGNITUDE = 1e100


def read_scenes(path, shape: tuple | None = None) -> list:
    """Scenes of a scene file; ``shape`` is the (C, H, W) every E must have.

    E must be a 3-D array within +-``MAX_FEATURE_MAGNITUDE``, roi_mask an
    (H, W) integer array of ``CATEGORIES`` codes, and each blob an object
    of the six ``Blob`` fields whose channel indexes E.
    """
    lines = _read_lines(path)
    _check_header(path, lines, SCENE_FORMAT)
    scenes = []
    for lineno, line in enumerate(lines[1:], start=2):
        record = _parse_json(path, line, lineno)
        _require_keys(f"{path}:{lineno}", record,
                      ("id", "E", "roi_mask", "blobs"))
        if not is_integer(record["id"]):
            raise ValueError(f"{path}:{lineno}: id must be a JSON integer, "
                             f"got {record['id']!r}")
        E = _numeric_array(f"{path}:{lineno}: E", record["E"])
        if E.ndim != 3 or 0 in E.shape:
            raise ValueError(f"{path}:{lineno}: E must be a nonempty (C, H, W) "
                             f"array, got shape {E.shape}")
        if shape is not None and E.shape != tuple(shape):
            raise ValueError(f"{path}:{lineno}: E has shape {E.shape}, "
                             f"expected {tuple(shape)}")
        if np.abs(E).max() > MAX_FEATURE_MAGNITUDE:
            raise ValueError(f"{path}:{lineno}: E entries must lie within "
                             f"+-{MAX_FEATURE_MAGNITUDE:g}")
        roi = _numeric_array(f"{path}:{lineno}: roi_mask", record["roi_mask"],
                             integers=True)
        if roi.shape != E.shape[1:]:
            raise ValueError(f"{path}:{lineno}: roi_mask has shape "
                             f"{roi.shape}, expected {E.shape[1:]}")
        if roi.min() < 0 or roi.max() >= len(CATEGORIES):
            raise ValueError(f"{path}:{lineno}: roi_mask codes must lie in "
                             f"[0, {len(CATEGORIES) - 1}]")
        scenes.append(SyntheticScene(
            id=record["id"],
            E=E,
            roi_mask=roi.astype(np.int64),
            blobs=_read_blobs(f"{path}:{lineno}", record["blobs"],
                              E.shape[0]),
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


def read_observers(path, channels: int | None = None) -> list:
    """Observer profiles of an observers file; ``channels`` is the length
    every channel_pref must have. Errors name ``observers[i].key``."""
    records = read_json(path, OBSERVERS_FORMAT).get("observers")
    if not isinstance(records, list):
        raise ValueError(f'{path}: "observers" must be a list')
    profiles = []
    for i, record in enumerate(records):
        where = f"{path}: observers[{i}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where} must be an object")
        _require_keys(where, record, _PROFILE_KEYS)
        if not is_integer(record["id"]):
            raise ValueError(f"{where}.id must be an integer, "
                             f"got {record['id']!r}")
        if not isinstance(record["group"], str):
            raise ValueError(f"{where}.group must be a string, "
                             f"got {record['group']!r}")
        pref = _numeric_array(f"{where}.channel_pref", record["channel_pref"])
        if pref.ndim != 1 or channels not in (None, len(pref)):
            raise ValueError(f"{where}.channel_pref must be a list of "
                             f"{channels or 'C'} finite numbers, got "
                             f"{record['channel_pref']!r}")
        for key in _PROFILE_KEYS[3:]:  # the scalar traits
            if not is_finite_number(record[key]):
                raise ValueError(f"{where}.{key} must be a finite number, "
                                 f"got {record[key]!r}")
        try:
            profiles.append(ObserverProfile(
                **dict(record, channel_pref=pref)))
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return profiles


def write_checkpoint(model: ScanpathModel, path) -> None:
    """Write ``model``'s config and parameters; a non-finite parameter
    value is a ValueError naming the parameter, and nothing is written."""
    params = {}
    for name, p in sorted(model.params.items()):
        if not np.isfinite(p.data).all():
            raise ValueError(f"{path}: parameter {name} holds a non-finite "
                             "value")
        params[name] = {"shape": list(p.data.shape), "data": base64.b64encode(
            p.data.astype("<f8", copy=False).tobytes()).decode("ascii")}
    payload = {"format": CKPT_FORMAT,
               "config": dataclasses.asdict(model.config),
               "params": params}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def _float64_values(where: str, text, size: int) -> np.ndarray:
    """The ``size`` finite values that ``text``, the base64 of their
    little-endian float64 bytes, holds, as a writable native array.
    The length is checked before decoding, so an oversized string costs
    no memory."""
    length = 4 * -(-8 * size // 3)
    if not isinstance(text, str) or len(text) != length:
        got = (f"{len(text)} characters" if isinstance(text, str)
               else type(text).__name__)
        raise ValueError(f"{where}: data must be a base64 string of {length} "
                         f"characters ({size} float64 values), got {got}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{where}: data is not base64: {err}") from None
    if len(raw) != 8 * size:  # padding other than the writer's
        raise ValueError(f"{where}: data holds {len(raw)} bytes, expected "
                         f"{8 * size}")
    values = np.frombuffer(raw, "<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: data holds a non-finite value")
    return values


def read_checkpoint(path) -> ScanpathModel:
    """Model of a checkpoint file.

    ``params`` must hold exactly the parameters ``param_shapes`` gives for
    the stored config, each as {"shape": [...], "data": "..."} with that
    shape and ``data`` the base64 of its prod(shape) finite values as
    row-major little-endian float64 bytes.
    """
    data = read_json(path, CKPT_FORMAT)
    try:
        config = coerce_section(ModelConfig, data.get("config", {}), "config")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = param_shapes(config)
    stored = data.get("params")
    if not isinstance(stored, dict):
        raise ValueError(f'{path}: "params" must be an object')
    missing = sorted(set(expected) - set(stored))
    if missing:
        raise ValueError(f"{path}: checkpoint missing parameters {missing}")
    extra = sorted(set(stored) - set(expected))
    if extra:
        raise ValueError(f"{path}: unexpected parameters {extra}")
    params = {}
    for name, shape in expected.items():
        where = f"{path}: parameter {name}"
        entry = stored[name]
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        _require_keys(where, entry, ("data", "shape"))
        dims = entry["shape"]
        if not isinstance(dims, list) or \
                not all(is_integer(n) and n >= 0 for n in dims):
            raise ValueError(f"{where}: shape must be a list of non-negative "
                             f"integers, got {dims!r}")
        if tuple(dims) != shape:
            raise ValueError(f"{where} has shape {tuple(dims)}, "
                             f"expected {shape}")
        values = _float64_values(where, entry["data"], math.prod(shape))
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
    manifest = read_json(manifest_path, MANIFEST_FORMAT)
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
    if not is_integer(seed):
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
            not all(isinstance(ids, list) and all(map(is_integer, ids))
                    for ids in splits.values()):
        raise ValueError(f'{manifest_path}: "splits" must map each of '
                         f"{list(SPLITS)} to a list of integer image ids")
    scenes_path = root / files["scenes"]
    scenes = read_scenes(scenes_path,
                         (config.channels, config.height, config.width))
    scene_ids = set()
    for lineno, scene in enumerate(scenes, start=2):
        if scene.id in scene_ids:
            raise ValueError(f"{scenes_path}:{lineno}: duplicate scene id "
                             f"{scene.id}")
        scene_ids.add(scene.id)
    for split in SPLITS:
        if not splits[split]:
            raise ValueError(f'{manifest_path}: split "{split}" lists no '
                             "images")
        unknown = sorted(set(splits[split]) - scene_ids)
        if unknown:
            raise ValueError(f'{manifest_path}: split "{split}" lists image '
                             f"ids {unknown} that have no scene in "
                             f"{scenes_path}")
        twice = sorted(i for i, n in Counter(splits[split]).items() if n > 1)
        if twice:
            raise ValueError(f'{manifest_path}: split "{split}" lists image '
                             f"ids {twice} more than once")
    for first, second in combinations(SPLITS, 2):
        shared = sorted(set(splits[first]) & set(splits[second]))
        if shared:
            raise ValueError(f'{manifest_path}: splits "{first}" and '
                             f'"{second}" share image ids {shared}')
    observers_path = root / files["observers"]
    profiles = read_observers(observers_path, config.channels)
    ids = [profile.id for profile in profiles]
    if sorted(ids) != list(range(config.n_observers)):
        raise ValueError(f"{observers_path}: observer ids must be exactly "
                         f"0..{config.n_observers - 1}, one each, got {ids}")
    scanpaths = {split: _read_split(root / gaze[split], split,
                                    set(splits[split]), set(ids),
                                    config.scanpath_len)
                 for split in SPLITS}
    split_ids = {split: list(ids) for split, ids in splits.items()}
    return Corpus(config=config, seed=seed, scenes=scenes,
                  profiles=profiles, split_ids=split_ids,
                  scanpaths=scanpaths)


def _read_split(path, split: str, image_ids: set, observer_ids: set,
                length: int) -> list:
    """The gaze records of one split: each on an image of the split, by a
    known observer, of ``length`` fixations, one per (image, observer)
    pair, and at least one."""
    scanpaths = read_scanpaths(path)
    if not scanpaths:
        raise ValueError(f"{path}: no gaze records for split {split!r}")
    seen = set()
    for lineno, sp in enumerate(scanpaths, start=2):
        if sp.image_id not in image_ids:
            raise ValueError(f"{path}:{lineno}: image_id {sp.image_id} is "
                             f"not an image of split {split!r}")
        if sp.observer_id not in observer_ids:
            raise ValueError(f"{path}:{lineno}: observer_id "
                             f"{sp.observer_id} is not in the observers file")
        if len(sp) != length:
            raise ValueError(f"{path}:{lineno}: {len(sp)} fixations, but the "
                             f"manifest's corpus.scanpath_len is {length}")
        key = (sp.image_id, sp.observer_id)
        if key in seen:
            raise ValueError(f"{path}:{lineno}: second record for image "
                             f"{sp.image_id}, observer {sp.observer_id}")
        seen.add(key)
    return scanpaths


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
