"""File format round-trip and validation tests."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazelab.evaluate import predict_split
from gazelab.formats import (
    read_checkpoint,
    read_corpus,
    read_observers,
    read_scanpaths,
    read_scenes,
    write_checkpoint,
    write_corpus,
    write_observers,
    write_pgm,
    write_scanpaths,
    write_scenes,
)
from gazelab.model import (
    ABLATION_VARIANTS,
    ModelConfig,
    ScanpathModel,
    ablation_config,
)
from gazelab.scanpath import Fixation, Scanpath
from gazelab.synthetic import (
    BACKGROUND_LEVEL,
    BLOB_AMP,
    BLOB_COUNT,
    CorpusConfig,
    build_corpus,
    smoke_config,
)

from support import read_pgm


def random_scanpaths(n, seed):
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n):
        fixations = [Fixation(float(rng.uniform()), float(rng.uniform()),
                              float(rng.uniform(80.0, 600.0)))
                     for _ in range(int(rng.integers(1, 9)))]
        paths.append(Scanpath(image_id=int(rng.integers(0, 50)),
                              observer_id=int(rng.integers(0, 8)),
                              fixations=fixations))
    return paths


def assert_paths_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.image_id == right.image_id
        assert left.observer_id == right.observer_id
        assert list(left.fixations) == list(right.fixations)


class TestScanpathFile:
    def test_round_trip_100_random(self, tmp_path):
        original = random_scanpaths(100, seed=0)
        path = tmp_path / "gaze.jsonl"
        write_scanpaths(original, path)
        assert_paths_equal(read_scanpaths(path), original)

    def test_negative_duration_names_line(self, tmp_path):
        paths = random_scanpaths(3, seed=1)
        paths[1].fixations[0] = Fixation(0.5, 0.5, -5.0)
        file = tmp_path / "gaze.jsonl"
        write_scanpaths(paths, file)
        # header is line 1, so the second scanpath sits on line 3
        with pytest.raises(ValueError, match=re.escape(
                f"{file}:3: fixation 0 of image {paths[1].image_id} observer "
                f"{paths[1].observer_id}: duration -5.0 not positive and "
                "finite")):
            read_scanpaths(file)

    def test_coordinate_out_of_range_names_line(self, tmp_path):
        paths = random_scanpaths(2, seed=2)
        paths[0].fixations[0] = Fixation(1.5, 0.5, 200.0)
        file = tmp_path / "gaze.jsonl"
        write_scanpaths(paths, file)
        with pytest.raises(ValueError, match=re.escape(
                f"{file}:2: fixation 0 of image {paths[0].image_id} observer "
                f"{paths[0].observer_id}: coordinates (1.5, 0.5) outside "
                "[0, 1]")):
            read_scanpaths(file)

    def test_malformed_json_names_line(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        write_scanpaths(random_scanpaths(2, seed=3), file)
        lines = file.read_text().splitlines()
        lines[2] = "{not json"
        file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r":3:.*invalid JSON"):
            read_scanpaths(file)

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        write_scanpaths(random_scanpaths(2, seed=3), file)
        lines = file.read_bytes().splitlines()
        lines[2] = b'{"image_id": \xff}'
        file.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{file}:3: not UTF-8 text")):
            read_scanpaths(file)

    def test_form_feed_keeps_line_numbers(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        write_scanpaths(random_scanpaths(2, seed=3), file)
        lines = file.read_text().split("\n")
        lines[1] += "\x0c"
        file.write_text("\n".join(lines))
        with pytest.raises(ValueError,
                           match=re.escape(f"{file}:2: invalid JSON")):
            read_scanpaths(file)

    def test_crlf_file_reads(self, tmp_path):
        original = random_scanpaths(3, seed=4)
        file = tmp_path / "gaze.jsonl"
        write_scanpaths(original, file)
        file.write_bytes(file.read_bytes().replace(b"\n", b"\r\n"))
        assert_paths_equal(read_scanpaths(file), original)

    def test_wrong_header_format_rejected(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        file.write_text('{"format": "isp-gaze-v2"}\n')
        with pytest.raises(ValueError, match="isp-gaze-v1"):
            read_scanpaths(file)

    def test_missing_key_rejected(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        file.write_text('{"format": "isp-gaze-v1"}\n'
                        '{"image_id": 0, "fixations": [[0.5, 0.5, 100]]}\n')
        with pytest.raises(ValueError, match="missing.*observer_id"):
            read_scanpaths(file)

    def test_empty_fixation_list_rejected(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        file.write_text('{"format": "isp-gaze-v1"}\n'
                        '{"image_id": 0, "observer_id": 0, "fixations": []}\n')
        with pytest.raises(ValueError, match="nonempty list"):
            read_scanpaths(file)

    @pytest.mark.parametrize("entry", [
        "[null, 0.5, 100]", '[0.5, "0.5", 100]', "[0.5, 0.5, true]",
        "[0.5, 0.5, Infinity]", "[NaN, 0.5, 100]", "[0.5, -Infinity, 100]",
        "[0.5, 0.5, 1e400]", "[0.5, 0.5, 1" + "0" * 400 + "]"])
    def test_non_finite_or_non_numeric_fixation_names_line(self, tmp_path,
                                                            entry):
        file = tmp_path / "gaze.jsonl"
        file.write_text('{"format": "isp-gaze-v1"}\n'
                        '{"image_id": 0, "observer_id": 0,'
                        ' "fixations": [[0.5, 0.5, 100]]}\n'
                        '{"image_id": 0, "observer_id": 1,'
                        f' "fixations": [{entry}]}}\n')
        with pytest.raises(ValueError, match=r":3:.*finite numbers"):
            read_scanpaths(file)

    @pytest.mark.parametrize("key", ["image_id", "observer_id"])
    @pytest.mark.parametrize("value", ["1.5", "true", '"x3"', "null"])
    def test_non_integer_id_names_line(self, tmp_path, key, value):
        record = {"image_id": "0", "observer_id": "0",
                  "fixations": "[[0.5, 0.5, 100]]", key: value}
        body = ", ".join(f'"{k}": {v}' for k, v in record.items())
        file = tmp_path / "gaze.jsonl"
        file.write_text('{"format": "isp-gaze-v1"}\n{' + body + '}\n')
        with pytest.raises(ValueError, match=rf":2:.*{key} must be a JSON "
                                             "integer"):
            read_scanpaths(file)

    def test_non_triple_fixation_rejected(self, tmp_path):
        file = tmp_path / "gaze.jsonl"
        file.write_text('{"format": "isp-gaze-v1"}\n'
                        '{"image_id": 0, "observer_id": 0,'
                        ' "fixations": [[0.5, 0.5]]}\n')
        with pytest.raises(ValueError, match=r"\[x, y, dur_ms\]"):
            read_scanpaths(file)


@pytest.fixture(scope="module")
def tiny_corpus():
    config = CorpusConfig(n_scenes=6, n_observers=4, n_group_a=2,
                          height=8, width=8, channels=6,
                          n_social_channels=2,
                          n_nonsocial_channels=2,
                          scanpath_len=4)
    return build_corpus(config, seed=0)


def edit_scene(path, edit):
    """Apply ``edit`` to the second scene record (line 3) of a scene file."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _set_entry(key, index, value):
    def edit(record):
        node = record[key]
        for i in index[:-1]:
            node = node[i]
        node[index[-1]] = value
    return edit


SCENE_EDITS = [
    pytest.param(_set_entry("roi_mask", (1, 2), 9), "roi_mask codes",
                 id="roi-code-9"),
    pytest.param(_set_entry("roi_mask", (1, 2), -1), "roi_mask codes",
                 id="roi-code-negative"),
    pytest.param(_set_entry("roi_mask", (1, 2), 1.5), "roi_mask must be",
                 id="roi-float"),
    pytest.param(_set_entry("roi_mask", (1, 2), True), "roi_mask must be",
                 id="roi-true"),
    pytest.param(lambda r: r.__setitem__("roi_mask", r["roi_mask"][:-1]),
                 "roi_mask has shape", id="roi-short"),
    pytest.param(_set_entry("E", (0, 1, 2), "0.5"), "E must be",
                 id="E-string"),
    pytest.param(_set_entry("E", (0, 1, 2), None), "E must be",
                 id="E-null"),
    pytest.param(_set_entry("E", (0, 1, 2), True), "E must be",
                 id="E-true"),
    pytest.param(_set_entry("E", (0, 1, 2), float("nan")), "E must be",
                 id="E-nan"),
    pytest.param(_set_entry("E", (0, 1), [0.5]), "E must be",
                 id="E-ragged"),
    pytest.param(lambda r: r.__setitem__("E", r["E"][0]), "E must be",
                 id="E-2d"),
    pytest.param(lambda r: r.__setitem__("id", "1"), "id must be",
                 id="id-string"),
    pytest.param(lambda r: r.__setitem__("blobs", {}), "blobs must be a list",
                 id="blobs-object"),
    pytest.param(lambda r: r["blobs"].__setitem__(0, [1]),
                 r"blobs\[0\] must be an object", id="blob-list"),
    pytest.param(lambda r: r["blobs"][0].pop("amp"),
                 r"blobs\[0\]: missing keys \['amp'\]", id="blob-no-amp"),
    pytest.param(_set_entry("blobs", (0, "m0"), 1.0),
                 r"blobs\[0\]: unexpected keys \['m0'\]",
                 id="blob-extra-key"),
    pytest.param(_set_entry("blobs", (0, "channel"), "x"),
                 r"blobs\[0\]\.channel must be an integer in \[0, 6\)",
                 id="blob-channel-string"),
    pytest.param(_set_entry("blobs", (0, "channel"), 6),
                 r"blobs\[0\]\.channel must be an integer in \[0, 6\)",
                 id="blob-channel-6"),
    pytest.param(_set_entry("blobs", (0, "channel"), True),
                 r"blobs\[0\]\.channel must be an integer",
                 id="blob-channel-true"),
    pytest.param(_set_entry("blobs", (0, "category"), 3),
                 r"blobs\[0\]\.category must be an integer in \[0, 3\)",
                 id="blob-category-3"),
    pytest.param(_set_entry("blobs", (0, "sigma"), True),
                 r"blobs\[0\]\.sigma must be a finite number",
                 id="blob-sigma-true"),
    pytest.param(_set_entry("blobs", (0, "cx"), None),
                 r"blobs\[0\]\.cx must be a finite number",
                 id="blob-cx-null"),
    pytest.param(_set_entry("blobs", (0, "amp"), float("inf")),
                 r"blobs\[0\]\.amp must be a finite number",
                 id="blob-amp-inf"),
]


def _observer(key, value):
    return lambda doc: doc["observers"][1].__setitem__(key, value)


# (edit, message) per malformed observers-file entry; the message follows
# "<path>: "
OBSERVER_EDITS = [
    pytest.param(_observer("temp", "x"),
                 r"observers\[1\]\.temp must be a finite number",
                 id="temp-string"),
    pytest.param(_observer("log_dur_sd", None),
                 r"observers\[1\]\.log_dur_sd must be a finite number",
                 id="sd-null"),
    pytest.param(_observer("channel_pref", [0.5]),
                 r"observers\[1\]\.channel_pref must be a list of 6 finite",
                 id="pref-one-entry"),
    pytest.param(_observer("channel_pref", [0.5] * 5 + ["x"]),
                 r"observers\[1\]\.channel_pref must be", id="pref-string"),
    pytest.param(_observer("id", 1.5), r"observers\[1\]\.id must be an "
                 "integer", id="id-float"),
    pytest.param(_observer("group", 1), r"observers\[1\]\.group must be a "
                 "string", id="group-number"),
    pytest.param(_observer("temp", 0.0),
                 r"observers\[1\]: profile 1: temp must be > 0",
                 id="temp-zero"),
    pytest.param(lambda doc: doc["observers"][1].pop("log_dur_sd"),
                 r"observers\[1\]: missing keys \['log_dur_sd'\]",
                 id="missing-key"),
    pytest.param(lambda doc: doc["observers"].__setitem__(1, [1]),
                 r"observers\[1\] must be an object", id="entry-list"),
    pytest.param(lambda doc: doc.__setitem__("observers", {}),
                 '"observers" must be a list', id="observers-object"),
]


class TestSceneAndObserverFiles:
    def test_scene_round_trip(self, tmp_path, tiny_corpus):
        path = tmp_path / "scenes.jsonl"
        write_scenes(tiny_corpus.scenes, path)
        loaded = read_scenes(path)
        assert len(loaded) == len(tiny_corpus.scenes)
        for got, want in zip(loaded, tiny_corpus.scenes):
            assert got.id == want.id
            np.testing.assert_array_equal(got.E, want.E)
            np.testing.assert_array_equal(got.roi_mask, want.roi_mask)
            assert got.blobs == want.blobs

    def test_observer_round_trip(self, tmp_path, tiny_corpus):
        path = tmp_path / "observers.json"
        write_observers(tiny_corpus.profiles, path)
        loaded = read_observers(path)
        for got, want in zip(loaded, tiny_corpus.profiles):
            np.testing.assert_array_equal(got.channel_pref, want.channel_pref)
            assert got.group == want.group
            assert got.temp == want.temp

    @pytest.mark.parametrize("edit, message", OBSERVER_EDITS)
    def test_malformed_observer_names_entry(self, tmp_path, tiny_corpus,
                                            edit, message):
        path = tmp_path / "observers.json"
        write_observers(tiny_corpus.profiles, path)
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: ") + message):
            read_observers(path, channels=6)

    def test_observer_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "observers.json"
        path.write_text("[1]\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:1: expected a JSON object")):
            read_observers(path)

    def test_scene_bad_header(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"format": "isp-gaze-v1"}\n')
        with pytest.raises(ValueError, match="isp-scene-v2"):
            read_scenes(path)

    def test_previous_scene_version_rejected_by_tag(self, tmp_path,
                                                    tiny_corpus):
        # v1 scene records also carried an unused guidance prior m0
        path = tmp_path / "scenes.jsonl"
        write_scenes(tiny_corpus.scenes, path)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            record["m0"] = np.full((8, 8), 1.0 / 64).tolist()
        path.write_text("\n".join([json.dumps({"format": "isp-scene-v1"})]
                                  + [json.dumps(r) for r in records]) + "\n")
        with pytest.raises(ValueError,
                           match="expected format 'isp-scene-v2'"):
            read_scenes(path)

    @pytest.mark.parametrize("edit, message", SCENE_EDITS)
    def test_malformed_scene_names_line(self, tmp_path, tiny_corpus, edit,
                                        message):
        path = tmp_path / "scenes.jsonl"
        write_scenes(tiny_corpus.scenes, path)
        edit_scene(path, edit)
        with pytest.raises(ValueError, match=rf"scenes\.jsonl:3: {message}"):
            read_scenes(path)

    def test_integer_beyond_int64_in_E_read_as_float(self, tmp_path,
                                                     tiny_corpus):
        # every JSON integer finite as a float64 is a number, however wide
        path = tmp_path / "scenes.jsonl"
        write_scenes(tiny_corpus.scenes, path)
        edit_scene(path, _set_entry("E", (0, 1, 2), 2 ** 64))
        E = read_scenes(path)[1].E
        assert E.dtype == np.float64 and E[0, 1, 2] == 2.0 ** 64

    def test_huge_feature_value_names_line(self, tmp_path, tiny_corpus):
        # a finite 1e300 would overflow once the model squares it
        path = tmp_path / "scenes.jsonl"
        write_scenes(tiny_corpus.scenes, path)
        edit_scene(path, _set_entry("E", (0, 1, 2), -1e300))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: E "
                                             r"entries must lie within "
                                             r"\+-1e\+100$"):
            read_scenes(path)

    @pytest.mark.parametrize("config", [smoke_config(), CorpusConfig()],
                             ids=["smoke", "default"])
    def test_generated_features_within_bound(self, tmp_path, config):
        # whatever the seed, an entry is at most the background level or
        # the sum of every blob's peak: blobs lie on channels without
        # background
        assert max(BACKGROUND_LEVEL, BLOB_COUNT[1] * BLOB_AMP[1]) <= 6.0
        write_corpus(build_corpus(config, 0), tmp_path)
        assert read_corpus(tmp_path).scenes

    def test_scene_shape_checked_against_manifest(self, tmp_path,
                                                  tiny_corpus):
        # 3 of the 6 configured channels and the blobs on them: a valid
        # scene file on its own
        def keep_three_channels(record):
            record["E"] = record["E"][:3]
            record["blobs"] = [b for b in record["blobs"] if b["channel"] < 3]

        write_corpus(tiny_corpus, tmp_path / "data")
        path = tmp_path / "data" / "scenes.jsonl"
        edit_scene(path, keep_three_channels)
        assert read_scenes(path)[1].E.shape == (3, 8, 8)
        with pytest.raises(ValueError, match=r"scenes\.jsonl:3: E has shape "
                                             r"\(3, 8, 8\), expected "
                                             r"\(6, 8, 8\)"):
            read_corpus(tmp_path / "data")


def _param(name, key, value):
    return lambda doc: doc["params"][name].__setitem__(key, value)


def _param_value(name, index, value):
    return lambda doc: doc["params"][name]["data"].__setitem__(index, value)


# (edit, message) per malformed checkpoint entry; the message follows
# "<path>: "
CHECKPOINT_EDITS = [
    pytest.param(lambda doc: doc["params"]["W_u"].pop("shape"),
                 r"parameter W_u: missing keys \['shape'\]",
                 id="shape-missing"),
    pytest.param(_param_value("W_u", 0, "x"),
                 "parameter W_u: data must be a nested list of finite numbers",
                 id="data-string"),
    pytest.param(_param_value("W_u", 0, None),
                 "parameter W_u: data must be", id="data-null"),
    pytest.param(_param_value("W_u", 0, True),
                 "parameter W_u: data must be", id="data-true"),
    pytest.param(_param_value("W_u", 0, 10 ** 400),
                 "parameter W_u: data must be", id="data-huge-int"),
    pytest.param(_param_value("W_u", 0, float("nan")),
                 "parameter W_u: data must be a nested list of finite numbers",
                 id="data-nan"),
    pytest.param(lambda doc: doc["params"]["b_dur"]["data"].pop(),
                 "parameter b_dur: data must be a list of 2 finite numbers",
                 id="data-short"),
    pytest.param(_param("b_dur", "data", [[1.0, 2.0]]),
                 "parameter b_dur: data must be a list of 2", id="data-2d"),
    pytest.param(_param("b_dur", "shape", "2"),
                 "parameter b_dur: shape must be a list of non-negative "
                 "integers", id="shape-string"),
    pytest.param(_param("b_dur", "shape", [-2]),
                 "parameter b_dur: shape must be a list", id="shape-negative"),
    pytest.param(lambda doc: doc["params"].__setitem__("b_dur", [0.0, 0.0]),
                 "parameter b_dur must be an object", id="entry-list"),
    pytest.param(lambda doc: doc.__setitem__("params", []),
                 '"params" must be an object', id="params-list"),
]


class TestCheckpoint:
    def config(self):
        return ModelConfig(n_observers=3, height=4, width=4, channels=3,
                           observer_dim=3, hidden=6, semantic_channels=2,
                           max_steps=3)

    def test_oversized_config_refused(self, tmp_path):
        # ModelConfig's bound, before any parameter is read
        path = tmp_path / "ckpt.json"
        write_checkpoint(ScanpathModel(self.config(), seed=0), path)
        payload = json.loads(path.read_text())
        payload["config"]["hidden"] = 10_000_000
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ModelConfig(")
                           + r".*hidden=10000000, .* holds \d+ parameter"):
            read_checkpoint(path)

    def test_round_trip_bit_exact(self, tmp_path):
        model = ScanpathModel(self.config(), seed=5)
        path = tmp_path / "ckpt.json"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data,
                                          tensor.data)

    def test_missing_param_rejected(self, tmp_path):
        model = ScanpathModel(self.config(), seed=0)
        path = tmp_path / "ckpt.json"
        write_checkpoint(model, path)
        payload = json.loads(path.read_text())
        del payload["params"]["W_mu"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="missing.*W_mu"):
            read_checkpoint(path)

    def test_extra_param_rejected(self, tmp_path):
        model = ScanpathModel(self.config(), seed=0)
        path = tmp_path / "ckpt.json"
        write_checkpoint(model, path)
        payload = json.loads(path.read_text())
        payload["params"]["mystery"] = {"shape": [1], "data": [0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unexpected.*mystery"):
            read_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = ScanpathModel(self.config(), seed=0)
        path = tmp_path / "ckpt.json"
        write_checkpoint(model, path)
        payload = json.loads(path.read_text())
        payload["params"]["b_dur"] = {"shape": [3], "data": [0.0, 0.0, 0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shape"):
            read_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "isp-gaze-v1", "config": {},'
                        ' "params": {}}')
        with pytest.raises(ValueError, match="isp-ckpt-v4"):
            read_checkpoint(path)

    def test_config_value_kind_checked(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(ScanpathModel(self.config(), seed=0), path)
        payload = json.loads(path.read_text())
        payload["config"]["enable_fi"] = "False"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"ckpt\.json: config value "
                                             r"config\.enable_fi must be"):
            read_checkpoint(path)

    def test_previous_version_rejected_by_tag(self, tmp_path):
        # v3 configs hold the enable_oe switch; v2 checkpoints also hold
        # every parameter, including those of the pathways a variant
        # switches off
        model = ScanpathModel(self.config(), seed=0)
        path = tmp_path / "ckpt.json"
        write_checkpoint(model, path)
        payload = json.loads(path.read_text())
        payload["config"]["enable_oe"] = True
        for version in ("isp-ckpt-v3", "isp-ckpt-v2"):
            payload["format"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError,
                               match="expected format 'isp-ckpt-v4'"):
                read_checkpoint(path)
            for name, shape in (("W_fi", [3, 6]), ("b_fi", [6]),
                                ("W_fp", [16, 6]), ("b_fp", [16])):
                payload["params"][name] = {
                    "shape": shape, "data": [0.0] * int(np.prod(shape))}

    @pytest.mark.parametrize("edit, message", CHECKPOINT_EDITS)
    def test_malformed_entry_names_parameter(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.json"
        write_checkpoint(ScanpathModel(self.config(), seed=0), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: ") + message):
            read_checkpoint(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[]\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:1: expected a JSON object")):
            read_checkpoint(path)

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_write_read_write_byte_identical(self, tmp_path, variant):
        model = ScanpathModel(ablation_config(self.config(), variant), seed=4)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_checkpoint(model, first)
        write_checkpoint(read_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = ScanpathModel(self.config(), seed=9)
        path = tmp_path / "ckpt.json"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        rng = np.random.default_rng(0)
        E = rng.uniform(size=(3, 4, 4))
        a = model.sample_scanpath(E, observer_id=1, n_steps=3, mode="argmax", seed=0)
        b = loaded.sample_scanpath(E, observer_id=1, n_steps=3, mode="argmax", seed=0)
        assert list(a.fixations) == list(b.fixations)


def edit_manifest(data_dir, edit):
    path = data_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


# (edit, message) per manifest entry that the reader once used unchecked
MANIFEST_EDITS = [
    pytest.param(lambda m: m.__setitem__("seed", None),
                 '"seed" must be an integer', id="seed-null"),
    pytest.param(lambda m: m.__setitem__("seed", 1.5),
                 '"seed" must be an integer', id="seed-float"),
    pytest.param(lambda m: m.__setitem__("config", [1]),
                 "config section 'corpus' must be an object",
                 id="config-list"),
    pytest.param(lambda m: m["config"].__setitem__("n_scenes", "x"),
                 r"config value corpus\.n_scenes must be an integer",
                 id="config-string-count"),
    pytest.param(lambda m: m.__setitem__("files", {}),
                 '"files" must be an object', id="files-empty"),
    pytest.param(lambda m: m.__setitem__("files", ["scenes.jsonl"]),
                 '"files" must be an object', id="files-list"),
    pytest.param(lambda m: m["files"].pop("scenes"),
                 r'"files" lacks a file name for \[\'scenes\'\]',
                 id="no-scenes"),
    pytest.param(lambda m: m["files"].pop("observers"),
                 r'"files" lacks a file name for \[\'observers\'\]',
                 id="no-observers"),
    pytest.param(lambda m: m["files"].__setitem__("gaze", {}),
                 r'"files" lacks a file name for '
                 r"\['gaze\.train', 'gaze\.val', 'gaze\.test'\]",
                 id="gaze-empty"),
    pytest.param(lambda m: m["files"]["gaze"].pop("test"),
                 r'"files" lacks a file name for \[\'gaze\.test\'\]',
                 id="no-test-gaze"),
    pytest.param(lambda m: m.__setitem__("splits", [1, 2]),
                 '"splits" must map', id="splits-list"),
    pytest.param(lambda m: m["splits"].pop("val"),
                 '"splits" must map', id="no-val-split"),
    pytest.param(lambda m: m["splits"].__setitem__("train", [0, "1"]),
                 '"splits" must map', id="string-image-id"),
]


class TestCorpusDirectory:
    def test_round_trip(self, tmp_path, tiny_corpus):
        write_corpus(tiny_corpus, tmp_path / "data")
        loaded = read_corpus(tmp_path / "data")
        assert loaded.config == tiny_corpus.config
        assert loaded.seed == tiny_corpus.seed
        assert loaded.split_ids == tiny_corpus.split_ids
        for split in ("train", "val", "test"):
            assert_paths_equal(loaded.scanpaths[split],
                               tiny_corpus.scanpaths[split])
        assert len(loaded.scenes) == len(tiny_corpus.scenes)
        np.testing.assert_array_equal(loaded.scenes[0].E,
                                      tiny_corpus.scenes[0].E)

    @pytest.mark.parametrize("length", [3, 8])
    def test_record_length_must_match_manifest(self, tmp_path, tiny_corpus,
                                               length):
        write_corpus(tiny_corpus, tmp_path / "data")
        path = tmp_path / "data" / "gaze_val.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["fixations"] = (record["fixations"] * 2)[:length]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: {length} fixations, but the manifest's "
                "corpus.scanpath_len is 4")):
            read_corpus(tmp_path / "data")

    def test_write_is_deterministic(self, tmp_path, tiny_corpus):
        write_corpus(tiny_corpus, tmp_path / "a")
        write_corpus(tiny_corpus, tmp_path / "b")
        for file in sorted((tmp_path / "a").iterdir()):
            assert file.read_bytes() == (tmp_path / "b" / file.name).read_bytes()

    def test_write_read_write_byte_identical(self, tmp_path):
        # every file of the smoke corpus, plus a gaze file of sampled
        # predictions, whose durations are not round numbers
        corpus = build_corpus(smoke_config(), seed=0)
        model = ScanpathModel(ModelConfig(
            n_observers=4, height=8, width=8, channels=6, observer_dim=3,
            hidden=4, semantic_channels=2, max_steps=4), seed=0)
        preds = predict_split(model, corpus, "test", mode="sample", seed=1)
        first, second = tmp_path / "a", tmp_path / "b"
        write_corpus(corpus, first)
        write_scanpaths(preds, first / "predictions.jsonl")
        write_corpus(read_corpus(first), second)
        write_scanpaths(read_scanpaths(first / "predictions.jsonl"),
                        second / "predictions.jsonl")
        names = sorted(file.name for file in first.iterdir())
        assert names == sorted(file.name for file in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_without_files_names_manifest(self, tmp_path,
                                                   tiny_corpus):
        write_corpus(tiny_corpus, tmp_path / "data")
        manifest_path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: missing keys "
                                             r"\['files'\]"):
            read_corpus(tmp_path / "data")

    @pytest.mark.parametrize("edit, message", MANIFEST_EDITS)
    def test_malformed_manifest_entries_name_manifest(self, tmp_path,
                                                      tiny_corpus, edit,
                                                      message):
        write_corpus(tiny_corpus, tmp_path / "data")
        edit_manifest(tmp_path / "data", edit)
        with pytest.raises(ValueError, match=r"manifest\.json: " + message):
            read_corpus(tmp_path / "data")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            read_corpus(tmp_path / "nowhere")


class TestPgm:
    def test_round_trip_shape_and_scale(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.uniform(size=(6, 9))
        path = tmp_path / "map.pgm"
        write_pgm(grid, path)
        loaded = read_pgm(path)
        assert loaded.shape == (6, 9)
        # writer max-normalizes to the full 8-bit range
        assert loaded.max() == 255
        expected = np.round(grid / grid.max() * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(loaded, expected)

    def test_zero_map_stays_zero(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(np.zeros((4, 4)), path)
        assert read_pgm(path).max() == 0

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_pgm(np.zeros((2, 2, 2)), tmp_path / "x.pgm")


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(json_paths(child, prefix + (key,)))
    return paths


CORRUPT_VALUES = [None, True, 0, -1, 2, 2.5, 1e308, 10 ** 30, float("nan"),
                  float("inf"), "x", "", [], [1], [None], {}, {"a": 1},
                  "<delete>"]


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupted")


class TestCorruptedDocuments:
    """One corrupted value reads back or raises a ValueError with the path,
    never any other exception."""

    def check(self, path, document, reader, where, value):
        node = copy.deepcopy(document)
        parent = node
        for key in where[:-1]:
            parent = parent[key]
        if value == "<delete>":
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        path.write_text(json.dumps(node))
        try:
            reader(path)
        except ValueError as err:
            assert str(path) in str(err)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, scratch_dir, data):
        path = scratch_dir / "ckpt.json"
        config = ModelConfig(n_observers=3, height=2, width=2, channels=2,
                             observer_dim=2, hidden=3, semantic_channels=2,
                             max_steps=3)
        write_checkpoint(ScanpathModel(config, seed=0), path)
        document = json.loads(path.read_text())
        where = data.draw(st.sampled_from(json_paths(document)))
        self.check(path, document, read_checkpoint, where,
                   data.draw(st.sampled_from(CORRUPT_VALUES)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_observers(self, scratch_dir, tiny_corpus, data):
        path = scratch_dir / "observers.json"
        write_observers(tiny_corpus.profiles[:2], path)
        document = json.loads(path.read_text())
        where = data.draw(st.sampled_from(json_paths(document)))
        self.check(path, document,
                   lambda p: read_observers(p, channels=6), where,
                   data.draw(st.sampled_from(CORRUPT_VALUES)))
