"""End-to-end CLI tests driven through main() in process."""

import argparse
import contextlib
import io
import json
import math
import shutil
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazelab.cli import build_parser, main
from gazelab.config import (
    METRIC_VOCABULARY,
    RunConfig,
    config_hash,
    read_report_csv,
)
from gazelab.formats import read_scanpaths
from gazelab.scanpath import Fixation, Scanpath

SMOKE = str(Path(__file__).resolve().parent.parent / "configs" / "smoke.json")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus plus a short-trained checkpoint, shared."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--config", SMOKE, "--seed", "0",
                 "--out", str(data)]) == 0
    out = root / "train"
    assert main(["train", "--config", SMOKE, "--seed", "0",
                 "--set", "train.epochs=2",
                 "--data", str(data), "--out", str(out)]) == 0
    return {"root": root, "data": str(data),
            "ckpt": str(out / "checkpoint.json")}


def edit_record(path, lineno, edit):
    """Apply ``edit`` to the JSON record on line ``lineno`` of a JSONL file."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def edit_document(path, edit):
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


# Each case breaks one cross-reference of a copied corpus directory ``d``
# and returns the command that reads it and the text its error must hold.

def _image_of_other_split(d):
    splits = json.loads((d / "manifest.json").read_text())["splits"]
    image_id = splits["test"][0]
    edit_record(d / "gaze_train.jsonl", 2,
                lambda r: r.update(image_id=image_id))
    return "train", (f"{d / 'gaze_train.jsonl'}:2: image_id {image_id} is "
                     "not an image of split 'train'")


def _image_without_scene(d):
    edit_record(d / "gaze_train.jsonl", 2, lambda r: r.update(image_id=999))
    return "train", f"{d / 'gaze_train.jsonl'}:2: image_id 999 is not"


def _observer_out_of_range(d):
    edit_record(d / "gaze_train.jsonl", 2, lambda r: r.update(observer_id=7))
    return "train", (f"{d / 'gaze_train.jsonl'}:2: observer_id 7 is not in "
                     "the observers file")


def _short_observers_file(d):
    edit_document(d / "observers.json", lambda doc: doc["observers"].pop())
    return "train", (f"{d / 'observers.json'}: observer ids must be exactly "
                     "0..3, one each, got [0, 1, 2]")


def _observer_id_gap(d):
    edit_document(d / "observers.json",
                  lambda doc: doc["observers"][3].update(id=5))
    return "train", (f"{d / 'observers.json'}: observer ids must be exactly "
                     "0..3, one each, got [0, 1, 2, 5]")


def _duplicate_scene_id(d):
    first = json.loads((d / "scenes.jsonl").read_text().splitlines()[1])
    edit_record(d / "scenes.jsonl", 3, lambda r: r.update(id=first["id"]))
    return "train", (f"{d / 'scenes.jsonl'}:3: duplicate scene id "
                     f"{first['id']}")


def _duplicate_gaze_record(d):
    path = d / "gaze_train.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    record = json.loads(lines[1])
    return "train", (f"{path}:{len(lines) + 1}: second record for image "
                     f"{record['image_id']}, observer {record['observer_id']}")


def _split_image_without_scene(d):
    edit_document(d / "manifest.json",
                  lambda doc: doc["splits"]["test"].append(999))
    return "predict", (f'{d / "manifest.json"}: split "test" lists image ids '
                       "[999] that have no scene")


def _empty_split_in_manifest(d):
    edit_document(d / "manifest.json",
                  lambda doc: doc["splits"].update(test=[]))
    return "predict", f'{d / "manifest.json"}: split "test" lists no images'


def _image_listed_twice(d):
    splits = json.loads((d / "manifest.json").read_text())["splits"]
    image_id = splits["test"][0]
    edit_document(d / "manifest.json",
                  lambda doc: doc["splits"]["test"].append(image_id))
    return "predict", (f'{d / "manifest.json"}: split "test" lists image ids '
                       f"[{image_id}] more than once")


def _image_in_two_splits(d):
    splits = json.loads((d / "manifest.json").read_text())["splits"]
    image_id = splits["train"][0]
    edit_document(d / "manifest.json",
                  lambda doc: doc["splits"]["val"].append(image_id))
    return "predict", (f'{d / "manifest.json"}: splits "train" and "val" '
                       f"share image ids [{image_id}]")


def _empty_gaze_file(d):
    path = d / "gaze_test.jsonl"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    return "predict", f"{path}: no gaze records for split 'test'"


def _doubled_record(split, command):
    """The first record of a split's gaze file, its fixations doubled past
    the smoke corpus's scanpath_len of 4."""
    def case(d):
        path = d / f"gaze_{split}.jsonl"
        edit_record(path, 2, lambda r: r.update(fixations=r["fixations"] * 2))
        return command, (f"{path}:2: 8 fixations, but the manifest's "
                         "corpus.scanpath_len is 4")
    case.__name__ = f"_{command}_with_doubled_{split}_record"
    return case


class TestUsage:
    def test_no_arguments_usage_exit_1(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_seed_exit_1(self, capsys):
        assert main(["gen-data", "--out", "x"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_bad_flag_exit_1(self, capsys):
        assert main(["train", "--seed", "0", "--bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ["grad-check", "--config", "/nonexistent.json", "--seed", "0"],
        ["grad-check", "--set", "model.hidden=banana", "--seed", "0"],
        ["eval-value", "--seed", "0", "--pred", "p.jsonl"],
        ["eval-rank", "--seed", "0"],
    ], ids=["grad-check-config", "grad-check-set", "eval-value-seed",
            "eval-rank-seed"])
    def test_flag_the_command_never_reads_exit_1(self, tmp_path, monkeypatch,
                                                 capsys, argv):
        # grad-check probes a fixed geometry; the evaluations draw no
        # random numbers
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert f"unrecognized arguments: {argv[1]} {argv[2]}\n" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


SPLIT = ("--split", "test", ("train", "val", "test"), False, None)
THREADS = ("--threads", 1, None, False, int)


RUN = [("--config", None, None, False, None),
       ("--set", [], None, False, None)]
SEED = ("--seed", None, None, True, int)
SEEDED = RUN + [SEED]


# every command's options in order, as (flag, default, choices, required,
# type); perfbench passes --threads to eval-value, eval-rank and ablate
COMMAND_OPTIONS = {
    "gen-data": SEEDED + [("--out", None, None, False, None)],
    "train": SEEDED + [("--data", None, None, False, None),
                       ("--out", None, None, False, None)],
    "finetune": SEEDED + [("--data", None, None, False, None),
                          ("--checkpoint", None, None, False, None),
                          ("--out", None, None, False, None)],
    "predict": SEEDED + [
        ("--data", None, None, False, None),
        ("--checkpoint", None, None, False, None),
        ("--out", None, None, False, None), SPLIT,
        ("--mode", "argmax", ("argmax", "sample"), False, None)],
    "eval-value": RUN + [
        ("--data", None, None, False, None),
        ("--pred", None, None, True, None),
        ("--out", None, None, False, None), SPLIT,
        ("--variant", "model", None, False, None), THREADS],
    "eval-rank": RUN + [
        ("--data", None, None, False, None),
        ("--checkpoint", None, None, False, None),
        ("--out", None, None, False, None), SPLIT, THREADS],
    "eval-saliency": SEEDED + [
        ("--data", None, None, False, None),
        ("--checkpoint", None, None, False, None),
        ("--out", None, None, False, None), SPLIT,
        ("--resolution", 64, None, False, int)],
    "ablate": SEEDED + [("--data", None, None, False, None),
                              ("--out", None, None, False, None), THREADS],
    "analyze": SEEDED + [("--data", None, None, False, None),
                               ("--checkpoint", None, None, False, None),
                               ("--out", None, None, False, None), SPLIT],
    "classify": SEEDED + [("--data", None, None, False, None),
                                ("--checkpoint", None, None, False, None),
                                ("--out", None, None, False, None)],
    "grad-check": [SEED, ("--eps", 1e-5, None, False, float),
                   ("--tol", 1e-4, None, False, float)],
}
SEEDED_COMMANDS = [name for name, options in COMMAND_OPTIONS.items()
                   if SEED in options]


def seed_flag(command):
    return ["--seed", "0"] if command in SEEDED_COMMANDS else []


def test_every_command_keeps_its_options():
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == list(COMMAND_OPTIONS)
    for name, expected in COMMAND_OPTIONS.items():
        options = [(action.option_strings[0], action.default,
                    None if action.choices is None else tuple(action.choices),
                    action.required, action.type)
                   for action in commands[name]._actions
                   if not isinstance(action, argparse._HelpAction)]
        assert options == expected, name
        assert all(len(action.option_strings) == 1
                   for action in commands[name]._actions
                   if not isinstance(action, argparse._HelpAction)), name


class TestValidationErrors:
    def test_missing_checkpoint_exit_2(self, workspace, capsys):
        code = main(["predict", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--out", str(workspace["root"] / "p")])
        assert code == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_missing_data_dir_exit_2(self, workspace, capsys):
        code = main(["train", "--config", SMOKE, "--seed", "0",
                     "--data", str(workspace["root"] / "nothing"),
                     "--out", str(workspace["root"] / "t")])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, capsys):
        code = main(["gen-data", "--seed", "0",
                     "--set", "train.epochz=1", "--out", "x"])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["train.weight_decay=0",
                                         "train.duration_loss_weight=0.2"])
    def test_fixed_training_constant_is_not_a_setting_exit_2(self, capsys,
                                                             setting):
        code = main(["gen-data", "--seed", "0", "--set", setting,
                     "--out", "x"])
        assert code == 2
        key = setting.split(".")[1].split("=")[0]
        assert (f"unknown keys in config section 'train': ['{key}']"
                in capsys.readouterr().err)

    def test_config_file_error_names_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"model": {"hiden": 3}}\n')
        code = main(["gen-data", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert (f"{path}: unknown keys in config section 'model': "
                "['hiden']") in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("text", [
        '{"model": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"corpus": {"n_scenes": ' + "9" * 5000 + "}}"],
        ids=["deep-nesting", "long-integer"])
    def test_unreadable_json_config_names_file_exit_2(self, tmp_path, capsys,
                                                      text):
        path = tmp_path / "run.json"
        path.write_text(text + "\n")
        code = main(["gen-data", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert f"{path}:1: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_non_utf8_config_names_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"model":\n  {"hidden": "\xff"}}\n')
        code = main(["gen-data", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert f"{path}:2: not UTF-8 text" in capsys.readouterr().err

    def test_override_error_does_not_name_config_file(self, capsys):
        code = main(["gen-data", "--config", SMOKE, "--seed", "0",
                     "--set", "model.hiden=3", "--out", "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: unknown keys in config section 'model'" in err
        assert SMOKE not in err

    def test_corpus_config_mismatch_exit_2(self, workspace, capsys):
        code = main(["eval-rank", "--config", SMOKE,
                     "--set", "corpus.n_scenes=9",
                     "--set", "model.hidden=16",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(workspace["root"] / "r")])
        assert code == 2
        assert "different corpus config" in capsys.readouterr().err

    def test_malformed_gaze_file_exit_2(self, workspace, tmp_path, capsys):
        from gazelab.formats import write_scanpaths
        bad = [Scanpath(0, 0, [Fixation(0.5, 0.5, 120.0)]),
               Scanpath(0, 1, [Fixation(0.5, 0.5, -5.0)])]
        path = tmp_path / "bad.jsonl"
        write_scanpaths(bad, path)
        code = main(["eval-value", "--config", SMOKE,
                     "--data", workspace["data"], "--pred", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}:3: fixation 0 of image 0 observer 1: duration "
            "-5.0 not positive and finite\n")

    def test_duplicate_prediction_exit_2(self, workspace, tmp_path, capsys):
        from gazelab.formats import write_scanpaths
        sp = Scanpath(0, 0, [Fixation(0.5, 0.5, 120.0)])
        path = tmp_path / "dup.jsonl"
        write_scanpaths([sp, sp], path)
        code = main(["eval-value", "--config", SMOKE,
                     "--data", workspace["data"], "--pred", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"{path}: duplicate prediction for image 0, observer 0"
                in capsys.readouterr().err)

    def test_infinite_duration_exit_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "isp-gaze-v1"}\n'
                        '{"image_id": 0, "observer_id": 0,'
                        ' "fixations": [[0.5, 0.5, Infinity]]}\n')
        code = main(["eval-value", "--config", SMOKE,
                     "--data", workspace["data"], "--pred", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{path}:2:" in capsys.readouterr().err

    def test_huge_finite_duration_exit_2(self, workspace, tmp_path, capsys):
        from gazelab.formats import read_corpus, write_scanpaths
        preds = read_corpus(workspace["data"]).scanpaths["test"]
        first = preds[0].fixations[0]
        preds[0].fixations[0] = Fixation(first.x, first.y, 1e300)
        path = tmp_path / "huge.jsonl"
        write_scanpaths(preds, path)
        code = main(["eval-value", "--config", SMOKE,
                     "--data", workspace["data"], "--pred", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"{path}: fixation 0 of image {preds[0].image_id} observer "
                f"{preds[0].observer_id}: duration 1e+300 ms at sm_tbin") in err

    def test_unparseable_gaze_line_exit_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "isp-gaze-v1"}\n{broken\n')
        code = main(["eval-value", "--config", SMOKE,
                     "--data", workspace["data"], "--pred", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert ":2:" in err and "invalid JSON" in err

    @pytest.mark.parametrize("override", [
        "model.enable_fi=False", "corpus.scanpath_len=2.5",
        'corpus.n_scenes="x"', "train.lr=NaN", "train.lr=Infinity",
        "metric.sm_tbin=NaN", "metric.sm_gap=-Infinity",
        "metric.aspect=[NaN, 3.0]"])
    def test_wrong_config_value_kind_exit_2(self, tmp_path, capsys,
                                            override):
        code = main(["gen-data", "--seed", "0", "--set", override,
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert f"{override.partition('=')[0]} must be" in \
            capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("override", [
        "metric.aspect=[0,0]", "metric.aspect=[-4,3]",
        # squared center distances would underflow or overflow
        "metric.aspect=[1e-200,1e-200]", "metric.aspect=[1e160,1e160]",
        "metric.sm_gap=5",
        "metric.sm_grid=[100000,100000]", "metric.sed_grid=[100000,100000]"])
    def test_meaningless_metric_setting_exit_2(self, workspace, tmp_path,
                                               capsys, override):
        pred = str(Path(workspace["data"]) / "gaze_test.jsonl")
        code = main(["eval-value", "--config", SMOKE, "--set", override,
                     "--data", workspace["data"], "--pred", pred,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        field = override.partition("=")[0].split(".")[1]
        assert f"error: {field} " in capsys.readouterr().err

    def test_zero_saliency_resolution_exit_2(self, workspace, tmp_path,
                                             capsys):
        code = main(["eval-saliency", "--config", SMOKE, "--seed", "0",
                     "--resolution", "0", "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(tmp_path / "sal")])
        assert code == 2
        assert "resolution must be at least 1x1, got 0x0" in \
            capsys.readouterr().err

    def test_oversized_saliency_resolution_exit_2(self, workspace, tmp_path,
                                                  capsys):
        code = main(["eval-saliency", "--config", SMOKE, "--seed", "0",
                     "--resolution", "10000000", "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(tmp_path / "sal")])
        assert code == 2
        assert "error: resolution 10000000x10000000 has more than " in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("cause", ["lr", "scene"])
    def test_diverging_training_exit_2(self, workspace, tmp_path, capsys,
                                       command, cause):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        overrides = ["--set", "train.epochs=2"]
        if cause == "lr":
            overrides += ["--set", "train.lr=1e10"]
            expected = "error: non-finite loss at epoch "
        else:
            # one finite but huge feature value: the scene reader refuses
            # it before the model would overflow on it
            edit_record(data / "scenes.jsonl", 2,
                        lambda r: r["E"][0][0].__setitem__(0, 1e300))
            expected = (f"error: {data / 'scenes.jsonl'}:2: E entries must "
                        "lie within +-1e+100\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", SMOKE, "--seed", "1",
                         *overrides, "--data", str(data),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        # the one error line, after no floating-point warning
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    def test_oversized_model_exit_2(self, workspace, tmp_path, capsys):
        # refused by ModelConfig before any parameter is allocated
        code = main(["train", "--config", SMOKE, "--seed", "0",
                     "--set", "model.hidden=10000000",
                     "--data", workspace["data"],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "height=12, width=12, channels=6, observer_dim=8, " \
               "hidden=10000000, " in err
        assert "parameter values, more than 33554432" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extents, message", [
        ({"height": 100000, "width": 100000}, "height=100000, width=100000, "),
        # the model's parameters fit, the scenes do not
        ({"height": 64, "width": 64, "channels": 4100},
         "height=64, width=64, channels=4100, n_social_channels=4, "
         "n_nonsocial_channels=4, scanpath_len=6) has 16793600 values per "
         "scene, more than 16777216"),
    ], ids=["extent", "channels"])
    def test_oversized_corpus_exit_2(self, tmp_path, capsys, extents,
                                     message):
        # refused by the configs before any scene is built
        argv = ["gen-data", "--seed", "0", "--out", str(tmp_path / "data")]
        for section in ("corpus", "model"):
            for key, value in extents.items():
                argv += ["--set", f"{section}.{key}={value}"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", SEEDED_COMMANDS)
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys,
                                  command):
        # refused before the command reads or writes anything
        monkeypatch.chdir(tmp_path)
        assert main([command, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: --seed must be a nonnegative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["n_social_channels",
                                     "n_nonsocial_channels", "scanpath_len"])
    def test_empty_corpus_extent_exit_2(self, tmp_path, capsys, key):
        code = main(["gen-data", "--seed", "0", "--set", f"corpus.{key}=0",
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_malformed_scene_file_exit_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        path = data / "scenes.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["roi_mask"][0][0] = 9
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval-rank", "--config", SMOKE, "--data", str(data),
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{path}:2: roi_mask codes" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("files", {}),
        ("files", {"scenes": "scenes.jsonl", "observers": "observers.json",
                   "gaze": {"train": "gaze_train.jsonl"}}),
        ("splits", "train"),
    ])
    def test_malformed_manifest_exit_2(self, workspace, tmp_path, capsys,
                                       key, value):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest[key] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval-rank", "--config", SMOKE, "--data", str(data),
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{data / 'manifest.json'}: " in capsys.readouterr().err


    @pytest.mark.parametrize("target", ["config", "manifest", "observers",
                                        "checkpoint"])
    def test_json_syntax_error_names_file_exit_2(self, workspace, tmp_path,
                                                 capsys, target):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        paths = {"config": tmp_path / "config.json",
                 "manifest": data / "manifest.json",
                 "observers": data / "observers.json",
                 "checkpoint": tmp_path / "checkpoint.json"}
        shutil.copy(SMOKE, paths["config"])
        shutil.copy(workspace["ckpt"], paths["checkpoint"])
        paths[target].write_text('{\n  "format": x\n}\n')
        code = main(["analyze", "--config", str(paths["config"]),
                     "--seed", "0", "--data", str(data),
                     "--checkpoint", str(paths["checkpoint"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{paths[target]}:2: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("target, edit, message", [
        pytest.param("checkpoint",
                     lambda doc: doc["params"]["W_u"].pop("shape"),
                     "parameter W_u: missing keys ['shape']",
                     id="ckpt-no-shape"),
        pytest.param("checkpoint",
                     lambda doc: doc["params"]["W_u"].__setitem__(
                         "data", "!" + doc["params"]["W_u"]["data"][1:]),
                     "parameter W_u: data is not base64",
                     id="ckpt-string-data"),
        pytest.param("observers",
                     lambda doc: doc["observers"][1].__setitem__("temp", "x"),
                     "observers[1].temp must be a finite number",
                     id="observer-string-temp"),
        pytest.param("observers",
                     lambda doc: doc["observers"][1].__setitem__(
                         "channel_pref", [0.5]),
                     "observers[1].channel_pref must be",
                     id="observer-short-pref"),
    ])
    def test_malformed_entry_exit_2(self, workspace, tmp_path, capsys,
                                    target, edit, message):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        ckpt = tmp_path / "checkpoint.json"
        shutil.copy(workspace["ckpt"], ckpt)
        path = ckpt if target == "checkpoint" else data / "observers.json"
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))
        code = main(["analyze", "--config", SMOKE, "--seed", "0",
                     "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        _image_of_other_split, _image_without_scene, _observer_out_of_range,
        _short_observers_file, _observer_id_gap, _duplicate_scene_id,
        _duplicate_gaze_record, _split_image_without_scene,
        _empty_split_in_manifest, _empty_gaze_file, _image_listed_twice,
        _image_in_two_splits, _doubled_record("train", "train"),
        _doubled_record("test", "predict"),
    ], ids=lambda case: case.__name__.strip("_").replace("_", "-"))
    def test_broken_cross_reference_exit_2(self, workspace, tmp_path, capsys,
                                           case):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        command, expected = case(data)
        argv = [command, "--config", SMOKE, "--seed", "0",
                "--set", "train.epochs=1", "--data", str(data),
                "--out", str(tmp_path / "out")]
        if command == "predict":
            argv += ["--checkpoint", workspace["ckpt"]]
        assert main(argv) == 2
        assert expected in capsys.readouterr().err

    def test_previous_checkpoint_version_exit_2(self, workspace, tmp_path,
                                                capsys):
        ckpt = tmp_path / "checkpoint.json"
        shutil.copy(workspace["ckpt"], ckpt)

        def to_v3(doc):
            doc["format"] = "isp-ckpt-v3"
            doc["config"]["enable_oe"] = True

        edit_document(ckpt, to_v3)
        code = main(["predict", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"], "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"{ckpt}: expected format 'isp-ckpt-v5', got 'isp-ckpt-v3'"
                in capsys.readouterr().err)

    def test_previous_manifest_version_exit_2(self, workspace, tmp_path,
                                              capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)

        def to_v1(doc):
            # v1 manifests also held the generator's trait settings
            doc["format"] = "isp-corpus-v1"
            doc["config"].update(temp=0.16, log_dur_sd=0.25)

        edit_document(data / "manifest.json", to_v1)
        code = main(["train", "--config", SMOKE, "--seed", "0",
                     "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"{data / 'manifest.json'}: expected format 'isp-corpus-v2', "
                "got 'isp-corpus-v1'") in capsys.readouterr().err


# a value of each JSON kind; bool is a kind of its own, and a float is not
# an id
JSON_KINDS = [None, True, 3, 2.5, "x", [1], {"a": 1}]
LINE_FILES = ("scenes.jsonl", "gaze_train.jsonl", "gaze_val.jsonl",
              "gaze_test.jsonl")
CORPUS_FILES = ("manifest.json",) + LINE_FILES


@pytest.fixture(scope="module")
def corrupt_root(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


def fresh_copy(workspace, corrupt_root):
    root = corrupt_root / "data"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(workspace["data"], root)
    return root


def train_zero_epochs(root, out):
    """Exit code and standard error of ``train`` on the corpus at ``root``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", SMOKE, "--seed", "0",
                     "--set", "train.epochs=0", "--data", str(root),
                     "--out", str(out)])
    return code, err.getvalue()


class TestCorruptedCorpus:
    """One field of a manifest entry, a scene record or a gaze record set to
    a value of another JSON kind, or an id to one out of range: ``train``
    exits 2 naming a file of the corpus, never with a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_train_exits_2_naming_a_file(self, workspace, corrupt_root,
                                         data):
        root = fresh_copy(workspace, corrupt_root)
        name = data.draw(st.sampled_from(CORPUS_FILES))
        path = root / name
        lines = path.read_text().splitlines()
        if name == "manifest.json":
            lineno = None
            record = json.loads(path.read_text())
            wheres = [(key,) for key in sorted(record)]
            wheres += [("splits", split, i)
                       for split, ids in sorted(record["splits"].items())
                       for i in range(len(ids))]
        else:
            lineno = data.draw(st.integers(2, len(lines)))
            record = json.loads(lines[lineno - 1])
            wheres = [(key,) for key in sorted(record)]
        where = data.draw(st.sampled_from(wheres))
        parent = record
        for key in where[:-1]:
            parent = parent[key]
        current = parent[where[-1]]
        values = [v for v in JSON_KINDS if type(v) is not type(current)]
        if where[-1] in ("id", "image_id", "observer_id") or \
                where[0] == "splits" and len(where) == 3:
            # every id of the smoke corpus lies in [0, 8)
            values += [-1, 8, 10 ** 6]
        parent[where[-1]] = data.draw(st.sampled_from(values))
        if lineno is None:
            path.write_text(json.dumps(record))
        else:
            lines[lineno - 1] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
        code, err = train_zero_epochs(root, corrupt_root / "out")
        assert code == 2
        assert str(root) in err

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(LINE_FILES), index=st.integers(0, 1000),
           garbage=st.binary())
    @example(name="gaze_train.jsonl", index=1, garbage=b"\xff")
    @example(name="scenes.jsonl", index=2, garbage=b"\xff")
    def test_garbage_line_exits_0_or_2_naming_its_file(
            self, workspace, corrupt_root, name, index, garbage):
        """One whole line of a gaze or scene file replaced by any bytes."""
        root = fresh_copy(workspace, corrupt_root)
        path = root / name
        lines = path.read_bytes().splitlines()
        lines[index % len(lines)] = garbage
        path.write_bytes(b"\n".join(lines) + b"\n")
        code, err = train_zero_epochs(root, corrupt_root / "out")
        assert code == 0 or (code == 2 and str(path) in err)


SIX_OBSERVERS = ["--set", "corpus.n_observers=6", "--set", "corpus.n_group_a=3",
                 "--set", "model.n_observers=6"]
CHECKPOINT_COMMANDS = ("predict", "finetune", "eval-rank", "eval-saliency",
                       "analyze", "classify")


def smoke_checkpoint(path, **changes):
    """An untrained smoke-config model with ``changes``, written to ``path``."""
    from gazelab.formats import write_checkpoint
    from gazelab.model import ModelConfig, ScanpathModel
    model = json.loads(Path(SMOKE).read_text())["model"]
    write_checkpoint(ScanpathModel(ModelConfig(**{**model, **changes}),
                                   seed=0), path)
    return str(path)


class TestCheckpointFit:
    """Every command that reads a checkpoint refuses one that does not fit
    its corpus, by ``RunConfig``'s rule, naming the checkpoint."""

    @pytest.fixture(scope="class")
    def six_data(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("six") / "data"
        assert main(["gen-data", "--config", SMOKE, *SIX_OBSERVERS,
                     "--seed", "0", "--out", str(data)]) == 0
        return str(data)

    @pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
    def test_fewer_observers_than_corpus_exit_2(self, workspace, six_data,
                                                tmp_path, capsys, command):
        code = main([command, "--config", SMOKE, *SIX_OBSERVERS,
                     *seed_flag(command), "--data", six_data,
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {workspace['ckpt']}: model/corpus mismatch on "
                "n_observers: 4 != 6") in capsys.readouterr().err

    @pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
    def test_more_observers_than_corpus_exit_2(self, workspace, tmp_path,
                                               capsys, command):
        ckpt = smoke_checkpoint(tmp_path / "six.json", n_observers=6)
        code = main([command, "--config", SMOKE, *seed_flag(command),
                     "--data", workspace["data"], "--checkpoint", ckpt,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {ckpt}: model/corpus mismatch on n_observers: "
                "6 != 4") in capsys.readouterr().err

    @pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
    def test_too_few_steps_exit_2(self, workspace, tmp_path, capsys,
                                  command):
        ckpt = smoke_checkpoint(tmp_path / "short.json", max_steps=3)
        code = main([command, "--config", SMOKE, *seed_flag(command),
                     "--data", workspace["data"], "--checkpoint", ckpt,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {ckpt}: corpus scanpath_len 4 exceeds model "
                "max_steps 3") in capsys.readouterr().err


THREE_OBSERVERS = ["--set", "corpus.n_observers=3",
                   "--set", "corpus.n_group_a=1",
                   "--set", "model.n_observers=3"]


class TestAnalysisInputNamed:
    """``analyze`` and ``classify`` refuse input they cannot analyse by
    naming the corpus directory or the checkpoint."""

    @pytest.fixture(scope="class")
    def three(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("three")
        data = str(root / "data")
        assert main(["gen-data", "--config", SMOKE, *THREE_OBSERVERS,
                     "--seed", "0", "--out", data]) == 0
        return {"data": data,
                "ckpt": smoke_checkpoint(root / "three.json", n_observers=3)}

    @pytest.mark.parametrize("command, named, message", [
        ("analyze", "data", "each group needs at least 2 values"),
        ("classify", "ckpt", "need at least 4 observers for leave-one-out")],
        ids=["analyze", "classify"])
    def test_three_observers_exit_2(self, three, tmp_path, capsys, command,
                                    named, message):
        code = main([command, "--config", SMOKE, *THREE_OBSERVERS,
                     "--seed", "0", "--data", three["data"],
                     "--checkpoint", three["ckpt"],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {three[named]}: {message}" in capsys.readouterr().err

    def test_classify_without_observer_code_exit_2(self, workspace,
                                                   tmp_path, capsys):
        ckpt = smoke_checkpoint(tmp_path / "one_hot.json",
                                observer_mode="one_hot_concat")
        code = main(["classify", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"], "--checkpoint", ckpt,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {ckpt}: observer features require a pathway"
                in capsys.readouterr().err)


def strict_json(path):
    """The JSON document at ``path``; NaN and infinities raise."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["gen-data", "--config", SMOKE, "--seed", "7",
                         "--out", str(tmp_path / name)]) == 0
        files_a = sorted((tmp_path / "a").iterdir())
        assert files_a
        for file in files_a:
            assert file.read_bytes() == \
                (tmp_path / "b" / file.name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        for seed, name in (("7", "a"), ("8", "c")):
            assert main(["gen-data", "--config", SMOKE, "--seed", seed,
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "gaze_train.jsonl").read_bytes() != \
            (tmp_path / "c" / "gaze_train.jsonl").read_bytes()


class TestPipeline:
    def test_gen_train_rank_under_60s(self, tmp_path, capsys):
        start = time.monotonic()
        data = tmp_path / "d"
        out = tmp_path / "o"
        assert main(["gen-data", "--config", SMOKE, "--seed", "1",
                     "--out", str(data)]) == 0
        assert main(["train", "--config", SMOKE, "--seed", "1",
                     "--data", str(data), "--out", str(out)]) == 0
        assert main(["eval-rank", "--config", SMOKE, "--data", str(data),
                     "--checkpoint", str(out / "checkpoint.json"),
                     "--out", str(out)]) == 0
        assert time.monotonic() - start < 60.0
        payload = json.loads((out / "report.json").read_text())
        metrics = {row["metric"] for row in payload["rows"]}
        assert {"mrr", "r_at_1", "r_at_5"} <= metrics

    def test_rank_report_stable_modulo_timestamp(self, workspace, tmp_path):
        reports = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["eval-rank", "--config", SMOKE,
                         "--data", workspace["data"],
                         "--checkpoint", workspace["ckpt"],
                         "--out", str(out)]) == 0
            payload = json.loads((out / "report.json").read_text())
            payload["provenance"].pop("timestamp")
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_predict_writes_valid_scanpaths(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 0
        preds = read_scanpaths(out / "predictions_test.jsonl")
        assert preds
        assert all(len(sp.fixations) >= 1 for sp in preds)

    def test_predict_sample_mode_seed_deterministic(self, workspace,
                                                    tmp_path):
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["predict", "--config", SMOKE, "--seed", "3",
                         "--mode", "sample",
                         "--data", workspace["data"],
                         "--checkpoint", workspace["ckpt"],
                         "--out", str(out)]) == 0
            blobs.append((out / "predictions_test.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_value_reports_three_metrics(self, workspace, tmp_path,
                                              capsys):
        pred_dir = tmp_path / "pred"
        assert main(["predict", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(pred_dir)]) == 0
        out = tmp_path / "val"
        assert main(["eval-value", "--config", SMOKE, "--threads", "2",
                     "--data", workspace["data"],
                     "--pred", str(pred_dir / "predictions_test.jsonl"),
                     "--variant", "full", "--out", str(out)]) == 0
        rows = read_report_csv(out / "report.csv")
        assert [r.metric for r in rows] == ["sm", "mm", "sed"]
        assert all(r.variant == "full" and r.stderr is not None
                   for r in rows)

    def test_eval_saliency_writes_pgms(self, workspace, tmp_path):
        out = tmp_path / "sal"
        assert main(["eval-saliency", "--config", SMOKE, "--seed", "0",
                     "--resolution", "16",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 0
        assert list(out.glob("saliency_*.pgm"))
        metrics = {r.metric for r in read_report_csv(out / "report.csv")}
        assert {"nss", "cc", "auc", "kld", "sim", "sauc"} <= metrics

    def test_finetune_writes_per_observer(self, workspace, tmp_path):
        out = tmp_path / "ft"
        assert main(["finetune", "--config", SMOKE, "--seed", "0",
                     "--set", "train.ft_epochs=1",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 0
        assert len(list(out.glob("checkpoint_obs*.json"))) == 4

    def test_analyze_writes_analysis_json(self, workspace, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert "correlations" in payload and "social" in \
            payload["correlations"]

    def test_one_image_split_reports_are_strict_json(self, workspace,
                                                     tmp_path):
        # the val split holds one image, so sAUC has no negatives
        out = tmp_path / "sal"
        assert main(["eval-saliency", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"], "--split", "val",
                     "--out", str(out)]) == 0
        rows = strict_json(out / "report.json")["rows"]
        assert [row["value"] for row in rows if row["metric"] == "sauc"] \
            == [None]
        sauc = [row.value for row in read_report_csv(out / "report.csv")
                if row.metric == "sauc"]
        assert len(sauc) == 1 and math.isnan(sauc[0])

    def test_constant_groups_analysis_is_strict_json(self, workspace,
                                                     tmp_path):
        # on the one val image, both groups' social proportions are
        # constant and differ, so Welch's t is infinite
        out = tmp_path / "an"
        assert main(["analyze", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"], "--split", "val",
                     "--out", str(out)]) == 0
        payload = strict_json(out / "analysis.json")
        tables = payload["group_comparison"]["ground_truth"]
        assert None in [table["t"] for table in tables.values()]

    def test_classify_reports_accuracy(self, workspace, tmp_path):
        out = tmp_path / "cl"
        assert main(["classify", "--config", SMOKE, "--seed", "0",
                     "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 0
        detail = json.loads((out / "classify.json").read_text())
        assert 0.0 <= detail["accuracy"] <= 100.0
        assert len(detail["folds"]) == 4
        rows = read_report_csv(out / "report.csv")
        assert rows[0].metric == "accuracy"

    def test_ablate_reports_all_variants(self, workspace, tmp_path):
        out = tmp_path / "ab"
        assert main(["ablate", "--config", SMOKE, "--seed", "0",
                     "--set", "train.epochs=1",
                     "--data", workspace["data"],
                     "--out", str(out)]) == 0
        rows = read_report_csv(out / "report.csv")
        variants = {r.variant for r in rows}
        assert variants == {"none", "OE", "OE+FI", "OE+FP", "OE+FI+FP",
                            "one_hot"}
        assert len(rows) == 36

    def test_metric_vocabulary_is_what_the_reports_write(self, workspace,
                                                         tmp_path):
        data = ["--config", SMOKE, "--data", workspace["data"]]
        model = data + ["--checkpoint", workspace["ckpt"]]
        assert main(["predict", *model, "--seed", "0",
                     "--out", str(tmp_path / "p")]) == 0
        pred = str(tmp_path / "p" / "predictions_test.jsonl")
        runs = {"eval-value": data + ["--pred", pred],
                "eval-rank": model,
                "eval-saliency": model + ["--resolution", "16"],
                "classify": model,
                "ablate": data + ["--set", "train.epochs=1"]}
        written = set()
        for command, argv in runs.items():
            out = tmp_path / command
            assert main([command, *seed_flag(command), *argv,
                         "--out", str(out)]) == 0
            written |= {r.metric for r in read_report_csv(out / "report.csv")}
        assert written == METRIC_VOCABULARY


class TestGradCheck:
    def test_probe_passes(self, capsys):
        assert main(["grad-check", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "0"), ("--eps", "-1e-5"), ("--eps", "nan"),
        ("--eps", "inf"), ("--tol", "-1"), ("--tol", "nan"),
        ("--tol", "inf")])
    def test_meaningless_setting_exit_2(self, capsys, flag, value):
        assert main(["grad-check", "--seed", "0", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} must be" in captured.err
        assert "PASS" not in captured.out

    def test_loose_tolerance_still_passes(self, capsys):
        assert main(["grad-check", "--seed", "1", "--tol", "0.01"]) == 0


class TestProvenance:
    def test_hash_tracks_config_changes(self, workspace, tmp_path):
        hashes = []
        for overrides in ([], ["--set", "metric.sm_tbin=25.0"]):
            out = tmp_path / f"h{len(hashes)}"
            assert main(["eval-rank", "--config", SMOKE, *overrides,
                         "--data", workspace["data"],
                         "--checkpoint", workspace["ckpt"],
                         "--out", str(out)]) == 0
            payload = json.loads((out / "report.json").read_text())
            hashes.append(payload["provenance"]["config_hash"])
        assert hashes[0] != hashes[1]

    def test_ablate_hashes_the_seed_it_trained_with(self, workspace,
                                                    tmp_path):
        # the smoke config leaves train.seed at its default, 1
        out = tmp_path / "ab"
        assert main(["ablate", "--config", SMOKE, "--seed", "3",
                     "--set", "train.epochs=1", "--data", workspace["data"],
                     "--out", str(out)]) == 0
        used = json.loads(Path(SMOKE).read_text())
        used["train"].update(epochs=1, seed=3)
        payload = json.loads((out / "report.json").read_text())
        assert payload["provenance"]["config_hash"] == \
            config_hash(RunConfig.from_dict(used))

    def test_checkpoint_command_hashes_the_checkpoint_model(self, workspace,
                                                            tmp_path):
        # hidden=32 fits the corpus, but the hidden=16 checkpoint runs
        out = tmp_path / "rank"
        assert main(["eval-rank", "--config", SMOKE,
                     "--set", "model.hidden=32", "--data", workspace["data"],
                     "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 0
        used = RunConfig.from_dict(json.loads(Path(SMOKE).read_text()))
        payload = json.loads((out / "report.json").read_text())
        assert payload["provenance"]["config_hash"] == config_hash(used)
