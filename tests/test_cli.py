"""End-to-end CLI tests driven through main() in process."""

import json
import shutil
import time
from pathlib import Path

import pytest

from gazelab.cli import main
from gazelab.config import read_report_csv
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
        err = capsys.readouterr().err
        assert ":3:" in err and "non-positive duration" in err

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
        'corpus.n_scenes="x"'])
    def test_wrong_config_value_kind_exit_2(self, tmp_path, capsys,
                                            override):
        code = main(["gen-data", "--seed", "0", "--set", override,
                     "--out", str(tmp_path / "data")])
        assert code == 2
        assert f"{override.partition('=')[0]} must be" in \
            capsys.readouterr().err
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


class TestGradCheck:
    def test_probe_passes(self, capsys):
        assert main(["grad-check", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

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
