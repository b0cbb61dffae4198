"""Run-config round-trip, override, hashing, and report emission tests."""

import json

import pytest

from gazelab.config import (
    MetricReport,
    ReportRow,
    RunConfig,
    apply_overrides,
    canonical_json,
    config_hash,
    emit_report,
    provenance_block,
    read_report_csv,
    version_string,
)


class TestRunConfig:
    def test_defaults_construct(self):
        cfg = RunConfig()
        assert cfg.model.n_observers == cfg.corpus.n_observers == 8
        assert cfg.paths.checkpoint is None

    def test_json_round_trip_lossless(self):
        cfg = RunConfig.from_dict({
            "model": {"hidden": 32, "observer_dim": 8},
            "train": {"epochs": 3, "lr": 0.0005},
            "metric": {"sm_grid": [4, 4], "sm_tbin": 25.0},
            "corpus": {"dur_range_a": [100.0, 200.0]},
            "paths": {"out_dir": "runs/x"},
        })
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.metric.sm_grid == (4, 4)
        assert again.corpus.dur_range_a == (100.0, 200.0)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            RunConfig.from_dict({"modle": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys.*'model'"):
            RunConfig.from_dict({"model": {"hiden": 32}})

    def test_model_corpus_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_observers"):
            RunConfig.from_dict({"model": {"n_observers": 5}})

    def test_scanpath_longer_than_decoder_rejected(self):
        with pytest.raises(ValueError, match="scanpath_len"):
            RunConfig.from_dict({"corpus": {"scanpath_len": 9}})


class TestValueKinds:
    @pytest.mark.parametrize("section, key, value", [
        ("model", "enable_fi", "False"),
        ("model", "enable_fi", 0),
        ("model", "hidden", 32.0),
        ("model", "hidden", True),
        ("model", "observer_mode", 1),
        ("corpus", "scanpath_len", 2.5),
        ("corpus", "n_scenes", "x"),
        ("corpus", "blob_count", [2]),
        ("corpus", "blob_count", [2, 5.0]),
        ("corpus", "blob_sigma", "0.05"),
        ("metric", "aspect", [4.0, None]),
        ("train", "lr", "0.001"),
        ("train", "lr", False),
        ("paths", "out_dir", 5),
        ("paths", "data_dir", None),
        ("paths", "checkpoint", 7),
    ])
    def test_wrong_kind_names_section_and_key(self, section, key, value):
        with pytest.raises(ValueError, match=rf"{section}\.{key} must be"):
            RunConfig.from_dict({section: {key: value}})

    def test_float_fields_keep_integers_as_given(self):
        cfg = RunConfig.from_dict({"train": {"lr": 1},
                                   "metric": {"aspect": [4, 3]}})
        assert cfg.train.lr == 1 and isinstance(cfg.train.lr, int)
        assert cfg.metric.aspect == (4, 3)
        assert config_hash(cfg) == config_hash(RunConfig.from_json(
            cfg.to_json()))

    def test_checkpoint_may_be_null_or_string(self):
        assert RunConfig.from_dict(
            {"paths": {"checkpoint": None}}).paths.checkpoint is None
        assert RunConfig.from_dict(
            {"paths": {"checkpoint": "a.json"}}).paths.checkpoint == "a.json"

    def test_string_bool_override_rejected(self):
        data = apply_overrides({}, ["model.enable_fi=False"])
        with pytest.raises(ValueError, match=r"model\.enable_fi"):
            RunConfig.from_dict(data)
        data = apply_overrides({}, ["model.enable_fi=false"])
        assert RunConfig.from_dict(data).model.enable_fi is False


class TestOverrides:
    def test_json_literals_and_strings(self):
        data = apply_overrides({}, ["model.hidden=32",
                                    "train.lr=0.001",
                                    "paths.out_dir=run1",
                                    "metric.sm_grid=[4,4]"])
        assert data["model"]["hidden"] == 32
        assert data["train"]["lr"] == 0.001
        assert data["paths"]["out_dir"] == "run1"
        assert data["metric"]["sm_grid"] == [4, 4]

    def test_override_existing_value(self):
        data = {"train": {"epochs": 15}}
        apply_overrides(data, ["train.epochs=2"])
        assert data["train"]["epochs"] == 2

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError, match="section.key=value"):
            apply_overrides({}, ["no-equals-sign"])

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ValueError, match="descends"):
            apply_overrides({"train": 5}, ["train.epochs=2"])


class TestHashing:
    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == \
            '{"a":[1.5,2],"b":1}'

    def test_hash_changes_iff_config_changes(self):
        base = RunConfig()
        same = RunConfig()
        other = RunConfig.from_dict({"train": {"epochs": 5}})
        assert config_hash(base) == config_hash(same)
        assert config_hash(base) != config_hash(other)
        assert len(config_hash(base)) == 64

    def test_version_string_shape(self):
        version = version_string()
        assert version.startswith("v0.1")


class TestReport:
    def rows(self):
        return [ReportRow("full", "test", "sm", 0.41, 0.02),
                ReportRow("none", "test", "mrr", 0.33),
                ReportRow("full", "test", "sed", 3.25, 0.1)]

    def test_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="vocabulary"):
            ReportRow("full", "test", "banana", 1.0)

    def test_emit_and_reparse_consistent(self, tmp_path):
        report = MetricReport(self.rows(), {"config_hash": "x",
                                            "seeds": {}, "version": "v0"})
        paths = emit_report(report, tmp_path)
        payload = json.loads(paths["json"].read_text())
        csv_rows = read_report_csv(paths["csv"])
        assert [r.__dict__ for r in csv_rows] == payload["rows"]
        assert payload["provenance"]["config_hash"] == "x"

    def test_empty_rows_header_only(self, tmp_path):
        report = MetricReport([], {})
        paths = emit_report(report, tmp_path)
        assert paths["csv"].read_text().strip() == \
            "variant,split,metric,value,stderr"
        assert json.loads(paths["json"].read_text())["rows"] == []

    def test_float_precision_survives_csv(self, tmp_path):
        value = 0.1234567890123456789
        report = MetricReport([ReportRow("full", "test", "nss", value)], {})
        paths = emit_report(report, tmp_path)
        assert read_report_csv(paths["csv"])[0].value == float(value)

    def test_csv_header_validated(self, tmp_path):
        bad = tmp_path / "report.csv"
        bad.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_report_csv(bad)

    def test_provenance_block_fields(self):
        block = provenance_block(RunConfig(), {"train": 7})
        assert set(block) == {"config_hash", "seeds", "version", "timestamp"}
        assert block["seeds"] == {"train": 7}
