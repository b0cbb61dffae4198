"""Run-config round-trip, override, hashing, and report emission tests."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazelab.config import (
    MetricReport,
    ReportRow,
    RunConfig,
    apply_overrides,
    canonical_json,
    config_hash,
    emit_report,
    naming,
    provenance_block,
    read_report_csv,
    version_string,
    write_json,
)
from gazelab.synthetic import CorpusConfig


class TestRunConfig:
    def test_defaults_construct(self):
        cfg = RunConfig()
        assert cfg.model.n_observers == cfg.corpus.n_observers == 8
        assert cfg.paths.checkpoint is None

    def test_json_round_trip_lossless(self):
        cfg = RunConfig.from_dict({
            "model": {"hidden": 32, "observer_dim": 8},
            "train": {"epochs": 3, "lr": 0.0005},
            "metric": {"sm_grid": [4, 4], "sm_tbin": 25.0,
                       "aspect": [16.0, 9.0]},
            "corpus": {"n_scenes": 12},
            "paths": {"out_dir": "runs/x"},
        })
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.metric.sm_grid == (4, 4)
        assert again.metric.aspect == (16.0, 9.0)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            RunConfig.from_dict({"modle": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys.*'model'"):
            RunConfig.from_dict({"model": {"hiden": 32}})

    def test_generator_constant_is_not_a_corpus_key(self):
        with pytest.raises(ValueError,
                           match=r"unknown keys in config section 'corpus': "
                                 r"\['temp'\]"):
            RunConfig.from_dict({"corpus": {"temp": 0.2}})

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(CorpusConfig)] == [
            "n_scenes", "n_observers", "n_group_a", "height", "width",
            "channels", "n_social_channels", "n_nonsocial_channels",
            "scanpath_len"]
        counts = {name: len(dataclasses.fields(section))
                  for name, section in RunConfig._SECTIONS}
        assert counts == {"model": 11, "train": 6, "metric": 5, "corpus": 9,
                          "paths": 3}

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
        ("metric", "sm_grid", [2]),
        ("metric", "sm_grid", [2, 5.0]),
        ("metric", "aspect", "0.05"),
        ("metric", "aspect", [4.0, None]),
        ("train", "lr", "0.001"),
        ("train", "lr", False),
        ("paths", "out_dir", 5),
        ("paths", "data_dir", None),
        ("paths", "checkpoint", 7),
        ("train", "lr", float("nan")),
        ("metric", "aspect", [float("inf"), 3.0]),
    ])
    def test_wrong_kind_names_section_and_key(self, section, key, value):
        with pytest.raises(ValueError, match=rf"{section}\.{key} must be"):
            RunConfig.from_dict({section: {key: value}})

    def test_float_fields_keep_integers_as_given(self):
        cfg = RunConfig.from_dict({"train": {"lr": 1},
                                   "metric": {"aspect": [4, 3]}})
        assert cfg.train.lr == 1 and isinstance(cfg.train.lr, int)
        assert cfg.metric.aspect == (4, 3)
        assert config_hash(cfg) == config_hash(RunConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))))

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


def _keys():
    """Dotted keys: every settable field, plus near misses and junk."""
    fields = [f"{name}.{field.name}" for name, cls in RunConfig._SECTIONS
              for field in dataclasses.fields(cls)]
    return st.one_of(st.sampled_from(fields),
                     st.builds(lambda k, extra: k + extra,
                               st.sampled_from(fields),
                               st.sampled_from(["", ".", ".x", "x", ".."])),
                     st.text(max_size=12))


def _values():
    """JSON literals of every kind, their near misses, and free text."""
    literal = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=6)),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=2),
        max_leaves=6)
    return st.one_of(literal.map(json.dumps), st.text(max_size=16),
                     st.sampled_from(["NaN", "-Infinity", "[1,", "1e999",
                                      "0x10", "'a'", "tru", "[" * 5000]))


class TestOverrideFuzz:
    # a --set parser fed anything raises ValueError or gives a config; the
    # config is only built, never run, so no fuzzed extent is allocated
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.builds(lambda k, v: f"{k}={v}", _keys(), _values()),
        st.text(max_size=20)), min_size=1, max_size=4))
    @example(["model.hidden=" + "[" * 100_000])
    @example(["corpus.n_scenes=" + "9" * 5000])
    def test_only_value_errors(self, assignments):
        try:
            config = RunConfig.from_dict(apply_overrides({}, assignments))
        except ValueError:
            return
        assert isinstance(config, RunConfig)

    def test_deep_nesting_names_the_key(self):
        with pytest.raises(ValueError, match="override model.hidden"):
            apply_overrides({}, ["model.hidden=" + "[" * 100_000])


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


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestWriteJson:
    def test_non_finite_floats_nested_become_null(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json({"t": -math.inf, "2": [1.5, math.nan, (math.inf,)],
                    "ok": {"p": 0.25, "n": None}}, path)
        assert json.loads(path.read_text(), parse_constant=refuse_constant) \
            == {"2": [1.5, None, [None]], "ok": {"n": None, "p": 0.25},
                "t": None}

    def test_finite_document_written_as_json_dumps_does(self, tmp_path):
        # integer keys keep their numeric order: 2 before 10
        doc = {"b": [1, 2.5, "x"], "a": {"c": True, "d": None},
               "e": {10: -0.0, 2: 1e300}}
        path = tmp_path / "doc.json"
        write_json(doc, path)
        assert path.read_text() == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestNaming:
    def test_value_error_gets_the_name_and_no_chain(self):
        with pytest.raises(ValueError) as caught:
            with naming("data/scenes.jsonl:3"):
                raise ValueError("E has shape (2,)")
        assert type(caught.value) is ValueError
        assert str(caught.value) == "data/scenes.jsonl:3: E has shape (2,)"
        assert caught.value.__suppress_context__
        assert caught.value.__cause__ is None

    def test_subclass_leaves_as_a_plain_value_error(self):
        class Narrow(ValueError):
            pass

        with pytest.raises(ValueError) as caught:
            with naming("ckpt.json"):
                raise Narrow("shape")
        assert type(caught.value) is ValueError
        assert str(caught.value) == "ckpt.json: shape"

    @pytest.mark.parametrize("error", [KeyError("k"), OSError("disk"),
                                       RecursionError("deep")],
                             ids=["KeyError", "OSError", "RecursionError"])
    def test_other_exceptions_pass_unchanged(self, error):
        with pytest.raises(type(error)) as caught:
            with naming("somewhere"):
                raise error
        assert caught.value is error


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

    def test_non_finite_value_null_in_json_nan_in_csv(self, tmp_path):
        rows = [ReportRow("model", "val", "sauc", float("nan")),
                ReportRow("model", "val", "kld", float("inf"), float("nan"))]
        paths = emit_report(MetricReport(rows, {}), tmp_path)
        payload = json.loads(paths["json"].read_text(),
                             parse_constant=refuse_constant)
        assert [(r["value"], r["stderr"]) for r in payload["rows"]] == \
            [(None, None), (None, None)]
        assert paths["csv"].read_text().splitlines()[1:] == \
            ["model,val,sauc,nan,", "model,val,kld,inf,nan"]
        csv_rows = read_report_csv(paths["csv"])
        assert math.isnan(csv_rows[0].value) and csv_rows[1].value == math.inf

    def test_csv_header_validated(self, tmp_path):
        bad = tmp_path / "report.csv"
        bad.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_report_csv(bad)

    @pytest.mark.parametrize("row, message", [
        ("full,test,sm,0.4", "expected 5 fields, got 4"),
        ("full,test,sm,high,", "could not convert"),
        ("full,test,banana,0.4,", "vocabulary"),
    ], ids=["field-count", "bad-float", "unknown-metric"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        bad = tmp_path / "report.csv"
        bad.write_text("variant,split,metric,value,stderr\n"
                       f"none,test,mrr,0.33,\n{row}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(bad))}:3: "
                                             f".*{message}"):
            read_report_csv(bad)

    def test_provenance_block_fields(self):
        block = provenance_block(RunConfig(), {"train": 7})
        assert set(block) == {"config_hash", "seeds", "version", "timestamp"}
        assert block["seeds"] == {"train": 7}
