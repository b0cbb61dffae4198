"""SHA-256 digests of the outputs a bit-identical refactor must keep.

    python tests/digests.py

prints one ``<item> <sha256>`` line per output. Run it on two checkouts
(copy the file into the other tree's ``tests/`` if it lacks it) and
compare the lines: equal digests mean equal bytes. It imports gazelab from
the ``src/`` next to it and uses only long-standing public names, so one
copy of the file runs against old and new trees alike. It runs on one BLAS
thread and takes well under a minute.

The items:
  * the ``gen-data`` files of the smoke config, the default corpus, the
    12-fixation corpus of the benchmark's eval-long workload and the
    mid-size corpus of its cli-ablation workload;
  * ScanMatch's substitution matrix at the default ``sm_grid`` and
    ``sed_grid``, and at (7, 3) on a 1.3 x 2.9 screen;
  * the parameters of each distinct ablation config after one epoch on
    the smoke corpus;
  * argmax and sampled test predictions of the trained full model on the
    smoke corpus and of an untrained full model on the default corpus;
  * argmax and sampled test predictions of each distinct ablation config,
    untrained, on the mid-size corpus (three test images);
  * for each prediction set: the saliency maps and scores, the
    ``semantic_report``, and the value and rank rows;
  * the LOOCV group classifier on the trained full model's codes;
  * the smoke pipeline through ``cli.main``: ``train``, ``finetune``,
    ``predict`` (argmax and sample), ``eval-value``, ``eval-rank``,
    ``eval-saliency``, ``analyze``, ``classify``, ``ablate`` (one epoch)
    and ``grad-check`` on the smoke corpus above, one line per written
    file (``report.json`` with its config hash, timestamp and version
    masked), one ``cli/<command>/report.json#config_hash <hash>`` line per
    report, so a change to the run-config schema moves only those lines,
    one ``cli/<command>/<checkpoint>#params`` line per written checkpoint
    (the parameters ``read_checkpoint`` returns, in name order), so a
    change to the checkpoint encoding moves only the file lines, and one
    ``cli-exit/<command> <code>`` line per command;
  * one ``cli-error/<case>`` line per malformed input given to
    ``cli.main``: the digest of what it writes to stderr, with the work
    directory masked, for each kind of input a reader or command names in
    its error (run config, checkpoint, corpus files, predictions) and for
    a broken header, JSON line and record of a JSON-lines file; and one
    ``report-csv-error`` line, the message of a bad report CSV row.
Pytest does not collect this file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gazelab import cli  # noqa: E402
from gazelab.analysis import (  # noqa: E402
    classify_group_loocv,
    extract_observer_features,
    semantic_report,
)
from gazelab.config import RunConfig, read_report_csv  # noqa: E402
from gazelab.evaluate import (  # noqa: E402
    predict_split,
    rank_eval,
    saliency_report,
    value_eval,
)
from gazelab.formats import (  # noqa: E402
    read_checkpoint,
    read_corpus,
    write_checkpoint,
    write_scanpaths,
)
from gazelab.metrics import MetricConfig, substitution_matrix  # noqa: E402
from gazelab.model import (  # noqa: E402
    ABLATION_VARIANTS,
    ModelConfig,
    ScanpathModel,
    ablation_config,
)
from gazelab.scanpath import Fixation, Scanpath  # noqa: E402
from gazelab.train import train  # noqa: E402

SMOKE = ROOT / "configs" / "smoke.json"
SEED = 3
# the corpus sections of the benchmark's two workloads
EVAL_LONG = {"corpus": {"scanpath_len": 12}, "model": {"max_steps": 12}}
MID = {"corpus": dict(n_scenes=12, n_observers=8, n_group_a=4, height=12,
                      width=12, channels=8, n_social_channels=2,
                      n_nonsocial_channels=2, scanpath_len=6),
       "model": dict(n_observers=8, height=12, width=12, channels=8,
                     max_steps=6)}


def sha(data) -> str:
    """Digest of bytes, of an array (with its dtype and shape) or of a
    JSON-able value (floats by their round-trip repr)."""
    if isinstance(data, np.ndarray):
        data = (f"{data.dtype} {data.shape}".encode()
                + np.ascontiguousarray(data).tobytes())
    elif not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def gen_data(config: Path | None, out: Path) -> Path:
    argv = ["gen-data", "--seed", str(SEED), "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"gen-data {config} exited {code}")
    return out


def corpus_items(name: str, data: Path):
    for path in sorted(data.iterdir()):
        yield f"gen-data/{name}/{path.name}", sha(path.read_bytes())


def prediction_items(name: str, model, corpus, work: Path):
    gt = corpus.scanpaths["test"]
    groups = {p.id: p.group for p in corpus.profiles}
    for mode in ("argmax", "sample"):
        tag = f"{name}/{mode}"
        preds = predict_split(model, corpus, "test", mode=mode, seed=SEED)
        path = work / f"{name}-{mode}.jsonl"
        write_scanpaths(preds, path)
        yield f"predictions/{tag}", sha(path.read_bytes())
        saliency = saliency_report(preds, gt, resolution=(16, 16), seed=SEED)
        yield f"saliency-maps/{tag}", sha(np.stack(
            [saliency["maps"][i].grid for i in sorted(saliency["maps"])]))
        yield f"saliency-scores/{tag}", sha(
            [[i, dataclasses.asdict(row)]
             for i, row in sorted(saliency["per_image"].items())])
        yield f"semantic-report/{tag}", sha(semantic_report(
            preds, gt, corpus.scenes, groups=groups, seed=SEED))
        value = value_eval(preds, gt, MetricConfig())
        yield f"value-rows/{tag}", sha(
            [[list(key), row] for key, row in sorted(value.pairs.items())])
        ranking = rank_eval(preds, gt, MetricConfig())
        yield f"rank-rows/{tag}", sha(
            [[list(key), r] for key, r in sorted(ranking.ranks.items())]
            + [ranking.mrr, sorted(ranking.recall_at.items())])


def variant_prediction_items(corpus, work: Path):
    base = RunConfig.from_dict(MID).model
    seen = set()
    for variant in ABLATION_VARIANTS:
        config = ablation_config(base, variant)
        if dataclasses.astuple(config) in seen:
            continue
        seen.add(dataclasses.astuple(config))
        model = ScanpathModel(config, seed=SEED)
        for mode in ("argmax", "sample"):
            preds = predict_split(model, corpus, "test", mode=mode, seed=SEED)
            path = work / f"mid-{variant}-{mode}.jsonl"
            write_scanpaths(preds, path)
            yield (f"predictions/mid-untrained/{variant}/{mode}",
                   sha(path.read_bytes()))


def cli_items(data: Path, work: Path):
    out = work / "cli"
    ckpt = out / "train" / "checkpoint.json"
    pred = out / "predict-argmax" / "predictions_test.jsonl"
    run = ["--config", SMOKE, "--set", "train.epochs=1",
           "--set", "train.ft_epochs=1", "--data", data]
    seed = ["--seed", SEED]
    commands = {
        "train": ["train", *run, *seed],
        "finetune": ["finetune", *run, *seed, "--checkpoint", ckpt],
        "predict-argmax": ["predict", *run, *seed, "--checkpoint", ckpt],
        "predict-sample": ["predict", *run, *seed, "--checkpoint", ckpt,
                           "--mode", "sample"],
        "eval-value": ["eval-value", *run, "--pred", pred],
        "eval-rank": ["eval-rank", *run, "--checkpoint", ckpt],
        "eval-saliency": ["eval-saliency", *run, *seed, "--checkpoint", ckpt,
                          "--resolution", 16],
        "analyze": ["analyze", *run, *seed, "--checkpoint", ckpt],
        "classify": ["classify", *run, *seed, "--checkpoint", ckpt],
        "ablate": ["ablate", *run, *seed],
    }
    for name, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv + ["--out", out / name]])
        yield f"cli-exit/{name}", code
        for path in sorted((out / name).iterdir()):
            content = path.read_bytes()
            if path.name == "report.json":
                yield (f"cli/{name}/report.json#config_hash",
                       json.loads(content)["provenance"]["config_hash"])
                content = re.sub(
                    rb'"(config_hash|timestamp|version)": "[^"]*"',
                    rb'"\1": "-"', content)
            yield f"cli/{name}/{path.name}", sha(content)
            if path.name.startswith("checkpoint"):
                yield f"cli/{name}/{path.name}#params", sha(
                    [[n, sha(p.data)] for n, p in
                     sorted(read_checkpoint(path).params.items())])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["grad-check", "--seed", str(SEED)])
    yield "cli-exit/grad-check", code


def edit_json(path: Path, edit) -> None:
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


def edit_line(path: Path, lineno: int, text) -> None:
    """Replace line ``lineno`` of a file, or apply ``text`` to its record."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text if isinstance(text, str) else \
        json.dumps(text(json.loads(lines[lineno - 1])))
    path.write_text("\n".join(lines) + "\n")


def cli_error_items(data: Path, work: Path):
    """One malformed input per case, each given to the command that reads
    it; the digest is of stderr with ``work`` masked."""
    cases = work / "cli-error"
    cases.mkdir()
    ckpt = work / "cli" / "train" / "checkpoint.json"
    pred = work / "cli" / "predict-argmax" / "predictions_test.jsonl"
    smoke = json.loads(SMOKE.read_text())
    three = ["--set", "corpus.n_observers=3", "--set", "corpus.n_group_a=1",
             "--set", "model.n_observers=3"]

    def checkpoint(name, **changes):
        path = cases / f"{name}.json"
        write_checkpoint(ScanpathModel(
            ModelConfig(**{**smoke["model"], **changes}), seed=SEED), path)
        return path

    def copy(name, source=None):
        path = cases / name
        if source is None:
            shutil.copytree(data, path)
        else:
            shutil.copy(source, path)
        return path

    def text(name, content):
        path = cases / name
        path.write_text(content)
        return path

    def predicted(name, scanpaths):
        path = cases / name
        write_scanpaths(scanpaths, path)
        return path

    def edit(path, change):
        change(path)
        return path

    run = ["--config", SMOKE]
    seed = ["--seed", SEED]

    def eval_value(pred_path, data_dir=data, config=SMOKE):
        return ["eval-value", "--config", config, "--data", data_dir,
                "--pred", pred_path]

    def predict(ckpt_path, data_dir=data):
        return ["predict", *run, *seed, "--data", data_dir,
                "--checkpoint", ckpt_path]

    gaze_header = json.dumps({"format": "isp-gaze-v1"})
    bad_fixation = Scanpath(0, 1, [Fixation(0.5, 0.5, -5.0)])
    duplicate = Scanpath(0, 0, [Fixation(0.5, 0.5, 120.0)])
    three_data = cases / "three-data"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([str(a) for a in ["gen-data", *run, *three, *seed,
                                   "--out", three_data]])
    three_ckpt = checkpoint("three", n_observers=3)
    commands = {
        # each input a command names in its errors
        "run-config-value": eval_value(pred, config=text(
            "config.json", json.dumps({"model": {"hidden": "x"}}))),
        "checkpoint-fit": predict(checkpoint("six", n_observers=6)),
        "checkpoint-config": predict(edit(
            copy("unknown.json", ckpt), lambda p: edit_json(
                p, lambda d: d["config"].__setitem__("colour", 1)))),
        "eval-value-duplicate": eval_value(
            predicted("duplicate.jsonl", [duplicate, duplicate])),
        "gaze-fixation": eval_value(
            predicted("fixation.jsonl", [duplicate, bad_fixation])),
        "analyze-three-observers": ["analyze", *run, *three, *seed,
                                    "--data", three_data,
                                    "--checkpoint", three_ckpt],
        "classify-three-observers": ["classify", *run, *three, *seed,
                                     "--data", three_data,
                                     "--checkpoint", three_ckpt],
        "classify-one-hot": ["classify", *run, *seed, "--data", data,
                             "--checkpoint", checkpoint(
                                 "one-hot", observer_mode="one_hot_concat")],
        "observers-temp": eval_value(pred, edit(
            copy("observers-temp"), lambda d: edit_json(
                d / "observers.json",
                lambda o: o["observers"][1].__setitem__("temp", 0.0)))),
        "manifest-config": eval_value(pred, edit(
            copy("manifest-config"), lambda d: edit_json(
                d / "manifest.json",
                lambda m: m["config"].__setitem__("n_scenes", "x")))),
        "manifest-no-files": eval_value(pred, edit(
            copy("manifest-no-files"), lambda d: edit_json(
                d / "manifest.json", lambda m: m.pop("files")))),
        # a JSON-lines file's header, lines and records
        "gaze-empty": eval_value(text("empty.jsonl", "")),
        "gaze-header": eval_value(text(
            "header.jsonl", json.dumps({"format": "isp-gaze-v0"}) + "\n")),
        "gaze-bad-json": eval_value(text(
            "bad-json.jsonl", gaze_header + "\n{\"image_id\": 0,\n")),
        "gaze-missing-key": eval_value(edit(
            copy("missing-key.jsonl", pred), lambda p: edit_line(
                p, 3, lambda r: {k: r[k] for k in ("image_id",
                                                   "fixations")}))),
        "gaze-unexpected-key": eval_value(edit(
            copy("extra-key.jsonl", pred), lambda p: edit_line(
                p, 2, lambda r: {**r, "note": 1}))),
        "scenes-empty": eval_value(pred, edit(
            copy("scenes-empty"),
            lambda d: (d / "scenes.jsonl").write_text(""))),
        "scenes-header": eval_value(pred, edit(
            copy("scenes-header"), lambda d: edit_line(
                d / "scenes.jsonl", 1, json.dumps({"format": "x"})))),
        "scenes-bad-json": eval_value(pred, edit(
            copy("scenes-bad-json"),
            lambda d: edit_line(d / "scenes.jsonl", 3, "[1, 2"))),
        "scenes-missing-key": eval_value(pred, edit(
            copy("scenes-missing-key"), lambda d: edit_line(
                d / "scenes.jsonl", 2, lambda r: {
                    k: v for k, v in r.items() if k != "blobs"}))),
        # top-level keys of the manifest and the checkpoint
        "manifest-no-config": eval_value(pred, edit(
            copy("manifest-no-config"), lambda d: edit_json(
                d / "manifest.json", lambda m: m.pop("config")))),
        "manifest-unexpected-key": eval_value(pred, edit(
            copy("manifest-extra"), lambda d: edit_json(
                d / "manifest.json",
                lambda m: m.__setitem__("note", 1)))),
        "checkpoint-no-config": predict(edit(
            copy("no-config.json", ckpt),
            lambda p: edit_json(p, lambda d: d.pop("config")))),
        "checkpoint-unexpected-key": predict(edit(
            copy("extra.json", ckpt),
            lambda p: edit_json(p, lambda d: d.__setitem__("note", 1)))),
    }
    for name, argv in commands.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            cli.main([str(a) for a in argv + ["--out", cases / "out"]])
        yield f"cli-error/{name}", sha(
            err.getvalue().replace(str(work), "<work>").encode())
    report = text("report.csv", "variant,split,metric,value,stderr\n"
                  "full,test,banana,0.4,\n")
    try:
        read_report_csv(report)
    except ValueError as error:
        yield "report-csv-error/unknown-metric", sha(
            str(error).replace(str(work), "<work>").encode())


def items(work: Path):
    configs = {}
    for name, sections in (("eval-long", EVAL_LONG), ("mid", MID)):
        configs[name] = work / f"{name}.json"
        configs[name].write_text(json.dumps(sections))
    data = {name: gen_data(config, work / name) for name, config in
            (("smoke", SMOKE), ("default", None),
             ("eval-long", configs["eval-long"]), ("mid", configs["mid"]))}
    for name, path in data.items():
        yield from corpus_items(name, path)

    default = MetricConfig()
    for grid, aspect in ((default.sm_grid, default.aspect),
                         (default.sed_grid, default.aspect),
                         ((7, 3), (1.3, 2.9))):
        yield f"substitution-matrix/{grid}@{aspect}", sha(
            substitution_matrix(grid, aspect))

    run = RunConfig.from_dict(json.loads(SMOKE.read_text()))
    smoke = read_corpus(data["smoke"])
    train_cfg = dataclasses.replace(run.train, epochs=1, seed=SEED)
    trained = {}
    for variant in ABLATION_VARIANTS:
        key = dataclasses.astuple(ablation_config(run.model, variant))
        if key in trained:
            continue
        model = ScanpathModel(ablation_config(run.model, variant), seed=SEED)
        train(model, smoke, train_cfg)
        trained[key] = model
        yield f"parameters/{variant}", sha(
            [[n, sha(p.data)] for n, p in sorted(model.params.items())])
    full = trained[dataclasses.astuple(ablation_config(run.model, "OE+FI+FP"))]

    yield from prediction_items("smoke-trained", full, smoke, work)
    corpus = read_corpus(data["default"])
    yield from prediction_items("default-untrained",
                                ScanpathModel(RunConfig().model, seed=SEED),
                                corpus, work)
    yield from variant_prediction_items(read_corpus(data["mid"]), work)

    features = extract_observer_features(full)
    groups = {p.id: p.group for p in smoke.profiles}
    result = classify_group_loocv(
        features, [groups[f.observer_id] for f in features], seed=SEED)
    yield "loocv/smoke-trained", sha(
        [result.accuracy, list(result.predictions),
         [float(p) for p in result.probabilities]])

    yield from cli_items(data["smoke"], work)
    yield from cli_error_items(data["smoke"], work)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in items(Path(tmp)):
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
