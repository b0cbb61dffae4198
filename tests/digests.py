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
  * for each prediction set: the saliency maps and scores, the
    ``semantic_report``, and the value and rank rows;
  * the LOOCV group classifier on the trained full model's codes;
  * the smoke pipeline through ``cli.main``: ``train``, ``finetune``,
    ``predict`` (argmax and sample), ``eval-value``, ``eval-rank``,
    ``eval-saliency``, ``analyze``, ``classify``, ``ablate`` (one epoch)
    and ``grad-check`` on the smoke corpus above, one line per written
    file (``report.json`` with its timestamp and version masked) and one
    ``cli-exit/<command> <code>`` line per command.
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
from gazelab.config import RunConfig  # noqa: E402
from gazelab.evaluate import (  # noqa: E402
    predict_split,
    rank_eval,
    saliency_report,
    value_eval,
)
from gazelab.formats import read_corpus, write_scanpaths  # noqa: E402
from gazelab.metrics import MetricConfig, substitution_matrix  # noqa: E402
from gazelab.model import (  # noqa: E402
    ABLATION_VARIANTS,
    ScanpathModel,
    ablation_config,
)
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
                content = re.sub(rb'"(timestamp|version)": "[^"]*"',
                                 rb'"\1": "-"', content)
            yield f"cli/{name}/{path.name}", sha(content)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["grad-check", "--seed", str(SEED)])
    yield "cli-exit/grad-check", code


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

    features = extract_observer_features(full)
    groups = {p.id: p.group for p in smoke.profiles}
    result = classify_group_loocv(
        features, [groups[f.observer_id] for f in features], seed=SEED)
    yield "loocv/smoke-trained", sha(
        [result.accuracy, list(result.predictions),
         [float(p) for p in result.probabilities]])

    yield from cli_items(data["smoke"], work)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in items(Path(tmp)):
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
