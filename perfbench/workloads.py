"""The two benchmark workloads.

Each workload makes its inputs from the run seed in ``setup`` and then runs
whole rounds of the same operations. ``check`` tests the outputs of the
last rounds. The corpus is generated with the seed; the model is
initialised with the seed; the k-th training round shuffles with seed
``1000 * seed + k``.

Every stage function is called through its module attribute
(``evaluate.value_eval``), which is where the probes sit.
"""

from __future__ import annotations

import importlib.util
import io
import json
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import gazelab.cli as cli
import gazelab.evaluate as evaluate
import gazelab.formats as formats
import gazelab.metrics as metrics
import gazelab.train as train_mod
from gazelab.config import RunConfig, read_report_csv
from gazelab.model import IOR_SIGMA_CELLS, ScanpathModel, grid_cell
from gazelab.synthetic import Corpus
from gazelab.tensor import Tape, Tensor

import checks

# the smallest corpus every command accepts: group tests need two observers
# per group, LOOCV needs four observers
TINY_CORPUS = dict(n_scenes=6, n_observers=4, n_group_a=2, height=8, width=8,
                   channels=6, n_social_channels=2, n_nonsocial_channels=2,
                   scanpath_len=4)
TINY_MODEL = dict(n_observers=4, height=8, width=8, channels=6,
                  observer_dim=4, hidden=8, semantic_channels=2, max_steps=4)


@dataclass
class CliRun:
    code: int | None
    stderr: str
    error: str | None  # the traceback, when an exception left cli.main


def run_cli(argv) -> CliRun:
    """gazelab's main() in process; its stdout is dropped, stderr kept."""
    err = io.StringIO()
    code, error = None, None
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:  # a shell would print this traceback
            error = traceback.format_exc()
    return CliRun(code, err.getvalue(), error)


def write_config(path: Path, **sections) -> tuple[Path, RunConfig]:
    path.write_text(json.dumps(sections, indent=2, sort_keys=True) + "\n")
    return path, RunConfig.from_dict(sections)


def gen_data(config: Path, seed: int, out: Path) -> None:
    result = run_cli(["gen-data", "--config", config, "--seed", seed,
                      "--out", out])
    if result.code != 0:
        raise RuntimeError(f"gen-data exited {result.code}: "
                           f"{result.stderr}{result.error or ''}")


def copy_model(model: ScanpathModel) -> ScanpathModel:
    params = {name: Tensor(p.data.copy(), trainable=True)
              for name, p in model.params.items()}
    return ScanpathModel(model.config, params=params)


def batch_loss(model, corpus, items):
    """Mean teacher-forced loss of one same-image batch, as train() has it."""
    total = None
    for gt in items:
        scene = corpus.scene_by_id(gt.image_id)
        loss, _, _ = train_mod.rollout_loss(model, scene.E, gt.observer_id,
                                            gt)
        total = loss if total is None else total + loss
    return total * (1.0 / len(items))


def load_reference_rollout(root: Path):
    """tests/support.py::reference_rollout, the plain-numpy forward pass."""
    spec = importlib.util.spec_from_file_location(
        "gazelab_test_support", root / "tests" / "support.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_rollout


class Workload:
    """Shared state: seed, size, working directory and the last outputs."""

    ops_per_round = 0
    min_rounds = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path, root: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.root = root
        workdir.mkdir(parents=True, exist_ok=True)

    def train_config(self, index: int):
        return replace(self.run.train, epochs=1, seed=1000 * self.seed + index)


@dataclass
class Evaluation:
    """Predictions for a few images of a split and their three scores."""

    preds: list
    value: object
    ranking: object
    saliency: dict


def view(corpus: Corpus, split: str, image_ids) -> Corpus:
    """The corpus with one split, cut down to the given images."""
    ids = sorted(int(i) for i in image_ids)
    return replace(corpus, split_ids={split: ids}, scanpaths={
        split: [sp for sp in corpus.scanpaths[split] if sp.image_id in ids]})


def groups(ids, size: int) -> list[list[int]]:
    return [ids[i:i + size] for i in range(0, len(ids), size)]


def evaluate_view(model, corpus: Corpus, split: str, metric,
                  seed: int) -> Evaluation:
    """Predict, then score by value, rank and saliency, on one thread."""
    gt = corpus.scanpaths[split]
    preds = evaluate.predict_split(model, corpus, split, seed=seed)
    return Evaluation(
        preds, evaluate.value_eval(preds, gt, metric, threads=1),
        evaluate.rank_eval(preds, gt, metric, threads=1),
        evaluate.saliency_report(preds, gt, seed=seed))


def merged(evaluations) -> tuple[list, dict, dict]:
    """Predictions, value rows and ranks of every image evaluated."""
    preds, pairs, ranks = [], {}, {}
    for ev in evaluations:
        preds += ev.preds
        pairs.update(ev.value.pairs)
        ranks.update(ev.ranking.ranks)
    return preds, pairs, ranks


class EvalLong(Workload):
    """Free-running prediction and evaluation on 12-fixation scanpaths.

    An untrained full model, loaded from a checkpoint, predicts two test
    images per round, and value, rank and saliency evaluation of those
    predictions follow; six rounds cover the test split. The saliency
    shuffle draws its negatives from the other image of the pair. Each
    round also trains a fresh copy of the model for one epoch on the eight
    scanpaths of one training image, so that training on long scanpaths
    has a rate here too; the evaluated model stays untrained.
    """

    ops_per_round = 5

    def setup(self) -> None:
        if self.tiny:
            sections = dict(corpus=dict(TINY_CORPUS, scanpath_len=8),
                            model=dict(TINY_MODEL, max_steps=8))
        else:
            sections = dict(corpus={"scanpath_len": 12},
                            model={"max_steps": 12})
        config, self.run = write_config(self.workdir / "config.json",
                                        **sections)
        gen_data(config, self.seed, self.workdir / "data")
        self.corpus = formats.read_corpus(self.workdir / "data")
        checkpoint = self.workdir / "checkpoint.json"
        formats.write_checkpoint(ScanpathModel(self.run.model,
                                               seed=self.seed), checkpoint)
        self.model = formats.read_checkpoint(checkpoint)
        self.test_views = [view(self.corpus, "test", g)
                           for g in groups(self.corpus.split_ids["test"], 2)]
        self.train_views = [view(self.corpus, "train", [i])
                            for i in self.corpus.split_ids["train"]]
        self.min_rounds = len(self.test_views)
        gt = self.corpus.scanpaths["test"][0]
        pred = self.model.sample_scanpath(
            self.corpus.scene_by_id(gt.image_id).E, gt.observer_id,
            n_steps=len(gt), image_id=gt.image_id)
        metrics.scanmatch(pred, gt, self.run.metric)
        self.evals = {}

    def run_round(self, index: int) -> int:
        group = index % len(self.test_views)
        self.evals[group] = evaluate_view(
            self.model, self.test_views[group], "test", self.run.metric,
            self.seed)
        train_mod.train(copy_model(self.model),
                        self.train_views[index % len(self.train_views)],
                        self.train_config(index))
        return 0

    def check(self, n_pairs: int = 12, n_ranked: int = 6,
              n_self_images: int = 2) -> list[str]:
        cfg = self.model.config
        gt = self.corpus.scanpaths["test"]
        preds, pairs, ranks = merged(self.evals.values())
        rng = np.random.default_rng([self.seed, 73])
        oracle = checks.Oracle(self.run.metric)
        by_pair = {(sp.image_id, sp.observer_id): sp for sp in preds}

        picked = [gt[int(i)] for i in rng.choice(
            len(gt), size=min(n_pairs, len(gt)), replace=False)]
        failures = checks.check_value_pairs(
            oracle, [by_pair[(sp.image_id, sp.observer_id)] for sp in picked],
            picked, pairs)
        ranked = [preds[int(i)] for i in rng.choice(
            len(preds), size=min(n_ranked, len(preds)), replace=False)]
        failures += checks.check_ranks(oracle, ranked, gt, ranks)

        test_ids = self.corpus.split_ids["test"]
        images = rng.choice(test_ids, size=min(n_self_images, len(test_ids)),
                            replace=False)
        own = [sp for sp in gt if sp.image_id in set(int(i) for i in images)]
        failures += checks.check_self_ranking(
            evaluate.rank_eval(own, own, self.run.metric, threads=1))

        failures += checks.check_predictions(preds, len(gt[0]), cfg.height,
                                             cfg.width)
        if len(preds) != len(gt):
            failures.append(f"{len(preds)} predictions for {len(gt)} test "
                            "scanpaths")
        maps = []
        for image_id in test_ids:
            for side in (preds, gt):
                fixations = [f for sp in side if sp.image_id == image_id
                             for f in sp.fixations]
                maps.append(evaluate.build_saliency(fixations).grid)
        failures += checks.check_simplex(maps, "density map")
        return failures + self.check_model(rng)

    def check_model(self, rng) -> list[str]:
        """The forward pass against the reference, and the tape gradients.

        Both run on the training split, where each round trains a copy.
        """
        cfg = self.model.config
        train_set = self.corpus.scanpaths["train"]
        gt = train_set[int(rng.integers(len(train_set)))]
        E = self.corpus.scene_by_id(gt.image_id).E
        steps = self.model.rollout_teacher_forced(E, gt.observer_id, gt)
        reference = load_reference_rollout(self.root)(
            {name: p.data for name, p in self.model.params.items()}, E,
            [grid_cell(f.x, f.y, cfg.height, cfg.width)
             for f in gt.fixations],
            self.model.one_hot(gt.observer_id), cfg.hidden,
            cfg.semantic_channels, enable_fi=cfg.enable_fi,
            enable_fp=cfg.enable_fp, use_u=cfg.uses_embedding,
            concat_onehot=cfg.uses_one_hot, ior_sigma=IOR_SIGMA_CELLS)
        failures = checks.check_reference(
            [(m.data, mu.data, var.data) for m, mu, var in steps], reference)
        failures += checks.check_simplex([m.data for m, _, _ in steps],
                                         "teacher-forced step map")
        return failures + self.check_gradients(rng)

    def check_gradients(self, rng, n_entries: int = 16,
                        steps=(1e-5, 1e-6, 1e-7)):
        """Tape gradients of a probe batch against central differences.

        A ReLU kink inside the difference interval spoils the quotient, so
        an entry that disagrees is tried again with a smaller step. A wrong
        gradient disagrees at every step.
        """
        train_set = self.corpus.scanpaths["train"]
        image_id = train_set[int(rng.integers(len(train_set)))].image_id
        same_image = [sp for sp in train_set if sp.image_id == image_id]
        picks = rng.choice(len(same_image), size=self.run.train.batch_size,
                           replace=False)
        items = [same_image[int(i)] for i in picks]
        params = self.model.params

        def loss():
            return float(batch_loss(self.model, self.corpus, items).data)

        with Tape() as tape:
            root = batch_loss(self.model, self.corpus, items)
        grads = tape.gradients(root)
        reached = sorted(name for name, p in params.items() if p in grads)
        analytic, numeric = {}, {}
        for _ in range(n_entries):
            name = reached[int(rng.integers(len(reached)))]
            data = params[name].data
            index = tuple(int(rng.integers(n)) for n in data.shape)
            key = (name, index)
            analytic[key] = float(grads[params[name]][index])
            original = data[index]
            for eps in steps:
                data[index] = original + eps
                up = loss()
                data[index] = original - eps
                down = loss()
                data[index] = original
                numeric[key] = (up - down) / (2.0 * eps)
                if checks.gradient_error(analytic[key], numeric[key]) <= \
                        checks.GRAD_TOL:
                    break
        return checks.check_gradients(analytic, numeric)

    def summary(self) -> dict:
        last = [self.evals[g] for g in sorted(self.evals)]
        return {name: float(np.mean([get(e) for e in last])) for name, get in (
            ("sm", lambda e: e.value.means["sm"]),
            ("mm", lambda e: e.value.means["mm"]),
            ("mrr", lambda e: e.ranking.mrr),
            ("nss", lambda e: e.saliency["means"]["nss"]))}


# the mid-size corpus of the CLI pipeline; the trait-group split and the
# LOOCV classifier want all eight observers
MID_CORPUS = dict(n_scenes=12, n_observers=8, n_group_a=4, height=12,
                  width=12, channels=8, n_social_channels=2,
                  n_nonsocial_channels=2, scanpath_len=6)
MID_MODEL = dict(n_observers=8, height=12, width=12, channels=8,
                 observer_dim=8, hidden=32, semantic_channels=2, max_steps=6)
REPORTING = ("eval-value", "eval-rank", "eval-saliency", "classify", "ablate")
MALFORMED_LINE = 4


class CliAblation(Workload):
    """The CLI pipeline in process, ending with the six-variant ablation.

    Each round also runs four commands on malformed input. They read a
    fixture corpus made with seed 0, so their inputs do not depend on the
    run seed. Each succeeds only when the command exits 2 without a
    traceback and its message names the file, and the line for JSONL.
    """

    ops_per_round = 12

    def setup(self) -> None:
        w = self.workdir
        corpus, model = (TINY_CORPUS, TINY_MODEL) if self.tiny \
            else (MID_CORPUS, MID_MODEL)
        self.config, self.run = write_config(
            w / "config.json", corpus=corpus, model=model,
            train={"epochs": 1, "lr": 3e-4},
            paths={"data_dir": str(w / "data"), "out_dir": str(w / "out")})
        gen_data(self.config, self.seed, w / "data")
        self.corpus = formats.read_corpus(w / "data")
        self.malformed = self.make_malformed(w / "fixture")
        self.command_failures: list[str] = []
        self.malformed_outcomes: dict[str, str] = {}

    def make_malformed(self, root: Path) -> list[tuple]:
        """(name, argv, text the error message must hold) per bad input."""
        root.mkdir(parents=True)
        config, _ = write_config(
            root / "config.json",
            corpus=TINY_CORPUS, model=TINY_MODEL,
            paths={"data_dir": str(root / "data"),
                   "out_dir": str(root / "out")})
        gen_data(config, 0, root / "data")
        lines = (root / "data" / "gaze_test.jsonl").read_text().splitlines()
        good = root / "predictions.jsonl"
        good.write_text("\n".join(lines) + "\n")

        def corrupt(name, change):
            record = json.loads(lines[MALFORMED_LINE - 1])
            change(record)
            bad = list(lines)
            bad[MALFORMED_LINE - 1] = json.dumps(record)
            path = root / f"{name}.jsonl"
            path.write_text("\n".join(bad) + "\n")
            return path

        infinite = corrupt("infinite_duration",
                           lambda r: r["fixations"][0].__setitem__(
                               2, float("inf")))
        null = corrupt("null_coordinate",
                       lambda r: r["fixations"][0].__setitem__(0, None))
        bad_id = corrupt("non_integer_image_id",
                         lambda r: r.__setitem__("image_id",
                                                 f"x{r['image_id']}"))
        no_files = root / "no_files"
        shutil.copytree(root / "data", no_files)
        manifest = json.loads((no_files / "manifest.json").read_text())
        del manifest["files"]
        (no_files / "manifest.json").write_text(json.dumps(manifest))

        def eval_value(pred, data=root / "data"):
            return ["eval-value", "--config", config, "--data", data,
                    "--pred", pred, "--out", root / "out", "--threads", 1]

        return [
            ("infinite duration", eval_value(infinite),
             f"{infinite}:{MALFORMED_LINE}"),
            ("null coordinate", eval_value(null), f"{null}:{MALFORMED_LINE}"),
            ("manifest without files", eval_value(good, no_files),
             str(no_files / "manifest.json")),
            ("non-integer image_id", eval_value(bad_id),
             f"{bad_id}:{MALFORMED_LINE}"),
        ]

    def commands(self) -> list[tuple[str, list]]:
        w, seed = self.workdir / "out", self.seed
        checkpoint = w / "train" / "checkpoint.json"
        commands = [
            ("train", ["--seed", seed, "--out", w / "train"]),
            ("predict", ["--seed", seed, "--checkpoint", checkpoint,
                         "--out", w / "predict"]),
            ("eval-value", ["--pred", w / "predict" / "predictions_test.jsonl",
                            "--out", w / "eval-value", "--threads", 1]),
            ("eval-rank", ["--checkpoint", checkpoint, "--out",
                           w / "eval-rank", "--threads", 1]),
            ("eval-saliency", ["--seed", seed, "--checkpoint", checkpoint,
                               "--out", w / "eval-saliency"]),
            ("analyze", ["--seed", seed, "--checkpoint", checkpoint,
                         "--out", w / "analyze"]),
            ("classify", ["--seed", seed, "--checkpoint", checkpoint,
                          "--out", w / "classify"]),
            ("ablate", ["--seed", seed, "--out", w / "ablate",
                        "--threads", 1]),
        ]
        return [(name, [name, "--config", self.config] + argv)
                for name, argv in commands]

    def run_round(self, index: int) -> int:
        failed = 0
        for name, argv in self.commands():
            result = run_cli(argv)
            if result.code != 0 or result.error is not None:
                failed += 1
                self.command_failures.append(
                    f"round {index}: {name} exited {result.code}: "
                    f"{(result.error or result.stderr).strip()[-300:]}")
        for name, argv, expected in self.malformed:
            result = run_cli(argv)
            if result.error is not None:
                outcome = "traceback: " + result.error.strip().splitlines()[-1]
            elif result.code != 2:
                outcome = f"exit {result.code}"
            elif expected not in result.stderr:
                outcome = f"exit 2, message lacks {expected!r}: " \
                          f"{result.stderr.strip()}"
            else:
                outcome = "ok"
            failed += outcome != "ok"
            self.malformed_outcomes[name] = outcome
        return failed

    def check(self) -> list[str]:
        failures = list(self.command_failures)
        out = self.workdir / "out"
        rewritten = self.workdir / "rewritten"
        formats.write_corpus(self.corpus, rewritten)
        failures += checks.check_same_bytes(self.workdir / "data", rewritten)
        for name in REPORTING:
            failures += checks.check_report_rows(
                out / name, read_report_csv(out / name / "report.csv"))
        rows = json.loads((out / "ablate" / "report.json").read_text())["rows"]
        variants = sorted({row["variant"] for row in rows})
        if len(variants) != 6:
            failures.append(f"ablation has variants {variants}, expected 6")
        failures += checks.check_ablation_rows(
            rows, self.run.corpus.n_observers)
        return failures

    def summary(self) -> dict:
        rows = json.loads((self.workdir / "out" / "ablate" /
                           "report.json").read_text())["rows"]
        table = {}
        for row in rows:
            if row["metric"] in ("sm", "mrr"):
                table.setdefault(row["variant"], {})[row["metric"]] = \
                    row["value"]
        return {"ablation": table, "malformed": self.malformed_outcomes}


WORKLOADS = {"eval-long": EvalLong, "cli-ablation": CliAblation}
