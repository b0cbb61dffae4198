"""Command-line interface tying the library into reproducible workflows.

A command declares only the flags it reads, and ``main`` loads the run
config, corpus and checkpoint they name. Every subcommand but
``grad-check`` reads an optional JSON run configuration plus dotted
``--set section.key=value`` overrides; a command that takes ``--seed``
requires it, so no randomness hides in defaults. A report hashes the run
config the run used: ``--seed`` is its ``train.seed`` and a checkpoint its
``model``. Exit codes: 0 on success, 1 on usage errors, 2 on data or
validation errors. A failed gradient probe also exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .analysis import (
    classify_group_loocv,
    extract_observer_features,
    semantic_report,
)
from .config import (
    MetricReport,
    ReportRow,
    RunConfig,
    apply_overrides,
    check_fit,
    emit_report,
    provenance_block,
    write_json,
)
from .evaluate import (
    RECALL_KS,
    VALUE_METRICS,
    predict_split,
    rank_eval,
    saliency_report,
    value_eval,
)
from .formats import (
    SPLITS,
    read_checkpoint,
    read_corpus,
    read_json,
    read_scanpaths,
    write_checkpoint,
    write_corpus,
    write_pgm,
    write_scanpaths,
)
from .model import ModelConfig, ScanpathModel
from .synthetic import build_corpus
from .tensor import grad_check
from .train import (
    ABLATION_METRICS,
    fine_tune_per_observer,
    rollout_loss,
    run_ablation_suite,
    train,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def build_parser() -> _Parser:
    # built on every call, so each handler is looked up where perfbench
    # probes it
    options = {
        "--config": dict(help="path to a run config JSON file"),
        "--set": dict(action="append", default=[],
                      metavar="SECTION.KEY=VALUE",
                      help="override one config entry (repeatable)"),
        "--seed": dict(type=int, required=True,
                       help="seed for all randomness (required)"),
        "--data": dict(help="corpus directory (default: paths.data_dir)"),
        "--checkpoint": dict(
            help="model checkpoint (default: paths.checkpoint)"),
        "--out": dict(help="output directory (default: paths.out_dir; "
                           "for gen-data, paths.data_dir)"),
        "--split": dict(default="test", choices=SPLITS),
        "--pred": dict(required=True, help="predicted gaze file"),
        "--mode": dict(default="argmax", choices=("argmax", "sample")),
        "--variant": dict(default="model", help="report row label"),
        "--resolution": dict(type=int, default=64,
                             help="saliency grid side length"),
        "--threads": dict(type=int, default=1, help="accepted and ignored"),
        "--eps": dict(type=float, default=1e-5,
                      help="central-difference step (positive)"),
        "--tol": dict(type=float, default=1e-4,
                      help="largest relative error that passes"),
    }
    run = ("--config", "--set")
    seeded = run + ("--seed",)
    ckpt = ("--data", "--checkpoint", "--out")
    # (name, handler, help, options); main loads what the options name
    commands = (
        ("gen-data", _cmd_gen_data, "generate a gaze corpus",
         seeded + ("--out",)),
        ("train", _cmd_train, "train the configured model",
         seeded + ("--data", "--out")),
        ("finetune", _cmd_finetune, "adapt an agnostic model per observer",
         seeded + ckpt),
        ("predict", _cmd_predict, "emit predicted scanpaths",
         seeded + ckpt + ("--split", "--mode")),
        ("eval-value", _cmd_eval_value,
         "score predictions against ground truth per pair",
         run + ("--data", "--pred", "--out", "--split", "--variant",
                "--threads")),
        ("eval-rank", _cmd_eval_rank,
         "observer retrieval ranking from a checkpoint",
         run + ckpt + ("--split", "--threads")),
        ("eval-saliency", _cmd_eval_saliency,
         "saliency scores of pooled predictions",
         seeded + ckpt + ("--split", "--resolution")),
        ("ablate", _cmd_ablate, "train and score all six model variants",
         seeded + ("--data", "--out", "--threads")),
        ("analyze", _cmd_analyze,
         "semantic region statistics and correlations",
         seeded + ckpt + ("--split",)),
        ("classify", _cmd_classify,
         "group membership from observer features", seeded + ckpt),
        ("grad-check", _cmd_grad_check,
         "numeric gradient probe of the full loss",
         ("--seed", "--eps", "--tol")),
    )
    parser = _Parser(prog="gazelab",
                     description="individualized scanpath prediction lab")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, handler, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(handler=handler)
    return parser


def _load_config(args) -> RunConfig:
    data = {}
    if args.config:
        data = read_json(args.config)
        try:  # the file on its own, so its errors name it
            RunConfig.from_dict(data)
        except ValueError as err:
            raise ValueError(f"{args.config}: {err}") from None
    apply_overrides(data, args.set)
    cfg = RunConfig.from_dict(data)
    if "seed" in args:
        cfg.train.seed = args.seed
    return cfg


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out or cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(args, cfg: RunConfig):
    """The corpus at ``--data``, else ``paths.data_dir``, kept in args."""
    args.data = args.data or cfg.paths.data_dir
    corpus = read_corpus(args.data)
    if corpus.config != cfg.corpus:
        raise ValueError(
            f"corpus at {args.data} was generated with a different corpus "
            "config than the one supplied")
    return corpus


def _load_model(args, cfg: RunConfig, corpus) -> ScanpathModel:
    """The checkpoint's model, refused unless it fits the corpus
    (``config.check_fit``); its path is kept in args and its config in
    ``cfg.model``."""
    args.checkpoint = args.checkpoint or cfg.paths.checkpoint
    if args.checkpoint is None:
        raise ValueError(
            "no checkpoint given: pass --checkpoint or set paths.checkpoint")
    model = read_checkpoint(args.checkpoint)
    try:
        check_fit(model.config, corpus.config)
    except ValueError as err:
        raise ValueError(f"{args.checkpoint}: {err}") from None
    cfg.model = model.config
    return model


def _report(cfg: RunConfig, rows, seeds: dict, out: Path) -> Path:
    """Write report.json and report.csv into ``out``; returns the JSON
    path."""
    report = MetricReport(rows, provenance_block(cfg, seeds))
    return emit_report(report, out)["json"]


def _cmd_gen_data(args, cfg, corpus, model) -> int:
    corpus = build_corpus(cfg.corpus, args.seed)
    out = Path(args.out or cfg.paths.data_dir)
    write_corpus(corpus, out)
    sizes = {split: len(ids) for split, ids in corpus.split_ids.items()}
    print(f"wrote {len(corpus.scenes)} scenes, {len(corpus.profiles)} "
          f"observers, splits {sizes} to {out}")
    return 0


def _cmd_train(args, cfg, corpus, model) -> int:
    model = ScanpathModel(cfg.model, seed=cfg.train.seed)
    _, history = train(model, corpus, cfg.train)
    out = _out_dir(args, cfg)
    write_checkpoint(model, out / "checkpoint.json")
    (out / "history.json").write_text(json.dumps(
        [{"epoch": e, "loss_pos": p, "loss_dur": d, "loss_total": t}
         for e, p, d, t in history], indent=2) + "\n")
    if history:
        print(f"trained {cfg.train.epochs} epochs, "
              f"final loss {history[-1][3]:.4f}; "
              f"checkpoint at {out / 'checkpoint.json'}")
    else:
        print(f"checkpoint at {out / 'checkpoint.json'} (no epochs run)")
    return 0


def _cmd_finetune(args, cfg, corpus, model) -> int:
    tuned = fine_tune_per_observer(model, corpus, cfg.train)
    out = _out_dir(args, cfg)
    for observer_id, copy in sorted(tuned.items()):
        write_checkpoint(copy, out / f"checkpoint_obs{observer_id}.json")
    print(f"fine-tuned {len(tuned)} observer models into {out}")
    return 0


def _cmd_predict(args, cfg, corpus, model) -> int:
    preds = predict_split(model, corpus, args.split, mode=args.mode,
                          seed=args.seed)
    out = _out_dir(args, cfg)
    path = out / f"predictions_{args.split}.jsonl"
    write_scanpaths(preds, path)
    print(f"wrote {len(preds)} predicted scanpaths to {path}")
    return 0


def _cmd_eval_value(args, cfg, corpus, model) -> int:
    preds = read_scanpaths(args.pred)
    try:
        result = value_eval(preds, corpus.scanpaths[args.split], cfg.metric)
    except ValueError as err:
        raise ValueError(f"{args.pred}: {err}") from None
    path = _report(cfg, [ReportRow(args.variant, args.split, name,
                                   result.means[name], result.stderr[name])
                         for name in VALUE_METRICS], {}, _out_dir(args, cfg))
    print("  ".join(f"{name} {result.means[name]:.4f}"
                    for name in VALUE_METRICS) + f"; report at {path}")
    return 0


def _cmd_eval_rank(args, cfg, corpus, model) -> int:
    preds = predict_split(model, corpus, args.split)
    result = rank_eval(preds, corpus.scanpaths[args.split], cfg.metric)
    rows = [ReportRow("model", args.split, "mrr", result.mrr)]
    for k, value in sorted(result.recall_at.items()):
        rows.append(ReportRow("model", args.split, f"r_at_{k}", value))
    path = _report(cfg, rows, {}, _out_dir(args, cfg))
    recall = "  ".join(f"r@{k} {result.recall_at[k]:.1f}" for k in RECALL_KS)
    print(f"mrr {result.mrr:.4f}  {recall}; report at {path}")
    return 0


def _cmd_eval_saliency(args, cfg, corpus, model) -> int:
    preds = predict_split(model, corpus, args.split)
    scores = saliency_report(preds, corpus.scanpaths[args.split],
                             resolution=(args.resolution, args.resolution),
                             seed=args.seed)
    out = _out_dir(args, cfg)
    for image_id, sal in scores["maps"].items():
        write_pgm(sal.grid, out / f"saliency_{image_id}.pgm")
    means = scores["means"]
    path = _report(cfg, [ReportRow("model", args.split, name, value)
                         for name, value in sorted(means.items())],
                   {"shuffle": args.seed}, out)
    print(f"nss {means['nss']:.4f}  cc {means['cc']:.4f}"
          f"  auc {means['auc']:.4f}; report at {path}")
    return 0


def _cmd_ablate(args, cfg, corpus, model) -> int:
    entries, _ = run_ablation_suite(corpus, cfg.train, cfg.model, cfg.metric)
    path = _report(cfg, [ReportRow(entry["variant"], "test", name,
                                   entry[name])
                         for entry in entries for name in ABLATION_METRICS],
                   {"train": cfg.train.seed}, _out_dir(args, cfg))
    for entry in entries:
        print(f"{entry['variant']:>9}: sm {entry['sm']:.4f}  "
              f"mrr {entry['mrr']:.4f}  r@1 {entry['r_at_1']:.1f}")
    print(f"report at {path}")
    return 0


def _cmd_analyze(args, cfg, corpus, model) -> int:
    preds = predict_split(model, corpus, args.split)
    groups = {p.id: p.group for p in corpus.profiles}
    try:
        report = semantic_report(preds, corpus.scanpaths[args.split],
                                 corpus.scenes, groups=groups, seed=args.seed)
    except ValueError as err:
        raise ValueError(f"{args.data}: {err}") from None
    out = _out_dir(args, cfg)
    path = out / "analysis.json"
    write_json(report, path)
    social = report["correlations"]["social"]
    print(f"social rho {social['rho']:.4f} (p {social['p_value']:.4f}); "
          f"analysis at {path}")
    return 0


def _cmd_classify(args, cfg, corpus, model) -> int:
    groups = {p.id: p.group for p in corpus.profiles}
    try:
        features = extract_observer_features(model)
        labels = [groups[f.observer_id] for f in features]
        result = classify_group_loocv(features, labels, seed=args.seed)
    except ValueError as err:
        raise ValueError(f"{args.checkpoint}: {err}") from None
    out = _out_dir(args, cfg)
    detail = {
        "accuracy": result.accuracy,
        "classes": list(result.classes),
        "folds": [{"observer": f.observer_id, "label": lab,
                   "predicted": pred, "probability": prob}
                  for f, lab, pred, prob in zip(features, labels,
                                                result.predictions,
                                                result.probabilities)],
    }
    (out / "classify.json").write_text(json.dumps(detail, indent=2) + "\n")
    path = _report(cfg, [ReportRow("full", "all", "accuracy",
                                   result.accuracy)],
                   {"classifier": args.seed}, out)
    print(f"loocv accuracy {result.accuracy:.1f}%; report at {path}")
    return 0


# numeric differentiation at full model scale is infeasible, so the CLI
# probes a small fixed geometry that still exercises every pathway
PROBE_CONFIG = dict(n_observers=2, height=4, width=4, channels=3,
                    observer_dim=3, hidden=4, semantic_channels=2,
                    max_steps=3)


def _cmd_grad_check(args, cfg, corpus, model) -> int:
    from .scanpath import Fixation, Scanpath
    import numpy as np

    if not (math.isfinite(args.eps) and args.eps > 0):
        raise ValueError(f"--eps must be positive and finite, got {args.eps}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(
            f"--tol must be nonnegative and finite, got {args.tol}")
    config = ModelConfig(**PROBE_CONFIG)
    model = ScanpathModel(config, seed=args.seed)
    rng = np.random.default_rng([args.seed, 5])
    E = rng.uniform(0.1, 1.0, (config.channels, config.height, config.width))
    gt = Scanpath(image_id=0, observer_id=0, fixations=[
        Fixation(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)),
                 float(rng.uniform(100.0, 400.0)))
        for _ in range(config.max_steps)])

    def loss_fn():
        total, _, _ = rollout_loss(model, E, 0, gt)
        return total

    report = grad_check(loss_fn, model.params, eps=args.eps, tol=args.tol)
    for name in sorted(report.max_rel_err):
        print(f"{name:>10}: max rel err {report.max_rel_err[name]:.3e}")
    if report.passed:
        print(f"PASS (worst {report.worst():.3e} < {args.tol})")
        return 0
    print(f"FAIL (worst {report.worst():.3e} >= {args.tol})")
    return 2


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as err:
        code = err.code
        return int(code) if code else 0
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(
                f"--seed must be a nonnegative integer, got {args.seed}")
        cfg = _load_config(args) if "config" in args else None
        corpus = _load_data(args, cfg) if "data" in args else None
        model = _load_model(args, cfg, corpus) if "checkpoint" in args \
            else None
        return args.handler(args, cfg, corpus, model)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
