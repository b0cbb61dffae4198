"""Command-line interface tying the library into reproducible workflows.

Every subcommand reads an optional JSON run configuration plus dotted
``--set section.key=value`` overrides; stochastic commands require an
explicit ``--seed`` so no randomness hides in defaults. Exit codes: 0 on
success, 1 on usage errors, 2 on data or validation errors. A failed
gradient probe also exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
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
    emit_report,
    provenance_block,
)
from .evaluate import (
    build_saliency,
    predict_split,
    rank_eval,
    saliency_report,
    value_eval,
)
from .formats import (
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
from .train import fine_tune_per_observer, rollout_loss, run_ablation_suite, train

log = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _add_common(parser, seed_required: bool) -> None:
    parser.add_argument("--config", help="path to a run config JSON file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config entry (repeatable)")
    parser.add_argument("--seed", type=int, required=seed_required,
                        default=None, help="seed for all randomness"
                        + (" (required)" if seed_required else ""))


def build_parser() -> _Parser:
    parser = _Parser(prog="gazelab",
                     description="individualized scanpath prediction lab")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, handler, seed_required, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, seed_required)
        p.set_defaults(handler=handler)
        return p

    p = command("gen-data", _cmd_gen_data, True, "generate a gaze corpus")
    p.add_argument("--out", help="corpus directory (default: paths.data_dir)")

    p = command("train", _cmd_train, True, "train the configured model")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--out", help="output directory for the checkpoint")

    p = command("finetune", _cmd_finetune, True,
                "adapt an agnostic model per observer")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--checkpoint", help="base model checkpoint")
    p.add_argument("--out", help="output directory")

    p = command("predict", _cmd_predict, True, "emit predicted scanpaths")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--out", help="output directory")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--mode", default="argmax", choices=("argmax", "sample"))

    p = command("eval-value", _cmd_eval_value, False,
                "score predictions against ground truth per pair")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--pred", required=True, help="predicted gaze file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--variant", default="model", help="report row label")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored")

    p = command("eval-rank", _cmd_eval_rank, False,
                "observer retrieval ranking from a checkpoint")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--out", help="output directory")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored")

    p = command("eval-saliency", _cmd_eval_saliency, True,
                "saliency scores of pooled predictions")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--out", help="output directory")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--resolution", type=int, default=64,
                   help="saliency grid side length")

    p = command("ablate", _cmd_ablate, True,
                "train and score all six model variants")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--out", help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored")

    p = command("analyze", _cmd_analyze, True,
                "semantic region statistics and correlations")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--out", help="output directory")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))

    p = command("classify", _cmd_classify, True,
                "group membership from observer features")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--out", help="output directory")

    p = command("grad-check", _cmd_grad_check, True,
                "numeric gradient probe of the full loss")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)

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
    return RunConfig.from_dict(data)


def _data_dir(args, cfg: RunConfig) -> str:
    return args.data or cfg.paths.data_dir


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out or cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checkpoint_path(args, cfg: RunConfig) -> str:
    path = getattr(args, "checkpoint", None) or cfg.paths.checkpoint
    if path is None:
        raise ValueError(
            "no checkpoint given: pass --checkpoint or set paths.checkpoint")
    return path


def _load_data(args, cfg: RunConfig):
    corpus = read_corpus(_data_dir(args, cfg))
    if corpus.config != cfg.corpus:
        raise ValueError(
            f"corpus at {_data_dir(args, cfg)} was generated with a "
            "different corpus config than the one supplied")
    return corpus


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    corpus = build_corpus(cfg.corpus, args.seed)
    out = Path(args.out or cfg.paths.data_dir)
    write_corpus(corpus, out)
    sizes = {split: len(ids) for split, ids in corpus.split_ids.items()}
    print(f"wrote {len(corpus.scenes)} scenes, {len(corpus.profiles)} "
          f"observers, splits {sizes} to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    train_cfg = replace(cfg.train, seed=args.seed)
    model = ScanpathModel(cfg.model, seed=args.seed)
    _, history = train(model, corpus, train_cfg)
    out = _out_dir(args, cfg)
    write_checkpoint(model, out / "checkpoint.json")
    (out / "history.json").write_text(json.dumps(
        [{"epoch": e, "loss_pos": p, "loss_dur": d, "loss_total": t}
         for e, p, d, t in history], indent=2) + "\n")
    if history:
        print(f"trained {train_cfg.epochs} epochs, "
              f"final loss {history[-1][3]:.4f}; "
              f"checkpoint at {out / 'checkpoint.json'}")
    else:
        print(f"checkpoint at {out / 'checkpoint.json'} (no epochs run)")
    return 0


def _cmd_finetune(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    base = read_checkpoint(_checkpoint_path(args, cfg))
    train_cfg = replace(cfg.train, seed=args.seed)
    tuned = fine_tune_per_observer(base, corpus, train_cfg)
    out = _out_dir(args, cfg)
    for observer_id, model in sorted(tuned.items()):
        write_checkpoint(model, out / f"checkpoint_obs{observer_id}.json")
    print(f"fine-tuned {len(tuned)} observer models into {out}")
    return 0


def _cmd_predict(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    model = read_checkpoint(_checkpoint_path(args, cfg))
    preds = predict_split(model, corpus, args.split, mode=args.mode,
                          seed=args.seed)
    out = _out_dir(args, cfg)
    path = out / f"predictions_{args.split}.jsonl"
    write_scanpaths(preds, path)
    print(f"wrote {len(preds)} predicted scanpaths to {path}")
    return 0


def _cmd_eval_value(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    preds = read_scanpaths(args.pred)
    try:
        result = value_eval(preds, corpus.scanpaths[args.split], cfg.metric,
                            threads=args.threads)
    except ValueError as err:
        raise ValueError(f"{args.pred}: {err}") from None
    rows = [ReportRow(args.variant, args.split, name, result.means[name],
                      result.stderr[name]) for name in ("sm", "mm", "sed")]
    report = MetricReport(rows, provenance_block(cfg, {}))
    paths = emit_report(report, _out_dir(args, cfg))
    print(f"sm {result.means['sm']:.4f}  mm {result.means['mm']:.4f}  "
          f"sed {result.means['sed']:.4f}; report at {paths['json']}")
    return 0


def _cmd_eval_rank(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    model = read_checkpoint(_checkpoint_path(args, cfg))
    preds = predict_split(model, corpus, args.split)
    result = rank_eval(preds, corpus.scanpaths[args.split], cfg.metric,
                       threads=args.threads)
    rows = [ReportRow("model", args.split, "mrr", result.mrr)]
    for k, value in sorted(result.recall_at.items()):
        rows.append(ReportRow("model", args.split, f"r_at_{k}", value))
    report = MetricReport(rows, provenance_block(cfg, {}))
    paths = emit_report(report, _out_dir(args, cfg))
    print(f"mrr {result.mrr:.4f}  r@1 {result.recall_at[1]:.1f}  "
          f"r@5 {result.recall_at[5]:.1f}; report at {paths['json']}")
    return 0


def _cmd_eval_saliency(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    model = read_checkpoint(_checkpoint_path(args, cfg))
    preds = predict_split(model, corpus, args.split)
    gt = corpus.scanpaths[args.split]
    resolution = (args.resolution, args.resolution)
    scores = saliency_report(preds, gt, resolution=resolution,
                             seed=args.seed)
    out = _out_dir(args, cfg)
    by_image: dict[int, list] = {}
    for sp in preds:
        by_image.setdefault(sp.image_id, []).extend(sp.fixations)
    for image_id, fixations in sorted(by_image.items()):
        sal = build_saliency(fixations, resolution=resolution)
        write_pgm(sal.grid, out / f"saliency_{image_id}.pgm")
    rows = [ReportRow("model", args.split, name, value)
            for name, value in sorted(scores["means"].items())]
    report = MetricReport(rows, provenance_block(cfg, {"shuffle": args.seed}))
    paths = emit_report(report, out)
    print(f"nss {scores['means']['nss']:.4f}  cc {scores['means']['cc']:.4f}"
          f"  auc {scores['means']['auc']:.4f}; report at {paths['json']}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    train_cfg = replace(cfg.train, seed=args.seed)
    rows_raw, _ = run_ablation_suite(
        corpus, train_cfg, cfg.model, cfg.metric,
        threads=args.threads)
    rows = []
    for entry in rows_raw:
        for name in ("sm", "mm", "sed", "mrr", "r_at_1", "r_at_5"):
            rows.append(ReportRow(entry["variant"], "test", name,
                                  entry[name]))
    report = MetricReport(rows, provenance_block(cfg, {"train": args.seed}))
    paths = emit_report(report, _out_dir(args, cfg))
    for entry in rows_raw:
        print(f"{entry['variant']:>9}: sm {entry['sm']:.4f}  "
              f"mrr {entry['mrr']:.4f}  r@1 {entry['r_at_1']:.1f}")
    print(f"report at {paths['json']}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    model = read_checkpoint(_checkpoint_path(args, cfg))
    preds = predict_split(model, corpus, args.split)
    groups = {p.id: p.group for p in corpus.profiles}
    report = semantic_report(preds, corpus.scanpaths[args.split],
                             corpus.scenes, groups=groups, seed=args.seed)
    out = _out_dir(args, cfg)
    path = out / "analysis.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    social = report["correlations"]["social"]
    print(f"social rho {social['rho']:.4f} (p {social['p_value']:.4f}); "
          f"analysis at {path}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _load_config(args)
    corpus = _load_data(args, cfg)
    model = read_checkpoint(_checkpoint_path(args, cfg))
    features = extract_observer_features(model)
    groups = {p.id: p.group for p in corpus.profiles}
    labels = [groups[f.observer_id] for f in features]
    result = classify_group_loocv(features, labels, seed=args.seed)
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
    report = MetricReport(
        [ReportRow("full", "all", "accuracy", result.accuracy)],
        provenance_block(cfg, {"classifier": args.seed}))
    paths = emit_report(report, out)
    print(f"loocv accuracy {result.accuracy:.1f}%; report at {paths['json']}")
    return 0


# numeric differentiation at full model scale is infeasible, so the CLI
# probes a small fixed geometry that still exercises every pathway
PROBE_CONFIG = dict(n_observers=2, height=4, width=4, channels=3,
                    observer_dim=3, hidden=4, semantic_channels=2,
                    max_steps=3)


def _cmd_grad_check(args) -> int:
    from .scanpath import Fixation, Scanpath
    import numpy as np

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
        return args.handler(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
