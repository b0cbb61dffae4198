"""Timing probes wrapped around the public functions of each gazelab layer.

A probe replaces a function where its caller looks it up, so nothing under
``src/`` changes. ``evaluate`` binds ``scanmatch`` at import, so its probe
goes on ``gazelab.evaluate.scanmatch``; ``cli`` binds ``train``,
``predict_split`` and the readers and writers at import, so those get a
probe of their own on ``gazelab.cli``; methods are probed on their class.
Uninstalling puts every original back.

The same wrapper serves two uses:

* stage clocks sum the seconds and work units of the four stages whose
  rates are end-to-end metrics (training, prediction, value and rank
  evaluation). They run in every round and record no spans.
* spans, recorded only in traced rounds, keep the name, start, end, parent
  and a work count of every probed call in memory. They are written out
  when the run ends.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# span fields
NAME, START, END, PARENT, COUNT = range(5)

CLI_COMMANDS = ("gen-data", "train", "predict", "eval-value", "eval-rank",
                "eval-saliency", "analyze", "classify", "ablate")

PATHWAYS = ("observer_guidance", "integrate_features", "decoder_step",
            "prioritize_fixation", "duration_head")

ROLLOUTS = ("model.rollout_teacher_forced", "model.sample_scanpath")

# counted only inside train(): the LOOCV classifier also runs the tape and
# Adam, and warm-ups run a loss and a backward pass outside training
TRAINING_ONLY = ("tensor.backward", "optim.adam_step", "train.rollout_loss",
                 "train.loss")


@dataclass(frozen=True)
class Site:
    """One lookup site: ``owner.attr`` is replaced by a probe."""

    owner: object
    attr: str
    span: str
    stage: str | None = None
    count: Callable | None = None  # (args, result) -> work units


class Probes:
    """Installs probes and holds the stage clocks and recorded spans."""

    def __init__(self, sites):
        self.sites = list(sites)
        self.clock: dict[str, list] = {}
        self.spans: list[list] = []
        self.tracing = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, traced: bool) -> None:
        """Probe the stage sites, or every site when ``traced``."""
        if self._saved:
            raise RuntimeError("probes are already installed")
        self.tracing = traced
        self.clock = {}
        for site in self.sites:
            if site.stage is None and not traced:
                continue
            original = (site.owner.__dict__[site.attr]
                        if isinstance(site.owner, type)
                        else getattr(site.owner, site.attr))
            self._saved.append((site.owner, site.attr, original))
            setattr(site.owner, site.attr, self._wrap(original, site))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.tracing = False

    def _wrap(self, fn, site: Site):
        probes = self
        stage, count = site.stage, site.count
        if stage is not None:
            probes.clock.setdefault(stage, [0.0, 0])

        def probe(*args, **kwargs):
            span = None
            if probes.tracing:
                parent = probes._stack[-1] if probes._stack else -1
                span = [site.span, 0.0, 0.0, parent, 0]
                probes._stack.append(len(probes.spans))
                probes.spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if span is not None:
                    probes._stack.pop()
                    span[START], span[END] = start, end
            units = count(args, result) if count is not None else 0
            if span is not None:
                span[COUNT] = units
            if stage is not None:
                totals = probes.clock[stage]
                totals[0] += end - start
                totals[1] += units
            return result

        return functools.update_wrapper(probe, fn)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, handle)
            handle.write("\n")


def gazelab_sites(gz) -> list[Site]:
    """Every probe site; ``gz`` is a namespace of the gazelab modules."""
    cli, evaluate, formats = gz.cli, gz.evaluate, gz.formats
    train, metrics = gz.train, gz.metrics

    def trained(args, result):
        corpus, config = args[1], args[2]
        return config.epochs * len(corpus.scanpaths["train"])

    def ranked(args, result):
        observers = {sp.observer_id for sp in args[1]}
        return len(result.ranks) * len(observers)

    stages = (
        ("train", train, "train.train", "train", trained),
        ("predict_split", evaluate, "evaluate.predict_split", "predict",
         lambda args, result: len(result)),
        ("value_eval", evaluate, "evaluate.value_eval", "value",
         lambda args, result: len(args[1])),
        ("rank_eval", evaluate, "evaluate.rank_eval", "rank", ranked),
    )
    sites = []
    for attr, home, span, stage, count in stages:
        sites.append(Site(home, attr, span, stage, count))
        sites.append(Site(cli, attr, span, stage, count))
    sites += [
        Site(evaluate, "saliency_report", "evaluate.saliency_report"),
        Site(cli, "saliency_report", "evaluate.saliency_report"),
        Site(evaluate, "scanmatch", "metrics.scanmatch"),
        Site(evaluate, "multimatch", "metrics.multimatch"),
        Site(evaluate, "string_edit_distance", "metrics.sed"),
        Site(metrics, "nw_score", "metrics.nw_score",
             count=lambda args, result: len(args[0]) * len(args[1])),
        Site(cli, "build_corpus", "synthetic.build_corpus"),
        Site(cli, "write_corpus", "formats.write_corpus"),
        Site(cli, "read_corpus", "formats.read_corpus"),
        Site(formats, "read_corpus", "formats.read_corpus"),
        Site(cli, "semantic_report", "analysis.semantic_report"),
        Site(cli, "classify_group_loocv", "analysis.classify_group_loocv"),
        Site(gz.tensor.Tape, "gradients", "tensor.backward",
             count=lambda args, result: len(args[0].nodes)),
        Site(gz.optim.Adam, "step", "optim.adam_step"),
        Site(train, "rollout_loss", "train.rollout_loss"),
        Site(train, "position_loss", "train.loss"),
        Site(train, "duration_loss", "train.loss"),
    ]
    for owner in (cli, formats):
        for attr in ("write_checkpoint", "read_checkpoint"):
            sites.append(Site(owner, attr, "formats.checkpoint"))
    for method in PATHWAYS + ("rollout_teacher_forced", "sample_scanpath"):
        sites.append(Site(gz.model.ScanpathModel, method, f"model.{method}"))
    for command in CLI_COMMANDS:
        handler = "_cmd_" + command.replace("-", "_")
        sites.append(Site(cli, handler, f"cli.{command}"))
    return sites


def stage_rates(rounds) -> dict:
    """Each stage's units per second over all the given rounds together.

    The host's speed changes from one second to the next. The run's units
    over its seconds average those changes; a median of per-round rates
    does so less.
    """
    rates = {}
    for stage in ("train", "predict", "value", "rank"):
        seconds = sum(clock[stage][0] for clock in rounds if stage in clock)
        units = sum(clock[stage][1] for clock in rounds if stage in clock)
        rates[stage] = units / seconds if seconds > 0 else 0.0
    return rates


def layer_metrics(spans, traced_rounds: int, setups: int) -> dict:
    """Per-layer figures from the spans of traced setups and rounds.

    A span's self time is its duration minus that of its child spans.
    Corpus generation and writing happen only in setup and are given per
    setup; the stages, the analyses and the commands a round runs are given
    per round; the rest per call or per scanpath. Layers the workload does
    not run read 0.
    """
    n = len(spans)
    child = [0.0] * n
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    def under_training(index):
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == "train.train":
                return True
            parent = spans[parent][PARENT]
        return False

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    units: dict[str, int] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        if name in TRAINING_ONLY and not under_training(i):
            continue
        dur = span[END] - span[START]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        units[name] = units.get(name, 0) + span[COUNT]

    def per(value, base):
        return value / base if base else 0.0

    def mean(name):
        return per(total.get(name, 0.0), calls.get(name, 0))

    rollouts = sum(calls.get(name, 0) for name in ROLLOUTS)
    losses = calls.get("train.rollout_loss", 0)
    out = {
        "tensor.nodes_per_scanpath": per(units.get("tensor.backward", 0),
                                         losses),
        "tensor.backward_ms_per_batch": 1e3 * mean("tensor.backward"),
        "model.forward_ms_per_scanpath": 1e3 * per(
            sum(total.get(name, 0.0) for name in ROLLOUTS), rollouts),
        "train.loss_ms_per_scanpath": 1e3 * per(
            self_time.get("train.loss", 0.0), losses),
        "optim.adam_step_ms_per_batch": 1e3 * mean("optim.adam_step"),
        "metrics.scanmatch_us_per_call": 1e6 * mean("metrics.scanmatch"),
        "metrics.nw_cells_per_call": per(units.get("metrics.nw_score", 0),
                                         calls.get("metrics.nw_score", 0)),
        "metrics.multimatch_us_per_call": 1e6 * mean("metrics.multimatch"),
        "metrics.sed_us_per_call": 1e6 * mean("metrics.sed"),
        "synthetic.build_corpus_s": per(
            total.get("synthetic.build_corpus", 0.0), setups),
        "formats.write_corpus_s": per(total.get("formats.write_corpus", 0.0),
                                      setups),
        "formats.read_corpus_s": mean("formats.read_corpus"),
        "formats.checkpoint_ms": 1e3 * mean("formats.checkpoint"),
    }
    for pathway in PATHWAYS:
        out[f"model.{pathway}_ms"] = 1e3 * per(
            self_time.get(f"model.{pathway}", 0.0), rollouts)
    for name in ("evaluate.predict_split", "evaluate.value_eval",
                 "evaluate.rank_eval", "evaluate.saliency_report",
                 "analysis.semantic_report", "analysis.classify_group_loocv"):
        out[f"{name}_s"] = per(total.get(name, 0.0), traced_rounds)
    out["cli.gen-data_s"] = per(total.get("cli.gen-data", 0.0), setups)
    for command in CLI_COMMANDS[1:]:
        out[f"cli.{command}_s"] = per(total.get(f"cli.{command}", 0.0),
                                      traced_rounds)
    return out
