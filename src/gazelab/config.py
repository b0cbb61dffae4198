"""Run configuration, report schema, and provenance plumbing.

A RunConfig merges the model, training, metric, and corpus settings with
output paths into one JSON document that round-trips losslessly; unknown
keys are rejected so typos fail loudly instead of silently using
defaults. Reports carry a closed metric vocabulary plus a provenance
block (config hash, seeds, version) and are emitted as both CSV and
JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .evaluate import SALIENCY_METRICS
from .metrics import MetricConfig
from .model import ModelConfig
from .synthetic import CorpusConfig
from .train import ABLATION_METRICS, TrainConfig


@contextmanager
def naming(where):
    """Name the input a ValueError raised in the block came from: it leaves
    as a ValueError ``f"{where}: {err}"``, without the original chained.
    Other exceptions pass unchanged."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def is_integer(value) -> bool:
    """Whether ``value`` is a JSON integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    # the bound rejects inf, nan and integers too large for a float
    return (is_integer(value) or isinstance(value, float)) and \
        abs(value) <= sys.float_info.max


def _fits(default, value) -> bool:
    """Whether ``value`` has the JSON kind of a field whose default is
    ``default``. A float field takes an integer or a float, if finite."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return is_integer(value)
    if isinstance(default, float):
        return is_finite_number(value)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and \
            len(value) == len(default) and \
            all(_fits(d, v) for d, v in zip(default, value))
    # the only None default is the optional checkpoint path
    return isinstance(value, str) or (default is None and value is None)


def _kind(default) -> str:
    if isinstance(default, bool):
        return "true or false"
    if isinstance(default, int):
        return "an integer"
    if isinstance(default, float):
        return "a finite number"
    if isinstance(default, tuple):
        return f"a list like {json.dumps(list(default))}"
    return "a string" if default is not None else "a string or null"


def coerce_section(cls, data: dict, name: str):
    """Build a config dataclass from a dict, rejecting unknown keys and
    values of the wrong kind.

    Each value must have the JSON kind of its field's default. List values
    are coerced to tuples, so JSON round-trips reproduce the original field
    types; a number in a float field is stored as given.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {unknown}")
    kwargs = {}
    for key, value in data.items():
        default = fields[key].default
        if not _fits(default, value):
            raise ValueError(f"config value {name}.{key} must be "
                             f"{_kind(default)}, got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def check_fit(model: ModelConfig, corpus: CorpusConfig) -> None:
    """Raise ValueError unless a model of config ``model`` can read a
    corpus of config ``corpus``: the observer count and the scene tensors'
    height, width and channels agree, and a scanpath fits in
    ``max_steps``."""
    for name in ("n_observers", "height", "width", "channels"):
        m, c = getattr(model, name), getattr(corpus, name)
        if m != c:
            raise ValueError(f"model/corpus mismatch on {name}: {m} != {c}")
    if corpus.scanpath_len > model.max_steps:
        raise ValueError(
            f"corpus scanpath_len {corpus.scanpath_len} exceeds "
            f"model max_steps {model.max_steps}")


@dataclass
class PathsConfig:
    """Filesystem locations; checkpoint is optional until training ran."""

    data_dir: str = "data"
    out_dir: str = "out"
    checkpoint: str | None = None


@dataclass
class RunConfig:
    """All settings for one reproducible workflow run."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    _SECTIONS = (("model", ModelConfig), ("train", TrainConfig),
                 ("metric", MetricConfig), ("corpus", CorpusConfig),
                 ("paths", PathsConfig))

    def __post_init__(self):
        check_fit(self.model, self.corpus)

    def to_dict(self) -> dict:
        return {name: dataclasses.asdict(getattr(self, name))
                for name, _ in self._SECTIONS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("run config must be a JSON object")
        known = {name for name, _ in cls._SECTIONS}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config sections: {unknown}")
        kwargs = {name: coerce_section(section_cls, data.get(name, {}), name)
                  for name, section_cls in cls._SECTIONS}
        return cls(**kwargs)


def apply_overrides(data: dict, assignments) -> dict:
    """Apply dotted key=value overrides to a raw config dict in place.

    Values parse as JSON literals, falling back to plain strings, so
    ``model.hidden=32`` and ``paths.out_dir=run1`` both work.
    """
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(
                f"override {item!r} must look like section.key=value")
        parts = key.split(".")
        node = data
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r} descends into a value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except (ValueError, RecursionError) as exc:  # digit limit, nesting
            raise ValueError(f"override {key}: {exc}") from None
        node[parts[-1]] = value
    return data


def canonical_json(obj) -> str:
    """Deterministic compact encoding used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(
        canonical_json(config.to_dict()).encode()).hexdigest()


def version_string() -> str:
    """Package version, extended with git describe when inside a checkout."""
    here = Path(__file__).resolve().parent
    try:
        probe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here, capture_output=True, text=True, timeout=5)
        if probe.returncode == 0 and probe.stdout.strip():
            return f"v{__version__}+g{probe.stdout.strip()}"
    except OSError:
        pass
    return f"v{__version__}"


# the metric names a report row may carry: the scores of an ablation row
# (value and ranking), of a saliency map, and the classifier's accuracy
METRIC_VOCABULARY = frozenset(ABLATION_METRICS + SALIENCY_METRICS
                              + ("accuracy",))

CSV_COLUMNS = ("variant", "split", "metric", "value", "stderr")


@dataclass
class ReportRow:
    variant: str
    split: str
    metric: str
    value: float
    stderr: float | None = None

    def __post_init__(self):
        if self.metric not in METRIC_VOCABULARY:
            raise ValueError(
                f"metric {self.metric!r} not in the report vocabulary")
        self.value = float(self.value)
        if self.stderr is not None:
            self.stderr = float(self.stderr)


@dataclass
class MetricReport:
    rows: list[ReportRow]
    provenance: dict


def provenance_block(config: RunConfig, seeds: dict) -> dict:
    return {
        "config_hash": config_hash(config),
        "seeds": {name: int(value) for name, value in seeds.items()},
        "version": version_string(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys. JSON has no NaN or
    infinity, so a non-finite number is written as null."""
    # keys sort in the first pass, where integer keys still sort as numbers
    strict = json.loads(json.dumps(obj, sort_keys=True),
                        parse_constant=lambda name: None)
    Path(path).write_text(json.dumps(strict, indent=2, allow_nan=False) + "\n")


def emit_report(report: MetricReport, out_dir) -> dict:
    """Write report.json and report.csv; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    write_json({"rows": [dataclasses.asdict(row) for row in report.rows],
                "provenance": report.provenance}, json_path)
    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([row.variant, row.split, row.metric,
                             repr(row.value),
                             "" if row.stderr is None else repr(row.stderr)])
    return {"json": json_path, "csv": csv_path}


def read_report_csv(path) -> list[ReportRow]:
    """Reparse an emitted CSV into rows (inverse of emit_report)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        rows = []
        for record in reader:
            where = f"{path}:{reader.line_num}"
            if len(record) != len(CSV_COLUMNS):
                raise ValueError(f"{where}: expected {len(CSV_COLUMNS)} "
                                 f"fields, got {len(record)}")
            variant, split, metric, value, stderr = record
            with naming(where):
                rows.append(ReportRow(variant=variant, split=split,
                                      metric=metric, value=float(value),
                                      stderr=None if stderr == "" else
                                      float(stderr)))
    return rows
