"""Quick tests of the benchmark itself.

    python -m pytest perfbench -q

Each workload runs at the tiny size, traced and untraced, and must print
every metric BENCHMARK.json names. Each correctness check must pass on a
real output and trip on a deliberately corrupted copy of it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from gazelab.config import MetricReport, ReportRow, emit_report  # noqa: E402
from gazelab.config import read_report_csv  # noqa: E402
from gazelab.evaluate import rank_eval, value_eval  # noqa: E402
from gazelab.metrics import MetricConfig  # noqa: E402
from gazelab.model import ModelConfig, ScanpathModel, cell_center  # noqa: E402
from gazelab.model import IOR_SIGMA_CELLS  # noqa: E402
from gazelab.scanpath import Fixation, Scanpath  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    # only the four malformed-input commands of cli-ablation fail
    share = 4 / 12 if workload == "cli-ablation" else 0
    assert result["failed"] == share * result["attempted"]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# each check passes on real output and trips on a corrupted copy


def tiny_model():
    config = ModelConfig(**workloads.TINY_MODEL)
    model = ScanpathModel(config, seed=5)
    E = np.random.default_rng(5).uniform(
        0.1, 1.0, (config.channels, config.height, config.width))
    return model, E


def path(cells, config, image_id=0, observer_id=0, dur=220.0):
    return Scanpath(image_id, observer_id, [
        Fixation(*cell_center(c, config.height, config.width), dur + 37 * i)
        for i, c in enumerate(cells)])


def test_reference_check_trips_on_a_shifted_map():
    model, E = tiny_model()
    cfg = model.config
    cells = [3, 17, 40, 41]
    steps = [(m.data, mu.data, var.data) for m, mu, var in
             model.rollout_teacher_forced(E, 1, path(cells, cfg, 0, 1))]
    reference = workloads.load_reference_rollout(ROOT)(
        {name: p.data for name, p in model.params.items()}, E, cells,
        model.one_hot(1), cfg.hidden, cfg.semantic_channels,
        ior_sigma=IOR_SIGMA_CELLS)
    assert checks.check_reference(steps, reference) == []
    m, mu, var = steps[2]
    shifted = steps[:2] + [(np.roll(m, 1), mu, var)] + steps[3:]
    assert checks.check_reference(shifted, reference)
    assert checks.check_simplex([s[0] for s in shifted], "map") == []
    assert checks.check_simplex([m * 1.01], "map")


def scored_corpus():
    config = ModelConfig(**workloads.TINY_MODEL)
    rng = np.random.default_rng(9)
    gt, preds = [], []
    for image_id in range(3):
        for observer_id in range(4):
            for side in (gt, preds):
                side.append(path(rng.integers(0, config.cells, 5), config,
                                 image_id, observer_id,
                                 dur=float(rng.uniform(100, 600))))
    return gt, preds


def test_value_check_trips_on_a_wrong_scanmatch_score():
    gt, preds = scored_corpus()
    cfg = MetricConfig()
    result = value_eval(preds, gt, cfg)
    oracle = checks.Oracle(cfg)
    assert checks.check_value_pairs(oracle, preds, gt, result.pairs) == []
    key = (gt[5].image_id, gt[5].observer_id)
    result.pairs[key]["sm"] += 0.01
    assert checks.check_value_pairs(oracle, preds, gt, result.pairs)
    result.pairs[key]["sm"] -= 0.01
    result.pairs[key]["sed"] += 1
    assert checks.check_value_pairs(oracle, preds, gt, result.pairs)


def test_rank_checks_trip_on_a_rank_off_by_one():
    gt, preds = scored_corpus()
    cfg = MetricConfig()
    oracle = checks.Oracle(cfg)
    ranking = rank_eval(preds, gt, cfg)
    assert checks.check_ranks(oracle, preds, gt, ranking.ranks) == []
    own = rank_eval(gt, gt, cfg)
    assert checks.check_self_ranking(own) == []
    assert checks.check_ranks(oracle, gt, gt, own.ranks) == []
    key = (gt[6].image_id, gt[6].observer_id)
    own.ranks[key] += 1
    assert checks.check_self_ranking(own)
    assert checks.check_ranks(oracle, gt, gt, own.ranks)


def test_prediction_check_trips_off_the_cell_centres():
    config = ModelConfig(**workloads.TINY_MODEL)
    good = [path([0, 9, 63], config)]
    assert checks.check_predictions(good, 3, config.height,
                                    config.width) == []
    assert checks.check_predictions(good, 4, config.height, config.width)
    moved = [replace(good[0], fixations=[Fixation(0.07, 0.0625, 200.0)])]
    assert checks.check_predictions(moved, 1, config.height, config.width)
    short = [replace(good[0], fixations=[Fixation(0.0625, 0.0625, 20.0)])]
    assert checks.check_predictions(short, 1, config.height, config.width)


def test_gradient_check_trips():
    analytic = {("W", (0,)): 2.0e-3, ("b", (1,)): 1.0e-9}
    numeric = {("W", (0,)): 2.0e-3 * (1 + 1e-7), ("b", (1,)): 0.0}
    assert checks.check_gradients(analytic, numeric) == []
    numeric[("W", (0,))] = 1.0e-3
    assert checks.check_gradients(analytic, numeric)


def test_cli_output_checks_trip(tmp_path):
    rows = [ReportRow(v, "test", m, value) for v in ("none", "full")
            for m, value in (("sm", 0.4), ("mrr", 0.3), ("r_at_1", 12.5),
                             ("r_at_5", 60.0))]
    emit_report(MetricReport(rows, {}), tmp_path)
    csv_rows = read_report_csv(tmp_path / "report.csv")
    assert checks.check_report_rows(tmp_path, csv_rows) == []
    assert checks.check_report_rows(
        tmp_path, csv_rows[:1] + [replace(csv_rows[1], value=0.5)]
        + csv_rows[2:])
    table = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert checks.check_ablation_rows(table, 8) == []
    table[1]["value"] = 0.1  # an MRR below 1/8
    table[6]["value"] = 70.0  # R@1 above R@5
    assert len(checks.check_ablation_rows(table, 8)) == 2

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.jsonl").write_text("1\n")
    (b / "x.jsonl").write_text("1\n")
    assert checks.check_same_bytes(a, b) == []
    (b / "x.jsonl").write_text("1 \n")
    assert checks.check_same_bytes(a, b)
