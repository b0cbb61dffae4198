"""Correctness checks on the outputs of a benchmark run.

No check compares against a saved copy of earlier output. Each one either
recomputes a value another way (the ScanMatch and string-edit oracles
below, central finite differences, the test suite's plain-numpy reference
rollout) or tests an identity the output must satisfy. Every check returns
a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SM_TOL = 1e-9
SIMPLEX_TOL = 1e-9
REFERENCE_ATOL = 1e-10
GRAD_TOL = 1e-4


# ---------------------------------------------------------------------------
# ScanMatch and string-edit oracles, written from the metric definitions


def tokens(sp, grid, tbin: float) -> list[int]:
    """Column-major bin ids, each repeated ceil(dur / tbin) times."""
    gx, gy = grid
    out = []
    for fix in sp.fixations:
        col = min(math.floor(fix.x * gx), gx - 1)
        row = min(math.floor(fix.y * gy), gy - 1)
        reps = math.ceil(fix.dur_ms / tbin) if tbin > 0 else 1
        out += [col * gy + row] * max(reps, 1)
    return out


def substitution(grid, aspect) -> list[list[float]]:
    """1 - 2 d / d_max between bin centres on the aspect-scaled screen."""
    gx, gy = grid
    centres = [((col + 0.5) * aspect[0] / gx, (row + 0.5) * aspect[1] / gy)
               for col in range(gx) for row in range(gy)]
    d_max = math.dist(centres[0], centres[-1])
    return [[1.0 - 2.0 * math.dist(a, b) / d_max for b in centres]
            for a in centres]


def needleman_wunsch(a, b, sub, gap: float) -> float:
    table = [[0.0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i * gap
    for j in range(len(b) + 1):
        table[0][j] = j * gap
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = max(table[i - 1][j - 1] + sub[a[i - 1]][b[j - 1]],
                              table[i - 1][j] + gap, table[i][j - 1] + gap)
    return table[-1][-1]


def levenshtein(a, b) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                              table[i - 1][j] + 1, table[i][j - 1] + 1)
    return table[-1][-1]


class Oracle:
    """ScanMatch and SED of a metric config, from the code above."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.sub = substitution(cfg.sm_grid, cfg.aspect)

    def scanmatch(self, a, b) -> float:
        ta = tokens(a, self.cfg.sm_grid, self.cfg.sm_tbin)
        tb = tokens(b, self.cfg.sm_grid, self.cfg.sm_tbin)
        score = needleman_wunsch(ta, tb, self.sub, self.cfg.sm_gap)
        return min(max(score / max(len(ta), len(tb)), 0.0), 1.0)

    def sed(self, a, b) -> int:
        return levenshtein(tokens(a, self.cfg.sed_grid, 0.0),
                           tokens(b, self.cfg.sed_grid, 0.0))


# ---------------------------------------------------------------------------
# evaluation outputs


def check_value_pairs(oracle: Oracle, preds, gts, pairs) -> list[str]:
    """The SM and SED that value_eval reported for each (pred, gt) pair."""
    failures = []
    for pred, gt in zip(preds, gts):
        key = (gt.image_id, gt.observer_id)
        row = pairs[key]
        sm = oracle.scanmatch(pred, gt)
        if abs(row["sm"] - sm) > SM_TOL:
            failures.append(f"value pair {key}: ScanMatch {row['sm']!r}, "
                            f"oracle {sm!r}")
        sed = oracle.sed(pred, gt)
        if row["sed"] != sed:
            failures.append(f"value pair {key}: SED {row['sed']!r}, "
                            f"oracle {sed}")
    return failures


def check_ranks(oracle: Oracle, preds, gt, ranks) -> list[str]:
    """The rank of each prediction's own observer among all observers.

    Scores within SM_TOL of the own observer's may fall either side of it,
    since the two implementations round differently.
    """
    per_image: dict[int, dict] = {}
    for sp in gt:
        per_image.setdefault(sp.image_id, {})[sp.observer_id] = sp
    failures = []
    for pred in preds:
        key = (pred.image_id, pred.observer_id)
        scores = {obs: oracle.scanmatch(pred, sp)
                  for obs, sp in per_image[pred.image_id].items()}
        own = scores[pred.observer_id]
        others = [s for obs, s in scores.items() if obs != pred.observer_id]
        lo = 1 + sum(s > own + SM_TOL for s in others)
        hi = 1 + sum(s >= own - SM_TOL for s in others)
        if not lo <= ranks[key] <= hi:
            expected = lo if lo == hi else f"{lo}..{hi}"
            failures.append(f"rank of {key}: {ranks[key]}, oracle {expected}")
    return failures


def check_self_ranking(result) -> list[str]:
    """rank_eval(gt, gt): every scanpath retrieves its own observer first."""
    failures = [f"rank_eval(gt, gt) ranks {key} at {rank}"
                for key, rank in sorted(result.ranks.items()) if rank != 1]
    if result.mrr != 1.0:
        failures.append(f"rank_eval(gt, gt) MRR {result.mrr!r}, expected 1")
    if result.recall_at[1] != 100.0:
        failures.append(f"rank_eval(gt, gt) R@1 {result.recall_at[1]!r}, "
                        "expected 100")
    return failures


def check_predictions(preds, n_steps: int, height: int, width: int,
                      dur_range=(50.0, 5000.0)) -> list[str]:
    """Length, cell-centre coordinates in [0, 1] and clamped durations."""
    failures = []
    for sp in preds:
        key = (sp.image_id, sp.observer_id)
        if len(sp) != n_steps:
            failures.append(f"prediction {key}: {len(sp)} fixations, "
                            f"expected {n_steps}")
        for fix in sp.fixations:
            col, row = fix.x * width - 0.5, fix.y * height - 0.5
            if not (0.0 <= fix.x <= 1.0 and 0.0 <= fix.y <= 1.0) or \
                    abs(col - round(col)) > 1e-9 or \
                    abs(row - round(row)) > 1e-9:
                failures.append(f"prediction {key}: ({fix.x}, {fix.y}) is "
                                "not a cell centre in [0, 1]")
            if not dur_range[0] <= fix.dur_ms <= dur_range[1]:
                failures.append(f"prediction {key}: duration {fix.dur_ms} "
                                f"outside {dur_range}")
    return failures


def check_simplex(maps, what: str) -> list[str]:
    """Each map is nonnegative and sums to 1."""
    failures = []
    for i, grid in enumerate(maps):
        grid = np.asarray(grid)
        total = float(grid.sum())
        if grid.min() < 0.0 or abs(total - 1.0) > SIMPLEX_TOL:
            failures.append(f"{what} {i}: min {grid.min()!r}, sum {total!r}")
    return failures


def check_reference(steps, reference) -> list[str]:
    """Teacher-forced (map, mu, var) per step against the reference rollout."""
    failures = []
    for t, ((m, mu, var), (m_ref, mu_ref, var_ref)) in enumerate(
            zip(steps, reference)):
        worst = float(np.max(np.abs(np.asarray(m) - m_ref)))
        if worst > REFERENCE_ATOL:
            failures.append(f"step {t}: map differs from the reference "
                            f"rollout by {worst:.3e}")
        for label, got, ref in (("mu", mu, mu_ref), ("var", var, var_ref)):
            if abs(float(got) - float(ref)) > REFERENCE_ATOL:
                failures.append(f"step {t}: {label} {float(got)!r}, "
                                f"reference {float(ref)!r}")
    if len(steps) != len(reference):
        failures.append(f"{len(steps)} steps, reference has "
                        f"{len(reference)}")
    return failures


def gradient_error(analytic: float, numeric: float) -> float:
    """|analytic - numeric| relative to max(|analytic|, |numeric|, 1e-3).

    Entries too small to matter are compared at an absolute 1e-3 * tol.
    """
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)


def check_gradients(analytic, numeric, tol: float = GRAD_TOL) -> list[str]:
    """Tape gradients against central differences, entry by entry."""
    failures = []
    for key in numeric:
        err = gradient_error(analytic[key], numeric[key])
        if err > tol:
            failures.append(f"gradient {key}: tape {analytic[key]!r}, finite "
                            f"differences {numeric[key]!r} "
                            f"(rel err {err:.2e})")
    return failures


# ---------------------------------------------------------------------------
# CLI outputs


def check_same_bytes(dir_a, dir_b) -> list[str]:
    names_a = sorted(p.name for p in Path(dir_a).iterdir())
    names_b = sorted(p.name for p in Path(dir_b).iterdir())
    if names_a != names_b:
        return [f"corpus files differ: {names_a} vs {names_b}"]
    return [f"{name}: rewritten corpus differs from the original"
            for name in names_a
            if (Path(dir_a) / name).read_bytes()
            != (Path(dir_b) / name).read_bytes()]


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and \
            math.isnan(a) and math.isnan(b):
        return True
    return a == b


def check_report_rows(out_dir, csv_rows) -> list[str]:
    """report.json and report.csv of one command hold the same rows."""
    json_rows = json.loads((Path(out_dir) / "report.json").read_text())["rows"]
    fields = ("variant", "split", "metric", "value", "stderr")
    if len(json_rows) != len(csv_rows):
        return [f"{out_dir}: {len(json_rows)} JSON rows, {len(csv_rows)} CSV"]
    failures = []
    for i, (j, c) in enumerate(zip(json_rows, csv_rows)):
        if not all(_same_value(j[f], getattr(c, f)) for f in fields):
            failures.append(f"{out_dir}: row {i} differs: {j} vs {c}")
    return failures


def check_ablation_rows(rows, n_observers: int) -> list[str]:
    """SM in [0, 1], MRR in [1/n, 1], R@1 <= R@5 for every variant."""
    by_variant: dict[str, dict] = {}
    for row in rows:
        by_variant.setdefault(row["variant"], {})[row["metric"]] = row["value"]
    failures = []
    for variant, values in sorted(by_variant.items()):
        if not 0.0 <= values["sm"] <= 1.0:
            failures.append(f"ablation {variant}: SM {values['sm']!r}")
        if not 1.0 / n_observers - 1e-12 <= values["mrr"] <= 1.0:
            failures.append(f"ablation {variant}: MRR {values['mrr']!r}")
        if not values["r_at_1"] <= values["r_at_5"]:
            failures.append(f"ablation {variant}: R@1 {values['r_at_1']!r} "
                            f"> R@5 {values['r_at_5']!r}")
    return failures
