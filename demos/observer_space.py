"""Observer individuality: trait recovery from a trained model.

Trains the observer-conditioned model on the standard benchmark corpus
(8 observers in two trait groups with opposed semantic preferences and
center-bias strengths), then shows that
1. predicted scanpaths are observer-specific: held-out retrieval
   identifies who is looking far above the random baseline,
2. predicted gaze reproduces each observer's spatial signature (how far
   from the screen center their fixations land), and
3. the observer codes separate the two trait groups. Every code starts
   near zero, so what separates them was learned from each observer's
   gaze; the release gate checks the same leave-one-out classification.
Training runs at full benchmark scale, so expect about half a minute.
Run as:  python3 demos/observer_space.py
"""

import numpy as np

from gazelab.analysis import (
    classify_group_loocv,
    extract_observer_features,
    spearman_rho,
)
from gazelab.evaluate import expected_random_mrr, predict_split, rank_eval
from gazelab.model import ModelConfig
from gazelab.synthetic import CorpusConfig, build_corpus
from gazelab.train import TrainConfig, train_variant

print("building the benchmark corpus and training (about 30 s)...")
corpus = build_corpus(CorpusConfig(), seed=0)
train_cfg = TrainConfig()
model = train_variant("OE+FI+FP", corpus, ModelConfig(), train_cfg)

gt = corpus.scanpaths["test"]
preds = predict_split(model, corpus, "test", seed=train_cfg.seed)

print("\nwho is looking? retrieval from held-out scanpaths")
ranking = rank_eval(preds, gt)
n = corpus.config.n_observers
print(f"  MRR {ranking.mrr:.3f} (random guessing {expected_random_mrr(n):.3f})")
print(f"  R@1 {ranking.recall_at[1]:.1f}% (random guessing {100.0 / n:.1f}%)")


def center_distance(paths):
    """Mean distance of each observer's fixations from the screen center."""
    pooled = {}
    for sp in paths:
        xy = sp.xy()
        d = np.hypot(xy[:, 0] - 0.5, xy[:, 1] - 0.5)
        pooled.setdefault(sp.observer_id, []).extend(d)
    return {obs: float(np.mean(v)) for obs, v in pooled.items()}


print("\nper-observer spatial signature: mean distance from screen center")
print(f"{'observer':>8} {'group':>5} {'ground truth':>13} {'predicted':>10}")
gt_dist = center_distance(gt)
pred_dist = center_distance(preds)
gt_vec, pred_vec = [], []
for profile in corpus.profiles:
    g, p = gt_dist[profile.id], pred_dist[profile.id]
    gt_vec.append(g)
    pred_vec.append(p)
    print(f"{profile.id:>8} {profile.group:>5} {g:>13.3f} {p:>10.3f}")

corr = spearman_rho(pred_vec, gt_vec, alternative="greater", seed=0)
print(f"rank correlation predicted vs true: rho {corr.rho:.3f} "
      f"(p {corr.p_value:.4f})")

print("\nleave-one-out group classification from observer features")
features = extract_observer_features(model)
groups = {p.id: p.group for p in corpus.profiles}
labels = [groups[f.observer_id] for f in features]
result = classify_group_loocv(features, labels, seed=0)
for f, label, pred in zip(features, labels, result.predictions):
    mark = "ok" if label == pred else "MISS"
    print(f"  observer {f.observer_id}: true {label}, predicted {pred} "
          f"[{mark}]")
print(f"accuracy {result.accuracy:.1f}% (chance 50%)")
