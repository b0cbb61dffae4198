"""Minimal end-to-end run: synthesize gaze data, train, predict, score.

Uses a deliberately small corpus so the whole script finishes in well
under a minute on a laptop. Run as:  python3 demos/quickstart.py
"""

from dataclasses import replace

from gazelab.evaluate import predict_split, rank_eval, value_eval
from gazelab.model import ModelConfig
from gazelab.synthetic import CorpusConfig, build_corpus
from gazelab.train import TrainConfig, train_variant

corpus_cfg = CorpusConfig(n_scenes=12, n_observers=4, n_group_a=2,
                          height=12, width=12, channels=6,
                          n_social_channels=2, n_nonsocial_channels=2,
                          scanpath_len=4)
model_cfg = ModelConfig(n_observers=4, height=12, width=12, channels=6,
                        observer_dim=8, hidden=16, semantic_channels=2,
                        max_steps=6)
train_cfg = replace(TrainConfig(), epochs=4, lr=3e-4)

print("building corpus (12 scenes, 4 observers)...")
corpus = build_corpus(corpus_cfg, seed=0)
sizes = {split: len(ids) for split, ids in corpus.split_ids.items()}
print(f"  scene splits: {sizes}")

print("training the observer-conditioned model...")
model = train_variant("OE+FI+FP", corpus, model_cfg, train_cfg)

print("scoring held-out predictions...")
preds = predict_split(model, corpus, "test", seed=0)
gt = corpus.scanpaths["test"]
value = value_eval(preds, gt)
ranking = rank_eval(preds, gt)

print(f"  alignment similarity  {value.means['sm']:.3f}")
print(f"  multi-dim similarity  {value.means['mm']:.3f}")
print(f"  edit distance         {value.means['sed']:.2f}")
print(f"  observer retrieval    MRR {ranking.mrr:.3f}, "
      f"R@1 {ranking.recall_at[1]:.1f}%")
print("done. For the full workflow see the gazelab CLI "
      "(gen-data / train / eval-rank / ...).")
