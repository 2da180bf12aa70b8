"""
Label-aware contrastive pretraining over embedding views
========================================================

Trains the encoder/projection stack on a synthetic world using pseudo-labels
and the multi-attribute label-aware contrastive objective. Views are
embedding-space augmentations (coordinate masking, additive noise, scale
jitter). Watch the loss fall and compare it against the plain pairwise-only
objective trained under the same schedule.
"""

import numpy as np

from fairssl.losses import LossConfig
from fairssl.network import ModelParams
from fairssl.pseudolabel import build_pseudolabel_table, TemplateBank, AttributeTemplates
from fairssl.synthetic import generate_world
from fairssl.trainer import TrainConfig, pretrain_stage

world = generate_world(seed=3, n_pool=1500, n_curated=150, n_eval=400)
X = world.pool.embeddings.data  # train straight on the pool for this demo
dim = X.shape[1]

# Pseudo-label the training rows from noisy axis templates.
rng = np.random.default_rng(3)
def axis_templates(axis, name):
    base = np.zeros(dim)
    base[axis] = 1.0
    pos = np.stack([base + rng.normal(0, 0.1, dim) for _ in range(3)])
    neg = np.stack([-base + rng.normal(0, 0.1, dim) for _ in range(3)])
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    neg /= np.linalg.norm(neg, axis=1, keepdims=True)
    return AttributeTemplates(name, pos, neg)

bank = TemplateBank([axis_templates(0, "target"), axis_templates(1, "context")])
table = build_pseudolabel_table(world.pool.embeddings, bank)
labels = table.labels.astype(np.int64)

loss_cfg = LossConfig(temperature=0.1)

for objective in ("supcon", "contrastive"):
    params = ModelParams.create(dim, [32, 16], [32, 32, 8], seed=0)
    cfg = TrainConfig(
        batch_size=32, epochs=8, stage_split=1.0, base_lr=1e-3,
        warmup_epochs=1, seed=11, objective=objective,
    )
    history = pretrain_stage(params, X, labels, loss_cfg, cfg, stratify_labels=labels[:, 0])
    curve = " -> ".join(f"{h['loss']:.3f}" for h in history)
    print(f"{objective:>12}: per-anchor loss {curve}")

print("\nthe label-aware objective pulls same-pseudo-class samples together;")
print("the pairwise objective treats them as negatives (false negatives).")
