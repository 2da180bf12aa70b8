"""
Validation-aligned sample reweighting
=====================================

Runs the second training stage step by step on a small world: most encoder
layers freeze, a linear head is fit on the high-confidence pseudo-labeled
subset, and every step reweights the batch by how well each sample's
training gradient aligns with the gradient of the worst-k validation loss.
Samples pulling against the validation objective get weight zero.
"""

import numpy as np

from fairssl.losses import LossConfig
from fairssl.network import ModelParams
from fairssl.pseudolabel import AttributeTemplates, TemplateBank, build_pseudolabel_table, select_validation_subset
from fairssl.synthetic import generate_world
from fairssl.trainer import TrainConfig, meta_stage, meta_weights, pretrain_stage

world = generate_world(seed=21, n_pool=1200, n_curated=120, n_eval=300)
X = world.pool.embeddings.data
dim = X.shape[1]

rng = np.random.default_rng(21)
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

# The weighting rule itself, in isolation: alignments in, weights out.
print("weighting rule on hand-picked alignments:")
for alignments in ([1.0, 0.0], [2.0, 1.0, -3.0], [-1.0, -2.0]):
    state = meta_weights(np.array(alignments), inner_lr=0.1)
    print(f"  alignments {alignments} -> weights {np.round(state.w, 3).tolist()}"
          f"{'  (step suppressed)' if state.skipped else ''}")

# Stage 1 first (6 of the 10 epochs at stage_split=0.6), then the reweighted
# stage for the other 4, with its per-epoch validation loss.
params = ModelParams.create(dim, [32, 16], [32, 32, 8], seed=1)
cfg = TrainConfig(batch_size=32, epochs=10, stage_split=0.6, base_lr=1e-3,
                  warmup_epochs=1, seed=4, val_subset_size=64, val_topk=16)
loss_cfg = LossConfig(temperature=0.1)
pretrain_stage(params, X, labels, loss_cfg, cfg, stratify_labels=labels[:, 0])

val_idx = select_validation_subset(table, "target", conf_threshold=0.9, m=64, seed=4)
val_y = labels[val_idx, 0]
history, summary = meta_stage(params, X, labels, val_idx, val_y, loss_cfg, cfg,
                              stratify_labels=labels[:, 0])

print(f"\nvalidation worst-{cfg.val_topk} loss at stage switch: "
      f"{summary['val_topk_at_switch']:.4f}")
for row in history:
    print(f"  meta epoch {row['epoch']}: weighted loss {row['loss']:.4f}, "
          f"val topk {row['val_topk_loss']:.4f}, weight entropy {row['weight_entropy']:.2f}")
print(f"final validation loss: {summary['val_topk_final']:.4f} "
      f"({'improved' if summary['val_topk_final'] <= summary['val_topk_at_switch'] else 'regressed'})")
