"""
Zero-shot pseudo-labeling from template embeddings
==================================================

Labels a synthetic embedding cloud against positive/negative template
vectors: each attribute is scored by a softmax over scaled similarities and
multiple templates are aggregated by averaging their probability pairs.
Ends by drawing the class-balanced high-confidence subset that later serves
as the label-free validation set.
"""

import numpy as np

from fairssl.pseudolabel import (
    AttributeTemplates,
    TemplateBank,
    build_pseudolabel_table,
    label_attribute,
    select_validation_subset,
)
from fairssl.store import EmbeddingMatrix, normalize_rows

rng = np.random.default_rng(1)
dim = 12

# One sample scored against one template pair: the closed-form two-class case.
img = np.zeros((1, dim), dtype=np.float32)
img[0, 0] = 1.0
sample = EmbeddingMatrix(img, normalized=True)
pos = np.zeros(dim)
pos[0] = 1.0
neg = -pos
labels, confs = label_attribute(sample, AttributeTemplates("pair", pos, neg), scale=100.0)
print(f"aligned sample     -> label {labels[0]}, confidence {confs[0]:.4f}")

# A borderline sample: similarity 0.30 to the positive template, 0.28 to the
# negative one. At scale 100 the confidence is 1/(1 + e^-2).
pos_tilted = np.zeros(dim)
pos_tilted[0], pos_tilted[1] = 0.30, np.sqrt(1 - 0.30**2)
neg_tilted = np.zeros(dim)
neg_tilted[0], neg_tilted[2] = 0.28, np.sqrt(1 - 0.28**2)
labels, confs = label_attribute(sample, AttributeTemplates("tilted", pos_tilted, neg_tilted), scale=100.0)
print(f"borderline sample  -> label {labels[0]}, confidence {confs[0]:.4f} "
      f"(closed form {1 / (1 + np.exp(-2)):.4f})")

# A whole cloud, two attributes, three noisy template pairs each. True labels
# are the coordinate signs; pseudo-labels recover them where noise permits.
n = 2000
truth = rng.integers(0, 2, (n, 2))
cloud = rng.normal(0, 0.45, (n, dim))
for a in range(2):
    cloud[:, a] += np.where(truth[:, a] == 1, 0.8, -0.8)
images = normalize_rows(EmbeddingMatrix(cloud.astype(np.float32)))


def noisy_templates(axis):
    base = np.zeros(dim)
    base[axis] = 1.0
    pos_rows = np.stack([base + rng.normal(0, 0.1, dim) for _ in range(3)])
    neg_rows = np.stack([-base + rng.normal(0, 0.1, dim) for _ in range(3)])
    pos_rows /= np.linalg.norm(pos_rows, axis=1, keepdims=True)
    neg_rows /= np.linalg.norm(neg_rows, axis=1, keepdims=True)
    return AttributeTemplates(f"axis{axis}", pos_rows, neg_rows)


bank = TemplateBank([noisy_templates(0), noisy_templates(1)])
table = build_pseudolabel_table(images, bank, scale=100.0)

for col, name in enumerate(bank.names):
    agreement = np.mean(table.labels[:, col] == truth[:, col])
    print(f"attribute {name}: pseudo-label agreement with truth {100 * agreement:.1f}%, "
          f"median confidence {np.median(table.confidences[:, col]):.3f}")

# High-confidence class-balanced subset for downstream validation.
subset = select_validation_subset(table, "axis0", conf_threshold=0.9, m=64, seed=7)
chosen = table.labels[subset, 0]
print(f"\nvalidation subset: {subset.size} samples, class split "
      f"{int((chosen == 0).sum())}/{int((chosen == 1).sum())}, "
      f"min confidence {table.confidences[subset, 0].min():.3f}")
