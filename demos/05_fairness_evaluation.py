"""
Linear probing and group-fairness metrics
=========================================

Freezes a trained encoder, fits a logistic-regression probe on its features,
and scores the predictions with the full fairness report: overall and
per-group accuracy, their spread (STD), the worst/best-group ratio (SeR),
equalized-odds and demographic-parity differences. Group labels are read
here and only here.
"""

import numpy as np

from fairssl.evaluation import build_report, train_probe
from fairssl.network import ModelParams, forward_features
from fairssl.synthetic import bayes_accuracy, generate_world

world = generate_world(seed=33, n_pool=800, n_curated=100, n_eval=1500)
eval_set = world.eval_set
dim = eval_set.embeddings.d

# An untrained encoder still gives a usable (random-projection) feature map;
# training moves the numbers, not the protocol.
params = ModelParams.create(dim, [32, 16], [32, 32, 8], seed=5)
features, _ = forward_features(params, eval_set.embeddings.data.astype(np.float64))

rng = np.random.default_rng(5)
order = rng.permutation(eval_set.embeddings.n)
train_sel, test_sel = order[:700], order[700:]

probe = train_probe(features[train_sel], eval_set.target[train_sel], l2=1e-4)
print(f"probe converged: grad norm {probe.grad_norm:.2e} after {probe.iterations} Newton steps")

preds = probe.predict(features[test_sel])
report = build_report(preds, eval_set.target[test_sel], eval_set.groups[test_sel])
print("\n" + report.to_text_table())

bayes = bayes_accuracy(world.config, eval_set.raw[test_sel], eval_set.target[test_sel])
print(f"\nBayes-optimal accuracy on this split: {100 * bayes:.2f}%")
print(f"probe reaches {report.avg_acc / bayes:.1f}% of it with frozen random features;")
print("per-group accuracies show the minority group lagging:")
for group, acc in report.per_group_acc.items():
    size = int(np.sum(eval_set.groups[test_sel] == int(group)))
    print(f"  group {group} ({size} samples): {acc:.2f}%")
