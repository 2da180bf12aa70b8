"""fairssl: label-free fair representation learning over precomputed embeddings.

The pipeline curates an unlabeled pool against a small balanced reference
set, pseudo-labels every sample zero-shot from text-template embeddings,
pretrains with a label-aware contrastive objective, refines with
validation-aligned sample reweighting, and evaluates representations with a
linear probe plus group-fairness metrics.
"""

__version__ = "0.1.0"

from .store import (  # noqa: F401
    DatasetManifest,
    EmbeddingMatrix,
    load_embeddings,
    normalize_rows,
    save_embeddings,
)
