"""Named random substreams derived from a single global seed.

Every source of randomness in the pipeline (shuffling, view generation,
validation sampling, the probe split, synthetic worlds) pulls its own
generator from ``substream(seed, *labels)`` so that runs are reproducible
and adding a new consumer of randomness never perturbs existing ones.
Model initialization is the exception: ``ModelParams.create`` draws from its
own ``SeedSequence([seed & 0xFFFFFFFF, 0x6E657477])``, as every checkpoint has.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *labels: str | int) -> np.random.Generator:
    """Return a generator keyed by ``(seed, labels...)``.

    The same arguments always yield the same stream; distinct labels yield
    statistically independent streams.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    entropy.extend(zlib.crc32(str(label).encode("utf-8")) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(entropy))
