"""Workload definitions: world sizes, pipeline configs and the stage plan.

Stdlib only, so the parent process can import it without numpy. World
seeds are offsets from the workload seed given on the command line. Sizes
and measured shares are in bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SHARED_STAGES = ("curate", "pseudolabel")
ARM_STAGES = ("pretrain", "train-meta", "probe", "evaluate")

# trainer/model section of the c08 bias study (tests/test_acceptance.py)
_C08_CONFIG = {
    "trainer": {
        "epochs": 10, "stage_split": 0.7, "batch_size": 32, "base_lr": 1e-3,
        "warmup_epochs": 1, "val_subset_size": 64, "val_topk": 16, "objective": "supcon",
    },
    "model": {"encoder_dims": [32, 16], "projection_dims": [32, 32, 8]},
}


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict  # generate_world size arguments plus the world dimension
    config: dict  # config body without seed and paths
    worlds: int = 1  # world seeds seed+0 .. seed+worlds-1
    arms: tuple = (("main", ()),)  # (arm name, --set overrides); the first arm is scored
    quiet_spans: frozenset = field(default_factory=frozenset)  # traced spans that never fire


WORKLOADS = {
    w.name: w
    for w in (
        # exact dedup and top-m retrieval do ~90% of the work; training is short
        Workload(
            name="pool-curation",
            world={"n_pool": 30000, "n_curated": 400, "n_eval": 1200, "dim": 64},
            config={"trainer": {"epochs": 4, "warmup_epochs": 1}},
            quiet_spans=frozenset({"losses.contrastive_loss"}),
        ),
        # network, losses and trainer do ~70% of the work; curation is light
        Workload(
            name="train-long",
            world={"n_pool": 8000, "n_curated": 1000, "n_eval": 1200, "dim": 32},
            config={"trainer": {"epochs": 20, "batch_size": 32, "warmup_epochs": 2}},
            quiet_spans=frozenset({"losses.contrastive_loss"}),
        ),
        # the c08 study: many small shapes, the probe dominates; the only workload
        # with the contrastive objective and the meta-skip path (stage_split=1.0)
        Workload(
            name="bias-study",
            world={"n_pool": 4000, "n_curated": 200, "n_eval": 1200, "dim": 12},
            config=_C08_CONFIG,
            worlds=4,
            arms=(
                ("staged", ()),
                ("plain", ("trainer.objective=contrastive", "trainer.stage_split=1.0")),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One CLI stage call, or a copy of the shared stage outputs into an arm."""

    kind: str  # "stage" or "copy"
    stage: str  # CLI subcommand; for a copy, the source directory
    world: int
    out: str  # output directory, relative to the run directory
    overrides: tuple = ()
    scored: bool = False  # the first arm's outputs give the quality metrics


def plan(w: Workload) -> list[Op]:
    """Stage calls of one run, in order. Each world runs curate and
    pseudolabel once; each arm then runs the training and evaluation stages
    on its own copy of those outputs."""
    ops = []
    for k in range(w.worlds):
        shared = f"w{k}/shared"
        ops += [Op("stage", s, k, shared) for s in SHARED_STAGES]
        for i, (arm, overrides) in enumerate(w.arms):
            out = shared if len(w.arms) == 1 else f"w{k}/{arm}"
            if out != shared:
                ops.append(Op("copy", shared, k, out))
            ops += [Op("stage", s, k, out, tuple(overrides), i == 0) for s in ARM_STAGES]
    return ops
