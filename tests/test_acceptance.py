"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fairssl.config import config_from_dict
from fairssl.curation import _exact_topm, deduplicate, knn_retrieve
from fairssl.evaluation import build_report
from fairssl.losses import (
    LossConfig,
    MultiviewedBatch,
    contrastive_loss,
    multi_attribute_anchor_stats,
    topk_average,
    validation_topk_loss,
    weighted_grad_from_stats,
)
from fairssl.network import (
    GradientBundle,
    ModelParams,
    backward,
    forward_embed,
    forward_jvp,
    set_frozen,
)
from fairssl.pipeline import run_stage
from fairssl.pseudolabel import AttributeTemplates, TemplateBank, attribute_probabilities, build_pseudolabel_table
from fairssl.seeding import substream
from fairssl.store import EmbeddingMatrix, normalize_rows
from fairssl.synthetic import bayes_accuracy, generate_world
from fairssl.trainer import (
    AdamW,
    LrSchedule,
    TrainConfig,
    meta_step,
    meta_weights,
    per_sample_alignments,
    pretrain_epoch,
    stratified_batches,
)

from oracles import (
    assert_grad_close,
    bruteforce_contrastive,
    bruteforce_supcon,
    confusion_rates,
    copy_params,
    float64_params,
    exhaustive_knn,
    fd_gradient,
    fd_param_gradients,
    groups_with_accuracy,
    multi_attribute_supcon,
    sorted_topk_mean,
    supcon_loss,
)


@pytest.fixture
def criterion():
    @contextmanager
    def _criterion(number, description):
        try:
            yield
        except BaseException:
            print(f"[criterion {number:02d}] FAIL - {description}")
            raise
        print(f"[criterion {number:02d}] PASS - {description}")

    return _criterion


def random_batch(rng, n_origins, dim, n_attrs=1):
    z = rng.standard_normal((2 * n_origins, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=(n_origins, n_attrs))
    return MultiviewedBatch(z, labels)


def unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def test_c01_gradient_suite(criterion):
    with criterion(1, "analytic gradients match finite differences at rel 1e-4 on 50+ instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        checked = 0

        def check_z_gradient(make_loss, batch):
            loss, grad = make_loss(batch)
            def value():
                return make_loss(
                    MultiviewedBatch(batch.views, batch.labels[: batch.num_origins])
                )[0]
            numeric = fd_gradient(value, batch.views, h=1e-6)
            assert_grad_close(grad, numeric, rtol=1e-4, atol=1e-7)

        for _ in range(10):  # contrastive
            batch = random_batch(rng, int(rng.integers(2, 5)), int(rng.integers(3, 9)))
            tau = float(rng.uniform(0.2, 1.0))
            check_z_gradient(lambda b: contrastive_loss(b, tau), batch)
            checked += 1
        for _ in range(10):  # supcon
            batch = random_batch(rng, int(rng.integers(2, 5)), int(rng.integers(3, 9)))
            tau = float(rng.uniform(0.2, 1.0))
            check_z_gradient(lambda b: supcon_loss(b, 0, tau), batch)
            checked += 1
        for _ in range(10):  # multi-attribute supcon
            batch = random_batch(rng, int(rng.integers(2, 5)), int(rng.integers(3, 9)), n_attrs=3)
            tau = float(rng.uniform(0.2, 1.0))
            check_z_gradient(lambda b: multi_attribute_supcon(b, [0, 1, 2], tau), batch)
            checked += 1
        for _ in range(10):  # top-k wrapper over per-anchor terms
            batch = random_batch(rng, 4, 6, n_attrs=2)
            tau = float(rng.uniform(0.2, 1.0))
            k = int(rng.integers(1, 8))

            def topk_loss(b):
                terms, R = multi_attribute_anchor_stats(b, tau)
                value, mask = topk_average(terms, k)
                grad = weighted_grad_from_stats(b.views, R, mask / k, tau)
                return value, grad

            check_z_gradient(topk_loss, batch)
            checked += 1
        for _ in range(10):  # validation top-k cross entropy, all parameters
            params = float64_params(ModelParams.create(5, [6, 4], [5, 5, 3], seed=int(rng.integers(1e6))))
            X = rng.standard_normal((6, 5))
            y = rng.integers(0, 2, 6)
            k = int(rng.integers(1, 7))
            loss, bundle = validation_topk_loss(params, X, y, k)
            numeric = fd_param_gradients(
                lambda: validation_topk_loss(params, X, y, k)[0], params, h=1e-5
            )
            for name in params.layer_names():
                assert_grad_close(bundle[name][0], numeric[name][0], rtol=1e-4, atol=1e-7)
                assert_grad_close(bundle[name][1], numeric[name][1], rtol=1e-4, atol=1e-7)
            checked += 1
        for _ in range(10):  # full network composition under the multi-attribute loss
            params = float64_params(ModelParams.create(6, [8, 6], [6, 6, 4], seed=int(rng.integers(1e6))))
            n = 3
            X = rng.standard_normal((2 * n, 6))
            lab = rng.integers(0, 2, (n, 2))
            tau = 0.4

            def net_loss():
                _, Z, tape = forward_embed(params, X)
                b = MultiviewedBatch(Z, lab)
                value, dZ = multi_attribute_supcon(b, [0, 1], tau)
                return value, dZ, tape

            value, dZ, tape = net_loss()
            bundle = backward(params, tape, d_projection=dZ)
            numeric = fd_param_gradients(lambda: net_loss()[0], params, h=1e-4)
            for name in params.layer_names():
                assert_grad_close(bundle[name][0], numeric[name][0], rtol=1e-4, atol=1e-7)
                assert_grad_close(bundle[name][1], numeric[name][1], rtol=1e-4, atol=1e-7)
            checked += 1

        elapsed = time.perf_counter() - start
        assert checked >= 50
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_c02_loss_oracles(criterion):
    with criterion(2, "losses match brute-force double loops and closed forms"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            batch = random_batch(rng, int(rng.integers(2, 6)), int(rng.integers(3, 8)))
            tau = float(rng.uniform(0.1, 2.0))
            loss, _ = supcon_loss(batch, 0, tau)
            oracle = bruteforce_supcon(batch.views, batch.labels[:, 0], tau)
            assert abs(loss - oracle) < 1e-9
        # exact reduction when every origin carries a distinct label
        for _ in range(20):
            batch = random_batch(rng, int(rng.integers(2, 6)), 5)
            distinct = MultiviewedBatch(batch.views, np.arange(batch.num_origins))
            tau = float(rng.uniform(0.1, 2.0))
            assert supcon_loss(distinct, 0, tau)[0] == contrastive_loss(distinct, tau)[0]
            oracle = bruteforce_contrastive(distinct.views, distinct.pair_index(), tau)
            assert abs(contrastive_loss(distinct, tau)[0] - oracle) < 1e-9
        # closed forms
        orth = MultiviewedBatch(np.eye(4), np.zeros(2))
        assert abs(contrastive_loss(orth, 1.0)[0] - 4 * np.log(3.0)) < 1e-9
        same_label = MultiviewedBatch(np.tile([1.0, 0.0], (4, 1)), np.zeros(2))
        assert abs(supcon_loss(same_label, 0, 1.0)[0] - 4 * np.log(3.0)) < 1e-9
        paired = MultiviewedBatch(np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]]), np.zeros(2))
        assert abs(contrastive_loss(paired, 1.0)[0] - 4 * np.log(1 + 2 / np.e)) < 1e-9


def test_c03_topk_identity(criterion):
    with criterion(3, "hinge form equals sorted top-k mean to 1e-12, nonincreasing in k"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            values = rng.standard_normal(n) * float(rng.uniform(0.1, 20.0))
            if rng.random() < 0.3:
                values = np.round(values, 1)  # force ties
            previous = np.inf
            for k in range(1, n + 1):
                hinge, _ = topk_average(values, k)
                assert abs(hinge - sorted_topk_mean(values, k)) <= 1e-12
                assert hinge <= previous + 1e-12
                previous = hinge


def test_c04_meta_gradient_oracle(criterion):
    with criterion(4, "meta-gradient matches epsilon finite differences; weights scale-invariant"):
        rng = np.random.default_rng(404)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(4, 8))
            n_attrs = int(rng.integers(1, 4))
            params = float64_params(ModelParams.create(d, [7, 5], [6, 6, 4], seed=trial))
            if trial % 2:  # half the trials exercise the frozen configuration
                set_frozen(params, ["encoder.0"])
            X = rng.standard_normal((2 * n, d))
            lab = rng.integers(0, 2, (n, n_attrs))
            tau = float(rng.uniform(0.2, 0.8))
            alpha = float(rng.uniform(0.01, 0.2))
            val_x = rng.standard_normal((5, d))
            val_y = rng.integers(0, 2, 5)
            k = int(rng.integers(1, 6))

            _, Z, tape = forward_embed(params, X)
            batch = MultiviewedBatch(Z, lab)
            _, R = multi_attribute_anchor_stats(batch, tau)
            _, g_v = validation_topk_loss(params, val_x, val_y, k)
            dZ_dir = forward_jvp(params, tape, g_v)
            anchor_align = per_sample_alignments(Z, dZ_dir, R, tau)
            sample_align = 0.5 * (anchor_align[:n] + anchor_align[n:])
            grad_eps = meta_weights(sample_align, alpha).grad_eps

            g = []
            for i in range(n):
                u = np.zeros_like(Z)
                for view in (i, i + n):
                    r = R[view]
                    u[view] += (r @ Z) / tau * 0.5
                    u += np.outer(r, Z[view]) / tau * 0.5
                g.append(backward(params, tape, d_projection=u))

            def val_at(eps):
                p = copy_params(params)
                for name, layer in p.named_layers():
                    for j in range(n):
                        dw, db = g[j][name]
                        layer.weight -= alpha * eps[j] * dw
                        layer.bias -= alpha * eps[j] * db
                return validation_topk_loss(p, val_x, val_y, k)[0]

            delta = 1e-3
            for i in range(n):
                e = np.zeros(n)
                e[i] = delta
                fd = (val_at(e) - val_at(-e)) / (2 * delta)
                scale = max(abs(fd), abs(grad_eps[i]), 1e-12)
                assert abs(fd - grad_eps[i]) <= 1e-2 * scale

        # exact scale invariance of normalized weights
        alignments = rng.standard_normal(12)
        base = meta_weights(alignments, 0.1)
        for c in (2.0, 8.0, 0.5):
            assert np.array_equal(meta_weights(c * alignments, 0.1).w, base.w)

        # aligned sample takes all the weight, orthogonal sample none
        params = ModelParams.create(4, [5], [4, 4, 3], seed=0)
        g_v = GradientBundle(rng.standard_normal(params.flat.size), params.layout)
        g2 = GradientBundle(rng.standard_normal(params.flat.size), params.layout)
        coeff = float(g_v.flat @ g2.flat) / float(g_v.flat @ g_v.flat)
        g2.flat += g_v.flat * (-coeff)  # orthogonalize against g_v
        alignments = np.array([float(g_v.flat @ g_v.flat), float(g_v.flat @ g2.flat)])
        state = meta_weights(alignments, 0.1)
        assert state.w[0] == 1.0
        assert abs(state.w[1]) < 1e-12


def test_c05_curation(criterion, tmp_path):
    with criterion(5, "exact KNN, dedup exhaustive check, distribution matching"):
        rng = np.random.default_rng(505)
        # exact backend vs brute-force argsort per query, 1k-row pool
        pool_rows = unit_rows(rng, 1000, 10)
        queries = unit_rows(rng, 40, 10)
        local = _exact_topm(queries, pool_rows, 5)
        oracle = exhaustive_knn(queries, pool_rows, 5)
        assert all(local[i].tolist() == oracle[i] for i in range(40))
        pool = EmbeddingMatrix(pool_rows.astype(np.float32), normalized=True)
        curated = EmbeddingMatrix(queries.astype(np.float32), normalized=True)
        union = knn_retrieve(curated, pool, np.arange(1000), 5)
        assert union.tolist() == sorted({j for row in oracle for j in row})

        # dedup leaves no pair at or above the threshold (exhaustive, 2k rows)
        base = rng.standard_normal((1000, 6))
        noisy_dups = base[rng.integers(0, 1000, 1000)] + rng.normal(0, 0.01, (1000, 6))
        dedup_pool = normalize_rows(EmbeddingMatrix(np.vstack([base, noisy_dups]).astype(np.float32)))
        threshold = 0.95
        kept = deduplicate(dedup_pool, threshold)
        surviving = dedup_pool.data[kept].astype(np.float64)
        sims = surviving @ surviving.T
        np.fill_diagonal(sims, -1.0)
        assert sims.max() < threshold

        # distribution matching: 90/10 pool of 20k, balanced curated set, m=4
        n_pool = 20000
        groups = (rng.random(n_pool) < 0.1).astype(int)
        centers = np.zeros((2, 16))
        centers[0, 0] = 2.0
        centers[1, 1] = 2.0
        big_pool = normalize_rows(
            EmbeddingMatrix((centers[groups] + rng.normal(0, 0.5, (n_pool, 16))).astype(np.float32))
        )
        cur_groups = np.repeat([0, 1], 50)
        balanced = normalize_rows(
            EmbeddingMatrix((centers[cur_groups] + rng.normal(0, 0.5, (100, 16))).astype(np.float32))
        )
        retrieved = knn_retrieve(balanced, big_pool, np.arange(n_pool), 4)
        props = np.bincount(groups[retrieved], minlength=2) / retrieved.size
        assert abs(props[0] - 0.5) <= 0.05, f"cluster proportions {props}"


def test_c06_pseudolabeling(criterion):
    with criterion(6, "swap symmetry exact, constructed geometry 100%, probabilities sum to 1"):
        rng = np.random.default_rng(606)
        for trial in range(10):
            d = int(rng.integers(4, 10))
            t = int(rng.integers(1, 5))
            pos, neg = unit_rows(rng, t, d), unit_rows(rng, t, d)
            images = EmbeddingMatrix(unit_rows(rng, 50, d).astype(np.float32), normalized=True)
            bank = TemplateBank([AttributeTemplates("a", pos, neg)])
            swapped = TemplateBank([AttributeTemplates("a", neg, pos)])
            # moderate scale: probabilities never saturate, so no exact ties
            # can arise and the swap flips every label
            t1 = build_pseudolabel_table(images, bank, scale=10.0)
            t2 = build_pseudolabel_table(images, swapped, scale=10.0)
            assert np.array_equal(t1.labels, 1 - t2.labels)
            assert np.array_equal(t1.confidences, t2.confidences)
            probs = attribute_probabilities(images, bank.attributes[0], scale=10.0)
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
            # default scale: saturated opposite template votes can average to an
            # exact (0.5, 0.5) tie, where the documented tie rule fixes the label
            # at 1 on both sides; everywhere else the flip is exact
            s1 = build_pseudolabel_table(images, bank)
            s2 = build_pseudolabel_table(images, swapped)
            assert np.array_equal(s1.confidences, s2.confidences)
            p = attribute_probabilities(images, bank.attributes[0])
            tied = p[:, 0] == p[:, 1]
            assert np.array_equal(s1.labels[~tied], 1 - s2.labels[~tied])
            assert np.all(s1.labels[tied] == 1) and np.all(s2.labels[tied] == 1)

        # constructed geometry: labels equal the sign of the attribute coordinate
        d = 6
        n = 16
        signs = rng.integers(0, 2, (n, 3))
        rows = rng.normal(0, 0.05, (n, d))
        for a in range(3):
            rows[:, a] += np.where(signs[:, a] == 1, 1.0, -1.0)
        mat = normalize_rows(EmbeddingMatrix(rows.astype(np.float32)))
        axes = np.eye(d)
        bank = TemplateBank(
            [AttributeTemplates(f"x{a}", axes[a][None, :], -axes[a][None, :]) for a in range(3)]
        )
        table = build_pseudolabel_table(mat, bank)
        assert np.array_equal(table.labels, signs)


def test_c07_metrics(criterion):
    with criterion(7, "metrics match hand oracles; published SeR point reproduced"):
        rng = np.random.default_rng(707)
        scenarios = 0
        while scenarios < 10:
            n = int(rng.integers(12, 40))
            pred = rng.integers(0, 2, n)
            lab = rng.integers(0, 2, n)
            grp = rng.integers(0, int(rng.integers(2, 4)), n)
            stats_ok = all(
                ((lab == 1) & (grp == g)).any() and ((lab == 0) & (grp == g)).any()
                for g in np.unique(grp)
            )
            if not stats_ok or len(np.unique(grp)) < 2:
                continue
            scenarios += 1
            report = build_report(pred, lab, grp)
            stats = confusion_rates(pred.tolist(), lab.tolist(), grp.tolist())
            accs = {g: stats[g]["acc"] for g in stats}
            assert report.per_group_acc == pytest.approx(accs)
            assert report.min_grp_acc == pytest.approx(min(accs.values()))
            assert report.max_grp_acc == pytest.approx(max(accs.values()))
            assert report.ser == pytest.approx(100 * min(accs.values()) / max(accs.values()))
            mean = np.mean(list(accs.values()))
            assert report.std_acc == pytest.approx(
                float(np.sqrt(np.mean([(a - mean) ** 2 for a in accs.values()])))
            )
            tprs = [stats[g]["tpr"] for g in stats]
            fprs = [stats[g]["fpr"] for g in stats]
            assert report.eod == pytest.approx(
                100 * max(max(tprs) - min(tprs), max(fprs) - min(fprs))
            )
            pos = [stats[g]["pos_rate"] for g in stats]
            assert report.dpd == pytest.approx(100 * (max(pos) - min(pos)))

            relabel = {g: f"grp-{g}" for g in np.unique(grp)}
            r2 = build_report(pred, lab, np.array([relabel[g] for g in grp]))
            assert r2.ser == report.ser and r2.eod == report.eod and r2.dpd == report.dpd

        published = build_report(*groups_with_accuracy([1683, 2377], [2000, 2500]))
        assert (published.min_grp_acc, published.max_grp_acc) == (84.15, 95.08)
        assert published.ser == pytest.approx(88.50, abs=5e-3)


def _pipeline_config(files, out_dir, seed, objective="supcon", stage_split=0.7):
    return config_from_dict(
        {
            "seed": seed,
            "paths": {**files, "out_dir": str(out_dir)},
            "trainer": {
                "epochs": 10, "stage_split": stage_split, "batch_size": 32,
                "base_lr": 1e-3, "warmup_epochs": 1, "val_subset_size": 64,
                "val_topk": 16, "objective": objective,
            },
            "model": {"encoder_dims": [32, 16], "projection_dims": [32, 32, 8]},
        }
    )


def test_c08_end_to_end_bias_study(criterion, tmp_path):
    with criterion(8, "synthetic bias study: Bayes ratio, val-loss improvement, min-group accuracy"):
        start = time.perf_counter()

        # (a) and (b) on the primary pipeline run
        world = generate_world(seed=42, out_dir=tmp_path / "world", n_pool=4000,
                               n_curated=200, n_eval=1200)
        bayes = bayes_accuracy(world.config, world.eval_set.raw, world.eval_set.target)
        cfg = _pipeline_config(world.files, tmp_path / "main", seed=42)
        run_stage(cfg, "pipeline")
        report = json.loads((tmp_path / "main" / "fairness_report.json").read_text())
        summary = json.loads((tmp_path / "main" / "training_summary.json").read_text())
        assert report["avg_acc"] / 100.0 > 0.9 * bayes, (
            f"probe accuracy {report['avg_acc']:.2f}% vs Bayes {100 * bayes:.2f}%"
        )
        assert summary["val_topk_final"] <= summary["val_topk_at_switch"], summary

        # (c) staged training vs plain contrastive on 10 seeds
        wins = 0
        for seed in range(10):
            seed_dir = tmp_path / f"seed{seed}"
            world = generate_world(seed=seed, out_dir=seed_dir / "world", n_pool=4000,
                                   n_curated=200, n_eval=1200)
            shared = _pipeline_config(world.files, seed_dir / "shared", seed=seed)
            run_stage(shared, "curate")
            run_stage(shared, "pseudolabel")
            results = {}
            for name, objective, split in (("staged", "supcon", 0.7), ("plain", "contrastive", 1.0)):
                out = seed_dir / name
                shutil.copytree(seed_dir / "shared", out)
                cfg = _pipeline_config(world.files, out, seed=seed, objective=objective,
                                       stage_split=split)
                run_stage(cfg, "pretrain")
                run_stage(cfg, "train-meta")
                run_stage(cfg, "probe")
                results[name] = json.loads((out / "fairness_report.json").read_text())
            if results["staged"]["min_grp_acc"] >= results["plain"]["min_grp_acc"] - 1.0:
                wins += 1
        assert wins >= 7, f"staged training held up on only {wins}/10 seeds"

        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"end-to-end study took {elapsed:.0f}s"


def test_c09_pipeline_determinism(criterion, tmp_path):
    with criterion(9, "identical seeds give bit-identical artifacts"):
        world = generate_world(seed=9, out_dir=tmp_path / "world", n_pool=1500,
                               n_curated=120, n_eval=500)
        manifests = []
        for run in ("r1", "r2"):
            cfg = _pipeline_config(world.files, tmp_path / run, seed=9)
            cfg.trainer.epochs = 6
            run_stage(cfg, "pipeline")
            manifests.append(
                json.loads((tmp_path / run / "run_manifest_pipeline.json").read_text())
            )
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
        checkpoints = [
            (tmp_path / run / "final_checkpoint.fsck").read_bytes() for run in ("r1", "r2")
        ]
        assert checkpoints[0] == checkpoints[1]


def test_c10_staged_training_cost(criterion):
    with criterion(10, "meta-stage step costs at most 3.5x a pretraining step"):
        rng = np.random.default_rng(1010)
        n, d, n_attrs = 512, 16, 8
        X = rng.standard_normal((n, d)).astype(np.float32)
        labels = rng.integers(0, 2, (n, n_attrs))
        cfg = TrainConfig(batch_size=32, epochs=4, warmup_epochs=0, base_lr=1e-3, seed=0)
        loss_cfg = LossConfig(temperature=0.1)

        # the stages take turns, one epoch each, so a slow phase of the
        # machine falls on both; the first round is their warmup
        params1 = ModelParams.create(d, [32, 16], [32, 32, 8], seed=0)
        params2 = ModelParams.create(d, [32, 16], [32, 32, 8], seed=0)
        set_frozen(params2, ["encoder.0"])
        opt1, opt2 = AdamW(params1, LrSchedule(1e-3)), AdamW(params2, LrSchedule(1e-3))
        rng_s, rng_v = substream(1, "s"), substream(1, "v")
        val_idx = rng.choice(n, 64, replace=False)
        val_x = X[val_idx[:32]].astype(np.float64)
        val_y = labels[val_idx[:32], 0]
        times1, times2 = [], []
        for _ in range(5):
            n_batches = len(stratified_batches(n, 32, rng_s))
            t0 = time.perf_counter()
            pretrain_epoch(params1, X, labels, loss_cfg, cfg, opt1, rng_s, rng_v)
            times1.append((time.perf_counter() - t0) / n_batches)
            batches = stratified_batches(n, 32, rng_s)
            t0 = time.perf_counter()
            for idx in batches:
                meta_step(params2, X, labels, idx, val_x, val_y, loss_cfg, cfg, opt2, rng_v)
            times2.append((time.perf_counter() - t0) / len(batches))
        stage1, stage2 = float(np.median(times1)), float(np.median(times2))

        ratio = stage2 / stage1
        print(f"  stage-1 step {stage1 * 1e3:.2f} ms, stage-2 step {stage2 * 1e3:.2f} ms, ratio {ratio:.2f}")
        assert ratio <= 3.5, f"stage-2/stage-1 step-time ratio {ratio:.2f} exceeds 3.5"
