import numpy as np
import pytest

from fairssl.errors import ConfigError, DataError, NumericError
from fairssl.losses import LossConfig, MultiviewedBatch, multi_attribute_anchor_stats, validation_topk_loss
from fairssl.network import GradientBundle, Layer, ModelParams, backward, forward_embed, set_frozen
from fairssl.seeding import substream
from fairssl.trainer import (
    AdamW,
    LrSchedule,
    TrainConfig,
    make_views,
    meta_stage,
    meta_step,
    meta_weights,
    per_sample_alignments,
    pretrain_epoch,
    pretrain_stage,
    stratified_batches,
)

from oracles import copy_params, float64_params, layered_adamw, staged_train


def tiny_params(seed=0, d=6):
    return ModelParams.create(d, [8, 5], [6, 6, 4], seed=seed)


def toy_data(rng, n=64, d=6, n_attrs=2):
    X = rng.standard_normal((n, d)).astype(np.float32)
    labels = rng.integers(0, 2, size=(n, n_attrs))
    return X, labels


class TestMakeViews:
    def test_identity_when_disabled(self, rng):
        x = rng.standard_normal((4, 5))
        v1, v2 = make_views(x, rng, noise_sigma=0.0, mask_prob=0.0, scale_jitter=0.0)
        assert np.array_equal(v1, x)
        assert np.array_equal(v2, x)

    def test_reproducible_under_seed(self, rng):
        x = rng.standard_normal((4, 5))
        a = make_views(x, substream(9, "v"), noise_sigma=0.1, mask_prob=0.2, scale_jitter=0.1)
        b = make_views(x, substream(9, "v"), noise_sigma=0.1, mask_prob=0.2, scale_jitter=0.1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_noise_variance(self):
        x = np.zeros((10000, 4))
        rng = substream(3, "noise")
        v1, _ = make_views(x, rng, noise_sigma=0.1, mask_prob=0.0, scale_jitter=0.0)
        var = v1.var()
        assert abs(var - 0.01) < 0.05 * 0.01

    def test_single_vector(self, rng):
        with pytest.raises(DataError, match="batch of rows"):
            make_views(np.ones(5), rng, noise_sigma=0.0, mask_prob=0.0, scale_jitter=0.0)


class TestSchedule:
    def test_warmup_boundary(self):
        s = LrSchedule(1.0, warmup_steps=10, total_steps=100)
        assert s.lr(0) == 0.0
        assert abs(s.lr(5) - 0.5) < 1e-12
        assert abs(s.lr(10) - 1.0) < 1e-12

    def test_cosine_reaches_zero(self):
        s = LrSchedule(2.0, warmup_steps=0, total_steps=50)
        assert abs(s.lr(50)) < 1e-12
        assert s.lr(25) == pytest.approx(1.0)

    def test_constant(self):
        s = LrSchedule(0.3)
        assert s.lr(0) == 0.3
        assert s.lr(1000) == 0.3


class TestAdamW:
    def test_zero_grads_no_decay_fixed_point(self):
        params = tiny_params()
        snap = {n: l.weight.copy() for n, l in params.named_layers()}
        opt = AdamW(params, LrSchedule(0.1), weight_decay=0.0)
        for _ in range(3):
            opt.step(params, GradientBundle.zeros_like(params))
        for name, layer in params.named_layers():
            assert np.array_equal(layer.weight, snap[name])

    def test_constant_gradient_hand_recurrence(self):
        # one 1x1 linear layer, constant gradient g, three hand-derived steps
        params = ModelParams(
            [Layer(np.array([[1.0]]), np.zeros(1), "identity")],
            [Layer(np.array([[1.0]]), np.zeros(1), "identity") for _ in range(3)],
            Layer(np.array([[1.0]]), np.zeros(1), "identity"),
        )
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = 0.5
        opt = AdamW(params, LrSchedule(lr), weight_decay=0.0, beta1=b1, beta2=b2, eps=eps)
        grads = GradientBundle.zeros_like(params)
        grads["encoder.0"][0][...] = g

        theta = 1.0
        m = v = 0.0
        for t in range(1, 4):
            opt.step(params, grads)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
            assert params.encoder[0].weight[0, 0] == pytest.approx(theta, abs=1e-15)

    def test_decoupled_weight_decay(self):
        params = tiny_params()
        w0 = params.encoder[0].weight.copy()
        opt = AdamW(params, LrSchedule(0.1), weight_decay=0.5)
        opt.step(params, GradientBundle.zeros_like(params))
        # zero gradient: only the decay term acts, biases untouched
        assert np.allclose(params.encoder[0].weight, w0 * (1 - 0.1 * 0.5))

    def test_nonfinite_gradient_aborts(self):
        params = tiny_params()
        grads = GradientBundle.zeros_like(params)
        grads["head"][0][0, 0] = np.nan
        opt = AdamW(params, LrSchedule(0.1))
        with pytest.raises(NumericError, match="head"):
            opt.step(params, grads)

    def test_overflowing_gradient_norm_aborts(self):
        # every entry is finite, but the sum of their squares overflows
        params = float64_params(tiny_params())
        before = params.flat.copy()
        grads = GradientBundle.zeros_like(params)
        grads.flat[:] = 1e200
        opt = AdamW(params, LrSchedule(0.1))
        with pytest.raises(NumericError, match="gradient norm overflows to inf"):
            opt.step(params, grads)
        assert np.array_equal(params.flat, before) and opt.step_count == 0

    def test_first_moment_of_a_dead_unit_skips_the_subnormals(self, rng):
        # a gradient that stops, as a dead relu unit's does: its first moment decays
        # by beta1 a step and would spend about 150 steps below float32's smallest
        # normal number, where each operation on it is many times slower
        params = tiny_params(seed=2)
        reference = copy_params(params)
        opt = AdamW(params, LrSchedule(1e-3))
        moments: dict = {}
        grads = GradientBundle(rng.standard_normal(params.flat.size).astype(np.float32), params.layout)
        tiny = np.finfo(np.float32).tiny
        for step in range(1000):
            opt.step(params, grads)
            layered_adamw(reference, grads, moments, step + 1, 1e-3)
            if step == 0:
                grads.flat[:] = 0.0
            assert not np.any((opt.m != 0.0) & (np.abs(opt.m) < tiny)), f"step {step}"
        assert np.array_equal(params.flat, reference.flat)
        assert not opt.m.any()

    def test_flat_step_matches_layered_oracle_bit_for_bit(self, rng):
        params = tiny_params(seed=3)
        set_frozen(params, ["projection.1"])
        reference = copy_params(params)
        schedule = LrSchedule(0.05, warmup_steps=20, total_steps=240)
        opt = AdamW(params, schedule, weight_decay=0.3)
        moments: dict = {}
        for step in range(240):
            if step == 120:  # a layer frozen mid-run keeps its parameters and moments
                for p in (params, reference):
                    set_frozen(p, ["encoder.1"])
            _, z, tape = forward_embed(params, rng.standard_normal((6, 6)))
            grads = backward(params, tape, d_projection=rng.standard_normal(z.shape))
            grads.flat *= 10.0 ** rng.integers(-3, 3)
            lr = schedule.lr(step)
            opt.step(params, grads)
            layered_adamw(reference, grads, moments, step + 1, lr, weight_decay=0.3)
            assert np.array_equal(params.flat, reference.flat), f"step {step}"
        assert "projection.1" not in moments
        for name, (mw, mb, vw, vb) in moments.items():
            span = params.layout[name]
            assert np.array_equal(opt.m[span.start : span.stop], np.concatenate([mw.ravel(), mb]))
            assert np.array_equal(opt.v[span.start : span.stop], np.concatenate([vw.ravel(), vb]))
        frozen = params.layout["projection.1"]
        assert not opt.m[frozen.start : frozen.stop].any()

    def test_frozen_layer_untouched_even_with_decay(self):
        params = tiny_params()
        set_frozen(params, ["encoder.0"])
        snap = params.encoder[0].weight.copy()
        opt = AdamW(params, LrSchedule(0.1), weight_decay=0.9)
        grads = GradientBundle.zeros_like(params)
        grads["encoder.1"][0][...] = 1.0
        opt.step(params, grads)
        assert np.array_equal(params.encoder[0].weight, snap)


class TestBatches:
    def test_partition_without_labels(self, rng):
        batches = stratified_batches(100, 25, rng)
        idx = np.concatenate(batches)
        assert sorted(idx.tolist()) == list(range(100))

    def test_partial_batch_dropped(self, rng):
        batches = stratified_batches(103, 25, rng)
        assert [len(b) for b in batches] == [25, 25, 25, 25]

    def test_small_dataset_single_batch(self, rng):
        batches = stratified_batches(10, 32, rng)
        assert len(batches) == 1 and len(batches[0]) == 10

    def test_stratified_class_coverage(self, rng):
        labels = np.array([0] * 50 + [1] * 50)
        batches = stratified_batches(100, 20, rng, labels)
        for b in batches:
            counts = np.bincount(labels[b], minlength=2)
            assert counts.min() >= 2


class TestPretrain:
    def test_zero_lr_leaves_parameters(self, rng):
        params = tiny_params()
        X, labels = toy_data(rng)
        snap = {n: l.weight.copy() for n, l in params.named_layers()}
        cfg = TrainConfig(batch_size=16, epochs=1, base_lr=0.0, warmup_epochs=0, seed=0)
        opt = AdamW(params, LrSchedule(0.0), weight_decay=0.0)
        pretrain_epoch(params, X, labels, LossConfig(), cfg, opt,
                       substream(0, "s"), substream(0, "v"))
        for name, layer in params.named_layers():
            assert np.array_equal(layer.weight, snap[name])

    def test_loss_decreases_on_fixed_batch(self, rng):
        params = tiny_params(seed=2)
        X = rng.standard_normal((16, 6)).astype(np.float32)
        labels = np.tile(np.array([0, 1]), 8)[:, None]
        cfg = TrainConfig(batch_size=16, epochs=1, base_lr=5e-3, warmup_epochs=0, seed=0,
                          noise_sigma=0.0, mask_prob=0.0, scale_jitter=0.0)
        opt = AdamW(params, LrSchedule(5e-3), weight_decay=0.0)
        losses = []
        for _ in range(200):
            m = pretrain_epoch(params, X, labels, LossConfig(temperature=0.2), cfg, opt,
                               substream(0, "s"), substream(0, "v"))
            losses.append(m["loss"])
        first = np.mean(losses[:20])
        last = np.mean(losses[-20:])
        assert last < first

    def test_same_seed_bit_identical(self, rng):
        X, labels = toy_data(rng, n=48)

        def run():
            params = tiny_params(seed=1)
            cfg = TrainConfig(batch_size=16, epochs=2, base_lr=1e-3, warmup_epochs=1, seed=5)
            pretrain_stage(params, X, labels, LossConfig(), cfg)
            return {n: (l.weight.copy(), l.bias.copy()) for n, l in params.named_layers()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name][0], b[name][0])
            assert np.array_equal(a[name][1], b[name][1])

    def test_contrastive_objective_runs(self, rng):
        params = tiny_params()
        X, labels = toy_data(rng, n=32)
        cfg = TrainConfig(batch_size=16, epochs=1, base_lr=1e-3, warmup_epochs=0,
                          seed=0, objective="contrastive")
        opt = AdamW(params, LrSchedule(1e-3))
        m = pretrain_epoch(params, X, labels, LossConfig(), cfg, opt,
                           substream(0, "s"), substream(0, "v"))
        assert np.isfinite(m["loss"])

    def test_topk_wrapper_against_plain_objective(self, rng):
        # one batch of 16 samples, 32 anchor views; base_lr=0 so every run sees the same model
        X, labels = toy_data(rng, n=16)
        cfg = TrainConfig(batch_size=16, epochs=1, base_lr=0.0, warmup_epochs=0, seed=0)

        def run(loss_cfg, labels=labels, objective="supcon"):
            params = float64_params(tiny_params(seed=3))
            opt = AdamW(params, LrSchedule(0.0), weight_decay=0.0)
            run_cfg = TrainConfig(**{**vars(cfg), "objective": objective})
            return pretrain_epoch(params, X, labels, loss_cfg, run_cfg, opt,
                                  substream(0, "s"), substream(0, "v"))

        plain = run(LossConfig())
        views = 2 * cfg.batch_size
        for count in (views, views + 5):  # every anchor: the mean, backpropagated as reported
            full = run(LossConfig(topk_enabled=True, topk_count=count))
            assert full["loss"] == pytest.approx(plain["loss"], rel=1e-12)
            assert full["grad_norm_mean"] == pytest.approx(plain["grad_norm_mean"], rel=1e-12)
        for count in (1, 4, views - 1):
            assert run(LossConfig(topk_enabled=True, topk_count=count))["loss"] >= plain["loss"]
        # all-distinct labels leave each anchor one positive, its other view: the contrastive objective
        distinct = np.repeat(np.arange(16)[:, None], 2, axis=1)
        supcon = run(LossConfig(), distinct)
        contrastive = run(LossConfig(), distinct, "contrastive")
        assert contrastive["loss"] == pytest.approx(supcon["loss"], rel=1e-12)
        assert contrastive["grad_norm_mean"] == pytest.approx(supcon["grad_norm_mean"], rel=1e-12)

    def test_empty_dataset(self, rng):
        cfg = TrainConfig(seed=0)
        with pytest.raises(DataError):
            pretrain_epoch(tiny_params(), np.zeros((0, 6), dtype=np.float32), np.zeros((0, 1)),
                           LossConfig(), cfg, AdamW(tiny_params(), LrSchedule(1e-3)),
                           substream(0, "s"), substream(0, "v"))


class TestMetaWeights:
    def test_aligned_and_orthogonal(self):
        state = meta_weights(np.array([1.0, 0.0]), inner_lr=0.1)
        assert state.w.tolist() == [1.0, 0.0]
        assert not state.skipped

    def test_zero_sum_guard(self):
        state = meta_weights(np.array([-1.0, -0.5, 0.0]), inner_lr=0.1)
        assert state.skipped
        assert np.all(state.w == 0.0)

    def test_weights_nonnegative_and_sum_to_one_or_zero(self, rng):
        for _ in range(50):
            state = meta_weights(rng.standard_normal(16), inner_lr=0.3)
            assert np.all(state.w >= 0)
            total = state.w.sum()
            assert abs(total - 1.0) < 1e-9 or total == 0.0

    def test_scaling_invariance_exact(self, rng):
        a = rng.standard_normal(10)
        base = meta_weights(a, 0.2)
        for c in (2.0, 4.0, 0.25):  # powers of two scale exactly in floating point
            scaled = meta_weights(c * a, 0.2)
            assert np.array_equal(base.w, scaled.w)
        near = meta_weights(1.7 * a, 0.2)
        assert np.max(np.abs(near.w - base.w)) < 1e-12

    def test_linear_in_inner_lr(self, rng):
        a = rng.standard_normal(6)
        g1 = meta_weights(a, 1e-3).grad_eps
        g2 = meta_weights(a, 2e-3).grad_eps
        assert np.allclose(g2, 2.0 * g1)
        assert np.max(np.abs(meta_weights(a, 1e-9).grad_eps)) < 1e-8

    def test_bad_inner_lr(self):
        with pytest.raises(ConfigError):
            meta_weights(np.ones(2), 0.0)


def build_meta_inputs(rng, n=8, d=6, n_attrs=2, seed=0):
    params = tiny_params(seed=seed, d=d)
    X = rng.standard_normal((n * 3, d)).astype(np.float32)
    labels = rng.integers(0, 2, size=(n * 3, n_attrs))
    idx = np.arange(n)
    val_x = rng.standard_normal((6, d))
    val_y = rng.integers(0, 2, size=6)
    return params, X, labels, idx, val_x, val_y


class TestMetaStep:
    def test_alignments_match_per_sample_gradients(self, rng):
        # <g_v, g_i> via the forward-mode shortcut equals explicit per-sample backprop
        params, X, labels, idx, val_x, val_y = build_meta_inputs(rng)
        params = float64_params(params)
        cfg = TrainConfig(batch_size=8, seed=0, noise_sigma=0.0, mask_prob=0.0, scale_jitter=0.0)
        tau = 0.4
        n = idx.size
        views = np.vstack([X[idx], X[idx]]).astype(np.float64)
        _, Z, tape = forward_embed(params, views)
        batch = MultiviewedBatch(Z, labels[idx])
        terms, R = multi_attribute_anchor_stats(batch, tau)
        _, g_v = validation_topk_loss(params, val_x, val_y, 3)

        from fairssl.network import forward_jvp

        dZ_dir = forward_jvp(params, tape, g_v)
        fast = per_sample_alignments(Z, dZ_dir, R, tau)

        for anchor in range(2 * n):
            u = np.zeros_like(Z)
            r = R[anchor]
            u[anchor] += (r @ Z) / tau
            u += np.outer(r, Z[anchor]) / tau
            g_i = backward(params, tape, d_projection=u)
            assert abs(float(g_v.flat @ g_i.flat) - fast[anchor]) < 1e-10 * max(1.0, abs(fast[anchor]))

    def test_zero_sum_guard_skips_update(self, rng):
        # flipping the validation labels of a fitted head opposes every
        # training gradient; search a few seeds for a fully opposed batch
        for seed in range(30):
            r = np.random.default_rng(seed)
            params, X, labels, idx, val_x, val_y = build_meta_inputs(r, seed=seed)
            cfg = TrainConfig(batch_size=8, seed=seed, noise_sigma=0.0, mask_prob=0.0, scale_jitter=0.0)
            opt = AdamW(params, LrSchedule(1e-3))
            snap = {n_: (l.weight.copy(), l.bias.copy()) for n_, l in params.named_layers()}
            metrics = meta_step(params, X, labels, idx, val_x, val_y,
                                LossConfig(), cfg, opt, substream(seed, "v"))
            if metrics["skipped"]:
                assert "grad_norm" not in metrics  # nothing was applied
                for name, layer in params.named_layers():
                    assert np.array_equal(layer.weight, snap[name][0])
                    assert np.array_equal(layer.bias, snap[name][1])
                return
        pytest.fail("no fully opposed batch found in 30 seeds")

    def test_step_updates_and_reports(self, rng):
        params, X, labels, idx, val_x, val_y = build_meta_inputs(rng, seed=4)
        cfg = TrainConfig(batch_size=8, seed=0)
        opt = AdamW(params, LrSchedule(1e-3))
        metrics = meta_step(params, X, labels, idx, val_x, val_y,
                            LossConfig(), cfg, opt, substream(1, "v"))
        assert set(metrics) <= {"skipped", "active_samples", "weight_entropy", "loss", "grad_norm"}
        assert 0 <= metrics["active_samples"] <= idx.size
        if not metrics["skipped"]:
            # normalized weights on the active samples: entropy at most that of uniform weights
            assert 0.0 <= metrics["weight_entropy"] <= np.log(metrics["active_samples"]) + 1e-12

    def test_grad_norm_is_the_applied_bundles(self, rng):
        # the norm covers the weighted backward pass and the head's validation gradient
        params, X, labels, idx, val_x, val_y = build_meta_inputs(rng, seed=4)
        params = float64_params(params)
        applied = []

        class Recording(AdamW):
            def step(self, params, grads):
                applied.append(grads.flat.copy())
                return super().step(params, grads)

        metrics = meta_step(params, X, labels, idx, val_x, val_y, LossConfig(), TrainConfig(batch_size=8, seed=0),
                            Recording(params, LrSchedule(1e-3)), substream(1, "v"))
        assert not metrics["skipped"]
        [flat] = applied
        assert metrics["grad_norm"] == GradientBundle(flat, params.layout).norm() > 0.0
        assert metrics["grad_norm"] == pytest.approx(float(np.linalg.norm(flat)), rel=1e-12)
        head = params.layout["head"]
        assert np.any(flat[head.start : head.stop] != 0.0)

    def test_meta_gradient_matches_epsilon_finite_difference(self, rng):
        params, X, labels, idx, val_x, val_y = build_meta_inputs(rng, n=4, seed=7)
        params = float64_params(params)
        tau, alpha, k = 0.5, 0.05, 3
        n = idx.size
        views = np.vstack([X[idx], X[idx]]).astype(np.float64)
        _, Z, tape = forward_embed(params, views)
        batch = MultiviewedBatch(Z, labels[idx])
        _, R = multi_attribute_anchor_stats(batch, tau)
        _, g_v = validation_topk_loss(params, val_x, val_y, k)

        from fairssl.network import forward_jvp

        dZ_dir = forward_jvp(params, tape, g_v)
        anchor_align = per_sample_alignments(Z, dZ_dir, R, tau)
        sample_align = 0.5 * (anchor_align[:n] + anchor_align[n:])
        grad_eps = meta_weights(sample_align, alpha).grad_eps

        # independent oracle: materialize g_i, take the virtual step, vary eps
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
            assert abs(fd - grad_eps[i]) <= 1e-2 * max(abs(fd), abs(grad_eps[i]), 1e-12)


class TestStagedTraining:
    def test_stage_split_one_is_pure_pretraining(self, rng):
        X, labels = toy_data(rng, n=48)
        params = tiny_params()
        cfg = TrainConfig(batch_size=16, epochs=4, stage_split=1.0, warmup_epochs=0, seed=3)
        history, summary = staged_train(params, X, labels, None, None, LossConfig(), cfg)
        assert len(history) == 4
        assert all(h["stage"] == "pretrain" for h in history)
        assert summary["meta_epochs"] == 0

    def test_stage_epoch_counts(self, rng):
        X, labels = toy_data(rng, n=64)
        params = tiny_params()
        cfg = TrainConfig(batch_size=16, epochs=10, stage_split=0.7, warmup_epochs=0,
                          seed=3, val_subset_size=16, val_topk=4, val_batch_size=8)
        val_idx = np.arange(16)
        val_y = labels[:16, 0]
        history, summary = staged_train(params, X, labels, val_idx, val_y,
                                        LossConfig(), cfg)
        stages = [h["stage"] for h in history]
        assert stages.count("pretrain") == 7
        assert stages.count("meta") == 3
        assert summary["meta_epochs"] == 3
        assert [h["epoch"] for h in history] == list(range(1, 11))

    def test_frozen_layers_byte_identical_through_meta_stage(self, rng):
        X, labels = toy_data(rng, n=64)
        cfg = TrainConfig(batch_size=16, epochs=4, stage_split=0.5, warmup_epochs=0,
                          seed=2, val_subset_size=16, val_topk=4, val_batch_size=8)
        for encoder_dims in ([8, 5], [8], [8, 7, 5]):  # a one-layer encoder freezes nothing
            params = ModelParams.create(6, encoder_dims, [6, 6, 4], seed=6)
            pretrain_stage(params, X, labels, LossConfig(), cfg)
            frozen_names = [f"encoder.{i}" for i in range(len(encoder_dims) - 1)]
            # meta_stage freezes and fits the head; snapshot the to-be-frozen layers first
            before = {name: params.layer(name).weight.tobytes() + params.layer(name).bias.tobytes()
                      for name in frozen_names}
            meta_stage(params, X, labels, np.arange(16), labels[:16, 0], LossConfig(), cfg)
            assert [name for name, layer in params.named_layers() if layer.frozen] == frozen_names
            for name in frozen_names:
                assert params.layer(name).weight.tobytes() + params.layer(name).bias.tobytes() == before[name]

    def test_meta_stage_requires_val_subset(self, rng):
        X, labels = toy_data(rng, n=32)
        cfg = TrainConfig(batch_size=16, epochs=4, stage_split=0.5, seed=0)
        with pytest.raises(ConfigError):
            staged_train(tiny_params(), X, labels, None, None, LossConfig(), cfg)


class TestEpochFold:
    def test_degenerate_batch_counts_as_skipped(self, rng):
        # one sample: the pairwise objective has no negatives, so its only batch is skipped
        X, labels = toy_data(rng, n=1)
        params = tiny_params(seed=5)
        before = params.flat.copy()
        cfg = TrainConfig(batch_size=16, epochs=1, stage_split=1.0, warmup_epochs=0, seed=0,
                          objective="contrastive")
        [row] = pretrain_stage(params, X, labels, LossConfig(), cfg)
        assert row["skipped_batches"] == 1
        assert np.isnan(row["loss"])
        assert np.isnan(row["grad_norm_mean"]) and np.isnan(row["grad_norm_max"])
        assert np.array_equal(params.flat, before)

    def test_lr_is_the_rate_of_the_epochs_last_step(self, rng):
        # 48 samples in batches of 8: 6 steps an epoch, the first epoch warming up
        X, labels = toy_data(rng, n=48)
        cfg = TrainConfig(batch_size=8, epochs=3, stage_split=1.0, warmup_epochs=1)
        history = pretrain_stage(tiny_params(seed=3), X, labels, LossConfig(), cfg)
        schedule = LrSchedule(cfg.base_lr, warmup_steps=6, total_steps=18)
        assert [row["lr"] for row in history] == [schedule.lr(5), schedule.lr(11), schedule.lr(17)]
        assert history[-1]["lr"] > 0
        # an epoch whose only batch is skipped takes no step, so it has no rate
        X, labels = toy_data(rng, n=1)
        cfg = TrainConfig(batch_size=16, epochs=1, stage_split=1.0, warmup_epochs=0, objective="contrastive")
        [row] = pretrain_stage(tiny_params(seed=5), X, labels, LossConfig(), cfg)
        assert np.isnan(row["lr"])

    def test_meta_rows_fold_the_steps_that_ran(self, rng, monkeypatch):
        import fairssl.trainer as trainer

        X, labels = toy_data(rng, n=48)
        params = tiny_params(seed=6)
        cfg = TrainConfig(batch_size=4, epochs=6, stage_split=0.5, warmup_epochs=0, seed=4,
                          val_subset_size=16, val_topk=4, val_batch_size=8)
        pretrain_stage(params, X, labels, LossConfig(), cfg)
        steps = []

        def recording(*args, **kwargs):
            steps.append(meta_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(trainer, "meta_step", recording)
        history, _ = meta_stage(params, X, labels, np.arange(16), labels[:16, 0], LossConfig(), cfg)
        per_epoch = X.shape[0] // cfg.batch_size
        assert len(steps) == cfg.meta_epochs * per_epoch
        assert any(m["skipped"] for m in steps) and not all(m["skipped"] for m in steps)
        for i, row in enumerate(history):
            epoch_steps = steps[i * per_epoch : (i + 1) * per_epoch]
            ran = [m for m in epoch_steps if not m["skipped"]]
            assert row["skipped_batches"] == len(epoch_steps) - len(ran)
            assert row["loss"] == np.mean([m["loss"] for m in ran])
            assert row["weight_entropy"] == np.mean([m["weight_entropy"] for m in ran])
            assert row["grad_norm_mean"] == np.mean([m["grad_norm"] for m in ran])
            assert row["grad_norm_max"] == max(m["grad_norm"] for m in ran)

    def test_every_row_carries_every_key(self, rng):
        X, labels = toy_data(rng, n=48)
        cfg = TrainConfig(batch_size=8, epochs=4, stage_split=0.5, warmup_epochs=0, seed=1,
                          val_subset_size=16, val_topk=4, val_batch_size=8)
        history, _ = staged_train(tiny_params(seed=2), X, labels, np.arange(16), labels[:16, 0],
                                  LossConfig(), cfg)
        keys = {"epoch", "stage", "loss", "val_topk_loss", "weight_entropy", "grad_norm_mean",
                "grad_norm_max", "skipped_batches", "active_samples", "lr"}
        assert all(set(row) == keys for row in history)
        pretrain, meta = history[:2], history[2:]
        # a key no step of the stage reports is NaN
        for row in pretrain:
            assert np.isnan([row["val_topk_loss"], row["weight_entropy"], row["active_samples"]]).all()
            assert row["grad_norm_max"] >= row["grad_norm_mean"] > 0
        for row in meta:
            assert row["grad_norm_max"] >= row["grad_norm_mean"] > 0
            assert np.isfinite(row["val_topk_loss"])
            assert 0 <= row["active_samples"] <= (X.shape[0] // cfg.batch_size) * cfg.batch_size
