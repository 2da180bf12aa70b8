import warnings

import numpy as np
import pytest

from fairssl.errors import ConfigError, DataError, FileSizeError, FormatError, NumericError
from fairssl.losses import MultiviewedBatch, multi_attribute_anchor_stats, validation_topk_loss, weighted_grad_from_stats
from fairssl.network import (
    GradientBundle,
    Layer,
    ModelParams,
    backward,
    forward_embed,
    forward_features,
    forward_jvp,
    head_forward,
    load_checkpoint,
    save_checkpoint,
    set_frozen,
)
from fairssl.trainer import AdamW, LrSchedule

from oracles import assert_grad_close, copy_params, dense_jvp, fd_param_gradients, float64_params


def identity_params(d=4):
    return ModelParams(
        [Layer(np.eye(d), np.zeros(d), "identity")],
        [Layer(np.eye(d), np.zeros(d), "identity") for _ in range(3)],
        Layer(np.eye(d)[:1], np.zeros(1), "identity"),  # the logit is the first feature
    )


def small_params(seed=0, d_in=6):
    return ModelParams.create(d_in, [8, 5], [6, 6, 4], seed=seed)


ENCODER_AND_PROJECTION = ["encoder.0", "encoder.1", "projection.0", "projection.1", "projection.2"]


class TestForward:
    def test_identity_network_projects_to_unit(self, rng):
        params = identity_params(4)
        x = rng.standard_normal((3, 4))
        feats, z, _ = forward_embed(params, x)
        assert np.allclose(feats, x)
        assert np.allclose(z, x / np.linalg.norm(x, axis=1, keepdims=True), atol=1e-12)

    def test_zero_projection_is_numeric_error(self):
        d = 3
        params = ModelParams(
            [Layer(np.zeros((d, d)), np.zeros(d), "identity")],
            [Layer(np.zeros((d, d)), np.zeros(d), "identity") for _ in range(3)],
            Layer(np.eye(d)[:1], np.zeros(1), "identity"),
        )
        with pytest.raises(NumericError, match="row 0"):
            forward_embed(params, np.ones((1, d)))

    def test_matches_manual_affine_chain(self, rng):
        params = small_params(seed=3, d_in=8)
        X = rng.standard_normal((5, 8))
        feats, z, _ = forward_embed(params, X)

        h = X
        for layer in params.encoder:
            h = h @ layer.weight.T + layer.bias
            if layer.activation == "relu":
                h = np.maximum(h, 0.0)
        assert np.max(np.abs(h - feats)) < 1e-6
        v = h
        for layer in params.projection:
            v = v @ layer.weight.T + layer.bias
            if layer.activation == "relu":
                v = np.maximum(v, 0.0)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.max(np.abs(v - z)) < 1e-6

    def test_projection_unit_norm(self, rng):
        params = small_params()
        _, z, _ = forward_embed(params, rng.standard_normal((20, 6)))
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-6

    def test_deterministic(self, rng):
        params = small_params()
        x = rng.standard_normal((4, 6))
        a = forward_embed(params, x)[1]
        b = forward_embed(params, x)[1]
        assert np.array_equal(a, b)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DataError):
            forward_embed(small_params(), rng.standard_normal((2, 7)))
        with pytest.raises(DataError, match=r"got shape \(6,\)"):  # a single vector is not a batch
            forward_embed(small_params(), rng.standard_normal(6))


class TestHead:
    def test_one_logit(self):
        # every task is binary: the head is one row, and any other width is refused
        assert small_params().head.weight.shape == (1, 5)
        base = identity_params(3)
        for width in (0, 2, 3):
            with pytest.raises(DataError, match=f"head must have 1 output, .* got {width}"):
                ModelParams(base.encoder, base.projection, Layer(np.zeros((width, 3)), np.zeros(width)))

    def test_zero_weights(self):
        params = small_params()
        params.head.weight[...] = 0.0
        params.head.bias[...] = 0.0
        assert np.all(head_forward(params, np.ones((1, 5))) == 0.0)
        with pytest.raises(DataError):  # a single vector is not a batch
            head_forward(params, np.ones(5))

    def test_identity_passthrough(self):
        params = identity_params(4)
        f = np.array([[1.0, -2.0, 3.0, 0.5]])
        assert np.array_equal(head_forward(params, f), f[:, :1])

    def test_matches_manual_product(self, rng):
        params = small_params(seed=9)
        feats = rng.standard_normal((7, 5))
        manual = feats @ params.head.weight.T + params.head.bias
        assert np.max(np.abs(head_forward(params, feats) - manual)) < 1e-7


class TestBackward:
    def test_zero_gradient_at_matching_target(self, rng):
        params = small_params()
        x = rng.standard_normal((3, 6))
        _, z, tape = forward_embed(params, x)
        # loss 0.5 * |z - target|^2 with target == z has zero upstream gradient
        bundle = backward(params, tape, d_projection=(z - z))
        assert bundle.norm() == 0.0

    def test_projection_gradient_on_features_tape_is_data_error(self, rng):
        params = small_params()
        features, tape = forward_features(params, rng.standard_normal((3, 6)))
        with pytest.raises(DataError, match="this tape has no projection"):
            backward(params, tape, d_projection=rng.standard_normal((3, 4)))
        # the head path needs no projection
        backward(params, tape, d_logits=np.ones((3, params.head.out_dim)))

    def test_all_frozen_gives_zero_bundle(self, rng):
        params = small_params()
        set_frozen(params, params.layer_names())
        x = rng.standard_normal((3, 6))
        _, z, tape = forward_embed(params, x)
        bundle = backward(params, tape, d_projection=rng.standard_normal(z.shape))
        assert bundle.norm() == 0.0

    def test_head_only_upstreams(self, rng):
        # no upstream at all is a zero bundle, and d_logits alone reaches
        # the head when no encoder layer trains
        params = small_params(seed=3)
        _, tape = forward_features(params, rng.standard_normal((4, 6)))
        assert not backward(params, tape).flat.any()
        w = rng.standard_normal((4, 1))
        full = backward(params, tape, d_logits=w)
        set_frozen(params, ["encoder.0", "encoder.1"])
        part = backward(params, tape, d_logits=w)
        assert not part.flat[: params.layout["head"].start].any()
        assert part["head"][0].any()
        for a, b in zip(part["head"], full["head"]):
            assert np.array_equal(a, b)

    def test_finite_differences_every_parameter(self, rng):
        params = float64_params(small_params(seed=5))
        x = rng.standard_normal((4, 6))
        target = rng.standard_normal((4, 4))
        target /= np.linalg.norm(target, axis=1, keepdims=True)

        def loss_value():
            _, z, _ = forward_embed(params, x)
            return 0.5 * float(np.sum((z - target) ** 2))

        _, z, tape = forward_embed(params, x)
        bundle = backward(params, tape, d_projection=(z - target))
        numeric = fd_param_gradients(loss_value, params, h=1e-4)
        for name in params.layer_names():
            assert_grad_close(bundle[name][0], numeric[name][0], what=f"{name}.weight")
            assert_grad_close(bundle[name][1], numeric[name][1], what=f"{name}.bias")

    def test_head_path_finite_differences(self, rng):
        params = float64_params(small_params(seed=11))
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((3, 1))

        def loss_value():
            feats, tape = forward_features(params, x)
            return float(np.sum(head_forward(params, feats) * w))

        feats, tape = forward_features(params, x)
        bundle = backward(params, tape, d_logits=w)
        numeric = fd_param_gradients(loss_value, params, h=1e-4)
        for name in params.layer_names():
            if name.startswith("projection"):
                assert bundle[name][0].max() == 0.0  # head loss never reaches projection
                continue
            assert_grad_close(bundle[name][0], numeric[name][0], what=f"{name}.weight")
            assert_grad_close(bundle[name][1], numeric[name][1], what=f"{name}.bias")


    @pytest.mark.parametrize(
        "frozen",
        [["encoder.0"], ["encoder.0", "encoder.1"], ["encoder.1", "projection.1"],
         ["projection.0", "projection.1", "projection.2", "head"]],
    )
    def test_frozen_layers_exact_zeros_rest_bit_identical(self, rng, frozen):
        params = small_params(seed=7)
        x = rng.standard_normal((5, 6))
        _, z, tape = forward_embed(params, x)
        upstream = dict(
            d_projection=rng.standard_normal(z.shape),
            d_logits=rng.standard_normal((5, 1)),
        )
        full = backward(params, tape, **upstream)
        set_frozen(params, frozen)
        part = backward(params, tape, **upstream)
        for name, layer in params.named_layers():
            for a, b in zip(part[name], full[name]):
                if layer.frozen:
                    assert not a.any(), name
                else:
                    assert np.array_equal(a, b), name


class TestFlatLayout:
    def test_layer_views_and_flat_vector_alias(self):
        params = small_params(seed=2)
        span = params.layout["projection.1"]
        params.projection[1].weight[2, 3] = 7.5
        assert params.flat[span.start + 2 * params.projection[1].in_dim + 3] == 7.5
        params.flat[span.split + 1] = -4.0
        assert params.projection[1].bias[1] == -4.0
        assert params.layout["head"].stop == params.flat.size

    def test_copy_shares_no_memory(self):
        params = small_params(seed=2)
        dup = copy_params(params)
        assert np.array_equal(dup.flat, params.flat)
        assert not np.shares_memory(dup.flat, params.flat)
        for (_, a), (_, b) in zip(params.named_layers(), dup.named_layers()):
            assert np.shares_memory(b.weight, dup.flat) and np.shares_memory(b.bias, dup.flat)
            assert not np.shares_memory(a.weight, dup.flat)
        dup.flat[:] = 0.0
        assert params.flat.any()

    def test_checkpoint_round_trip_is_float32_rounding(self, tmp_path, rng):
        params = float64_params(small_params(seed=5))
        params.flat[:] = rng.standard_normal(params.flat.size)  # values float32 cannot hold
        save_checkpoint(params, tmp_path / "a.fsck")
        loaded = load_checkpoint(tmp_path / "a.fsck")
        assert loaded.flat.dtype == np.float32
        assert np.array_equal(loaded.flat, params.flat.astype(np.float32))
        assert loaded.layout == params.layout

    def test_gradient_layout_matches_params(self, rng):
        params = small_params(seed=4)
        _, z, tape = forward_embed(params, rng.standard_normal((3, 6)))
        bundle = backward(params, tape, d_projection=rng.standard_normal(z.shape))
        assert bundle.layout == params.layout
        per_layer = [np.concatenate([bundle[n][0].ravel(), bundle[n][1]]) for n in params.layer_names()]
        assert np.array_equal(bundle.flat, np.concatenate(per_layer))
        pairs = [np.concatenate([l.weight.ravel(), l.bias]) for _, l in params.named_layers()]
        assert np.array_equal(params.flat, np.concatenate(pairs))

    def test_shared_layer_object_rejected(self):
        d = 3
        shared = Layer(np.eye(d), np.zeros(d))
        with pytest.raises(DataError, match="more than once"):
            ModelParams([Layer(np.eye(d), np.zeros(d))], [shared, Layer(np.eye(d), np.zeros(d)), shared],
                        Layer(np.eye(d)[:1], np.zeros(1)))


class TestDtype:
    def test_float32_model_agrees_with_its_float64_copy(self, rng):
        # One healthy model and batch. The anchor gradient and what follows
        # from it are sums of terms larger than themselves, so their float32
        # rounding reads a few dozen ulps of their own size.
        eps = np.finfo(np.float32).eps
        params = small_params(seed=4)
        x = rng.standard_normal((8, 6))
        labels = rng.integers(0, 2, (4, 2))
        results = []
        for p in (params, float64_params(params)):
            features, z, tape = forward_embed(p, x)
            terms, R = multi_attribute_anchor_stats(MultiviewedBatch(z, labels), 0.5)
            dz = weighted_grad_from_stats(z, R, np.full(8, 1 / 8), 0.5)
            bundle = backward(p, tape, d_projection=dz)
            results.append({
                "features": (features, 4), "z": (z, 4), "terms": (terms, 4), "R": (R, 4),
                "anchor gradient": (dz, 64), "backward": (bundle.flat, 64),
                "forward_jvp": (forward_jvp(p, tape, bundle), 64),
            })
        narrow, wide = results
        for name, (a, ulps) in narrow.items():
            b = wide[name][0]
            assert a.dtype == np.float32 and b.dtype == np.float64, name
            assert np.abs(a - b).max() <= ulps * eps * np.abs(b).max(), name

    def test_layers_of_two_dtypes_are_data_error(self):
        d = 3
        with pytest.raises(DataError, match="mix the dtypes"):
            ModelParams([Layer(np.eye(d, dtype=np.float32), np.zeros(d))],
                        [Layer(np.eye(d), np.zeros(d)) for _ in range(3)], Layer(np.eye(d)[:1], np.zeros(1)))


class TestJvp:
    def test_matches_directional_finite_difference(self, rng):
        params = float64_params(small_params(seed=2))
        x = rng.standard_normal((4, 6))
        direction = GradientBundle(rng.standard_normal(params.flat.size), params.layout)
        _, _, tape = forward_embed(params, x)
        d_z = forward_jvp(params, tape, direction)

        eps = 1e-6

        def shifted(sign):
            p = copy_params(params)
            for name, layer in p.named_layers():
                dw, db = direction[name]
                layer.weight += sign * eps * dw
                layer.bias += sign * eps * db
            return forward_embed(p, x)

        _, zp, _ = shifted(+1)
        _, zm, _ = shifted(-1)
        assert np.max(np.abs((zp - zm) / (2 * eps) - d_z)) < 1e-6

    @pytest.mark.parametrize(
        "frozen",
        [[], ["encoder.0"], ["encoder.1"], ["encoder.0", "encoder.1", "projection.0"], ENCODER_AND_PROJECTION],
    )
    def test_skipped_zero_work_matches_dense_oracle(self, rng, frozen):
        # directions come from backward, which leaves frozen spans zero;
        # skipping their terms may change only the sign of zeros
        params = small_params(seed=4)
        if frozen:
            set_frozen(params, frozen)
        x = rng.standard_normal((7, 6))
        _, z, tape = forward_embed(params, x)
        direction = backward(
            params, tape, d_projection=rng.standard_normal(z.shape),
            d_logits=rng.standard_normal((7, 1)),
        )
        got = forward_jvp(params, tape, direction)
        want = dense_jvp(params, tape, direction)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        if frozen == ENCODER_AND_PROJECTION:
            assert not np.any(got)


    @pytest.mark.parametrize("frozen", [[], ["encoder.0"]])
    def test_features_only_direction_matches_dense_bytes(self, rng, frozen):
        # the meta step's validation direction: head and encoder spans only,
        # so every projection span is zero and its term is skipped
        params = small_params(seed=5)
        if frozen:
            set_frozen(params, frozen)
        _, g_v = validation_topk_loss(params, rng.standard_normal((9, 6)), rng.integers(0, 2, 9), 4)
        for i in range(len(params.projection)):
            dw, db = g_v[f"projection.{i}"]
            assert not dw.any() and not db.any()
        assert np.any(g_v["head"][0]) and np.any(g_v[f"encoder.{len(params.encoder) - 1}"][0])
        _, _, tape = forward_embed(params, rng.standard_normal((7, 6)))
        got = forward_jvp(params, tape, g_v)
        assert np.any(got)
        assert got.tobytes() == dense_jvp(params, tape, g_v).tobytes()

class TestFreezing:
    def test_freeze_all_encoder_layers(self, rng):
        params = small_params()
        set_frozen(params, ["encoder.0", "encoder.1"])
        before = [l.weight.tobytes() + l.bias.tobytes() for l in params.encoder]
        proj_before = params.projection[0].weight.tobytes()
        opt = AdamW(params, LrSchedule(0.05))
        x = rng.standard_normal((4, 6))
        for _ in range(10):
            _, z, tape = forward_embed(params, x)
            bundle = backward(params, tape, d_projection=z)
            opt.step(params, bundle)
        after = [l.weight.tobytes() + l.bias.tobytes() for l in params.encoder]
        assert before == after
        assert params.projection[0].weight.tobytes() != proj_before  # unfrozen layers moved

    def test_freeze_none_matches_default(self, rng):
        a = small_params(seed=4)
        b = small_params(seed=4)
        set_frozen(b, [])
        x = rng.standard_normal((3, 6))
        for p in (a, b):
            opt = AdamW(p, LrSchedule(0.01))
            _, z, tape = forward_embed(p, x)
            opt.step(p, backward(p, tape, d_projection=z))
        for (na, la), (nb, lb) in zip(a.named_layers(), b.named_layers()):
            assert np.array_equal(la.weight, lb.weight)

    def test_freeze_first_half_only_second_half_moves(self, rng):
        params = small_params(seed=8)
        set_frozen(params, ["encoder.0"])
        snap = {n: l.weight.copy() for n, l in params.named_layers()}
        opt = AdamW(params, LrSchedule(0.05))
        x = rng.standard_normal((4, 6))
        for _ in range(5):
            _, z, tape = forward_embed(params, x)
            opt.step(params, backward(params, tape, d_projection=z))
        assert np.array_equal(params.encoder[0].weight, snap["encoder.0"])
        assert not np.array_equal(params.encoder[1].weight, snap["encoder.1"])

    def test_unknown_layer_name(self):
        params = small_params()
        for names in (["encoder.9"], ["encoder.0", "encoder.*"]):  # a pattern is not a layer name
            with pytest.raises(ConfigError, match="unknown layer name"):
                set_frozen(params, names)
        assert not any(layer.frozen for _, layer in params.named_layers())

    @pytest.mark.parametrize("alias", ["encoder.-1", "encoder.01", "head.0", "projection"])
    def test_layer_takes_only_exact_names(self, alias):
        params = small_params()
        with pytest.raises(ConfigError, match="unknown layer name"):
            params.layer(alias)
        assert alias not in params.layout


class TestCheckpoint:
    def test_file_round_trip_bit_identical(self, tmp_path, rng):
        params = small_params(seed=6)
        set_frozen(params, ["encoder.0"])
        p1 = tmp_path / "a.fsck"
        p2 = tmp_path / "b.fsck"
        save_checkpoint(params, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.encoder[0].frozen
        assert not loaded.encoder[1].frozen

    def test_float32_checkpoint_loads_back_bit_exactly_and_stays_float32(self, tmp_path):
        params = small_params(seed=1)
        set_frozen(params, ["encoder.0"])
        save_checkpoint(params, tmp_path / "a.fsck")
        loaded = load_checkpoint(tmp_path / "a.fsck")
        assert params.flat.dtype == loaded.flat.dtype == np.float32
        assert loaded.flat.tobytes() == params.flat.tobytes()
        for (_, a), (_, b) in zip(params.named_layers(), loaded.named_layers()):
            assert b.weight.dtype == b.bias.dtype == np.float32
            assert np.shares_memory(b.weight, loaded.flat) and np.shares_memory(b.bias, loaded.flat)
            assert (a.activation, a.frozen) == (b.activation, b.frozen)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.fsck"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = small_params()
        path = tmp_path / "a.fsck"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FileSizeError):
            load_checkpoint(path)

    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_path_is_data_error(self, tmp_path, make):
        path = tmp_path / "a.fsck"
        if make == "directory":
            path.mkdir()
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(path)

    def test_no_encoder_layers_is_format_error(self, tmp_path):
        params = small_params()
        path = tmp_path / "a.fsck"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        layer = 11 + 4 * (6 * 8 + 8) + 11 + 4 * (8 * 5 + 5)  # both encoder layers
        header = raw[:4] + raw[4:8] + (len(params.layout) - 2).to_bytes(4, "little")
        path.write_bytes(header + raw[12 + layer :])
        with pytest.raises(FormatError, match="missing encoder layer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_weights_are_format_error(self, tmp_path, value):
        params = small_params()
        params.projection[1].weight[2, 3] = value
        path = tmp_path / "a.fsck"
        save_checkpoint(params, path)
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(path)

    def test_signaling_nan_weight_is_format_error_without_warning(self, tmp_path):
        path = tmp_path / "a.fsck"
        save_checkpoint(small_params(), path)
        raw = bytearray(path.read_bytes())
        raw[12 + 11 : 12 + 11 + 4] = (0x7F800001).to_bytes(4, "little")  # first weight of encoder.0
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite"):
                load_checkpoint(path)

    def test_projection_depth_enforced(self):
        d = 3
        with pytest.raises(DataError):
            ModelParams(
                [Layer(np.eye(d), np.zeros(d))],
                [Layer(np.eye(d), np.zeros(d))] * 2,
                Layer(np.eye(d)[:1], np.zeros(1)),
            )
