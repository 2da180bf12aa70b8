import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairssl.errors import ConfigError, DataError, DegenerateBatchError
from fairssl.losses import (
    LossConfig,
    MultiviewedBatch,
    contrastive_loss,
    multi_attribute_anchor_stats,
    topk_average,
    validation_topk_loss,
)
from fairssl.network import ModelParams, forward_features, head_forward

from oracles import (
    assert_grad_close,
    bruteforce_contrastive,
    bruteforce_supcon,
    fd_gradient,
    fd_param_gradients,
    float64_params,
    log_softmax,
    multi_attribute_supcon,
    sorted_topk_mean,
    supcon_loss,
)


def random_batch(rng, n_origins, dim, n_attrs=1):
    z = rng.standard_normal((2 * n_origins, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=(n_origins, n_attrs))
    return MultiviewedBatch(z, labels)


class TestBatch:
    def test_pairing(self, rng):
        batch = random_batch(rng, 3, 4)
        pair = batch.pair_index()
        for i in range(6):
            assert pair[i] == (i + 3) % 6
            assert np.array_equal(batch.labels[pair[i]], batch.labels[i])

    def test_rejects_labels_without_one_row_per_sample(self, rng, make_unit_rows):
        # per view (2N), one short (N - 1) and no label column, for N = 2
        for labels in (np.zeros(4), np.zeros(1), np.zeros((2, 0))):
            with pytest.raises(DataError):
                MultiviewedBatch(make_unit_rows(rng, 4, 3), labels)

    def test_rejects_non_unit_views(self, rng):
        with pytest.raises(DataError):
            MultiviewedBatch(2.0 * np.eye(4), np.zeros(2))


@st.composite
def two_view_batches(draw):
    """Per-sample integer labels of any range, and 2N random unit views."""
    n, a, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    value = st.one_of(st.integers(-2, 2), st.integers(-(2**63), 2**63 - 1))
    labels = np.array(draw(st.lists(st.lists(value, min_size=a, max_size=a), min_size=n, max_size=n)))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((2 * n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True), labels


@settings(max_examples=200, deadline=None)
@given(drawn=two_view_batches(), tau=st.floats(0.05, 2.0))
def test_two_view_contract(drawn, tau):
    views, labels = drawn
    n = labels.shape[0]
    batch = MultiviewedBatch(views, labels)
    pair = batch.pair_index()
    assert np.array_equal(pair, (np.arange(2 * n) + n) % (2 * n))
    assert np.array_equal(batch.labels, np.vstack([labels, labels]))
    assert np.array_equal(batch.labels[pair], batch.labels)  # the pair is a positive under every attribute
    terms, R = multi_attribute_anchor_stats(batch, tau)
    assert terms.shape == (2 * n,) and np.isfinite(terms).all()
    assert R.shape == (2 * n, 2 * n) and np.isfinite(R).all()


class TestContrastive:
    def test_orthogonal_views_closed_form(self):
        batch = MultiviewedBatch(np.eye(4), np.zeros(2))
        loss, _ = contrastive_loss(batch, 1.0)
        assert abs(loss - 4 * np.log(3.0)) < 1e-12

    def test_identical_pairs_closed_form(self):
        views = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        batch = MultiviewedBatch(views, np.zeros(2))
        loss, _ = contrastive_loss(batch, 1.0)
        assert abs(loss - 4 * np.log(1 + 2 / np.e)) < 1e-12

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            batch = random_batch(rng, int(rng.integers(2, 6)), 5)
            tau = float(rng.uniform(0.1, 2.0))
            loss, _ = contrastive_loss(batch, tau)
            assert abs(loss - bruteforce_contrastive(batch.views, batch.pair_index(), tau)) < 1e-9

    def test_gradient_finite_differences(self, rng):
        batch = random_batch(rng, 3, 4)
        tau = 0.5
        _, grad = contrastive_loss(batch, tau)

        def value():
            return contrastive_loss(
                MultiviewedBatch(batch.views, batch.labels[: batch.num_origins]), tau
            )[0]

        numeric = fd_gradient(value, batch.views, h=1e-7)
        assert_grad_close(grad, numeric, what="contrastive grad")

    def test_needs_two_origins(self, rng, make_unit_rows):
        z = make_unit_rows(rng, 2, 3)
        with pytest.raises(DegenerateBatchError):
            contrastive_loss(MultiviewedBatch(z, np.zeros(1)), 1.0)


class TestSupCon:
    def test_equals_contrastive_when_labels_distinct(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            batch = random_batch(rng, n, 5)
            distinct = MultiviewedBatch(batch.views, np.arange(n))
            tau = float(rng.uniform(0.1, 1.5))
            lc, gc = contrastive_loss(distinct, tau)
            ls, gs = supcon_loss(distinct, 0, tau)
            assert lc == ls  # exact reduction, same arithmetic
            assert np.array_equal(gc, gs)

    def test_full_positive_symmetry_closed_form(self):
        v = np.tile(np.array([1.0, 0.0]), (4, 1))
        batch = MultiviewedBatch(v, np.zeros(2))
        loss, _ = supcon_loss(batch, 0, 1.0)
        assert abs(loss - 4 * np.log(3.0)) < 1e-12

    def test_matches_bruteforce(self, rng):
        for _ in range(30):
            batch = random_batch(rng, int(rng.integers(2, 6)), 4)
            tau = float(rng.uniform(0.1, 2.0))
            loss, _ = supcon_loss(batch, 0, tau)
            expected = bruteforce_supcon(batch.views, batch.labels[:, 0], tau)
            assert abs(loss - expected) < 1e-9

    def test_gradient_finite_differences(self, rng):
        batch = random_batch(rng, 4, 5)
        tau = 0.3
        _, grad = supcon_loss(batch, 0, tau)

        def value():
            return supcon_loss(
                MultiviewedBatch(batch.views, batch.labels[: batch.num_origins]), 0, tau
            )[0]

        numeric = fd_gradient(value, batch.views, h=1e-7)
        assert_grad_close(grad, numeric, what="supcon grad")

    def test_permutation_invariance(self, rng):
        batch = random_batch(rng, 4, 6)
        loss, _ = supcon_loss(batch, 0, 0.7)
        perm = rng.permutation(4)  # one sample order for both halves, then the halves swap
        permuted = MultiviewedBatch(batch.views[np.concatenate([perm + 4, perm])], batch.labels[perm])
        loss_p, _ = supcon_loss(permuted, 0, 0.7)
        assert abs(loss - loss_p) < 1e-10

    def test_large_temperature_limit(self, rng):
        # as tau grows the loss approaches sum_i log |A(i)|
        batch = random_batch(rng, 4, 5)
        limit = 8 * np.log(7.0)
        l1, _ = supcon_loss(batch, 0, 1e3)
        l2, _ = supcon_loss(batch, 0, 1e5)
        assert abs(l2 - limit) < abs(l1 - limit)
        assert abs(l2 - limit) < 1e-3


class TestMultiAttribute:
    def test_single_attribute_equals_supcon(self, rng):
        batch = random_batch(rng, 3, 4, n_attrs=1)
        l1, g1 = supcon_loss(batch, 0, 0.4)
        l2, g2 = multi_attribute_supcon(batch, [0], 0.4)
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_duplicate_columns_equal_single(self, rng):
        base = random_batch(rng, 3, 4, n_attrs=1)
        labels = base.labels[: base.num_origins]
        doubled = MultiviewedBatch(base.views, np.hstack([labels, labels]))
        l1, g1 = supcon_loss(base, 0, 0.4)
        l2, g2 = multi_attribute_supcon(doubled, [0, 1], 0.4)
        assert abs(l1 - l2) < 1e-12
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_forty_columns_match_columnwise_mean(self, rng):
        batch = random_batch(rng, 4, 6, n_attrs=40)
        loss, grad = multi_attribute_supcon(batch, list(range(40)), 0.5)
        per_attr = [supcon_loss(batch, a, 0.5) for a in range(40)]
        assert abs(loss - np.mean([l for l, _ in per_attr])) < 1e-9
        assert np.max(np.abs(grad - np.mean([g for _, g in per_attr], axis=0))) < 1e-9

    def test_gradient_finite_differences(self, rng):
        batch = random_batch(rng, 3, 4, n_attrs=3)
        tau = 0.6
        _, grad = multi_attribute_supcon(batch, [0, 1, 2], tau)

        def value():
            return multi_attribute_supcon(
                MultiviewedBatch(batch.views, batch.labels[: batch.num_origins]), [0, 1, 2], tau
            )[0]

        numeric = fd_gradient(value, batch.views, h=1e-7)
        assert_grad_close(grad, numeric, what="multi-attr grad")


class TestTopK:
    def test_mean_of_top_two(self):
        value, mask = topk_average(np.array([3.0, 1.0, 2.0]), 2)
        assert value == 2.5
        assert mask.tolist() == [True, False, True]

    def test_full_k_is_mean(self, rng):
        v = rng.standard_normal(9)
        value, mask = topk_average(v, 9)
        assert abs(value - v.mean()) < 1e-12
        assert mask.all()

    def test_duplicates_both_forms_agree(self):
        v = np.array([2.0, 2.0, 2.0, 1.0])
        value, mask = topk_average(v, 2)
        assert value == 2.0
        assert value == sorted_topk_mean(v, 2)
        assert mask.tolist() == [True, True, False, False]  # ties to lower index

    def test_hinge_equals_sorted_everywhere(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            v = rng.standard_normal(n) * rng.uniform(0.5, 10)
            k = int(rng.integers(1, n + 1))
            value, _ = topk_average(v, k)
            assert abs(value - sorted_topk_mean(v, k)) < 1e-12

    def test_monotone_nonincreasing_in_k(self, rng):
        v = rng.standard_normal(12)
        values = [topk_average(v, k)[0] for k in range(1, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            topk_average(np.array([1.0]), 2)
        with pytest.raises(ConfigError):
            topk_average(np.array([1.0]), 0)


class TestValidationTopK:
    def setup_method(self):
        self.params = float64_params(ModelParams.create(5, [6, 4], [4, 4, 3], seed=0))

    def oracle_losses(self, X, y):
        """Per-sample losses by the two-class log-softmax oracle: the head
        logit is the class-1 score against a class-0 score of 0."""
        z = head_forward(self.params, forward_features(self.params, X)[0])
        return -log_softmax(np.hstack([np.zeros_like(z), z]))[np.arange(y.size), y]

    def test_full_k_is_mean_cross_entropy(self, rng):
        X = rng.standard_normal((6, 5))
        y = rng.integers(0, 2, 6)
        loss, _ = validation_topk_loss(self.params, X, y, 6)
        assert abs(loss - self.oracle_losses(X, y).mean()) < 1e-12

    def test_saturated_perfect_classifier(self, rng):
        X = rng.standard_normal((5, 5))
        y = np.ones(5, dtype=np.int64)
        self.params.head.weight[...] = 0.0
        self.params.head.bias[...] = 100.0  # saturated toward class 1
        loss, bundle = validation_topk_loss(self.params, X, y, 2)
        assert loss < 1e-6
        assert bundle.norm() < 1e-6

    def test_worst_three_of_six(self, rng):
        X = rng.standard_normal((6, 5))
        y = rng.integers(0, 2, 6)
        loss, bundle = validation_topk_loss(self.params, X, y, 3)
        assert abs(loss - sorted_topk_mean(self.oracle_losses(X, y), 3)) < 1e-12

        def value():
            return validation_topk_loss(self.params, X, y, 3)[0]

        numeric = fd_param_gradients(value, self.params, h=1e-5)
        for name in self.params.layer_names():
            assert_grad_close(bundle[name][0], numeric[name][0], what=f"{name}.weight")
            assert_grad_close(bundle[name][1], numeric[name][1], what=f"{name}.bias")

    def test_k_larger_than_m(self, rng):
        with pytest.raises(ConfigError):
            validation_topk_loss(self.params, rng.standard_normal((2, 5)), [0, 1], 3)

    def test_empty_batch(self):
        with pytest.raises(DataError):
            validation_topk_loss(self.params, np.zeros((0, 5)), [], 1)

    def test_single_vector(self):
        # a single vector is a data error, not a batch of one
        with pytest.raises(DataError, match=r"got shape \(5,\)"):
            validation_topk_loss(self.params, np.ones(5), [1], 1)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        LossConfig(topk_count=0)
