import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairssl import evaluation
from fairssl.errors import DataError, NumericError
from fairssl.evaluation import build_report, logistic_loss, softmax, train_probe

from oracles import confusion_rates, gd_probe, groups_with_accuracy, log_softmax


@pytest.mark.parametrize("scale", [1.0, 50.0, 1e3])
def test_logistic_loss_matches_a_log_softmax_oracle(rng, scale):
    # the logit z is the class-1 score against a class-0 score of 0
    z = rng.standard_normal(10) * scale
    z[:4] = [1e3, -1e3, 1e3, -1e3]  # saturated, both ways, for both labels
    y = np.array([0, 1, 1, 0, 1, 0, 1, 0, 1, 1])
    loss, p = logistic_loss(z, y)
    expected = log_softmax(np.column_stack([np.zeros_like(z), z]))
    assert np.isfinite(loss).all() and np.isfinite(p).all()
    # log-probabilities carry the rounding of the largest logit: a few ulps of it
    tol = 16 * np.finfo(np.float64).eps * np.abs(z).max()
    np.testing.assert_allclose(loss, -expected[np.arange(y.size), y], rtol=0, atol=tol)
    np.testing.assert_allclose(p, np.exp(expected[:, 1]), rtol=tol, atol=1e-300)
    assert loss[0] == loss[1] == 1e3 and loss[2] == loss[3] == 0.0  # saturated losses are exact


@pytest.mark.parametrize("scale", [1.0, 50.0, 1e3])
def test_softmax_matches_a_log_softmax_oracle(rng, scale):
    logits = rng.standard_normal((6, 5)) * scale
    logits[np.arange(5), np.arange(5)] = -np.inf  # masked entries, as in the similarity softmax
    shift, log_denom, probs = softmax(logits)
    expected = log_softmax(logits)
    masked = np.isinf(logits)
    assert np.all(probs[masked] == 0.0)
    rows, top = np.arange(6), logits.argmax(axis=1)
    tol = 16 * np.finfo(np.float64).eps * np.abs(logits[~masked]).max()
    # the log-sum-exp is each row's largest logit less its log-probability
    np.testing.assert_allclose(shift + log_denom, logits[rows, top] - expected[rows, top], rtol=0, atol=tol)
    np.testing.assert_allclose(probs, np.exp(expected), rtol=tol, atol=1e-300)
    # the last axis of any batch shape
    assert np.array_equal(softmax(logits.reshape(2, 3, 5))[2].reshape(6, 5), probs)


class TestProbe:
    def test_separable_reaches_full_accuracy(self, rng):
        n = 60
        X = np.vstack([rng.normal(-2, 0.3, (n, 2)), rng.normal(2, 0.3, (n, 2))])
        y = np.repeat([0, 1], n)
        probe = train_probe(X, y, l2=1e-4)
        assert np.mean(probe.predict(X) == y) == 1.0
        assert probe.grad_norm <= 1e-6

    def test_random_labels_give_chance_level(self, rng):
        X = rng.standard_normal((1000, 8))
        y = rng.integers(0, 2, 1000)
        probe = train_probe(X, y, l2=1e-3)
        acc = 100.0 * np.mean(probe.predict(X) == y)
        assert abs(acc - 50.0) < 5.0 + 5.0  # training acc can exceed chance slightly

    def test_convexity_two_restarts_same_loss(self, rng):
        X = rng.standard_normal((200, 4))
        y = (X[:, 0] + 0.3 * rng.standard_normal(200) > 0).astype(int)
        p1 = gd_probe(X, y, l2=1e-3, seed=1)
        p2 = gd_probe(X, y, l2=1e-3, seed=999)
        newton = train_probe(X, y, l2=1e-3)
        assert abs(p1.final_loss - newton.final_loss) < 1e-6
        assert abs(p2.final_loss - newton.final_loss) < 1e-6

    def test_single_class_rejected(self, rng):
        with pytest.raises(DataError):
            train_probe(rng.standard_normal((10, 3)), np.zeros(10), l2=1e-4)

    def test_negative_label_rejected(self, rng):
        with pytest.raises(DataError, match=r"exactly \{0, 1\}, got \[-1, 0\]"):
            train_probe(rng.standard_normal((10, 3)), np.arange(10) % 2 - 1, l2=1e-4)

    @pytest.mark.parametrize("values", [[0, 2], [0, 1, 2], [1]], ids=["absent-middle", "three-class", "ones"])
    def test_non_binary_labels_rejected(self, rng, values):
        # the probe is one logistic regression: labels other than exactly {0, 1}
        # are a data error at the fit, named in the message
        y = np.resize(values, 300)
        with pytest.raises(DataError, match=re.escape(f"exactly {{0, 1}}, got {values}")):
            train_probe(rng.standard_normal((300, 4)), y, l2=1e-3)

    @pytest.mark.parametrize("l2", [-1e-4, np.nan, np.inf])
    def test_l2_must_be_finite_and_non_negative(self, rng, l2):
        # an infinite penalty made the Hessian non-finite and the lstsq solve loop in LAPACK
        with pytest.raises(DataError, match="probe l2 must be finite and non-negative"):
            train_probe(rng.standard_normal((20, 4)), np.arange(20) % 2, l2=l2)

    def test_predict_is_the_sign_of_the_logit(self, rng):
        X = rng.standard_normal((200, 4))
        y = (X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(200) > 0).astype(int)
        probe = train_probe(X, y, l2=1e-3)
        assert probe.weight.shape == (4,) and isinstance(probe.bias, float)
        pred = probe.predict(X)
        assert pred.dtype == np.int64
        assert np.array_equal(pred, X @ probe.weight + probe.bias > 0)
        # a logit of exactly 0 predicts class 0, as the argmax of two tied scores did
        assert evaluation.ProbeModel(np.ones(4), -2.0).predict(np.full((1, 4), 0.5)).tolist() == [0]

    def test_step_cap_raises_instead_of_returning(self, rng, monkeypatch):
        X = rng.standard_normal((200, 3))
        y = (X[:, 0] + 0.5 * rng.standard_normal(200) > 0).astype(int)
        monkeypatch.setattr(evaluation, "_NEWTON_MAX_STEPS", 2)
        with pytest.raises(NumericError, match="did not converge"):
            train_probe(X, y, l2=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, rng, bad):
        X = rng.standard_normal((40, 3))
        X[7, 2] = bad
        with pytest.raises(NumericError, match="NaN or infinite"):
            train_probe(X, np.arange(40) % 2, l2=1e-4)

    def test_single_vector_rejected(self, rng):
        # a single vector is a data error, not a batch of one, at the fit and at prediction
        with pytest.raises(DataError, match=r"batch of rows, got shape \(4,\)"):
            train_probe(np.ones(4), [0, 1, 0, 1], l2=1e-4)
        probe = train_probe(rng.standard_normal((20, 4)), np.arange(20) % 2, l2=1e-4)
        assert probe.logits(np.ones((1, 4))).shape == (1,)
        with pytest.raises(DataError, match=r"batch of rows, got shape \(4,\)"):
            probe.logits(np.ones(4))

    def test_unregularised_collinear_columns(self, rng):
        # l2 = 0 with collinear columns: the Hessian is singular; the minimum-norm
        # solution weighs the 2*x0 column twice as much as x0 instead of drifting
        # along the null directions
        base = rng.standard_normal((300, 2))
        X = np.column_stack([base, 2.0 * base[:, 0], base[:, 0] + base[:, 1]])
        y = (base[:, 0] - 0.5 * base[:, 1] + rng.standard_normal(300) > 0).astype(int)
        probe = train_probe(X, y, l2=0.0)
        assert probe.grad_norm <= 1e-8
        assert probe.weight[2] == pytest.approx(2.0 * probe.weight[0], rel=1e-6)
        reference = gd_probe(X, y, l2=0.0)
        assert probe.final_loss <= reference.final_loss + 1e-9
        assert np.array_equal(probe.predict(X), reference.predict(X))

    @settings(max_examples=15, deadline=None)
    @given(
        l2=st.sampled_from([1e-4, 1e-3, 1e-2]),
        log_scale=st.floats(-1.0, 1.0),
        separable=st.booleans(),
        n=st.integers(30, 90),
        d=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_newton_matches_gradient_descent(self, l2, log_scale, separable, n, d, seed):
        # the reference fits two softmax classes with (l2/2)|W|^2; the binary
        # probe's (l2/4)|w|^2 has the same optimum, so its loss must match
        rng = np.random.default_rng(seed)
        X = 10.0**log_scale * rng.standard_normal((n, d))
        directions = np.linalg.qr(rng.standard_normal((d, 2)))[0].T
        scores = X @ directions.T / 10.0**log_scale
        if not separable:
            scores = scores + rng.gumbel(size=scores.shape)
        y = np.argmax(scores, axis=1)
        assume(np.unique(y).size == 2)
        probe = train_probe(X, y, l2=l2)
        assert probe.iterations <= 30
        assert probe.grad_norm <= 1e-8
        reference = gd_probe(X, y, l2=l2)
        assert probe.final_loss <= reference.final_loss + 1e-9
        if reference.grad_norm <= 1e-6:
            # on nearly separable problems at large scale the reference can stop
            # at its iteration cap far from the optimum; only its loss bounds ours
            assert np.array_equal(probe.predict(X), reference.predict(X))


class TestGroupAccuracy:
    def test_all_correct(self):
        report = build_report([1, 0, 1, 0], [1, 0, 1, 0], ["a", "a", "b", "b"])
        assert report.per_group_acc == {"a": 100.0, "b": 100.0}

    def test_counting(self):
        pred = [1, 1, 0, 0, 0] + [1] * 4 + [0] * 6
        lab = [1, 1, 1, 0, 0] + [1] * 5 + [0] * 5
        grp = ["A"] * 5 + ["B"] * 10
        report = build_report(pred, lab, grp)
        assert report.per_group_acc["A"] == pytest.approx(80.0)
        assert report.per_group_acc["B"] == pytest.approx(90.0)
        assert report.avg_acc == pytest.approx(100 * 13 / 15)

    def test_order_invariance(self, rng):
        pred = rng.integers(0, 2, 40)
        lab = np.arange(40) % 2
        grp = (np.arange(40) // 2) % 3  # every group holds both classes
        perm = rng.permutation(40)
        assert build_report(pred, lab, grp) == build_report(pred[perm], lab[perm], grp[perm])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match=r"equal length, got \[1, 2\]"):
            build_report([1, 0], [1], [0, 1])

    def test_nan_group_label_named_as_nan(self):
        # the NaN group has two samples; it is refused for its label, not as empty
        with pytest.raises(DataError, match="group label nan is NaN"):
            build_report([1, 0, 1], [1, 0, 1], [0.0, np.nan, np.nan])
        # checks keep their order: lengths, then NaN labels, then the group count
        with pytest.raises(DataError, match="equal length"):
            build_report([1, 0], [1, 0, 1], [0.0, np.nan, np.nan])
        with pytest.raises(DataError, match="is NaN"):
            build_report([1, 0, 1], [1, 0, 1], [np.nan] * 3)


class TestScalarMetrics:
    def test_degree_of_bias_two_groups(self):
        report = build_report(*groups_with_accuracy([8, 9], [10, 10], ["a", "b"]))
        assert report.std_acc == pytest.approx(5.0)

    def test_degree_of_bias_equal(self):
        assert build_report(*groups_with_accuracy([3, 3, 3], [4, 4, 4])).std_acc == 0.0

    def test_degree_of_bias_hand_formula(self):
        report = build_report(*groups_with_accuracy([7054, 9299, 8500, 8800], [10000] * 4))
        vals = list(report.per_group_acc.values())
        assert vals == pytest.approx([70.54, 92.99, 85.0, 88.0], abs=1e-12)
        mean = sum(vals) / 4
        expected = (sum((v - mean) ** 2 for v in vals) / 4) ** 0.5
        assert report.std_acc == pytest.approx(expected, abs=1e-12)

    def test_degree_of_bias_needs_two(self):
        with pytest.raises(DataError, match="at least two groups"):
            build_report([1, 0], [1, 0], ["a", "a"])

    def test_selection_rate(self):
        report = build_report(*groups_with_accuracy([8, 9], [10, 10], ["a", "b"]))
        assert report.ser == pytest.approx(100 * 80 / 90)
        assert build_report(*groups_with_accuracy([66, 66], [100, 100])).ser == 100.0

    def test_selection_rate_published_operating_point(self):
        # min 84.15 / max 95.08 must reproduce the reported ratio 88.50
        report = build_report(*groups_with_accuracy([1683, 2377], [2000, 2500]))
        assert (report.min_grp_acc, report.max_grp_acc) == (84.15, 95.08)
        assert report.ser == pytest.approx(88.50, abs=5e-3)

    def test_selection_rate_zero_max(self):
        with pytest.raises(DataError, match="best group accuracy is 0"):
            build_report(*groups_with_accuracy([0, 0], [4, 4]))


class TestEqualizedOdds:
    def test_identical_behavior_zero(self):
        pred = [1, 0, 1, 0, 1, 0, 1, 0]
        lab = [1, 0, 0, 1, 1, 0, 0, 1]
        grp = ["a"] * 4 + ["b"] * 4
        assert build_report(pred, lab, grp).eod == 0.0

    def test_single_rate_gap(self):
        # group A: TPR 1.0 FPR 0.0; group B: TPR 0.5 FPR 0.0
        pred = [1, 1, 0] + [1, 0, 0]
        lab = [1, 1, 0] + [1, 1, 0]
        grp = ["A"] * 3 + ["B"] * 3
        assert build_report(pred, lab, grp).eod == pytest.approx(50.0)

    def test_hand_computed_twenty_samples(self, rng):
        pred = rng.integers(0, 2, 20)
        lab = np.array([0, 1] * 10)
        grp = np.array([0] * 10 + [1] * 10)
        stats = confusion_rates(pred.tolist(), lab.tolist(), grp.tolist())
        tprs = [stats[g]["tpr"] for g in (0, 1)]
        fprs = [stats[g]["fpr"] for g in (0, 1)]
        expected = 100 * max(max(tprs) - min(tprs), max(fprs) - min(fprs))
        assert build_report(pred, lab, grp).eod == pytest.approx(expected, abs=1e-12)

    def test_missing_class_names_group_and_class(self):
        pred = [1, 0, 1, 1]
        lab = [1, 0, 1, 1]  # group "b" has no negatives
        grp = ["a", "a", "b", "b"]
        with pytest.raises(DataError, match="'b' has no negative"):
            build_report(pred, lab, grp)
        # the first group in key order is named, its positives checked first
        with pytest.raises(DataError, match="'a' has no positive"):
            build_report([0, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1], ["b", "b", "b", "a", "c", "c"])

    def test_nonbinary_rejected(self):
        with pytest.raises(DataError, match="binary tasks"):
            build_report([0, 2, 1, 0], [0, 1, 1, 0], ["a", "a", "b", "b"])


class TestDemographicParity:
    def test_identical_rates(self):
        assert build_report([1, 0, 1, 0], [1, 0, 0, 1], ["a", "a", "b", "b"]).dpd == 0.0

    def test_two_rates(self):
        pred = [1] * 7 + [0] * 3 + [1] * 4 + [0] * 6
        lab = [1, 0] * 10
        grp = ["a"] * 10 + ["b"] * 10
        assert build_report(pred, lab, grp).dpd == pytest.approx(30.0)

    def test_three_groups_max_minus_min(self):
        pred = [1, 0, 0, 0, 0] + [1, 1, 0, 0, 0][:4] + [1] * 9 + [0]
        lab = np.arange(19) % 2
        grp = ["a"] * 5 + ["b"] * 4 + ["c"] * 10
        # rates a=0.2, b=0.5, c=0.9
        assert build_report(pred, lab, grp).dpd == pytest.approx(70.0)


class TestReport:
    def test_perfect_predictor(self):
        lab = np.array([1, 0, 1, 0, 1, 1, 0, 0])
        grp = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        report = build_report(lab, lab, grp)
        assert report.avg_acc == 100.0
        assert report.std_acc == 0.0
        assert report.ser == 100.0
        assert report.eod == 0.0
        # DPD equals the gap of the true label rates, not necessarily zero
        assert report.dpd == pytest.approx(100 * abs(0.5 - 0.5))

    def test_constant_predictor_identities(self):
        lab = np.array([1, 0, 1, 1, 0, 0])
        grp = np.array([0, 0, 0, 1, 1, 1])
        pred = np.ones(6, dtype=int)
        report = build_report(pred, lab, grp)
        assert report.dpd == 0.0
        assert report.eod == 0.0
        assert report.per_group_acc[0] == pytest.approx(100 * 2 / 3)
        assert report.per_group_acc[1] == pytest.approx(100 * 1 / 3)

    def test_full_hand_oracle(self, rng):
        pred = rng.integers(0, 2, 50)
        lab = np.array(([0, 1] * 13)[:25] + ([1, 0, 1, 0, 0] * 5)).ravel()
        grp = np.array([0] * 25 + [1] * 25)
        report = build_report(pred, lab, grp)
        stats = confusion_rates(pred.tolist(), lab.tolist(), grp.tolist())
        assert report.per_group_acc[0] == pytest.approx(stats[0]["acc"])
        assert report.per_group_acc[1] == pytest.approx(stats[1]["acc"])
        accs = [stats[g]["acc"] for g in (0, 1)]
        assert report.min_grp_acc == pytest.approx(min(accs))
        assert report.max_grp_acc == pytest.approx(max(accs))
        assert report.ser == pytest.approx(100 * min(accs) / max(accs))
        assert report.avg_acc == pytest.approx(100 * np.mean(pred == lab))
        pos_rates = [stats[g]["pos_rate"] for g in (0, 1)]
        assert report.dpd == pytest.approx(100 * (max(pos_rates) - min(pos_rates)))

    def test_group_relabeling_invariance(self, rng):
        pred = rng.integers(0, 2, 60)
        lab = rng.integers(0, 2, 60)
        grp = rng.integers(0, 3, 60)
        while len({(l, g) for l, g in zip(lab, grp)}) < 6:
            lab = rng.integers(0, 2, 60)
        r1 = build_report(pred, lab, grp)
        relabel = {0: 7, 1: 3, 2: 11}
        r2 = build_report(pred, lab, np.array([relabel[g] for g in grp]))
        assert r1.avg_acc == r2.avg_acc
        assert r1.std_acc == r2.std_acc
        assert r1.ser == r2.ser
        assert r1.eod == r2.eod
        assert r1.dpd == r2.dpd

    def test_class_swap_invariance(self, rng):
        pred = rng.integers(0, 2, 40)
        lab = np.array([0, 1] * 20)
        grp = np.array([0] * 20 + [1] * 20)
        report, swapped = build_report(pred, lab, grp), build_report(1 - pred, 1 - lab, grp)
        assert report.eod == pytest.approx(swapped.eod)
        assert report.dpd == pytest.approx(swapped.dpd)

    def test_ser_100_iff_std_zero(self, rng):
        lab = rng.integers(0, 2, 30)
        grp = np.array([0, 1, 2] * 10)
        report = build_report(lab, lab, grp)
        assert report.ser == 100.0 and report.std_acc == 0.0

    def test_text_table_layout(self):
        lab = np.array([1, 0] * 6)
        grp = np.array([0, 0, 0, 1, 1, 1] * 2)
        text = build_report(lab, lab, grp).to_text_table()
        header, row = text.splitlines()
        assert "Avg. Acc" in header and "Min Grp Acc" in header
        assert len(header.split()) >= 7

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 30), min_size=2, max_size=5),
        str_keys=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_confusion_oracle(self, sizes, str_keys, seed):
        rng = np.random.default_rng(seed)
        keys = [f"g{i}" for i in range(len(sizes))] if str_keys else [3 * i - 4 for i in range(len(sizes))]
        grp = np.repeat(keys, sizes)
        lab = np.concatenate([rng.permutation(np.arange(n) % 2) for n in sizes])
        pred = rng.integers(0, 2, grp.size)
        order = rng.permutation(grp.size)
        pred, lab, grp = pred[order], lab[order], grp[order]
        stats = confusion_rates(pred.tolist(), lab.tolist(), grp.tolist())
        accs = {g: s["acc"] for g, s in stats.items()}
        assume(max(accs.values()) > 0)
        report = build_report(pred, lab, grp)
        assert report.per_group_acc == pytest.approx(accs, abs=1e-12)
        assert all(type(k) is type(keys[0]) for k in report.per_group_acc)
        assert report.avg_acc == pytest.approx(100 * np.mean(pred == lab), abs=1e-12)
        values = list(accs.values())
        mean = sum(values) / len(values)
        assert report.group_mean_acc == pytest.approx(mean, abs=1e-12)
        assert report.std_acc == pytest.approx(
            (sum((a - mean) ** 2 for a in values) / len(values)) ** 0.5, abs=1e-9
        )
        assert (report.min_grp_acc, report.max_grp_acc) == pytest.approx((min(values), max(values)), abs=1e-12)
        assert report.ser == pytest.approx(100 * min(values) / max(values), abs=1e-9)
        gap = {r: max(s[r] for s in stats.values()) - min(s[r] for s in stats.values())
               for r in ("tpr", "fpr", "pos_rate")}
        assert report.eod == pytest.approx(100 * max(gap["tpr"], gap["fpr"]), abs=1e-9)
        assert report.dpd == pytest.approx(100 * gap["pos_rate"], abs=1e-9)
