import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairssl import evaluation
from fairssl.errors import DataError, NumericError
from fairssl.evaluation import (
    build_report,
    degree_of_bias,
    demographic_parity_difference,
    equalized_odds_difference,
    group_accuracy,
    selection_rate,
    train_probe,
)

from oracles import confusion_rates, gd_probe


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
            train_probe(rng.standard_normal((10, 3)), np.zeros(10))

    def test_negative_label_rejected(self, rng):
        with pytest.raises(DataError, match="non-negative"):
            train_probe(rng.standard_normal((10, 3)), np.arange(10) % 2 - 1)

    def test_absent_middle_class_converges(self, rng):
        # class 1 never occurs: its bias runs off to -inf, so the gradient only
        # decays geometrically; the solver must still meet its tolerance
        X = rng.standard_normal((300, 4))
        y = rng.choice([0, 2], 300)
        probe = train_probe(X, y, l2=1e-3)
        assert probe.iterations < evaluation._NEWTON_MAX_STEPS
        assert probe.grad_norm <= evaluation._GRAD_TOL * max(1.0, np.abs(X).max())
        assert probe.weight.shape == (3, 4)
        assert not np.any(probe.predict(X) == 1)

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
            train_probe(X, np.arange(40) % 2)

    def test_unregularised_collinear_columns(self, rng):
        # l2 = 0 with collinear columns: the Hessian is singular beyond the bias
        # shift; the minimum-norm solution weighs the 2*x0 column twice as much
        # as x0 instead of drifting along the null directions
        base = rng.standard_normal((300, 2))
        X = np.column_stack([base, 2.0 * base[:, 0], base[:, 0] + base[:, 1]])
        y = (base[:, 0] - 0.5 * base[:, 1] + rng.standard_normal(300) > 0).astype(int)
        probe = train_probe(X, y, l2=0.0)
        assert probe.grad_norm <= 1e-8
        assert abs(probe.bias.sum()) <= 1e-12
        assert probe.weight[:, 2] == pytest.approx(2.0 * probe.weight[:, 0], rel=1e-6)
        reference = gd_probe(X, y, l2=0.0)
        assert probe.final_loss <= reference.final_loss + 1e-9
        assert np.array_equal(probe.predict(X), reference.predict(X))

    @settings(max_examples=15, deadline=None)
    @given(
        classes=st.sampled_from([2, 3, 4]),
        l2=st.sampled_from([1e-4, 1e-3, 1e-2]),
        log_scale=st.floats(-1.0, 1.0),
        separable=st.booleans(),
        n=st.integers(30, 90),
        d=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_newton_matches_gradient_descent(self, classes, l2, log_scale, separable, n, d, seed):
        rng = np.random.default_rng(seed)
        X = 10.0**log_scale * rng.standard_normal((n, d))
        directions = np.linalg.qr(rng.standard_normal((d, classes)))[0].T
        scores = X @ directions.T / 10.0**log_scale
        if not separable:
            scores = scores + rng.gumbel(size=scores.shape)
        y = np.argmax(scores, axis=1)
        assume(np.unique(y).size == classes)
        probe = train_probe(X, y, l2=l2)
        assert probe.iterations <= 30
        assert probe.grad_norm <= 1e-8
        assert abs(probe.bias.sum()) <= 1e-10 * max(1.0, np.abs(probe.bias).max())
        reference = gd_probe(X, y, l2=l2)
        assert probe.final_loss <= reference.final_loss + 1e-9
        if reference.grad_norm <= 1e-6:
            # on nearly separable problems at large scale the reference can stop
            # at its iteration cap far from the optimum; only its loss bounds ours
            assert np.array_equal(probe.predict(X), reference.predict(X))


class TestGroupAccuracy:
    def test_all_correct(self):
        acc = group_accuracy([1, 0, 1], [1, 0, 1], ["a", "b", "a"])
        assert acc == {"a": 100.0, "b": 100.0}

    def test_counting(self):
        pred = [1] * 4 + [0] + [1] * 9 + [0]
        lab = [1] * 5 + [1] * 10
        grp = ["A"] * 5 + ["B"] * 10
        acc = group_accuracy(pred, lab, grp)
        assert acc["A"] == pytest.approx(80.0)
        assert acc["B"] == pytest.approx(90.0)

    def test_order_invariance(self, rng):
        pred = rng.integers(0, 2, 40)
        lab = rng.integers(0, 2, 40)
        grp = rng.integers(0, 3, 40)
        perm = rng.permutation(40)
        assert group_accuracy(pred, lab, grp) == group_accuracy(pred[perm], lab[perm], grp[perm])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            group_accuracy([1, 0], [1], [0, 1])


class TestScalarMetrics:
    def test_degree_of_bias_two_groups(self):
        assert degree_of_bias({"a": 80.0, "b": 90.0}) == pytest.approx(5.0)

    def test_degree_of_bias_equal(self):
        assert degree_of_bias([75.0, 75.0, 75.0]) == 0.0

    def test_degree_of_bias_hand_formula(self):
        vals = [70.54, 92.99, 85.0, 88.0]
        mean = sum(vals) / 4
        expected = (sum((v - mean) ** 2 for v in vals) / 4) ** 0.5
        assert degree_of_bias(vals) == pytest.approx(expected, abs=1e-12)

    def test_degree_of_bias_needs_two(self):
        with pytest.raises(DataError):
            degree_of_bias([50.0])

    def test_selection_rate(self):
        assert selection_rate({"a": 80.0, "b": 90.0}) == pytest.approx(100 * 80 / 90)
        assert selection_rate([66.0, 66.0]) == 100.0

    def test_selection_rate_published_operating_point(self):
        # min 84.15 / max 95.08 must reproduce the reported ratio 88.50
        assert selection_rate([84.15, 95.08]) == pytest.approx(88.50, abs=5e-3)

    def test_selection_rate_zero_max(self):
        with pytest.raises(DataError):
            selection_rate([0.0, 0.0])


class TestEqualizedOdds:
    def test_identical_behavior_zero(self):
        pred = [1, 0, 1, 0, 1, 0, 1, 0]
        lab = [1, 0, 0, 1, 1, 0, 0, 1]
        grp = ["a"] * 4 + ["b"] * 4
        assert equalized_odds_difference(pred, lab, grp) == 0.0

    def test_single_rate_gap(self):
        # group A: TPR 1.0 FPR 0.0; group B: TPR 0.5 FPR 0.0
        pred = [1, 1, 0] + [1, 0, 0]
        lab = [1, 1, 0] + [1, 1, 0]
        grp = ["A"] * 3 + ["B"] * 3
        assert equalized_odds_difference(pred, lab, grp) == pytest.approx(50.0)

    def test_hand_computed_twenty_samples(self, rng):
        pred = rng.integers(0, 2, 20)
        lab = np.array([0, 1] * 10)
        grp = np.array([0] * 10 + [1] * 10)
        stats = confusion_rates(pred.tolist(), lab.tolist(), grp.tolist())
        tprs = [stats[g]["tpr"] for g in (0, 1)]
        fprs = [stats[g]["fpr"] for g in (0, 1)]
        expected = 100 * max(max(tprs) - min(tprs), max(fprs) - min(fprs))
        assert equalized_odds_difference(pred, lab, grp) == pytest.approx(expected, abs=1e-12)

    def test_missing_class_names_group_and_class(self):
        pred = [1, 0, 1, 1]
        lab = [1, 0, 1, 1]  # group "b" has no negatives
        grp = ["a", "a", "b", "b"]
        with pytest.raises(DataError, match="'b' has no negative"):
            equalized_odds_difference(pred, lab, grp)

    def test_nonbinary_rejected(self):
        with pytest.raises(DataError):
            equalized_odds_difference([0, 2], [0, 1], ["a", "a"])


class TestDemographicParity:
    def test_identical_rates(self):
        assert demographic_parity_difference([1, 0, 1, 0], ["a", "a", "b", "b"]) == 0.0

    def test_two_rates(self):
        pred = [1] * 7 + [0] * 3 + [1] * 4 + [0] * 6
        grp = ["a"] * 10 + ["b"] * 10
        assert demographic_parity_difference(pred, grp) == pytest.approx(30.0)

    def test_three_groups_max_minus_min(self):
        pred = [1, 0, 0, 0, 0] + [1, 1, 0, 0, 0][:4] + [1] * 9 + [0]
        grp = ["a"] * 5 + ["b"] * 4 + ["c"] * 10
        # rates a=0.2, b=0.5, c=0.9
        assert demographic_parity_difference(pred, grp) == pytest.approx(70.0)


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
        assert equalized_odds_difference(pred, lab, grp) == pytest.approx(
            equalized_odds_difference(1 - pred, 1 - lab, grp)
        )
        assert demographic_parity_difference(pred, grp) == pytest.approx(
            demographic_parity_difference(1 - pred, grp)
        )

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
