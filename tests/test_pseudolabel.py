import json
import struct

import numpy as np
import pytest

from fairssl.errors import DataError, FormatError, SelectionError
from fairssl.pseudolabel import (
    AttributeTemplates,
    PseudoLabelTable,
    TemplateBank,
    attribute_probabilities,
    build_pseudolabel_table,
    label_attribute,
    select_validation_subset,
)
from fairssl.store import EmbeddingMatrix, normalize_rows, save_embeddings

from oracles import zero_shot_label


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def unit_matrix(rows):
    return normalize_rows(EmbeddingMatrix(np.asarray(rows, dtype=np.float32)))


def one_pair_label(img, pos, neg, scale=100.0):
    """``label_attribute`` for one unit embedding and one template pair."""
    mat = EmbeddingMatrix(np.asarray(img, dtype=np.float32)[None, :], normalized=True)
    labels, confs = label_attribute(mat, AttributeTemplates("a", pos, neg), scale)
    return int(labels[0]), float(confs[0])


class TestZeroShot:
    def test_aligned_positive(self):
        img = unit([1.0, 0.0])
        label, conf = one_pair_label(img, img, unit([0.0, 1.0]), scale=100.0)
        assert label == 1
        assert conf > 1.0 - 1e-9

    def test_symmetric_tie(self):
        img = unit([1.0, 1.0])
        label, conf = one_pair_label(img, unit([1.0, 0.0]), unit([0.0, 1.0]))
        assert label == 1  # tie resolves to the positive class
        assert abs(conf - 0.5) < 1e-12

    def test_closed_form_margin(self):
        # similarities 0.30 vs 0.28 at scale 100 give confidence 1/(1+e^-2)
        img = unit([1.0, 0.0, 0.0])
        pos = np.array([0.30, np.sqrt(1 - 0.30**2), 0.0])
        neg = np.array([0.28, 0.0, np.sqrt(1 - 0.28**2)])
        label, conf = one_pair_label(img, pos, neg, scale=100.0)
        assert label == 1
        assert abs(conf - 1.0 / (1.0 + np.exp(-2.0))) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(DataError):
            one_pair_label(np.array([2.0, 0.0]), unit([1.0, 0.0]), unit([0.0, 1.0]))
        with pytest.raises(DataError):
            one_pair_label(unit([1.0, 0.0]), np.array([2.0, 0.0]), unit([0.0, 1.0]))


def templates_with_probs(probs, scale):
    """Template pairs engineered so each pair yields the requested positive
    probability for the image [1, 0, ...]."""
    pos_rows, neg_rows = [], []
    for p in probs:
        delta = np.log(p / (1 - p)) / scale  # needed similarity gap
        a, b = delta / 2.0, -delta / 2.0
        pos_rows.append([a, np.sqrt(1 - a * a), 0.0])
        neg_rows.append([b, 0.0, np.sqrt(1 - b * b)])
    return AttributeTemplates("t", np.array(pos_rows), np.array(neg_rows))


class TestLabelAttribute:
    def test_single_template_equals_zero_shot(self, rng, make_unit_rows):
        imgs = make_unit_rows(rng, 5, 4)
        pos = make_unit_rows(rng, 1, 4)
        neg = make_unit_rows(rng, 1, 4)
        templates = AttributeTemplates("a", pos, neg)
        mat = EmbeddingMatrix(imgs.astype(np.float32), normalized=True)
        labels, confs = label_attribute(mat, templates, scale=50.0)
        for i in range(5):
            l, c = zero_shot_label(mat.data[i].astype(np.float64) / np.linalg.norm(mat.data[i].astype(np.float64)), pos[0], neg[0], 50.0)
            assert labels[i] == l
            assert abs(confs[i] - c) < 1e-7

    def test_symmetric_disagreement_averages_to_half(self):
        scale = 10.0
        templates = templates_with_probs([0.9, 0.1], scale)
        mat = unit_matrix([[1.0, 0.0, 0.0]])
        _, confs = label_attribute(mat, templates, scale)
        assert abs(confs[0] - 0.5) < 1e-9

    def test_three_template_mean(self):
        scale = 10.0
        templates = templates_with_probs([0.9, 0.8, 0.4], scale)
        mat = unit_matrix([[1.0, 0.0, 0.0]])
        labels, confs = label_attribute(mat, templates, scale)
        assert labels[0] == 1
        assert abs(confs[0] - 0.7) < 1e-9

    def test_probabilities_sum_to_one(self, rng, make_unit_rows):
        mat = EmbeddingMatrix(make_unit_rows(rng, 30, 6).astype(np.float32), normalized=True)
        templates = AttributeTemplates("a", make_unit_rows(rng, 4, 6), make_unit_rows(rng, 4, 6))
        probs = attribute_probabilities(mat, templates, scale=100.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    def test_identical_templates_match_single_pair(self, rng, make_unit_rows):
        # labels identical; confidences agree at the table's storage precision
        # (the batched matrix product may round differently from np.dot by 1 ulp)
        for T in (2, 3, 5):
            d = 6
            pos = make_unit_rows(rng, 1, d)[0]
            neg = make_unit_rows(rng, 1, d)[0]
            templates = AttributeTemplates("a", np.tile(pos, (T, 1)), np.tile(neg, (T, 1)))
            mat = EmbeddingMatrix(make_unit_rows(rng, 20, d).astype(np.float32), normalized=True)
            labels, confs = label_attribute(mat, templates, scale=30.0)
            for i in range(20):
                l0, c0 = zero_shot_label(mat.data[i].astype(np.float64), pos, neg, 30.0)
                assert labels[i] == l0
                assert np.float32(confs[i]) == np.float32(c0)
                assert abs(float(confs[i]) - c0) < 1e-12

    def test_template_count_mismatch(self):
        with pytest.raises(DataError):
            AttributeTemplates("a", np.eye(3)[:2], np.eye(3)[:1])


class TestBuildTable:
    def test_shape_forty_attributes(self, rng, make_unit_rows):
        d = 8
        bank_attrs = [
            AttributeTemplates(f"a{i}", make_unit_rows(rng, 2, d), make_unit_rows(rng, 2, d))
            for i in range(40)
        ]
        bank = TemplateBank(bank_attrs)
        mat = EmbeddingMatrix(make_unit_rows(rng, 1, d).astype(np.float32), normalized=True)
        table = build_pseudolabel_table(mat, bank)
        assert table.labels.shape == (1, 40)

    def test_row_permutation_equivariance(self, rng, make_unit_rows):
        d = 6
        bank = TemplateBank(
            [AttributeTemplates("a", make_unit_rows(rng, 3, d), make_unit_rows(rng, 3, d))]
        )
        rows = make_unit_rows(rng, 10, d).astype(np.float32)
        perm = rng.permutation(10)
        t1 = build_pseudolabel_table(EmbeddingMatrix(rows, normalized=True), bank)
        t2 = build_pseudolabel_table(EmbeddingMatrix(rows[perm], normalized=True), bank)
        assert np.array_equal(t1.labels[perm], t2.labels)
        assert np.array_equal(t1.confidences[perm], t2.confidences)

    def test_constructed_geometry(self):
        # samples sitting on +-attribute axes are labeled by coordinate sign
        d = 4
        signs = np.array([(i >> a) & 1 for i in range(16) for a in range(2)]).reshape(16, 2)
        rows = np.zeros((16, d))
        rows[:, 0] = np.where(signs[:, 0] == 1, 1.0, -1.0)
        rows[:, 1] = np.where(signs[:, 1] == 1, 0.5, -0.5)
        mat = unit_matrix(rows + 1e-3)
        axes = np.eye(d)
        bank = TemplateBank(
            [
                AttributeTemplates("x0", axes[0][None, :], -axes[0][None, :]),
                AttributeTemplates("x1", axes[1][None, :], -axes[1][None, :]),
            ]
        )
        table = build_pseudolabel_table(mat, bank)
        assert np.array_equal(table.labels, signs)

    def test_swap_symmetry(self, rng, make_unit_rows):
        # scale 10 keeps the softmax away from saturation, so no exact ties
        d = 7
        pos, neg = make_unit_rows(rng, 3, d), make_unit_rows(rng, 3, d)
        bank = TemplateBank([AttributeTemplates("a", pos, neg)])
        swapped = TemplateBank([AttributeTemplates("a", neg, pos)])
        mat = EmbeddingMatrix(make_unit_rows(rng, 40, d).astype(np.float32), normalized=True)
        t1 = build_pseudolabel_table(mat, bank, scale=10.0)
        t2 = build_pseudolabel_table(mat, swapped, scale=10.0)
        assert np.array_equal(t1.labels, 1 - t2.labels)
        assert np.array_equal(t1.confidences, t2.confidences)

    def test_dimension_mismatch(self, rng, make_unit_rows):
        bank = TemplateBank([AttributeTemplates("a", make_unit_rows(rng, 1, 5), make_unit_rows(rng, 1, 5))])
        mat = EmbeddingMatrix(make_unit_rows(rng, 2, 4).astype(np.float32), normalized=True)
        with pytest.raises(DataError):
            build_pseudolabel_table(mat, bank)


class TestTableIO:
    def test_round_trip(self, tmp_path, rng):
        labels = rng.integers(0, 2, (7, 3)).astype(np.uint8)
        confs = (0.5 + 0.5 * rng.random((7, 3))).astype(np.float32)
        table = PseudoLabelTable(labels, confs, ["a", "b", "c"])
        table.save(tmp_path / "t.fspl")
        back = PseudoLabelTable.load(tmp_path / "t.fspl")
        assert np.array_equal(back.labels, labels)
        assert back.confidences.tobytes() == confs.tobytes()
        assert back.attribute_names == ["a", "b", "c"]

    @pytest.mark.parametrize("names", [None, b"[not json", b"\xff", b'{"a": 1}', b'["a", 2]', b'"ab"'])
    def test_names_missing_or_malformed(self, tmp_path, names):
        table = PseudoLabelTable(
            np.zeros((2, 2), dtype=np.uint8), np.full((2, 2), 0.75, dtype=np.float32), ["a", "b"]
        )
        path = tmp_path / "t.fspl"
        table.save(path)
        raw = path.read_bytes()
        (k,) = struct.unpack_from("<I", raw, 20)  # the names follow the 24-byte header
        names = names or b""
        path.write_bytes(raw[:20] + struct.pack("<I", len(names)) + names + raw[24 + k :])
        with pytest.raises(FormatError, match="t.fspl: .*(JSON|attribute names)"):
            PseudoLabelTable.load(path)

    def test_one_file_holds_the_names(self, tmp_path):
        table = PseudoLabelTable(
            np.array([[0, 1]], dtype=np.uint8), np.array([[0.75, 1.0]], dtype=np.float32), ["b", "a"]
        )
        table.save(tmp_path / "t.fspl")
        assert [p.name for p in tmp_path.iterdir()] == ["t.fspl"]
        names = b'["b", "a"]'
        entries = b"\x00" + np.float32(0.75).tobytes() + b"\x01" + np.float32(1.0).tobytes()
        header = struct.pack("<4sIQII", b"FSPL", 2, 1, 2, len(names))
        assert (tmp_path / "t.fspl").read_bytes() == header + names + entries

    def test_truncation(self, tmp_path, rng):
        table = PseudoLabelTable(
            np.zeros((2, 2), dtype=np.uint8), np.full((2, 2), 0.75, dtype=np.float32), ["a", "b"]
        )
        path = tmp_path / "t.fspl"
        table.save(path)
        path.write_bytes(path.read_bytes()[:-3])
        from fairssl.errors import FileSizeError

        with pytest.raises(FileSizeError):
            PseudoLabelTable.load(path)


    @pytest.mark.parametrize("entry, problem", [(("label", 7), "labels must be 0 or 1"),
                                                (("conf", np.nan), "confidences"),
                                                (("conf", 0.25), "confidences")])
    def test_entry_content_checked_on_load(self, tmp_path, entry, problem):
        table = PseudoLabelTable(
            np.zeros((2, 2), dtype=np.uint8), np.full((2, 2), 0.75, dtype=np.float32), ["a", "b"]
        )
        path = tmp_path / "t.fspl"
        table.save(path)
        raw = bytearray(path.read_bytes())
        field, value = entry
        at = len(raw) - 5 + (0 if field == "label" else 1)  # the last entry
        raw[at : at + (1 if field == "label" else 4)] = (
            bytes([value]) if field == "label" else np.float32(value).tobytes()
        )
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"t.fspl: {problem}"):
            PseudoLabelTable.load(path)


class TestBankIO:
    def test_load_bank_index(self, tmp_path, rng, make_unit_rows):
        d = 5
        for name in ("young", "smiling"):
            save_embeddings(
                EmbeddingMatrix(make_unit_rows(rng, 2, d).astype(np.float32), normalized=True),
                tmp_path / f"{name}_pos.fssl",
            )
            save_embeddings(
                EmbeddingMatrix(make_unit_rows(rng, 2, d).astype(np.float32), normalized=True),
                tmp_path / f"{name}_neg.fssl",
            )
        index = {
            name: {"pos": f"{name}_pos.fssl", "neg": f"{name}_neg.fssl"}
            for name in ("young", "smiling")
        }
        (tmp_path / "bank.json").write_text(json.dumps(index))
        bank = TemplateBank.load(tmp_path / "bank.json")
        assert sorted(bank.names) == ["smiling", "young"]
        assert bank.attributes[0].pos.shape == (2, d)

    @pytest.mark.parametrize(
        "index, problem",
        [(b"[1, 2]", "expected a JSON object"), (b'{"a": "\xff"}', "invalid JSON")],
        ids=["not-an-object", "not-utf8"],
    )
    def test_malformed_bank_index_is_format_error(self, tmp_path, index, problem):
        (tmp_path / "bank.json").write_bytes(index)
        with pytest.raises(FormatError, match=rf"bank\.json: {problem}"):
            TemplateBank.load(tmp_path / "bank.json")

    def test_unreadable_bank_index_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read template index"):
            TemplateBank.load(tmp_path)


class TestValidationSubset:
    def table(self, confs, labels):
        return PseudoLabelTable(
            np.asarray(labels, dtype=np.uint8)[:, None],
            np.asarray(confs, dtype=np.float32)[:, None],
            ["attr"],
        )

    def test_all_qualify_full_take(self):
        table = self.table([1.0] * 6, [0, 1, 0, 1, 0, 1])
        out = select_validation_subset(table, "attr", 0.9, 6, seed=0)
        assert out.tolist() == [0, 1, 2, 3, 4, 5]

    def test_threshold_above_max(self):
        table = self.table([0.6, 0.7], [0, 1])
        with pytest.raises(SelectionError, match="only 0 samples"):
            select_validation_subset(table, "attr", 0.95, 1, seed=0)

    def test_error_reports_available_count(self):
        table = self.table([0.95, 0.95, 0.6], [0, 1, 1])
        with pytest.raises(SelectionError, match="only 2 samples"):
            select_validation_subset(table, "attr", 0.9, 3, seed=0)

    def test_balanced_selection_reproducible(self, rng):
        n = 100
        confs = np.where(np.arange(n) < 60, 0.95, 0.6)
        labels = np.arange(n) % 2
        table = self.table(confs, labels)
        out1 = select_validation_subset(table, "attr", 0.9, 20, seed=7)
        out2 = select_validation_subset(table, "attr", 0.9, 20, seed=7)
        assert np.array_equal(out1, out2)
        assert out1.size == 20
        chosen_labels = labels[out1]
        assert (chosen_labels == 0).sum() == 10
        assert (chosen_labels == 1).sum() == 10
        assert np.all(confs[out1] >= 0.9)

    def test_shortfall_filled_from_majority(self):
        confs = [0.95] * 10
        labels = [1] * 8 + [0] * 2
        table = self.table(confs, labels)
        out = select_validation_subset(table, "attr", 0.9, 8, seed=1)
        chosen = np.asarray(labels)[out]
        assert (chosen == 0).sum() == 2
        assert (chosen == 1).sum() == 6
