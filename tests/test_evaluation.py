import json

import numpy as np
import pytest

from stressnet.corpus import build_instance
from stressnet.errors import AlignmentError, FormatError, InsufficientDimensions
from stressnet.evaluation import (
    EvalReport,
    evaluate,
    pca_type_embeddings,
    render_report,
)
from stressnet.features import WordRecord
from stressnet.lexicon import NUCLEUS_TAGS, PAD_TYPE_INDEX, StressLevel

S0, S1, S2 = StressLevel.NON_STRESS, StressLevel.PRIMARY, StressLevel.SECONDARY


def instance(labels, tags=None, utt="u", word="w"):
    tags = tags or ["iy"] * len(labels)
    return build_instance(WordRecord(utt, word, np.zeros((len(labels), 12)),
                                     tags, [int(s) for s in labels]))


class TestEvaluate:
    def test_perfect_predictions(self):
        insts = [instance([S0, S1]), instance([S2, S0])]
        preds = [[S0, S1], [S2, S0]]
        report = evaluate(preds, insts)
        assert report.accuracy == 1.0
        assert np.all(report.confusion == np.diag(np.diag(report.confusion)))
        assert report.n_syllables == 4
        assert report.n_words == 2

    def test_hand_counted_confusion(self):
        insts = [instance([S0, S1])]
        preds = [[S1, S1]]
        report = evaluate(preds, insts)
        assert report.accuracy == 0.5
        assert report.confusion[int(S0), int(S1)] == 1
        assert report.confusion[int(S1), int(S1)] == 1

    def test_uniform_weights_equal_plain_accuracy(self):
        insts = [instance([S0, S1, S2]), instance([S1, S0])]
        preds = [[S0, S2, S2], [S1, S1]]
        table = np.ones((16, 3))
        report = evaluate(preds, insts, table)
        assert report.weighted_accuracy == pytest.approx(report.accuracy,
                                                         abs=1e-12)

    def test_weighted_accuracy_formula(self):
        insts = [instance([S0, S1], tags=["iy", "ax"])]
        preds = [[S0, S0]]
        table = np.ones((16, 3))
        from stressnet.lexicon import TAG_TO_INDEX
        table[TAG_TO_INDEX["iy"], int(S0)] = 0.5
        table[TAG_TO_INDEX["ax"], int(S1)] = 0.25
        report = evaluate(preds, insts, table)
        # correct mass 0.5, total mass 0.75
        assert report.weighted_accuracy == pytest.approx(0.5 / 0.75)

    def test_confusion_trace_equals_accuracy(self):
        rng = np.random.default_rng(0)
        insts, preds = [], []
        for _ in range(30):
            n = int(rng.integers(2, 6))
            labels = [StressLevel(int(x)) for x in rng.integers(0, 3, n)]
            tags = [NUCLEUS_TAGS[int(t)] for t in rng.integers(0, 16, n)]
            insts.append(instance(labels, tags))
            preds.append([StressLevel(int(x)) for x in rng.integers(0, 3, n)])
        report = evaluate(preds, insts)
        assert report.accuracy == np.trace(report.confusion) / report.n_syllables

    def test_per_type_sums_to_overall(self):
        rng = np.random.default_rng(1)
        insts, preds = [], []
        for _ in range(20):
            n = int(rng.integers(2, 7))
            labels = [StressLevel(int(x)) for x in rng.integers(0, 3, n)]
            tags = [NUCLEUS_TAGS[int(t)] for t in rng.integers(0, 16, n)]
            insts.append(instance(labels, tags))
            preds.append([StressLevel(int(x)) for x in rng.integers(0, 3, n)])
        report = evaluate(preds, insts)
        total = sum(report.per_type_confusion.values())
        assert np.array_equal(total, report.confusion)

    def test_misaligned_predictions(self):
        insts = [instance([S0, S1])]
        with pytest.raises(AlignmentError):
            evaluate([[S0]], insts)
        with pytest.raises(AlignmentError):
            evaluate([], insts)


class TestPca:
    def params_with_embeddings(self, E):
        full = np.zeros((PAD_TYPE_INDEX + 1, E.shape[1]))
        full[:16] = E
        return {"E_type": full}

    def test_planar_embeddings_third_variance_zero(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(0, 1, (2, 5))
        coords = rng.normal(0, 1, (16, 2))
        E = coords @ basis
        proj = pca_type_embeddings(self.params_with_embeddings(E))
        assert proj.explained_variance[2] == pytest.approx(0.0, abs=1e-9)

    def test_orthonormal_components_descending_variance(self):
        rng = np.random.default_rng(3)
        E = rng.normal(0, 1, (16, 6))
        proj = pca_type_embeddings(self.params_with_embeddings(E))
        gram = proj.components.T @ proj.components
        assert np.allclose(gram, np.eye(3), atol=1e-9)
        v = proj.explained_variance
        assert v[0] >= v[1] >= v[2] >= 0

    def test_full_reconstruction(self):
        rng = np.random.default_rng(4)
        D = 4
        E = rng.normal(0, 1, (16, D))
        proj = pca_type_embeddings(self.params_with_embeddings(E),
                                   n_components=D)
        centered = E - E.mean(axis=0)
        coords = np.stack([proj.points[t] for t in NUCLEUS_TAGS])
        rebuilt = coords @ proj.components.T
        assert np.allclose(rebuilt, centered, atol=1e-9)

    def test_duplicate_rows_identical_points(self):
        rng = np.random.default_rng(5)
        E = rng.normal(0, 1, (16, 5))
        E[7] = E[3]
        proj = pca_type_embeddings(self.params_with_embeddings(E))
        assert np.allclose(proj.points[NUCLEUS_TAGS[7]],
                           proj.points[NUCLEUS_TAGS[3]], atol=1e-12)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(6)
        E = rng.normal(0, 1, (16, 5))
        p1 = pca_type_embeddings(self.params_with_embeddings(E))
        p2 = pca_type_embeddings(self.params_with_embeddings(E.copy()))
        for tag in NUCLEUS_TAGS:
            assert np.array_equal(p1.points[tag], p2.points[tag])
        for j in range(3):
            k = int(np.argmax(np.abs(p1.components[:, j])))
            assert p1.components[k, j] > 0

    def test_insufficient_dimensions(self):
        E = np.zeros((16, 2))
        with pytest.raises(InsufficientDimensions):
            pca_type_embeddings(self.params_with_embeddings(E))

    def test_missing_type_embeddings(self):
        with pytest.raises(InsufficientDimensions):
            pca_type_embeddings({"E_pos": np.zeros((17, 5))})


class TestRenderReport:
    def report(self):
        insts = [instance([S0, S1, S2], tags=["iy", "ax", "er"])]
        preds = [[S0, S1, S1]]
        return evaluate(preds, insts, np.ones((16, 3)))

    def test_json_round_trip(self):
        report = self.report()
        doc = json.loads(render_report(report, "json"))
        assert doc["accuracy"] == report.accuracy
        assert doc["weighted_accuracy"] == report.weighted_accuracy
        assert doc["confusion"] == report.confusion.tolist()
        assert doc["per_type_confusion"] == {
            tag: m.tolist() for tag, m in report.per_type_confusion.items()}
        assert doc["n_syllables"] == report.n_syllables
        assert doc["n_words"] == report.n_words

    def test_text_cells_match_counts(self):
        report = self.report()
        text = render_report(report, "text")
        assert "accuracy" in text
        # the confusion row for the real primary-stress label
        row = [ln for ln in text.splitlines()
               if ln.strip().startswith("Primary")][0]
        assert row.split()[-2:] == ["1", "0"]

    def test_empty_per_type_note(self):
        report = EvalReport(1.0, None, np.zeros((3, 3), dtype=np.int64),
                            {}, 0, 0)
        text = render_report(report, "text")
        assert "no per-type counts" in text

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            render_report(self.report(), "yaml")
