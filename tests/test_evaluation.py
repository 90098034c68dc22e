import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Record, pack_records
from stressnet.cli import _write_json
from stressnet.errors import (
    AlignmentError,
    InsufficientDimensions,
    LabelError,
)
from stressnet.evaluation import (
    EvalReport,
    evaluate,
    pca_type_embeddings,
    render_report,
    report_to_dict,
)
from stressnet.lexicon import NUCLEUS_TAGS, PAD_TYPE_INDEX, StressLevel
from oracles import oracle_evaluate, oracle_instances

S0, S1, S2 = StressLevel.NON_STRESS, StressLevel.PRIMARY, StressLevel.SECONDARY


def record(labels, tags=None, utt="u", word="w"):
    tags = tags or ["iy"] * len(labels)
    return Record(utt, word, np.zeros((len(labels), 12)),
                  tags, [int(s) for s in labels])


def flat(preds):
    """Per-word prediction lists as evaluate's one array, in word order."""
    return np.array([int(p) for word in preds for p in word], dtype=np.int64)


class TestEvaluate:
    def test_perfect_predictions(self):
        insts = [record([S0, S1]), record([S2, S0])]
        preds = [[S0, S1], [S2, S0]]
        report = evaluate(flat(preds), pack_records(insts))
        assert report.accuracy == 1.0
        assert np.all(report.confusion == np.diag(np.diag(report.confusion)))
        assert report.n_syllables == 4
        assert report.n_words == 2

    def test_hand_counted_confusion(self):
        insts = [record([S0, S1])]
        preds = [[S1, S1]]
        report = evaluate(flat(preds), pack_records(insts))
        assert report.accuracy == 0.5
        assert report.confusion[int(S0), int(S1)] == 1
        assert report.confusion[int(S1), int(S1)] == 1

    def test_uniform_weights_equal_plain_accuracy(self):
        insts = [record([S0, S1, S2]), record([S1, S0])]
        preds = [[S0, S2, S2], [S1, S1]]
        table = np.ones((16, 3))
        report = evaluate(flat(preds), pack_records(insts), table)
        assert report.weighted_accuracy == pytest.approx(report.accuracy,
                                                         abs=1e-12)

    def test_weighted_accuracy_formula(self):
        insts = [record([S0, S1], tags=["iy", "ax"])]
        preds = [[S0, S0]]
        table = np.ones((16, 3))
        from stressnet.lexicon import TAG_TO_INDEX
        table[TAG_TO_INDEX["iy"], int(S0)] = 0.5
        table[TAG_TO_INDEX["ax"], int(S1)] = 0.25
        report = evaluate(flat(preds), pack_records(insts), table)
        # correct mass 0.5, total mass 0.75
        assert report.weighted_accuracy == pytest.approx(0.5 / 0.75)

    def test_confusion_trace_equals_accuracy(self):
        rng = np.random.default_rng(0)
        insts, preds = [], []
        for _ in range(30):
            n = int(rng.integers(2, 6))
            labels = [StressLevel(int(x)) for x in rng.integers(0, 3, n)]
            tags = [NUCLEUS_TAGS[int(t)] for t in rng.integers(0, 16, n)]
            insts.append(record(labels, tags))
            preds.append([StressLevel(int(x)) for x in rng.integers(0, 3, n)])
        report = evaluate(flat(preds), pack_records(insts))
        assert report.accuracy == np.trace(report.confusion) / report.n_syllables

    def test_per_type_sums_to_overall(self):
        rng = np.random.default_rng(1)
        insts, preds = [], []
        for _ in range(20):
            n = int(rng.integers(2, 7))
            labels = [StressLevel(int(x)) for x in rng.integers(0, 3, n)]
            tags = [NUCLEUS_TAGS[int(t)] for t in rng.integers(0, 16, n)]
            insts.append(record(labels, tags))
            preds.append([StressLevel(int(x)) for x in rng.integers(0, 3, n)])
        report = evaluate(flat(preds), pack_records(insts))
        total = sum(report.per_type_confusion.values())
        assert np.array_equal(total, report.confusion)

    def test_misaligned_predictions(self):
        insts = [record([S0, S1])]
        with pytest.raises(AlignmentError):
            evaluate(flat([[S0]]), pack_records(insts))
        with pytest.raises(AlignmentError):
            evaluate(flat([]), pack_records(insts))
        with pytest.raises(AlignmentError):
            evaluate(flat([[S0, S1, S1]]), pack_records(insts))
        with pytest.raises(AlignmentError):
            evaluate(np.zeros((2, 1), dtype=np.int64), pack_records(insts))
        with pytest.raises(AlignmentError, match="no syllables"):
            evaluate(flat([]), pack_records([]))

    @pytest.mark.parametrize("predicted", [[0, 3], [-1, 0]],
                             ids=["three", "negative"])
    def test_prediction_not_a_stress_level(self, predicted):
        with pytest.raises(LabelError):
            evaluate(np.array(predicted), pack_records([record([S0, S1])]))

    def test_syllable_without_gold_label(self):
        inst = pack_records([Record("u", "w", np.zeros((2, 12)),
                                                ["iy", "iy"], [0, None])])
        with pytest.raises(LabelError):
            evaluate(flat([[S0, S0]]), inst)


# words of 1..17 syllables with any tags and gold labels, and a prediction
# per syllable
words = st.integers(1, 17).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 15), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n)))
# weight tables with zero entries and weights spanning many magnitudes
weight_tables = st.none() | st.lists(
    st.just(0.0) | st.floats(1e-6, 1e3), min_size=48, max_size=48).map(
        lambda ws: np.array(ws).reshape(16, 3))


class TestEvaluateOracle:
    """The bincount evaluate gives the per-syllable loop's report, bit for
    bit, on any words, tags, labels, predictions and weight table."""

    @given(st.lists(words, min_size=1, max_size=25), weight_tables)
    @settings(max_examples=120, deadline=None)
    def test_matches_per_syllable_loop(self, drawn, table):
        recs = [Record("u", f"w{i}", np.zeros((len(tags), 12)),
                       [NUCLEUS_TAGS[t] for t in tags], labels)
                for i, (tags, labels, _) in enumerate(drawn)]
        preds = [pred for _, _, pred in drawn]
        got = evaluate(flat(preds), pack_records(recs), table)
        want = oracle_evaluate(preds, oracle_instances(recs), table)
        assert type(got.accuracy) is float and got.accuracy == want.accuracy
        if want.weighted_accuracy is None:
            assert got.weighted_accuracy is None
        else:
            assert type(got.weighted_accuracy) is float
            assert np.float64(got.weighted_accuracy).tobytes() == \
                np.float64(want.weighted_accuracy).tobytes()
        assert got.confusion.dtype == want.confusion.dtype
        assert np.array_equal(got.confusion, want.confusion)
        assert list(got.per_type_confusion) == list(want.per_type_confusion)
        for tag, m in want.per_type_confusion.items():
            assert got.per_type_confusion[tag].dtype == m.dtype
            assert np.array_equal(got.per_type_confusion[tag], m)
        assert (got.n_syllables, got.n_words) == (want.n_syllables, want.n_words)
        assert (json.dumps(report_to_dict(got), sort_keys=True)
                == json.dumps(report_to_dict(want), sort_keys=True))
        assert render_report(got) == render_report(want)

    def test_all_zero_weights_give_none(self):
        insts = [record([S0, S1, S2])]
        assert evaluate(flat([[S0, S1, S1]]), pack_records(insts),
                        np.zeros((16, 3))).weighted_accuracy is None


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
        insts = [record([S0, S1, S2], tags=["iy", "ax", "er"])]
        preds = [[S0, S1, S1]]
        return evaluate(flat(preds), pack_records(insts), np.ones((16, 3)))

    def test_json_round_trip(self, tmp_path):
        report = self.report()
        _write_json(tmp_path / "report.json", report_to_dict(report))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["accuracy"] == report.accuracy
        assert doc["weighted_accuracy"] == report.weighted_accuracy
        assert doc["confusion"] == report.confusion.tolist()
        assert doc["per_type_confusion"] == {
            tag: m.tolist() for tag, m in report.per_type_confusion.items()}
        assert doc["n_syllables"] == report.n_syllables
        assert doc["n_words"] == report.n_words

    def test_text_cells_match_counts(self):
        report = self.report()
        text = render_report(report)
        assert "accuracy" in text
        # the confusion row for the real primary-stress label
        row = [ln for ln in text.splitlines()
               if ln.strip().startswith("Primary")][0]
        assert row.split()[-2:] == ["1", "0"]

    def test_empty_per_type_note(self):
        report = EvalReport(1.0, None, np.zeros((3, 3), dtype=np.int64),
                            {}, 0, 0)
        text = render_report(report)
        assert "no per-type counts" in text
