import numpy as np
import pytest

from queryboost.calibration import (CalibrationConfig, FeedbackSets, RocchioWeights,
                                    build_feedback_sets, calibrate, rocchio_classic)
from queryboost.corpus import Document
from queryboost.generation import ReferenceSet
from queryboost.rerank import embed_contex_pool, rerank


def make_refs(*texts, query="q"):
    return ReferenceSet("q1", query, tuple(texts), "m")


class TestRocchioClassic:
    def test_identity_weights(self):
        e = np.array([1.0, 2.0])
        out = rocchio_classic(e, [], [], RocchioWeights(1, 0, 0))
        np.testing.assert_array_equal(out, e)

    def test_pure_positive(self):
        v = np.array([3.0, 4.0])
        out = rocchio_classic(np.zeros(2), [v], [], RocchioWeights(0, 1, 0))
        np.testing.assert_array_equal(out, v)

    def test_hand_arithmetic(self):
        out = rocchio_classic(np.array([1.0, 0.0]),
                              [np.array([0.0, 1.0])], [np.array([1.0, 0.0])],
                              RocchioWeights(1, 0.5, 0.5))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_empty_set_with_weight_rejected(self):
        with pytest.raises(ValueError):
            rocchio_classic(np.zeros(2), [], [], RocchioWeights(1, 0.5, 0))
        with pytest.raises(ValueError):
            rocchio_classic(np.zeros(2), [np.ones(2)], [], RocchioWeights(1, 0, 0.5))


def _store(*docs):
    return {d.doc_id: d for d in docs}


class TestBuildFeedbackSets:
    def test_reciprocal_intersection(self):
        docs = _store(*[Document(f"d{i}", "", f"text {i}") for i in range(1, 6)])
        i_bm25 = [("d1", 5.0), ("d2", 4.0), ("d3", 3.0)]
        i_pre = [("d3", 0.9), ("d5", 0.8), ("d1", 0.7)]
        cfg = CalibrationConfig(k_reciprocal=3, num_negatives=0)
        fb = build_feedback_sets(i_bm25, i_pre, make_refs("r"), docs, cfg)
        # reciprocal docs ordered by dense rank: d3 then d1
        assert fb.positives == ("r", "text 3", "text 1")

    def test_k1_disjoint_top_gives_refs_only(self):
        docs = _store(Document("d1", "", "a"), Document("d2", "", "b"))
        i_bm25 = [("d1", 2.0), ("d2", 1.0)]
        i_pre = [("d2", 0.9), ("d1", 0.1)]
        cfg = CalibrationConfig(k_reciprocal=1, num_negatives=0)
        fb = build_feedback_sets(i_bm25, i_pre, make_refs("r1", "r2"), docs, cfg)
        assert fb.positives == ("r1", "r2")
        assert fb.negatives == ()

    def test_w_counts_both_sides(self):
        docs = _store(*[Document(f"d{i}", "", f"t{i}") for i in range(10)])
        i_bm25 = [(f"d{i}", 10.0 - i) for i in range(10)]
        i_pre = list(i_bm25)
        cfg = CalibrationConfig(k_reciprocal=2, num_negatives=5)
        fb = build_feedback_sets(i_bm25, i_pre,
                                 make_refs("r1", "r2", "r3", "r4", "r5"), docs, cfg)
        assert len(fb.positives) == 5 + 2
        assert len(fb.negatives) == 5
        assert fb.w == 12

    def test_short_ranking_uses_available_tail(self):
        docs = _store(Document("d1", "", "a"), Document("d2", "", "b"))
        i_bm25 = [("d1", 2.0), ("d2", 1.0)]
        cfg = CalibrationConfig(k_reciprocal=1, num_negatives=5)
        fb = build_feedback_sets(i_bm25, i_bm25, make_refs("r"), docs, cfg)
        # d1 is reciprocal (positive), so only d2 remains a negative
        assert fb.negatives == ("b",)

    def test_positive_wins_over_negative_tail(self):
        docs = _store(Document("d1", "", "a"))
        i_bm25 = [("d1", 1.0)]
        cfg = CalibrationConfig(k_reciprocal=1, num_negatives=1)
        fb = build_feedback_sets(i_bm25, i_bm25, make_refs("r"), docs, cfg)
        assert "a" in fb.positives
        assert fb.negatives == ()

    def test_empty_bm25_rejected(self):
        with pytest.raises(ValueError):
            build_feedback_sets([], [], make_refs("r"), {}, CalibrationConfig())

    def test_k_zero_rejected_by_config(self):
        with pytest.raises(ValueError):
            CalibrationConfig(k_reciprocal=0)


class TestCalibrate:
    def test_alpha_zero_counts_negative_in_w(self, embedder):
        fb = FeedbackSets(positives=("r1 text",), negatives=("n1 text",))
        cfg = CalibrationConfig(alpha=0.0, k_reciprocal=1, num_negatives=1)
        out = calibrate(embedder, "q", fb, cfg)
        np.testing.assert_allclose(out, embedder.embed("q r1 text") / 2, atol=1e-12)

    def test_no_negatives_single_positive(self, embedder):
        fb = FeedbackSets(positives=("r1 text",), negatives=())
        out = calibrate(embedder, "q", fb, CalibrationConfig(alpha=0.2))
        np.testing.assert_allclose(out, embedder.embed("q r1 text"), atol=1e-12)

    def test_hand_evaluated_combination(self, embedder):
        fb = FeedbackSets(positives=("pos one", "pos two"), negatives=("neg text",))
        cfg = CalibrationConfig(alpha=0.2)
        out = calibrate(embedder, "q", fb, cfg)
        expected = (embedder.embed("q pos one") + embedder.embed("q pos two")
                    - 0.2 * embedder.embed("neg text")) / 3
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_alpha_zero_is_scaled_positive_mean(self, embedder):
        fb = FeedbackSets(positives=("p one", "p two", "p three"),
                          negatives=("n1", "n2"))
        out = calibrate(embedder, "q", fb, CalibrationConfig(alpha=0.0))
        pos_mean = np.mean([embedder.embed(f"q {p}") for p in fb.positives], axis=0)
        np.testing.assert_allclose(out, (len(fb.positives) / fb.w) * pos_mean,
                                   atol=1e-12)

    def test_positive_order_invariant(self, embedder):
        cfg = CalibrationConfig()
        a = calibrate(embedder, "q", FeedbackSets(("p1", "p2"), ("n",)), cfg)
        b = calibrate(embedder, "q", FeedbackSets(("p2", "p1"), ("n",)), cfg)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_positives_rejected(self):
        with pytest.raises(ValueError):
            FeedbackSets(positives=(), negatives=("n",))


class TestFinalRank:
    """The final rank: rerank by the calibrated embedding."""

    def test_reduces_to_pre_rank_with_single_ref(self, embedder):
        docs = [Document("d1", "", "alpha beta"), Document("d2", "", "gamma delta"),
                Document("d3", "", "epsilon zeta")]
        refs = make_refs("alpha context")
        q_emb = embed_contex_pool(embedder, "q", refs)
        i_pre = rerank(embedder, q_emb, docs)

        fb = FeedbackSets(positives=refs.references, negatives=())
        calibrated = calibrate(embedder, "q", fb, CalibrationConfig(alpha=0.0))
        i_post = rerank(embedder, calibrated, docs)
        assert i_post == i_pre

    def test_permutation_of_candidates(self, embedder):
        docs = [Document(f"d{i}", "", f"tok{i} cat") for i in range(8)]
        fb = FeedbackSets(positives=("cat here",), negatives=("tok5 cat",))
        calibrated = calibrate(embedder, "q", fb, CalibrationConfig())
        out = rerank(embedder, calibrated, docs)
        assert sorted(d for d, _ in out) == sorted(d.doc_id for d in docs)

    def test_planted_relevant_doc_rises(self, embedder):
        # Distractor shares the query's surface tokens; tail negatives share
        # the distractor's filler, so subtracting them demotes the distractor.
        relevant = Document("rel", "", "kwa kwb kwc kwd")
        distractor = Document("dis", "", "query words filler stuff misc")
        candidates = [relevant, distractor]
        refs = make_refs("kwa kwb kwc", "kwb kwc kwd", query="query words")

        q_emb = embed_contex_pool(embedder, "query words", refs)
        i_pre = rerank(embedder, q_emb, candidates)
        pre_pos = [d for d, _ in i_pre].index("rel")

        fb = FeedbackSets(positives=refs.references,
                          negatives=("filler stuff misc extra", "stuff misc filler"))
        calibrated = calibrate(embedder, "query words", fb,
                               CalibrationConfig(alpha=0.5))
        i_post = rerank(embedder, calibrated, candidates)
        post_pos = [d for d, _ in i_post].index("rel")
        assert post_pos <= pre_pos
        assert post_pos == 0
