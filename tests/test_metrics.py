"""Coreference metrics against independent reference implementations."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl.evaluation import (
    EvaluationError,
    b_cubed_stats,
    ceaf_phi4_stats,
    drop_singletons,
    evaluate,
    format_report,
    markable_detection_prf,
    muc_stats,
    pair_predictions,
    report_to_dict,
    score_b_cubed,
    score_ceaf_phi4,
    score_muc,
)
from corefmtl.corpus import (Mention, PredictionResult, parse_conll,
                             prediction_from_document, prediction_to_document,
                             write_conll)
from helpers import make_document, spans_to_clusters
from oracles import (
    b_cubed_reference,
    ceaf_phi4_by_permutation,
    ceaf_phi4_by_subset_dp,
    muc_reference,
    random_partition,
)

A, B, C = (0, 0), (1, 1), (2, 2)


def spans(n):
    return [(i, i) for i in range(n)]


class TestWorkedExample:
    """Key {{a,b,c}} against response {{a,b},{c}}, every number by hand."""

    KEY = [[A, B, C]]
    RESPONSE = [[A, B], [C]]

    def test_muc(self):
        prf = score_muc(self.KEY, self.RESPONSE)
        npt.assert_allclose(prf.recall, 1 / 2)
        npt.assert_allclose(prf.precision, 1.0)
        npt.assert_allclose(prf.f1, 2 / 3)

    def test_b_cubed(self):
        prf = score_b_cubed(self.KEY, self.RESPONSE)
        npt.assert_allclose(prf.recall, 5 / 9)
        npt.assert_allclose(prf.precision, 1.0)
        npt.assert_allclose(prf.f1, 5 / 7)

    def test_ceaf_phi4(self):
        prf = score_ceaf_phi4(self.KEY, self.RESPONSE)
        npt.assert_allclose(prf.recall, 4 / 5)
        npt.assert_allclose(prf.precision, 2 / 5)
        npt.assert_allclose(prf.f1, 8 / 15)

    def test_oracles_agree_on_it(self):
        npt.assert_allclose(muc_reference(self.KEY, self.RESPONSE),
                            (1.0, 0.5, 2 / 3))
        npt.assert_allclose(b_cubed_reference(self.KEY, self.RESPONSE),
                            (1.0, 5 / 9, 5 / 7))
        npt.assert_allclose(ceaf_phi4_by_permutation(self.KEY, self.RESPONSE),
                            (2 / 5, 4 / 5, 8 / 15))
        npt.assert_allclose(ceaf_phi4_by_subset_dp(self.KEY, self.RESPONSE),
                            (2 / 5, 4 / 5, 8 / 15))


class TestAgainstOracles:
    def test_random_partitions(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            mentions = spans(n)
            key = random_partition(rng, mentions)
            # response over a randomly overlapping mention set
            resp_mentions = [m for m in spans(n + 2) if rng.random() < 0.8]
            response = random_partition(rng, resp_mentions)
            if not response:
                continue
            for stats, oracle in [
                (muc_stats, muc_reference),
                (b_cubed_stats, b_cubed_reference),
                (ceaf_phi4_stats, ceaf_phi4_by_permutation),
                (ceaf_phi4_stats, ceaf_phi4_by_subset_dp),
            ]:
                rn, rd, pn, pd = stats(key, response)
                p = pn / pd if pd else 0.0
                r = rn / rd if rd else 0.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                npt.assert_allclose((p, r, f), oracle(key, response),
                                    atol=1e-12, err_msg=f"{key} vs {response}")

    def test_ceaf_oracles_agree_with_each_other(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mentions = spans(int(rng.integers(2, 8)))
            key = random_partition(rng, mentions)
            response = random_partition(rng, mentions)
            npt.assert_allclose(ceaf_phi4_by_permutation(key, response),
                                ceaf_phi4_by_subset_dp(key, response), atol=1e-12)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=9))
    def test_self_agreement_is_perfect(self, assignment):
        """Scoring a partition against itself gives F1 = 1 for every metric."""
        clusters = {}
        for i, c in enumerate(assignment):
            clusters.setdefault(c, []).append((i, i))
        key = list(clusters.values())
        assert score_b_cubed(key, key).f1 == pytest.approx(1.0)
        assert score_ceaf_phi4(key, key).f1 == pytest.approx(1.0)
        if any(len(c) > 1 for c in key):
            assert score_muc(key, key).f1 == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    def test_swapping_sides_swaps_precision_and_recall(self, n, seed):
        rng = np.random.default_rng(seed)
        key = random_partition(rng, spans(n))
        response = random_partition(rng, spans(n))
        for score in (score_muc, score_b_cubed, score_ceaf_phi4):
            fwd = score(key, response)
            rev = score(response, key)
            assert fwd.precision == pytest.approx(rev.recall)
            assert fwd.recall == pytest.approx(rev.precision)
            assert fwd.f1 == pytest.approx(rev.f1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_scores_are_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        key = random_partition(rng, spans(n))
        response = random_partition(rng, spans(n + 1))
        for score in (score_muc, score_b_cubed, score_ceaf_phi4):
            prf = score(key, response)
            for v in (prf.precision, prf.recall, prf.f1):
                assert 0.0 <= v <= 1.0 + 1e-12


class TestValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(EvaluationError, match="empty cluster"):
            score_muc([[A], []], [[A]])

    def test_shared_mention_rejected(self):
        with pytest.raises(EvaluationError, match="share"):
            score_b_cubed([[A, B], [B, C]], [[A]])

    def test_empty_sides_score_zero(self):
        prf = score_ceaf_phi4([], [])
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)
        prf = score_muc([], [[A, B]])
        assert prf.f1 == 0.0


class TestMentionDetection:
    def test_all_mode_counts_spans(self):
        prf = markable_detection_prf([A, B, C], [A, B, (9, 9)])
        npt.assert_allclose(prf.recall, 2 / 3)
        npt.assert_allclose(prf.precision, 2 / 3)

    def test_coreferent_mode_ignores_singletons(self):
        key_clusters = [[A, B], [C]]
        resp_clusters = [[A, B], [(9, 9)]]
        prf = markable_detection_prf([], [], mode="coreferent",
                                     key_clusters=key_clusters,
                                     response_clusters=resp_clusters)
        assert prf.f1 == pytest.approx(1.0)

    def test_coreferent_mode_requires_clusters(self):
        with pytest.raises(EvaluationError):
            markable_detection_prf([A], [A], mode="coreferent")

    def test_unknown_mode_rejected(self):
        with pytest.raises(EvaluationError, match="mention mode"):
            markable_detection_prf([A], [A], mode="strict")
        # evaluate checks the mode before it reads any document
        with pytest.raises(EvaluationError, match="mention mode"):
            evaluate([], [], mention_mode="bogus")


class TestEvaluate:
    def two_docs(self):
        gold1 = make_document([["a", "b", "c"]],
                              clusters=spans_to_clusters([(0, 0), (1, 1), (2, 2)]),
                              doc_key="t/d1")
        pred1 = make_document([["a", "b", "c"]],
                              clusters=spans_to_clusters([(0, 0), (1, 1)], [(2, 2)]),
                              doc_key="t/d1")
        gold2 = make_document([["x", "y"]],
                              clusters=spans_to_clusters([(0, 0), (1, 1)]),
                              doc_key="t/d2")
        pred2 = make_document([["x", "y"]],
                              clusters=spans_to_clusters([(0, 0), (1, 1)]),
                              doc_key="t/d2")
        return [gold1, gold2], [pred1, pred2]

    def test_pools_statistics_not_f1(self):
        """Pooled MUC differs from the per-document F1 average."""
        gold, pred = self.two_docs()
        report = evaluate(gold, pred, keep_singletons=True)
        # doc1: MUC num/den R 1/2, P 1/1; doc2: R 1/1, P 1/1
        # pooled: R 2/3, P 2/2
        npt.assert_allclose(report.muc.recall, 2 / 3)
        npt.assert_allclose(report.muc.precision, 1.0)
        per_doc_f1 = ((2 / 3) + 1.0) / 2
        assert report.muc.f1 != pytest.approx(per_doc_f1)

    def test_singletons_dropped_by_default(self):
        gold, pred = self.two_docs()
        report = evaluate(gold, pred)
        # pred1 loses its singleton {c}; key1 keeps {a,b,c}
        npt.assert_allclose(report.muc.recall, 2 / 3)
        # B-cubed precision: doc1 mentions a,b both fully inside key -> 2/2
        npt.assert_allclose(report.b_cubed.precision, 1.0)
        assert report.keep_singletons is False

    def test_avg_f1_is_mean_of_three(self):
        gold, pred = self.two_docs()
        report = evaluate(gold, pred, keep_singletons=True)
        expected = (report.muc.f1 + report.b_cubed.f1 + report.ceaf_phi4.f1) / 3
        npt.assert_allclose(report.avg_f1, expected)

    def test_detection_modes(self):
        gold, pred = self.two_docs()
        all_mode = evaluate(gold, pred, keep_singletons=True, mention_mode="all")
        core = evaluate(gold, pred, keep_singletons=True, mention_mode="coreferent")
        # all mode: every span matches
        npt.assert_allclose(all_mode.markable_detection.f1, 1.0)
        # coreferent mode: gold doc1 has 3 coreferent spans, pred only 2
        npt.assert_allclose(core.markable_detection.recall, 4 / 5)
        npt.assert_allclose(core.markable_detection.precision, 1.0)

    def test_doc_key_mismatch_reported(self):
        gold, pred = self.two_docs()
        with pytest.raises(EvaluationError, match="t/d2"):
            evaluate(gold, pred[:1])
        stray = make_document([["q"]], doc_key="t/other")
        with pytest.raises(EvaluationError, match="t/other"):
            evaluate(gold, pred + [stray])

    def singleton_doc(self):
        return make_document(
            [["a", "b", "c"]],
            clusters=spans_to_clusters([(0, 0), (1, 1)]),
            mentions=[Mention(0, 0, cluster_id=0), Mention(1, 1, cluster_id=0),
                      Mention(2, 2)],
            doc_key="t/d1")

    def test_loose_mentions_and_predicted_singletons_score_when_kept(self):
        """A loose gold mention and a predicted singleton are size-1 clusters
        to the metrics, just as the CoNLL writer would render them."""
        gold = self.singleton_doc()
        hit = PredictionResult("t/d1", clusters=[[(0, 0), (1, 1)]],
                               singletons=[(2, 2)])
        miss = PredictionResult("t/d1", clusters=[[(0, 0), (1, 1)]])
        assert evaluate([gold], [hit], keep_singletons=True).avg_f1 == 1.0
        assert evaluate([gold], [miss], keep_singletons=True).avg_f1 < 1.0
        # with singletons dropped, the miss costs nothing
        assert evaluate([gold], [miss]).avg_f1 == 1.0

    def test_in_memory_scores_match_the_conll_route(self):
        gold = self.singleton_doc()
        pred = PredictionResult("t/d1", clusters=[[(0, 0), (2, 2)]],
                                singletons=[(1, 1)])
        direct = evaluate([gold], [pred], keep_singletons=True)
        gold_again = parse_conll(write_conll([gold], include_singletons=True))
        pred_again = parse_conll(write_conll(
            [prediction_to_document(pred, gold)], include_singletons=True))
        via_files = evaluate(gold_again, pred_again, keep_singletons=True)
        for name in ("muc", "b_cubed", "ceaf_phi4"):
            assert getattr(direct, name) == getattr(via_files, name), name

    def test_pairs_follow_gold_order_and_read_documents(self):
        gold, pred = self.two_docs()
        as_result = prediction_from_document(pred[0])
        pairs = pair_predictions(gold, [pred[1], as_result])
        assert [doc.doc_key for doc, _ in pairs] == ["t/d1", "t/d2"]
        assert pairs[0][1] is as_result
        assert pairs[1][1] == prediction_from_document(pred[1])
        with pytest.raises(TypeError):
            pair_predictions(gold, [[(0, 0)]])

    def test_duplicate_prediction_rejected(self):
        gold, pred = self.two_docs()
        with pytest.raises(EvaluationError, match="duplicate"):
            evaluate(gold, pred + [pred[0]])

    def test_report_round_trip_and_format(self):
        gold, pred = self.two_docs()
        report = evaluate(gold, pred)
        d = report_to_dict(report)
        assert d["num_documents"] == 2
        assert d["muc"]["recall"] == report.muc.recall
        text = format_report(report)
        assert "MUC" in text and "CEAF-phi4" in text and "avg F1" in text
        assert f"{report.avg_f1:.4f}" in text


class TestDropSingletons:
    def test_keeps_only_multi_mention_clusters(self):
        clusters = [[A, B], [C], [(5, 6)]]
        assert drop_singletons(clusters) == [[A, B]]

    def test_duplicate_spans_count_once(self):
        assert drop_singletons([[A, A]]) == []
