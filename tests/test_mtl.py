"""Task weights, auxiliary labels, and every loss term by hand."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl import autodiff as ad
from corefmtl.autodiff import ParameterStore, Tensor
from corefmtl.corpus import ENTITY_TYPES, INFO_STATUSES, Mention
from corefmtl.mtl import (
    HEAD_LABELS,
    HEAD_SIZES,
    PRESET_WEIGHTS,
    TaskWeights,
    assign_aux_labels,
    aux_losses,
    coref_loss_from_matrix,
    create_head_params,
    cross_entropy,
    gold_antecedent_mask,
    head_logits,
    mention_labels,
    mention_scorer_loss,
    total_loss,
)
from helpers import (make_document, pair_index, random_shortlisted_document, span_set,
                     spans_to_clusters)
from oracles import gold_mask_reference, random_partition


def one_sentence(*spans):
    """The SpanSet of (start, end) pairs."""
    return span_set(spans)


class TestTaskWeights:
    def test_defaults_are_coref_only(self):
        w = TaskWeights()
        assert w.as_dict() == {"coref": 1.0, "singleton": 0.0,
                               "entity_type": 0.0, "info_status": 0.0}

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="singleton"):
            TaskWeights(1.0, -0.1, 0.0, 0.0)

    def test_zero_coref_rejected(self):
        with pytest.raises(ValueError, match="coreference"):
            TaskWeights(0.0, 1.0, 0.0, 0.0)

    def test_every_auxiliary_task_has_a_head(self):
        assert set(HEAD_SIZES) | {"coref"} == set(TaskWeights().as_dict())
        assert {task: HEAD_SIZES[task] for task in HEAD_LABELS} == {
            "entity_type": len(ENTITY_TYPES), "info_status": len(INFO_STATUSES)}

    @pytest.mark.parametrize("weights,tasks", [
        (TaskWeights(), ()),
        (PRESET_WEIGHTS["sg"], ("singleton",)),
        (PRESET_WEIGHTS["sg_ent"], ("singleton", "entity_type")),
        (PRESET_WEIGHTS["sg_ent_infs"], ("singleton", "entity_type", "info_status")),
        (TaskWeights(1.0, 0.0, 0.0, 0.3), ("info_status",)),
    ])
    def test_aux_tasks_are_the_positive_weights(self, weights, tasks):
        assert weights.aux_tasks() == tasks

    def test_presets(self):
        assert PRESET_WEIGHTS["baseline"] == TaskWeights(1.0, 0.0, 0.0, 0.0)
        assert PRESET_WEIGHTS["sg"] == TaskWeights(0.5, 0.5, 0.0, 0.0)
        assert PRESET_WEIGHTS["sg_ent"] == TaskWeights(0.4, 0.2, 0.2, 0.0)
        assert PRESET_WEIGHTS["sg_ent_infs"] == TaskWeights(0.55, 0.15, 0.15, 0.15)


class TestAssignAuxLabels:
    def doc(self):
        return make_document(
            [["Ana", "likes", "the", "park", "today"]],
            clusters=spans_to_clusters([(0, 0), (2, 3)]),
            mentions=[
                Mention(0, 0, "person", "new", cluster_id=0),
                Mention(2, 3, "place", "given:active", cluster_id=0),
                Mention(4, 4),  # singleton with unknown labels
            ],
        )

    def test_exact_span_matching(self):
        kept = one_sentence((0, 0), (0, 1), (2, 3), (4, 4))
        labels = assign_aux_labels(kept, self.doc())
        assert list(labels) == list(HEAD_SIZES)
        npt.assert_array_equal(labels["singleton"], [1, 0, 1, 1])
        assert labels["entity_type"][0] == ENTITY_TYPES.index("person")
        assert labels["entity_type"][1] == -1
        assert labels["entity_type"][2] == ENTITY_TYPES.index("place")
        assert labels["entity_type"][3] == -1  # unknown stays excluded
        assert labels["info_status"][2] == INFO_STATUSES.index("given:active")
        assert labels["info_status"][3] == -1

    def test_partial_overlap_is_not_a_match(self):
        labels = assign_aux_labels(one_sentence((2, 2), (3, 3), (2, 4)), self.doc())
        npt.assert_array_equal(labels["singleton"], [0, 0, 0])


class TestMentionScorerLoss:
    def test_labels_match_gold_spans_exactly(self):
        spans = one_sentence((0, 0), (0, 1), (2, 3), (3, 3), (4, 4))
        labels = mention_labels(spans, TestAssignAuxLabels().doc())
        npt.assert_array_equal(labels, [1, 0, 1, 0, 1])

    def test_mean_logistic_loss_and_gradient(self):
        scores = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
        labels = np.array([1, 0, 0])
        loss = mention_scorer_loss(scores, labels)
        per_span = np.log1p(np.exp(scores.data)) - labels * scores.data
        npt.assert_allclose(loss.item(), per_span.mean(), rtol=1e-12)
        loss.backward()
        sigmoid = 1.0 / (1.0 + np.exp(-scores.data))
        npt.assert_allclose(scores.grad, (sigmoid - labels) / 3, rtol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        logits = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=int))
        npt.assert_allclose(loss.item(), math.log(10), rtol=1e-12)
        logits2 = Tensor(np.full((3, 2), 7.5), requires_grad=True)
        loss2 = cross_entropy(logits2, np.array([0, 1, 1]))
        npt.assert_allclose(loss2.item(), math.log(2), rtol=1e-12)

    def test_masked_rows_are_excluded(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 0.0]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, -1]))
        expected = math.log(1 + math.exp(-10.0))
        npt.assert_allclose(loss.item(), expected, rtol=1e-10)
        loss.backward()
        npt.assert_array_equal(logits.grad[1], [0.0, 0.0])

    def test_all_masked_is_exactly_zero(self):
        logits = Tensor(np.ones((3, 6)), requires_grad=True)
        loss = cross_entropy(logits, np.array([-1, -1, -1]))
        assert loss.item() == 0.0

    def test_mean_over_kept_rows(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 3.0], [9.0, 9.0]]))
        labels = np.array([0, 1, -1])
        per_row = [math.log(1 + math.exp(-2.0)), math.log(1 + math.exp(-3.0))]
        loss = cross_entropy(logits, labels)
        npt.assert_allclose(loss.item(), sum(per_row) / 2, rtol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        soft = np.exp(logits.data[0]) / np.exp(logits.data[0]).sum()
        soft[1] -= 1.0
        npt.assert_allclose(logits.grad[0], soft, rtol=1e-12)


class TestGoldAntecedentMask:
    def setup_spans(self):
        kept = one_sentence((0, 0), (1, 1), (2, 2), (3, 3))
        shortlists = pair_index([[], [0], [0, 1], [1, 2]])
        return kept, shortlists

    def test_marks_surviving_gold_antecedents(self):
        kept, shortlists = self.setup_spans()
        clusters = [[(0, 0), (2, 2), (3, 3)]]
        mask = gold_antecedent_mask(kept, shortlists, clusters, num_slots=2)
        assert mask.shape == (4, 3)
        npt.assert_array_equal(mask[0], [True, False, False])   # first span: dummy
        npt.assert_array_equal(mask[1], [True, False, False])   # not a mention
        npt.assert_array_equal(mask[2], [False, True, False])   # antecedent 0
        npt.assert_array_equal(mask[3], [False, False, True])   # antecedent 2

    def test_dummy_when_gold_antecedent_pruned_from_shortlist(self):
        kept, shortlists = self.setup_spans()
        # span 3's only gold partner is 0, which its shortlist lacks
        clusters = [[(0, 0), (3, 3)]]
        mask = gold_antecedent_mask(kept, shortlists, clusters, num_slots=2)
        npt.assert_array_equal(mask[3], [True, False, False])

    def test_exactly_one_region_per_row(self):
        kept, shortlists = self.setup_spans()
        clusters = [[(0, 0), (2, 2)], [(1, 1), (3, 3)]]
        mask = gold_antecedent_mask(kept, shortlists, clusters, num_slots=2)
        for i in range(4):
            assert mask[i].any()
            assert not (mask[i, 0] and mask[i, 1:].any())


class TestGoldMaskAgainstPairLoop:
    def check(self, kept, shortlists, clusters, num_slots):
        mask = gold_antecedent_mask(kept, shortlists, clusters, num_slots)
        assert mask.dtype == bool
        want = gold_mask_reference(kept, shortlists, clusters, num_slots)
        npt.assert_array_equal(mask, np.array(want, dtype=bool).reshape(mask.shape))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_shortlists(self, seed):
        rng = np.random.default_rng(seed)
        doc, kept, shortlists = random_shortlisted_document(rng)
        # gold mentions: some kept spans plus spans that were not kept
        spans = sorted({c.span for c in kept if rng.random() < 0.6}
                       | {(int(t), int(t)) for t in rng.integers(doc.num_tokens, size=2)})
        clusters = random_partition(rng, spans)
        num_slots = max(len(sl) for sl in shortlists) + int(rng.integers(0, 2))
        self.check(kept, shortlists, clusters, num_slots)

    def test_single_kept_span(self):
        self.check(one_sentence((0, 1)), pair_index([[]]), [[(0, 1), (3, 3)]], 0)

    def test_all_shortlists_empty(self):
        kept = one_sentence((0, 0), (1, 1), (2, 2))
        self.check(kept, pair_index([[]] * 3), [[(0, 0), (2, 2)]], 2)


def antecedent_scores(rows):
    """Score matrix, shortlists and kept spans (span i is token i) from one
    tuple of antecedent scores per span; span i's shortlist is 0..i-1."""
    n = len(rows)
    scores = np.full((n, max(n - 1, 0) + 1), -np.inf)
    scores[:, 0] = 0.0
    for i, vals in enumerate(rows):
        scores[i, 1:1 + i] = vals
    shortlists = pair_index([np.arange(i, dtype=np.intp) for i in range(n)])
    return scores, shortlists, one_sentence(*[(i, i) for i in range(n)])


def matrix_loss(rows, clusters):
    """coref_loss_from_matrix with gold clusters given as span indices."""
    scores, shortlists, kept = antecedent_scores(rows)
    span_clusters = [[(i, i) for i in c] for c in clusters]
    mask = gold_antecedent_mask(kept, shortlists, span_clusters,
                                scores.shape[1] - 1)
    return coref_loss_from_matrix(ad.constant(scores), mask).item()


class TestCorefLoss:
    def test_hand_computed_two_span_case(self):
        # span 1 has one antecedent (span 0, score 2.0) and the dummy (0.0);
        # gold links them, so loss = log(e^0 + e^2) - 2
        expected = math.log(1 + math.exp(2.0)) - 2.0
        got = matrix_loss([(), (2.0,)], [[0, 1]])
        npt.assert_allclose(got, expected, rtol=1e-12)
        # span 0 contributes 0: its only option is the dummy, which is gold

    def test_non_mention_prefers_dummy(self):
        # no gold clusters: both spans' gold is the dummy
        expected = math.log(1 + math.exp(-1.0))
        npt.assert_allclose(matrix_loss([(), (-1.0,)], []), expected, rtol=1e-12)

    def test_multiple_gold_antecedents_marginalize(self):
        loss = matrix_loss([(), (0.5,), (1.0, 2.0)], [[0, 1, 2]])
        span1 = math.log(1 + math.exp(0.5)) - 0.5
        denom2 = math.log(1 + math.exp(1.0) + math.exp(2.0))
        numer2 = math.log(math.exp(1.0) + math.exp(2.0))
        npt.assert_allclose(loss, span1 + (denom2 - numer2), rtol=1e-12)

    def test_perfectly_confident_model_approaches_zero(self):
        assert matrix_loss([(), (50.0,)], [[0, 1]]) < 1e-6

    def test_empty_rows(self):
        assert matrix_loss([], []) == 0.0

    def test_matrix_form_matches_row_form(self):
        # the matrix loss against a span-by-span sum written out with math
        rng = np.random.default_rng(0)
        n = 5
        rows = [tuple(rng.normal(size=i)) for i in range(n)]
        clusters = [[0, 2, 4], [1, 3]]
        cluster_of = {i: ci for ci, c in enumerate(clusters) for i in c}
        by_rows = 0.0
        for i, vals in enumerate(rows):
            gold = [v for j, v in enumerate(vals) if cluster_of[j] == cluster_of[i]]
            denom = math.log(1.0 + sum(math.exp(v) for v in vals))
            numer = math.log(sum(math.exp(v) for v in gold)) if gold else 0.0
            by_rows += denom - numer
        npt.assert_allclose(matrix_loss(rows, clusters), by_rows, rtol=1e-12)

    def test_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            coref_loss_from_matrix(ad.constant(np.zeros((2, 3))),
                                   np.zeros((2, 2), dtype=bool))


class TestHeads:
    def test_fresh_heads_are_uniform(self):
        store = ParameterStore(4)
        create_head_params(store, g_dim=7, hidden=5)
        g = Tensor(np.random.default_rng(1).normal(size=(6, 7)))
        logits = head_logits(g, store)
        assert set(logits) == {"singleton", "entity_type", "info_status"}
        assert logits["singleton"].shape == (6, 2)
        assert logits["entity_type"].shape == (6, 10)
        assert logits["info_status"].shape == (6, 6)
        for t in logits.values():
            npt.assert_array_equal(t.data, 0.0)

    def test_initial_losses_are_log_class_counts(self):
        store = ParameterStore(4)
        create_head_params(store, g_dim=7, hidden=5)
        g = Tensor(np.random.default_rng(1).normal(size=(6, 7)))
        logits = head_logits(g, store)
        labels = {
            "singleton": np.array([1, 0, 1, 0, 0, 1]),
            "entity_type": np.array([0, -1, 3, -1, -1, 9]),
            "info_status": np.array([-1, -1, 2, -1, -1, -1]),
        }
        losses = aux_losses(logits, labels)
        npt.assert_allclose(losses["singleton"].item(), math.log(2), rtol=1e-12)
        npt.assert_allclose(losses["entity_type"].item(), math.log(10), rtol=1e-12)
        npt.assert_allclose(losses["info_status"].item(), math.log(6), rtol=1e-12)


class TestTotalLoss:
    def parts(self):
        return {
            "coref": ad.constant(2.0),
            "singleton": ad.constant(3.0),
            "entity_type": ad.constant(5.0),
            "info_status": ad.constant(7.0),
        }

    def test_weighted_sum(self):
        w = TaskWeights(0.55, 0.15, 0.15, 0.15)
        total = total_loss(self.parts(), w)
        npt.assert_allclose(total.item(),
                            0.55 * 2 + 0.15 * 3 + 0.15 * 5 + 0.15 * 7, rtol=1e-12)

    def test_unit_losses_under_sg_ent(self):
        ones = {k: ad.constant(1.0) for k in self.parts()}
        total = total_loss(ones, TaskWeights(0.4, 0.2, 0.2, 0.0))
        npt.assert_allclose(total.item(), 0.8, rtol=1e-12)

    def test_sg_ent_infs_on_2111(self):
        parts = {"coref": ad.constant(2.0), "singleton": ad.constant(1.0),
                 "entity_type": ad.constant(1.0), "info_status": ad.constant(1.0)}
        total = total_loss(parts, TaskWeights(0.55, 0.15, 0.15, 0.15))
        npt.assert_allclose(total.item(), 1.55, rtol=1e-12)

    def test_zero_weight_graphs_not_required(self):
        total = total_loss({"coref": ad.constant(2.0)}, TaskWeights())
        npt.assert_allclose(total.item(), 2.0)

    def test_missing_weighted_task_raises(self):
        with pytest.raises(KeyError, match="singleton"):
            total_loss({"coref": ad.constant(1.0)}, TaskWeights(0.5, 0.5, 0, 0))

    def test_gradient_carries_the_weights(self):
        coref = Tensor(np.array(1.0), requires_grad=True)
        single = Tensor(np.array(1.0), requires_grad=True)
        total = total_loss({"coref": coref, "singleton": single},
                           TaskWeights(0.8, 0.2, 0.0, 0.0))
        total.backward()
        npt.assert_allclose(coref.grad, 0.8)
        npt.assert_allclose(single.grad, 0.2)
