"""Antecedent decoding and cluster construction."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl import autodiff as ad
from corefmtl.autodiff import Tensor
from corefmtl.corpus import Mention
from corefmtl.encoder import EncoderConfig, build_vocab
from corefmtl.inference import (
    PREDICT_HEADS,
    PredictionResult,
    build_clusters,
    decode_antecedents,
    predict_document,
    prediction_from_document,
    prediction_to_document,
)
from corefmtl.model import ModelConfig, MtlCorefModel
from corefmtl.spans import SpanCandidate
from corefmtl.synthetic import generate_corpus
from helpers import make_document, spans_to_clusters


def cand(s, e, sent=0):
    return SpanCandidate(s, e, sent)


def score_matrix(rows):
    """(scores, shortlists) from one (antecedents, scores) pair per span:
    the dummy column is 0 and unused slots hold -inf, as the model builds."""
    shortlists = [np.asarray(ants, dtype=np.intp) for ants, _ in rows]
    num_slots = max((len(sl) for sl in shortlists), default=0)
    scores = np.full((len(rows), num_slots + 1), -np.inf)
    scores[:, 0] = 0.0
    for i, (ants, vals) in enumerate(rows):
        scores[i, 1:1 + len(ants)] = vals
    return scores, shortlists


class TestDecodeAntecedents:
    def test_picks_argmax_above_dummy(self):
        rows = [((), ()), ((0,), (1.5,)), ((0, 1), (-1.0, 2.0))]
        assert decode_antecedents(*score_matrix(rows)) == [None, 0, 1]

    def test_all_negative_scores_decode_to_dummy(self):
        rows = [((), ()), ((0,), (-0.25,))]
        assert decode_antecedents(*score_matrix(rows)) == [None, None]

    def test_tie_with_dummy_goes_to_dummy(self):
        rows = [((), ()), ((0,), (0.0,))]
        assert decode_antecedents(*score_matrix(rows)) == [None, None]

    def test_tie_between_antecedents_goes_to_nearer(self):
        rows = [((), ()), ((0,), (0.5,)), ((0, 1), (3.0, 3.0))]
        assert decode_antecedents(*score_matrix(rows))[2] == 1

    def test_empty(self):
        assert decode_antecedents(*score_matrix([])) == []


def brute_force_closure(antecedents):
    """Transitive closure of the predicted links by repeated merging."""
    groups = [{i} for i in range(len(antecedents))]
    for i, j in enumerate(antecedents):
        if j is None:
            continue
        gi = next(g for g in groups if i in g)
        gj = next(g for g in groups if j in g)
        if gi is not gj:
            gi |= gj
            groups.remove(gj)
    return sorted(sorted(g) for g in groups if len(g) >= 2)


class TestBuildClusters:
    def spans(self, n):
        return [cand(i, i) for i in range(n)]

    def test_links_form_transitive_clusters(self):
        ants = [None, 0, None, 1, None]
        pred = build_clusters(ants, self.spans(5), "d")
        assert pred.clusters == [[(0, 0), (1, 1), (3, 3)]]
        assert pred.singletons == []  # no probabilities given

    def test_chain_through_shared_antecedent(self):
        # spans 1 and 2 both link to 0: one cluster of three
        ants = [None, 0, 0]
        pred = build_clusters(ants, self.spans(3), "d")
        assert pred.clusters == [[(0, 0), (1, 1), (2, 2)]]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 10))
    def test_matches_brute_force_closure(self, seed, n):
        rng = np.random.default_rng(seed)
        ants = [None if i == 0 or rng.random() < 0.4
                else int(rng.integers(0, i)) for i in range(n)]
        pred = build_clusters(ants, self.spans(n), "d")
        expected = [[(i, i) for i in g] for g in brute_force_closure(ants)]
        assert pred.clusters == expected

    def test_forward_link_rejected(self):
        with pytest.raises(ValueError, match="not before"):
            build_clusters([1, None], self.spans(2), "d")

    def test_threshold_gates_singletons(self):
        ants = [None, 0, None, None]
        probs = np.array([0.9, 0.1, 0.5, 0.49])
        pred = build_clusters(ants, self.spans(4), "d", singleton_probs=probs,
                              threshold=0.5)
        assert pred.clusters == [[(0, 0), (1, 1)]]
        # clustered spans never become singletons; 0.5 passes, 0.49 fails
        assert pred.singletons == [(2, 2)]

    def test_threshold_above_one_yields_no_singletons(self):
        ants = [None, None]
        probs = np.array([1.0, 1.0])
        pred = build_clusters(ants, self.spans(2), "d", singleton_probs=probs,
                              threshold=2.0)
        assert pred.singletons == []

    def test_threshold_zero_keeps_all_unlinked_spans(self):
        ants = [None, None]
        probs = np.array([0.0, 0.0])
        pred = build_clusters(ants, self.spans(2), "d", singleton_probs=probs,
                              threshold=0.0)
        assert pred.singletons == [(0, 0), (1, 1)]

    def test_type_and_status_argmax(self):
        ants = [None, 0]
        type_logits = np.zeros((2, 10))
        type_logits[0, 5] = 3.0   # person
        type_logits[1, 6] = 3.0   # place
        status_logits = np.zeros((2, 6))
        status_logits[0, 0] = 2.0  # new
        status_logits[1, 1] = 2.0  # given:active
        pred = build_clusters(ants, self.spans(2), "d",
                              type_logits=type_logits, status_logits=status_logits)
        assert pred.mention_types[(0, 0)] == "person"
        assert pred.mention_types[(1, 1)] == "place"
        assert pred.mention_statuses[(0, 0)] == "new"
        assert pred.mention_statuses[(1, 1)] == "given:active"

    def test_mention_spans_dedup_sorted(self):
        pred = PredictionResult("d", clusters=[[(2, 2), (5, 5)]],
                                singletons=[(0, 1)])
        assert pred.mention_spans() == [(0, 1), (2, 2), (5, 5)]


class TestDocumentBridge:
    def doc(self):
        return make_document(
            [["Ana", "saw", "the", "dog", "there"]],
            clusters=spans_to_clusters([(0, 0), (2, 3)]),
            mentions=[Mention(0, 0, "person", "new", 0),
                      Mention(2, 3, "animal", "new", 0),
                      Mention(4, 4, "place", "new")],
            doc_key="t/bridge",
        )

    def test_prediction_to_document_round_trip(self):
        pred = PredictionResult(
            "t/bridge",
            clusters=[[(0, 0), (2, 3)]],
            singletons=[(4, 4)],
            mention_types={(0, 0): "person", (2, 3): "animal", (4, 4): "place"},
            mention_statuses={(0, 0): "new", (2, 3): "new", (4, 4): "new"},
        )
        doc = prediction_to_document(pred, self.doc())
        doc.validate()
        assert doc.gold_clusters == pred.clusters
        assert [m.span for m in doc.gold_mentions] == [(0, 0), (2, 3), (4, 4)]
        back = prediction_from_document(doc)
        assert back.clusters == pred.clusters
        assert back.singletons == pred.singletons
        assert back.mention_types == pred.mention_types

    def test_prediction_from_gold_document_is_faithful(self):
        pred = prediction_from_document(self.doc())
        assert pred.doc_key == "t/bridge"
        assert pred.clusters == [[(0, 0), (2, 3)]]
        assert pred.singletons == [(4, 4)]


def small_model(docs):
    cfg = ModelConfig(encoder=EncoderConfig(dim=32, vocab_size=64, window=1),
                      feature_dim=8, hidden=64, ffnn_depth=1, dropout=0.3,
                      max_span_width=6, top_antecedents=10, genres=("bc", "nw"))
    return MtlCorefModel(cfg, seed=3, vocab=build_vocab(docs, 64), include_aux=True)


def forward_tensors(fp):
    return {name: t for name, t in vars(fp).items() if isinstance(t, Tensor)} | \
        {f"logits/{task}": t for task, t in fp.logits.items()}


def peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class TestTapeFreePrediction:
    def test_no_grad_forward_is_bit_identical_and_holds_no_tape(self):
        docs = generate_corpus(3, seed=5)
        model = small_model(docs)
        for doc in docs:
            taped = model.forward(doc, need_heads=PREDICT_HEADS)
            with ad.no_grad():
                free = model.forward(doc, need_heads=PREDICT_HEADS)
            want, got = forward_tensors(taped), forward_tensors(free)
            assert set(got) == set(want)
            assert {"scores", "combined", "logits/singleton"} <= set(got)
            for name, t in got.items():
                npt.assert_array_equal(t.data, want[name].data, err_msg=name)
                assert want[name].requires_grad
                assert not t.requires_grad, name
                assert t._parents == () and t._backward is None, name

    def test_predict_peak_is_below_half_of_a_taped_forward(self):
        docs = generate_corpus(2, seed=5)
        model = small_model(docs)
        rng = np.random.default_rng(0)
        vocab = model.vocab
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(50)])
        assert doc.num_tokens == 1000
        taped_peak, _ = peak_bytes(model.forward, doc, need_heads=PREDICT_HEADS)
        predict_peak, _ = peak_bytes(predict_document, model, doc)
        assert predict_peak < taped_peak / 2
