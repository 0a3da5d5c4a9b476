"""Antecedent decoding and cluster construction."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl import autodiff as ad
from corefmtl import cli
from corefmtl import model as model_module
from corefmtl.autodiff import Tensor
from corefmtl.corpus import (Mention, prediction_from_document, prediction_to_document,
                             write_jsonl)
from corefmtl.encoder import EncoderConfig, build_vocab
from corefmtl.inference import (
    PredictionResult,
    build_clusters,
    decode_antecedents,
    predict_document,
)
from corefmtl.model import ModelConfig, MtlCorefModel
from corefmtl.mtl import HEAD_SIZES, PRESET_WEIGHTS
from corefmtl.spans import SpanCandidate
from corefmtl.synthetic import generate_corpus
from corefmtl.training import TrainConfig, train
from helpers import make_document, pair_index, spans_to_clusters


def cand(s, e):
    return SpanCandidate(s, e)


def score_matrix(rows):
    """(scores, shortlists) from one (antecedents, scores) pair per span:
    the dummy column is 0 and unused slots hold -inf, as the model builds."""
    shortlists = pair_index([np.asarray(ants, dtype=np.intp) for ants, _ in rows])
    scores = np.full((len(rows), shortlists.num_slots + 1), -np.inf)
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
            taped = model.forward(doc, need_heads=tuple(HEAD_SIZES))
            with ad.no_grad():
                free = model.forward(doc, need_heads=tuple(HEAD_SIZES))
            want, got = forward_tensors(taped), forward_tensors(free)
            assert set(got) == set(want)
            assert {"scores", "combined", "logits/singleton"} <= set(got)
            for name, t in got.items():
                npt.assert_array_equal(t.data, want[name].data, err_msg=name)
                assert want[name].requires_grad
                assert not t.requires_grad, name
                assert t._parents == () and t._backward is None, name

    def test_predict_and_taped_forward_peaks_are_bounded(self):
        """Prediction builds no tape and scores in blocks: 2.5 MB on a
        1000-token document, 3.6 MB when the token embeddings lived to the
        end and the coarse merge and the pair scorer's first layer took a
        whole block of rows at a time. A taped
        forward keeps only the blocks' scores of its spans and pairs
        (autodiff.recompute and the tiled FFNN nodes): 1.9 MB, 2.4 MB when
        the heads ran in recomputed blocks, 20.8 MB when the blocks'
        activations waited on the tape."""
        docs = generate_corpus(2, seed=5)
        model = small_model(docs)
        rng = np.random.default_rng(0)
        vocab = model.vocab
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(50)])
        assert doc.num_tokens == 1000
        taped_peak, _ = peak_bytes(model.forward, doc, need_heads=tuple(HEAD_SIZES))
        predict_peak, _ = peak_bytes(predict_document, model, doc)
        assert predict_peak < 5.5e6
        assert taped_peak < 11.0e6

    def test_two_block_predict_peak_is_bounded(self):
        """At hidden 150 and encoder dim 64, a 1400-token document keeps
        more than PAIR_BLOCK spans. Prediction peaks at 2.8 MB: each pair
        block takes the anaphor term of its own anaphors and writes its
        scores into the matrix as it ends, and each head holds one tile's
        hidden layer (autodiff.ffnn_node). It peaked at 3.1 MB when each
        head held a block's hidden layer, and at 4.7 MB when the anaphor
        term of every kept span lived through all pair blocks, the
        blocks' scores were joined at the end and each head ran over every
        kept span at once."""
        docs = generate_corpus(2, seed=5)
        cfg = ModelConfig(encoder=EncoderConfig(dim=64, vocab_size=64, window=1),
                          feature_dim=8, hidden=150, ffnn_depth=1, max_span_width=6,
                          top_antecedents=50, genres=("bc", "nw"))
        model = MtlCorefModel(cfg, seed=3, vocab=build_vocab(docs, 64), include_aux=True)
        rng = np.random.default_rng(0)
        vocab = model.vocab
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(70)])
        assert doc.num_tokens == 1400
        with ad.no_grad():
            assert len(model.forward(doc).kept) > ad.PAIR_BLOCK
        predict_peak, _ = peak_bytes(predict_document, model, doc)
        assert predict_peak < 4.2e6

    def test_short_document_predict_peak_is_bounded(self):
        """At the small model size (encoder dim 32, hidden 64, one hidden
        layer, 20 antecedents), a 50-token prediction peaks at 0.33 MiB:
        the pair scorer works GATHER_ROWS pairs at a time, so its working
        set is one tile's, not one 512-pair block's. It peaked at 0.78 MiB
        when each block's product term and hidden layer were made whole."""
        docs = generate_corpus(2, seed=5)
        cfg = ModelConfig(encoder=EncoderConfig(dim=32, vocab_size=256, window=1),
                          feature_dim=8, hidden=64, ffnn_depth=1, max_span_width=4,
                          prune_ratio=0.8, top_antecedents=20, genres=("bc", "nw"))
        model = MtlCorefModel(cfg, seed=3, vocab=build_vocab(docs, 256), include_aux=True)
        rng = np.random.default_rng(0)
        vocab = model.vocab
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=10)]
                             for _ in range(5)])
        assert doc.num_tokens == 50
        with ad.no_grad():
            fp = model.forward(doc)
        assert sum(len(sl) for sl in fp.shortlists) > ad.PAIR_BLOCK
        del fp
        predict_peak, _ = peak_bytes(predict_document, model, doc)
        assert predict_peak < 0.5 * 2 ** 20

    def test_long_document_predict_peak_is_bounded(self):
        """A 6000-token document peaks at 8.0 MB: the candidate spans are
        three int arrays, the coarse shortlist scores a block of anaphors
        a column block at a time and merges its running top k a chunk of
        rows at a time, the pair scorer's first layer gathers a chunk of
        pairs at a time, and the token embeddings are dropped once the
        kept spans are represented. With those three transients as large
        as a block it peaked at 11.9 MB; with a SpanCandidate per span and
        an (anaphor block x kept) block of coarse scores, at 29.0 MB."""
        docs = generate_corpus(2, seed=5)
        model = small_model(docs)
        rng = np.random.default_rng(0)
        vocab = model.vocab
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(300)])
        assert doc.num_tokens == 6000
        predict_peak, _ = peak_bytes(predict_document, model, doc)
        assert predict_peak < 10.0e6


def decoded(fp, doc):
    """The prediction predict_document makes from a forward pass."""
    logits = {task: t.data for task, t in fp.logits.items()}
    ex = np.exp(logits["singleton"] - logits["singleton"].max(axis=1, keepdims=True))
    return build_clusters(decode_antecedents(fp.scores.data, fp.shortlists),
                          fp.kept_spans, doc.doc_key, ex[:, 1] / ex.sum(axis=1),
                          logits["entity_type"], logits["info_status"])


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name from here on."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestBlockedPrediction:
    BLOCK = 3

    def test_blocks_agree_with_the_taped_forward(self, monkeypatch):
        docs = generate_corpus(3, seed=5)
        model = small_model(docs)
        doc = max(docs, key=lambda d: d.num_tokens)
        monkeypatch.setattr(ad, "PAIR_BLOCK", self.BLOCK)
        span_calls = counting(monkeypatch, model_module, "represent_spans")
        pair_calls = counting(monkeypatch, ad, "pair_scorer")
        taped = model.forward(doc, need_heads=tuple(HEAD_SIZES))
        taped_calls = (len(span_calls), len(pair_calls))
        with ad.no_grad():
            free = model.forward(doc, need_heads=tuple(HEAD_SIZES))

        n_pairs = sum(len(sl) for sl in free.shortlists)
        assert min(len(free.spans), len(free.kept), n_pairs) > 5 * self.BLOCK
        # both passes: one call per span block, then one for the kept spans,
        # and one pair scorer node per pair block
        calls = (-(-len(free.spans) // self.BLOCK) + 1, -(-n_pairs // self.BLOCK))
        assert taped_calls == calls
        assert (len(span_calls), len(pair_calls)) == tuple(2 * n for n in calls)

        npt.assert_array_equal(free.kept, taped.kept)
        assert len(free.shortlists) == len(taped.shortlists)
        for got, want in zip(free.shortlists, taped.shortlists):
            npt.assert_array_equal(got, want)
        # the recall replay reads a score for every candidate span
        assert free.combined.shape == free.mention.shape == (len(free.spans),)
        want, got = forward_tensors(taped), forward_tensors(free)
        assert set(got) == set(want)
        for name, t in got.items():
            assert not t.requires_grad, name
            npt.assert_array_equal(t.data, want[name].data, err_msg=name)
        assert decoded(free, doc) == decoded(taped, doc)
        assert predict_document(model, doc) == decoded(taped, doc)

    def test_long_document_predicts_in_bounded_memory(self, tmp_path, monkeypatch):
        docs = generate_corpus(2, seed=5)
        cfg = TrainConfig(encoder=EncoderConfig(dim=32, vocab_size=64, window=1),
                          feature_dim=8, hidden=64, ffnn_depth=1, max_span_width=10,
                          steps=1, select="final",
                          task_weights=PRESET_WEIGHTS["sg_ent_infs"])
        result = train(docs, cfg)
        result.checkpoint.save(tmp_path / "model.npz")
        rng = np.random.default_rng(0)
        vocab = result.model.vocab
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(500)])
        assert doc.num_tokens == 10_000
        (tmp_path / "long.jsonl").write_text(write_jsonl([doc]), encoding="utf-8")

        peaks = []

        def measured(*args, **kwargs):
            peak, pred = peak_bytes(predict_document, *args, **kwargs)
            peaks.append(peak)
            return pred

        monkeypatch.setattr(cli, "predict_document", measured)
        assert cli.main(["predict", str(tmp_path / "long.jsonl"),
                         "--checkpoint", str(tmp_path / "model.npz"),
                         "--out", str(tmp_path / "pred.jsonl")]) == 0
        assert len(peaks) == 1
        # 4000 kept spans: a dense (kept x kept) coarse matrix alone is 122 MiB
        assert peaks[0] < 80 * 2 ** 20
