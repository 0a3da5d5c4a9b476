"""Span enumeration, representations, pruning, shortlists, pair scores."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl import autodiff as ad
from corefmtl.autodiff import ParameterStore, Tensor, named_rng
from corefmtl.scoring import (
    coarse_scores,
    create_scoring_params,
    pair_features,
    prune_spans,
    score_matrix,
    unary_score_tensors,
)
from corefmtl.spans import (
    NUM_BUCKETS,
    SpanCandidate,
    bucket_index,
    create_span_params,
    enumerate_spans,
    represent_spans,
)
from helpers import make_document

DIM = 6
FEAT = 4
HIDDEN = 8
G_DIM = 3 * DIM + FEAT


def toy_store(seed=3, num_genres=2):
    store = ParameterStore(seed)
    create_span_params(store, DIM, FEAT)
    create_scoring_params(store, G_DIM, HIDDEN, FEAT, num_genres)
    return store


def embeddings_for(doc, seed=0):
    rng = named_rng(seed, "test-embeddings")
    return Tensor(rng.normal(size=(doc.num_tokens, DIM)), requires_grad=True)


class TestBuckets:
    def test_edges(self):
        expected = {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 7: 4, 8: 5, 15: 5,
                    16: 6, 31: 6, 32: 7, 1000: 7}
        for n, b in expected.items():
            assert bucket_index(n) == b
        assert NUM_BUCKETS == 8

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(0)

    @given(st.integers(1, 10_000))
    def test_monotone_and_in_range(self, n):
        b = bucket_index(n)
        assert 0 <= b < NUM_BUCKETS
        assert b <= bucket_index(n + 1)


class TestEnumerateSpans:
    def test_small_document(self):
        doc = make_document([["a", "b"], ["c"]])
        spans = enumerate_spans(doc)
        assert [(s.start, s.end, s.sentence) for s in spans] == [
            (0, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 1)]

    def test_never_crosses_sentences(self):
        doc = make_document([["a"] * 4, ["b"] * 3])
        for s in enumerate_spans(doc):
            assert (s.start < 4) == (s.end < 4)

    def test_width_cap(self):
        doc = make_document([["w"] * 10])
        spans = enumerate_spans(doc, max_span_width=3)
        assert max(s.width for s in spans) == 3
        # n spans of width 1, n-1 of width 2, n-2 of width 3
        assert len(spans) == 10 + 9 + 8

    def test_lexicographic_order(self):
        doc = make_document([["a"] * 5, ["b"] * 4])
        spans = enumerate_spans(doc, max_span_width=4)
        keys = [(s.start, s.end) for s in spans]
        assert keys == sorted(keys)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            enumerate_spans(make_document([["a"]]), max_span_width=0)


class TestSpanRepresentation:
    def test_shape_and_boundary_slots(self):
        doc = make_document([["a", "b", "c", "d"]])
        spans = enumerate_spans(doc, max_span_width=3)
        store = toy_store()
        emb = embeddings_for(doc)
        g, alpha = represent_spans(emb, spans, store)
        assert g.shape == (len(spans), G_DIM)
        starts = [s.start for s in spans]
        ends = [s.end for s in spans]
        npt.assert_array_equal(g.data[:, :DIM], emb.data[starts])
        npt.assert_array_equal(g.data[:, DIM:2 * DIM], emb.data[ends])

    def test_attention_is_a_distribution(self):
        doc = make_document([["a", "b", "c", "d", "e"]])
        spans = enumerate_spans(doc, max_span_width=4)
        store = toy_store()
        g, alpha = represent_spans(embeddings_for(doc), spans, store)
        for row, span in zip(alpha, spans):
            npt.assert_allclose(row[:span.width].sum(), 1.0, rtol=1e-12)
            npt.assert_array_equal(row[span.width:], 0.0)
            assert np.all(row >= 0.0)

    def test_single_token_span_attends_to_itself(self):
        doc = make_document([["only"]])
        store = toy_store()
        _, alpha = represent_spans(embeddings_for(doc), [SpanCandidate(0, 0, 0)],
                                   store)
        npt.assert_allclose(alpha, [[1.0]])

    def test_soft_head_matches_manual_softmax(self):
        doc = make_document([["a", "b", "c"]])
        store = toy_store()
        emb = embeddings_for(doc)
        g, alpha = represent_spans(emb, [SpanCandidate(0, 2, 0)], store)
        scores = emb.data @ store["span/head_score"].data[:, 0]
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        npt.assert_allclose(alpha[0], weights, rtol=1e-12)
        npt.assert_allclose(g.data[0, 2 * DIM:3 * DIM], weights @ emb.data,
                            rtol=1e-12)

    def test_width_feature_uses_buckets(self):
        doc = make_document([["w"] * 8])
        store = toy_store()
        emb = embeddings_for(doc)
        g, _ = represent_spans(emb, [SpanCandidate(0, 4, 0), SpanCandidate(1, 5, 0)],
                               store)
        # widths 5 and 5 share bucket 4
        npt.assert_array_equal(g.data[0, 3 * DIM:], g.data[1, 3 * DIM:])
        npt.assert_array_equal(g.data[0, 3 * DIM:],
                               store["span/width_embedding"].data[4])

    def test_gradients_reach_span_parameters(self):
        doc = make_document([["a", "b", "c", "d"]])
        spans = enumerate_spans(doc, max_span_width=3)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        g.sum().backward()
        assert store["span/head_score"].grad is not None
        assert store["span/width_embedding"].grad is not None
        assert np.all(np.isfinite(store["span/head_score"].grad))

    def test_empty_span_list_rejected(self):
        doc = make_document([["a"]])
        with pytest.raises(ValueError):
            represent_spans(embeddings_for(doc), [], toy_store())


class TestUnaryScores:
    def test_combination_uses_beta(self):
        doc = make_document([["a", "b", "c"]])
        spans = enumerate_spans(doc, max_span_width=2)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        markable, mention, combined = unary_score_tensors(g, store)
        # both betas initialize to 0.5
        npt.assert_allclose(combined.data,
                            0.5 * markable.data + 0.5 * mention.data, rtol=1e-12)
        store["score/beta"].data[:] = [0.25, 2.0]
        _, _, combined2 = unary_score_tensors(g, store)
        npt.assert_allclose(combined2.data,
                            0.25 * markable.data + 2.0 * mention.data, rtol=1e-12)

    def test_two_scorers_are_independent_networks(self):
        doc = make_document([["a", "b", "c"]])
        spans = enumerate_spans(doc, max_span_width=2)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        markable, mention, _ = unary_score_tensors(g, store)
        assert not np.allclose(markable.data, mention.data)

    def test_activation_is_looked_up_when_the_scorers_run(self, monkeypatch):
        """A wrapper installed on autodiff.relu after import, as a tracer
        installs one, sees every hidden layer of both scorers."""
        doc = make_document([["a", "b", "c"]])
        spans = enumerate_spans(doc, max_span_width=2)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        calls = []
        relu = ad.relu
        monkeypatch.setattr(ad, "relu", lambda x: calls.append(x.shape) or relu(x))
        unary_score_tensors(g, store, depth=2)
        assert calls == [(len(spans), HIDDEN)] * 4

    def test_beta_receives_gradient(self):
        doc = make_document([["a", "b"]])
        spans = enumerate_spans(doc)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        _, _, combined = unary_score_tensors(g, store)
        combined.sum().backward()
        assert store["score/beta"].grad is not None
        assert store["score/beta"].grad.shape == (2,)


def cand(s, e, sent=0):
    return SpanCandidate(s, e, sent)


class TestPruneSpans:
    def test_limit_is_ceil_ratio_tokens(self):
        spans = [cand(i, i) for i in range(10)]
        scores = np.arange(10.0)
        kept = prune_spans(scores, spans, num_tokens=10, ratio=0.4)
        assert len(kept) == 4  # ceil(0.4 * 10)
        kept = prune_spans(scores, spans, num_tokens=9, ratio=0.4)
        assert len(kept) == 4  # ceil(3.6)

    def test_keeps_highest_scores_sorted_by_position(self):
        spans = [cand(0, 0), cand(2, 2), cand(4, 4)]
        scores = np.array([1.0, 5.0, 3.0])
        kept = prune_spans(scores, spans, num_tokens=5, ratio=0.4)
        assert kept == [1, 2]  # top two by score, reported in span order

    def test_crossing_span_is_skipped_not_budgeted(self):
        spans = [cand(0, 1), cand(1, 2), cand(3, 3)]
        scores = np.array([5.0, 4.0, 3.0])
        kept = prune_spans(scores, spans, num_tokens=5, ratio=0.4)
        assert kept == [0, 2]

    def test_nested_spans_both_kept(self):
        spans = [cand(0, 3), cand(1, 2)]
        scores = np.array([2.0, 1.0])
        kept = prune_spans(scores, spans, num_tokens=10, ratio=0.4)
        assert kept == [0, 1]

    def test_crossing_free_input_kept_whole(self):
        spans = [cand(0, 0), cand(2, 3), cand(5, 5)]
        scores = np.zeros(3)
        kept = prune_spans(scores, spans, num_tokens=100, ratio=0.4)
        assert kept == [0, 1, 2]

    def test_score_ties_prefer_earlier_span(self):
        spans = [cand(4, 4), cand(0, 0), cand(2, 2)]
        scores = np.zeros(3)
        kept = prune_spans(scores, spans, num_tokens=5, ratio=0.4)
        assert kept == [1, 2]  # spans (0,0) and (2,2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prune_spans(np.zeros(2), [cand(0, 0)], num_tokens=5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 18))
    def test_invariants_on_random_inputs(self, seed, n_tokens):
        rng = np.random.default_rng(seed)
        doc = make_document([["w"] * n_tokens])
        spans = enumerate_spans(doc, max_span_width=5)
        scores = rng.normal(size=len(spans))
        kept = prune_spans(scores, spans, n_tokens, ratio=0.4)
        limit = int(np.ceil(0.4 * n_tokens))
        assert len(kept) <= limit
        positions = [(spans[i].start, spans[i].end) for i in kept]
        assert positions == sorted(positions)
        assert len(set(kept)) == len(kept)
        for a_i, i in enumerate(kept):
            for j in kept[a_i + 1:]:
                a, b = spans[i], spans[j]
                assert not (a.start < b.start <= a.end < b.end)
                assert not (b.start < a.start <= b.end < a.end)


class TestCoarseShortlist:
    def setup_scores(self, n=8, seed=5, top_k=3):
        doc = make_document([["w"] * n])
        spans = [cand(i, i) for i in range(n)]
        store = toy_store(seed)
        emb = embeddings_for(doc, seed)
        g, _ = represent_spans(emb, spans, store)
        _, _, combined = unary_score_tensors(g, store)
        return g, combined, store, coarse_scores(g, combined, store, top_k=top_k)

    def test_matrix_is_strictly_lower_triangular(self):
        _, _, _, (coarse, _) = self.setup_scores()
        n = coarse.shape[0]
        for i in range(n):
            assert np.all(coarse[i, i:] == -np.inf)
            assert np.all(np.isfinite(coarse[i, :i]))

    def test_shortlists_are_earlier_ascending_capped(self):
        _, _, _, (_, shortlists) = self.setup_scores(top_k=3)
        for i, sl in enumerate(shortlists):
            assert len(sl) == min(3, i)
            assert all(0 <= j < i for j in sl)
            assert list(sl) == sorted(sl)

    def test_shortlist_holds_the_top_scoring_antecedents(self):
        _, _, _, (coarse, shortlists) = self.setup_scores(top_k=3)
        for i, sl in enumerate(shortlists):
            if i <= 3:
                continue
            worst_selected = min(coarse[i, j] for j in sl)
            rest = [coarse[i, j] for j in range(i) if j not in set(sl)]
            assert worst_selected >= max(rest)

    def test_ties_select_nearer_antecedents(self):
        g, combined, store, _ = self.setup_scores()
        store["score/coarse_bilinear"].data[:] = 0.0
        flat = Tensor(np.zeros(g.shape[0]))
        _, shortlists = coarse_scores(g, flat, store, top_k=2)
        # every pair ties at 0, so the two nearest must win
        for i, sl in enumerate(shortlists):
            assert list(sl) == list(range(max(0, i - 2), i))

    def test_no_gradient_through_selection(self):
        doc = make_document([["w"] * 4])
        spans = [cand(i, i) for i in range(4)]
        store = toy_store()
        emb = embeddings_for(doc)
        g, _ = represent_spans(emb, spans, store)
        _, _, combined = unary_score_tensors(g, store)
        before = None if store["score/coarse_bilinear"].grad is None else True
        coarse_scores(g, combined, store)
        assert store["score/coarse_bilinear"].grad is before is None


class TestPairFeatures:
    def doc_with_speakers(self):
        return make_document(
            [["a", "b"], ["c", "d"]],
            speakers=[["alice", "alice"], ["bob", "-"]],
        )

    def test_distance_buckets_index_offsets(self):
        doc = self.doc_with_speakers()
        kept = [cand(0, 0, 0), cand(1, 1, 0), cand(2, 2, 1), cand(3, 3, 1)]
        shortlists = [np.array([], dtype=np.intp)] + [
            np.arange(i, dtype=np.intp) for i in range(1, 4)]
        pf = pair_features(kept, doc, shortlists, genre_id=2)
        assert pf.genre_id == 2
        by_pair = {(r, a): d for r, a, d in
                   zip(pf.rows, pf.antecedents, pf.distance_bucket)}
        assert by_pair[(1, 0)] == bucket_index(1)
        assert by_pair[(3, 0)] == bucket_index(3)
        assert by_pair[(3, 2)] == bucket_index(1)

    def test_same_speaker_requires_known_speakers(self):
        doc = self.doc_with_speakers()
        kept = [cand(0, 0, 0), cand(1, 1, 0), cand(2, 2, 1), cand(3, 3, 1)]
        shortlists = [np.array([], dtype=np.intp)] + [
            np.arange(i, dtype=np.intp) for i in range(1, 4)]
        pf = pair_features(kept, doc, shortlists, genre_id=0)
        by_pair = {(r, a): s for r, a, s in
                   zip(pf.rows, pf.antecedents, pf.same_speaker)}
        assert by_pair[(1, 0)] == 1   # alice vs alice
        assert by_pair[(2, 0)] == 0   # bob vs alice
        assert by_pair[(3, 2)] == 0   # "-" never matches anyone
        assert by_pair[(3, 0)] == 0


class TestScoreMatrix:
    def build(self, n=6, seed=11, top_k=3):
        doc = make_document([["w"] * n],
                            speakers=[[f"s{i % 2}" for i in range(n)]])
        spans = [cand(i, i) for i in range(n)]
        store = toy_store(seed)
        emb = embeddings_for(doc, seed)
        g, _ = represent_spans(emb, spans, store)
        _, _, combined = unary_score_tensors(g, store)
        _, shortlists = coarse_scores(g, combined, store, top_k=top_k)
        pairs = pair_features(spans, doc, shortlists, genre_id=1)
        m = score_matrix(g, combined, pairs, top_k, store)
        return doc, spans, store, g, combined, shortlists, m

    def test_dummy_column_is_exactly_zero(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        m = score_matrix(g, combined, pairs, 3, store)
        assert np.all(m.data[:, 0] == 0.0)

    def test_rows_match_shortlists(self):
        # slot t of row i holds the score of the pair (i, shortlists[i][t])
        doc, spans, store, g, combined, shortlists, m = self.build()
        none = [np.zeros(0, dtype=np.intp)] * len(shortlists)
        for i, sl in enumerate(shortlists):
            assert np.all(np.isfinite(m.data[i, 1:1 + len(sl)]))
            for t, j in enumerate(sl):
                one = list(none)
                one[i] = np.array([j], dtype=np.intp)
                single = score_matrix(g, combined, pair_features(spans, doc, one, 1),
                                      1, store)
                npt.assert_allclose(single.data[i, 1], m.data[i, 1 + t], rtol=1e-12)

    def test_unused_slots_hold_neg_inf(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        m = score_matrix(g, combined, pairs, 3, store)
        for i, sl in enumerate(shortlists):
            assert np.all(np.isfinite(m.data[i, 1:1 + len(sl)]))
            assert np.all(m.data[i, 1 + len(sl):] == -np.inf)

    def test_shifting_unary_scores_shifts_pairs_twice(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        base = score_matrix(g, combined, pairs, 3, store)
        shifted = score_matrix(g, combined + ad.constant(1.5), pairs, 3, store)
        finite = np.isfinite(base.data[:, 1:])
        npt.assert_allclose(shifted.data[:, 1:][finite],
                            base.data[:, 1:][finite] + 3.0, rtol=1e-10)
        assert np.all(shifted.data[:, 0] == 0.0)

    def test_single_span_document(self):
        doc = make_document([["w"]])
        spans = [cand(0, 0)]
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        _, _, combined = unary_score_tensors(g, store)
        _, shortlists = coarse_scores(g, combined, store)
        assert len(shortlists[0]) == 0
        m = score_matrix(g, combined, pair_features(spans, doc, shortlists, 0), 0,
                         store)
        assert m.data.tolist() == [[0.0]]

    def test_gradients_reach_pair_parameters(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        m = score_matrix(g, combined, pairs, 3, store)
        finite = ad.take_rows(m.reshape((m.size,)),
                              np.flatnonzero(np.isfinite(m.data)))
        finite.sum().backward()
        for name in ("score/pair/out_w", "pair/distance_embedding",
                     "pair/same_speaker_embedding", "pair/genre_embedding"):
            assert store[name].grad is not None, name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_dummy_score_is_zero_for_random_models(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        doc = make_document([["w"] * n])
        spans = [cand(i, i) for i in range(n)]
        store = toy_store(seed)
        for name in store.names():
            store[name].data += rng.normal(scale=0.1, size=store[name].data.shape)
        g, _ = represent_spans(embeddings_for(doc, seed), spans, store)
        _, _, combined = unary_score_tensors(g, store)
        _, shortlists = coarse_scores(g, combined, store)
        pairs = pair_features(spans, doc, shortlists, 0)
        m = score_matrix(g, combined, pairs, max(len(s) for s in shortlists), store)
        assert np.all(m.data[:, 0] == 0.0)
