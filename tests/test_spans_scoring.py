"""Span enumeration, representations, pruning, shortlists, pair scores."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl import autodiff as ad
from corefmtl import scoring
from corefmtl.autodiff import ParameterStore, Tensor, named_rng
from corefmtl.layers import create_ffnn, ffnn
from corefmtl.scoring import (
    coarse_scores,
    create_scoring_params,
    pair_features,
    prune_spans,
    score_matrix,
    unary_mix,
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
from helpers import make_document, pair_index, random_shortlisted_document, span_set
from oracles import (bucket_reference, coarse_matrix_reference, enumerate_spans_reference,
                     pair_features_reference, prune_reference, top_k_reference)

DIM = 6
FEAT = 4
HIDDEN = 8
G_DIM = 3 * DIM + FEAT


def toy_store(seed=3, num_genres=2):
    store = ParameterStore(seed)
    create_span_params(store, DIM, FEAT)
    create_scoring_params(store, G_DIM, HIDDEN, FEAT, num_genres)
    return store


def record_shapes(fn, calls):
    """fn, appending the shape of each output to calls."""
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out.shape)
        return out
    return wrapped


def unary_scores(g, store, **kwargs):
    """(markable, mention): the two halves of unary_score_tensors' rows,
    split as the model splits them (autodiff.slice_rows)."""
    both = unary_score_tensors(g, store, **kwargs)
    n = g.shape[0]
    return ad.slice_rows(both, 0, n), ad.slice_rows(both, n, 2 * n)


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
        with pytest.raises(ValueError):
            bucket_index(np.array([3, 0, 5]))

    def test_array_matches_scalar_reference(self):
        n = np.arange(1, 200)
        npt.assert_array_equal(bucket_index(n), [bucket_reference(int(k)) for k in n])

    @given(st.integers(1, 10_000))
    def test_monotone_and_in_range(self, n):
        b = bucket_index(n)
        assert 0 <= b < NUM_BUCKETS
        assert b <= bucket_index(n + 1)


class TestEnumerateSpans:
    def test_small_document(self):
        doc = make_document([["a", "b"], ["c"]])
        spans = [s.span for s in enumerate_spans(doc)]
        assert spans == [(0, 0), (0, 1), (1, 1), (2, 2)]
        assert spans == enumerate_spans_reference([2, 1], 30)

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
        _, alpha = represent_spans(embeddings_for(doc),
                                   span_set([SpanCandidate(0, 0)]), store)
        npt.assert_allclose(alpha, [[1.0]])

    def test_soft_head_matches_manual_softmax(self):
        doc = make_document([["a", "b", "c"]])
        store = toy_store()
        emb = embeddings_for(doc)
        g, alpha = represent_spans(emb, span_set([SpanCandidate(0, 2)]), store)
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
        g, _ = represent_spans(emb, span_set([(0, 4), (1, 5)]), store)
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
        with pytest.raises(ValueError, match="no spans"):
            represent_spans(embeddings_for(doc), span_set([]), toy_store())

    def test_width_below_the_widest_span_rejected(self):
        """A soft head narrower than a span would drop that span's last
        tokens from its attention; a width that covers it is accepted."""
        doc = make_document([["a", "b", "c", "d"]])
        emb, store = embeddings_for(doc), toy_store()
        spans = span_set([(0, 0), (1, 3)])
        with pytest.raises(ValueError, match="below the widest span"):
            represent_spans(emb, spans, store, width=2)
        _, alpha = represent_spans(emb, spans, store, width=3)
        assert alpha.shape == (2, 3)


class TestUnaryScores:
    def test_combination_uses_beta(self):
        doc = make_document([["a", "b", "c"]])
        spans = enumerate_spans(doc, max_span_width=2)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        markable, mention = unary_scores(g, store)
        combined = unary_mix(markable, mention, store)
        # both betas initialize to 0.5
        npt.assert_allclose(combined.data,
                            0.5 * markable.data + 0.5 * mention.data, rtol=1e-12)
        store["score/beta"].data[:] = [0.25, 2.0]
        combined2 = unary_mix(markable, mention, store)
        npt.assert_allclose(combined2.data,
                            0.25 * markable.data + 2.0 * mention.data, rtol=1e-12)

    def test_two_scorers_are_independent_networks(self):
        doc = make_document([["a", "b", "c"]])
        spans = enumerate_spans(doc, max_span_width=2)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        markable, mention = unary_scores(g, store)
        assert not np.allclose(markable.data, mention.data)

    def test_activation_is_looked_up_when_the_scorers_run(self, monkeypatch):
        """A wrapper installed on autodiff.ffnn_node after import, as a
        tracer installs one, sees the call that runs both scorers: one
        node over the spans, the markable rows and then the mention rows."""
        doc = make_document([["a", "b", "c"]])
        spans = enumerate_spans(doc, max_span_width=2)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        calls = []
        monkeypatch.setattr(ad, "ffnn_node", record_shapes(ad.ffnn_node, calls))
        both = unary_score_tensors(g, store)
        assert calls == [(2 * len(spans), 1)]
        assert both.shape == (2 * len(spans),)

    def test_ffnn_depth_is_read_from_the_store(self, monkeypatch):
        store = ParameterStore(1)
        create_ffnn(store, "block", 5, HIDDEN, 2, depth=3)
        stacks = []
        real = ad.ffnn_node

        def recording(x, layers, *args, **kwargs):
            stacks.extend(layers)
            return real(x, layers, *args, **kwargs)

        monkeypatch.setattr(ad, "ffnn_node", recording)
        out = ffnn(Tensor(np.ones((4, 5))), store, "block")
        assert [[w.shape for w, _ in layers] for layers in stacks] == [
            [(5, HIDDEN), (HIDDEN, HIDDEN), (HIDDEN, HIDDEN), (HIDDEN, 2)]]
        assert out.shape == (4, 2)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_ffnn_is_one_tape_node(self, depth):
        """depth hidden layers and the output layer, of one block or of
        two over the same input: one node between the input and the
        output, and nothing else on the tape."""
        store = ParameterStore(1)
        for prefix in ("block", "other"):
            create_ffnn(store, prefix, 5, HIDDEN, 2, depth=depth)
        x = Tensor(named_rng(2, "x").normal(size=(4, 5)), requires_grad=True)
        for prefix, rows in (("block", 4), (("block", "other"), 8)):
            out = ffnn(x, store, prefix, dropout=0.3, step=1)
            assert out.shape == (rows, 2)
            nodes, stack = set(), [out]
            while stack:
                node = stack.pop()
                if node._backward is not None and id(node) not in nodes:
                    nodes.add(id(node))
                    stack.extend(node._parents)
            assert len(nodes) == 1

    def test_split_and_mix_are_bit_equal_to_row_gathers(self):
        """The model splits the unary scores and picks beta1 and beta2 by
        row slices (autodiff.slice_rows): the combined and mention scores
        and every gradient, under an upstream gradient with signed zeros,
        are those of take_rows over the same rows, bit for bit."""
        doc = make_document([["a", "b", "c", "d", "e"]])
        spans = enumerate_spans(doc, max_span_width=3)
        n = len(spans)
        rng = np.random.default_rng(5)
        upstream = rng.normal(size=(2, n))
        upstream[:, ::3] = -0.0

        def gather(a, lo, hi):
            return ad.take_rows(a, np.arange(lo, hi))

        def gathered_mix(markable, mention, store):
            beta = store["score/beta"]
            return gather(beta, 0, 1) * markable + gather(beta, 1, 2) * mention

        def run(split, mix):
            store = toy_store()
            g, _ = represent_spans(embeddings_for(doc), spans, store)
            both = unary_score_tensors(g, store, dropout=0.3, step=2)
            mention = split(both, n, 2 * n)
            combined = mix(split(both, 0, n), mention, store)
            (combined * Tensor(upstream[0]) + mention * Tensor(upstream[1])).sum().backward()
            return [combined.data, mention.data] + [store[name].grad for name in store.names()
                                                     if store[name].grad is not None]

        got, want = run(ad.slice_rows, unary_mix), run(gather, gathered_mix)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_beta_receives_gradient(self):
        doc = make_document([["a", "b"]])
        spans = enumerate_spans(doc)
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        combined = unary_mix(*unary_scores(g, store), store)
        combined.sum().backward()
        assert store["score/beta"].grad is not None
        assert store["score/beta"].grad.shape == (2,)


def cand(s, e):
    return SpanCandidate(s, e)


class TestPruneSpans:
    def test_limit_is_ceil_ratio_tokens(self):
        spans = span_set([cand(i, i) for i in range(10)])
        scores = np.arange(10.0)
        kept = prune_spans(scores, spans, num_tokens=10, ratio=0.4)
        assert len(kept) == 4  # ceil(0.4 * 10)
        kept = prune_spans(scores, spans, num_tokens=9, ratio=0.4)
        assert len(kept) == 4  # ceil(3.6)

    def test_keeps_highest_scores_sorted_by_position(self):
        spans = span_set([cand(0, 0), cand(2, 2), cand(4, 4)])
        scores = np.array([1.0, 5.0, 3.0])
        kept = prune_spans(scores, spans, num_tokens=5, ratio=0.4)
        assert kept.tolist() == [1, 2]  # top two by score, reported in span order

    def test_crossing_span_is_skipped_not_budgeted(self):
        spans = span_set([cand(0, 1), cand(1, 2), cand(3, 3)])
        scores = np.array([5.0, 4.0, 3.0])
        kept = prune_spans(scores, spans, num_tokens=5, ratio=0.4)
        assert kept.tolist() == [0, 2]

    def test_nested_spans_both_kept(self):
        spans = span_set([cand(0, 3), cand(1, 2)])
        scores = np.array([2.0, 1.0])
        kept = prune_spans(scores, spans, num_tokens=10, ratio=0.4)
        assert kept.tolist() == [0, 1]

    def test_crossing_free_input_kept_whole(self):
        spans = span_set([cand(0, 0), cand(2, 3), cand(5, 5)])
        scores = np.zeros(3)
        kept = prune_spans(scores, spans, num_tokens=100, ratio=0.4)
        assert kept.tolist() == [0, 1, 2]

    def test_score_ties_prefer_earlier_span(self):
        spans = span_set([cand(4, 4), cand(0, 0), cand(2, 2)])
        scores = np.zeros(3)
        kept = prune_spans(scores, spans, num_tokens=5, ratio=0.4)
        assert kept.tolist() == [1, 2]  # spans (0,0) and (2,2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prune_spans(np.zeros(2), span_set([cand(0, 0)]), num_tokens=5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_the_pairwise_crossing_check(self, seed):
        # random spans, repeats included, and tied scores
        rng = np.random.default_rng(seed)
        n_tokens = int(rng.integers(1, 40))
        starts = rng.integers(0, n_tokens, size=int(rng.integers(1, 60)))
        ends = np.minimum(starts + rng.integers(0, 8, size=len(starts)), n_tokens - 1)
        spans = span_set([cand(int(s), int(e)) for s, e in zip(starts, ends)])
        scores = rng.integers(0, 4, size=len(spans)).astype(float)
        ratio = float(rng.uniform(0.1, 1.5))
        want = prune_reference(scores, [c.span for c in spans], n_tokens, ratio)
        assert prune_spans(scores, spans, n_tokens, ratio).tolist() == want

    def test_budget_fills_inside_the_first_chunk(self, monkeypatch):
        """The walk stops inside its first chunk of PRUNE_CHUNK candidates
        and keeps what the pairwise reference keeps."""
        monkeypatch.setattr(scoring, "PRUNE_CHUNK", 8)
        rng = np.random.default_rng(4)
        spans = span_set([cand(s, min(s + w, 19)) for s in range(20) for w in (0, 2)])
        scores = rng.normal(size=len(spans))
        want = prune_reference(scores, [c.span for c in spans], 10, 0.4)
        kept = prune_spans(scores, spans, num_tokens=10, ratio=0.4)
        assert kept.tolist() == want
        order = np.lexsort((spans.ends, spans.starts, -scores))
        assert len(kept) == 4 and set(kept) <= set(order[:scoring.PRUNE_CHUNK])

    def test_crossing_check_spans_a_chunk_boundary(self, monkeypatch):
        """Chunks of two candidates: (1, 3) in the second chunk crosses
        (0, 2), kept in the first, and (4, 6) in the third crosses (3, 4),
        kept in the second; both are skipped, as in the reference."""
        monkeypatch.setattr(scoring, "PRUNE_CHUNK", 2)
        spans = span_set([cand(0, 2), cand(5, 5), cand(1, 3), cand(3, 4), cand(4, 6)])
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        kept = prune_spans(scores, spans, num_tokens=100, ratio=0.4)
        assert kept.tolist() == [0, 3, 1]
        assert kept.tolist() == prune_reference(scores, [c.span for c in spans], 100, 0.4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 7]))
    def test_chunked_walk_matches_the_pairwise_crossing_check(self, seed, chunk):
        rng = np.random.default_rng(seed)
        n_tokens = int(rng.integers(1, 40))
        starts = rng.integers(0, n_tokens, size=int(rng.integers(1, 60)))
        ends = np.minimum(starts + rng.integers(0, 8, size=len(starts)), n_tokens - 1)
        spans = span_set([cand(int(s), int(e)) for s, e in zip(starts, ends)])
        scores = rng.integers(0, 4, size=len(spans)).astype(float)
        ratio = float(rng.uniform(0.1, 1.5))
        want = prune_reference(scores, [c.span for c in spans], n_tokens, ratio)
        default = scoring.PRUNE_CHUNK
        scoring.PRUNE_CHUNK = chunk  # hypothesis runs every example in one test call
        try:
            assert prune_spans(scores, spans, n_tokens, ratio).tolist() == want
        finally:
            scoring.PRUNE_CHUNK = default

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
        spans = span_set([cand(i, i) for i in range(n)])
        store = toy_store(seed)
        emb = embeddings_for(doc, seed)
        g, _ = represent_spans(emb, spans, store)
        combined = unary_mix(*unary_scores(g, store), store)
        return g, combined, store, coarse_scores(g, combined, store, top_k=top_k)

    def test_shortlists_are_earlier_ascending_capped(self):
        _, _, _, shortlists = self.setup_scores(top_k=3)
        for i, sl in enumerate(shortlists):
            assert len(sl) == min(3, i)
            assert all(0 <= j < i for j in sl)
            assert list(sl) == sorted(sl)

    def test_shortlist_holds_the_top_scoring_antecedents(self):
        g, combined, store, shortlists = self.setup_scores(top_k=3)
        coarse = coarse_matrix_reference(g.data, combined.data,
                                         store["score/coarse_bilinear"].data)
        for i, sl in enumerate(shortlists):
            if i <= 3:
                continue
            worst_selected = min(coarse[i][j] for j in sl)
            rest = [coarse[i][j] for j in range(i) if j not in set(sl)]
            assert worst_selected >= max(rest)

    def test_ties_select_nearer_antecedents(self):
        g, combined, store, _ = self.setup_scores()
        store["score/coarse_bilinear"].data[:] = 0.0
        flat = Tensor(np.zeros(g.shape[0]))
        shortlists = coarse_scores(g, flat, store, top_k=2)
        # every pair ties at 0, so the two nearest must win
        for i, sl in enumerate(shortlists):
            assert list(sl) == list(range(max(0, i - 2), i))

    @pytest.mark.parametrize("top_k", [1, 4, 50])
    def test_matches_a_sort_of_each_whole_row(self, top_k, monkeypatch):
        """Integer-valued scores from three levels each tie often; the
        shortlists equal a full sort of each row, in chunks of 7 anaphors."""
        monkeypatch.setattr(scoring, "COARSE_ROWS", 7)
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            g = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
            combined = rng.integers(-1, 2, size=n).astype(np.float64)
            store = ParameterStore(0)
            store.create("score/coarse_bilinear", (3, 3))
            store["score/coarse_bilinear"].data[:] = rng.integers(-1, 2, size=(3, 3))
            with ad.no_grad():
                shortlists = coarse_scores(Tensor(g), Tensor(combined), store, top_k)
            coarse = g @ store["score/coarse_bilinear"].data @ g.T
            assert len(shortlists) == n
            for i, got in enumerate(shortlists):
                want = top_k_reference(combined[i] + combined[:i] + coarse[i, :i], top_k)
                assert got.dtype == want.dtype
                npt.assert_array_equal(got, want)

    def test_memory_is_bounded_by_a_chunk_of_anaphors(self):
        """4000 kept spans of width 212, the shape of a 10,000-token
        document at encoder dim 64: besides its 1.6 MB of shortlists, the
        call holds one chunk's scores, complex keys and argpartition, 4.8
        MB in all; 10.1 MB when it held g·W for the whole document and a
        running top k per anaphor."""
        rng = np.random.default_rng(0)
        g = Tensor(rng.normal(size=(4000, 212)))
        combined = Tensor(rng.normal(size=4000))
        store = ParameterStore(0)
        store.create("score/coarse_bilinear", (212, 212))
        with ad.no_grad():
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                index = coarse_scores(g, combined, store)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(index.antecedents) == 4000 * 50 - 25 * 51
        assert peak - start < 7.5e6

    def test_no_gradient_through_selection(self):
        doc = make_document([["w"] * 4])
        spans = span_set([cand(i, i) for i in range(4)])
        store = toy_store()
        emb = embeddings_for(doc)
        g, _ = represent_spans(emb, spans, store)
        combined = unary_mix(*unary_scores(g, store), store)
        before = None if store["score/coarse_bilinear"].grad is None else True
        coarse_scores(g, combined, store)
        assert store["score/coarse_bilinear"].grad is before is None


class TestPairIndexBlockRows:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=8))
    def test_block_rows_are_a_slice_of_rows(self, lengths):
        """block_rows(lo, hi) is rows[lo:hi] for every range of pairs, from
        shortlists that include empty ones: ranges whose ends fall on row
        boundaries and inside rows, empty ranges, and no pairs at all."""
        index = pair_index([np.zeros(n, dtype=np.intp) for n in lengths])
        total = int(index.indptr[-1])
        for lo in range(total + 1):
            for hi in range(lo, total + 1):
                got = index.block_rows(lo, hi)
                assert got.dtype == np.intp
                npt.assert_array_equal(got, index.rows[lo:hi], err_msg=f"{lo}:{hi}")


class TestPairFeatures:
    def doc_with_speakers(self):
        return make_document(
            [["a", "b"], ["c", "d"]],
            speakers=[["alice", "alice"], ["bob", "-"]],
        )

    def features(self, genre_id):
        doc = self.doc_with_speakers()
        kept = span_set([cand(0, 0), cand(1, 1), cand(2, 2), cand(3, 3)])
        shortlists = pair_index([np.arange(i, dtype=np.intp) for i in range(4)])
        pf = pair_features(kept, doc, shortlists, genre_id=genre_id)
        return pf, pf.feature_ids(0, len(pf.rows), pf.rows)

    def test_distance_buckets_index_offsets(self):
        pf, (distance, _, genre) = self.features(genre_id=2)
        assert pf.genre_id == 2
        assert genre.tolist() == [2] * len(pf.rows)
        by_pair = {(r, a): d for r, a, d in zip(pf.rows, pf.antecedents, distance)}
        assert by_pair[(1, 0)] == bucket_index(1)
        assert by_pair[(3, 0)] == bucket_index(3)
        assert by_pair[(3, 2)] == bucket_index(1)

    def test_same_speaker_requires_known_speakers(self):
        pf, (_, same, _) = self.features(genre_id=0)
        by_pair = {(r, a): s for r, a, s in zip(pf.rows, pf.antecedents, same)}
        assert by_pair[(1, 0)] == 1   # alice vs alice
        assert by_pair[(2, 0)] == 0   # bob vs alice
        assert by_pair[(3, 2)] == 0   # "-" never matches anyone
        assert by_pair[(3, 0)] == 0


class TestPairFeaturesAgainstPairLoop:
    def check(self, doc, kept, shortlists):
        pf = pair_features(kept, doc, shortlists, genre_id=1)
        want = pair_features_reference(kept, doc.flat_speakers(), shortlists)
        n_pairs = len(pf.rows)
        distance, same, genre = pf.feature_ids(0, n_pairs, pf.rows)
        npt.assert_array_equal(genre, np.ones(n_pairs, dtype=np.intp))
        got = (pf.rows, pf.index.slots(), pf.antecedents, distance, same)
        for name, array, ref in zip(("rows", "cols", "antecedents", "distance",
                                     "same_speaker"), got, want):
            assert array.dtype == np.intp, name
            npt.assert_array_equal(array, np.array(ref, dtype=np.intp), err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_documents(self, seed):
        self.check(*random_shortlisted_document(np.random.default_rng(seed)))

    def test_single_kept_span(self):
        doc, kept, shortlists = random_shortlisted_document(np.random.default_rng(0),
                                                            num_kept=1)
        assert [len(sl) for sl in shortlists] == [0]
        self.check(doc, kept, shortlists)

    def test_all_shortlists_empty(self):
        doc, kept, _ = random_shortlisted_document(np.random.default_rng(1), num_kept=4)
        self.check(doc, kept, pair_index([np.zeros(0, dtype=np.intp)] * 4))


class TestScoreMatrix:
    def build(self, n=6, seed=11, top_k=3):
        doc = make_document([["w"] * n],
                            speakers=[[f"s{i % 2}" for i in range(n)]])
        spans = span_set([cand(i, i) for i in range(n)])
        store = toy_store(seed)
        emb = embeddings_for(doc, seed)
        g, _ = represent_spans(emb, spans, store)
        combined = unary_mix(*unary_scores(g, store), store)
        shortlists = coarse_scores(g, combined, store, top_k=top_k)
        pairs = pair_features(spans, doc, shortlists, genre_id=1)
        m = score_matrix(g, combined, pairs, store)
        return doc, spans, store, g, combined, shortlists, m

    def test_dummy_column_is_exactly_zero(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        m = score_matrix(g, combined, pairs, store)
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
                single = score_matrix(
                    g, combined, pair_features(spans, doc, pair_index(one), 1), store)
                npt.assert_allclose(single.data[i, 1], m.data[i, 1 + t], rtol=1e-12)

    def test_unused_slots_hold_neg_inf(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        m = score_matrix(g, combined, pairs, store)
        for i, sl in enumerate(shortlists):
            assert np.all(np.isfinite(m.data[i, 1:1 + len(sl)]))
            assert np.all(m.data[i, 1 + len(sl):] == -np.inf)

    def test_shifting_unary_scores_shifts_pairs_twice(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        base = score_matrix(g, combined, pairs, store)
        shifted = score_matrix(g, combined + ad.constant(1.5), pairs, store)
        finite = np.isfinite(base.data[:, 1:])
        npt.assert_allclose(shifted.data[:, 1:][finite],
                            base.data[:, 1:][finite] + 3.0, rtol=1e-10)
        assert np.all(shifted.data[:, 0] == 0.0)

    def test_single_span_document(self):
        doc = make_document([["w"]])
        spans = span_set([cand(0, 0)])
        store = toy_store()
        g, _ = represent_spans(embeddings_for(doc), spans, store)
        combined = unary_mix(*unary_scores(g, store), store)
        shortlists = coarse_scores(g, combined, store)
        assert len(shortlists[0]) == 0
        m = score_matrix(g, combined, pair_features(spans, doc, shortlists, 0), store)
        assert m.data.tolist() == [[0.0]]

    def test_gradients_reach_pair_parameters(self):
        doc, spans, store, g, combined, shortlists, _ = self.build()
        pairs = pair_features(spans, doc, shortlists, 1)
        m = score_matrix(g, combined, pairs, store)
        finite = ad.take_rows(m.reshape((m.data.size,)),
                              np.flatnonzero(np.isfinite(m.data)))
        finite.sum().backward()
        for name in ("score/pair/out_w", "pair/distance_embedding",
                     "pair/same_speaker_embedding", "pair/genre_embedding"):
            assert store[name].grad is not None, name

    def test_blocks_are_placed_at_their_entries(self, monkeypatch):
        """In blocks of 4 pairs, each block's scores land at its own
        entries and backward hands each block its own: the matrix and
        every gradient equal those of one block, to the rounding of
        products of other row counts."""
        def run():
            doc, spans, store, g, combined, shortlists, _ = self.build(n=9, top_k=4)
            m = score_matrix(g, combined, pair_features(spans, doc, shortlists, 1), store)
            m.backward(seed=np.arange(m.data.size).reshape(m.data.shape) % 7 - 3.0)
            return m.data, {name: store[name].grad for name in store.names()
                            if store[name].grad is not None}

        whole, whole_grads = run()
        monkeypatch.setattr(ad, "PAIR_BLOCK", 4)
        blocked, grads = run()
        assert whole.shape == (9, 5)
        assert grads.keys() == whole_grads.keys() and "score/pair/out_w" in grads
        npt.assert_array_equal(np.isfinite(blocked), np.isfinite(whole))
        npt.assert_allclose(blocked, whole, rtol=1e-12)
        for name, want in whole_grads.items():
            npt.assert_allclose(grads[name], want, rtol=1e-12, atol=1e-14, err_msg=name)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_dummy_score_is_zero_for_random_models(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        doc = make_document([["w"] * n])
        spans = span_set([cand(i, i) for i in range(n)])
        store = toy_store(seed)
        for name in store.names():
            store[name].data += rng.normal(scale=0.1, size=store[name].data.shape)
        g, _ = represent_spans(embeddings_for(doc, seed), spans, store)
        combined = unary_mix(*unary_scores(g, store), store)
        shortlists = coarse_scores(g, combined, store)
        pairs = pair_features(spans, doc, shortlists, 0)
        m = score_matrix(g, combined, pairs, store)
        assert np.all(m.data[:, 0] == 0.0)


# -- the array pipeline against its loop oracles ---------------------------------


def random_sentence_lengths(rng, max_span_width):
    """Sentence lengths of a random document: empty and one-token
    sentences, and sentences shorter than, as long as and longer than
    max_span_width."""
    kinds = [0, 1, max(max_span_width - 1, 1), max_span_width, max_span_width + 3]
    return [int(rng.choice(kinds)) if rng.random() < 0.6 else int(rng.integers(0, 12))
            for _ in range(int(rng.integers(1, 8)))]


def tied_scores(rng, n):
    """Scores from five levels, so ties are common; both zeros included."""
    return rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=n)


class TestArrayPipelineAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_span_set_matches_the_sentence_loop(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 6))
        lengths = random_sentence_lengths(rng, width)
        spans = enumerate_spans(make_document([["w"] * n for n in lengths]), width)
        want = enumerate_spans_reference(lengths, width)
        for array in (spans.starts, spans.ends):
            assert array.dtype == np.intp
        assert list(zip(spans.starts.tolist(), spans.ends.tolist())) == want
        assert [c.span for c in spans] == want
        if want:
            i = int(rng.integers(len(want)))
            assert spans[i].span == want[i]
            part = spans[i:]
            assert len(part) == len(want) - i and part[0] == spans[i]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_lexsort_pruning_matches_the_pairwise_check(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 6))
        lengths = random_sentence_lengths(rng, width)
        doc = make_document([["w"] * n for n in lengths])
        spans = enumerate_spans(doc, width)
        scores = tied_scores(rng, len(spans))
        ratio = float(rng.uniform(0.1, 1.5))
        kept = prune_spans(scores, spans, doc.num_tokens, ratio)
        assert kept.dtype == np.intp
        want = prune_reference(scores, [c.span for c in spans], doc.num_tokens, ratio)
        assert kept.tolist() == want

    @pytest.mark.parametrize("levels,nan", [(1, False), (50, False), (1, True)],
                             ids=["ties", "spread", "nan"])
    @pytest.mark.parametrize("top_k", [1, 3, 8, 20])
    def test_row_chunks_match_a_sort_of_each_whole_row(self, top_k, levels, nan,
                                                       monkeypatch):
        """Integer-valued scores, so every product is exact: from three
        levels they tie often (both zeros included), from 101 rarely. A
        NaN score sorts last, as in the reference's lexsort. The anaphors
        after the first top_k + 1 are ranked in chunks of COARSE_ROWS = 8,
        and kept counts fall on both sides of top_k + 1 and of the chunk
        boundaries; the first top_k rows' shortlists are shorter than
        top_k."""
        monkeypatch.setattr(scoring, "COARSE_ROWS", 8)
        rng = np.random.default_rng(top_k + levels)
        sizes = {1, 2, 7, 8, 9, 33, 47} | {top_k + d for d in (0, 1, 2, 8, 9, 10, 16, 17, 18)}
        for n in sorted(sizes):
            g = rng.integers(-levels, levels + 1, size=(n, 3)).astype(np.float64)
            combined = rng.integers(-levels, levels + 1, size=n) * 1.0
            combined[rng.random(n) < 0.2] = -0.0
            if nan:
                combined[rng.random(n) < 0.3] = np.nan
            store = ParameterStore(0)
            store.create("score/coarse_bilinear", (3, 3))
            store["score/coarse_bilinear"].data[:] = rng.integers(-1, 2, size=(3, 3))
            with ad.no_grad():
                index = coarse_scores(Tensor(g), Tensor(combined), store, top_k)
            coarse = g @ store["score/coarse_bilinear"].data @ g.T
            assert len(index) == n and index.antecedents.dtype == np.intp
            for i in range(n):
                want = top_k_reference(combined[i] + combined[:i] + coarse[i, :i], top_k)
                npt.assert_array_equal(index[i], want, err_msg=f"n={n} row {i}")
            npt.assert_array_equal(index.rows,
                                   np.repeat(np.arange(n), np.diff(index.indptr)))
