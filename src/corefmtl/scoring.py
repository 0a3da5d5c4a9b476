"""Span scoring: dual unary scores, pruning, coarse shortlists, the score matrix.

The unary score of a span is a trainable convex-ish combination of two
separately parameterized feed-forward scorers, one for markable-ness and
one for mention-ness:

    s_m(i) = beta1 * s_markable(i) + beta2 * s_mention(i)

The final antecedent score is s(i, j) = s_m(i) + s_m(j) + s_c(i, j) with
the dummy antecedent fixed at s(i, eps) = 0. The coarse bilinear score
only selects the shortlist; it does not enter the final sum.

Both unary scorers get gradient from the coreference loss through the
kept spans. When the singleton task weight is > 0, s_mention is also
trained directly as a binary mention detector over every candidate span
(see mtl.py), which is the only signal a pruned-away gold mention gets.
"""

from dataclasses import dataclass
from functools import partial
from math import ceil

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import Document
from .layers import create_ffnn, ffnn, ffnn_weights
from .spans import NUM_BUCKETS, SpanCandidate, bucket_index

UNKNOWN_SPEAKERS = ("", "-")


def create_scoring_params(store: ParameterStore, g_dim: int, hidden: int,
                          feature_dim: int, num_genres: int, depth: int = 2):
    create_ffnn(store, "score/markable", g_dim, hidden, 1, depth)
    create_ffnn(store, "score/mention", g_dim, hidden, 1, depth)
    store.create("score/beta", (2,), init="constant", std=0.5)
    store.create("score/coarse_bilinear", (g_dim, g_dim))
    create_ffnn(store, "score/pair", 3 * g_dim + 3 * feature_dim, hidden, 1, depth)
    store.create("pair/distance_embedding", (NUM_BUCKETS, feature_dim), std=1.0)
    store.create("pair/same_speaker_embedding", (2, feature_dim), std=1.0)
    # genre row 0 is the out-of-inventory bucket
    store.create("pair/genre_embedding", (num_genres + 1, feature_dim), std=1.0)


def unary_score_tensors(g: Tensor, store: ParameterStore, dropout: float = 0.0,
                        step: int | None = None,
                        block: int = 0) -> tuple[Tensor, Tensor, Tensor]:
    """(markable, mention, combined) score vectors, each shaped (S,). block
    is the first row of g among the document's spans (ffnn's block).

    The model runs this, span representations included, inside one
    autodiff.recompute per block of spans, which keeps only the markable
    and mention scores; it mixes them outside the rerun (unary_mix)."""
    n = g.shape[0]
    markable, mention = (ffnn(g, store, prefix, dropout, step, block=block).reshape((n,))
                         for prefix in ("score/markable", "score/mention"))
    return markable, mention, unary_mix(markable, mention, store)


def unary_mix(markable: Tensor, mention: Tensor, store: ParameterStore) -> Tensor:
    """The combined unary score beta1 * markable + beta2 * mention."""
    beta = store["score/beta"]
    return (ad.take_rows(beta, np.array([0])) * markable
            + ad.take_rows(beta, np.array([1])) * mention)


# -- pruning -------------------------------------------------------------------


def prune_spans(scores: np.ndarray, spans: list[SpanCandidate], num_tokens: int,
                ratio: float = 0.4) -> list[int]:
    """Keep up to ceil(ratio * num_tokens) spans by descending unary score,
    greedily skipping any span that partially crosses an already kept one.
    Returns indices into spans, sorted by (start, end).

    A kept span partially crosses [s, e] when it starts in (s, e] and ends
    after e, or ends in [s, e) and starts before s. So the furthest end of
    the kept spans that start at each token, and the earliest start of
    those that end there, decide it in O(width) per candidate.
    """
    if len(scores) != len(spans):
        raise ValueError("scores and spans disagree in length")
    limit = min(ceil(ratio * num_tokens), len(spans))
    order = sorted(range(len(spans)),
                   key=lambda i: (-float(scores[i]), spans[i].start, spans[i].end))
    furthest_end: dict[int, int] = {}
    earliest_start: dict[int, int] = {}
    kept: list[int] = []
    for i in order:
        if len(kept) >= limit:
            break
        s, e = spans[i].start, spans[i].end
        if (any(furthest_end.get(t, e) > e for t in range(s + 1, e + 1))
                or any(earliest_start.get(t, s) < s for t in range(s, e))):
            continue
        kept.append(i)
        furthest_end[s] = max(furthest_end.get(s, e), e)
        earliest_start[e] = min(earliest_start.get(e, s), s)
    kept.sort(key=lambda i: (spans[i].start, spans[i].end))
    return kept


# -- coarse shortlist ------------------------------------------------------------


def coarse_scores(g: Tensor, combined: Tensor, store: ParameterStore,
                  top_k: int = 50) -> list[np.ndarray]:
    """Bilinear shortlist selection over kept spans (no gradient flows here).

    Returns, per span, the indices of the top_k earlier spans by coarse
    score combined[i] + combined[j] + g[i] W g[j], in ascending order.
    The bilinear term is computed for a block of anaphors at a time
    (autodiff.row_blocks), against the spans before the block's end.
    """
    gv, cv = g.data, combined.data
    g_w = gv @ store["score/coarse_bilinear"].data
    shortlists = []
    for lo, hi in ad.row_blocks(len(gv)):
        bilinear = g_w[lo:hi] @ gv[:hi].T
        for i in range(lo, hi):
            shortlists.append(_top_antecedents((cv[i] + cv[:i]) + bilinear[i - lo, :i],
                                               top_k))
        del bilinear  # before the next block's is built
    return shortlists


def _top_antecedents(row: np.ndarray, top_k: int) -> np.ndarray:
    """Ascending indices of the top_k entries of row (all, if fewer), by
    descending score with ties resolved toward the nearer antecedent (the
    higher index). Only the entries that score at least the k-th highest,
    found by a partition, are sorted."""
    if len(row) <= top_k:
        return np.arange(len(row), dtype=np.intp)
    neg = -row
    cand = np.flatnonzero(neg <= np.partition(neg, top_k - 1)[top_k - 1])
    order = cand[np.lexsort((-cand, neg[cand]))[:top_k]]
    return np.sort(order).astype(np.intp)


# -- full pairwise scores ----------------------------------------------------------


def shortlist_pairs(shortlists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray,
                                                         np.ndarray]:
    """(rows, cols, antecedents) of every (span, antecedent) pair, in row
    order: the anaphor's kept-span index, the slot within its shortlist,
    and the antecedent's kept-span index."""
    lengths = np.array([len(sl) for sl in shortlists], dtype=np.intp)
    rows = np.repeat(np.arange(len(shortlists)), lengths)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return rows, cols, np.concatenate([np.zeros(0, dtype=np.intp), *shortlists])


@dataclass
class PairFeatures:
    """Flattened (span, antecedent) pairs with their feature indices."""

    rows: np.ndarray       # kept-span index of the anaphor
    cols: np.ndarray       # slot within the anaphor's shortlist
    antecedents: np.ndarray
    distance_bucket: np.ndarray
    same_speaker: np.ndarray
    genre_id: int


def pair_features(kept_spans: list[SpanCandidate], doc: Document,
                  shortlists: list[np.ndarray], genre_id: int) -> PairFeatures:
    rows, cols, antecedents = shortlist_pairs(shortlists)
    # integer speaker ids; unknown speakers share -1 and match no one
    speakers = doc.flat_speakers()
    ids = dict.fromkeys(UNKNOWN_SPEAKERS, -1)
    speaker = np.array([ids.setdefault(speakers[cand.start], len(ids))
                        for cand in kept_spans], dtype=np.intp)
    same = (speaker[rows] >= 0) & (speaker[rows] == speaker[antecedents])
    return PairFeatures(rows=rows, cols=cols, antecedents=antecedents,
                        distance_bucket=bucket_index(rows - antecedents),
                        same_speaker=same.astype(np.intp), genre_id=int(genre_id))


def score_matrix(g: Tensor, combined: Tensor, pairs: PairFeatures,
                 store: ParameterStore, dropout: float = 0.0,
                 step: int | None = None) -> Tensor:
    """Full antecedent score matrix, shape (S, num_slots + 1), with as
    many slots as the longest shortlist.

    Column 0 is the dummy antecedent, a constant exact 0. Column 1 + t is
    shortlist slot t; slots beyond a span's shortlist hold -inf. The pair
    scorer takes the pairs in blocks (autodiff.row_blocks), each with its
    own dropout masks; its first layer's per-span terms are computed once,
    for every block. With a tape, each block's scorer runs inside one
    autodiff.recompute over g, which keeps only the block's scores, and
    backward reruns it.
    """
    s = g.shape[0]
    n_pairs = len(pairs.rows)
    if n_pairs == 0:
        # no pair scorer runs, so its parameters get no gradient at all
        return ad.constant(np.zeros((s, 1)))

    tables = [
        (store["pair/distance_embedding"], pairs.distance_bucket),
        (store["pair/same_speaker_embedding"], pairs.same_speaker),
        (store["pair/genre_embedding"], np.full(n_pairs, pairs.genre_id, dtype=np.intp)),
    ]
    w0, b0 = ffnn_weights(store, "score/pair")[0]
    projected = ad.pair_projections(g, w0, tables)

    def pair_block(g_block: Tensor, lo: int, hi: int) -> Tensor:
        # [g_i, g_j, g_i * g_j, phi] @ w0 + b0, without the (P, 3g+3f) input
        first = partial(ad.pair_input_layer, g_block, rows=pairs.rows[lo:hi],
                        antecedents=pairs.antecedents[lo:hi],
                        tables=[(t, idx[lo:hi]) for t, idx in tables],
                        projected=projected)
        return ffnn(None, store, "score/pair", dropout, step,
                    first_layer=first, block=lo).reshape((hi - lo,))

    s_pair = []
    for lo, hi in ad.row_blocks(n_pairs):
        s_c = ad.recompute(partial(pair_block, lo=lo, hi=hi), g)
        s_pair.append(s_c + ad.take_rows(combined, pairs.rows[lo:hi])
                      + ad.take_rows(combined, pairs.antecedents[lo:hi]))
    # allocated only now, so it is not held through the pair scorer's peak
    num_slots = int(pairs.cols.max()) + 1
    base = np.full((s, 1 + num_slots), -np.inf)
    base[:, 0] = 0.0
    return ad.scatter2d(ad.join_blocks(s_pair), pairs.rows, 1 + pairs.cols, base)
