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
from math import ceil

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import Document
from .layers import create_ffnn, ffnn
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
                        step: int | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """(markable, mention, combined) score vectors, each shaped (S,)."""
    n = g.shape[0]
    markable = ffnn(g, store, "score/markable", dropout, step).reshape((n,))
    mention = ffnn(g, store, "score/mention", dropout, step).reshape((n,))
    beta = store["score/beta"]
    b1 = ad.take_rows(beta, np.array([0]))
    b2 = ad.take_rows(beta, np.array([1]))
    combined = b1 * markable + b2 * mention
    return markable, mention, combined


# -- pruning -------------------------------------------------------------------


def _partially_crossing(a: SpanCandidate, b: SpanCandidate) -> bool:
    return (a.start < b.start <= a.end < b.end) or (b.start < a.start <= b.end < a.end)


def prune_spans(scores: np.ndarray, spans: list[SpanCandidate], num_tokens: int,
                ratio: float = 0.4) -> list[int]:
    """Keep up to ceil(ratio * num_tokens) spans by descending unary score,
    greedily skipping any span that partially crosses an already kept one.
    Returns indices into spans, sorted by (start, end).
    """
    if len(scores) != len(spans):
        raise ValueError("scores and spans disagree in length")
    limit = min(ceil(ratio * num_tokens), len(spans))
    order = sorted(range(len(spans)),
                   key=lambda i: (-float(scores[i]), spans[i].start, spans[i].end))
    kept: list[int] = []
    for i in order:
        if len(kept) >= limit:
            break
        if any(_partially_crossing(spans[i], spans[j]) for j in kept):
            continue
        kept.append(i)
    kept.sort(key=lambda i: (spans[i].start, spans[i].end))
    return kept


# -- coarse shortlist ------------------------------------------------------------


def coarse_scores(g: Tensor, combined: Tensor, store: ParameterStore,
                  top_k: int = 50) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bilinear shortlist selection over kept spans (no gradient flows here).

    Returns the (S, S) coarse score matrix (-inf at j >= i) and, per span,
    the selected antecedent indices in ascending order.
    """
    gv = g.data
    s = gv.shape[0]
    bilinear = gv @ store["score/coarse_bilinear"].data @ gv.T
    coarse = combined.data[:, None] + combined.data[None, :] + bilinear
    coarse = np.where(np.tril(np.ones((s, s), dtype=bool), k=-1), coarse, -np.inf)
    shortlists = []
    for i in range(s):
        k = min(top_k, i)
        if k == 0:
            shortlists.append(np.zeros(0, dtype=np.intp))
            continue
        row = coarse[i, :i]
        # ties resolved toward the nearer antecedent
        order = np.lexsort((-np.arange(i), -row))[:k]
        shortlists.append(np.sort(order).astype(np.intp))
    return coarse, shortlists


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
    shortlist slot t; slots beyond a span's shortlist hold -inf.
    """
    s = g.shape[0]
    n_pairs = len(pairs.rows)
    if n_pairs == 0:
        # no pair scorer runs, so its parameters get no gradient at all
        return ad.constant(np.zeros((s, 1)))

    features = [
        (store["pair/distance_embedding"], pairs.distance_bucket),
        (store["pair/same_speaker_embedding"], pairs.same_speaker),
        (store["pair/genre_embedding"], np.full(n_pairs, pairs.genre_id, dtype=np.intp)),
    ]

    def first_layer(w, b):
        # [g_i, g_j, g_i * g_j, phi] @ w + b, without the (P, 3g+3f) input
        return ad.pair_input_layer(g, w, b, pairs.rows, pairs.antecedents, features)

    s_c = ffnn(None, store, "score/pair", dropout, step,
               first_layer=first_layer).reshape((n_pairs,))
    s_pair = s_c + ad.take_rows(combined, pairs.rows) \
                 + ad.take_rows(combined, pairs.antecedents)
    # allocated only now, so it is not held through the pair scorer's peak
    num_slots = int(pairs.cols.max()) + 1
    base = np.full((s, 1 + num_slots), -np.inf)
    base[:, 0] = 0.0
    return ad.scatter2d(s_pair, pairs.rows, 1 + pairs.cols, base)
