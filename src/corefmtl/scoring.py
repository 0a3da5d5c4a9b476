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
from functools import cached_property
from itertools import chain
from math import ceil

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import Document
from .layers import create_ffnn, dropout_rng, ffnn, ffnn_weights
from .spans import NUM_BUCKETS, SpanSet, bucket_index

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


def unary_score_tensors(g: Tensor | ad.SpanRows, store: ParameterStore,
                        dropout: float = 0.0, step: int | None = None,
                        block: int = 0) -> Tensor:
    """Both unary scorers over the spans' representations g, as one
    autodiff.ffnn_node: shape (2S,), the S markable scores and then the S
    mention scores. block is the first row of g among the document's
    spans (ffnn's block); each scorer draws its own dropout stream.

    The model passes each block of candidate spans as spans.span_rows,
    which the node makes a tile at a time for both scorers; it splits the
    scores (autodiff.slice_rows) and mixes them (unary_mix)."""
    return ffnn(g, store, ("score/markable", "score/mention"), dropout, step,
                block=block).reshape((2 * g.shape[0],))


def unary_mix(markable: Tensor, mention: Tensor, store: ParameterStore) -> Tensor:
    """The combined unary score beta1 * markable + beta2 * mention."""
    beta = store["score/beta"]
    return ad.slice_rows(beta, 0, 1) * markable + ad.slice_rows(beta, 1, 2) * mention


# -- pruning -------------------------------------------------------------------

# candidates of the pruning walk's order turned into Python ints at a time
PRUNE_CHUNK = 1024


def prune_spans(scores: np.ndarray, spans: SpanSet, num_tokens: int,
                ratio: float = 0.4) -> np.ndarray:
    """Keep up to ceil(ratio * num_tokens) spans by descending unary score,
    greedily skipping any span that partially crosses an already kept one.
    Returns indices into spans, sorted by (start, end).

    Candidates are ordered by one np.lexsort on (-score, start, end); a
    stable sort, so equal keys keep their index order. A kept span
    partially crosses [s, e] when it starts in (s, e] and ends after e, or
    ends in [s, e) and starts before s. So the furthest end of the kept
    spans that start at each token, and the earliest start of those that
    end there, decide it in O(width) per candidate.
    """
    if len(scores) != len(spans):
        raise ValueError("scores and spans disagree in length")
    limit = min(ceil(ratio * num_tokens), len(spans))
    starts, ends = spans.starts, spans.ends
    order = np.lexsort((ends, starts, -np.asarray(scores)))
    furthest_end: dict[int, int] = {}
    earliest_start: dict[int, int] = {}
    kept: list[int] = []
    chunks = (order[lo:lo + PRUNE_CHUNK] for lo in range(0, len(order), PRUNE_CHUNK))
    for i, s, e in chain.from_iterable(
            zip(c.tolist(), starts[c].tolist(), ends[c].tolist()) for c in chunks):
        if len(kept) >= limit:
            break
        if (any(furthest_end.get(t, e) > e for t in range(s + 1, e + 1))
                or any(earliest_start.get(t, s) < s for t in range(s, e))):
            continue
        kept.append(i)
        furthest_end[s] = max(furthest_end.get(s, e), e)
        earliest_start[e] = min(earliest_start.get(e, s), s)
    kept = np.array(kept, dtype=np.intp)
    return kept[np.lexsort((ends[kept], starts[kept]))]


# -- coarse shortlist ------------------------------------------------------------

# anaphors of the coarse scores ranked at a time
COARSE_ROWS = 32
# the rank key of no antecedent, after every real one (coarse_scores)
_NOTHING = complex(np.nan, 1.0)


@dataclass(frozen=True, eq=False)
class PairIndex:
    """The kept spans' antecedent shortlists in CSR form: row i's
    antecedents, ascending, are antecedents[indptr[i]:indptr[i + 1]], and
    pair p is (rows[p], antecedents[p]), in row order. Indexing a row
    gives its shortlist; iteration yields them in row order."""

    indptr: np.ndarray
    antecedents: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        """The anaphor (kept-span index) of each pair."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def block_rows(self, lo: int, hi: int) -> np.ndarray:
        """rows[lo:hi], from indptr alone: each anaphor whose shortlist
        meets pairs lo .. hi - 1, repeated for its pairs among them."""
        first = np.searchsorted(self.indptr, lo, side="right") - 1
        last = np.searchsorted(self.indptr, hi, side="left")
        return np.repeat(np.arange(first, last),
                         np.diff(np.clip(self.indptr[first:last + 1], lo, hi)))

    def slots(self) -> np.ndarray:
        """Each pair's slot within its anaphor's shortlist."""
        return np.arange(len(self.rows)) - self.indptr[self.rows]

    @property
    def num_slots(self) -> int:
        """The longest shortlist's length."""
        return int(np.diff(self.indptr).max(initial=0))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        return self.antecedents[self.indptr[i]:self.indptr[i + 1]]

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def coarse_scores(g: Tensor, combined: Tensor, store: ParameterStore,
                  top_k: int = 50) -> PairIndex:
    """Bilinear shortlist selection over kept spans (no gradient flows here).

    Span i's shortlist holds the top_k earlier spans (all, if fewer) by
    coarse score combined[i] + combined[j] + g[i] W g[j], ranked by
    descending score with ties resolved toward the nearer antecedent (the
    higher index), and lists them in ascending order. Returns the
    shortlists as one PairIndex.

    Spans past the first top_k + 1 are ranked COARSE_ROWS anaphors at a
    time: a chunk r0 .. r1 - 1 takes one product (g[r0:r1] W) g[:r1 - 1]^T,
    so the working set is one (COARSE_ROWS x S) block of scores, its
    complex keys and their argpartition, however long the document is.
    Each candidate j of row i is ranked by the complex key -score - j*1j:
    numpy orders complex numbers by real part, then imaginary part, and a
    NaN real part last, so one argpartition per row takes the top k in
    exactly this order, and its column indices are the antecedents. A
    column at or after the anaphor holds _NOTHING, which ranks after
    every real candidate, a NaN score included. A product of another
    shape may round a score's last bits differently, so the chunk size
    can change which of two near-equal candidates a row keeps.
    """
    gv, cv = g.data, combined.data
    n = len(gv)
    lengths = np.minimum(np.arange(n), top_k)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
    antecedents = np.empty(indptr[-1], dtype=np.intp)
    for i in range(min(n, top_k + 1)):
        # a span with at most top_k earlier spans takes all of them
        antecedents[indptr[i]:indptr[i + 1]] = np.arange(i)
    w = store["score/coarse_bilinear"].data
    for r0 in range(top_k + 1, n, COARSE_ROWS):
        r1 = min(r0 + COARSE_ROWS, n)
        cols = np.arange(r1 - 1)
        key = np.empty((r1 - r0, r1 - 1), dtype=np.complex128)
        np.add(cv[r0:r1, None], cv[:r1 - 1], out=key.real)
        key.real += (gv[r0:r1] @ w) @ gv[:r1 - 1].T
        np.negative(key.real, out=key.real)
        key.imag = -cols
        key[cols >= np.arange(r0, r1)[:, None]] = _NOTHING
        top = np.argpartition(key, top_k - 1, axis=1)[:, :top_k]
        antecedents[indptr[r0]:indptr[r1]] = np.sort(top, axis=1).ravel()
        del key, top  # before the next chunk's are made
    return PairIndex(indptr, antecedents)


# -- full pairwise scores ----------------------------------------------------------


@dataclass
class PairFeatures:
    """The (span, antecedent) pairs of a PairIndex and what their feature
    ids are computed from, a block of pairs at a time (feature_ids)."""

    index: PairIndex
    speaker: np.ndarray    # per kept span; -1 is an unknown speaker
    genre_id: int

    @property
    def rows(self) -> np.ndarray:
        return self.index.rows

    @property
    def antecedents(self) -> np.ndarray:
        return self.index.antecedents

    def feature_ids(self, lo: int, hi: int, rows: np.ndarray) -> list[np.ndarray]:
        """Distance bucket, same-speaker flag and genre id of pairs lo .. hi - 1,
        whose anaphors are rows (index.block_rows(lo, hi))."""
        ants = self.antecedents[lo:hi]
        same = (self.speaker[rows] >= 0) & (self.speaker[rows] == self.speaker[ants])
        return [bucket_index(rows - ants), same.astype(np.intp),
                np.full(hi - lo, self.genre_id, dtype=np.intp)]


def pair_features(kept_spans: SpanSet, doc: Document, shortlists: PairIndex,
                  genre_id: int) -> PairFeatures:
    """The pairs of shortlists with each kept span's speaker id: integer
    ids, where unknown speakers share -1 and match no one."""
    speakers = doc.flat_speakers()
    ids = dict.fromkeys(UNKNOWN_SPEAKERS, -1)
    speaker = np.array([ids.setdefault(speakers[start], len(ids))
                        for start in kept_spans.starts.tolist()], dtype=np.intp)
    return PairFeatures(index=shortlists, speaker=speaker, genre_id=int(genre_id))


def score_matrix(g: Tensor, combined: Tensor, pairs: PairFeatures,
                 store: ParameterStore, dropout: float = 0.0,
                 step: int | None = None) -> Tensor:
    """Full antecedent score matrix, shape (S, num_slots + 1), with as
    many slots as the longest shortlist.

    Column 0 is the dummy antecedent, a constant exact 0. Column 1 + t is
    shortlist slot t; slots beyond a span's shortlist hold -inf. The pair
    scorer takes the pairs in blocks (autodiff.row_blocks), each one
    autodiff.pair_scorer node with its own dropout stream (ffnn's row
    block, layers.dropout_rng), its own anaphors (PairIndex.block_rows,
    found once per block) and its own feature ids
    (PairFeatures.feature_ids); its first layer's antecedent and table
    terms are computed once, for every block. The node keeps only the
    block's scores, and works and backpropagates GATHER_ROWS pairs at a
    time.

    The matrix is allocated before the first block, and each block's
    scores are written into it as the block ends (autodiff.place_blocks),
    so no block's scores outlive it without a tape and no array over
    every pair is made.
    """
    s = g.shape[0]
    index = pairs.index
    if len(index.antecedents) == 0:
        # no pair scorer runs, so its parameters get no gradient at all
        return ad.constant(np.zeros((s, 1)))

    tables = [store["pair/distance_embedding"], store["pair/same_speaker_embedding"],
              store["pair/genre_embedding"]]
    layers = ffnn_weights(store, "score/pair")
    projected = ad.pair_projections(g, layers[0][0], tables)

    def blocks():
        for lo, hi in ad.row_blocks(len(index.antecedents)):
            rows = index.block_rows(lo, hi)
            ants = pairs.antecedents[lo:hi]
            # the node keeps the ids until its backward, each in the
            # smallest type that holds its table's rows
            ids = [i.astype(np.min_scalar_type(t.shape[0] - 1))
                   for t, i in zip(tables, pairs.feature_ids(lo, hi, rows))]
            s_c = ad.pair_scorer(g, layers, rows, ants, list(zip(tables, ids)),
                                 projected, rate=dropout,
                                 rng=dropout_rng(store, "score/pair", dropout, step, lo))
            yield (s_c.reshape((hi - lo,)) + ad.take_rows(combined, rows)
                   + ad.take_rows(combined, ants),
                   rows, 1 + np.arange(lo, hi) - index.indptr[rows])

    out = np.full((s, 1 + index.num_slots), -np.inf)
    out[:, 0] = 0.0
    return ad.place_blocks(out, blocks())
