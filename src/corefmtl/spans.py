"""Candidate span enumeration and span representations.

A span representation concatenates the boundary token embeddings, an
attention-weighted average over the span's tokens (the soft head), and a
bucketed width embedding: dimension 3*d + feature_dim.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import Document

# buckets: widths/distances 1,2,3,4 exact, then 5-7, 8-15, 16-31, 32+
_BUCKET_STARTS = np.array([1, 2, 3, 4, 5, 8, 16, 32])
NUM_BUCKETS = len(_BUCKET_STARTS)


def bucket_index(n):
    """Bucket of each positive width or distance in n (an int or an array)."""
    n = np.asarray(n)
    if np.any(n <= 0):
        raise ValueError(f"bucketed quantities must be positive, got {n.min()}")
    return np.searchsorted(_BUCKET_STARTS, n, side="right") - 1


@dataclass(frozen=True, order=True)
class SpanCandidate:
    """One span, as item access on a SpanSet yields it."""

    start: int
    end: int

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True, eq=False)
class SpanSet:
    """Candidate spans as two int arrays, their inclusive token bounds.
    Slicing or indexing with an int array gives a SpanSet; indexing with an
    int gives one SpanCandidate, and iteration yields them in order."""

    starts: np.ndarray
    ends: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return self.ends - self.starts + 1

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return SpanCandidate(int(self.starts[index]), int(self.ends[index]))
        return SpanSet(self.starts[index], self.ends[index])

    def __iter__(self):
        for start, end in zip(self.starts.tolist(), self.ends.tolist()):
            yield SpanCandidate(start, end)


def enumerate_spans(doc: Document, max_span_width: int = 30) -> SpanSet:
    """All spans of width <= max_span_width that stay inside one sentence,
    in (start, end) lexicographic order, built with array ops: token t
    starts min(max_span_width, tokens left in its sentence) spans."""
    if max_span_width < 1:
        raise ValueError("max_span_width must be >= 1")
    lengths = np.array([len(sent) for sent in doc.sentences], dtype=np.intp)
    sentence_end = np.repeat(np.cumsum(lengths), lengths)  # exclusive
    tokens = np.arange(len(sentence_end))
    counts = np.minimum(sentence_end - tokens, max_span_width)
    starts = np.repeat(tokens, counts)
    first = np.cumsum(counts) - counts  # each token's first span
    ends = starts + np.arange(len(starts)) - np.repeat(first, counts)
    return SpanSet(starts, ends)


def create_span_params(store: ParameterStore, dim: int, feature_dim: int):
    store.create("span/width_embedding", (NUM_BUCKETS, feature_dim), std=1.0)
    store.create("span/head_score", (dim, 1))


def represent_spans(embeddings: Tensor, spans: SpanSet,
                    store: ParameterStore,
                    width: int | None = None) -> tuple[Tensor, np.ndarray]:
    """Representations for all spans at once, as one tape node
    (autodiff.span_representation).

    Returns (G, alphas): G is (S, 3d+f); alphas holds each span's head
    attention weights padded with zeros to width columns, by default the
    widest span's. Blocks of one document's spans pass the document's
    widest, so every block's soft head sums the same columns. ValueError
    when there are no spans or width is below the widest span.
    """
    if not len(spans):
        raise ValueError("no spans to represent")
    widths = spans.widths
    return ad.span_representation(
        embeddings, store["span/head_score"], store["span/width_embedding"],
        spans.starts, spans.ends, bucket_index(widths),
        int(widths.max()) if width is None else width)
