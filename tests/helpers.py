"""Shared fixture builders for the test suite."""

import numpy as np

from corefmtl.corpus import Document, Mention
from corefmtl.scoring import PairIndex
from corefmtl.spans import SpanCandidate, SpanSet, enumerate_spans


def make_document(sentences, clusters=(), mentions=None, doc_key="test/doc_0",
                  genre="test", speakers=None):
    """Document from token lists; mentions default to the clustered spans."""
    sentences = [list(s) for s in sentences]
    if speakers is None:
        speakers = [["spk"] * len(s) for s in sentences]
    clusters = [sorted(map(tuple, c)) for c in clusters]
    clusters.sort(key=lambda c: c[0])
    if mentions is None:
        mentions = []
        for ci, cluster in enumerate(clusters):
            for s, e in cluster:
                mentions.append(Mention(s, e, cluster_id=ci))
        mentions.sort(key=lambda m: m.span)
    return Document(doc_key=doc_key, genre=genre, sentences=sentences,
                    speakers=speakers, gold_clusters=clusters,
                    gold_mentions=mentions)


def span_set(spans) -> SpanSet:
    """The SpanSet of SpanCandidates or (start, end) tuples."""
    rows = [c.span if isinstance(c, SpanCandidate) else c for c in spans]
    return SpanSet(*np.array(rows, dtype=np.intp).reshape(-1, 2).T)


def pair_index(shortlists) -> PairIndex:
    """The PairIndex of per-row antecedent lists."""
    indptr = np.concatenate([[0], np.cumsum([len(sl) for sl in shortlists])])
    return PairIndex(indptr.astype(np.intp),
                     np.concatenate([np.zeros(0), *shortlists]).astype(np.intp))


def spans_to_clusters(*clusters):
    return [[tuple(span) for span in c] for c in clusters]


def random_shortlisted_document(rng, num_kept=None, max_shortlist=5):
    """A random document with per-token speakers (some unknown), kept spans
    drawn from its candidates in (start, end) order, and for each kept span
    a sorted random shortlist of earlier kept spans, possibly empty, as
    one PairIndex."""
    lengths = rng.integers(1, 8, size=int(rng.integers(1, 5)))
    pool = ["a", "b", "-", ""]
    doc = make_document([["w"] * int(n) for n in lengths],
                        speakers=[[pool[k] for k in rng.integers(4, size=n)]
                                  for n in lengths])
    spans = enumerate_spans(doc, 4)
    n = num_kept or int(rng.integers(1, len(spans) + 1))
    kept = spans[np.sort(rng.choice(len(spans), n, replace=False))]
    shortlists = [np.sort(rng.choice(i, int(rng.integers(0, min(i, max_shortlist) + 1)),
                                     replace=False)).astype(np.intp)
                  for i in range(n)]
    return doc, kept, pair_index(shortlists)
