"""Greedy decoding of antecedent scores into clusters and singletons."""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .corpus import ENTITY_TYPES, INFO_STATUSES, UNKNOWN, Document, Mention
from .model import ForwardPass, MtlCorefModel

PREDICT_HEADS = ("singleton", "entity_type", "info_status")


@dataclass
class PredictionResult:
    doc_key: str
    clusters: list[list[tuple[int, int]]]
    singletons: list[tuple[int, int]] = field(default_factory=list)
    mention_types: dict[tuple[int, int], str] = field(default_factory=dict)
    mention_statuses: dict[tuple[int, int], str] = field(default_factory=dict)
    cluster_types: list[str] = field(default_factory=list)

    def mention_spans(self) -> list[tuple[int, int]]:
        spans = [span for c in self.clusters for span in c]
        spans.extend(self.singletons)
        return sorted(set(spans))


def decode_antecedents(scores: np.ndarray,
                       shortlists: list[np.ndarray]) -> list[int | None]:
    """Highest-scoring antecedent per span, None for the dummy.

    scores is the (S, num_slots + 1) antecedent score matrix: column 0 is
    the dummy, which scores exactly 0, and column 1 + t is shortlist slot
    t. Ties go to the dummy first, then to the nearer antecedent: the
    argmax runs over the dummy column followed by the slot columns in
    reverse, and np.argmax returns the first maximum.
    """
    if scores.shape[0] != len(shortlists):
        raise ValueError("score matrix and shortlists disagree in length")
    order = np.concatenate([[0], np.arange(scores.shape[1] - 1, 0, -1)])
    best = order[np.argmax(scores[:, order], axis=1)]
    return [int(shortlist[col - 1]) if col else None
            for shortlist, col in zip(shortlists, best)]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _softmax(logits: np.ndarray) -> np.ndarray:
    mx = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - mx)
    return ex / ex.sum(axis=-1, keepdims=True)


def cluster_display_type(member_types: list[str]) -> str:
    """Majority vote; ties resolved by the earliest member holding a tied type."""
    known = [t for t in member_types if t != UNKNOWN]
    if not known:
        return UNKNOWN
    counts: dict[str, int] = {}
    for t in known:
        counts[t] = counts.get(t, 0) + 1
    top = max(counts.values())
    tied = {t for t, c in counts.items() if c == top}
    for t in member_types:
        if t in tied:
            return t
    raise AssertionError


def build_clusters(antecedents: list[int | None], kept_spans, doc_key: str,
                   singleton_probs: np.ndarray | None = None,
                   type_logits: np.ndarray | None = None,
                   status_logits: np.ndarray | None = None,
                   threshold: float = 0.5) -> PredictionResult:
    """Union spans along predicted links; emit clusters of size >= 2, plus
    every unlinked span whose mention probability clears the threshold as
    a singleton."""
    n = len(kept_spans)
    uf = _UnionFind(n)
    for i, j in enumerate(antecedents):
        if j is not None:
            if not 0 <= j < i:
                raise ValueError(f"antecedent {j} is not before span {i}")
            uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)

    span_of = [tuple(s.span) for s in kept_spans]
    types = {}
    statuses = {}
    if type_logits is not None:
        for i in range(n):
            types[span_of[i]] = ENTITY_TYPES[int(np.argmax(type_logits[i]))]
    if status_logits is not None:
        for i in range(n):
            statuses[span_of[i]] = INFO_STATUSES[int(np.argmax(status_logits[i]))]

    clusters = []
    singleton_indices = []
    for root in sorted(groups):
        members = sorted(groups[root])
        if len(members) >= 2:
            clusters.append([span_of[i] for i in members])
        else:
            singleton_indices.append(members[0])
    clusters.sort(key=lambda c: c[0])

    singletons = []
    if singleton_probs is not None:
        for i in singleton_indices:
            if float(singleton_probs[i]) >= threshold:
                singletons.append(span_of[i])
    singletons.sort()

    mention_types = {span: types.get(span, UNKNOWN)
                     for c in clusters for span in c}
    mention_types.update({span: types.get(span, UNKNOWN) for span in singletons})
    mention_statuses = {span: statuses.get(span, UNKNOWN)
                        for span in mention_types}
    cluster_types = [cluster_display_type([mention_types[s] for s in c])
                     for c in clusters]
    return PredictionResult(doc_key=doc_key, clusters=clusters,
                            singletons=singletons, mention_types=mention_types,
                            mention_statuses=mention_statuses,
                            cluster_types=cluster_types)


def predict_document(model: MtlCorefModel, doc: Document,
                     threshold: float = 0.5) -> PredictionResult:
    """Decode one document; a document without tokens has no mentions."""
    if doc.num_tokens == 0:
        return PredictionResult(doc.doc_key, [])
    with ad.no_grad():
        fp: ForwardPass = model.forward(
            doc, need_heads=PREDICT_HEADS if model.include_aux else ())
    antecedents = decode_antecedents(fp.scores.data, fp.shortlists)
    singleton_probs = type_logits = status_logits = None
    if model.include_aux:
        singleton_probs = _softmax(fp.logits["singleton"].data)[:, 1]
        type_logits = fp.logits["entity_type"].data
        status_logits = fp.logits["info_status"].data
    return build_clusters(antecedents, fp.kept_spans, doc.doc_key,
                          singleton_probs, type_logits, status_logits, threshold)


def prediction_to_document(pred: PredictionResult, doc: Document) -> Document:
    """Wrap a prediction in the document it was made on, so it can be
    written with the corpus writers. Predicted clusters become the
    document's clusters; singletons become unclustered mentions."""
    span_cluster = {span: ci for ci, c in enumerate(pred.clusters) for span in c}
    mentions = []
    for span in pred.mention_spans():
        mentions.append(Mention(
            span[0], span[1],
            entity_type=pred.mention_types.get(span, UNKNOWN),
            info_status=pred.mention_statuses.get(span, UNKNOWN),
            cluster_id=span_cluster.get(span),
        ))
    return Document(
        doc_key=doc.doc_key,
        genre=doc.genre,
        sentences=[list(s) for s in doc.sentences],
        speakers=[list(s) for s in doc.speakers],
        gold_clusters=[list(c) for c in pred.clusters],
        gold_mentions=mentions,
        conll_key=doc.conll_key,
        part=doc.part,
    )


def prediction_from_document(doc: Document) -> PredictionResult:
    """Read a document (for instance a predictions file) as a prediction."""
    clustered = {span for c in doc.gold_clusters for span in c}
    singletons = sorted(m.span for m in doc.gold_mentions
                        if m.span not in clustered)
    types = {m.span: m.entity_type for m in doc.gold_mentions}
    statuses = {m.span: m.info_status for m in doc.gold_mentions}
    clusters = [list(c) for c in doc.gold_clusters]
    return PredictionResult(
        doc_key=doc.doc_key,
        clusters=clusters,
        singletons=singletons,
        mention_types=types,
        mention_statuses=statuses,
        cluster_types=[cluster_display_type([types.get(s, UNKNOWN) for s in c])
                       for c in clusters],
    )
