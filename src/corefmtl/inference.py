"""Greedy decoding of antecedent scores into clusters and singletons."""

import numpy as np

from . import autodiff as ad
from .corpus import ENTITY_TYPES, INFO_STATUSES, UNKNOWN, Document, PredictionResult
# the document conversions live in corpus; this module still offers them
from .corpus import prediction_from_document, prediction_to_document  # noqa: F401
from .model import ForwardPass, MtlCorefModel

PREDICT_HEADS = ("singleton", "entity_type", "info_status")


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
    return PredictionResult(doc_key=doc_key, clusters=clusters,
                            singletons=singletons, mention_types=mention_types,
                            mention_statuses=mention_statuses)


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
