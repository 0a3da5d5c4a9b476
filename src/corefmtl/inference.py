"""Greedy decoding of antecedent scores into clusters and singletons."""

import numpy as np

from . import autodiff as ad
from .corpus import ENTITY_TYPES, INFO_STATUSES, UNKNOWN, Document, PredictionResult
from .model import ForwardPass, MtlCorefModel
from .mtl import HEAD_SIZES
from .scoring import PairIndex


def decode_antecedents(scores: np.ndarray, shortlists: PairIndex) -> list[int | None]:
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
    picked = np.full(len(best), -1)
    linked = best > 0
    picked[linked] = shortlists.antecedents[shortlists.indptr[:-1][linked]
                                            + best[linked] - 1]
    return [j if j >= 0 else None for j in picked.tolist()]


def build_clusters(antecedents: list[int | None], kept_spans, doc_key: str,
                   singleton_probs: np.ndarray | None = None,
                   type_logits: np.ndarray | None = None,
                   status_logits: np.ndarray | None = None,
                   threshold: float = 0.5) -> PredictionResult:
    """Group spans along predicted links; emit clusters of size >= 2, plus
    every unlinked span whose mention probability clears the threshold as
    a singleton."""
    # every link points to an earlier span, so one pass in span order puts
    # each span in the group of its chain's first span
    first: list[int] = []
    groups: dict[int, list[int]] = {}
    for i, j in enumerate(antecedents):
        if j is not None and not 0 <= j < i:
            raise ValueError(f"antecedent {j} is not before span {i}")
        first.append(i if j is None else first[j])
        groups.setdefault(first[i], []).append(i)

    span_of = [tuple(s.span) for s in kept_spans]
    linked = sorted((g for g in groups.values() if len(g) >= 2),
                    key=lambda g: span_of[g[0]])
    unlinked = []
    if singleton_probs is not None:
        unlinked = sorted((g[0] for g in groups.values()
                           if len(g) == 1 and float(singleton_probs[g[0]]) >= threshold),
                          key=span_of.__getitem__)
    emitted = [i for g in linked for i in g] + unlinked

    def labels(logits, names):
        if logits is None:
            return {span_of[i]: UNKNOWN for i in emitted}
        return {span_of[i]: names[int(np.argmax(logits[i]))] for i in emitted}

    return PredictionResult(doc_key=doc_key,
                            clusters=[[span_of[i] for i in g] for g in linked],
                            singletons=[span_of[i] for i in unlinked],
                            mention_types=labels(type_logits, ENTITY_TYPES),
                            mention_statuses=labels(status_logits, INFO_STATUSES))


def predict_document(model: MtlCorefModel, doc: Document,
                     threshold: float = 0.5) -> PredictionResult:
    """Decode one document; a document without tokens has no mentions.

    The forward pass builds no tape and runs in blocks of
    autodiff.PAIR_BLOCK rows (see MtlCorefModel.forward), as a taped pass
    does, so its scores are bit-identical to those of a taped pass.
    """
    if doc.num_tokens == 0:
        return PredictionResult(doc.doc_key, [])
    with ad.no_grad():
        fp: ForwardPass = model.forward(
            doc, need_heads=tuple(HEAD_SIZES) if model.include_aux else ())
    antecedents = decode_antecedents(fp.scores.data, fp.shortlists)
    singleton_probs = type_logits = status_logits = None
    if model.include_aux:
        singleton_probs = ad._logsumexp_softmax(fp.logits["singleton"].data)[1][:, 1]
        type_logits = fp.logits["entity_type"].data
        status_logits = fp.logits["info_status"].data
    return build_clusters(antecedents, fp.kept_spans, doc.doc_key,
                          singleton_probs, type_logits, status_logits, threshold)
