"""Coreference evaluation: MUC, B-cubed, CEAF (phi4), mention detection.

All three cluster metrics are computed from (numerator, denominator)
sufficient statistics so that multi-document scores pool the statistics
rather than averaging per-document F1. Clusters are scored exactly as
given; dropping singleton clusters is an option of evaluate(), not of
the metric functions.
"""

from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import Document, PredictionResult, prediction_from_document


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class PRF1:
    precision: float
    recall: float
    f1: float

    def rounded(self, digits=4) -> tuple[float, float, float]:
        return (round(self.precision, digits), round(self.recall, digits),
                round(self.f1, digits))


@dataclass(frozen=True)
class EvaluationReport:
    markable_detection: PRF1
    muc: PRF1
    b_cubed: PRF1
    ceaf_phi4: PRF1
    avg_f1: float
    keep_singletons: bool
    mention_mode: str
    num_documents: int


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def _prf(rn, rd, pn, pd) -> PRF1:
    r = _ratio(rn, rd)
    p = _ratio(pn, pd)
    f = _ratio(2 * p * r, p + r)
    return PRF1(p, r, f)


def _as_cluster_sets(clusters) -> list[frozenset]:
    out = []
    for c in clusters:
        fs = frozenset(map(tuple, c))
        if not fs:
            raise EvaluationError("empty cluster")
        out.append(fs)
    total = sum(len(c) for c in out)
    if len(frozenset().union(*out) if out else frozenset()) != total:
        raise EvaluationError("clusters share a mention")
    return out


# -- sufficient statistics ----------------------------------------------------


def muc_stats(key, response) -> tuple[float, float, float, float]:
    """(recall_num, recall_den, precision_num, precision_den) for MUC.

    Link-based: each cluster of size n contributes n-1 links; credit for a
    key cluster is n minus the number of partitions the response induces
    on it (missing mentions count as one partition each).
    """
    key = _as_cluster_sets(key)
    response = _as_cluster_sets(response)

    def side(gold, pred):
        num = den = 0.0
        mention_to = {}
        for i, c in enumerate(pred):
            for m in c:
                mention_to[m] = i
        for c in gold:
            parts = {mention_to.get(m, ("twinless", m)) for m in c}
            num += len(c) - len(parts)
            den += len(c) - 1
        return num, den

    rn, rd = side(key, response)
    pn, pd = side(response, key)
    return rn, rd, pn, pd


def b_cubed_stats(key, response) -> tuple[float, float, float, float]:
    """B-cubed: per-mention overlap ratios, summed over mentions."""
    key = _as_cluster_sets(key)
    response = _as_cluster_sets(response)

    def side(gold, pred):
        num = den = 0.0
        for g in gold:
            for p in pred:
                inter = len(g & p)
                if inter:
                    num += inter * inter / len(g)
            den += len(g)
        return num, den

    rn, rd = side(key, response)
    pn, pd = side(response, key)
    return rn, rd, pn, pd


def phi4(a: frozenset, b: frozenset) -> float:
    return 2.0 * len(a & b) / (len(a) + len(b))


def ceaf_phi4_stats(key, response) -> tuple[float, float, float, float]:
    """CEAF with the phi4 similarity under the optimal one-to-one alignment."""
    key = _as_cluster_sets(key)
    response = _as_cluster_sets(response)
    if not key or not response:
        total = 0.0
    else:
        scores = np.zeros((len(key), len(response)))
        for i, k in enumerate(key):
            for j, r in enumerate(response):
                scores[i, j] = phi4(k, r)
        rows, cols = linear_sum_assignment(-scores)
        total = float(scores[rows, cols].sum())
    return total, float(len(key)), total, float(len(response))


def markable_stats(key_mentions, response_mentions) -> tuple[float, float, float, float]:
    key = set(map(tuple, key_mentions))
    response = set(map(tuple, response_mentions))
    hit = float(len(key & response))
    return hit, float(len(key)), hit, float(len(response))


# -- single-pair scoring --------------------------------------------------------


def score_muc(key, response) -> PRF1:
    return _prf(*muc_stats(key, response))


def score_b_cubed(key, response) -> PRF1:
    return _prf(*b_cubed_stats(key, response))


def score_ceaf_phi4(key, response) -> PRF1:
    return _prf(*ceaf_phi4_stats(key, response))


def _check_mention_mode(mode: str):
    if mode not in ("all", "coreferent"):
        raise EvaluationError(f"unknown mention mode: {mode!r}")


def _mention_sets(mode, key_mentions, response_mentions, key_clusters,
                  response_clusters):
    """The two mention sets that mention detection compares in mode."""
    if mode == "coreferent":
        return _coreferent_spans(key_clusters), _coreferent_spans(response_clusters)
    return key_mentions, response_mentions


def markable_detection_prf(key_mentions, response_mentions, mode: str = "all",
                           key_clusters=None, response_clusters=None) -> PRF1:
    """Span-set precision/recall/F1 over mentions.

    mode "all" compares the given sets; mode "coreferent" restricts both
    sides to mentions inside clusters of size >= 2, which requires the
    cluster lists.
    """
    _check_mention_mode(mode)
    if mode == "coreferent" and (key_clusters is None or response_clusters is None):
        raise EvaluationError("coreferent mode needs both cluster lists")
    return _prf(*markable_stats(*_mention_sets(
        mode, key_mentions, response_mentions, key_clusters, response_clusters)))


def _coreferent_spans(clusters) -> set:
    return {tuple(m) for c in clusters if len(set(map(tuple, c))) >= 2 for m in c}


def drop_singletons(clusters) -> list:
    return [c for c in clusters if len(set(map(tuple, c))) >= 2]


# -- corpus-level evaluation ----------------------------------------------------


def pair_predictions(gold_docs: list[Document],
                     predictions) -> list[tuple[Document, PredictionResult]]:
    """Match predictions to gold documents by doc_key, in gold order.

    predictions: PredictionResult objects or Documents; a Document is read
    as a prediction by prediction_from_document. Every gold document needs
    exactly one prediction, and every prediction a gold document.
    """
    by_key = {}
    for p in predictions:
        if isinstance(p, Document):
            p = prediction_from_document(p)
        elif not isinstance(p, PredictionResult):
            raise TypeError("predictions must be PredictionResults or Documents")
        if p.doc_key in by_key:
            raise EvaluationError(f"duplicate prediction for document {p.doc_key}")
        by_key[p.doc_key] = p
    gold_keys = {d.doc_key for d in gold_docs}
    missing = sorted(gold_keys - set(by_key))
    extra = sorted(set(by_key) - gold_keys)
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing predictions for: " + ", ".join(missing))
        if extra:
            parts.append("predictions for unknown documents: " + ", ".join(extra))
        raise EvaluationError("; ".join(parts))
    return [(doc, by_key[doc.doc_key]) for doc in gold_docs]


def _scored_clusters(pred: PredictionResult) -> list:
    """Clusters plus one size-1 cluster per singleton, as the CoNLL writer
    emits them with include_singletons."""
    return pred.clusters + [[s] for s in pred.singletons]


def evaluate(gold_docs: list[Document], predictions, keep_singletons: bool = False,
             mention_mode: str = "all") -> EvaluationReport:
    """Pool metric statistics over the (gold, prediction) pairs of
    pair_predictions.

    Both sides are read as predictions: loose gold mentions and predicted
    singleton spans count as size-1 clusters, exactly as the CoNLL writer
    would emit them; singleton clusters are then dropped from both sides
    unless keep_singletons is set. Mention detection compares gold mentions
    with predicted mentions (clustered plus singleton spans); in coreferent
    mode both sides are restricted to clusters of size >= 2.
    """
    _check_mention_mode(mention_mode)
    pooled = {"muc": np.zeros(4), "b3": np.zeros(4), "ceaf": np.zeros(4),
              "markable": np.zeros(4)}
    for doc, pred in pair_predictions(gold_docs, predictions):
        key = prediction_from_document(doc)
        key_clusters = _scored_clusters(key)
        resp_clusters = _scored_clusters(pred)
        if not keep_singletons:
            key_clusters = drop_singletons(key_clusters)
            resp_clusters = drop_singletons(resp_clusters)
        pooled["muc"] += muc_stats(key_clusters, resp_clusters)
        pooled["b3"] += b_cubed_stats(key_clusters, resp_clusters)
        pooled["ceaf"] += ceaf_phi4_stats(key_clusters, resp_clusters)
        pooled["markable"] += markable_stats(*_mention_sets(
            mention_mode, key.mention_spans(), pred.mention_spans(),
            key.clusters, pred.clusters))

    muc = _prf(*pooled["muc"])
    b3 = _prf(*pooled["b3"])
    ceaf = _prf(*pooled["ceaf"])
    markable = _prf(*pooled["markable"])
    return EvaluationReport(
        markable_detection=markable,
        muc=muc,
        b_cubed=b3,
        ceaf_phi4=ceaf,
        avg_f1=(muc.f1 + b3.f1 + ceaf.f1) / 3.0,
        keep_singletons=keep_singletons,
        mention_mode=mention_mode,
        num_documents=len(gold_docs),
    )


def format_report(report: EvaluationReport) -> str:
    rows = [
        ("markable detection", report.markable_detection),
        ("MUC", report.muc),
        ("B-cubed", report.b_cubed),
        ("CEAF-phi4", report.ceaf_phi4),
    ]
    lines = [f"documents: {report.num_documents}   "
             f"singletons: {'kept' if report.keep_singletons else 'dropped'}   "
             f"mentions: {report.mention_mode}"]
    lines.append(f"{'metric':<20}{'P':>9}{'R':>9}{'F1':>9}")
    for name, prf in rows:
        lines.append(f"{name:<20}{prf.precision:>9.4f}{prf.recall:>9.4f}{prf.f1:>9.4f}")
    lines.append(f"{'avg F1':<20}{'':>9}{'':>9}{report.avg_f1:>9.4f}")
    return "\n".join(lines)


def report_to_dict(report: EvaluationReport) -> dict:
    return asdict(report)
