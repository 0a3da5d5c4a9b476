"""Link-level error extraction and contrastive comparison of two systems.

Errors are keyed by the anaphor (the later mention of a link), classified
by its surface shape into six groups. Predicted links are the consecutive
pairs of each predicted cluster in document order; gold links likewise.
Three kinds:

  * missing_link: a non-initial gold-chain member whose predicted cluster
    contains no earlier member of that chain,
  * wrong_link: the anaphor is a gold mention but its predicted antecedent
    is outside its gold unit (the gold cluster, or just the mention itself
    for a non-coreferent gold mention),
  * spurious_link: the anaphor is not a gold mention at all.

missing and wrong can both fire on the same anaphor.
"""

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .corpus import Document
from .evaluation import pair_predictions

ERROR_CLASSES = (
    "pronoun_1st_2nd",
    "pronoun_3rd",
    "definite_noun",
    "indefinite_noun",
    "proper_noun",
    "other",
)

ERROR_KINDS = ("missing_link", "wrong_link", "spurious_link")

DEFINITE_DETERMINERS = {"the", "this", "that", "these", "those"}
POSSESSIVE_DETERMINERS = {"my", "your", "his", "her", "its", "our", "their", "whose"}
INDEFINITE_DETERMINERS = {"a", "an", "some"}


@lru_cache(maxsize=None)
def _pronoun_set(filename: str) -> frozenset:
    text = resources.files("corefmtl.data").joinpath(filename).read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines()
                     if line.strip() and not line.startswith("#"))


def first_second_pronouns() -> frozenset:
    return _pronoun_set("pronouns_first_second.txt")


def third_pronouns() -> frozenset:
    return _pronoun_set("pronouns_third.txt")


@dataclass(frozen=True)
class ErrorRecord:
    doc_key: str
    span: tuple[int, int]
    error_class: str
    kind: str

    @property
    def key(self) -> tuple:
        return (self.doc_key, self.span, self.kind)


def classify_anaphor(doc: Document, span: tuple[int, int]) -> str:
    """Surface-shape class of a mention, by rule cascade."""
    start, end = span
    tokens = doc.flat_tokens()[start:end + 1]
    if not tokens:
        raise ValueError(f"empty span {span}")
    lowered = [t.lower() for t in tokens]
    if len(tokens) == 1 and lowered[0] in first_second_pronouns():
        return "pronoun_1st_2nd"
    if len(tokens) == 1 and lowered[0] in third_pronouns():
        return "pronoun_3rd"
    first = lowered[0]
    if first in DEFINITE_DETERMINERS or first in POSSESSIVE_DETERMINERS \
            or tokens[0].endswith("'s") or tokens[0].endswith("’s"):
        return "definite_noun"
    head = tokens[-1]
    if first in INDEFINITE_DETERMINERS:
        return "indefinite_noun"
    head_pos = end
    sentence_initial = head_pos in set(doc.sentence_starts())
    if head[:1].isupper() and not sentence_initial:
        return "proper_noun"
    if head[:1].islower() and head.lower().endswith("s") and len(head) > 1:
        # bare plural
        return "indefinite_noun"
    return "other"


def _link_pairs(clusters):
    for cluster in clusters:
        ordered = sorted(set(map(tuple, cluster)))
        for x, y in zip(ordered, ordered[1:]):
            yield x, y


def extract_errors(gold_doc: Document, pred) -> list[ErrorRecord]:
    """All link errors of one prediction (a PredictionResult or Document)
    against its gold document."""
    [(gold_doc, pred)] = pair_predictions([gold_doc], [pred])
    gold_mentions = {m.span for m in gold_doc.gold_mentions}
    gold_unit: dict[tuple[int, int], frozenset] = {}
    for cluster in gold_doc.gold_clusters:
        unit = frozenset(map(tuple, cluster))
        for span in unit:
            gold_unit[span] = unit
    for span in gold_mentions:
        gold_unit.setdefault(span, frozenset([span]))

    records = []

    def add(span, kind):
        records.append(ErrorRecord(gold_doc.doc_key, tuple(span),
                                   classify_anaphor(gold_doc, span), kind))

    for x, y in _link_pairs(pred.clusters):
        if y not in gold_mentions:
            add(y, "spurious_link")
        elif x not in gold_unit[y]:
            add(y, "wrong_link")

    pred_cluster_of: dict[tuple[int, int], frozenset] = {}
    for cluster in pred.clusters:
        members = frozenset(map(tuple, cluster))
        for span in members:
            pred_cluster_of[span] = members
    for cluster in gold_doc.gold_clusters:
        ordered = sorted(set(map(tuple, cluster)))
        for i, y in enumerate(ordered[1:], start=1):
            earlier = set(ordered[:i])
            predicted = pred_cluster_of.get(y, frozenset())
            if not (predicted & earlier):
                add(y, "missing_link")

    records.sort(key=lambda r: (r.span, r.kind))
    return records


def extract_corpus_errors(gold_docs: list[Document], predictions) -> list[ErrorRecord]:
    """Link errors of predictions matched to gold_docs by pair_predictions."""
    return [record for doc, pred in pair_predictions(gold_docs, predictions)
            for record in extract_errors(doc, pred)]


@dataclass
class Contrast:
    """Errors one system makes that the other does not, keyed by
    (doc_key, anaphor span, kind)."""

    only_a: list[ErrorRecord]
    only_b: list[ErrorRecord]


def contrast(gold_docs: list[Document], predictions_a, predictions_b) -> Contrast:
    errors_a = extract_corpus_errors(gold_docs, predictions_a)
    errors_b = extract_corpus_errors(gold_docs, predictions_b)
    keys_a = {r.key for r in errors_a}
    keys_b = {r.key for r in errors_b}
    return Contrast(
        only_a=[r for r in errors_a if r.key not in keys_b],
        only_b=[r for r in errors_b if r.key not in keys_a],
    )


def tally_by_class(records: list[ErrorRecord]) -> dict[str, int]:
    counts = {cls: 0 for cls in ERROR_CLASSES}
    for r in records:
        counts[r.error_class] += 1
    return counts


def format_contrast(result: Contrast, label_a: str = "A", label_b: str = "B") -> str:
    """Per-class counts of errors unique to each system, with percentages."""
    ta = tally_by_class(result.only_a)
    tb = tally_by_class(result.only_b)
    total_a = sum(ta.values())
    total_b = sum(tb.values())
    width = max(len(c) for c in ERROR_CLASSES + ("anaphor class",))
    col = max(len("only " + label_a), len("only " + label_b), 14)

    def cell(count, total):
        pct = 100.0 * count / total if total else 0.0
        return f"{count:>5} ({pct:5.1f}%)"

    lines = [f"{'anaphor class':<{width}}  {('only ' + label_a):>{col}}  "
             f"{('only ' + label_b):>{col}}"]
    for cls in ERROR_CLASSES:
        lines.append(f"{cls:<{width}}  {cell(ta[cls], total_a):>{col}}  "
                     f"{cell(tb[cls], total_b):>{col}}")
    lines.append(f"{'total':<{width}}  {total_a:>{col}}  {total_b:>{col}}")
    return "\n".join(lines)
