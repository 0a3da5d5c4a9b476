"""The joint objective: coreference loss plus weighted auxiliary task losses.

Auxiliary heads operate on the pruned span set only. Mention detection is
a 2-way decision on every kept span; entity type (10-way) and information
status (6-way) are trained only on kept spans that match a gold mention
with a known label. The total loss is the exact weighted sum
sum_c W_c * L_c over tasks with nonzero weight.

The singleton task also supervises the unary mention scorer (score/mention)
that pruning ranks by: its loss adds the mean logistic loss of that score
against exact gold-mention membership over *every* candidate span, kept or
not, so a gold mention that pruning drops still learns to rank higher.
It is built only when the singleton weight is > 0. The paper's abstract
credits singleton data with better mention detection but does not say
whether the mention scorer itself is supervised; this follows that claim.
"""

from dataclasses import asdict, dataclass
from math import isfinite

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import ENTITY_TYPES, INFO_STATUSES, UNKNOWN, Document, cluster_index
from .layers import create_ffnn, ffnn
from .scoring import PairIndex
from .spans import SpanSet

# each labelled head predicts the Mention field it is named after
HEAD_LABELS = {"entity_type": ENTITY_TYPES, "info_status": INFO_STATUSES}
HEAD_SIZES = {"singleton": 2,
              **{task: len(names) for task, names in HEAD_LABELS.items()}}


@dataclass(frozen=True)
class TaskWeights:
    coref: float = 1.0
    singleton: float = 0.0
    entity_type: float = 0.0
    info_status: float = 0.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (isfinite(value) and value >= 0):
                raise ValueError(f"task weight {name} must be finite and >= 0, "
                                 f"got {value}")
        if self.coref <= 0:
            raise ValueError("coreference weight must be > 0")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def aux_tasks(self) -> tuple[str, ...]:
        """The auxiliary tasks with a positive weight, in field order."""
        return tuple(task for task, w in self.as_dict().items()
                     if task != "coref" and w > 0.0)


PRESET_WEIGHTS = {
    "baseline": TaskWeights(1.0, 0.0, 0.0, 0.0),
    "sg": TaskWeights(0.5, 0.5, 0.0, 0.0),
    "sg_ent": TaskWeights(0.4, 0.2, 0.2, 0.0),
    "sg_ent_infs": TaskWeights(0.55, 0.15, 0.15, 0.15),
}


def mention_labels(spans: SpanSet, doc: Document) -> np.ndarray:
    """1 where a span exactly matches a gold mention, else 0: one np.isin
    of (start, end) keys."""
    gold = np.array(list(doc.mention_map()), dtype=np.intp).reshape(-1, 2)
    n = int(max(spans.ends.max(initial=0), gold.max(initial=0))) + 1
    return np.isin(spans.starts * n + spans.ends,
                   gold[:, 0] * n + gold[:, 1]).astype(np.intp)


def assign_aux_labels(kept_spans: SpanSet, doc: Document) -> dict[str, np.ndarray]:
    """Per-kept-span targets of every head, by exact span match against the
    gold mentions: the singleton target is 0/1, and a labelled head's
    target indexes its label names, with -1 (excluded from that task) for
    spans that match no gold mention or whose label is unknown."""
    mentions = doc.mention_map()
    matched = [mentions.get(cand.span) for cand in kept_spans]
    labels = {"singleton": mention_labels(kept_spans, doc)}
    for task, names in HEAD_LABELS.items():
        values = [UNKNOWN if m is None else getattr(m, task) for m in matched]
        labels[task] = np.array([-1 if v == UNKNOWN else names.index(v)
                                 for v in values], dtype=np.intp)
    return labels


def labelled_tasks(tasks: tuple[str, ...],
                   labels: dict[str, np.ndarray]) -> tuple[str, ...]:
    """The tasks of tasks with at least one labelled kept span: a head
    without one adds only the constant 0 of cross_entropy to the loss,
    so a training step need not build it."""
    return tuple(task for task in tasks if (labels[task] >= 0).any())


def create_head_params(store: ParameterStore, g_dim: int, hidden: int, depth: int = 2):
    # zero output layers: a fresh head is exactly uniform over its classes
    for task, width in HEAD_SIZES.items():
        create_ffnn(store, f"head/{task}", g_dim, hidden, width, depth,
                    zero_output=True)


def head_logits(g: Tensor, store: ParameterStore, tasks=tuple(HEAD_SIZES),
                dropout: float = 0.0, step: int | None = None) -> dict[str, Tensor]:
    """Logits of the named heads only; each head draws its own dropout
    stream, so which other heads run never changes its output.

    Each head is one autodiff.ffnn_node over all the kept spans, which
    works GATHER_ROWS of them at a time, forward and backward: a pass
    holds one tile's hidden layers, and the tape keeps only g and the
    logits."""
    return {task: ffnn(g, store, f"head/{task}", dropout, step) for task in tasks}


# -- losses --------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy over rows with label >= 0; exact 0 if none."""
    labels = np.asarray(labels)
    keep = np.flatnonzero(labels >= 0)
    if len(keep) == 0:
        return ad.constant(0.0)
    sel = ad.take_rows(logits, keep)
    n, c = sel.shape
    lse = ad.logsumexp(sel)
    flat = sel.reshape((n * c,))
    gold = ad.take_rows(flat, np.arange(n) * c + labels[keep])
    return (lse - gold).mean()


def mention_scorer_loss(mention: Tensor, labels: np.ndarray) -> Tensor:
    """Mean logistic loss of unary mention scores (S,) against 0/1 labels.

    The score s is the logit of "mention" against a fixed 0 for "not a
    mention", so per span this is log(1 + exp(s)) - y * s.
    """
    n = mention.shape[0]
    logits = ad.concat([ad.constant(np.zeros((n, 1))), mention.reshape((n, 1))],
                       axis=1)
    return cross_entropy(logits, labels)


def gold_antecedent_mask(kept_spans: SpanSet, shortlists: PairIndex,
                         gold_clusters, num_slots: int) -> np.ndarray:
    """Boolean (S, num_slots + 1): which score-matrix entries are gold.

    Column 0 is the dummy antecedent; it is gold exactly when no gold
    antecedent of the span survives in its shortlist.
    """
    cluster_of = cluster_index(gold_clusters)
    cluster = np.array([cluster_of.get(cand.span, -1) for cand in kept_spans],
                       dtype=np.intp)
    rows, antecedents = shortlists.rows, shortlists.antecedents
    gold = np.flatnonzero((cluster[rows] >= 0) & (cluster[rows] == cluster[antecedents]))
    mask = np.zeros((len(kept_spans), num_slots + 1), dtype=bool)
    mask[rows[gold], 1 + shortlists.slots()[gold]] = True
    mask[:, 0] = ~mask[:, 1:].any(axis=1)
    return mask


def coref_loss_from_matrix(scores: Tensor, gold_mask: np.ndarray) -> Tensor:
    """Marginal log-likelihood loss, summed over spans.

    Per span: log sum_j exp s(i, j) - log sum_{j in GOLD(i)} exp s(i, j),
    the softmax normalized over the dummy plus the shortlist.
    """
    if scores.shape != gold_mask.shape:
        raise ValueError("score matrix and gold mask disagree in shape")
    denom = ad.logsumexp(scores)
    masked = scores + ad.constant(np.where(gold_mask, 0.0, -np.inf))
    numer = ad.logsumexp(masked)
    return (denom - numer).sum()


def aux_losses(logits: dict[str, Tensor],
               labels: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """One masked cross-entropy per head present in logits."""
    return {task: cross_entropy(t, labels[task]) for task, t in logits.items()}


def total_loss(parts: dict[str, Tensor], weights: TaskWeights) -> Tensor:
    """Exact weighted sum over tasks with nonzero weight.

    Zero-weight tasks are skipped entirely, so their graphs need not exist.
    """
    wd = weights.as_dict()
    total = None
    for task, weight in wd.items():
        if weight == 0.0:
            continue
        if task not in parts:
            raise KeyError(f"loss for weighted task {task!r} not provided")
        term = parts[task] * weight
        total = term if total is None else total + term
    return total
