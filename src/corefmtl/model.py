"""The end-to-end model: encode, represent, score, prune, and the joint loss."""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor, named_rng
from .corpus import Document
from .encoder import EncoderConfig, create_encoder_params, encode
from .layers import ACTIVATIONS
from .mtl import (AuxiliaryLabels, TaskWeights, assign_aux_labels, aux_losses,
                  coref_loss_from_matrix, create_head_params, gold_antecedent_mask,
                  head_logits, mention_labels, mention_scorer_loss, total_loss)
from .scoring import (coarse_scores, create_scoring_params, pair_features,
                      prune_spans, score_matrix, unary_score_tensors)
from .spans import SpanCandidate, create_span_params, enumerate_spans, represent_spans


@dataclass(frozen=True)
class ModelStructure:
    """The model-structure fields and their defaults, shared by ModelConfig
    and the training configuration."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    feature_dim: int = 20
    hidden: int = 1000
    ffnn_depth: int = 2
    activation: str = "relu"
    dropout: float = 0.3
    max_span_width: int = 30
    prune_ratio: float = 0.4
    top_antecedents: int = 50

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {', '.join(ACTIVATIONS)}, "
                             f"got {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class ModelConfig(ModelStructure):
    genres: tuple = ()

    @property
    def g_dim(self) -> int:
        return 3 * self.encoder.dim + self.feature_dim


@dataclass
class ForwardPass:
    """Everything one document's forward computation produced."""

    spans: list[SpanCandidate]
    kept: list[int]
    kept_spans: list[SpanCandidate]
    mention: Tensor             # over all candidate spans
    combined: Tensor            # over all candidate spans
    shortlists: list[np.ndarray]
    scores: Tensor              # (S_kept, num_slots + 1); column 0 is the dummy
    logits: dict[str, Tensor]


class MtlCorefModel:
    """Joint coreference + auxiliary-task model over one document at a time.

    include_aux=False builds no auxiliary heads at all: the parameter set,
    random draws, and loss graph are exactly those of a plain coreference
    model, which is what the baseline-equivalence guarantee rests on.
    """

    def __init__(self, config: ModelConfig, seed: int, vocab: list[str],
                 include_aux: bool = True):
        self.config = config
        self.seed = int(seed)
        self.vocab = list(vocab)
        self.vocab_index = {tok: i + 1 for i, tok in enumerate(self.vocab)}
        self.include_aux = bool(include_aux)
        self.store = ParameterStore(seed)
        create_encoder_params(self.store, config.encoder, self.vocab)
        create_span_params(self.store, config.encoder.dim, config.feature_dim)
        create_scoring_params(self.store, config.g_dim, config.hidden,
                              config.feature_dim, len(config.genres),
                              config.ffnn_depth)
        if self.include_aux:
            create_head_params(self.store, config.g_dim, config.hidden,
                               config.ffnn_depth)

    # -- parameter groups -------------------------------------------------

    def encoder_parameters(self) -> list[Tensor]:
        return self.store.tensors("encoder/")

    def task_parameters(self) -> list[Tensor]:
        return [t for prefix in ("span/", "score/", "pair/")
                for t in self.store.tensors(prefix)]

    def aux_parameters(self) -> list[Tensor]:
        return self.store.tensors("head/")

    def all_parameters(self) -> list[Tensor]:
        return self.store.tensors()

    def genre_id(self, genre: str) -> int:
        try:
            return self.config.genres.index(genre) + 1
        except ValueError:
            return 0

    # -- forward -----------------------------------------------------------

    def forward(self, doc: Document, train_step: int | None = None,
                need_heads: tuple[str, ...] = ()) -> ForwardPass:
        """Run the pipeline. train_step enables dropout, keyed to the step;
        need_heads names the auxiliary heads to compute (all, at inference,
        when the model has them)."""
        cfg = self.config
        dropout = cfg.dropout if train_step is not None else 0.0
        if dropout > 0.0:
            def rng_factory(name, _step=train_step):
                return named_rng(self.seed, "dropout", _step, name)
        else:
            rng_factory = None

        emb = encode(doc, cfg.encoder, self.store, self.vocab_index)
        spans = enumerate_spans(doc, cfg.max_span_width)
        g_all, _ = represent_spans(emb, spans, self.store)
        _, mention, combined = unary_score_tensors(
            g_all, self.store, cfg.ffnn_depth, cfg.activation, dropout, rng_factory)
        kept = prune_spans(combined.data, spans, doc.num_tokens, cfg.prune_ratio)
        kept_spans = [spans[i] for i in kept]
        g_kept = ad.take_rows(g_all, np.array(kept, dtype=np.intp))
        combined_kept = ad.take_rows(combined, np.array(kept, dtype=np.intp))

        _, shortlists = coarse_scores(g_kept, combined_kept, self.store,
                                      cfg.top_antecedents)
        pairs = pair_features(kept_spans, doc, shortlists, self.genre_id(doc.genre))
        num_slots = max((len(sl) for sl in shortlists), default=0)
        scores = score_matrix(g_kept, combined_kept, pairs, num_slots, self.store,
                              cfg.ffnn_depth, cfg.activation, dropout, rng_factory)

        logits: dict[str, Tensor] = {}
        if self.include_aux and need_heads:
            logits = head_logits(g_kept, self.store, need_heads, cfg.ffnn_depth,
                                 cfg.activation, dropout, rng_factory)
        return ForwardPass(spans=spans, kept=kept, kept_spans=kept_spans,
                           mention=mention, combined=combined,
                           shortlists=shortlists, scores=scores, logits=logits)

    # -- losses --------------------------------------------------------------

    def losses(self, doc: Document, weights: TaskWeights,
               train_step: int | None = None) -> tuple[dict[str, Tensor], ForwardPass]:
        """Per-task losses for one document. Zero-weight tasks are not built.

        The singleton task is the head's 2-way loss on kept spans plus the
        unary mention scorer's logistic loss on every candidate span, so
        pruning learns to rank gold mentions first.
        """
        need = tuple(task for task, w in weights.as_dict().items()
                     if task != "coref" and w > 0.0)
        if need and not self.include_aux:
            raise ValueError("auxiliary task weights require include_aux=True")
        fp = self.forward(doc, train_step=train_step, need_heads=need)
        mask = gold_antecedent_mask(fp.kept_spans, fp.shortlists,
                                    doc.gold_clusters, fp.scores.shape[1] - 1)
        parts = {"coref": coref_loss_from_matrix(fp.scores, mask)}
        if need:
            labels = assign_aux_labels(fp.kept_spans, doc)
            all_aux = aux_losses(fp.logits, labels)
            for task in need:
                parts[task] = all_aux[task]
        if "singleton" in parts:
            parts["singleton"] = parts["singleton"] + mention_scorer_loss(
                fp.mention, mention_labels(fp.spans, doc))
        return parts, fp

    def loss(self, doc: Document, weights: TaskWeights,
             train_step: int | None = None) -> tuple[Tensor, dict[str, float], ForwardPass]:
        parts, fp = self.losses(doc, weights, train_step)
        tot = total_loss(parts, weights)
        values = {task: float(t.item()) for task, t in parts.items()}
        return tot, values, fp
