"""The end-to-end model: encode, represent, score, prune, and the joint loss."""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from math import isfinite

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import Document
from .encoder import (EncoderConfig, FeatureFile, check_int_fields, create_encoder_params,
                      encode)
from .mtl import (TaskWeights, assign_aux_labels, aux_losses, coref_loss_from_matrix,
                  create_head_params, gold_antecedent_mask, head_logits,
                  labelled_tasks, mention_labels, mention_scorer_loss, total_loss)
from .scoring import (PairIndex, coarse_scores, create_scoring_params, pair_features,
                      prune_spans, score_matrix, unary_mix, unary_score_tensors)
from .spans import SpanSet, create_span_params, enumerate_spans, represent_spans


@dataclass(frozen=True)
class ModelStructure:
    """The model-structure fields and their defaults, shared by ModelConfig
    and the training configuration."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    feature_dim: int = 20
    hidden: int = 1000
    ffnn_depth: int = 2
    dropout: float = 0.3
    max_span_width: int = 30
    prune_ratio: float = 0.4
    top_antecedents: int = 50

    def __post_init__(self):
        # also the int fields of a subclass: the training configuration's
        check_int_fields(self)
        for name, least in (("feature_dim", 0), ("hidden", 1), ("ffnn_depth", 0),
                            ("max_span_width", 1), ("top_antecedents", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (isfinite(self.prune_ratio) and self.prune_ratio > 0):
            raise ValueError(f"prune_ratio must be finite and > 0, got {self.prune_ratio}")


@dataclass(frozen=True)
class ModelConfig(ModelStructure):
    genres: tuple = ()

    @property
    def g_dim(self) -> int:
        return 3 * self.encoder.dim + self.feature_dim


@dataclass
class ForwardPass:
    """Everything one document's forward computation produced. The spans
    are arrays (SpanSet), and the shortlists one CSR index (PairIndex);
    indexing either gives one span or one shortlist."""

    spans: SpanSet
    kept: np.ndarray            # indices into spans, in (start, end) order
    kept_spans: SpanSet
    mention: Tensor | None      # over all candidate spans, for the singleton task
    combined: Tensor            # over all candidate spans
    shortlists: PairIndex
    scores: Tensor              # (S_kept, num_slots + 1); column 0 is the dummy
    logits: dict[str, Tensor]
    # each head's targets over the kept spans, when forward was given head_labels
    labels: dict[str, np.ndarray] | None = None


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
        self.features = (FeatureFile(config.encoder.features)
                         if config.encoder.features else None)
        self.store = ParameterStore(seed)
        create_encoder_params(self.store, config.encoder, self.vocab, self.features)
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
                need_heads: tuple[str, ...] = (),
                head_labels: Callable[[SpanSet], dict[str, np.ndarray]] | None = None
                ) -> ForwardPass:
        """Run the pipeline. train_step enables dropout, keyed to the step;
        need_heads names the auxiliary heads to compute (all, at inference,
        when the model has them). head_labels, if given, maps the kept
        spans to each head's targets (mtl.assign_aux_labels): the pass
        keeps them, and builds no head in need_heads whose targets label
        no kept span (mtl.labelled_tasks).

        The spans and the pairs go through their scorers in blocks of
        autodiff.PAIR_BLOCK rows, with or without a tape, and each block
        draws its own dropout masks: of all candidate spans only the
        combined scores are kept (and the mention scores, when need_heads
        holds the singleton task), and the kept spans are represented
        again, in one piece. Both unary scorers of a block are one
        autodiff.ffnn_node over its representations, whose rows hold the
        markable scores and then the mention scores, split by row slices
        (autodiff.slice_rows). The coarse shortlist ranks its anaphors
        scoring.COARSE_ROWS at a time.

        With a tape, each block of spans, represented and scored over the
        token embeddings, runs inside autodiff.recompute, the model's only
        recompute site, so the tape keeps its scores and backward rebuilds
        one block's graph at a time. Each block of pairs in score_matrix
        is one autodiff.pair_scorer node and each head in head_logits one
        autodiff.ffnn_node over all the kept spans: each keeps its inputs
        and outputs, works GATHER_ROWS rows at a time and reruns its tiles
        in backward. The toy encoder (encode) is one tape node over the
        embedding table (autodiff.window_mix) that keeps only its output.
        The tape then grows with the tokens and the kept spans, not with
        the candidate spans or the pairs times the hidden size.

        Nothing after the kept spans' representations reads the token
        embeddings or the kept spans' attention weights, so forward drops
        them there: without a tape they are freed before the shortlist and
        the pair scorer run, and with one the tape keeps them for
        backward. Without a tape, then, a long document's pass holds one
        tile's working set of the pair scorer or of a head at a time,
        besides the kept spans' representations and the score matrix.
        """
        cfg = self.config
        emb = encode(doc, cfg.encoder, self.store, self.vocab_index, self.features)
        spans = enumerate_spans(doc, cfg.max_span_width)
        width = int(spans.widths.max(initial=1))

        def span_block(e: Tensor, lo: int, hi: int) -> Tensor:
            return unary_score_tensors(
                represent_spans(e, spans[lo:hi], self.store, width)[0],
                self.store, cfg.dropout, train_step, block=lo)

        mention, combined = [], []
        for lo, hi in ad.row_blocks(len(spans)):
            both = ad.recompute(partial(span_block, lo=lo, hi=hi), emb)
            n = hi - lo
            block_mention = ad.slice_rows(both, n, 2 * n)
            mention.append(block_mention)
            combined.append(unary_mix(ad.slice_rows(both, 0, n), block_mention,
                                      self.store))
        combined = ad.join_blocks(combined)
        # only the singleton task reads every candidate's mention score
        mention = ad.join_blocks(mention) if "singleton" in need_heads else None
        kept = prune_spans(combined.data, spans, doc.num_tokens, cfg.prune_ratio)
        kept_spans = spans[kept]
        g_kept = represent_spans(emb, kept_spans, self.store, width)[0]
        del emb
        combined_kept = ad.take_rows(combined, kept)

        shortlists = coarse_scores(g_kept, combined_kept, self.store,
                                   cfg.top_antecedents)
        pairs = pair_features(kept_spans, doc, shortlists, self.genre_id(doc.genre))
        scores = score_matrix(g_kept, combined_kept, pairs, self.store,
                              cfg.dropout, train_step)

        labels = head_labels(kept_spans) if head_labels else None
        heads = need_heads if labels is None else labelled_tasks(need_heads, labels)
        logits: dict[str, Tensor] = {}
        if self.include_aux and heads:
            logits = head_logits(g_kept, self.store, heads, cfg.dropout, train_step)
        return ForwardPass(spans=spans, kept=kept, kept_spans=kept_spans,
                           mention=mention, combined=combined,
                           shortlists=shortlists, scores=scores, logits=logits,
                           labels=labels)

    # -- losses --------------------------------------------------------------

    def loss(self, doc: Document, weights: TaskWeights,
             train_step: int | None = None) -> tuple[Tensor, dict[str, float], ForwardPass]:
        """The weighted joint loss of one document, each task's loss value,
        and the forward pass. Zero-weight tasks are not built, nor is a
        head whose task labels no kept span: its loss is the exact 0 that
        mtl.cross_entropy gives a head without a labelled row.

        The singleton task is the head's 2-way loss on kept spans plus the
        unary mention scorer's logistic loss on every candidate span, so
        pruning learns to rank gold mentions first.
        """
        need = weights.aux_tasks()
        if need and not self.include_aux:
            raise ValueError("auxiliary task weights require include_aux=True")
        fp = self.forward(doc, train_step=train_step, need_heads=need,
                          head_labels=partial(assign_aux_labels, doc=doc) if need else None)
        mask = gold_antecedent_mask(fp.kept_spans, fp.shortlists,
                                    doc.gold_clusters, fp.scores.shape[1] - 1)
        parts = {"coref": coref_loss_from_matrix(fp.scores, mask)}
        if need:
            # a head left unbuilt has no labelled kept span: the exact 0
            # that cross_entropy would give it
            parts.update({task: ad.constant(0.0) for task in need})
            parts.update(aux_losses(fp.logits, fp.labels))
        if "singleton" in parts:
            parts["singleton"] = parts["singleton"] + mention_scorer_loss(
                fp.mention, mention_labels(fp.spans, doc))
        values = {task: float(t.item()) for task, t in parts.items()}
        return total_loss(parts, weights), values, fp
