"""Token encoders: a small trainable one, and frozen pretrained features.

The toy encoder is an embedding lookup mixed with a fixed-window context
average and a trainable tanh projection; it is fully differentiable
through the autodiff engine. The pretrained encoder loads transformer
weights from a local cache and produces frozen features behind a
trainable linear adapter; when the assets or libraries are missing it
raises EncoderCapabilityError telling the caller how to fall back.
"""

import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import Document

CACHE_ENV_VAR = "COREF_MTL_CACHE"
DEFAULT_CACHE = "~/.cache/corefmtl"


class EncoderCapabilityError(RuntimeError):
    """The pretrained encoder cannot run in this environment."""


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "toy"            # "toy" | "pretrained"
    dim: int = 64
    vocab_size: int = 512
    window: int = 1
    model_name: str = ""
    segment_length: int = 384

    def __post_init__(self):
        if self.kind not in ("toy", "pretrained"):
            raise ValueError(f"unknown encoder kind: {self.kind!r}")
        if self.dim < 1 or self.vocab_size < 1 or self.window < 0:
            raise ValueError("encoder dimensions must be positive")
        if self.segment_length < 1:
            raise ValueError(f"segment_length must be >= 1, got {self.segment_length}")


def build_vocab(docs: list[Document], size: int) -> list[str]:
    """Most frequent tokens first, ties broken lexicographically.

    Index 0 of the embedding table is reserved for out-of-vocabulary
    tokens; the returned list maps token -> row index + 1.
    """
    counts = Counter(tok for doc in docs for tok in doc.flat_tokens())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, _ in ranked[:size]]


def _cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE)).expanduser()


def _pretrained_dim(cfg: EncoderConfig) -> int:
    if not cfg.model_name:
        raise EncoderCapabilityError(
            "pretrained encoder needs a model_name; use the toy encoder "
            "(kind = toy) if no pretrained assets are available")
    path = _cache_dir() / cfg.model_name
    config_file = path / "config.json"
    if not config_file.exists():
        raise EncoderCapabilityError(
            f"no pretrained assets at {path} (set ${CACHE_ENV_VAR} to the "
            f"directory holding them, or switch the encoder to kind = toy)")
    with open(config_file, encoding="utf-8") as fh:
        return int(json.load(fh)["hidden_size"])


def create_encoder_params(store: ParameterStore, cfg: EncoderConfig, vocab: list[str]):
    if cfg.kind == "toy":
        store.create("encoder/embedding", (len(vocab) + 1, cfg.dim), std=1.0)
        store.create("encoder/mix_w", (2 * cfg.dim, cfg.dim))
        store.create("encoder/mix_b", (cfg.dim,), init="zeros")
    else:
        hidden = _pretrained_dim(cfg)
        store.create("encoder/adapt_w", (hidden, cfg.dim))
        store.create("encoder/adapt_b", (cfg.dim,), init="zeros")


def _window_context(emb: Tensor, window: int) -> Tensor:
    """Row t is the mean of emb rows max(0, t - window) .. min(T - 1, t + window),
    summed one shift at a time: memory stays O(T * d) however long the
    document."""
    n = emb.shape[0]
    pos = np.arange(n)
    count = np.minimum(pos + window, n - 1) - np.maximum(pos - window, 0) + 1
    ctx = None
    for shift in range(-window, window + 1):
        src = pos + shift
        inside = (src >= 0) & (src < n)
        weight = ad.constant(np.where(inside, 1.0 / count, 0.0)[:, None])
        term = ad.take_rows(emb, np.clip(src, 0, n - 1)) * weight
        ctx = term if ctx is None else ctx + term
    return ctx


def toy_encode(doc: Document, cfg: EncoderConfig, store: ParameterStore,
               vocab_index: dict[str, int]) -> Tensor:
    ids = np.array([vocab_index.get(tok, 0) for tok in doc.flat_tokens()],
                   dtype=np.intp)
    emb = ad.take_rows(store["encoder/embedding"], ids)
    ctx = _window_context(emb, cfg.window)
    mixed = ad.matmul(ad.concat([emb, ctx], axis=1), store["encoder/mix_w"])
    return ad.tanh(mixed + store["encoder/mix_b"])


def pretrained_features(doc: Document, cfg: EncoderConfig) -> np.ndarray:
    """Frozen transformer features, one row per token (first sub-token)."""
    path = _cache_dir() / cfg.model_name
    _pretrained_dim(cfg)  # raises with a useful message if assets are absent
    try:
        import torch
        from transformers import AutoModel, AutoTokenizer
    except ImportError as exc:
        raise EncoderCapabilityError(
            f"pretrained encoder needs torch and transformers ({exc}); "
            f"switch the encoder to kind = toy") from None
    tokenizer = AutoTokenizer.from_pretrained(str(path), local_files_only=True)
    model = AutoModel.from_pretrained(str(path), local_files_only=True)
    model.eval()
    tokens = doc.flat_tokens()
    rows = []
    with torch.no_grad():
        for lo in range(0, len(tokens), cfg.segment_length):
            seg = tokens[lo:lo + cfg.segment_length]
            enc = tokenizer(seg, is_split_into_words=True, return_tensors="pt",
                            truncation=False)
            hidden = model(**enc).last_hidden_state[0]
            word_ids = enc.word_ids(0)
            first = {}
            for pos, wid in enumerate(word_ids):
                if wid is not None and wid not in first:
                    first[wid] = pos
            for w in range(len(seg)):
                rows.append(hidden[first[w]].double().numpy())
    return np.stack(rows)


def encode(doc: Document, cfg: EncoderConfig, store: ParameterStore,
           vocab_index: dict[str, int] | None = None) -> Tensor:
    """Contextual embeddings, shape (num_tokens, cfg.dim)."""
    if cfg.kind == "toy":
        if vocab_index is None:
            raise ValueError("toy encoder needs a vocabulary index")
        return toy_encode(doc, cfg, store, vocab_index)
    feats = ad.constant(pretrained_features(doc, cfg))
    return ad.matmul(feats, store["encoder/adapt_w"]) + store["encoder/adapt_b"]
