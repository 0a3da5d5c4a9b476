"""Token encoders: a small trainable one, and frozen features from a file.

The toy encoder is an embedding lookup mixed with a fixed-window context
average and a trainable tanh projection; it is fully differentiable
through the autodiff engine. With `features` set, each document's tokens
are the rows of a precomputed float array (from any encoder, run offline)
read from one .npz archive by doc_key, behind a trainable linear adapter.
"""

import zipfile
from collections import Counter
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import CorpusError, Document


def check_int_fields(config):
    """Raise ValueError naming the first int field of a config dataclass
    whose value is not an integer: a float such as 8.0, or a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type is int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 64
    vocab_size: int = 512
    window: int = 1
    features: str = ""           # .npz of per-document features; "" = toy encoder

    def __post_init__(self):
        check_int_fields(self)
        if self.dim < 1 or self.vocab_size < 1 or self.window < 0:
            raise ValueError("encoder dimensions must be positive")


def build_vocab(docs: list[Document], size: int) -> list[str]:
    """Most frequent tokens first, ties broken lexicographically.

    Index 0 of the embedding table is reserved for out-of-vocabulary
    tokens; the returned list maps token -> row index + 1.
    """
    counts = Counter(tok for doc in docs for tok in doc.flat_tokens())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, _ in ranked[:size]]


class FeatureFile:
    """Precomputed token features: an .npz archive holding, per doc_key, a
    (num_tokens, width) float array with one row per token in document
    order. Arrays are read one document at a time, on each request; every
    one must have the width of the archive's first array. Any fault is a
    CorpusError naming the file and, where there is one, the document."""

    def __init__(self, path: str):
        self.path = path
        try:
            self._npz = np.load(path, allow_pickle=False)
        except OSError as exc:
            raise CorpusError(f"{path}: cannot read features file "
                              f"({exc.strerror or exc})") from None
        except (ValueError, EOFError, zipfile.BadZipFile):
            self._npz = None  # not an archive numpy can read
        if not isinstance(self._npz, np.lib.npyio.NpzFile) or not self._npz.files:
            raise CorpusError(f"{path}: features file is not an .npz archive "
                              "with one array per document")
        self._keys = set(self._npz.files)
        self.width = self._read(self._npz.files[0]).shape[1]

    def _read(self, doc_key: str) -> np.ndarray:
        self.require([doc_key])
        try:
            arr = self._npz[doc_key]
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CorpusError(f"{self.path}: cannot read the features of document "
                              f"{doc_key} ({exc})") from None
        if arr.ndim != 2 or arr.dtype.kind != "f":
            raise CorpusError(f"{self.path}: features of document {doc_key} must be "
                              f"a 2-D float array, got {arr.dtype} {arr.shape}")
        if not np.isfinite(arr).all():
            raise CorpusError(f"{self.path}: features of document {doc_key} "
                              "hold non-finite values")
        return arr

    def require(self, doc_keys):
        """Fail now, not mid-run, if some document has no features."""
        missing = [key for key in doc_keys if key not in self._keys]
        if missing:
            more = f" and {len(missing) - 1} more" if len(missing) > 1 else ""
            raise CorpusError(f"{self.path}: no features for document "
                              f"{missing[0]}{more}")

    def rows(self, doc: Document) -> np.ndarray:
        arr = self._read(doc.doc_key)
        if arr.shape != (doc.num_tokens, self.width):
            raise CorpusError(f"{self.path}: features of document {doc.doc_key} have "
                              f"shape {arr.shape}, not ({doc.num_tokens}, {self.width})")
        return arr.astype(np.float64, copy=False)


def create_encoder_params(store: ParameterStore, cfg: EncoderConfig, vocab: list[str],
                          features: FeatureFile | None = None):
    if features is None:
        store.create("encoder/embedding", (len(vocab) + 1, cfg.dim), std=1.0)
        store.create("encoder/mix_w", (2 * cfg.dim, cfg.dim))
        store.create("encoder/mix_b", (cfg.dim,), init="zeros")
    else:
        store.create("encoder/adapt_w", (features.width, cfg.dim))
        store.create("encoder/adapt_b", (cfg.dim,), init="zeros")


def toy_encode(doc: Document, cfg: EncoderConfig, store: ParameterStore,
               vocab_index: dict[str, int]) -> Tensor:
    ids = np.array([vocab_index.get(tok, 0) for tok in doc.flat_tokens()],
                   dtype=np.intp)
    return ad.window_mix(store["encoder/embedding"], ids, store["encoder/mix_w"],
                         store["encoder/mix_b"], cfg.window)


def encode(doc: Document, cfg: EncoderConfig, store: ParameterStore,
           vocab_index: dict[str, int] | None = None,
           features: FeatureFile | None = None) -> Tensor:
    """Contextual embeddings, shape (num_tokens, cfg.dim): the adapter over
    the document's rows of features if given, else the toy encoder.

    The adapter is one linear autodiff.dense node. The toy encoder's
    embedding lookup, window context, concat, mix and tanh are one tape
    node (autodiff.window_mix): the tape keeps only the embeddings, and
    backward recomputes the lookup, the context and the concat."""
    if features is not None:
        return ad.dense(ad.constant(features.rows(doc)), store["encoder/adapt_w"],
                        store["encoder/adapt_b"], relu=False)
    if vocab_index is None:
        raise ValueError("toy encoder needs a vocabulary index")
    return toy_encode(doc, cfg, store, vocab_index)
