"""Feed-forward blocks shared by the span scorers and classification heads."""

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor, named_rng


def create_ffnn(store: ParameterStore, prefix: str, in_dim: int, hidden: int,
                out_dim: int, depth: int = 2, zero_output: bool = False):
    prev = in_dim
    for layer in range(depth):
        store.create(f"{prefix}/w{layer}", (prev, hidden))
        store.create(f"{prefix}/b{layer}", (hidden,), init="zeros")
        prev = hidden
    store.create(f"{prefix}/out_w", (prev, out_dim),
                 init="zeros" if zero_output else "normal")
    store.create(f"{prefix}/out_b", (out_dim,), init="zeros")


def ffnn_weights(store: ParameterStore, prefix: str) -> list[tuple[Tensor, Tensor]]:
    """(w, b) of each layer of the named block, the output layer last. The
    block's depth is the number of hidden layers the store holds for it."""
    depth = 0
    while f"{prefix}/w{depth}" in store:
        depth += 1
    weights = [(store[f"{prefix}/w{layer}"], store[f"{prefix}/b{layer}"])
               for layer in range(depth)]
    return weights + [(store[f"{prefix}/out_w"], store[f"{prefix}/out_b"])]


def dropout_rng(store: ParameterStore, prefix: str, dropout: float = 0.0,
                step: int | None = None, block: int = 0) -> np.random.Generator | None:
    """The dropout stream of the named block for a training step, or None
    when no dropout applies: in training only, when step is given and
    dropout > 0. block is the first row of the block's input among its
    stage's rows, for a caller that takes them in row blocks
    (autodiff.row_blocks): a row block past the first draws from a stream
    that also names that row, so each row block has masks of its own, and
    the first draws what a stage taken whole would."""
    if dropout <= 0.0 or step is None:
        return None
    return named_rng(store.seed, "dropout", step, prefix, *([block] if block else []))


def ffnn(x: Tensor | ad.SpanRows, store: ParameterStore, prefix: str | tuple[str, ...],
         dropout: float = 0.0, step: int | None = None, block: int = 0) -> Tensor:
    """Apply the named feed-forward block, ReLU hidden layers and then a
    linear output layer, as one autodiff.ffnn_node over x's rows (x is a
    tensor or an autodiff.SpanRows); given a tuple of names, apply each
    of those blocks to x in the same node, their outputs stacked by rows
    in the order named. Each block's dropout draws from its own stream
    (dropout_rng) for that step and row block: each hidden layer's mask
    in turn, rng.random((rows, hidden)) < 1 - dropout."""
    prefixes = (prefix,) if isinstance(prefix, str) else prefix
    # ad.ffnn_node is looked up when ffnn runs, so that a wrapper installed
    # on the autodiff module (a tracer's) also sees these calls
    return ad.ffnn_node(x, [ffnn_weights(store, p) for p in prefixes], dropout,
                        [dropout_rng(store, p, dropout, step, block) for p in prefixes])
