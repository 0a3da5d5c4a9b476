"""Feed-forward blocks shared by the span scorers and classification heads."""

from collections.abc import Callable
from functools import partial

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


def ffnn(x: Tensor | None, store: ParameterStore, prefix: str,
         dropout: float = 0.0, step: int | None = None,
         first_layer: Callable[..., Tensor] | None = None, block: int = 0) -> Tensor:
    """Apply the named feed-forward block: ReLU hidden layers, then a
    linear output layer, each one autodiff.dense node (but first_layer's).

    Dropout applies in training only, when step is given, and draws from
    the named block's own stream for that step. block is the first row of
    x among its stage's rows, for a caller that takes them in row blocks
    (autodiff.row_blocks): a row block past the first draws from a stream
    that also names that row, so each row block has masks of its own, and
    the first draws what a stage taken whole would.

    first_layer, if given, builds the first layer for an input x that is
    never built (the pair scorer's); x is then None. It is called as
    first_layer(w, b, relu=..., rate=..., rng=...), as dense is without x:
    relu is False when the first layer is the linear output layer (depth
    0), and rate and rng are the dropout a hidden layer applies.
    """
    weights = ffnn_weights(store, prefix)
    depth = len(weights) - 1
    rng = None
    if dropout > 0.0 and step is not None:
        rng = named_rng(store.seed, "dropout", step, prefix,
                        *([block] if block else []))
    h = x
    for layer, (w, b) in enumerate(weights):
        # ad.dense is looked up when ffnn runs, so that a wrapper installed
        # on the autodiff module (a tracer's) also sees these calls
        build = first_layer if layer == 0 and first_layer else partial(ad.dense, h)
        h = build(w, b, relu=layer < depth, rate=dropout, rng=rng)
    return h
