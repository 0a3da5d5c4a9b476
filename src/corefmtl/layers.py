"""Feed-forward blocks shared by the span scorers and classification heads."""

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor

# autodiff function names, looked up when ffnn runs so that a wrapper
# installed on the autodiff module (a tracer's) also sees these calls
ACTIVATIONS = ("relu", "tanh")


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


def ffnn(x: Tensor | None, store: ParameterStore, prefix: str, depth: int = 2,
         activation: str = "relu", dropout: float = 0.0,
         rng: np.random.Generator | None = None, first_layer=None) -> Tensor:
    """Apply the named feed-forward block; output is linear (no activation).

    first_layer(w, b), if given, returns the first linear layer's x @ w + b
    for an input that is never built (the pair scorer's); x is then None.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    act = getattr(ad, activation)
    weights = [(store[f"{prefix}/w{layer}"], store[f"{prefix}/b{layer}"])
               for layer in range(depth)]
    weights.append((store[f"{prefix}/out_w"], store[f"{prefix}/out_b"]))
    h = x
    for layer, (w, b) in enumerate(weights):
        if layer == 0 and first_layer is not None:
            h = first_layer(w, b)
        else:
            h = ad.matmul(h, w) + b
        if layer == depth:
            return h
        h = act(h)
        if dropout > 0.0:
            if rng is None:
                raise ValueError("dropout needs an rng")
            h = ad.dropout(h, dropout, rng)
