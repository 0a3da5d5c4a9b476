"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape-based engine: just the operations the span scorer and the
loss stack need, nothing more. Every tensor is float64 end to end, which
keeps finite-difference gradient checks tight and training runs bitwise
reproducible on a fixed seed.

Inside `no_grad()` no tape is built: an op's output has no parents and
no backward closure, so inference frees each intermediate as soon as the
caller drops it. The model takes spans and pairs in blocks of
`PAIR_BLOCK` rows (`row_blocks`), with or without a tape, so prediction
memory grows with the block, not with spans or pairs times the hidden
size, and each block's backward builds only that block's gradients.

`backward()` frees the tape as it consumes it: once a node's closure has
run, the node drops its gradient, closure and parents, so each gradient
and each saved activation goes as soon as nothing upstream needs it.
A node's gradient is handed to its closure with no other reference left,
so a closure that is done with it (`dense`, once it has the gradient
through its relu and dropout) frees it before the closure returns.
Leaves (parameters, and tensors made with requires_grad=True) keep their
gradients; `retain_grad()` keeps an intermediate's. A graph is
differentiated once: a second backward() through it raises.

Five layers are each one tape node that keeps what its backward reads
and no intermediate, and every product on a tape is one of theirs:
`ffnn_node` (feed-forward stacks over one input: the unary scorers and
each auxiliary head), `pair_scorer` (the whole pair scorer of a block of
pairs: its factorised first layer, hidden layers and output), `dense`
(one layer: the features adapter), `span_representation` (boundary rows,
soft head and width embedding) and `window_mix` (the toy encoder's
embedding lookup, window context, concat, mix and tanh). `dense`,
`span_representation` and `window_mix` do the arithmetic of the graph of
primitive ops they replace, in that graph's order, so values and
gradients are bit-identical to it. `ffnn_node` and `pair_scorer` share
one tile loop: they work GATHER_ROWS (128) rows at a time, keep their
inputs, their dropout streams' states and their outputs, rerun each tile
in backward and sum their gradients a tile at a time, so their values
and gradients agree with those of their layers composed to rounding.

`recompute(fn, x)` trades time for tape: it keeps only x and fn's
output, and its backward runs fn again to backpropagate through it. The
model wraps each block of candidate spans in it: the block's span
representations and both unary scorers, over the token embeddings. So a
training step's tape holds each block's scores, not its
representations, and backward rebuilds and frees one block's graph at a
time. Each block of pairs is one `pair_scorer` node and each head one
`ffnn_node`, which keep only their inputs and outputs and rerun their
tiles in backward themselves; the pair blocks' scores are written into
the score matrix as each block ends (`place_blocks`).

A block holds PAIR_BLOCK (512) rows. A span block's rerun in backward
sets the peak of a training step: it holds the block's representations
and their gradient beside one tile's hidden layers. An FFNN node's
working set is one tile's, in prediction and in backward: its weight
gradients, and a pair block's scatters into the kept spans, are summed
once per node, so more blocks would only add that fixed cost. The block
size fixes the dropout streams (one per block of spans or pairs) and the
row splits of each block's products, so changing it changes the trained
bits.
"""

import contextlib
import contextvars
import hashlib

import numpy as np
from scipy import sparse

DTYPE = np.float64

_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block; the previous mode returns on exit."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


# rows of spans or pairs in one block of the model's forward pass
PAIR_BLOCK = 512


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges that cover rows 0 .. n - 1 in order, at least one:
    each holds PAIR_BLOCK rows, the last one the rest."""
    return [(lo, min(lo + PAIR_BLOCK, n)) for lo in range(0, max(n, 1), PAIR_BLOCK)]


def stream_seed(*parts) -> int:
    """Derive a stable 64-bit seed from the given parts.

    Each named random stream (one per parameter, one per dropout site,
    one for shuffling) is seeded independently, so creating or removing
    a parameter never shifts the draws of any other stream.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def named_rng(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream_seed(*parts)))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes that broadcasting expanded, back to shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released(_):
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "already freed")


class Tensor:
    """A float64 ndarray plus the tape bookkeeping to backprop through it.

    An op's output keeps its parents and backward closure only when a
    gradient can flow through it: some parent needs one and the block is
    not under no_grad().
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name",
                 "_retain")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=None):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self._retain = False
        self.requires_grad = bool(requires_grad) or (
            _GRAD_ENABLED.get() and any(p.requires_grad for p in _parents))
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def retain_grad(self):
        """Keep this intermediate's gradient after backward() frees the graph."""
        self._retain = True

    def backward(self, seed=None):
        """Accumulate gradients of self w.r.t. every reachable parameter.

        seed defaults to ones; for the scalar-loss case that is d(loss)/d(loss)=1.
        Each node is released once its closure has run (see the module
        docstring), so the graph cannot be differentiated again.
        """
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        if seed is None:
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed, dtype=DTYPE).reshape(self.data.shape).copy()
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf
            if node.grad is not None:
                # the call takes over the only reference to a gradient that
                # is not retained, so a closure that is done with it frees it
                node._backward(node.grad if node._retain else node._take_grad())
            node._backward = _released
            node._parents = ()

    def _take_grad(self) -> np.ndarray:
        grad, self.grad = self.grad, None
        return grad

    def _accumulate(self, grad: np.ndarray):
        # Accumulation always rebinds (never mutates in place), so sharing
        # the incoming array between siblings is safe.
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=DTYPE)
        else:
            self.grad = self.grad + grad

    def _accumulate_rows(self, lo: int, grad: np.ndarray):
        """_accumulate of an array shaped like self's data that holds grad
        in rows lo .. lo + len(grad) - 1 and zeros elsewhere, without
        building it: only the new gradient is made (a -0.0 of the earlier
        gradient outside those rows stays -0.0)."""
        if not self.requires_grad:
            return
        total = np.zeros_like(self.data) if self.grad is None else self.grad.copy()
        total[lo:lo + len(grad)] += grad
        self.grad = total

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=DTYPE))


def constant(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=DTYPE))


# -- arithmetic -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, _parents=(a, b), _backward=backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor(a.data - b.data, _parents=(a, b), _backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, _parents=(a, b), _backward=backward)


# -- shape ops ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=backward)


def concat(parts: list, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            p._accumulate(g[tuple(idx)])

    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  _parents=tuple(parts), _backward=backward)


def join_blocks(parts: list) -> Tensor:
    """The per-block outputs of a blocked stage as one tensor, in row order;
    one block's output is returned as it is, so a one-block pass builds no
    extra node."""
    return parts[0] if len(parts) == 1 else concat(parts)


def _scatter_matrix(num_rows: int, *idx: np.ndarray) -> sparse.csc_array:
    """The (num_rows, P) CSC matrix whose column p holds a 1 in row
    idx_k[p] of each index array idx_k, in turn (with more than one, their
    rows must lie in disjoint ranges, in increasing order). Its product
    with a (P, ...) array sums values[p] into each of p's rows: scipy's
    CSC kernel adds each column into its rows in ascending p, the sums
    and the order of np.add.at, and nothing larger than the output is
    built."""
    count = len(idx[0])
    rows = idx[0] if len(idx) == 1 else np.stack(idx, axis=1).reshape(-1)
    return sparse.csc_array((np.ones(len(rows)), rows,
                             np.arange(0, len(rows) + 1, len(idx))),
                            shape=(num_rows, count))


def _scatter_rows(values: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum values[p] into row idx[p] of a zero (num_rows, ...) array, as
    one sparse product (_scatter_matrix), sorted idx or not."""
    rest = values.shape[idx.ndim:]
    width = int(np.prod(rest, dtype=np.intp))
    matrix = _scatter_matrix(num_rows, idx.reshape(-1))
    return (matrix @ values.reshape(idx.size, width)).reshape((num_rows,) + rest)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather along axis 0. Backward scatter-adds, so repeated rows are fine."""
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_scatter_rows(g, idx, a.data.shape[0]))

    return Tensor(a.data[idx], _parents=(a,), _backward=backward)


def slice_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo .. hi - 1 of a, whose data is a view of a's, not a copy.
    Backward adds the gradient into rows lo .. hi - 1 of a zero array, so
    values and gradients are bit-identical to take_rows over the same
    range, whose scatter also turns -0.0 into +0.0. A slice over all of
    a's rows is a itself, as join_blocks returns a lone block."""
    if lo == 0 and hi == a.data.shape[0]:
        return a

    def backward(g):
        grad = np.zeros_like(a.data)
        grad[lo:hi] += g
        a._accumulate(grad)

    return Tensor(a.data[lo:hi], _parents=(a,), _backward=backward)


def place_blocks(out: np.ndarray, blocks) -> Tensor:
    """out with the values of each block written into it, as one tape node
    that takes out over (it is written in place).

    blocks yields (values, rows, cols) in turn: values[p] goes to entry
    (rows[p], cols[p]), no entry is written twice, and an entry that
    receives no value keeps out's. Each block is written before the next
    is drawn, so a caller that makes its blocks one at a time holds one
    at a time. The node keeps a block's tensor and entries only when the
    block has a tape, and backward hands each such block the gradient at
    its own entries.
    """
    taped = []
    for values, rows, cols in blocks:
        out[rows, cols] = values.data
        if values.requires_grad:
            taped.append((values, rows, cols))

    def backward(g):
        for values, rows, cols in taped:
            values._accumulate(g[rows, cols])

    return Tensor(out, _parents=tuple(values for values, _, _ in taped),
                  _backward=backward)


# -- fused span and pair layers -------------------------------------------


def span_representation(emb: Tensor, head_score: Tensor, width_table: Tensor,
                        starts, ends, buckets, width: int) -> tuple[Tensor, np.ndarray]:
    """Span representations g = [emb[start], emb[end], soft head, width
    embedding], shape (S, 3d + f), as one tape node, and the soft head's
    attention weights alpha, shape (S, width).

    Span s attends to its tokens start .. end through a (S, width) grid of
    token indices, clipped at each span's end; alpha is the softmax over
    the valid columns of the token scores emb @ head_score, and the soft
    head is sum_k alpha[s, k] * emb[grid[s, k]], summed one offset k at a
    time so no (S, width, d) gather is built. buckets holds each span's
    width-embedding row. The arithmetic is that of the composed graph
    (take_rows, a mask constant, logsumexp, sub, exp, the soft-head sum and
    concat), so values and gradients are bit-identical to it; the node
    keeps g, alpha, the grid, the valid mask and the (T,) token scores, and
    backward recomputes the softmax from the token scores.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    buckets = np.asarray(buckets, dtype=np.intp)
    ev = emb.data
    num_tokens, d = ev.shape
    widths = ends - starts + 1
    if width < widths.max():
        raise ValueError(f"width {width} is below the widest span's {widths.max()}")
    offsets = np.arange(width)
    grid = np.minimum(starts[:, None] + offsets, ends[:, None])
    valid = offsets < widths[:, None]
    token_scores = (ev @ head_score.data).reshape(num_tokens)

    def span_scores():
        # clipped duplicates get -inf, so zero attention
        return token_scores[grid] + np.where(valid, 0.0, -np.inf)

    scores = span_scores()
    alpha = np.exp(scores - _logsumexp_softmax(scores)[0])
    del scores

    g = np.empty((len(starts), 3 * d + width_table.data.shape[1]), dtype=DTYPE)
    g[:, :d] = ev[starts]
    g[:, d:2 * d] = ev[ends]
    attended = g[:, 2 * d:3 * d]
    attended[...] = 0.0
    for k in range(width):
        attended += alpha[:, k, None] * ev[grid[:, k]]
    g[:, 3 * d:] = width_table.data[buckets]

    def backward(grad):
        if width_table.requires_grad:
            width_table._accumulate(_scatter_rows(grad[:, 3 * d:], buckets,
                                                  width_table.data.shape[0]))
        d_att = grad[:, 2 * d:3 * d]
        d_alpha = np.empty_like(alpha)
        for k in range(width):
            d_alpha[:, k] = np.einsum("sd,sd->s", d_att, ev[grid[:, k]])
        # through exp, then sub and logsumexp: d1 + (-d1).sum(1) * softmax
        d_scores = d_alpha * alpha
        del d_alpha
        d_lse = (-d_scores).sum(axis=1, keepdims=True)
        d_scores += d_lse * _logsumexp_softmax(span_scores())[1]
        d_tokens = _scatter_rows(d_scores, grid, num_tokens).reshape(num_tokens, 1)
        del d_scores
        if head_score.requires_grad:
            head_score._accumulate(ev.T @ d_tokens)
        if emb.requires_grad:
            # one term at a time, in the composed graph's order, so a
            # gradient emb already holds is summed with each as it was
            emb._accumulate(_scatter_rows(grad[:, :d], starts, num_tokens))
            emb._accumulate(_scatter_rows(grad[:, d:2 * d], ends, num_tokens))
            soft_head = np.zeros_like(ev)
            for k in range(width):
                soft_head += _scatter_rows(alpha[:, k, None] * d_att, grid[:, k], num_tokens)
            emb._accumulate(soft_head)
            del soft_head
            emb._accumulate(d_tokens @ head_score.data.T)

    return (Tensor(g, _parents=(emb, head_score, width_table), _backward=backward),
            alpha)


def _window_shifts(num_rows: int, window: int):
    """(source row, weight) of each shift -window .. window in turn, made
    as the shift is used: row t takes row t + shift (clipped) with weight
    1 / (rows in t's window), or 0 where t + shift is outside the rows.
    Shifts beyond the rows would add only zero-weight terms, so a window
    wider than num_rows - 1 runs as num_rows - 1."""
    window = min(window, max(num_rows - 1, 0))
    pos = np.arange(num_rows)
    count = np.minimum(pos + window, num_rows - 1) - np.maximum(pos - window, 0) + 1
    for shift in range(-window, window + 1):
        src = pos + shift
        inside = (src >= 0) & (src < num_rows)
        yield np.clip(src, 0, num_rows - 1), np.where(inside, 1.0 / count, 0.0)[:, None]


def window_context(x: np.ndarray, window: int, out: np.ndarray) -> np.ndarray:
    """Write into out, and return it, row t = the mean of x's rows
    max(0, t - window) .. min(T - 1, t + window), summed one shift at a
    time (_window_shifts) in shift order: memory stays O(T * d) however
    long x is."""
    for k, (src, weight) in enumerate(_window_shifts(len(x), window)):
        term = x[src]
        term *= weight
        if k == 0:
            out[...] = term
        else:
            out += term
        del term  # before the next shift's is gathered
    return out


def window_mix(table: Tensor, ids, w: Tensor, b: Tensor, window: int) -> Tensor:
    """tanh([emb, window_context(emb)] @ w + b), where emb = table[ids] is
    the toy encoder's embedding lookup, as one tape node that keeps only
    its output: the lookup is made again in backward, not kept.

    The arithmetic is that of the composed graph (take_rows from the
    table, a take_rows times a weight constant per shift, their sum,
    concat, matmul, add and tanh), so values and gradients are
    bit-identical to it. Backward recomputes the lookup, the context and
    the concat for w's gradient, and sums the lookup's gradient as that
    graph does: the concat slice's first, then one scatter per shift, in
    shift order, and then one scatter of that sum into the table's rows.
    """
    ids = np.asarray(ids, dtype=np.intp)
    num_rows, d = len(ids), table.data.shape[1]

    def inputs() -> np.ndarray:
        cat = np.empty((num_rows, 2 * d), dtype=DTYPE)
        cat[:, :d] = table.data[ids]
        window_context(cat[:, :d], window, cat[:, d:])
        return cat

    out = inputs() @ w.data
    out += b.data
    np.tanh(out, out=out)

    def backward(grad):
        d_mixed = grad * (1.0 - out * out)
        del grad
        b._accumulate(d_mixed.sum(axis=0))
        if w.requires_grad:
            w._accumulate(inputs().T @ d_mixed)
        if table.requires_grad:
            d_cat = d_mixed @ w.data.T
            del d_mixed
            d_emb = d_cat[:, :d].copy()
            for src, weight in _window_shifts(num_rows, window):
                d_emb += _scatter_rows(d_cat[:, d:] * weight, src, num_rows)
            del d_cat
            table._accumulate(_scatter_rows(d_emb, ids, table.data.shape[0]))

    return Tensor(out, _parents=(table, w, b), _backward=backward)


# -- tiled FFNN nodes ------------------------------------------------------

# rows an FFNN node (ffnn_node, pair_scorer) works at a time: its tiles
GATHER_ROWS = 128


def _tiles(n: int) -> list[slice]:
    """Slices that cover 0 .. n - 1 in order, GATHER_ROWS each, the last
    one the rest; none for n = 0. A last row left alone joins the tile
    before it: numpy hands a one-row product to gemv, which sums in
    another order than gemm, so its values would not be those of the
    whole product's row."""
    bounds = list(range(0, n, GATHER_ROWS)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _pair_weights(dim: int, w0: Tensor, tables: list[Tensor]) -> list[np.ndarray]:
    """w0 split by rows into W_a, W_b, W_c and one W_k per table."""
    bounds = np.cumsum([0, dim, dim, dim] + [t.data.shape[1] for t in tables])
    if bounds[-1] != w0.data.shape[0]:
        raise ValueError(f"pair input has {bounds[-1]} columns, w0 has "
                         f"{w0.data.shape[0]} rows")
    return [w0.data[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def pair_projections(g: Tensor, w0: Tensor, tables: list[Tensor]) -> list[np.ndarray]:
    """[g W_b, T_1 W_1, ..., T_n W_n]: the terms of pair_scorer's first
    layer that one antecedent or one table row fixes. A caller that takes
    the pairs in blocks computes them once, for every block. The anaphor
    term g W_a is not among them: pair_scorer computes it over its own
    block's anaphors only, so it is never held for every span."""
    _, w_b, _, *w_tables = _pair_weights(g.data.shape[1], w0, tables)
    return [g.data @ w_b] + [t.data @ w_k for t, w_k in zip(tables, w_tables)]


def _mask_streams(state: dict | None, widths: list[int], rows: int) -> list:
    """One generator per hidden layer, at the first draw of that layer's
    dropout mask when a block of `rows` rows draws rng.random((rows,
    width)) for each layer in turn from a PCG64 in state (None: no
    dropout, and None for each layer). Generator.random takes one 64-bit
    output per float64, so layer l's generator is that PCG64 advanced by
    rows times the widths before layer l, and drawing tile after tile
    from it gives the rows of the whole mask, bit for bit."""
    if state is None:
        return [None] * len(widths)
    streams = []
    for skip in np.cumsum([0] + widths[:-1]).tolist():
        bits = np.random.PCG64(0)
        bits.state = state
        bits.advance(rows * skip)
        streams.append(np.random.Generator(bits))
    return streams


def _dropout_state(layers: list, rate: float, rng: np.random.Generator | None):
    """The PCG64 state a stack of layers draws its dropout masks from
    (_mask_streams), or None when it drops nothing: no rng, a rate of 0,
    or no hidden layer."""
    return rng.bit_generator.state if rng is not None and rate > 0.0 and len(layers) > 1 \
        else None


def _hidden_widths(layers: list) -> list[int]:
    return [w.data.shape[1] for w, _ in layers[:-1]]


def _tile_forward(h: np.ndarray, later: list, rate: float, masks: list, taped: bool = False):
    """The rest of one tile of an FFNN stack from h, its first layer's
    linear output (relu and dropout write into it): each (w, b) of later
    over the relu and dropout of the layer before, whose mask is drawn
    from that layer's generator in masks. Returns the output layer's
    values; taped, each hidden layer's output after relu and dropout (the
    inputs of later's layers) instead, without the output layer's
    product."""
    hidden = []
    for (w, b), mask_rng in zip(later, masks):
        _relu_dropout(h, rate, mask_rng)
        if taped:
            hidden.append(h)
            if len(hidden) == len(later):
                break
        h = h @ w.data
        h += b.data
    return hidden if taped else h


def _tile_backward(d: np.ndarray, hidden: list, later: list, d_w: list, d_b: list,
                   scale) -> np.ndarray:
    """Backpropagate a tile's output gradient d through later's layers,
    whose inputs hidden holds (_tile_forward, taped; emptied here), and
    add each layer's weight and bias gradients into d_w[1:] and d_b[1:].
    Returns the gradient of the first layer's linear output."""
    for layer in range(len(later), 0, -1):
        x = hidden.pop()
        d_b[layer] += d.sum(axis=0)
        d_w[layer] += x.T @ d
        d = _relu_dropout_grad(d @ later[layer - 1][0].data.T, x, scale)
        del x
    return d


def ffnn_node(x: Tensor, stacks: list[list[tuple[Tensor, Tensor]]], rate: float = 0.0,
              rngs: list | None = None) -> Tensor:
    """Feed-forward stacks over the same input x as one tape node. A
    stack's layers are (w, b) pairs: ReLU hidden layers with inverted
    dropout, then a linear output layer. The outputs are stacked by rows
    in the order of the stacks: over x's n rows, stack k's values are
    rows k n .. (k + 1) n - 1, so every stack has the same output width.

    Every layer runs GATHER_ROWS rows at a time (_tiles), so a pass holds
    one tile's hidden layers, however many rows x has. Stack k's dropout
    masks are those of the stack run whole: rngs[k].random((n, width)) <
    1 - rate for each hidden layer in turn, drawn a tile at a time
    (_mask_streams); with rngs or rngs[k] None, or rate 0, the stack
    drops nothing. The node keeps x, each stack's PCG64 state and its
    output.

    Backward reruns each tile of each stack and backpropagates through
    it: each weight's and bias's gradient is summed over the tiles, and
    every stack adds into one gradient of x. So values and gradients
    agree with those of the stacks' dense layers composed to rounding
    (pair_scorer says when a tile of a product has other last bits than
    those rows of the whole product).
    """
    xv = x.data
    n = xv.shape[0]
    tiles = _tiles(n)
    states = [_dropout_state(layers, rate, rng)
              for layers, rng in zip(stacks, rngs or [None] * len(stacks))]

    def run(layers: list, state, taped: bool):
        """(tile, _tile_forward's result) of each tile of one stack."""
        (w0, b0), *later = layers
        masks = _mask_streams(state, _hidden_widths(layers), n)
        for tile in tiles:
            h = xv[tile] @ w0.data
            h += b0.data
            yield tile, _tile_forward(h, later, rate, masks, taped)

    out = np.empty((len(stacks) * n, stacks[0][-1][0].data.shape[1]), dtype=DTYPE)
    for k, (layers, state) in enumerate(zip(stacks, states)):
        for tile, values in run(layers, state, taped=False):
            out[k * n + tile.start:k * n + tile.stop] = values

    def backward(grad):
        d_x = np.zeros_like(xv) if x.requires_grad else None
        for k, (layers, state) in enumerate(zip(stacks, states)):
            (w0, _), *later = layers
            scale = None if state is None else 1.0 / (1.0 - rate)
            d_w = [np.zeros_like(w.data) for w, _ in layers]
            d_b = [np.zeros_like(b.data) for _, b in layers]
            for tile, hidden in run(layers, state, taped=True):
                d = _tile_backward(grad[k * n + tile.start:k * n + tile.stop], hidden,
                                   later, d_w, d_b, scale)
                d_b[0] += d.sum(axis=0)
                d_w[0] += xv[tile].T @ d
                if d_x is not None:
                    d_x[tile] += d @ w0.data.T
                del d
            for (w, b), dw, db in zip(layers, d_w, d_b):
                b._accumulate(db)
                w._accumulate(dw)
            del d_w, d_b
        del grad
        if d_x is not None:
            x._accumulate(d_x)

    return Tensor(out, _parents=(x,) + tuple(p for layers in stacks
                                             for layer in layers for p in layer),
                  _backward=backward)


def pair_scorer(g: Tensor, layers: list[tuple[Tensor, Tensor]], rows, antecedents,
                tables, projected: list[np.ndarray], rate: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
    """The pair scorer over pair inputs, without building them, as one
    tape node: a feed-forward stack whose layers are (w, b) pairs, ReLU
    hidden layers with inverted dropout, then a linear output layer. It
    returns the output layer's (pairs x out width) values.

    The first layer's linear part equals concat([g[rows], g[antecedents],
    g[rows] * g[antecedents], T_1[idx_1], ..., T_n[idx_n]], axis=1) @ w0
    + b0, where tables holds the (T_k, idx_k) feature lookups (idx_k of
    any integer type: the node keeps them). w0 splits
    by rows into W_a, W_b, W_c and one W_k per table, so the sum is

        (g W_a)[rows] + (g W_b)[antecedents] + (g[rows] * g[antecedents]) W_c
        + sum_k (T_k W_k)[idx_k] + b0

    (the factorisation of Kirstain et al. 2021), added in the order of
    the formula, the first two terms' sum to the product's. projected is
    pair_projections(g, w0, [T_1, ..., T_n]). The anaphor term is one
    product over the rows of g from the least to the greatest of rows
    (which need not be sorted), at least two of them, or all of g if it
    has one: numpy hands a one-row product to gemv, which sums in another
    order than gemm. On one BLAS thread each row of a gemm holds the bits
    of that row of the whole g W_a; on more, OpenBLAS divides a product
    among its threads by the product's shape, which can change the last
    bits.

    The hidden layers and the output run as in ffnn_node, GATHER_ROWS
    pairs at a time, and so does the first layer: a tile's product term,
    hidden layers and output are made and dropped before the next
    tile's, so the working set is one tile's, however many pairs the
    block holds. The dropout masks are those of the stack run whole over
    the block's pairs (ffnn_node's). The node keeps its inputs, rng's
    state and its output.

    Backward reruns each tile's forward pass and backpropagates through
    it. The weights' and biases' gradients are summed over the tiles, and
    so are the first layer's gradient scattered to the anaphors (by_row,
    over the anaphor term's rows of g), to the antecedents (by_ant, over
    the rows of g from the least to the greatest antecedent) and to each
    table, and the product term's two scatters into g's rows. The terms
    that those scatters fix are made once per block: g's gradient over
    the rows the block reads, which joins g's before w0's gradient is
    built, and w0's gradient, whose W_a and W_b parts are taken first.
    So no tile makes an array over every span, and the block makes one:
    g's new gradient.
    """
    rows = np.asarray(rows, dtype=np.intp)
    ants = np.asarray(antecedents, dtype=np.intp)
    tables = [(t, np.asarray(idx)) for t, idx in tables]
    gv = g.data
    n = gv.shape[0]
    (w0, b0), *later = layers
    w_a, w_b, w_c, *w_tables = _pair_weights(gv.shape[1], w0, [t for t, _ in tables])
    g_wb, *table_terms = projected
    first = min(int(rows.min(initial=n)), max(n - 2, 0))
    stop = max(int(rows.max(initial=-1)) + 1, min(first + 2, n))
    state = _dropout_state(layers, rate, rng)
    tiles = _tiles(len(rows))

    def run(tile: slice, g_wa: np.ndarray, masks: list, taped: bool = False):
        """A tile's output layer values; taped, its product term and each
        hidden layer's output (_tile_forward) instead."""
        r, a = rows[tile], ants[tile]
        prod = gv[r]
        prod *= gv[a]
        h = prod @ w_c
        if not taped:
            del prod
        part = g_wa[r - first]
        part += g_wb[a]
        h += part
        del part
        for (_, idx), term in zip(tables, table_terms):
            h += term[idx[tile]]
        h += b0.data
        values = _tile_forward(h, later, rate, masks, taped)
        return (prod, values) if taped else values

    out = np.empty((len(rows), layers[-1][0].data.shape[1]), dtype=DTYPE)
    g_wa = gv[first:stop] @ w_a
    masks = _mask_streams(state, _hidden_widths(layers), len(rows))
    for tile in tiles:
        out[tile] = run(tile, g_wa, masks)
    del g_wa, masks

    def backward(grad):
        scale = None if state is None else 1.0 / (1.0 - rate)
        # d_w[0] is W_c's gradient: by_row, by_ant and by_table give the rest
        d_w = [np.zeros_like(w_c)] + [np.zeros_like(w.data) for w, _ in later]
        d_b = [np.zeros_like(b.data) for _, b in layers]
        width = w0.data.shape[1]
        by_row = np.zeros((stop - first, width), dtype=DTYPE)
        ant_lo = int(ants.min(initial=0))
        by_ant = np.zeros((int(ants.max(initial=-1)) + 1 - ant_lo, width), dtype=DTYPE)
        ant_hi = ant_lo + len(by_ant)
        # the tables' rows stacked, each table's a range of by_tables
        bounds = np.cumsum([0] + [t.data.shape[0] for t, _ in tables])
        by_tables = np.zeros((bounds[-1], width), dtype=DTYPE)
        # g's gradient over the rows the block reads, from row g_lo on
        g_lo = min(first, ant_lo)
        d_g = (np.zeros((max(stop, ant_hi) - g_lo, gv.shape[1]), dtype=DTYPE)
               if g.requires_grad else None)
        # the same product as the forward pass's, so the same bits
        g_wa = gv[first:stop] @ w_a
        masks = _mask_streams(state, _hidden_widths(layers), len(rows))
        for tile in tiles:
            prod, hidden = run(tile, g_wa, masks, taped=True)
            d = _tile_backward(grad[tile], hidden, later, d_w, d_b, scale)
            # d is now the first layer's linear gradient
            d_b[0] += d.sum(axis=0)
            d_w[0] += prod.T @ d
            del prod
            r, a = rows[tile], ants[tile]
            # one scatter matrix per index, used for each term it sums; the
            # antecedents' sums are over their distinct rows only
            to_row = _scatter_matrix(stop - first, r - first)
            ant_rows, inverse = np.unique(a, return_inverse=True)
            to_ant = _scatter_matrix(len(ant_rows), inverse)
            by_row += to_row @ d
            by_ant[ant_rows - ant_lo] += to_ant @ d
            if tables:
                by_tables += _scatter_matrix(bounds[-1], *(
                    np.add(idx[tile], lo, dtype=np.intp)
                    for (_, idx), lo in zip(tables, bounds))) @ d
            if d_g is not None:
                d_prod = d @ w_c.T
                del d
                term = gv[a]
                term *= d_prod
                d_g[first - g_lo:stop - g_lo] += to_row @ term
                del term
                d_prod *= gv[r]
                d_g[ant_rows - g_lo] += to_ant @ d_prod
                del d_prod
        del grad
        for (w, b), dw, db in zip(later, d_w[1:], d_b[1:]):
            b._accumulate(db)
            w._accumulate(dw)
        del d_w[1:], d_b[1:]
        b0._accumulate(d_b[0])
        by_table = [by_tables[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        for (t, _), by_t, w_k in zip(tables, by_table, w_tables):
            if t.requires_grad:
                t._accumulate(by_t @ w_k.T)
        if w0.requires_grad:
            # w0's gradient's W_a and W_b parts, before by_row and by_ant go
            d_wa, d_wb = gv[first:stop].T @ by_row, gv[ant_lo:ant_hi].T @ by_ant
        if d_g is not None:
            d_g[first - g_lo:stop - g_lo] += by_row @ w_a.T
            d_g[ant_lo - g_lo:ant_hi - g_lo] += by_ant @ w_b.T
            g._accumulate_rows(g_lo, d_g)
        del by_row, by_ant, d_g
        if w0.requires_grad:
            # w0's gradient, written in place by row ranges: W_a, W_b, W_c,
            # then one W_k per table
            d_w0 = np.empty_like(w0.data)
            ends = np.cumsum([0] + [w.shape[0] for w in (w_a, w_b, w_c, *w_tables)])
            for lo, hi, part in zip(ends, ends[1:], (d_wa, d_wb, d_w[0])):
                d_w0[lo:hi] = part
            del d_wa, d_wb, d_w
            for lo, hi, (t, _), by_t in zip(ends[3:], ends[4:], tables, by_table):
                np.matmul(t.data.T, by_t, out=d_w0[lo:hi])
            w0._accumulate(d_w0)

    parents = ((g,) + tuple(p for layer in layers for p in layer)
               + tuple(t for t, _ in tables))
    return Tensor(out, _parents=parents, _backward=backward)


# -- dense layers ---------------------------------------------------------


def _relu_dropout(out: np.ndarray, rate: float, rng: np.random.Generator | None):
    """relu, then inverted dropout, on a hidden layer's linear output, in
    place; returns the dropout scale 1 / (1 - rate), or None without
    dropout. Dropout applies when rng is given and rate > 0; its mask is
    drawn from rng as rng.random(out.shape) < 1 - rate."""
    np.maximum(out, 0.0, out=out)
    if rng is None or rate <= 0.0:
        return None
    keep = 1.0 - rate
    scale = 1.0 / keep
    out *= rng.random(out.shape) < keep
    out *= scale
    return scale


def _relu_dropout_grad(grad: np.ndarray, out: np.ndarray, scale) -> np.ndarray:
    """The gradient through _relu_dropout, from its output alone: a
    dropped unit's output is 0, as is that of a unit relu zeroed, so
    out > 0 is the whole mask. The arithmetic is that of relu and a
    multiply by mask / (1 - rate) in turn: (grad * mask / keep) * (z > 0)
    has the zeros of both factors, signs included, and then the scale."""
    d = grad * (out > 0.0)
    if scale is not None:
        d *= scale
    return d


def dense(x: Tensor, w: Tensor, b: Tensor, rate: float = 0.0,
          rng: np.random.Generator | None = None, *, relu: bool = True) -> Tensor:
    """x @ w + b, then, with relu (a hidden layer), relu and inverted
    dropout (_relu_dropout), as one tape node that keeps only its output;
    without relu, rate and rng are not read. The arithmetic is that of
    matmul, add and, with relu, relu and a multiply by mask / (1 - rate)
    in turn, so values and gradients are bit-identical to that composition.
    """
    out = x.data @ w.data
    out += b.data
    scale = _relu_dropout(out, rate, rng) if relu else None

    def backward(g):
        d = _relu_dropout_grad(g, out, scale) if relu else g
        del g
        b._accumulate(d.sum(axis=0))
        if x.requires_grad:
            x._accumulate(d @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ d)

    return Tensor(out, _parents=(x, w, b), _backward=backward)


def recompute(fn, x: Tensor) -> Tensor:
    """fn(x) as one tape node that keeps only x and the output (Chen et al.
    2016, "Training Deep Nets with Sublinear Memory Cost").

    The forward runs fn under no_grad(); backward runs fn again on a new
    leaf that shares x's data, backpropagates through that tape, freeing
    it as it goes, and accumulates the leaf's gradient into x. So x's
    gradient is summed within each call before it joins the rest, which
    can change its last bits against the inline graph (the token
    embeddings under the span blocks). It is the inline graph's when fn
    reads x in one place only, so the leaf's gradient is a single term,
    or when nothing outside fn reads x, so the leaf's gradient is all of
    x's. Gradients of the parameters fn reads accumulate directly. fn
    must compute the same values both times: a dropout mask must come
    from a stream fn seeds itself. A recompute within fn would run its
    own fn a third time, so the model nests none. Under no_grad() this is
    fn(x).

    The model's one site: each block of candidate spans
    (MtlCorefModel.forward).
    """
    if not _GRAD_ENABLED.get():
        return fn(x)
    with no_grad():
        out = fn(x).data

    def backward(grad):
        leaf = Tensor(x.data, requires_grad=x.requires_grad)
        fn(leaf).backward(grad)
        if leaf.grad is not None:
            x._accumulate(leaf.grad)

    return Tensor(out, requires_grad=True, _parents=(x,), _backward=backward)


# -- reductions -----------------------------------------------------------


def tensor_sum(a: Tensor) -> Tensor:
    """The sum of all of a's entries, a scalar."""
    def backward(g):
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor(a.data.sum(), _parents=(a,), _backward=backward)


def tensor_mean(a: Tensor) -> Tensor:
    """The mean of all of a's entries, a scalar."""
    return tensor_sum(a) * (1.0 / float(a.data.size))


def _logsumexp_softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerically stable (logsumexp with keepdims, softmax) of each row
    of the 2-D array a; -inf entries are treated as absent."""
    mx = np.max(a, axis=1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    ex = np.exp(a - mx)
    total = ex.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.log(total) + mx
        # rows that are all -inf have total 0; their logsumexp is -inf
        # and their softmax 0, not nan
        soft = np.where(total > 0.0, ex / np.where(total > 0.0, total, 1.0), 0.0)
    return value, soft


def logsumexp(a: Tensor) -> Tensor:
    """Numerically stable log-sum-exp of each row; -inf entries are absent.

    A primitive (not composed from exp/log) so rows containing -inf padding
    backprop cleanly: the gradient is the softmax, which is exactly 0 there.
    """
    value, soft = _logsumexp_softmax(a.data)

    def backward(g):
        a._accumulate(g[:, None] * soft)

    return Tensor(value[:, 0], _parents=(a,), _backward=backward)


# -- parameters -----------------------------------------------------------


class ParameterStore:
    """Named trainable tensors, each initialized from its own seeded stream."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, shape, init: str = "normal", std: float | None = None) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter already exists: {name}")
        shape = tuple(int(n) for n in shape)
        if init == "zeros":
            data = np.zeros(shape, dtype=DTYPE)
        elif init == "constant":
            data = np.full(shape, std, dtype=DTYPE)
        elif init == "normal":
            if std is None:
                fan_in = shape[0] if shape else 1
                std = 1.0 / np.sqrt(max(fan_in, 1))
            data = named_rng(self.seed, name).normal(0.0, std, size=shape)
        else:
            raise ValueError(f"unknown init: {init}")
        t = Tensor(data, requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def tensors(self, prefix: str = "") -> list[Tensor]:
        return [self._params[n] for n in self.names() if n.startswith(prefix)]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        """Every parameter's array, by name, handed over without a copy:
        the optimizer and load_state rebind .data to new arrays and never
        write into it, so a state taken earlier keeps its values. Code that
        writes into .data in place must not hold a state across the write."""
        return {n: self._params[n].data for n in self.names()}

    def load_state(self, state: dict):
        for name, t in self._params.items():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name}")
            arr = np.asarray(state[name], dtype=DTYPE)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {arr.shape}, model {t.data.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint parameter {name} holds non-finite values")
            t.data = arr.copy()
