"""Independent reference implementations used to freeze expected values.

These deliberately avoid the library's code paths: MUC and B-cubed are
computed straight from their definitions with per-mention loops, and the
CEAF alignment is found by exhaustive permutation or by an exact
subset-sum dynamic program rather than the Hungarian method. Candidate
spans come from a loop over each sentence's (start, end) pairs. Pruning
checks each candidate against every kept span; the pair features, the
gold antecedent mask and the coarse score matrix are built pair by pair,
and a coarse shortlist comes from a sort of its anaphor's whole row. A
backward scatter-sum is np.add.at. Span representations are the graph of
primitive autodiff ops that autodiff.span_representation fuses, with exp
and the soft-head sum defined here as tape ops. The pair scorer's first layer is
the arithmetic of autodiff.pair_scorer's first layer with every gather made
whole, and its backward a whole scatter per term. An FFNN
node's stacks are chains of dense nodes over all their rows. The
toy encoder's lookup and mix are the graph of primitive autodiff ops that
autodiff.window_mix fuses, with tanh defined here as a tape op.
"""

from itertools import permutations
from math import ceil

import numpy as np

from corefmtl import autodiff as ad


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _prf(rn, rd, pn, pd):
    r = rn / rd if rd else 0.0
    p = pn / pd if pd else 0.0
    return p, r, _f1(p, r)


def muc_reference(key, response):
    key = [set(c) for c in key]
    response = [set(c) for c in response]

    def side(gold, pred):
        num = den = 0
        for c in gold:
            covered = set()
            parts = 0
            for r in pred:
                if c & r:
                    parts += 1
                    covered |= c & r
            parts += len(c - covered)  # each twinless mention is its own part
            num += len(c) - parts
            den += len(c) - 1
        return num, den

    rn, rd = side(key, response)
    pn, pd = side(response, key)
    return _prf(rn, rd, pn, pd)


def b_cubed_reference(key, response):
    key = [set(c) for c in key]
    response = [set(c) for c in response]

    def side(gold, pred):
        num = 0.0
        den = 0
        for c in gold:
            for m in c:
                holder = next((r for r in pred if m in r), None)
                if holder is not None:
                    num += len(c & holder) / len(c)
                den += 1
        return num, den

    rn, rd = side(key, response)
    pn, pd = side(response, key)
    return _prf(rn, rd, pn, pd)


def _phi4(a, b):
    return 2.0 * len(a & b) / (len(a) + len(b))


def ceaf_phi4_by_permutation(key, response):
    """Optimal alignment by trying every injective assignment."""
    key = [set(c) for c in key]
    response = [set(c) for c in response]
    if not key or not response:
        best = 0.0
    else:
        small, large = (key, response) if len(key) <= len(response) else (response, key)
        best = 0.0
        for perm in permutations(range(len(large)), len(small)):
            total = sum(_phi4(small[i], large[j]) for i, j in enumerate(perm))
            best = max(best, total)
    return _prf(best, len(key), best, len(response))


def ceaf_phi4_by_subset_dp(key, response):
    """Optimal alignment by exact DP over subsets of the smaller side."""
    key = [set(c) for c in key]
    response = [set(c) for c in response]
    if not key or not response:
        best = 0.0
    else:
        small, large = (key, response) if len(key) <= len(response) else (response, key)
        m = len(small)
        sim = [[_phi4(a, b) for a in small] for b in large]
        # dp[mask] = best total similarity matching the clusters named by
        # mask (over small) against the first i clusters of large
        dp = [0.0] * (1 << m)
        for i in range(len(large)):
            new = dp[:]
            for mask in range(1 << m):
                base = dp[mask]
                for j in range(m):
                    if mask & (1 << j):
                        continue
                    cand = base + sim[i][j]
                    if cand > new[mask | (1 << j)]:
                        new[mask | (1 << j)] = cand
            dp = new
        best = max(dp)
    return _prf(best, len(key), best, len(response))


def random_partition(rng, mentions, max_clusters=None):
    """A uniform-ish random partition of the given mention labels."""
    if not mentions:
        return []
    k = int(rng.integers(1, (max_clusters or len(mentions)) + 1))
    clusters = {}
    for m in mentions:
        clusters.setdefault(int(rng.integers(k)), []).append(m)
    return [sorted(c) for c in clusters.values()]


def bucket_reference(n):
    """Width/distance bucket: 1, 2, 3, 4 exact, then 5-7, 8-15, 16-31, 32+."""
    if n <= 4:
        return n - 1
    if n <= 7:
        return 4
    if n <= 15:
        return 5
    if n <= 31:
        return 6
    return 7


def enumerate_spans_reference(sentence_lengths, max_span_width):
    """(start, end) of every span of width <= max_span_width inside one
    sentence, by a loop over each sentence's token pairs."""
    out = []
    offset = 0
    for n in sentence_lengths:
        for i in range(n):
            for j in range(i, min(i + max_span_width, n)):
                out.append((offset + i, offset + j))
        offset += n
    return out


def pair_features_reference(kept_spans, speakers, shortlists):
    """(rows, cols, antecedents, distance buckets, same-speaker flags) of
    every shortlist entry, one pair at a time; speakers holds one string per
    token, and "" or "-" is an unknown speaker that matches no one."""
    rows, cols, ants, dist, same = [], [], [], [], []
    for i, shortlist in enumerate(shortlists):
        spk_i = speakers[kept_spans[i].start]
        for slot, j in enumerate(shortlist):
            rows.append(i)
            cols.append(slot)
            ants.append(int(j))
            dist.append(bucket_reference(i - int(j)))
            spk_j = speakers[kept_spans[int(j)].start]
            known = spk_i not in ("", "-") and spk_j not in ("", "-")
            same.append(1 if known and spk_i == spk_j else 0)
    return rows, cols, ants, dist, same


def gold_mask_reference(kept_spans, shortlists, gold_clusters, num_slots):
    """Rows of booleans, 1 + num_slots per kept span: slot columns whose
    antecedent shares the span's gold cluster, and the dummy column 0
    exactly when no such antecedent is in the shortlist. A span listed in
    two clusters belongs to the first."""
    cluster_of = {}
    for ci, cluster in enumerate(gold_clusters):
        for span in cluster:
            cluster_of.setdefault(tuple(span), ci)
    mask = []
    for i, cand in enumerate(kept_spans):
        row = [False] * (num_slots + 1)
        ci = cluster_of.get(cand.span)
        if ci is not None:
            for slot, j in enumerate(shortlists[i]):
                if cluster_of.get(kept_spans[int(j)].span) == ci:
                    row[1 + slot] = True
        row[0] = not any(row[1:])
        mask.append(row)
    return mask


def coarse_matrix_reference(g, combined, bilinear):
    """The dense (S, S) coarse score matrix, one entry at a time:
    combined[i] + combined[j] + g[i] . (bilinear g[j]) for an earlier
    span j < i, -inf where j >= i."""
    n = len(combined)
    matrix = [[float("-inf")] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            pull = sum(float(g[i][a]) * float(bilinear[a][b]) * float(g[j][b])
                       for a in range(len(g[i])) for b in range(len(g[j])))
            matrix[i][j] = float(combined[i]) + float(combined[j]) + pull
    return matrix


def top_k_reference(row, top_k):
    """Ascending indices of the top_k entries of one row of coarse scores
    (all, if fewer): one sort of the whole row by descending score, ties
    resolved toward the nearer antecedent (the higher index)."""
    i = len(row)
    order = np.lexsort((-np.arange(i), -np.asarray(row)))[:min(top_k, i)]
    return np.sort(order).astype(np.intp)


def prune_reference(scores, spans, num_tokens, ratio):
    """Greedy non-crossing pruning, each candidate checked against every
    span kept so far; spans are (start, end) pairs."""
    limit = min(ceil(ratio * num_tokens), len(spans))
    order = sorted(range(len(spans)), key=lambda i: (-float(scores[i]), spans[i]))
    kept = []
    for i in order:
        if len(kept) >= limit:
            break
        a = spans[i]
        if any(a[0] < b[0] <= a[1] < b[1] or b[0] < a[0] <= b[1] < a[1]
               for b in (spans[j] for j in kept)):
            continue
        kept.append(i)
    return sorted(kept, key=lambda i: spans[i])


def scatter_rows_reference(values, idx, num_rows):
    """values[p] summed into row idx[p] of a zero (num_rows, ...) array by
    np.add.at, which adds in ascending p."""
    out = np.zeros((num_rows,) + values.shape[np.ndim(idx):])
    np.add.at(out, idx, values)
    return out


def exp(a):
    """exp as a tape op on autodiff tensors."""
    value = np.exp(a.data)

    def backward(g):
        a._accumulate(g * value)

    return ad.Tensor(value, _parents=(a,), _backward=backward)


def matmul(a, b):
    """a @ b as a tape op on 2-D autodiff tensors; an operand that needs no
    gradient gets none computed."""
    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return ad.Tensor(a.data @ b.data, _parents=(a, b), _backward=backward)


def tanh(a):
    """tanh as a tape op on autodiff tensors."""
    value = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - value * value))

    return ad.Tensor(value, _parents=(a,), _backward=backward)


def span_attend(alpha, emb, grid):
    """out[s] = sum_k alpha[s, k] * emb[grid[s, k]] as a tape op, summed one
    offset k at a time, forward and backward."""
    av, ev = alpha.data, emb.data
    out = np.zeros((grid.shape[0], ev.shape[1]))
    for k in range(grid.shape[1]):
        out += av[:, k, None] * ev[grid[:, k]]

    def backward(g):
        d_alpha = np.empty_like(av)
        d_emb = np.zeros_like(ev)
        for k in range(grid.shape[1]):
            d_alpha[:, k] = np.einsum("sd,sd->s", g, ev[grid[:, k]])
            d_emb += scatter_rows_reference(av[:, k, None] * g, grid[:, k], ev.shape[0])
        alpha._accumulate(d_alpha)
        emb._accumulate(d_emb)

    return ad.Tensor(out, _parents=(alpha, emb), _backward=backward)


def represent_spans_reference(emb, head_score, width_table, starts, ends, buckets, width):
    """Span representations composed from autodiff ops: the boundary rows,
    the soft head (a masked softmax of the token scores emb @ head_score
    over each span's clipped token grid) and the width embedding,
    concatenated. Returns (g, alpha) as tensors."""
    grid = np.minimum(starts[:, None] + np.arange(width)[None, :], ends[:, None])
    valid = np.arange(width)[None, :] < (ends - starts + 1)[:, None]
    token_scores = matmul(emb, head_score).reshape((emb.shape[0],))
    scores = ad.take_rows(token_scores, grid) + ad.constant(np.where(valid, 0.0, -np.inf))
    alpha = exp(scores - ad.logsumexp(scores).reshape((len(grid), 1)))
    g = ad.concat([ad.take_rows(emb, starts), ad.take_rows(emb, ends),
                   span_attend(alpha, emb, grid), ad.take_rows(width_table, buckets)],
                  axis=1)
    return g, alpha


def pair_input_layer_reference(g, w0, b0, rows, antecedents, tables, projected,
                               relu=True, rate=0.0, rng=None):
    """The first layer of autodiff.pair_scorer with each pair gather made
    for every pair at once: the sum (g W_a)[rows] + (g W_b)[antecedents] +
    (g[rows] * g[antecedents]) W_c + sum_k (T_k W_k)[idx_k] + b0, added
    in that order, then relu and dropout, as one tape op. The anaphor
    term is gathered from the whole product g W_a."""
    rows = np.asarray(rows, dtype=np.intp)
    ants = np.asarray(antecedents, dtype=np.intp)
    tables = [(t, np.asarray(idx, dtype=np.intp)) for t, idx in tables]
    gv = g.data
    w_a, w_b, w_c, *w_tables = ad._pair_weights(gv.shape[1], w0, [t for t, _ in tables])
    g_wa = gv @ w_a
    g_wb, *table_terms = projected

    def product():
        prod = gv[rows]
        prod *= gv[ants]
        return prod

    out = g_wa[rows]
    out += g_wb[ants]
    out += product() @ w_c
    for (_, idx), term in zip(tables, table_terms):
        out += term[idx]
    out += b0.data
    scale = ad._relu_dropout(out, rate, rng) if relu else None

    def backward(grad):
        if relu:
            grad = ad._relu_dropout_grad(grad, out, scale)
        n = gv.shape[0]
        by_row = ad._scatter_rows(grad, rows, n)
        by_ant = ad._scatter_rows(grad, ants, n)
        by_table = [ad._scatter_rows(grad, idx, t.data.shape[0]) for t, idx in tables]
        b0._accumulate(grad.sum(axis=0))
        if w0.requires_grad:
            w0._accumulate(np.concatenate(
                [gv.T @ by_row, gv.T @ by_ant, product().T @ grad]
                + [t.data.T @ by_t for (t, _), by_t in zip(tables, by_table)]))
        for (t, _), by_t, w_k in zip(tables, by_table, w_tables):
            if t.requires_grad:
                t._accumulate(by_t @ w_k.T)
        if g.requires_grad:
            d_prod = grad @ w_c.T
            d_g = by_row @ w_a.T + by_ant @ w_b.T
            d_g += ad._scatter_rows(d_prod * gv[ants], rows, n)
            d_g += ad._scatter_rows(d_prod * gv[rows], ants, n)
            g._accumulate(d_g)

    return ad.Tensor(out, _parents=(g, w0, b0) + tuple(t for t, _ in tables),
                     _backward=backward)


def ffnn_reference(x, stacks, rate=0.0, rngs=None):
    """The graph autodiff.ffnn_node fuses: per stack, one autodiff.dense
    node per layer over all of x's rows, each hidden layer drawing its
    dropout mask from the stack's rng in turn, and the stacks' outputs
    concatenated by rows."""
    outs = []
    for layers, rng in zip(stacks, rngs or [None] * len(stacks)):
        h = x
        for layer, (w, b) in enumerate(layers):
            h = ad.dense(h, w, b, rate, rng, relu=layer < len(layers) - 1)
        outs.append(h)
    return ad.join_blocks(outs)


def window_mix_reference(table, ids, w, b, window):
    """tanh(concat([emb, context]) @ w + b) composed from autodiff ops over
    the lookup emb = take_rows(table, ids), where row t of the context is
    the mean of emb rows max(0, t - window) .. min(T - 1, t + window): one
    take_rows times a weight constant per shift, summed in shift order."""
    emb = ad.take_rows(table, ids)
    n = emb.shape[0]
    window = min(window, max(n - 1, 0))
    pos = np.arange(n)
    count = np.minimum(pos + window, n - 1) - np.maximum(pos - window, 0) + 1
    ctx = None
    for shift in range(-window, window + 1):
        src = pos + shift
        inside = (src >= 0) & (src < n)
        weight = ad.constant(np.where(inside, 1.0 / count, 0.0)[:, None])
        term = ad.take_rows(emb, np.clip(src, 0, n - 1)) * weight
        ctx = term if ctx is None else ctx + term
    return tanh(matmul(ad.concat([emb, ctx], axis=1), w) + b)
