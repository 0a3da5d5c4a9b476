"""Reference computations kept apart from the package's own code paths.

Everything here is written from the definitions, on plain Python and
numpy data, so that a benchmark run can check the program's outputs
without trusting the code under test:

  * MUC, B-cubed, CEAF-phi4 and markable P/R/F1, pooled over documents;
    the CEAF alignment is an exact assignment solved here, not by scipy;
  * greedy antecedent decoding from a score matrix plus union-find
    clustering;
  * the marginal log-likelihood coreference loss;
  * link-error extraction (missing, wrong and spurious links);
  * structural properties every forward pass must have.

`self_test()` checks the references on hand-computed cases.
"""

import itertools
from math import ceil

import numpy as np


# -- cluster metrics -------------------------------------------------------------


def _sets(clusters):
    return [frozenset(map(tuple, c)) for c in clusters]


def muc_counts(key, response):
    """(recall num, recall den, precision num, precision den) for MUC."""
    def side(gold, pred):
        owner = {m: i for i, c in enumerate(pred) for m in c}
        num = den = 0
        for c in gold:
            partitions = len({owner.get(m, m) for m in c})
            num += len(c) - partitions
            den += len(c) - 1
        return num, den
    key, response = _sets(key), _sets(response)
    return (*side(key, response), *side(response, key))


def b_cubed_counts(key, response):
    def side(gold, pred):
        owner = {m: c for c in pred for m in c}
        num = sum(len(g & owner.get(m, frozenset())) / len(g) for g in gold for m in g)
        return num, sum(len(g) for g in gold)
    key, response = _sets(key), _sets(response)
    return (*side(key, response), *side(response, key))


def max_assignment(weights: np.ndarray) -> float:
    """Exact maximum-weight one-to-one assignment (Kuhn-Munkres, O(n^3))
    on the square zero-padding of weights; returns the optimal total."""
    n = max(weights.shape) if weights.size else 0
    if n == 0:
        return 0.0
    cost = np.zeros((n + 1, n + 1))
    cost[1:weights.shape[0] + 1, 1:weights.shape[1] + 1] = -weights
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)    # match[column] = row; index 0 is a sentinel
    way = np.zeros(n + 1, dtype=int)
    for row in range(1, n + 1):
        match[0] = row
        col0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while match[col0] != 0:
            used[col0] = True
            r0 = match[col0]
            cur = cost[r0] - u[r0] - v
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = col0
            free_minv = np.where(used, np.inf, minv)
            col1 = int(np.argmin(free_minv))
            delta = free_minv[col1]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            col0 = col1
        while col0:
            col1 = way[col0]
            match[col0] = match[col1]
            col0 = col1
    return float(-cost[match[1:], np.arange(1, n + 1)].sum())


def ceaf_phi4_counts(key, response):
    key, response = _sets(key), _sets(response)
    sim = np.array([[2.0 * len(k & r) / (len(k) + len(r)) for r in response]
                    for k in key]).reshape(len(key), len(response))
    # the optimum is the sum of the optima of the connected components of
    # the overlap graph, which keeps each assignment small
    root = list(range(len(key) + len(response)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in zip(*np.nonzero(sim)):
        root[find(int(i))] = find(len(key) + int(j))
    components = {}
    for x in range(len(root)):
        components.setdefault(find(x), []).append(x)
    total = 0.0
    for members in components.values():
        rows = [x for x in members if x < len(key)]
        cols = [x - len(key) for x in members if x >= len(key)]
        if rows and cols:
            total += max_assignment(sim[np.ix_(rows, cols)])
    return total, len(key), total, len(response)


def prf(counts) -> tuple[float, float, float]:
    rn, rd, pn, pd = counts
    r = rn / rd if rd else 0.0
    p = pn / pd if pd else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def document_view(clusters, mentions):
    """Clusters plus a size-1 cluster for every mention outside them."""
    clusters = [sorted(set(map(tuple, c))) for c in clusters]
    clustered = {m for c in clusters for m in c}
    return clusters + [[tuple(m)] for m in sorted(set(map(tuple, mentions)))
                       if tuple(m) not in clustered]


def corpus_scores(pairs, keep_singletons: bool) -> dict:
    """Pooled scores over (key_view, response_view, key_mentions,
    response_mentions) tuples; views come from document_view()."""
    pooled = {"muc": np.zeros(4), "b_cubed": np.zeros(4),
              "ceaf_phi4": np.zeros(4), "markable_detection": np.zeros(4)}
    for key, response, key_mentions, response_mentions in pairs:
        if not keep_singletons:
            key = [c for c in key if len(c) >= 2]
            response = [c for c in response if len(c) >= 2]
        pooled["muc"] += muc_counts(key, response)
        pooled["b_cubed"] += b_cubed_counts(key, response)
        pooled["ceaf_phi4"] += ceaf_phi4_counts(key, response)
        k, r = set(map(tuple, key_mentions)), set(map(tuple, response_mentions))
        pooled["markable_detection"] += (len(k & r), len(k), len(k & r), len(r))
    out = {name: prf(c) for name, c in pooled.items()}
    out["avg_f1"] = (out["muc"][2] + out["b_cubed"][2] + out["ceaf_phi4"][2]) / 3.0
    return out


# -- decoding and loss -------------------------------------------------------------


def greedy_links(scores: np.ndarray, shortlists) -> list:
    """Best antecedent (kept-span index) per row, None for the dummy.

    Column 0 is the dummy at score 0. Ties go to the dummy, then to the
    nearer (larger-index) antecedent.
    """
    links = []
    for i, shortlist in enumerate(shortlists):
        best, best_score = None, 0.0
        for slot, j in enumerate(shortlist):
            s = float(scores[i, 1 + slot])
            if s > best_score or (s == best_score and best is not None and j > best):
                best, best_score = int(j), s
        links.append(best)
    return links


def link_clusters(links) -> list[list[int]]:
    """Union-find over the links; groups of >= 2 members, sorted."""
    parent = list(range(len(links)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in enumerate(links):
        if j is not None:
            a, b = root(i), root(j)
            parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(links)):
        groups.setdefault(root(i), []).append(i)
    return sorted(g for g in groups.values() if len(g) >= 2)


def gold_mask(kept_spans, shortlists, gold_clusters, num_slots: int) -> np.ndarray:
    cluster_of = {tuple(m): ci for ci, c in enumerate(gold_clusters) for m in c}
    mask = np.zeros((len(kept_spans), num_slots + 1), dtype=bool)
    for i, span in enumerate(kept_spans):
        ci = cluster_of.get(span)
        for slot, j in enumerate(shortlists[i]):
            if ci is not None and cluster_of.get(kept_spans[int(j)]) == ci:
                mask[i, 1 + slot] = True
        mask[i, 0] = not mask[i, 1:].any()
    return mask


def coref_loss(scores: np.ndarray, mask: np.ndarray) -> float:
    """Sum over rows of logsumexp(all) - logsumexp(gold)."""
    total = 0.0
    for row, gold in zip(scores, mask):
        total += _logsumexp(row) - _logsumexp(row[gold])
    return float(total)


def _logsumexp(x: np.ndarray) -> float:
    x = x[np.isfinite(x)]
    if x.size == 0:
        return -np.inf
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


# -- link errors -----------------------------------------------------------------


def link_errors(gold_clusters, gold_mentions, response_clusters) -> list:
    """(span, kind) for every link error of a response, from the definitions:
    missing_link on a non-initial gold member whose response cluster holds no
    earlier member of its chain; wrong_link on a gold mention linked to a
    response predecessor outside its gold unit; spurious_link on a linked
    non-mention."""
    gold_mentions = set(map(tuple, gold_mentions))
    unit = {m: frozenset([m]) for m in gold_mentions}
    for c in gold_clusters:
        for m in c:
            unit[tuple(m)] = frozenset(map(tuple, c))
    response_of = {tuple(m): frozenset(map(tuple, c)) for c in response_clusters for m in c}
    errors = []
    for c in response_clusters:
        ordered = sorted(set(map(tuple, c)))
        for x, y in zip(ordered, ordered[1:]):
            if y not in gold_mentions:
                errors.append((y, "spurious_link"))
            elif x not in unit[y]:
                errors.append((y, "wrong_link"))
    for c in gold_clusters:
        ordered = sorted(set(map(tuple, c)))
        for i, y in enumerate(ordered[1:], start=1):
            if not response_of.get(y, frozenset()) & set(ordered[:i]):
                errors.append((y, "missing_link"))
    return sorted(errors)


# -- forward-pass properties ---------------------------------------------------------


def check_forward(kept, sentence_of, shortlists, scores: np.ndarray, num_tokens: int,
                  prune_ratio: float, top_antecedents: int) -> list[str]:
    """Problems with one forward pass; an empty list means it is sound.

    kept: (start, end) of the kept spans in kept order; sentence_of maps a
    token to its sentence.
    """
    problems = []
    if len(kept) > ceil(prune_ratio * num_tokens):
        problems.append(f"{len(kept)} kept spans exceed the budget")
    if kept != sorted(kept):
        problems.append("kept spans are not in (start, end) order")
    for s, e in kept:
        if sentence_of[s] != sentence_of[e]:
            problems.append(f"kept span {(s, e)} crosses a sentence boundary")
    if kept:
        starts = np.array([s for s, _ in kept])
        ends = np.array([e for _, e in kept])
        cross = ((starts[:, None] < starts[None, :]) & (starts[None, :] <= ends[:, None])
                 & (ends[:, None] < ends[None, :]))
        if cross.any():
            problems.append(f"{int(cross.sum())} kept span pairs cross")
    if scores.shape[0] != len(kept):
        problems.append("score matrix rows differ from kept spans")
    elif scores.size and not np.all(scores[:, 0] == 0.0):
        problems.append("dummy column is not exactly 0")
    for i, shortlist in enumerate(shortlists):
        sl = [int(j) for j in shortlist]
        if len(sl) > top_antecedents:
            problems.append(f"row {i}: shortlist longer than {top_antecedents}")
        if any(j >= i for j in sl) or sl != sorted(set(sl)):
            problems.append(f"row {i}: shortlist not strictly earlier and ascending")
        if not np.all(np.isneginf(scores[i, 1 + len(sl):])):
            problems.append(f"row {i}: slots past the shortlist are not -inf")
        if not np.all(np.isfinite(scores[i, 1:1 + len(sl)])):
            problems.append(f"row {i}: shortlist slot scores are not finite")
    return problems


def prune_reference(scores, spans, num_tokens: int, ratio: float, gold: set):
    """Greedy non-crossing pruning from its definition, with the reason
    each gold mention was lost.

    spans: (start, end) candidates. Returns (kept, lost_crossing,
    lost_budget) with kept sorted and the lost counts over gold mentions.
    """
    limit = min(ceil(ratio * num_tokens), len(spans))
    order = sorted(range(len(spans)), key=lambda i: (-float(scores[i]), spans[i]))
    kept, covering = [], {}
    lost_crossing = 0
    for i in order:
        s, e = spans[i]
        if len(kept) >= limit:
            break
        crossing = any(a < s <= b < e or s < a <= e < b
                       for t in range(s, e + 1) for a, b in covering.get(t, ()))
        if crossing:
            lost_crossing += spans[i] in gold
            continue
        kept.append(spans[i])
        for t in range(s, e + 1):
            covering.setdefault(t, []).append(spans[i])
    kept_set = set(kept)
    lost_budget = sum(1 for g in gold if g not in kept_set) - lost_crossing
    return sorted(kept), lost_crossing, lost_budget


# -- self test ------------------------------------------------------------------------


def self_test():
    """Hand-computed cases; raises AssertionError on any disagreement."""
    a, b, c = (0, 0), (2, 2), (4, 4)
    key, response = [[a, b, c]], [[a, b], [c]]
    assert np.isclose(prf(muc_counts(key, response))[2], 2 / 3)
    assert np.isclose(prf(b_cubed_counts(key, response))[2], 5 / 7)
    assert np.isclose(prf(ceaf_phi4_counts(key, response))[2], 8 / 15)
    assert prf(muc_counts(key, key)) == (1.0, 1.0, 1.0)
    rng = np.random.default_rng(0)
    for n, m in ((3, 3), (4, 2), (2, 5), (5, 5)):
        w = rng.random((n, m))
        small = w if n <= m else w.T
        brute = max(sum(small[i, p[i]] for i in range(small.shape[0]))
                    for p in itertools.permutations(range(small.shape[1]), small.shape[0]))
        assert np.isclose(max_assignment(w), brute), (n, m)
    scores = np.array([[0.0, -np.inf, -np.inf],
                       [0.0, 1.0, -np.inf],
                       [0.0, 2.0, 2.0]])
    links = greedy_links(scores, [[], [0], [0, 1]])
    assert links == [None, 0, 1]
    assert link_clusters(links) == [[0, 1, 2]]
    assert greedy_links(np.array([[0.0, 0.0]]), [[0]]) == [None]
    mask = np.array([[True, False, False], [False, True, False], [True, False, False]])
    expected = np.log(1 + np.e) - 1.0 + np.log(1 + 2 * np.e ** 2) - 0.0
    assert np.isclose(coref_loss(scores, mask), expected)
    errs = link_errors([[a, b, c]], [a, b, c, (6, 6)], [[a, b], [c, (6, 6)]])
    assert errs == [(c, "missing_link"), ((6, 6), "wrong_link")]
    assert link_errors([[a, b]], [a, b], [[a, b, (8, 8)]]) == [((8, 8), "spurious_link")]
