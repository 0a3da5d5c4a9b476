"""Span tracing from outside the package.

The tracer replaces public functions at the module attribute each caller
looks up (for instance `corefmtl.model.prune_spans`, which model.py
imports by name, or `corefmtl.autodiff.matmul`, which `ad.matmul` and the
Tensor operators resolve at call time) with wrappers that record a span:
name, start, end, parent and the group (one training step, one predicted
document or one command) it belongs to. Autodiff ops also get their
returned `_backward` wrapped, so backward time and output ("tape") bytes
land on the op and on the model stage that created it.

A span's self time is its duration minus its child spans, except that
op spans, forward and backward, are not subtracted: an op is the work of
the span that runs it, so `encoder.encode` keeps its window matmuls and
`autodiff.backward` keeps the backward closures it calls. The op spans
give a second, per-op view of the same time.

Spans stay in memory; `write()` dumps them when the run ends. A target
that no longer exists is reported in `missing` and otherwise ignored.
"""

import importlib
import json
import os
from time import perf_counter

import numpy as np

import reference

# (module, attribute, span name); class methods are written "Class.method"
STAGES = [
    ("corefmtl.model", "encode", "encoder.encode"),
    ("corefmtl.model", "enumerate_spans", "spans.enumerate_spans"),
    ("corefmtl.model", "represent_spans", "spans.represent_spans"),
    ("corefmtl.model", "unary_score_tensors", "scoring.unary_score_tensors"),
    ("corefmtl.model", "prune_spans", "scoring.prune_spans"),
    ("corefmtl.model", "coarse_scores", "scoring.coarse_scores"),
    ("corefmtl.model", "pair_features", "scoring.pair_features"),
    ("corefmtl.model", "score_matrix", "scoring.score_matrix"),
    ("corefmtl.model", "head_logits", "mtl.head_logits"),
    ("corefmtl.model", "assign_aux_labels", "mtl.assign_aux_labels"),
    ("corefmtl.model", "gold_antecedent_mask", "mtl.gold_antecedent_mask"),
    ("corefmtl.model", "coref_loss_from_matrix", "mtl.coref_loss_from_matrix"),
    ("corefmtl.model", "aux_losses", "mtl.aux_losses"),
]
OTHER = [
    ("corefmtl.model", "MtlCorefModel.forward", "model.forward"),
    ("corefmtl.model", "MtlCorefModel.loss", "model.loss"),
    ("corefmtl.scoring", "ffnn", "layers.ffnn"),
    ("corefmtl.mtl", "ffnn", "layers.ffnn"),
    ("corefmtl.autodiff", "Tensor.backward", "autodiff.backward"),
    ("corefmtl.training", "clip_global_norm", "optim.clip_global_norm"),
    ("corefmtl.optim", "AdamOptimizer.step", "optim.adam_step"),
    ("corefmtl.inference", "predict_document", "inference.predict_document"),
    ("corefmtl.model", "ForwardPass.score_rows", "inference.score_rows"),
    ("corefmtl.inference", "decode_antecedents", "inference.decode_antecedents"),
    ("corefmtl.inference", "build_clusters", "inference.build_clusters"),
    ("corefmtl.evaluation", "evaluate", "evaluation.evaluate"),
    ("corefmtl.cli", "evaluate", "evaluation.evaluate"),
    ("corefmtl.evaluation", "muc_stats", "evaluation.muc_stats"),
    ("corefmtl.evaluation", "b_cubed_stats", "evaluation.b_cubed_stats"),
    ("corefmtl.evaluation", "ceaf_phi4_stats", "evaluation.ceaf_phi4_stats"),
    ("corefmtl.corpus", "parse_conll", "corpus.parse_conll"),
    ("corefmtl.corpus", "write_conll", "corpus.write_conll"),
    ("corefmtl.cli", "write_conll", "corpus.write_conll"),
    ("corefmtl.cli", "read_sidecar", "corpus.read_sidecar"),
    ("corefmtl.cli", "apply_sidecar", "corpus.apply_sidecar"),
    ("corefmtl.cli", "contrast", "error_analysis.contrast"),
    ("corefmtl.error_analysis", "extract_errors", "error_analysis.extract_errors"),
    ("corefmtl.error_analysis", "classify_anaphor", "error_analysis.classify_anaphor"),
    ("corefmtl.cli", "main", "cli.main"),
]
# primitive autodiff ops: each builds one tape node
OPS = ["add", "sub", "mul", "div", "neg", "matmul", "einsum", "reshape", "concat",
       "take_rows", "scatter2d", "exp", "log", "tanh", "relu", "tensor_sum",
       "logsumexp"]
# leaves the graph keeps alive as parents (window matrices, masks): their
# bytes count as tape too
LEAVES = ["constant"]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, group)
        self._stack: list[int] = []    # indices into spans
        self._child: dict[int, float] = {}
        self.self_ms: dict[str, float] = {}
        self.total_ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.stage = None              # innermost model stage, for attribution
        self.group = None
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def add(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.group])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, nested: bool = True):
        """End span idx; a nested span's time is taken out of its parent's
        self time."""
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        dur = end - span[1]
        own = dur - self._child.pop(idx, 0.0)
        self.self_ms[span[0]] = self.self_ms.get(span[0], 0.0) + own * 1e3
        self.total_ms[span[0]] = self.total_ms.get(span[0], 0.0) + dur * 1e3
        self.calls[span[0]] = self.calls.get(span[0], 0) + 1
        if nested and span[3] >= 0:
            self._child[span[3]] = self._child.get(span[3], 0.0) + dur

    def wrap(self, fn, name: str, stage: bool = False, count=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            outer = tracer.stage
            if stage:
                tracer.stage = name
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stage = outer
                tracer._close(idx)
            if count is not None:
                count(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_op(self, fn, op: str):
        tracer = self
        name = f"autodiff.{op}"

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nested=False)
            nbytes = out.data.nbytes
            tracer.add("autodiff.tape.bytes", nbytes)
            if tracer.stage is not None:
                tracer.add(f"{tracer.stage}.tape_bytes", nbytes)
            if op == "matmul":
                (m, k), n = args[0].shape, args[1].shape[1]
                tracer.add("autodiff.matmul.flop", 2.0 * m * k * n)
            if out._backward is not None:
                out._backward = tracer._wrap_backward(out._backward, op, tracer.stage)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, backward, op: str, stage):
        tracer = self
        name = f"autodiff.backward.{op}"

        def traced_backward(g):
            idx = tracer._open(name)
            start = perf_counter()
            try:
                backward(g)
            finally:
                tracer._close(idx, nested=False)
            if stage is not None:
                tracer.add(f"{stage}.backward_ms", (perf_counter() - start) * 1e3)

        return traced_backward

    # -- installation ----------------------------------------------------------

    def install(self, extra_counters=None):
        """Wrap every target; extra_counters maps a span name to a hook
        called as hook(tracer, args, result) after the span closes."""
        counters = {
            "scoring.prune_spans": _count_prune,
            "spans.enumerate_spans": _count_spans,
            "scoring.pair_features": _count_pairs,
            "evaluation.muc_stats": _count_clusters,
            "corpus.parse_conll": _count_bytes,
            "corpus.read_sidecar": _count_bytes,
            **(extra_counters or {}),
        }
        for module, attr, name in STAGES:
            self._patch(module, attr, lambda fn, n=name: self.wrap(
                fn, n, stage=True, count=counters.get(n)))
        for module, attr, name in OTHER:
            self._patch(module, attr, lambda fn, n=name: self.wrap(
                fn, n, count=counters.get(n)))
        for op in OPS + LEAVES:
            self._patch("corefmtl.autodiff", op, lambda fn, o=op: self.wrap_op(fn, o))

    def _patch(self, module_name: str, attr: str, make):
        try:
            owner = importlib.import_module(module_name)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[last]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(owner, last, make(original))
        self._restore.append((owner, last, original))

    def uninstall(self):
        for owner, last, original in reversed(self._restore):
            setattr(owner, last, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path: str):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, group in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent,
                                     group]) + "\n")

    def covered_ms(self, root_names, lo: float, hi: float) -> float:
        """Milliseconds within [lo, hi] covered by top-level spans (no parent)
        whose names are in root_names."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent == -1 and name in root_names and end > lo and start < hi:
                total += min(end, hi) - max(start, lo)
        return total * 1e3


def _count_prune(tracer, args, kept):
    tracer.add("scoring.kept", len(kept))


def _count_spans(tracer, args, spans):
    tracer.add("spans.candidates", len(spans))


def _count_pairs(tracer, args, pairs):
    tracer.add("scoring.pairs", len(pairs.rows))


def _count_clusters(tracer, args, _):
    tracer.add("evaluation.clusters", len(args[0]) + len(args[1]))


def _count_bytes(tracer, args, _):
    source = args[0]
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        tracer.add("corpus.bytes_read", os.path.getsize(source))


def recall_stats(doc, spans, scores: np.ndarray, kept_spans, shortlists,
                 prune_ratio: float) -> dict:
    """Pruning and shortlist recall of one forward pass against gold, and
    whether the program kept the spans the reference pruning keeps."""
    gold = {m.span for m in doc.gold_mentions}
    cand = [s.span for s in spans]
    expected, lost_crossing, lost_budget = reference.prune_reference(
        scores, cand, doc.num_tokens, prune_ratio, gold)
    kept = [s.span for s in kept_spans]
    kept_set = set(kept)
    cluster_of = {span: ci for ci, c in enumerate(doc.gold_clusters) for span in c}
    anaphors = hits = 0
    for i, span in enumerate(kept):
        ci = cluster_of.get(span)
        if ci is None or not any(cluster_of.get(kept[j]) == ci for j in range(i)):
            continue
        anaphors += 1
        hits += any(cluster_of.get(kept[int(j)]) == ci for j in shortlists[i])
    return {"gold": len(gold), "kept_gold": len(gold & kept_set),
            "lost_crossing": lost_crossing, "lost_budget": lost_budget,
            "anaphors": anaphors, "shortlist_hits": hits,
            "prune_mismatch": int(kept != expected)}
