"""The package names the benchmark in perfbench/ relies on.

perfbench wraps its model stages and other targets by module attribute and
reads forward-pass fields by name; a target that no longer resolves is only
reported as missing, and its per-layer metric silently reads 0. These checks
read perfbench's lists without importing it, resolve each target the way its
tracer does, and use one forward pass the way its checks and counters do.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from corefmtl import autodiff as ad
from corefmtl import mtl
from corefmtl.encoder import EncoderConfig, build_vocab
from corefmtl.model import ForwardPass, ModelConfig, MtlCorefModel
from corefmtl.scoring import pair_features, prune_spans
from corefmtl.synthetic import generate_corpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def module_constant(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def owner_namespace(module: str, attr: str) -> tuple[dict, str]:
    """The __dict__ that perfbench's tracer patches for a target, and the
    key it patches: the module's, or the class's for "Class.method"."""
    owner = importlib.import_module(module)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner), last


def resolve(module: str, attr: str):
    namespace, last = owner_namespace(module, attr)
    return namespace[last]


STAGES = module_constant(TRACING, "STAGES")
OTHER = module_constant(TRACING, "OTHER")
# listed by perfbench, but gone from the package: ForwardPass.scores
# replaced score_rows, and perfbench's list is yet to drop it
STALE = [("corefmtl.model", "ForwardPass.score_rows")]


def test_stage_list_is_read():
    assert len(STAGES) == 13


@pytest.mark.parametrize("module,attr,span", STAGES, ids=[s[2] for s in STAGES])
def test_traced_stage_resolves(module, attr, span):
    assert callable(resolve(module, attr)), span


def test_other_list_is_read():
    assert len(OTHER) == 25
    assert {("corefmtl.corpus", "parse_conll"), ("corefmtl.corpus", "write_conll"),
            ("corefmtl.cli", "write_conll"), ("corefmtl.cli", "read_sidecar"),
            ("corefmtl.cli", "apply_sidecar"), *STALE} <= {t[:2] for t in OTHER}


@pytest.mark.parametrize("module,attr,span", OTHER,
                         ids=[f"{m}.{a}" for m, a, _ in OTHER])
def test_other_target_resolves(module, attr, span):
    namespace, last = owner_namespace(module, attr)
    if (module, attr) in STALE:
        assert last not in namespace, f"{span} resolves again"
    else:
        assert callable(namespace.get(last)), span


@pytest.mark.parametrize("module,attr", [
    ("corefmtl.mtl", "gold_antecedent_mask"),
    ("corefmtl.mtl", "coref_loss_from_matrix"),
    ("corefmtl.inference", "PredictionResult"),
    ("corefmtl.inference", "predict_document"),
    ("corefmtl.training", "TrainConfig.model_config"),
    ("corefmtl.model", "MtlCorefModel.loss"),
])
def test_called_name_resolves(module, attr):
    assert callable(resolve(module, attr))


def test_forward_pass_has_the_fields_perfbench_reads():
    fields = {f.name for f in dataclasses.fields(ForwardPass)}
    assert {"spans", "kept_spans", "shortlists", "scores", "logits",
            "combined"} <= fields


def test_forward_pass_reads_as_perfbench_reads_it():
    """What perfbench's checks (reference.check_forward, greedy_links,
    gold_mask, tracing.recall_stats) and counters read from one forward
    pass, by position and by attribute."""
    doc = max(generate_corpus(2, seed=5), key=lambda d: d.num_tokens)
    cfg = ModelConfig(encoder=EncoderConfig(dim=8, vocab_size=32, window=1),
                      feature_dim=4, hidden=8, ffnn_depth=1, max_span_width=4,
                      top_antecedents=5, genres=(doc.genre,))
    model = MtlCorefModel(cfg, seed=0, vocab=build_vocab([doc], 32))
    with ad.no_grad():
        fp = model.forward(doc, need_heads=tuple(mtl.HEAD_SIZES))

    spans = [s.span for s in fp.spans]
    assert len(spans) == len(fp.spans) > 0
    assert all(isinstance(x, int) for span in spans for x in span)
    kept = [fp.kept_spans[i].span for i in range(len(fp.kept_spans))]
    assert kept == [s.span for s in fp.kept_spans] == [spans[i] for i in fp.kept]
    assert len(fp.shortlists) == len(kept) == fp.scores.shape[0]
    rows = [[int(j) for j in fp.shortlists[i]] for i in range(len(fp.shortlists))]
    assert rows == [[int(j) for j in row] for row in fp.shortlists]
    assert all(j < i for i, row in enumerate(rows) for j in row)
    n_pairs = sum(len(row) for row in rows)
    assert n_pairs > 0
    pairs = pair_features(fp.kept_spans, doc, fp.shortlists, model.genre_id(doc.genre))
    assert len(pairs.rows) == n_pairs
    assert len(prune_spans(fp.combined.data, fp.spans, doc.num_tokens,
                           cfg.prune_ratio)) == len(kept)
    num_slots = fp.scores.shape[1] - 1
    mask = mtl.gold_antecedent_mask(fp.kept_spans, fp.shortlists, doc.gold_clusters,
                                    num_slots)
    assert mask.shape == fp.scores.shape
