"""The package names the benchmark in perfbench/ relies on.

perfbench wraps its model stages by module attribute and reads forward-pass
fields by name; a stage that no longer resolves is only reported as a
missing target, and its per-layer metric silently reads 0. These checks
read perfbench's lists without importing it.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from corefmtl.model import ForwardPass

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def module_constant(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


STAGES = module_constant(TRACING, "STAGES")


def test_stage_list_is_read():
    assert len(STAGES) == 13


@pytest.mark.parametrize("module,attr,span", STAGES, ids=[s[2] for s in STAGES])
def test_traced_stage_resolves(module, attr, span):
    assert callable(resolve(module, attr)), span


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
