"""Damaged input files end a command with exit 0 or 2, never a traceback.

Each example takes a valid file (a CoNLL key, its sidecar, the same
documents as JSON lines, or a run configuration), applies one mutation
(a line deleted, duplicated or swapped, one field replaced with drawn
text, a few bytes inserted, or the file truncated) and reads it the way
the commands do: `score` and `analyze-errors` in-process, some examples
also `predict` with one checkpoint trained for the module, `train` for
one step of a tiny model on the damaged corpus, and the configuration
through `load_config`.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefmtl.cli import main
from corefmtl.config import ConfigError, load_config
from corefmtl.corpus import write_conll, write_jsonl, write_sidecar
from corefmtl.encoder import EncoderConfig
from corefmtl.synthetic import generate_corpus
from corefmtl.training import TrainConfig, train

# a field: a run of characters between whitespace, tabs and JSON punctuation
FIELD_RE = re.compile(rb'[^\s,:\[\]{}"]+')
FIELD_TEXT = st.text(st.one_of(st.sampled_from(list("()[]|0123456789-_#\t=")),
                               st.characters(min_codepoint=128, codec="utf-8")),
                     max_size=8)

CONFIG = """\
[encoder]
dim = 8
vocab_size = 64

[model]
hidden = 8
top_antecedents = 10

[weights]
singleton = 0.1

[training]
steps = 2
select = final
"""


@st.composite
def mutated(draw, data: bytes) -> bytes:
    lines = data.split(b"\n")
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "field",
                                 "insert", "truncate"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "field":
        fields = list(FIELD_RE.finditer(lines[i]))
        if fields:
            m = fields[draw(st.integers(0, len(fields) - 1))]
            lines[i] = (lines[i][:m.start()] + draw(FIELD_TEXT).encode()
                        + lines[i][m.end():])
    elif kind == "insert":
        pos = draw(st.integers(0, len(data)))
        return data[:pos] + draw(st.binary(min_size=1, max_size=4)) + data[pos:]
    else:
        return data[:draw(st.integers(0, len(data) - 1))]
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = generate_corpus(2, seed=9)
    for name, text in (("key.conll", write_conll(docs)), ("key.tsv", write_sidecar(docs)),
                       ("key.jsonl", write_jsonl(docs)), ("config.ini", CONFIG),
                       ("train.ini", CONFIG.replace("steps = 2", "steps = 1"))):
        (root / name).write_text(text, encoding="utf-8")
    cfg = TrainConfig(steps=2, encoder=EncoderConfig(dim=8, vocab_size=64),
                      feature_dim=4, hidden=8, ffnn_depth=1, max_span_width=4,
                      top_antecedents=10)
    train(docs, cfg).checkpoint.save(root / "checkpoint.npz")
    return root


def commands(root, kind, bad, with_predict) -> list[list[str]]:
    """score, analyze-errors and, with_predict, predict, each reading the
    damaged file: as the response or system A, or as the key's sidecar."""
    key = str(root / ("key.jsonl" if kind == "jsonl" else "key.conll"))
    if kind == "tsv":
        response, sidecar = key, ["--sidecar", str(bad)]
    else:
        response, sidecar = str(bad), []
    argvs = [["score", key, response, *sidecar],
             ["analyze-errors", key, response, key, *sidecar]]
    if with_predict:
        argvs.append(["predict", response, *sidecar,
                      "--checkpoint", str(root / "checkpoint.npz"),
                      "--out", str(root / "out.jsonl"),
                      "--conll", str(root / "out.conll")])
    return argvs


@pytest.mark.parametrize("kind", ["conll", "tsv", "jsonl"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_corpus_file_exits_0_or_2(files, kind, data):
    original = (files / f"key.{kind}").read_bytes()
    bad = files / f"bad.{kind}"
    bad.write_bytes(data.draw(mutated(original), label="damaged"))
    for argv in commands(files, kind, bad, data.draw(st.booleans(), label="predict")):
        assert main(argv) in (0, 2), argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_config_loads_or_is_config_error(files, data):
    """A configuration that loads is one the train command accepts; any
    other is a ConfigError, which the command ends with exit 2."""
    bad = files / "bad.ini"
    bad.write_bytes(data.draw(mutated((files / "config.ini").read_bytes()),
                              label="damaged"))
    try:
        assert isinstance(load_config(bad), TrainConfig)
    except ConfigError:
        pass


@pytest.mark.parametrize("kind", ["conll", "tsv", "jsonl"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_training_on_a_damaged_corpus_exits_0_or_2(files, kind, data):
    """`train` for one step of a tiny model on a damaged corpus file, or on
    the key with a damaged sidecar."""
    original = (files / f"key.{kind}").read_bytes()
    bad = files / f"bad.{kind}"
    bad.write_bytes(data.draw(mutated(original), label="damaged"))
    corpus = ([str(files / "key.conll"), "--sidecar", str(bad)] if kind == "tsv"
              else [str(bad)])
    argv = ["train", *corpus, "--config", str(files / "train.ini"),
            "--out", str(files / "run")]
    assert main(argv) in (0, 2), argv
