"""The toy encoder, and the adapter over token features read from a file."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from corefmtl import autodiff as ad
from corefmtl.autodiff import ParameterStore, Tensor
from corefmtl.cli import main
from corefmtl.config import load_config
from corefmtl.corpus import CorpusError, write_jsonl
from corefmtl.encoder import (
    EncoderConfig,
    FeatureFile,
    build_vocab,
    create_encoder_params,
    encode,
)
from corefmtl.synthetic import generate_corpus
from corefmtl.training import Checkpoint, model_from_checkpoint
from helpers import make_document


def vocab_index(vocab):
    return {tok: i + 1 for i, tok in enumerate(vocab)}


class TestEncoderConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.features == ""  # the toy encoder
        assert cfg.dim == 64

    def test_validation(self):
        with pytest.raises(TypeError, match="kind"):
            EncoderConfig(kind="toy")
        with pytest.raises(ValueError, match="positive"):
            EncoderConfig(dim=0)
        with pytest.raises(ValueError, match="positive"):
            EncoderConfig(window=-1)


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        docs = [make_document([["b", "a", "b", "c", "a", "b"]])]
        assert build_vocab(docs, size=10) == ["b", "a", "c"]
        docs = [make_document([["z", "a"]])]
        assert build_vocab(docs, size=10) == ["a", "z"]  # tie: alphabetical

    def test_size_cap(self):
        docs = [make_document([[f"w{i}" for i in range(30)]])]
        assert len(build_vocab(docs, size=8)) == 8


class TestToyEncoder:
    def setup(self, window=1, seed=7):
        doc = make_document([["the", "cat", "sat"], ["the", "mat", "sat"]])
        cfg = EncoderConfig(dim=5, vocab_size=16, window=window)
        vocab = build_vocab([doc], cfg.vocab_size)
        store = ParameterStore(seed)
        create_encoder_params(store, cfg, vocab)
        return doc, cfg, store, vocab_index(vocab)

    def test_shape_and_range(self):
        doc, cfg, store, vi = self.setup()
        out = encode(doc, cfg, store, vi)
        assert out.shape == (6, 5)
        assert np.all(np.abs(out.data) < 1.0)  # tanh output

    def test_deterministic_given_seed(self):
        doc, cfg, _, vi = self.setup(seed=7)
        first = encode(doc, cfg, self.setup(seed=7)[2], vi).data
        second = encode(doc, cfg, self.setup(seed=7)[2], vi).data
        npt.assert_array_equal(first, second)
        other = encode(doc, cfg, self.setup(seed=8)[2], vi).data
        assert not np.array_equal(first, other)

    def test_context_window_matters(self):
        doc, cfg0, store, vi = self.setup(window=0)
        flat = encode(doc, cfg0, store, vi).data
        cfg2 = EncoderConfig(dim=5, vocab_size=16, window=2)
        windowed = encode(doc, cfg2, store, vi).data
        assert not np.allclose(flat, windowed)

    def test_same_token_same_context_same_output(self):
        doc, cfg, store, vi = self.setup(window=0)
        out = encode(doc, cfg, store, vi).data
        # with no context window, repeated tokens encode identically
        npt.assert_array_equal(out[0], out[3])  # both "the"
        npt.assert_array_equal(out[2], out[5])  # both "sat"

    def test_oov_tokens_share_row_zero(self):
        doc, cfg, store, vi = self.setup(window=0)
        other = make_document([["qqq", "zzz", "qqq"]])
        out = encode(other, cfg, store, vi).data
        npt.assert_array_equal(out[0], out[1])
        npt.assert_array_equal(out[0], out[2])

    def test_differentiable_to_embedding(self):
        doc, cfg, store, vi = self.setup()
        out = encode(doc, cfg, store, vi)
        out.sum().backward()
        for name in ("encoder/embedding", "encoder/mix_w", "encoder/mix_b"):
            assert store[name].grad is not None
            assert np.all(np.isfinite(store[name].grad))

    def test_vocab_index_required(self):
        doc, cfg, store, _ = self.setup()
        with pytest.raises(ValueError, match="vocabulary"):
            encode(doc, cfg, store, None)


def dense_window_average(num_tokens, window):
    """The context matrix by definition: row t averages tokens t-w .. t+w."""
    a = np.zeros((num_tokens, num_tokens))
    for t in range(num_tokens):
        lo, hi = max(0, t - window), min(num_tokens, t + window + 1)
        a[t, lo:hi] = 1.0 / (hi - lo)
    return a


class TestWindowContext:
    @pytest.mark.parametrize("num_tokens,window", [(1, 1), (2, 3), (7, 0), (9, 1), (12, 2)])
    def test_matches_the_dense_definition(self, num_tokens, window):
        """autodiff.window_context, and the context's gradient within
        autodiff.window_mix over emb as its table, looked up in token
        order: with w = [0; I] and b = 0 the mix is tanh(context), so emb's
        gradient is dense.T @ (seed * tanh')."""
        rng = np.random.default_rng(num_tokens)
        emb = Tensor(rng.normal(size=(num_tokens, 3)), requires_grad=True)
        dense = dense_window_average(num_tokens, window)
        ctx = ad.window_context(emb.data, window, np.empty((num_tokens, 3)))
        npt.assert_allclose(ctx, dense @ emb.data, rtol=1e-13, atol=1e-15)
        w = Tensor(np.vstack([np.zeros((3, 3)), np.eye(3)]))
        out = ad.window_mix(emb, np.arange(num_tokens), w, Tensor(np.zeros(3)), window)
        npt.assert_allclose(out.data, np.tanh(dense @ emb.data), rtol=1e-13, atol=1e-15)
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        npt.assert_allclose(emb.grad, dense.T @ (seed * (1.0 - out.data ** 2)),
                            rtol=1e-13, atol=1e-15)

    def test_window_wider_than_the_document(self):
        # shifts past the document add nothing, so they must cost nothing too
        doc = make_document([["a", "b", "c"], ["b", "d"]])
        vocab = build_vocab([doc], 8)
        outputs, grads = [], []
        for window in (4, 10**9):
            cfg = EncoderConfig(dim=3, vocab_size=8, window=window)
            store = ParameterStore(5)
            create_encoder_params(store, cfg, vocab)
            out = encode(doc, cfg, store, vocab_index(vocab))
            out.backward(np.arange(out.data.size, dtype=float).reshape(out.shape))
            outputs.append(out.data)
            grads.append(store["encoder/embedding"].grad)
        npt.assert_array_equal(outputs[0], outputs[1])
        npt.assert_array_equal(grads[0], grads[1])

    def test_long_document_memory_is_linear(self):
        # 20k tokens: a dense T x T context matrix alone would be 3.2 GB
        num_tokens, dim = 20_000, 8
        tokens = [f"w{i % 50}" for i in range(num_tokens)]
        doc = make_document([tokens[i:i + 20] for i in range(0, num_tokens, 20)])
        cfg = EncoderConfig(dim=dim, vocab_size=64, window=2)
        vocab = build_vocab([doc], cfg.vocab_size)
        store = ParameterStore(0)
        create_encoder_params(store, cfg, vocab)
        tracemalloc.start()
        try:
            out = encode(doc, cfg, store, vocab_index(vocab))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (num_tokens, dim)
        row_bytes = num_tokens * dim * 8
        assert peak < 40 * row_bytes   # about 51 MB, against 3.2 GB


def write_features(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def random_features(docs, width, seed=0):
    rng = np.random.default_rng(seed)
    return {doc.doc_key: rng.normal(size=(doc.num_tokens, width)) for doc in docs}


class TestFeatureFile:
    def test_adapter_over_the_file_rows(self, tmp_path):
        doc = make_document([["the", "cat"], ["sat", "."]], doc_key="nw/doc_1")
        feats = np.random.default_rng(1).normal(size=(4, 7)).astype(np.float32)
        write_features(tmp_path / "f.npz", {"nw/doc_1": feats})
        features = FeatureFile(str(tmp_path / "f.npz"))
        cfg = EncoderConfig(dim=5, features=str(tmp_path / "f.npz"))
        store = ParameterStore(0)
        create_encoder_params(store, cfg, [], features)
        assert store.names() == ["encoder/adapt_b", "encoder/adapt_w"]
        assert store["encoder/adapt_w"].shape == (7, 5)
        out = encode(doc, cfg, store, features=features)
        npt.assert_array_equal(out.data, feats.astype(np.float64)
                               @ store["encoder/adapt_w"].data
                               + store["encoder/adapt_b"].data)
        out.sum().backward()
        npt.assert_array_equal(store["encoder/adapt_w"].grad,
                               np.repeat(feats.astype(np.float64).sum(0)[:, None], 5, 1))

    def test_require_names_the_missing_documents(self, tmp_path):
        write_features(tmp_path / "f.npz", {"a": np.zeros((1, 2))})
        features = FeatureFile(str(tmp_path / "f.npz"))
        features.require(["a"])
        with pytest.raises(CorpusError, match=r"f\.npz: no features for document b and 1 more"):
            features.require(["a", "b", "c"])


FEATURES_INI = """\
[encoder]
dim = 6
features = {path}

[model]
hidden = 8
ffnn_depth = 1
feature_dim = 4
max_span_width = 4
top_antecedents = 10

[training]
steps = {steps}
eval_every = 0
seed = 3
"""

WIDTH = 9


@pytest.fixture(scope="module")
def feature_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("features")
    docs = generate_corpus(3, seed=9)
    (root / "train.jsonl").write_text(write_jsonl(docs), encoding="utf-8")
    return root, docs


def train_on_features(root, arrays, steps=3, path=None, argv=()):
    path = path or root / "feats.npz"
    if arrays is not None:
        write_features(path, arrays)
    ini = root / "features.ini"
    ini.write_text(FEATURES_INI.format(path=path, steps=steps), encoding="utf-8")
    return main(["train", str(root / "train.jsonl"), "--config", str(ini),
                 "--out", str(root / "run"), *argv])


class TestFeaturesEndToEnd:
    def test_cli_train_and_predict(self, feature_corpus):
        root, docs = feature_corpus
        assert all("/" in doc.doc_key for doc in docs)
        assert train_on_features(root, random_features(docs, WIDTH), steps=2,
                                 argv=["--dev", str(root / "train.jsonl")]) == 0
        ckpt = Checkpoint.load(root / "run" / "checkpoint.npz")
        assert [name for name in sorted(ckpt.params) if name.startswith("encoder/")] \
            == ["encoder/adapt_b", "encoder/adapt_w"]  # no embedding
        assert ckpt.params["encoder/adapt_w"].shape == (WIDTH, 6)
        assert ckpt.meta["vocab"] == []  # no toy vocabulary to store
        # an older features checkpoint stores one; the model never reads it
        older = Checkpoint(ckpt.params, ckpt.selected, ckpt.opt,
                           {**ckpt.meta, "vocab": build_vocab(docs, 64)})
        for doc in docs:
            npt.assert_array_equal(model_from_checkpoint(older).forward(doc).scores.data,
                                   model_from_checkpoint(ckpt).forward(doc).scores.data)
        assert main(["predict", str(root / "train.jsonl"),
                     "--checkpoint", str(root / "run" / "checkpoint.npz"),
                     "--out", str(root / "preds.jsonl")]) == 0
        assert len((root / "preds.jsonl").read_text().splitlines()) == len(docs)

    def test_config_snapshot_loads_again(self, feature_corpus):
        root, docs = feature_corpus
        assert train_on_features(root, random_features(docs, WIDTH), steps=1) == 0
        snapshot = load_config(root / "run" / "config.ini")
        assert snapshot == load_config(root / "features.ini")
        assert snapshot.encoder.features == str(root / "feats.npz")

    def test_missing_document_fails_before_the_first_step(self, feature_corpus,
                                                          capsys):
        root, docs = feature_corpus
        arrays = random_features(docs, WIDTH)
        del arrays[docs[2].doc_key]
        assert train_on_features(root, arrays, steps=5000) == 2
        assert f"no features for document {docs[2].doc_key}" in capsys.readouterr().err
        assert (root / "run" / "metrics.jsonl").read_text() == ""

    @pytest.mark.parametrize("damage", [
        "absent", "text", "npy", "empty", "no_document", "extra_row",
        "wrong_width", "one_dimensional", "integer", "object", "nan", "inf"])
    def test_malformed_file_is_a_data_error(self, feature_corpus, capsys, damage):
        root, docs = feature_corpus
        path = root / f"{damage}.npz"
        arrays = random_features(docs, WIDTH)
        key = docs[1].doc_key  # not the first array, which sets the width
        n = docs[1].num_tokens
        named = key
        if damage == "absent":
            arrays, named = None, str(path)
        elif damage == "text":
            path.write_text("doc_key,features\n" * 4, encoding="utf-8")
            arrays, named = None, str(path)
        elif damage == "npy":
            with open(path, "wb") as fh:
                np.save(fh, arrays[key])
            arrays, named = None, str(path)
        elif damage == "empty":
            arrays, named = {}, str(path)
        elif damage == "no_document":
            del arrays[key]
        elif damage == "extra_row":
            arrays[key] = np.zeros((n + 1, WIDTH))
        elif damage == "wrong_width":
            arrays[key] = np.zeros((n, WIDTH + 1))
        elif damage == "one_dimensional":
            arrays[key] = np.zeros(n * WIDTH)
        elif damage == "integer":
            arrays[key] = np.zeros((n, WIDTH), dtype=np.int64)
        elif damage == "object":  # numpy will not read it without unpickling
            arrays[key] = np.empty((n, WIDTH), dtype=object)
        else:
            arrays[key][n // 2, 0] = np.nan if damage == "nan" else -np.inf
        assert train_on_features(root, arrays, path=path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
