"""Toy encoder behavior and pretrained capability handling."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from corefmtl.autodiff import ParameterStore, Tensor
from corefmtl.encoder import (
    CACHE_ENV_VAR,
    EncoderCapabilityError,
    EncoderConfig,
    build_vocab,
    create_encoder_params,
    _window_context,
    encode,
)
from helpers import make_document


def vocab_index(vocab):
    return {tok: i + 1 for i, tok in enumerate(vocab)}


class TestEncoderConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.kind == "toy"
        assert cfg.dim == 64

    def test_validation(self):
        with pytest.raises(ValueError, match="encoder kind"):
            EncoderConfig(kind="bert")
        with pytest.raises(ValueError, match="positive"):
            EncoderConfig(dim=0)


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
        cfg = EncoderConfig(kind="toy", dim=5, vocab_size=16, window=window)
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
        cfg2 = EncoderConfig(kind="toy", dim=5, vocab_size=16, window=2)
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
        rng = np.random.default_rng(num_tokens)
        emb = Tensor(rng.normal(size=(num_tokens, 3)), requires_grad=True)
        ctx = _window_context(emb, window)
        dense = dense_window_average(num_tokens, window)
        npt.assert_allclose(ctx.data, dense @ emb.data, rtol=1e-13, atol=1e-15)
        seed = rng.normal(size=ctx.shape)
        ctx.backward(seed)
        npt.assert_allclose(emb.grad, dense.T @ seed, rtol=1e-13, atol=1e-15)

    def test_long_document_memory_is_linear(self):
        # 20k tokens: a dense T x T context matrix alone would be 3.2 GB
        num_tokens, dim = 20_000, 8
        tokens = [f"w{i % 50}" for i in range(num_tokens)]
        doc = make_document([tokens[i:i + 20] for i in range(0, num_tokens, 20)])
        cfg = EncoderConfig(kind="toy", dim=dim, vocab_size=64, window=2)
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


class TestPretrainedCapability:
    def test_missing_model_name(self):
        cfg = EncoderConfig(kind="pretrained", dim=8)
        with pytest.raises(EncoderCapabilityError, match="toy"):
            create_encoder_params(ParameterStore(0), cfg, [])

    def test_missing_assets_name_cache_var_and_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cfg = EncoderConfig(kind="pretrained", dim=8, model_name="absent-model")
        with pytest.raises(EncoderCapabilityError) as err:
            create_encoder_params(ParameterStore(0), cfg, [])
        message = str(err.value)
        assert CACHE_ENV_VAR in message
        assert "toy" in message
        assert "absent-model" in message

    def test_assets_present_creates_adapter(self, monkeypatch, tmp_path):
        model_dir = tmp_path / "tiny-model"
        model_dir.mkdir()
        (model_dir / "config.json").write_text('{"hidden_size": 12}')
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cfg = EncoderConfig(kind="pretrained", dim=8, model_name="tiny-model")
        store = ParameterStore(0)
        create_encoder_params(store, cfg, [])
        assert store["encoder/adapt_w"].shape == (12, 8)
        assert store["encoder/adapt_b"].shape == (8,)
