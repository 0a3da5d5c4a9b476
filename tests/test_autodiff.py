"""The autodiff engine against finite differences and hand results."""

import inspect
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from corefmtl import autodiff as ad
from corefmtl.autodiff import ParameterStore, Tensor
from corefmtl.encoder import EncoderConfig
from corefmtl.mtl import PRESET_WEIGHTS
from corefmtl.optim import AdamOptimizer, clip_global_norm
from corefmtl.synthetic import generate_corpus
from corefmtl.training import TrainConfig, train


def finite_diff(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn()
        flat[i] = orig - eps
        down = fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def check_unary(op, shape=(3, 4), seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    x = Tensor(data.copy(), requires_grad=True)

    def value():
        return float(op(x).sum().item())

    out = op(x).sum()
    out.backward()
    npt.assert_allclose(x.grad, finite_diff(value, x.data), rtol=1e-6, atol=1e-8)


class TestElementwise:
    def test_exp_log_tanh_relu(self):
        check_unary(ad.exp)
        check_unary(ad.tanh)
        # keep values away from the relu kink
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 3))
        data[np.abs(data) < 0.05] += 0.2
        x = Tensor(data, requires_grad=True)
        out = ad.dense(x, None, None).sum()
        out.backward()
        npt.assert_allclose(x.grad, (data > 0).astype(float))

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (a * b + b).sum()
        out.backward()

        def value():
            return float(((a.data * b.data) + b.data).sum())

        npt.assert_allclose(b.grad, finite_diff(value, b.data), rtol=1e-6, atol=1e-9)
        npt.assert_allclose(a.grad, np.broadcast_to(b.data, (4, 3)))


class TestMatmulEinsum:
    def test_matmul_grads(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2))
        (ad.matmul(a, b) * Tensor(w)).sum().backward()
        npt.assert_allclose(a.grad, w @ b.data.T)
        npt.assert_allclose(b.grad, a.data.T @ w)

    def test_matmul_skips_constant_operand(self):
        # the (500, 500) gradient of the constant would be 2 MB; the
        # backward pass must not build it
        rng = np.random.default_rng(4)
        window = ad.constant(rng.normal(size=(500, 500)))
        x = Tensor(rng.normal(size=(500, 2)), requires_grad=True)
        out = ad.matmul(window, x).sum()
        tracemalloc.start()
        try:
            out.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert window.grad is None
        npt.assert_allclose(x.grad, window.data.T @ np.ones((500, 2)))
        assert peak < 500 * 500 * 8 // 2

    def test_einsum_attention_shape(self):
        # span_attend is the einsum "sw,swd->sd" over a gathered grid,
        # without building the gather
        rng = np.random.default_rng(5)
        alpha = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        toks = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        grid = np.array([[0, 1, 2], [1, 2, 3], [2, 2, 2], [3, 3, 3], [0, 0, 1], [1, 3, 0]])
        out = ad.span_attend(alpha, toks, grid)
        assert out.shape == (6, 5)
        w = rng.normal(size=(6, 5))
        (out * Tensor(w)).sum().backward()

        def value():
            return float((np.einsum("sw,swd->sd", alpha.data, toks.data[grid]) * w).sum())

        npt.assert_allclose(out.data, np.einsum("sw,swd->sd", alpha.data, toks.data[grid]),
                            rtol=1e-12, atol=1e-12)
        npt.assert_allclose(alpha.grad, finite_diff(value, alpha.data),
                            rtol=1e-6, atol=1e-9)
        npt.assert_allclose(toks.grad, finite_diff(value, toks.data),
                            rtol=1e-6, atol=1e-9)


class TestGatherScatter:
    def test_take_rows_repeats_accumulate(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ad.take_rows(x, [0, 0, 2])
        out.sum().backward()
        npt.assert_allclose(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_take_rows_2d_index(self):
        x = Tensor(np.arange(8.0), requires_grad=True)
        idx = np.array([[0, 1], [1, 7]])
        out = ad.take_rows(x, idx)
        npt.assert_allclose(out.data, [[0, 1], [1, 7]])
        out.sum().backward()
        expected = np.zeros(8)
        expected[0] = 1
        expected[1] = 2
        expected[7] = 1
        npt.assert_allclose(x.grad, expected)

    def test_scatter2d(self):
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = ad.scatter2d(v, [0, 1, 1], [1, 0, 2], np.full((2, 3), -np.inf))
        expected = np.full((2, 3), -np.inf)
        expected[0, 1], expected[1, 0], expected[1, 2] = 1, 2, 3
        npt.assert_allclose(out.data, expected)
        g = np.zeros((2, 3))
        g[0, 1], g[1, 0], g[1, 2] = 5, 7, 9
        out.backward(seed=g)
        npt.assert_allclose(v.grad, [5, 7, 9])


def max_rel_err(analytic, numeric, floor=1e-3):
    """The gradient check's error measure: |a - n| / max(|a|, |n|, floor)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


def pair_inputs(g, rows, ants, tables):
    """The (P, 3g+3f) pair input that pair_input_layer never builds."""
    return np.concatenate([g[rows], g[ants], g[rows] * g[ants]]
                          + [t[idx] for t, idx in tables], axis=1)


class TestFusedLayers:
    @pytest.mark.parametrize("grid", [
        np.array([[0], [1], [2], [3], [3]]),   # width-1 spans
        np.array([[1, 2, 3]]),                 # a single-span document
    ], ids=["width1", "single_span"])
    def test_span_attend_finite_differences(self, grid):
        rng = np.random.default_rng(7)
        alpha = Tensor(rng.normal(size=grid.shape), requires_grad=True)
        emb = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = rng.normal(size=(grid.shape[0], 3))
        (ad.span_attend(alpha, emb, grid) * Tensor(w)).sum().backward()

        def value():
            return float((np.einsum("sw,swd->sd", alpha.data, emb.data[grid]) * w).sum())

        for t in (alpha, emb):
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @pytest.mark.parametrize("num_spans,rows,ants", [
        (4, [1, 1, 2, 2, 2, 3, 3, 3], [0, 0, 1, 0, 1, 2, 0, 2]),  # repeated pairs
        (1, [], []),                                           # one span, no pairs
    ], ids=["repeated", "zero_pairs"])
    def test_pair_input_layer_finite_differences(self, num_spans, rows, ants):
        rng = np.random.default_rng(8)
        dim, hidden = 3, 4
        rows = np.array(rows, dtype=np.intp)
        ants = np.array(ants, dtype=np.intp)
        g = Tensor(rng.normal(size=(num_spans, dim)), requires_grad=True)
        tables = [(Tensor(rng.normal(size=(n, f)), requires_grad=True),
                   rng.integers(0, n, len(rows))) for n, f in ((5, 2), (2, 3))]
        w0 = Tensor(rng.normal(size=(3 * dim + 5, hidden)), requires_grad=True)
        b0 = Tensor(rng.normal(size=(hidden,)), requires_grad=True)
        out = ad.pair_input_layer(g, w0, b0, rows, ants, tables)

        def reference():
            x = pair_inputs(g.data, rows, ants, [(t.data, idx) for t, idx in tables])
            return x @ w0.data + b0.data

        assert out.shape == (len(rows), hidden)
        npt.assert_allclose(out.data, reference(), rtol=1e-12, atol=1e-12)
        w = rng.normal(size=out.shape)
        (out * Tensor(w)).sum().backward()

        def value():
            return float((reference() * w).sum())

        for t in [g, w0, b0] + [t for t, _ in tables]:
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    def test_pair_input_layer_checks_w0_rows(self):
        g = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="w0 has 10 rows"):
            ad.pair_input_layer(g, Tensor(np.ones((10, 4))), Tensor(np.zeros(4)),
                                [1], [0], [])


def assert_bits_equal(got, want):
    """Same shape and the same float64 bits, signed zeros included."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDense:
    # "relu" is relu(x @ w + b); in "given_linear", w and b are None and x
    # is the layer's linear output
    FORMS = ["relu", "given_linear"]

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_finite_differences(self, rate, form):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 4)))
        if form == "given_linear":
            x, w, b = Tensor(x.data @ w.data + b.data, requires_grad=True), None, None

        def layer():
            # one fixed mask: every evaluation draws from the same stream
            return ad.dense(x, w, b, rate, ad.named_rng(1, "mask"))

        (layer() * weights).sum().backward()

        def value():
            return float((layer().data * weights.data).sum())

        for t in (x, w, b):
            if t is not None:
                assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_bit_identical_to_the_unfused_layer(self, rate, form):
        """matmul, + bias, relu and a multiply by mask / keep, each in its
        own step, forward and backward."""
        rng = np.random.default_rng(10)
        xv, wv, bv = rng.normal(size=(40, 5)), rng.normal(size=(5, 7)), rng.normal(size=7)
        seed = rng.normal(size=(40, 7))
        seed[::3] = -seed[::3]     # negative gradients at dropped units give -0.0
        z = xv @ wv + bv
        if form == "relu":
            x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv, bv))
        else:
            x, w, b = Tensor(z, requires_grad=True), None, None
        out = ad.dense(x, w, b, rate, ad.named_rng(2, "mask"))
        out.backward(seed=seed)

        h = np.maximum(z, 0.0)
        keep = 1.0 - rate
        mask = np.ones_like(h)
        if rate > 0.0:
            mask = (ad.named_rng(2, "mask").random(h.shape) < keep).astype(np.float64) / keep
        d = seed * mask * (z > 0.0)
        assert_bits_equal(out.data, h * mask)
        if form == "given_linear":
            assert_bits_equal(x.grad, d)
            return
        assert_bits_equal(b.grad, d.sum(axis=0))
        assert_bits_equal(x.grad, d @ wv.T)
        assert_bits_equal(w.grad, xv.T @ d)


class TestReductionsAndLse:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = ad.tensor_sum(x, axis=1)
        assert out.shape == (3,)
        out.backward(seed=np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(x.grad, np.repeat([[1.0], [2.0], [3.0]], 4, axis=1))

    def test_mean(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        ad.tensor_mean(x).backward()
        npt.assert_allclose(x.grad, np.full((2, 5), 0.1))

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 5)) * 10, requires_grad=True)
        out = ad.logsumexp(x, axis=1)
        ref = np.log(np.exp(x.data).sum(axis=1))
        npt.assert_allclose(out.data, ref, rtol=1e-12)
        out.sum().backward()
        soft = np.exp(x.data - ref[:, None])
        npt.assert_allclose(x.grad, soft, rtol=1e-12)

    def test_logsumexp_ignores_neg_inf(self):
        """Padding entries at -inf contribute neither value nor gradient."""
        x = Tensor(np.array([[1.0, -np.inf, 2.0]]), requires_grad=True)
        out = ad.logsumexp(x, axis=1)
        npt.assert_allclose(out.data, np.log(np.exp(1) + np.exp(2)))
        out.sum().backward()
        assert x.grad[0, 1] == 0.0
        assert np.all(np.isfinite(x.grad[0, [0, 2]]))

    def test_logsumexp_all_neg_inf_row(self):
        x = Tensor(np.array([[-np.inf, -np.inf], [0.0, 1.0]]), requires_grad=True)
        out = ad.logsumexp(x, axis=1)
        assert out.data[0] == -np.inf
        # backprop through the finite row only; the empty row must not
        # poison the gradient with nans
        ad.take_rows(out, [1]).sum().backward()
        assert np.all(np.isfinite(x.grad))
        assert np.all(x.grad[0] == 0.0)


class TestGraph:
    def test_diamond_counts_once(self):
        """A node reused along two paths must backprop exactly once."""
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2.0
        out = (y + y).sum()
        out.backward()
        npt.assert_allclose(x.grad, [4.0])

    def test_same_tensor_twice_in_one_op(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        (x * x).sum().backward()
        npt.assert_allclose(x.grad, [10.0])

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ad.concat([a, b], axis=1)
        g = np.arange(10.0).reshape(2, 5)
        out.backward(seed=g)
        npt.assert_allclose(a.grad, g[:, :2])
        npt.assert_allclose(b.grad, g[:, 2:])


class TestGraphRelease:
    def build(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        hidden = ad.dense(x, w, b)
        lse = ad.logsumexp(hidden, axis=1)
        return (x, w, b), (hidden, lse, lse.sum())

    def test_backward_frees_intermediates_and_keeps_leaf_gradients(self):
        leaves, nodes = self.build()
        nodes[-1].backward()
        for t in nodes:
            assert t.grad is None
            assert t._parents == ()
            assert t._backward.__closure__ is None   # no saved arrays
        for t in leaves:
            assert t.grad is not None and t.grad.shape == t.shape

    def test_retain_grad_keeps_an_intermediate_gradient(self):
        (x, w, b), (hidden, lse, loss) = self.build()
        hidden.retain_grad()
        loss.backward()
        soft = np.exp(hidden.data - lse.data[:, None])
        npt.assert_allclose(hidden.grad, soft, rtol=1e-12)
        assert lse.grad is None and b.grad is not None

    def test_second_backward_through_a_freed_graph_raises(self):
        _, (hidden, lse, loss) = self.build()
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        # a second root over the freed nodes gets no silent zero gradient
        with pytest.raises(RuntimeError, match="already freed"):
            (lse * 2.0).sum().backward()


class TestNoGrad:
    def test_outputs_hold_no_tape(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            y = ad.dense(x, x, Tensor(np.ones(2), requires_grad=True))
            z = ad.logsumexp(y, axis=1)
        for t in (y, z):
            assert not t.requires_grad
            assert t._parents == ()
            assert t._backward is None
        # leaves keep their flag, and recording resumes after the block
        assert x.requires_grad
        taped = x * 2.0
        assert taped.requires_grad and taped._parents and taped._backward is not None

    def test_mode_restored_after_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert (x * 2.0).requires_grad
        with ad.no_grad():
            with pytest.raises(RuntimeError):
                with ad.no_grad():
                    raise RuntimeError("nested")
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad


class TestOpCoverage:
    HELPERS = {"no_grad", "stream_seed", "named_rng", "as_tensor", "constant"}

    def test_one_training_step_calls_every_op(self, monkeypatch):
        """The engine carries only the ops the model uses: a step with every
        head, dropout and two hidden layers per FFNN reaches each of them."""
        ops = sorted(name for name, fn in vars(ad).items()
                     if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                     and not name.startswith("_") and name not in self.HELPERS)
        called = set()

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ops:
            monkeypatch.setattr(ad, name, recording(name, getattr(ad, name)))
        cfg = TrainConfig(steps=1, seed=3, eval_every=0,
                          encoder=EncoderConfig(dim=8, vocab_size=64),
                          feature_dim=4, hidden=8, ffnn_depth=2, dropout=0.3,
                          max_span_width=4, top_antecedents=10,
                          task_weights=PRESET_WEIGHTS["sg_ent_infs"])
        train(generate_corpus(2, seed=5), cfg)
        assert "dense" in ops and "tensor_sum" in ops
        assert [name for name in ops if name not in called] == []


class TestParameterStore:
    def test_named_streams_are_order_independent(self):
        """A parameter's init depends only on (seed, name), not creation order."""
        s1 = ParameterStore(9)
        s1.create("a", (3, 3))
        s1.create("b", (3, 3))
        s2 = ParameterStore(9)
        s2.create("b", (3, 3))
        s2.create("extra", (2,))
        s2.create("a", (3, 3))
        npt.assert_array_equal(s1["a"].data, s2["a"].data)
        npt.assert_array_equal(s1["b"].data, s2["b"].data)

    def test_duplicate_name_rejected(self):
        store = ParameterStore(0)
        store.create("x", (2,))
        with pytest.raises(ValueError):
            store.create("x", (2,))

    def test_state_round_trip(self):
        store = ParameterStore(1)
        store.create("w", (2, 2))
        state = store.state()
        store["w"].data[:] = 0.0
        store.load_state(state)
        npt.assert_array_equal(store["w"].data, state["w"])


class TestOptim:
    def test_clip_global_norm(self):
        a = Tensor(np.zeros(3), requires_grad=True, name="a")
        b = Tensor(np.zeros(4), requires_grad=True, name="b")
        a.grad = np.full(3, 3.0)
        b.grad = np.full(4, 4.0)
        norm = clip_global_norm([a, b], 1.0)
        expected = np.sqrt(9 * 3 + 16 * 4)
        npt.assert_allclose(norm, expected)
        joint = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
        npt.assert_allclose(joint, 1.0)

    def test_adam_first_step_size(self):
        """With a constant gradient the first Adam step is about -lr."""
        p = Tensor(np.array([1.0]), requires_grad=True, name="p")
        opt = AdamOptimizer([([p], 0.1, 0.0)])
        p.grad = np.array([0.5])
        opt.step()
        npt.assert_allclose(p.data, [1.0 - 0.1], rtol=1e-6)

    def test_adamw_decouples_decay(self):
        p1 = Tensor(np.array([2.0]), requires_grad=True, name="p")
        opt = AdamOptimizer([([p1], 0.1, 0.5)])
        p1.grad = np.array([0.0])
        opt.step()
        # no gradient: pure decay term, p -= lr * wd * p
        npt.assert_allclose(p1.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_zero_decay_group_is_plain_adam(self):
        decayed = Tensor(np.array([2.0]), requires_grad=True, name="decayed")
        plain = Tensor(np.array([2.0]), requires_grad=True, name="plain")
        opt = AdamOptimizer([([decayed], 0.1, 0.5), ([plain], 0.1, 0.0)])
        decayed.grad = np.array([0.0])
        plain.grad = np.array([0.0])
        opt.step()
        npt.assert_allclose(decayed.data, [2.0 - 0.1 * 0.5 * 2.0])
        npt.assert_array_equal(plain.data, [2.0])

    def test_state_round_trip_resumes_identically(self):
        def run(steps, reload_at=None):
            p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
            opt = AdamOptimizer([([p], 0.05, 0.01)])
            state = None
            for t in range(steps):
                if reload_at is not None and t == reload_at:
                    saved_p = p.data.copy()
                    state = opt.state()
                    p = Tensor(saved_p, requires_grad=True, name="p")
                    opt = AdamOptimizer([([p], 0.05, 0.01)])
                    opt.load_state(state)
                p.grad = np.array([0.3, -0.1]) * (t + 1)
                opt.step()
            return p.data

        npt.assert_array_equal(run(6), run(6, reload_at=3))
