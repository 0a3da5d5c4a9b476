"""The autodiff engine against finite differences and hand results."""

import gc
import inspect
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from corefmtl import autodiff as ad
from corefmtl.autodiff import ParameterStore, Tensor
from corefmtl.encoder import EncoderConfig, create_encoder_params
from corefmtl.mtl import PRESET_WEIGHTS
from corefmtl.optim import BETA1, BETA2, EPS, AdamOptimizer, clip_global_norm
from corefmtl.spans import bucket_index
from corefmtl.synthetic import generate_corpus
from corefmtl.training import TrainConfig, train
from oracles import (ffnn_reference, matmul, pair_input_layer_reference,
                     represent_spans_reference, scatter_rows_reference,
                     window_mix_reference)


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


class TestElementwise:
    def test_relu(self):
        # keep values away from the relu kink
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 3))
        data[np.abs(data) < 0.05] += 0.2
        x = Tensor(data, requires_grad=True)
        # x @ I + 0 is x exactly, so the layer is relu(x)
        out = ad.dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3))).sum()
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


class TestLinearDense:
    """dense(relu=False): an FFNN output layer and the features adapter."""

    def test_bit_equal_to_matmul_plus_bias(self):
        """Value and gradients those of oracles.matmul(x, w) + b, under an
        upstream gradient with signed zeros; rate and rng are not read."""
        rng = np.random.default_rng(4)
        xv, wv, bv = rng.normal(size=(30, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
        seed = rng.normal(size=(30, 6))
        seed[::4] = 0.0
        seed[1::4] = -0.0
        seed[:, 2] = -0.0
        (x, w, b), (x_ref, w_ref, b_ref) = ([Tensor(v, requires_grad=True) for v in (xv, wv, bv)]
                                            for _ in range(2))
        stream = ad.named_rng(5, "mask")
        out = ad.dense(x, w, b, 0.3, stream, relu=False)
        out.backward(seed=seed)
        ref = matmul(x_ref, w_ref) + b_ref
        ref.backward(seed=seed)
        assert_bits_equal(out.data, ref.data)
        for got, want in zip((x, w, b), (x_ref, w_ref, b_ref)):
            assert_bits_equal(got.grad, want.grad)
        assert stream.random() == ad.named_rng(5, "mask").random()

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 4)))
        (ad.dense(x, w, b, relu=False) * weights).sum().backward()

        def value():
            return float((ad.dense(x, w, b, relu=False).data * weights.data).sum())

        for t in (x, w, b):
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    def test_skips_constant_input(self):
        # the (500, 500) gradient of the constant would be 2 MB; the
        # backward pass must not build it
        rng = np.random.default_rng(4)
        window = ad.constant(rng.normal(size=(500, 500)))
        x = Tensor(rng.normal(size=(500, 2)), requires_grad=True)
        out = ad.dense(window, x, Tensor(np.zeros(2)), relu=False).sum()
        tracemalloc.start()
        try:
            out.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert window.grad is None
        npt.assert_allclose(x.grad, window.data.T @ np.ones((500, 2)))
        assert peak < 500 * 500 * 8 // 2


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

    def test_place_blocks(self):
        """Each block's values land at its entries of the array, which the
        node takes over, and the rest keep theirs; backward hands each
        block with a tape its own entries' gradient, and a block without
        one is written but not kept."""
        taped = [Tensor(np.array([1.0, 2.0]), requires_grad=True),
                 Tensor(np.array([3.0]), requires_grad=True)]
        untaped = Tensor(np.array([4.0]))
        blocks = [(taped[0], np.array([0, 1]), np.array([1, 0])),
                  (untaped, np.array([2]), np.array([2])),
                  (taped[1], np.array([1]), np.array([2]))]
        base = np.full((3, 3), -np.inf)
        out = ad.place_blocks(base, iter(blocks))
        assert out.data is base
        expected = np.full((3, 3), -np.inf)
        expected[0, 1], expected[1, 0], expected[2, 2], expected[1, 2] = 1, 2, 4, 3
        npt.assert_array_equal(out.data, expected)
        assert out._parents == tuple(taped)
        g = np.arange(9.0).reshape(3, 3)
        out.backward(seed=g)
        npt.assert_array_equal(taped[0].grad, [g[0, 1], g[1, 0]])
        npt.assert_array_equal(taped[1].grad, [g[1, 2]])
        assert untaped.grad is None
        with ad.no_grad():
            free = ad.place_blocks(np.zeros((1, 2)), iter([(taped[0], [0, 0], [0, 1])]))
        assert not free.requires_grad and free._parents == ()

    @pytest.mark.parametrize("lo,hi", [(0, 4), (2, 5), (1, 3), (4, 4), (0, 0)])
    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier_gradient"])
    def test_slice_rows_is_take_rows_over_a_range(self, lo, hi, earlier):
        """Rows lo .. hi - 1 of five, as a view of the input's data, with
        values and gradients bit-equal to take_rows over the same range:
        the upstream gradient's -0.0 arrives as +0.0 in both, and a
        gradient the input already holds is summed alike. Empty slices
        are included."""
        rng = np.random.default_rng(lo * 7 + hi)
        data = rng.normal(size=(5, 3))
        upstream = rng.normal(size=(hi - lo, 3))
        upstream[::2] = -0.0
        start = rng.normal(size=(5, 3))
        start[1] = -0.0

        def run(take):
            x = Tensor(data.copy(), requires_grad=True)
            x.grad = start.copy() if earlier else None
            out = take(x)
            (out * Tensor(upstream)).sum().backward()
            return x, out

        x, sliced = run(lambda x: ad.slice_rows(x, lo, hi))
        y, taken = run(lambda y: ad.take_rows(y, np.arange(lo, hi)))
        assert hi == lo or np.shares_memory(sliced.data, x.data)
        assert_bits_equal(sliced.data, taken.data)
        assert_bits_equal(x.grad, y.grad)

    def test_slice_rows_over_every_row_is_its_input(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        assert ad.slice_rows(x, 0, 4) is x


def max_rel_err(analytic, numeric, floor=1e-3):
    """The gradient check's error measure: |a - n| / max(|a|, |n|, floor)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


def span_inputs(rng, num_tokens, starts, ends, dim=3, feature_dim=2):
    """(emb, head_score, width_table, starts, ends, buckets) for
    span_representation: leaves that want a gradient, then int arrays."""
    starts, ends = np.array(starts, dtype=np.intp), np.array(ends, dtype=np.intp)
    return (Tensor(rng.normal(size=(num_tokens, dim)), requires_grad=True),
            Tensor(rng.normal(size=(dim, 1)), requires_grad=True),
            Tensor(rng.normal(size=(8, feature_dim)), requires_grad=True),
            starts, ends, bucket_index(ends - starts + 1))


def pair_inputs(g, rows, ants, tables):
    """The (P, 3g+3f) pair input that pair_input_layer never builds."""
    return np.concatenate([g[rows], g[ants], g[rows] * g[ants]]
                          + [t[idx] for t, idx in tables], axis=1)


def pair_layer_inputs(rng, num_spans, rows, ants, dim=3, hidden=4):
    """(g, w0, b0, rows, ants, tables) for pair_input_layer, with two
    feature tables; every tensor is a leaf that wants a gradient."""
    rows = np.array(rows, dtype=np.intp)
    ants = np.array(ants, dtype=np.intp)
    g = Tensor(rng.normal(size=(num_spans, dim)), requires_grad=True)
    tables = [(Tensor(rng.normal(size=(n, f)), requires_grad=True),
               rng.integers(0, n, len(rows))) for n, f in ((5, 2), (2, 3))]
    w0 = Tensor(rng.normal(size=(3 * dim + 5, hidden)), requires_grad=True)
    b0 = Tensor(rng.normal(size=(hidden,)), requires_grad=True)
    return g, w0, b0, rows, ants, tables


def pair_layer(g, w0, b0, rows, ants, tables, later=(), **kw):
    """pair_scorer whose first layer is (w0, b0), followed by the (w, b)
    layers of later, with the projections it is given in the model."""
    projected = ad.pair_projections(g, w0, [t for t, _ in tables])
    return ad.pair_scorer(g, [(w0, b0), *later], rows, ants, tables, projected, **kw)


def identity_layer(width):
    """A linear output layer whose output is its input, bit for bit, when
    that input is >= +0.0 (a relu's): x @ I adds only exact zeros to each
    entry. Its backward hands on an upstream gradient without -0.0
    entries unchanged."""
    return (Tensor(np.eye(width), requires_grad=True),
            Tensor(np.zeros(width), requires_grad=True))


def assert_close(got, want, rtol=1e-12):
    """Same shape, and every entry within rtol of want's largest entry."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


def composed_pair_scorer(g, layers, rows, ants, tables, projected, rate=0.0, rng=None):
    """The graph pair_scorer fuses: the first layer with every gather made
    whole (oracles.pair_input_layer_reference), then one dense node per
    later layer, all drawing from rng in turn, as layers.ffnn does."""
    depth = len(layers) - 1
    (w0, b0), *later = layers
    h = pair_input_layer_reference(g, w0, b0, rows, ants, tables, projected,
                                   relu=depth > 0, rate=rate, rng=rng)
    for layer, (w, b) in enumerate(later, start=1):
        h = ad.dense(h, w, b, relu=layer < depth, rate=rate, rng=rng)
    return h


class TestFusedLayers:
    # (tokens, starts, ends, width): width-1 spans, one span, and spans
    # with repeated starts in a grid wider than the widest of them
    SPANS = {
        "width1": (4, [0, 1, 2, 3, 3], [0, 1, 2, 3, 3], 1),
        "single_span": (4, [1], [3], 3),
        "wide_grid": (6, [0, 0, 2, 2, 5, 1], [2, 0, 4, 3, 5, 4], 6),
    }

    @pytest.mark.parametrize("case", sorted(SPANS))
    def test_span_representation_finite_differences(self, case):
        num_tokens, starts, ends, width = self.SPANS[case]
        rng = np.random.default_rng(7)
        emb, head_score, width_table, starts, ends, buckets = span_inputs(
            rng, num_tokens, starts, ends)
        w = rng.normal(size=(len(starts), 3 * 3 + 2))

        def value():
            with ad.no_grad():
                g, _ = ad.span_representation(ad.SpanRows(
                    emb, head_score, width_table, starts, ends, buckets, width))
            return float((g.data * w).sum())

        g, _ = ad.span_representation(ad.SpanRows(emb, head_score, width_table, starts,
                                                  ends, buckets, width))
        (g * Tensor(w)).sum().backward()
        for t in (emb, head_score, width_table):
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @pytest.mark.parametrize("case", ["random", "width1", "wide_grid", "zero_scores",
                                      "earlier_gradient"])
    def test_span_representation_bit_equal_to_composed_graph(self, case):
        """The node's values and gradients are those of the graph it fuses
        (oracles.represent_spans_reference), bit for bit: spans with
        repeated starts, width-1 spans, a grid wider than the widest span,
        token scores of +0.0 from a head_score of +-0.0 with +-0.0 in the
        upstream gradient, and token embeddings that already hold a
        gradient when the node's terms arrive."""
        rng = np.random.default_rng(11)
        num_tokens = 30
        starts = rng.integers(0, num_tokens - 5, size=200)
        starts[:20] = starts[0]
        ends = starts + rng.integers(0, 5, size=200)
        width = int((ends - starts).max()) + 1
        if case == "width1":
            ends, width = starts, 1
        elif case == "wide_grid":
            width += 4
        inputs = span_inputs(rng, num_tokens, starts, ends)
        upstream = rng.normal(size=(len(starts), 3 * 3 + 2))
        earlier = rng.normal(size=(num_tokens, 3))
        if case == "zero_scores":
            inputs[1].data[:] = [[0.0], [-0.0], [0.0]]
            upstream[rng.random(upstream.shape) < 0.3] = 0.0
            upstream[rng.random(upstream.shape) < 0.3] = -0.0

        def run(represent):
            leaves = [Tensor(t.data.copy(), requires_grad=True) for t in inputs[:3]]
            if case == "earlier_gradient":
                leaves[0].grad = earlier.copy()
            g, alpha = represent(*leaves, *inputs[3:], width)
            (g * Tensor(upstream)).sum().backward()
            return [g.data, np.asarray(getattr(alpha, "data", alpha))] + [
                t.grad for t in leaves]

        for got, want in zip(run(lambda *args: ad.span_representation(ad.SpanRows(*args))),
                             run(represent_spans_reference)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_spans,rows,ants", [
        (4, [1, 1, 2, 2, 2, 3, 3, 3], [0, 0, 1, 0, 1, 2, 0, 2]),  # repeated pairs
        (1, [], []),                                           # one span, no pairs
    ], ids=["repeated", "zero_pairs"])
    def test_pair_input_layer_finite_differences(self, num_spans, rows, ants):
        """The pair scorer's first layer in its linear form: a depth-0
        scorer, whose first layer is its output layer."""
        rng = np.random.default_rng(8)
        g, w0, b0, rows, ants, tables = pair_layer_inputs(rng, num_spans, rows, ants)
        hidden = w0.shape[1]
        out = pair_layer(g, w0, b0, rows, ants, tables)

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

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_pair_input_layer_hidden_finite_differences(self, rate):
        """The first layer as a hidden one (relu, then dropout), under a
        linear output layer: a depth-1 scorer."""
        rng = np.random.default_rng(18)
        g, w0, b0, rows, ants, tables = pair_layer_inputs(
            rng, 4, [1, 1, 2, 2, 2, 3, 3, 3], [0, 0, 1, 0, 1, 2, 0, 2])
        out_layer = (Tensor(rng.normal(size=(w0.shape[1], 2)), requires_grad=True),
                     Tensor(rng.normal(size=(2,)), requires_grad=True))
        weights = rng.normal(size=(len(rows), 2))

        def layer():
            # one fixed mask: every evaluation draws from the same stream
            return pair_layer(g, w0, b0, rows, ants, tables, [out_layer],
                              rate=rate, rng=ad.named_rng(4, "mask"))

        out = layer()
        # finite differences need every unit away from the relu kink
        linear = pair_layer(g, w0, b0, rows, ants, tables)
        assert np.abs(linear.data).min() > 1e-3
        assert 0.0 < np.mean(linear.data > 0.0) < 1.0
        (out * Tensor(weights)).sum().backward()

        def value():
            return float((layer().data * weights).sum())

        for t in [g, w0, b0, *out_layer] + [t for t, _ in tables]:
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_pair_input_layer_is_relu_and_dropout_of_its_linear_form(self, rate):
        """A hidden first layer is relu, then a multiply by mask / keep,
        composed in numpy over the linear form: a depth-1 scorer whose
        output layer is the identity (identity_layer) gives those values,
        and every gradient of its inputs bit-equal to the linear form's."""
        rng = np.random.default_rng(19)
        rows = rng.integers(1, 5, size=10)
        ants = rng.integers(0, rows)
        linear_in = pair_layer_inputs(rng, 5, rows, ants)
        hidden_in = tuple(Tensor(t.data.copy(), requires_grad=True) for t in linear_in[:3])
        hidden_tables = [(Tensor(t.data.copy(), requires_grad=True), idx)
                         for t, idx in linear_in[5]]
        width = linear_in[1].shape[1]
        seed = rng.normal(size=(10, width))
        seed[::3] = -seed[::3]     # negative gradients at dropped units give -0.0

        out = pair_layer(*hidden_in, rows, ants, hidden_tables, [identity_layer(width)],
                         rate=rate, rng=ad.named_rng(5, "mask"))
        out.backward(seed=seed)
        linear = pair_layer(*linear_in)
        z = linear.data
        keep = 1.0 - rate
        mask = np.ones_like(z)
        if rate > 0.0:
            mask = (ad.named_rng(5, "mask").random(z.shape) < keep).astype(np.float64) / keep
        assert_bits_equal(out.data, np.maximum(z, 0.0) * mask)
        linear.backward(seed=seed * mask * (z > 0.0))
        for got, want in zip(list(hidden_in) + [t for t, _ in hidden_tables],
                             list(linear_in[:3]) + [t for t, _ in linear_in[5]]):
            assert_bits_equal(got.grad, want.grad)

    @pytest.mark.parametrize("extra", [-(ad.GATHER_ROWS - 1), -1, 0, 1,
                                       2 * ad.GATHER_ROWS + 5],
                             ids=["one", "chunk-1", "chunk", "chunk+1", "3chunk+5"])
    @pytest.mark.parametrize("relu", [True, False], ids=["relu_dropout", "linear"])
    def test_pair_input_layer_bit_equal_to_whole_gathers(self, extra, relu):
        """The first layer's values are bit-equal to the layer with each
        gather made for every pair at once (oracles.
        pair_input_layer_reference), at pair counts on both sides of
        GATHER_ROWS and its multiples, on unsorted rows, with relu and
        dropout, and in the linear form; its gradients, which the scorer
        sums a tile at a time, agree to 1e-12."""
        num_pairs = ad.GATHER_ROWS + extra
        rng = np.random.default_rng(num_pairs)
        rows = rng.integers(1, 40, size=num_pairs)
        self.assert_pair_layer_bit_equal(rng, 40, rows, rng.integers(0, rows), relu)

    @pytest.mark.parametrize("num_spans,anaphor", [(40, 1), (40, 17), (40, 39), (1, 0)],
                             ids=["second_row", "middle_row", "last_row", "one_span"])
    @pytest.mark.parametrize("relu", [True, False], ids=["relu_dropout", "linear"])
    def test_pair_input_layer_block_of_one_anaphor(self, num_spans, anaphor, relu):
        """A block whose pairs share one anaphor takes its anaphor term
        from a product of two rows of g (or of g's only row), bit-equal to
        the whole product's row: one span past the first, in the middle,
        the last span, and a g of one span."""
        rng = np.random.default_rng(num_spans + anaphor)
        rows = np.full(ad.GATHER_ROWS + 3, anaphor)
        ants = rng.integers(0, max(anaphor, 1), size=len(rows))
        self.assert_pair_layer_bit_equal(rng, num_spans, rows, ants, relu)

    @staticmethod
    def assert_pair_layer_bit_equal(rng, num_spans, rows, ants, relu):
        """The first layer against pair_input_layer_reference, for a g that
        already holds a gradient when the node's term arrives: values bit
        for bit, every gradient to 1e-12. The linear form is a depth-0
        scorer, fed an upstream gradient with signed zeros; the hidden one
        a depth-1 scorer under identity_layer, which hands its upstream
        gradient on unchanged when that has no -0.0."""
        inputs = pair_layer_inputs(rng, num_spans, rows, ants, dim=6, hidden=5)
        upstream = rng.normal(size=(len(rows), 5))
        if not relu:
            upstream[rng.random(upstream.shape) < 0.2] = -0.0
        earlier = rng.normal(size=(num_spans, 6))
        later = [identity_layer(5)] if relu else []

        def run(fused):
            g, w0, b0 = (Tensor(t.data.copy(), requires_grad=True) for t in inputs[:3])
            tables = [(Tensor(t.data.copy(), requires_grad=True), idx)
                      for t, idx in inputs[5]]
            g.grad = earlier.copy()
            projected = ad.pair_projections(g, w0, [t for t, _ in tables])
            kw = dict(rate=0.3, rng=ad.named_rng(6, "mask"))
            if fused:
                out = ad.pair_scorer(g, [(w0, b0), *later], rows, ants, tables,
                                     projected, **kw)
            else:
                out = pair_input_layer_reference(g, w0, b0, rows, ants, tables,
                                                 projected, relu=relu, **kw)
            out.backward(seed=upstream)
            return [out.data, g.grad, w0.grad, b0.grad] + [t.grad for t, _ in tables]

        (got_out, *got), (want_out, *want) = run(True), run(False)
        assert_bits_equal(got_out, want_out)
        for got_grad, want_grad in zip(got, want, strict=True):
            assert_close(got_grad, want_grad)

    def test_pair_input_layer_checks_w0_rows(self):
        g = Tensor(np.ones((2, 3)))
        w0 = Tensor(np.ones((10, 4)))
        with pytest.raises(ValueError, match="w0 has 10 rows"):
            ad.pair_projections(g, w0, [])
        with pytest.raises(ValueError, match="w0 has 10 rows"):
            ad.pair_scorer(g, [(w0, Tensor(np.zeros(4)))], [1], [0], [],
                           [np.ones((2, 4))])


class TestPairScorer:
    PAIRS = pytest.mark.parametrize(
        "num_pairs", [1, ad.GATHER_ROWS - 1, ad.GATHER_ROWS, ad.GATHER_ROWS + 1,
                      2 * ad.GATHER_ROWS + 5],
        ids=["one", "tile-1", "tile", "tile+1", "2tile+5"])

    @staticmethod
    def inputs(rng, num_pairs, depth, num_spans=40, dim=6, hidden=5):
        """(g, layers, rows, ants, tables) of a depth-deep scorer with one
        output: leaves that want a gradient, unsorted rows."""
        rows = rng.integers(1, num_spans, size=num_pairs)
        ants = rng.integers(0, rows)
        g, w0, b0, rows, ants, tables = pair_layer_inputs(rng, num_spans, rows, ants,
                                                         dim=dim, hidden=hidden)
        widths = [hidden] * depth + [1]
        w0 = Tensor(rng.normal(size=(w0.shape[0], widths[0])), requires_grad=True)
        layers = [(w0, Tensor(rng.normal(size=(widths[0],)), requires_grad=True))]
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            layers.append((Tensor(rng.normal(size=(fan_in, fan_out)), requires_grad=True),
                           Tensor(rng.normal(size=(fan_out,)), requires_grad=True)))
        return g, layers, rows, ants, tables

    @PAIRS
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
    def test_matches_the_composed_graph(self, num_pairs, depth, rate):
        """Values and every gradient agree to 1e-12 with the graph the node
        fuses (composed_pair_scorer): the reference first layer and one
        dense node per later layer, all drawing their dropout masks from
        one stream in turn, as layers.ffnn does."""
        rng = np.random.default_rng(1000 * depth + num_pairs)
        inputs = self.inputs(rng, num_pairs, depth)
        upstream = rng.normal(size=(num_pairs, 1))
        earlier = rng.normal(size=inputs[0].shape)

        def run(scorer):
            g = Tensor(inputs[0].data.copy(), requires_grad=True)
            g.grad = earlier.copy()
            layers = [tuple(Tensor(t.data.copy(), requires_grad=True) for t in layer)
                      for layer in inputs[1]]
            tables = [(Tensor(t.data.copy(), requires_grad=True), idx)
                      for t, idx in inputs[4]]
            projected = ad.pair_projections(g, layers[0][0], [t for t, _ in tables])
            out = scorer(g, layers, inputs[2], inputs[3], tables, projected,
                         rate=rate, rng=ad.named_rng(7, "mask"))
            out.backward(seed=upstream)
            return [out.data, g.grad] + [t.grad for layer in layers for t in layer] + [
                t.grad for t, _ in tables]

        for got, want in zip(run(ad.pair_scorer), run(composed_pair_scorer), strict=True):
            assert_close(got, want)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_finite_differences(self, depth):
        """Every input's gradient, with dropout, over more than one tile."""
        rng = np.random.default_rng(30 + depth)
        g, layers, rows, ants, tables = self.inputs(
            rng, ad.GATHER_ROWS + 3, depth, num_spans=6, dim=2, hidden=3)

        def value():
            with ad.no_grad():
                return float(pair_layer(g, *layers[0], rows, ants, tables, layers[1:],
                                        rate=0.3, rng=ad.named_rng(8, "mask")).data.sum())

        out = pair_layer(g, *layers[0], rows, ants, tables, layers[1:],
                         rate=0.3, rng=ad.named_rng(8, "mask"))
        out.sum().backward()
        for t in [g] + [t for layer in layers for t in layer] + [t for t, _ in tables]:
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @PAIRS
    def test_dropout_masks_are_the_unfused_blocks(self, num_pairs):
        """Each hidden layer's generator (_mask_streams), drawn a tile at a
        time, gives the mask layers.ffnn draws for the whole block, bit for
        bit: rng.random((pairs, width)) < keep for each layer in turn."""
        widths = [5, 3, 5]
        rng = ad.named_rng(9, "dropout")
        whole = [rng.random((num_pairs, w)) < 0.7 for w in widths]
        pcg = ad.named_rng(9, "dropout").bit_generator.state["state"]
        streams = ad._mask_streams((pcg["state"], pcg["inc"]), widths, num_pairs)
        for stream, w, want in zip(streams, widths, whole, strict=True):
            tiles = [stream.random((t.stop - t.start, w)) < 0.7
                     for t in ad._tiles(num_pairs)]
            npt.assert_array_equal(np.concatenate(tiles), want)
        assert ad._mask_streams(None, widths, num_pairs) == [None] * 3

    def test_no_grad_builds_no_node(self):
        rng = np.random.default_rng(3)
        g, layers, rows, ants, tables = self.inputs(rng, 20, 2)
        with ad.no_grad():
            out = pair_layer(g, *layers[0], rows, ants, tables, layers[1:])
        assert not out.requires_grad and out._backward is None and out._parents == ()


class TestFfnnNode:
    ROWS = pytest.mark.parametrize(
        "num_rows", [1, ad.GATHER_ROWS - 1, ad.GATHER_ROWS, ad.GATHER_ROWS + 1,
                     2 * ad.GATHER_ROWS + 5],
        ids=["one", "tile-1", "tile", "tile+1", "2tile+5"])

    @staticmethod
    def stack(rng, depth, dim=6, hidden=5, out=2):
        """The (w, b) layers of a depth-deep stack: leaves that want a
        gradient."""
        widths = [dim] + [hidden] * depth + [out]
        return [(Tensor(rng.normal(size=(fan_in, fan_out)), requires_grad=True),
                 Tensor(rng.normal(size=(fan_out,)), requires_grad=True))
                for fan_in, fan_out in zip(widths[:-1], widths[1:])]

    @staticmethod
    def copies(x, stacks):
        """New leaves with the data of x and of every layer of stacks."""
        return (Tensor(x.data.copy(), requires_grad=True),
                [[tuple(Tensor(t.data.copy(), requires_grad=True) for t in layer)
                  for layer in layers] for layers in stacks])

    def run(self, node, x, stacks, upstream, rate, earlier=None, seeds=(7, 8)):
        """node over copies of x and stacks, with one named stream per
        stack, backward from upstream: its output, then every gradient."""
        x, stacks = self.copies(x, stacks)
        x.grad = None if earlier is None else earlier.copy()
        rngs = [ad.named_rng(seed, "mask") for seed in seeds[:len(stacks)]]
        out = node(x, stacks, rate, rngs)
        out.backward(seed=upstream)
        return [out.data, x.grad] + [t.grad for layers in stacks
                                     for layer in layers for t in layer]

    @ROWS
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
    def test_matches_the_composed_dense_chain(self, num_rows, depth, rate):
        """Values and every gradient agree to 1e-12 with the chain of
        dense nodes the node fuses (oracles.ffnn_reference), all drawing
        their masks from one stream in turn, for an x that already holds
        a gradient."""
        rng = np.random.default_rng(100 * depth + num_rows)
        x = Tensor(rng.normal(size=(num_rows, 6)))
        stacks = [self.stack(rng, depth)]
        upstream = rng.normal(size=(num_rows, 2))
        earlier = rng.normal(size=x.shape)
        for got, want in zip(self.run(ad.ffnn_node, x, stacks, upstream, rate, earlier),
                             self.run(ffnn_reference, x, stacks, upstream, rate, earlier),
                             strict=True):
            assert_close(got, want)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_shared_input_equals_separate_nodes(self, depth):
        """Two stacks over one x in one node give the rows of two nodes,
        one per stack, stacked in order: values and every gradient bit
        for bit, x's too, although the node sums both stacks' gradients
        of x into one array."""
        rng = np.random.default_rng(40 + depth)
        num_rows = 2 * ad.GATHER_ROWS + 5
        x = Tensor(rng.normal(size=(num_rows, 6)))
        stacks = [self.stack(rng, depth), self.stack(rng, depth)]
        upstream = rng.normal(size=(2 * num_rows, 2))

        def separate(x, stacks, rate, rngs):
            return ad.concat([ad.ffnn_node(x, [layers], rate, [r])
                              for layers, r in zip(stacks, rngs)])

        for got, want in zip(self.run(ad.ffnn_node, x, stacks, upstream, 0.3),
                             self.run(separate, x, stacks, upstream, 0.3), strict=True):
            assert_bits_equal(got, want)

    @ROWS
    def test_dropout_masks_are_whole_draws(self, num_rows):
        """A hidden layer's mask is that of one draw over all the rows,
        rng.random((rows, hidden)) < keep, although the node draws it a
        tile at a time: under an output layer that is the identity
        (identity_layer), the output is relu(x w0 + b0) * mask / keep, bit
        for bit, and with no rng it is the relu alone."""
        rng = np.random.default_rng(num_rows)
        x = Tensor(rng.normal(size=(num_rows, 6)))
        w0, b0 = self.stack(rng, 0, out=5)[0]
        z = x.data @ w0.data + b0.data
        layers = [(w0, b0), identity_layer(5)]
        with ad.no_grad():
            out = ad.ffnn_node(x, [layers], 0.3, [ad.named_rng(3, "mask")])
            free = ad.ffnn_node(x, [layers], 0.3)
        mask = ad.named_rng(3, "mask").random((num_rows, 5)) < 0.7
        assert_bits_equal(out.data, np.maximum(z, 0.0) * mask * (1.0 / 0.7))
        assert_bits_equal(free.data, np.maximum(z, 0.0))

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_finite_differences(self, depth):
        """Every input's gradient, with dropout, over more than one tile
        and two stacks."""
        rng = np.random.default_rng(50 + depth)
        x = Tensor(rng.normal(size=(ad.GATHER_ROWS + 3, 3)), requires_grad=True)
        stacks = [self.stack(rng, depth, dim=3, hidden=3, out=1) for _ in range(2)]
        weights = rng.normal(size=(2 * x.shape[0], 1))

        def value():
            with ad.no_grad():
                out = ad.ffnn_node(x, stacks, 0.3, [ad.named_rng(9, k) for k in "ab"])
            return float((out.data * weights).sum())

        out = ad.ffnn_node(x, stacks, 0.3, [ad.named_rng(9, k) for k in "ab"])
        (out * Tensor(weights)).sum().backward()
        for t in [x] + [t for layers in stacks for layer in layers for t in layer]:
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    def test_no_grad_builds_no_node(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(20, 6)), requires_grad=True)
        with ad.no_grad():
            out = ad.ffnn_node(x, [self.stack(rng, 2)], 0.3, [ad.named_rng(1, "mask")])
        assert not out.requires_grad and out._backward is None and out._parents == ()


def assert_bits_equal(got, want):
    """Same shape and the same float64 bits, signed zeros included."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDense:
    RATES = pytest.mark.parametrize("rate", [0.0, 0.3], ids=lambda r: f"{r}-relu")

    @RATES
    def test_finite_differences(self, rate):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 4)))

        def layer():
            # one fixed mask: every evaluation draws from the same stream
            return ad.dense(x, w, b, rate, ad.named_rng(1, "mask"))

        (layer() * weights).sum().backward()

        def value():
            return float((layer().data * weights.data).sum())

        for t in (x, w, b):
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @RATES
    def test_bit_identical_to_the_unfused_layer(self, rate):
        """matmul, + bias, relu and a multiply by mask / keep, each in its
        own step, forward and backward."""
        rng = np.random.default_rng(10)
        xv, wv, bv = rng.normal(size=(40, 5)), rng.normal(size=(5, 7)), rng.normal(size=7)
        seed = rng.normal(size=(40, 7))
        seed[::3] = -seed[::3]     # negative gradients at dropped units give -0.0
        z = xv @ wv + bv
        x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv, bv))
        out = ad.dense(x, w, b, rate, ad.named_rng(2, "mask"))
        out.backward(seed=seed)

        h = np.maximum(z, 0.0)
        keep = 1.0 - rate
        mask = np.ones_like(h)
        if rate > 0.0:
            mask = (ad.named_rng(2, "mask").random(h.shape) < keep).astype(np.float64) / keep
        d = seed * mask * (z > 0.0)
        assert_bits_equal(out.data, h * mask)
        assert_bits_equal(b.grad, d.sum(axis=0))
        assert_bits_equal(x.grad, d @ wv.T)
        assert_bits_equal(w.grad, xv.T @ d)


class TestWindowMix:
    # (tokens, window): windows 0, 1 and 2, one wider than the document,
    # and a one-token document
    CASES = pytest.mark.parametrize("num_tokens,window", [
        (9, 0), (9, 1), (9, 2), (5, 7), (1, 1)], ids=["w0", "w1", "w2", "wide", "one"])

    def encoder_inputs(self, num_tokens, window, dim=3, vocab=6):
        """The toy encoder's parameters and token ids, repeats included."""
        store = ParameterStore(num_tokens + window)
        create_encoder_params(store, EncoderConfig(dim=dim, window=window),
                              [str(i) for i in range(vocab)])
        ids = np.random.default_rng(window).integers(0, vocab + 1, size=num_tokens)
        return store, ids

    PARAMS = ("encoder/embedding", "encoder/mix_w", "encoder/mix_b")

    @staticmethod
    def mix_output(mix, store, ids, window):
        return mix(store["encoder/embedding"], ids, store["encoder/mix_w"],
                   store["encoder/mix_b"], window)

    def run(self, mix, store, ids, window, upstream):
        """mix over the embedding table and the token ids; its output and,
        after backward from upstream, the encoder's gradients."""
        store.zero_grad()
        out = self.mix_output(mix, store, ids, window)
        out.backward(upstream)
        return [out.data] + [store[name].grad for name in self.PARAMS]

    @CASES
    def test_bit_equal_to_the_composed_graph(self, num_tokens, window):
        """Values and the embedding, mix_w and mix_b gradients are those
        of the graph the node fuses (oracles.window_mix_reference), bit for
        bit, with signed zeros in the upstream gradient."""
        store, ids = self.encoder_inputs(num_tokens, window)
        rng = np.random.default_rng(num_tokens)
        upstream = rng.normal(size=(num_tokens, 3))
        upstream[rng.random(upstream.shape) < 0.3] = -0.0
        for got, want in zip(self.run(ad.window_mix, store, ids, window, upstream),
                             self.run(window_mix_reference, store, ids, window, upstream),
                             strict=True):
            assert_bits_equal(got, want)

    @CASES
    def test_finite_differences(self, num_tokens, window):
        store, ids = self.encoder_inputs(num_tokens, window)
        weights = np.random.default_rng(23).normal(size=(num_tokens, 3))
        self.run(ad.window_mix, store, ids, window, weights)

        def value():
            with ad.no_grad():
                out = self.mix_output(ad.window_mix, store, ids, window)
            return float((out.data * weights).sum())

        for t in (store[name] for name in self.PARAMS):
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4


class TestSpanRowsNode:
    """ffnn_node over span rows (autodiff.SpanRows): the representations
    of a block of spans, made a tile at a time, under two stacks, as the
    unary scorers run over each block of candidate spans."""

    SPANS = pytest.mark.parametrize(
        "num_spans", [1, ad.GATHER_ROWS - 1, ad.GATHER_ROWS, ad.GATHER_ROWS + 1,
                      2 * ad.GATHER_ROWS + 5],
        ids=["one", "tile-1", "tile", "tile+1", "2tile+5"])

    @staticmethod
    def span_rows(rng, num_spans, num_tokens=40):
        """SpanRows over leaves that want a gradient: spans in start order,
        with repeated starts and width-1 spans, and a grid one column
        wider than the widest span."""
        starts = np.sort(rng.integers(0, num_tokens - 4, size=num_spans))
        ends = starts + rng.integers(0, 4, size=num_spans)
        inputs = span_inputs(rng, num_tokens, starts, ends)
        return ad.SpanRows(*inputs, int((ends - starts).max()) + 2)

    @staticmethod
    def copies(rows, stacks):
        """New leaves with the data of rows' parents and of every layer."""
        emb, head_score, width_table = (Tensor(t.data.copy(), requires_grad=True)
                                        for t in rows.parents)
        return (ad.SpanRows(emb, head_score, width_table, rows.starts, rows.ends,
                            rows.buckets, rows.width),
                [[tuple(Tensor(t.data.copy(), requires_grad=True) for t in layer)
                  for layer in layers] for layers in stacks])

    def run(self, node, rows, stacks, upstream, rate, earlier):
        """node over copies of rows and stacks, one named stream per stack,
        backward from upstream with earlier already in emb's gradient: its
        output, then every gradient."""
        rows, stacks = self.copies(rows, stacks)
        rows.parents[0].grad = earlier.copy()
        out = node(rows, stacks, rate, [ad.named_rng(seed, "mask") for seed in (7, 8)])
        out.backward(seed=upstream)
        return [out.data] + [t.grad for t in rows.parents] + [
            t.grad for layers in stacks for layer in layers for t in layer]

    @SPANS
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
    def test_matches_the_composed_graph(self, num_spans, depth, rate):
        """Values and every gradient agree to 1e-12 with the graph the node
        fuses: the representations made whole by the composed graph
        (oracles.represent_spans_reference), then a chain of dense nodes
        per stack (oracles.ffnn_reference), for token embeddings that
        already hold a gradient."""
        rng = np.random.default_rng(200 + 10 * depth + num_spans)
        rows = self.span_rows(rng, num_spans)
        stacks = [TestFfnnNode.stack(rng, depth, dim=rows.shape[1], out=1)
                  for _ in range(2)]
        upstream = rng.normal(size=(2 * num_spans, 1))
        earlier = rng.normal(size=rows.parents[0].shape)
        for got, want in zip(self.run(ad.ffnn_node, rows, stacks, upstream, rate, earlier),
                             self.run(ffnn_reference, rows, stacks, upstream, rate, earlier),
                             strict=True):
            assert_close(got, want)

    @SPANS
    @pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
    def test_bit_equal_to_the_represented_rows(self, num_spans, rate):
        """Values and every gradient are those of a span_representation
        node followed by an FFNN node over its output, bit for bit: the
        node makes each tile's rows as span_representation makes them,
        and hands its span parents the gradient of every row at once, as
        span_representation's backward takes it."""
        rng = np.random.default_rng(300 + num_spans)
        rows = self.span_rows(rng, num_spans)
        stacks = [TestFfnnNode.stack(rng, 2, dim=rows.shape[1], out=1) for _ in range(2)]
        upstream = rng.normal(size=(2 * num_spans, 1))
        earlier = rng.normal(size=rows.parents[0].shape)

        def represented(x, *args):
            return ad.ffnn_node(ad.span_representation(x)[0], *args)

        for got, want in zip(self.run(ad.ffnn_node, rows, stacks, upstream, rate, earlier),
                             self.run(represented, rows, stacks, upstream, rate, earlier),
                             strict=True):
            assert_bits_equal(got, want)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_finite_differences(self, depth):
        """Every input's gradient, with dropout, over two tiles and two
        stacks."""
        rng = np.random.default_rng(60 + depth)
        rows = self.span_rows(rng, ad.GATHER_ROWS + 3, num_tokens=12)
        stacks = [TestFfnnNode.stack(rng, depth, dim=rows.shape[1], hidden=3, out=1)
                  for _ in range(2)]
        weights = rng.normal(size=(2 * rows.shape[0], 1))

        def value():
            with ad.no_grad():
                out = ad.ffnn_node(rows, stacks, 0.3, [ad.named_rng(9, k) for k in "ab"])
            return float((out.data * weights).sum())

        out = ad.ffnn_node(rows, stacks, 0.3, [ad.named_rng(9, k) for k in "ab"])
        (out * Tensor(weights)).sum().backward()
        for t in list(rows.parents) + [t for layers in stacks for layer in layers
                                       for t in layer]:
            assert max_rel_err(t.grad, finite_diff(value, t.data)) < 1e-4

    @SPANS
    def test_dropout_masks_are_whole_draws(self, num_spans):
        """A hidden layer's mask is that of one draw over the block's
        spans, rng.random((spans, hidden)) < keep, although the node draws
        it a tile at a time: under an output layer that is the identity
        (identity_layer), the output is relu(g w0 + b0) * mask / keep, bit
        for bit, where g is the block's representations made whole."""
        rng = np.random.default_rng(num_spans)
        rows = self.span_rows(rng, num_spans)
        w0, b0 = TestFfnnNode.stack(rng, 0, dim=rows.shape[1], out=5)[0]
        with ad.no_grad():
            g, _ = ad.span_representation(rows)
            out = ad.ffnn_node(rows, [[(w0, b0), identity_layer(5)]], 0.3,
                               [ad.named_rng(3, "mask")])
        z = np.concatenate([g.data[tile] @ w0.data for tile in ad._tiles(num_spans)])
        z += b0.data
        mask = ad.named_rng(3, "mask").random((num_spans, 5)) < 0.7
        assert_bits_equal(out.data, np.maximum(z, 0.0) * mask * (1.0 / 0.7))

    def test_backward_allocates_by_the_block(self):
        """SpanRows.backward makes emb's gradient terms over the block's
        own tokens and sums them into the gradient emb already holds, so
        its memory does not grow with the document: the backward of one
        block of 512 spans over the first 100 tokens rises by less than
        one (8000 x d) array more over 8000 tokens than over 500: by 0.03
        of one, and by 2.8 when each term was a (tokens x d) array summed
        into a new gradient."""
        dim = 32
        rises = []
        for num_tokens in (500, 8000):
            rng = np.random.default_rng(4)
            starts = np.sort(rng.integers(0, 100, size=ad.PAIR_BLOCK))
            ends = np.minimum(starts + rng.integers(0, 6, size=ad.PAIR_BLOCK), 99)
            rows = ad.SpanRows(*span_inputs(rng, num_tokens, starts, ends, dim=dim), 6)
            grad = rng.normal(size=rows.shape)
            rows.backward(grad)   # emb's gradient, which the next sums into
            tracemalloc.start()
            try:
                entry, _ = tracemalloc.get_traced_memory()
                rows.backward(grad)
                rises.append(tracemalloc.get_traced_memory()[1] - entry)
            finally:
                tracemalloc.stop()
        assert rises[1] - rises[0] < 8000 * dim * 8

    def test_no_grad_builds_no_node(self):
        rng = np.random.default_rng(5)
        rows = self.span_rows(rng, 20)
        with ad.no_grad():
            out = ad.ffnn_node(rows, [TestFfnnNode.stack(rng, 2, dim=rows.shape[1])], 0.3,
                               [ad.named_rng(1, "mask")])
        assert not out.requires_grad and out._backward is None and out._parents == ()


class TestScatterRows:
    """_scatter_rows is np.add.at over zeros, bit for bit: the same sums in
    ascending p, whatever the order of the indices."""

    CASES = ["flat", "negative_zeros", "empty_index", "2d_index", "sorted", "unsorted",
             "inf_nan", "1d_values", "empty_row"]

    @pytest.mark.parametrize("case", CASES)
    def test_sums_equal_add_at(self, case):
        rng = np.random.default_rng(23)
        idx_shape = {"empty_index": (0,), "2d_index": (80, 50)}.get(case, (4000,))
        # more than 2 ** 21 elements; with no values, one output row keeps it small
        width = 2 * 2 ** 20 // max(np.prod(idx_shape), 1) + 3
        num_rows = 1 if case == "empty_index" else 50
        idx = rng.integers(0, num_rows, size=idx_shape)
        values = rng.normal(size=idx_shape + (width,))
        if case == "negative_zeros":
            values[rng.random(values.shape) < 0.5] = -0.0
        elif case == "sorted":
            idx.sort()
        elif case == "unsorted":
            # descending, so each row's values come in the reverse of
            # their order in a sorted scatter
            idx[::-1].sort()
        elif case == "inf_nan":
            for special in (np.inf, -np.inf, np.nan):
                values[rng.random(values.shape) < 0.01] = special
        elif case == "1d_values":
            values = values[:, 0]
        elif case == "empty_row":
            idx[idx == 7] = 8
        got = ad._scatter_rows(values, idx, num_rows)
        with np.errstate(invalid="ignore"):     # inf + -inf
            want = scatter_rows_reference(values, idx, num_rows)
        assert_bits_equal(got, want)
        if case == "empty_row":
            assert_bits_equal(got[7], np.zeros(width))

    def test_peak_is_about_the_output(self):
        """Nothing of a pair block's size is built beside the output: a
        (2048 x 212) scatter into 400 rows peaks below twice the output."""
        rng = np.random.default_rng(24)
        values = rng.normal(size=(2048, 212))
        idx = rng.integers(0, 400, size=2048)
        tracemalloc.start()
        try:
            got = ad._scatter_rows(values, idx, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * got.nbytes


class TestReductionsAndLse:
    def test_sum_reduces_every_entry(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = x.sum()
        assert out.shape == () and out.item() == 66.0
        out.backward(seed=np.array(2.0))
        npt.assert_allclose(x.grad, np.full((3, 4), 2.0))

    def test_mean(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        ad.tensor_mean(x).backward()
        npt.assert_allclose(x.grad, np.full((2, 5), 0.1))

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 5)) * 10, requires_grad=True)
        out = ad.logsumexp(x)
        ref = np.log(np.exp(x.data).sum(axis=1))
        npt.assert_allclose(out.data, ref, rtol=1e-12)
        out.sum().backward()
        soft = np.exp(x.data - ref[:, None])
        npt.assert_allclose(x.grad, soft, rtol=1e-12)

    def test_logsumexp_ignores_neg_inf(self):
        """Padding entries at -inf contribute neither value nor gradient."""
        x = Tensor(np.array([[1.0, -np.inf, 2.0]]), requires_grad=True)
        out = ad.logsumexp(x)
        npt.assert_allclose(out.data, np.log(np.exp(1) + np.exp(2)))
        out.sum().backward()
        assert x.grad[0, 1] == 0.0
        assert np.all(np.isfinite(x.grad[0, [0, 2]]))

    def test_logsumexp_all_neg_inf_row(self):
        x = Tensor(np.array([[-np.inf, -np.inf], [0.0, 1.0]]), requires_grad=True)
        out = ad.logsumexp(x)
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
        lse = ad.logsumexp(hidden)
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


class TestGradientSums:
    """A tensor sums a new gradient into its old one in place only when it
    made that array itself. No array is ever written into that an op
    hands to two parents, that retain_grad() keeps, that was assigned to
    .grad or read from it, or that clip_global_norm left there."""

    K = np.array([2.0, 3.0, 4.0])

    @staticmethod
    def loss(terms: list, first: int) -> Tensor:
        """The sum of terms with terms[first] first: the two orders run
        the terms' closures in the two orders."""
        a, b = terms[first], terms[1 - first]
        return a + b

    @pytest.mark.parametrize("first", [0, 1])
    def test_an_array_add_hands_to_both_parents(self, first):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        self.loss([(a + b).sum(), (a * Tensor(self.K)).sum()], first).backward()
        npt.assert_array_equal(b.grad, np.ones(3))
        npt.assert_array_equal(a.grad, 1.0 + self.K)

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_row_sum_into_an_array_add_hands_to_both_parents(self, first):
        """A block that sums into some rows of a gradient (a span block's
        token terms) copies an array it was handed first."""
        def span_sum(emb, rest):
            return ad.span_representation(ad.SpanRows(emb, *rest, 4))[0].sum()

        emb, *rest = span_inputs(np.random.default_rng(6), 10, [2, 3], [4, 6])
        span_sum(emb, rest).backward()
        alone = emb.grad
        emb, *rest = span_inputs(np.random.default_rng(6), 10, [2, 3], [4, 6])
        other = Tensor(np.zeros(emb.shape), requires_grad=True)
        self.loss([(emb + other).sum(), span_sum(emb, rest)], first).backward()
        npt.assert_array_equal(other.grad, np.ones(emb.shape))
        npt.assert_allclose(emb.grad, 1.0 + alone, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_retained_gradient(self, first):
        a = Tensor(np.ones(3), requires_grad=True)
        y = a + Tensor(np.zeros(3))   # hands y's gradient to a as it is
        y.retain_grad()
        self.loss([y.sum(), (a * Tensor(self.K)).sum()], first).backward()
        npt.assert_array_equal(y.grad, np.ones(3))
        npt.assert_array_equal(a.grad, 1.0 + self.K)

    def test_an_array_assigned_to_or_read_from_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            (a * Tensor(self.K)).sum().backward()   # a sums into its own array
        given = np.full(3, 5.0)
        a.grad = given
        (a * Tensor(self.K)).sum().backward()
        npt.assert_array_equal(given, np.full(3, 5.0))
        read = a.grad
        (a * Tensor(self.K)).sum().backward()
        npt.assert_array_equal(read, 5.0 + self.K)
        npt.assert_array_equal(a.grad, 5.0 + 2 * self.K)

    def test_a_clipped_gradient_through_a_later_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            (a * Tensor(self.K)).sum().backward()
        norm = clip_global_norm([a], 1.0)
        assert norm == pytest.approx(2 * np.linalg.norm(self.K))
        clipped = a.grad
        kept = clipped.copy()
        (a * Tensor(self.K)).sum().backward()
        npt.assert_array_equal(clipped, kept)
        npt.assert_array_equal(a.grad, kept + self.K)


class TestNoGrad:
    def test_outputs_hold_no_tape(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            y = ad.dense(x, x, Tensor(np.ones(2), requires_grad=True))
            z = ad.logsumexp(y)
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

    def test_one_training_step_calls_every_op(self, monkeypatch, tmp_path):
        """The engine carries only the ops the model uses: one step of each
        encoder, the toy one and the features adapter, with every head,
        dropout and two hidden layers per FFNN, reaches each of them."""
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
        docs = generate_corpus(2, seed=5)
        path = tmp_path / "features.npz"
        rng = np.random.default_rng(6)
        with open(path, "wb") as fh:
            np.savez(fh, **{d.doc_key: rng.normal(size=(d.num_tokens, 5)) for d in docs})
        for encoder in (EncoderConfig(dim=8, vocab_size=64),
                        EncoderConfig(dim=8, features=str(path))):
            cfg = TrainConfig(steps=1, seed=3, eval_every=0, encoder=encoder,
                              feature_dim=4, hidden=8, ffnn_depth=2, dropout=0.3,
                              max_span_width=4, top_antecedents=10,
                              task_weights=PRESET_WEIGHTS["sg_ent_infs"])
            train(docs, cfg)
        assert "dense" in ops and "ffnn_node" in ops and "tensor_sum" in ops
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
        """A state holds the parameters' arrays themselves, so it keeps its
        values while .data is rebound, as the optimizer and load_state do."""
        store = ParameterStore(1)
        store.create("w", (2, 2))
        want = store["w"].data.copy()
        state = store.state()
        store["w"].data = np.zeros((2, 2))
        store.load_state(state)
        npt.assert_array_equal(store["w"].data, want)


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

    def test_clip_global_norm_frees_each_old_gradient(self):
        """Four 2 MB gradients: the clip holds one scaled copy or one square
        at a time above them, where keeping every old gradient alive until
        the end held all four copies (8 MB). The bits are those of a
        gradient times max_norm / norm, and a skipped tensor keeps None."""
        rng = np.random.default_rng(3)
        tensors = [Tensor(np.zeros(1), requires_grad=True, name=str(i)) for i in range(5)]
        want = [rng.normal(size=250_000) for _ in range(4)]
        gc.collect()
        # traced from before the gradients exist, so freeing them counts
        tracemalloc.start()
        try:
            for t, g in zip(tensors, want):
                t.grad = g.copy()
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            norm = clip_global_norm(tensors, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - entry < 1.5 * want[0].nbytes
        total = 0.0
        for g in want:
            total += float(np.sum(g * g))
        assert norm == np.sqrt(total)
        for t, g in zip(tensors, want):
            assert_bits_equal(t.grad, g * (1.0 / norm))
        assert tensors[4].grad is None

    @staticmethod
    def adam_formula(p, m, v, g, t, lr, weight_decay):
        """One AdamW step on whole arrays, each term a new temporary."""
        bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if weight_decay != 0.0:
            update = update + weight_decay * p
        return p - lr * update, m, v

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_step_is_bit_equal_to_the_formula(self, weight_decay):
        """Three steps on random arrays, whose gradients hold signed zeros
        and are shared by two parameters: the parameters and the moments
        are bit-equal to the whole-array formula (adam_formula), and the
        shared gradient array is left as it was."""
        rng = np.random.default_rng(12)
        start = [rng.normal(size=(40, 7)) for _ in range(2)]
        params = [Tensor(x.copy(), requires_grad=True, name=name)
                  for x, name in zip(start, "ab")]
        opt = AdamOptimizer([(params, 0.05, weight_decay)])
        want = [(x, np.zeros_like(x), np.zeros_like(x)) for x in start]
        for t in range(1, 4):
            g = rng.normal(size=(40, 7))
            g[rng.random(g.shape) < 0.2] = -0.0
            g[rng.random(g.shape) < 0.2] = 0.0
            before = g.copy()
            for p in params:
                p.grad = g
            opt.step()
            assert_bits_equal(g, before)
            want = [self.adam_formula(*w, g, t, 0.05, weight_decay) for w in want]
            for p, (x, m, v) in zip(params, want):
                assert_bits_equal(p.data, x)
                assert_bits_equal(opt.state()["arrays"][f"m/{p.name}"], m)
                assert_bits_equal(opt.state()["arrays"][f"v/{p.name}"], v)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_step_holds_two_parameter_sizes(self, weight_decay):
        """A 2 MB parameter's second step holds at most two more of its
        sizes at its peak than at its start (its parameter, gradient and
        moments): each new moment is one array added into in place, and
        the update is built in one more. Whole temporaries for each term
        held three."""
        rng = np.random.default_rng(13)
        gc.collect()
        # traced from before the arrays exist, so freeing them counts
        tracemalloc.start()
        try:
            p = Tensor(rng.normal(size=250_000), requires_grad=True, name="p")
            opt = AdamOptimizer([([p], 0.01, weight_decay)])
            p.grad = rng.normal(size=250_000)
            opt.step()
            p.grad = rng.normal(size=250_000)
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - entry < 2.5 * p.data.nbytes

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

    def test_step_drops_each_gradient(self):
        """step() drops a parameter's gradient once it has built its
        moments; a parameter without a gradient is skipped."""
        stepped = [Tensor(np.array([1.0, -2.0]), requires_grad=True, name=name)
                   for name in ("a", "b")]
        idle = Tensor(np.array([3.0]), requires_grad=True, name="c")
        opt = AdamOptimizer([(stepped, 0.05, 0.0), ([idle], 0.05, 0.01)])
        for p in stepped:
            p.grad = np.array([0.3, -0.1])
        opt.step()
        assert [p.grad for p in stepped + [idle]] == [None] * 3
        assert sorted(opt.state()["arrays"]) == ["m/a", "m/b", "v/a", "v/b"]

    def test_state_is_not_changed_by_a_later_step(self):
        """state() hands over the moments without a copy; step() rebinds
        them to new arrays, so a state taken before a step keeps its
        values bit for bit."""
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
        opt = AdamOptimizer([([p], 0.05, 0.01)])
        p.grad = np.array([0.3, -0.1])
        opt.step()
        state = opt.state()
        before = {key: arr.copy() for key, arr in state["arrays"].items()}
        p.grad = np.array([-0.7, 0.2])
        opt.step()
        assert state["step_count"] == 1
        assert state["arrays"].keys() == before.keys()
        for key, arr in state["arrays"].items():
            assert arr.tobytes() == before[key].tobytes()
        assert opt.state()["arrays"]["m/p"].tobytes() != before["m/p"].tobytes()
