"""Autodiff core: op semantics, backward mechanics, optimizers."""
import ast
import itertools
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from croprank import dataio, tensor as T
from croprank.assignment import LossWeights, TrainExample, train_step
from croprank.dataio import load_checkpoint, save_checkpoint
from croprank.decoder import ModelConfig, init_state
from croprank.errors import (
    DimMismatch,
    DisconnectedGraph,
    DomainError,
    MissingGrad,
    NonFinite,
    NotScalar,
)
from croprank.geometry import CropBox, ScoredCrop
from croprank.gradcheck import numeric_gradients, toy_config
from croprank.tensor import Adam, Tensor


def _zeros(*shape):
    return T.constant(np.zeros(shape))


class TestConstruction:
    def test_dims_and_numel(self):
        t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert t.dims == (2, 3)
        assert t.numel == 6
        assert t.data.size == int(np.prod(t.dims))

    def test_grad_buffer_present_iff_requires_grad(self):
        a = Tensor([[1.0]], requires_grad=True)
        b = Tensor([[1.0]])
        assert a.grad is not None and a.grad.shape == a.data.shape
        assert b.grad is None
        # an op output is recorded but holds no buffer, before or after backward
        y = T.mul(a, b)
        assert y.requires_grad and y.grad is None
        T.backward(T.sum_all(y))
        assert y.grad is None and a.grad.tolist() == [[1.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_wraps_a_float_array_as_it_is(self, dtype):
        base = np.arange(24, dtype=dtype).reshape(4, 6)
        strided = base[::2, 1::2]
        t = T.constant(strided)
        assert t.data is strided and t.data.strides == strided.strides and np.shares_memory(t.data, base)
        assert not t.requires_grad and t.grad is None

    def test_constant_turns_other_dtypes_into_float64(self):
        ints = np.arange(6).reshape(2, 3)
        t = T.constant(ints)
        assert t.data.dtype == np.float64 and not np.shares_memory(t.data, ints)
        assert t.data.tolist() == ints.tolist()

    def test_item_requires_single_element(self):
        assert Tensor([[3.5]]).item() == 3.5
        with pytest.raises(NotScalar):
            Tensor([[1.0, 2.0]]).item()


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_matmul_plus_repeated_bias_row(self, dtype):
        rng = np.random.default_rng(2)
        for m in (1, 3, 8):
            x, w, b = (Tensor(rng.normal(size=shape), dtype=dtype, requires_grad=True)
                       for shape in ((m, 4), (4, 3), (1, 3)))
            upstream = T.constant(rng.normal(size=(m, 3)).astype(dtype))
            out = T.linear(x, w, b)
            T.backward(T.sum_all(T.mul(out, upstream)))
            # the chain x @ w + ones @ b and its backward, on arrays
            g, ones = upstream.data, np.ones((m, 1), dtype=dtype)
            ref = x.data @ w.data + ones @ b.data
            assert out.data.dtype == b.grad.dtype == dtype
            for got, want in ((out.data, ref), (x.grad, g @ w.data.T), (w.grad, x.data.T @ g)):
                assert got.tobytes() == want.tobytes()
            # the chain sums the bias gradient as ones^T g, in another order than the column sum
            tol = 1e-12 if dtype == np.float64 else 2 * np.finfo(dtype).eps
            np.testing.assert_allclose(b.grad, ones.T @ g, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_constant_input_gets_no_adjoint(self, dtype, x_shape):
        rng = np.random.default_rng(3)
        x_data, w_data, b_data = (rng.normal(size=s) for s in (x_shape, (4, 5), (1, 5)))
        upstream = rng.normal(size=x_shape[:-1] + (5,)).astype(dtype)
        grads = []
        for x_needs_grad in (False, True):
            x = Tensor(x_data, dtype=dtype, requires_grad=x_needs_grad)
            w, b = (Tensor(a, dtype=dtype, requires_grad=True) for a in (w_data, b_data))
            out = T.linear(x, w, b)
            gx = out._vjp(upstream)[0]
            assert (gx is None) != x_needs_grad
            loss = T.sum_all(T.mul(out, T.constant(upstream)))
            T.backward(T.sum_batch(loss) if len(x_shape) == 3 else loss)
            grads.append((w.grad.tobytes(), b.grad.tobytes()))
        # the leaf input still gets g w^T
        assert x.grad.tobytes() == (upstream @ w.data.T).tobytes()
        assert grads[0] == grads[1]

    def test_shape_and_dtype_checks(self):
        x = _zeros(2, 4)
        with pytest.raises(DimMismatch):
            T.linear(x, _zeros(3, 2), _zeros(1, 2))
        with pytest.raises(DimMismatch):
            T.linear(x, _zeros(4, 2), _zeros(2, 2))
        with pytest.raises(DimMismatch):
            T.linear(x, _zeros(4, 2), _zeros(1, 3))
        with pytest.raises(DimMismatch):
            T.linear(x, T.constant(np.zeros((4, 2), dtype=np.float32)), _zeros(1, 2))

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = T.constant(rng.uniform(size=(3, 4)))
        assert np.array_equal(T.linear(x, T.constant(np.eye(4)), _zeros(1, 4)).data, x.data)

    def test_hand_oracle(self):
        a = T.constant([[1.0, 2.0], [3.0, 4.0]])
        b = T.constant([[1.0], [1.0]])
        assert np.array_equal(T.linear(a, b, T.constant([[0.5]])).data, [[3.5], [7.5]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            T.linear(_zeros(2, 3), _zeros(2, 3), _zeros(1, 3))

    def test_backward_matches_closed_form(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.uniform(size=(1, 2)), requires_grad=True)
        T.backward(T.sum_all(T.linear(x, w, b)))
        ones = np.ones((3, 2))
        np.testing.assert_allclose(x.grad, ones @ w.data.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w.grad, x.data.T @ ones, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])


def _softmax_rows(x):
    """Row softmax of x (m, n) through ``attention``: each row is one batch entry's log_bias.

    The query and keys are zero, so the logits are the bias row itself,
    and the identity values return the weights unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    out = T.attention(_zeros(1, 1), _zeros(n, 1), T.constant(np.eye(n)), 1, x.reshape(m, 1, n))
    return out.data.reshape(m, n)


class TestAttentionSoftmax:
    """The softmax inside ``attention``, seen through a one-head call that returns its weights."""

    def test_constant_row_is_uniform(self):
        np.testing.assert_allclose(_softmax_rows(np.full((2, 4), 3.7)), 0.25, rtol=0, atol=1e-15)

    def test_closed_form_row(self):
        np.testing.assert_allclose(_softmax_rows([[0.0, math.log(3.0)]]), [[0.25, 0.75]], rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sums = _softmax_rows(rng.normal(scale=20.0, size=(5, 7))).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(_softmax_rows(x + 123.456), _softmax_rows(x), rtol=0, atol=1e-12)

    def test_nan_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NonFinite):
            _softmax_rows(bad)


def reference_attention(q, k, v, n_heads, log_bias=None):
    """The per-head loop that ``tensor.attention`` replaced, on arrays: (out, weights, vjp).

    Head i slices its column blocks into fresh arrays, softmaxes its
    scaled (and biased) logits and writes its slice of every result.
    """
    dh, dv = q.shape[-1] // n_heads, v.shape[-1] // n_heads
    c = 1.0 / math.sqrt(dh)
    heads = []
    for i in range(n_heads):
        qh = q[..., i * dh : (i + 1) * dh].copy()
        kt = k[..., i * dh : (i + 1) * dh].swapaxes(-1, -2).copy()
        vh = v[..., i * dv : (i + 1) * dv].copy()
        logits = (qh @ kt) * c
        if log_bias is not None:
            logits = logits + log_bias
        if not np.all(np.isfinite(logits)):
            raise NonFinite("reference_attention: logits contain NaN or infinity")
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        heads.append((qh, kt, vh, e / e.sum(axis=-1, keepdims=True)))
    out = np.concatenate([a @ vh for _, _, vh, a in heads], axis=-1)

    def vjp(g):
        gq, gk, gv = (np.empty(g.shape[:-2] + x.shape[-2:], dtype=x.dtype) for x in (q, k, v))
        for i, (qh, kt, vh, a) in enumerate(heads):
            gh = g[..., i * dv : (i + 1) * dv].copy()
            ga = gh @ vh.swapaxes(-1, -2)
            gs = (ga - (ga * a).sum(axis=-1, keepdims=True)) * a * c
            gq[..., i * dh : (i + 1) * dh] = gs @ kt.swapaxes(-1, -2)
            gk[..., i * dh : (i + 1) * dh] = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
            gv[..., i * dv : (i + 1) * dv] = a.swapaxes(-1, -2) @ gh
        return gq, gk, gv

    return out, [a.copy() for *_, a in heads], vjp


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    # tobytes() reads in C order whatever the layout; a strided result would reach a later product transposed
    assert got.flags.c_contiguous and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


class TestAttention:
    """The head-axis op equals the per-head loop: bytes, dtype, shape and layout."""

    BATCH = 3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_equals_the_per_head_loop(self, n_heads, dtype):
        rng = np.random.default_rng(700 + n_heads)
        for batched, bias in itertools.product(itertools.product((False, True), repeat=3), (None, "row", "rows")):
            m, n, dh, dv = (int(x) for x in rng.integers(1, 12, size=4))
            shapes = ((m, n_heads * dh), (n, n_heads * dh), (n, n_heads * dv))
            q, k, v = (rng.normal(size=(self.BATCH,) * b + s).astype(dtype) for b, s in zip(batched, shapes))
            log_bias = None if bias is None else np.log(
                rng.uniform(0.05, 1.0, size=(1, n) if bias == "row" else (self.BATCH, 1, n))).astype(dtype)
            want, want_weights, want_vjp = reference_attention(q, k, v, n_heads, log_bias)
            weights: list = []
            out = T.attention(*(Tensor(x, dtype=dtype, requires_grad=True) for x in (q, k, v)),
                              n_heads, log_bias, weights)
            # one (H, [B,] m, n) array per call, head i's weights at index i
            assert len(weights) == 1
            for got, ref in zip([out.data, weights[0]], [want, np.stack(want_weights)]):
                _same_array(got, ref)
            # an unbatched output used once per batch entry gets a batched adjoint
            g_shapes = [want.shape] + ([(self.BATCH, *want.shape)] if want.ndim == 2 else [])
            for g_shape in g_shapes:
                g = rng.normal(size=g_shape).astype(dtype)
                got_grads, want_grads = out._vjp(g), want_vjp(g)
                assert len(got_grads) == 3
                for got, ref in zip(got_grads, want_grads):
                    _same_array(got, ref)

    @pytest.mark.parametrize("where", ["query", "bias"])
    def test_non_finite_logit_raises(self, where):
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(self.BATCH, 4, 8)) for _ in range(3))
        log_bias = np.zeros((self.BATCH, 1, 4))
        if where == "query":
            q[1, 2, 5] = np.nan
        else:
            log_bias[2, 0, 1] = -np.inf
        with pytest.raises(NonFinite):
            reference_attention(q, k, v, 2, log_bias)
        with pytest.raises(NonFinite):
            T.attention(T.constant(q), T.constant(k), T.constant(v), 2, log_bias)


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """``layer_norm`` with numpy's ``.mean`` for its four row means: (out, vjp)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv

    def vjp(g):
        gy = g * gain
        mean_gy = gy.mean(axis=-1, keepdims=True)
        mean_gy_xhat = (gy * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gy - mean_gy - xhat * mean_gy_xhat)
        return gx, (g * xhat).sum(axis=-2, keepdims=True), g.sum(axis=-2, keepdims=True)

    return xhat * gain + bias, vjp


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(5, 7), (4, 6, 32), (1, 1), (2, 3, 1)])
    def test_row_means_equal_numpy_mean(self, shape, dtype):
        rng = np.random.default_rng(zlib.crc32(repr((shape, dtype)).encode()))
        for _ in range(20):
            x = (rng.normal(size=shape) * rng.uniform(0.01, 100.0) + rng.normal()).astype(dtype)
            gain, bias = (rng.normal(size=(1, shape[-1])).astype(dtype) for _ in range(2))
            want, want_vjp = reference_layer_norm(x, gain, bias)
            out = T.layer_norm(*(Tensor(a, dtype=dtype, requires_grad=True) for a in (x, gain, bias)))
            assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
            g = rng.normal(size=(2, *shape) if len(shape) == 2 else shape).astype(dtype)
            for got, ref in zip(out._vjp(g), want_vjp(g)):
                assert got.dtype == ref.dtype == dtype and got.tobytes() == ref.tobytes()


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.constant([[0.0]])).data[0, 0] == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = T.sigmoid(T.constant([[-1e4, 1e4]])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.0, 1.0]], rtol=0, atol=1e-12)

    def test_relu_values(self):
        out = T.relu(T.constant([[-2.0, 3.0]])).data
        assert np.array_equal(out, [[0.0, 3.0]])

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor([[0.0]], requires_grad=True)
        T.backward(T.sum_all(T.sigmoid(x)))
        h = 1e-5
        fd = (1.0 / (1.0 + math.exp(-h)) - 1.0 / (1.0 + math.exp(h))) / (2.0 * h)
        assert abs(x.grad[0, 0] - 0.25) < 1e-12
        assert abs(x.grad[0, 0] - fd) < 1e-4

    def test_log_domain(self):
        with pytest.raises(DomainError):
            T.log(T.constant([[0.0]]))
        with pytest.raises(DomainError):
            T.log(T.constant([[-1.0]]))
        assert abs(T.log(T.constant([[math.e]])).data[0, 0] - 1.0) < 1e-15

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.1, 5.0, size=(3, 3))
        out = np.exp(T.log(T.constant(x)).data)
        np.testing.assert_allclose(out, x, rtol=1e-14)

    def test_div_rejects_zero_denominator(self):
        with pytest.raises(DomainError):
            T.div(T.constant([[1.0]]), _zeros(1, 1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            T.add(_zeros(2, 2), _zeros(2, 3))
        with pytest.raises(DimMismatch):
            T.mul(_zeros(2, 2), _zeros(3, 2))

    def test_clamp_and_abs_and_pow(self):
        x = T.constant([[-2.0, 0.5, 9.0]])
        assert np.array_equal(T.clamp(x, 0.0, 1.0).data, [[0.0, 0.5, 1.0]])
        assert np.array_equal(T.absolute(x).data, [[2.0, 0.5, 9.0]])
        assert np.array_equal(T.pow_const(T.constant([[2.0, 3.0]]), 2.0).data, [[4.0, 9.0]])
        with pytest.raises(DomainError):
            T.pow_const(T.constant([[-1.0]]), 0.5)
        with pytest.raises(DomainError):
            T.clamp(x, 1.0, 0.0)

    def test_minimum_maximum(self):
        a = T.constant([[1.0, 5.0]])
        b = T.constant([[2.0, 4.0]])
        assert np.array_equal(T.minimum(a, b).data, [[1.0, 4.0]])
        assert np.array_equal(T.maximum(a, b).data, [[2.0, 5.0]])


class TestStructuralOps:
    def test_slice_cols(self):
        rng = np.random.default_rng(5)
        x = T.constant(rng.uniform(size=(3, 6)))
        for start, stop in ((0, 2), (2, 5), (5, 6)):
            assert np.array_equal(T.slice_cols(x, start, stop).data, x.data[:, start:stop])
        with pytest.raises(DimMismatch):
            T.slice_cols(x, 4, 7)

    def test_gather_rows(self):
        x = T.constant([[0.0], [1.0], [2.0]])
        assert np.array_equal(T.gather_rows(x, [2, 0]).data, [[2.0], [0.0]])

    def test_layer_norm_normalizes_rows(self):
        rng = np.random.default_rng(6)
        x = T.constant(rng.uniform(size=(4, 8)))
        out = T.layer_norm(x, T.constant(np.ones((1, 8))), _zeros(1, 8)).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=1), 1.0, rtol=0, atol=1e-3)

    def test_layer_norm_affine_shape_check(self):
        with pytest.raises(DimMismatch):
            T.layer_norm(_zeros(2, 4), T.constant(np.ones((1, 3))), _zeros(1, 4))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(T.sum_all(w))
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_hand_gradient(self):
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        T.backward(T.sum_all(T.mul(w, w)))
        assert np.array_equal(w.grad, [[2.0, 4.0]])

    def test_not_scalar_rejected(self):
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(NotScalar):
            T.backward(T.mul(w, w))

    def test_disconnected_rejected(self):
        x = T.constant([[1.0]])
        with pytest.raises(DisconnectedGraph):
            T.backward(T.sum_all(T.mul(x, x)))

    def test_accumulation_without_reset(self):
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        T.backward(T.sum_all(T.mul(w, w)))
        T.backward(T.sum_all(T.mul(w, w)))
        assert np.array_equal(w.grad, [[4.0, 8.0]])

    def test_reset_then_backward_equals_single_run(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.uniform(size=(2, 2)), requires_grad=True)

        def run():
            T.backward(T.sum_all(T.mul(T.sigmoid(w), w)))
            g = w.grad.copy()
            w.grad[...] = 0.0
            return g

        assert np.array_equal(run(), run())

    def test_shared_subexpression_accumulates_both_paths(self):
        w = Tensor([[3.0]], requires_grad=True)
        y = T.mul(w, w)
        T.backward(T.sum_all(T.add(y, y)))
        assert np.array_equal(w.grad, [[12.0]])

    def test_no_grad_detaches(self):
        w = Tensor([[1.0]], requires_grad=True)
        with T.no_grad():
            y = T.mul(w, w)
        assert not y.requires_grad
        with pytest.raises(DisconnectedGraph):
            T.backward(T.sum_all(y))


def _grads(leaves):
    return [leaf.grad.tobytes() for leaf in leaves]


def _fresh(arrays, dtype):
    return [Tensor(a, dtype=dtype, requires_grad=True) for a in arrays]


# Each case: leaf shapes, the shape of one item's constant c, the shape of fn's output,
# and fn(leaves, c). The constant is what differs between items; batched, it carries
# the leading axis, so both batched operands and leaves computed once for every item occur.
_BATCH_CASES = {
    "linear": ([(3, 4), (4, 5), (1, 5)], (3, 4), (3, 5), lambda L, c: T.linear(T.sub(L[0], c), L[1], L[2])),
    "linear_once": ([(3, 4), (4, 5), (1, 5)], (3, 5), (3, 5), lambda L, c: T.mul(T.linear(*L), c)),
    "linear_weight": ([(3, 4), (4, 5), (1, 5)], (4, 5), (3, 5), lambda L, c: T.linear(L[0], T.mul(L[1], c), L[2])),
    "linear_bias": ([(3, 4), (4, 5), (1, 5)], (1, 5), (3, 5), lambda L, c: T.linear(L[0], L[1], T.add(L[2], c))),
    "layer_norm": ([(4, 6), (1, 6), (1, 6)], (4, 6), (4, 6), lambda L, c: T.layer_norm(T.add(L[0], c), L[1], L[2])),
    "layer_norm_once": ([(4, 6), (1, 6), (1, 6)], (4, 6), (4, 6), lambda L, c: T.mul(T.layer_norm(*L), c)),
    "attention": ([(3, 4), (5, 4), (5, 4)], (5, 4), (3, 4),
                  lambda L, c: T.attention(L[0], T.add(L[1], c), L[2], 2)),
    "attention_bias": ([(3, 4), (5, 4), (5, 4)], (1, 5), (3, 4),
                       lambda L, c: T.attention(L[0], L[1], L[2], 2, c.data)),
    "attention_once": ([(3, 4), (5, 4), (5, 4)], (3, 4), (3, 4), lambda L, c: T.mul(T.attention(*L, 2), c)),
    "attention_queries": ([(3, 4), (5, 4), (5, 4)], (3, 4), (3, 4),
                          lambda L, c: T.attention(T.mul(L[0], c), L[1], L[2], 2)),
    "attention_values": ([(3, 4), (5, 4), (5, 4)], (5, 4), (3, 4),
                         lambda L, c: T.attention(L[0], L[1], T.sub(L[2], c), 2)),
    "attention_one_head": ([(3, 5), (4, 5), (4, 5)], (3, 5), (3, 5),
                           lambda L, c: T.attention(T.add(L[0], c), L[1], L[2], 1)),
    "sum_cols": ([(3, 4)], (3, 4), (3, 1),
                 lambda L, c: T.add(T.sum_cols(T.mul(L[0], c)), T.sum_cols(T.scale(L[0], 0.5)))),
    "slice_cols": ([(3, 4), (3, 2)], (3, 4), (3, 2), lambda L, c: T.add(T.slice_cols(T.add(L[0], c), 1, 3), L[1])),
    "slice_cols_once": ([(3, 4)], (3, 2), (3, 2), lambda L, c: T.mul(T.slice_cols(L[0], 1, 3), c)),
    "gather_rows": ([(4, 3)], (4, 3), (5, 3), lambda L, c: T.gather_rows(T.add(L[0], c), [3, 0, 3, 1, 3])),
    "gather_rows_once": ([(4, 3)], (5, 3), (5, 3), lambda L, c: T.mul(T.gather_rows(L[0], [3, 0, 3, 1, 3]), c)),
    "elementwise": ([(3, 4), (3, 4)], (3, 4), (3, 4), lambda L, c: T.div(
        T.add(T.minimum(T.mul(L[0], c), L[1]), T.pow_const(T.absolute(T.maximum(L[1], c)), 1.5)),
        T.add_const(T.sigmoid(T.relu(T.clamp(T.sub(c, L[0]), -0.5, 0.5))), 0.5))),
    "log": ([(3, 4)], (3, 4), (3, 4), lambda L, c: T.log(T.add_const(T.mul(T.sigmoid(L[0]), c), 0.1))),
}


class TestBatchedBackward:
    """A recorded batch's gradients equal a per-item loop's, bit for bit."""

    @staticmethod
    def _per_item(fn, leaves, consts, weights):
        losses = [T.sum_all(T.mul(fn(leaves, T.constant(c)), T.constant(r))) for c, r in zip(consts, weights)]
        total = losses[0]
        for extra in losses[1:]:
            total = T.add(total, extra)
        return total

    @staticmethod
    def _batched(fn, leaves, consts, weights):
        return T.sum_batch(T.sum_all(T.mul(fn(leaves, T.constant(consts)), T.constant(weights))))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", list(_BATCH_CASES))
    def test_batched_backward_equals_per_item_backwards(self, name, dtype):
        shapes, c_shape, out_shape, fn = _BATCH_CASES[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        arrays = [rng.uniform(-1.0, 1.0, size=s) for s in shapes]
        for batch in (1, 6):
            consts = rng.uniform(0.2, 1.0, size=(batch, *c_shape)).astype(dtype)
            weights = rng.uniform(-1.0, 1.0, size=(batch, *out_shape)).astype(dtype)
            items, together = _fresh(arrays, dtype), _fresh(arrays, dtype)
            ref = self._per_item(fn, items, consts, weights)
            loss = self._batched(fn, together, consts, weights)
            assert loss.dims == (1, 1) and loss.data.tobytes() == ref.data.tobytes()
            T.backward(ref)
            T.backward(loss)
            assert _grads(together) == _grads(items)

    def test_leaf_gradient_is_the_image_major_sequential_fold(self):
        # a (1, 1) leaf used twice per item; mul(s, c) reports before mul(s, d)
        def fn(leaves, cd):
            s = leaves[0]
            return T.add(T.mul(s, T.slice_cols(cd, 0, 1)), T.mul(s, T.slice_cols(cd, 1, 2)))

        draws = [np.random.default_rng(seed).standard_normal((20, 1, 2)) for seed in range(20)]
        # terms that a pairwise sum groups differently from a sequential one
        draws.append(np.concatenate([np.ones((20, 1, 1)), np.full((20, 1, 1), 2.0**-53)], axis=2))
        ones = np.ones((20, 1, 1))
        for cd in draws:
            expected = np.zeros((1, 1))
            for b in range(20):
                expected += cd[b, :, :1]
                expected += cd[b, :, 1:]
            together, items = _fresh([[[0.5]]] * 2, np.float64)
            T.backward(self._batched(fn, [together], cd, ones))
            T.backward(self._per_item(fn, [items], cd, ones))
            assert together.grad.tobytes() == expected.tobytes() == items.grad.tobytes()

    def test_mixed_adjoint_shapes_on_one_op_output_raise(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        y = T.scale(w, 2.0)  # computed once, then used both batched and whole
        loss = T.add(T.sum_batch(T.sum_all(T.mul(y, T.constant(np.ones((3, 2, 2)))))), T.sum_all(y))
        with pytest.raises(DimMismatch):
            T.backward(loss)

    def test_sum_batch_and_row_blocks(self):
        x = T.constant(np.arange(12.0).reshape(3, 2, 2))
        assert np.array_equal(T.sum_batch(x).data, x.data[0] + x.data[1] + x.data[2])
        rows = T.constant(np.arange(10.0).reshape(5, 2))
        blocks = T.sum_row_blocks(rows, [2, 0, 3])
        assert blocks.dims == (3, 1, 1)
        assert blocks.data.reshape(-1).tolist() == [6.0, 0.0, 39.0]
        assert T.flatten_batch(x).data.tolist() == x.data.reshape(6, 2).tolist()
        with pytest.raises(DimMismatch):
            T.sum_row_blocks(rows, [2, 2])
        with pytest.raises(DimMismatch):
            T.sum_row_blocks(rows, [6, -1])
        with pytest.raises(DimMismatch):
            T.sum_batch(rows)
        with pytest.raises(DimMismatch):
            T.flatten_batch(rows)


def reference_fold(parts, leaf):
    """Reference: a leaf's terms added one at a time, image-major, as before the one-call fold."""
    stacks = [p if p.ndim > leaf.data.ndim else p[None] for p in parts]
    terms = [s[e] for e in range(max(map(len, stacks))) for s in stacks if e < len(s)]
    total = terms[0].astype(leaf.data.dtype, copy=True)
    for t in terms[1:]:
        total += t
    return total


def _leaf_shapes():
    """Every parameter shape of the desk and toy models, and a grid of small shapes."""
    shapes = {p.data.shape for config in (ModelConfig(), toy_config()) for p in init_state(config).parameters()}
    return sorted(shapes | {(1, 1), (1, 2), (1, 5), (2, 1), (5, 1), (2, 2), (3, 4), (4, 3), (7, 9)})


class TestFold:
    """``_fold`` gives the bytes of the one-term-at-a-time loop on every kind of part list."""

    @staticmethod
    def _draw(rng, shape, dtype, zeros):
        # magnitudes over many binades, so that any other grouping of the terms rounds differently
        x = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, shape)
        if zeros:
            x = np.where(rng.random(shape) < 0.7, np.where(rng.random(shape) < 0.5, -0.0, 0.0), x)
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("zeros", [False, True], ids=["values", "signed_zeros"])
    def test_equals_the_loop_bit_for_bit(self, dtype, zeros):
        rng = np.random.default_rng(29)
        for shape in _leaf_shapes():
            leaf = Tensor(np.zeros(shape), dtype=dtype, requires_grad=True)
            for b in (1, 2, 7, 16):
                batched, other, whole = (self._draw(rng, s, dtype, zeros) for s in ((b, *shape), (3, *shape), shape))
                cases = [
                    [batched],
                    [whole],
                    [batched, whole],
                    [whole, batched],
                    [batched, other],
                    [np.broadcast_to(whole, (b, *shape))],  # strided: the loop's path
                    [batched.astype(np.float64)],  # another dtype: the loop's path
                    [np.full((b, *shape), -0.0, dtype=dtype)],
                ]
                for parts in cases:
                    got, want = T._fold(parts, leaf), reference_fold(parts, leaf)
                    assert got.dtype == want.dtype == dtype and got.shape == shape
                    assert got.tobytes() == want.tobytes(), (shape, b, [p.shape for p in parts])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_desk_step_folds_as_the_loop(self, dtype, monkeypatch):
        rng = np.random.default_rng(31)
        config = ModelConfig()
        crops = (ScoredCrop(box=CropBox(0.5, 0.5, 0.4, 0.4), mos=4.5),
                 ScoredCrop(box=CropBox(0.3, 0.6, 0.3, 0.2), mos=3.0))
        batch = [TrainExample(image=rng.uniform(size=(3, 64, 64)).astype(dtype), prior=None, crops=crops)
                 for _ in range(16)]
        folds = []
        real_fold = T._fold

        def checked_fold(parts, leaf):
            got = real_fold(parts, leaf)
            folds.append(got.tobytes() == reference_fold(parts, leaf).tobytes())
            return got

        monkeypatch.setattr(T, "_fold", checked_fold)
        state = init_state(config, seed=3, dtype=dtype)
        train_step(state, batch, LossWeights(), 1e-3, optimizer=Adam())
        assert len(folds) == len(state.parameters()) and all(folds)


class TestOptimizers:
    def test_sgd_single_step(self):
        p = Tensor([[1.0]], requires_grad=True)
        p.grad[...] = 1.0
        T.sgd_step(p.data, p.grad, 0.1)
        assert p.data[0, 0] == pytest.approx(0.9, abs=1e-15)
        assert np.array_equal(p.grad, [[0.0]])

    def test_sgd_zero_lr_is_identity(self):
        p = Tensor([[1.2345]], requires_grad=True)
        before = p.data.copy()
        p.grad[...] = 7.0
        T.sgd_step(p.data, p.grad, 0.0)
        assert np.array_equal(p.data, before)

    def test_sgd_missing_grad(self):
        c = T.constant([[1.0]])
        with pytest.raises(MissingGrad):
            T.sgd_step(c.data, c.grad, 0.1)

    def test_sgd_converges_on_quadratic(self):
        p = Tensor(np.zeros((1, 3)), requires_grad=True)
        target = T.constant(np.full((1, 3), 3.0))
        for _ in range(200):
            diff = T.sub(p, target)
            T.backward(T.sum_all(T.mul(diff, diff)))
            T.sgd_step(p.data, p.grad, 0.1)
        assert np.max(np.abs(p.data - 3.0)) < 1e-6

    def test_adam_converges_on_quadratic(self):
        p = Tensor(np.zeros((1, 3)), requires_grad=True)
        target = T.constant(np.full((1, 3), 3.0))
        opt = Adam()
        for _ in range(400):
            diff = T.sub(p, target)
            T.backward(T.sum_all(T.mul(diff, diff)))
            opt.step(p.data, p.grad, 0.1)
        assert np.max(np.abs(p.data - 3.0)) < 1e-3

    def test_adam_missing_grad(self):
        c = T.constant([[1.0]])
        with pytest.raises(MissingGrad):
            Adam().step(c.data, c.grad, 0.1)


class ReferenceAdam:
    """Reference: Adam as a per-parameter loop with moments keyed by ``id(p)``, as before flat storage."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps, self.t = beta1, beta2, eps, 0
        self._m, self._v = {}, {}

    def step(self, params, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            m = self._m.setdefault(id(p), np.zeros_like(p.data))
            v = self._v.setdefault(id(p), np.zeros_like(p.data))
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * (p.grad * p.grad)
            mhat = m / (1.0 - b1**self.t)
            vhat = v / (1.0 - b2**self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad[...] = 0.0


class TestFlatAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_the_per_parameter_loop_bit_for_bit(self, dtype):
        flat, looped = init_state(ModelConfig(), seed=3, dtype=dtype), init_state(ModelConfig(), seed=3, dtype=dtype)
        opt, ref = Adam(), ReferenceAdam()
        rng = np.random.default_rng(17)
        for t in range(50):
            # gradients over many magnitudes, with exact zeros and sign changes, and a decayed rate late on
            g = rng.standard_normal(flat.grad.size) * 10.0 ** rng.integers(-8, 3, flat.grad.size)
            g[rng.random(g.size) < 0.1] = 0.0
            flat.grad[...] = g
            looped.grad[...] = g
            lr = 1e-3 if t < 40 else 1e-4
            opt.step(flat.data, flat.grad, lr)
            ref.step(looped.parameters(), lr)
            assert flat.data.tobytes() == looped.data.tobytes()
            assert not flat.grad.any() and not looped.grad.any()
        params = looped.parameters()
        assert opt.m.tobytes() == np.concatenate([ref._m[id(p)].reshape(-1) for p in params]).tobytes()
        assert opt.v.tobytes() == np.concatenate([ref._v[id(p)].reshape(-1) for p in params]).tobytes()
        assert opt.m.dtype == opt.v.dtype == flat.data.dtype == dtype


class TestFlatStorage:
    @staticmethod
    def _assert_views(state):
        flat, grad, at = state.data, state.grad, 0
        assert flat.ndim == grad.ndim == 1 and flat.flags.c_contiguous and grad.flags.c_contiguous
        for p in state.parameters():
            for view, whole in ((p.data, flat), (p.grad, grad)):
                assert view.base is whole and view.flags.c_contiguous and view.dtype == state.dtype
                assert view.ctypes.data == whole.ctypes.data + at * whole.itemsize
            at += p.data.size
        assert at == flat.size == grad.size

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("config", [ModelConfig(), toy_config()], ids=["desk", "toy"])
    def test_every_parameter_is_a_view_in_order(self, config, dtype):
        state = init_state(config, seed=2, dtype=dtype)
        self._assert_views(state)
        state.data[...] = np.arange(state.data.size)
        state.grad[...] = -np.arange(state.grad.size)
        at = 0
        for p in state.parameters():
            assert np.array_equal(p.data.reshape(-1), np.arange(at, at + p.data.size))
            assert np.array_equal(p.grad.reshape(-1), -np.arange(at, at + p.data.size))
            at += p.data.size

    def test_load_checkpoint_writes_into_the_views(self, tmp_path, monkeypatch):
        saved = init_state(toy_config(), seed=4, dtype=np.float32)
        saved.data[...] = np.random.default_rng(4).standard_normal(saved.data.size)
        save_checkpoint(tmp_path / "ck", saved)
        made = []

        def recording_init_state(*args, **kwargs):
            state = init_state(*args, **kwargs)
            made.append((state, [p.data for p in state.parameters()], [p.grad for p in state.parameters()]))
            return state

        monkeypatch.setattr(dataio, "init_state", recording_init_state)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        (state, datas, grads), = made
        assert state is loaded and loaded.data.tobytes() == saved.data.tobytes()
        assert all(p.data is d and p.grad is g for p, d, g in zip(loaded.parameters(), datas, grads))
        self._assert_views(loaded)

    def test_numeric_gradient_puts_the_view_back(self):
        state = init_state(toy_config(), seed=5)
        p = state["score.w"]
        view = p.data
        views = [q.data for q in state.parameters()]

        def loss():
            return T.sum_all(T.mul(p, p))

        grads = numeric_gradients(loss, state.parameters())
        assert np.allclose(grads[state.param_names().index("score.w")], 2.0 * view)
        assert p.data is view and all(q.data is v for q, v in zip(state.parameters(), views))

        def broken():
            raise NonFinite("probe failed")

        with pytest.raises(NonFinite):
            numeric_gradients(broken, state.parameters())
        assert p.data is view and all(q.data is v for q, v in zip(state.parameters(), views))
        self._assert_views(state)


class TestXavier:
    def test_bounds_and_shape(self):
        rng = np.random.default_rng(8)
        w = T.xavier_uniform(rng, 30, 50)
        bound = math.sqrt(6.0 / 80.0)
        assert w.shape == (30, 50)
        assert np.all(np.abs(w) <= bound)


class TestSurface:
    def test_every_public_callable_has_a_caller_in_the_package(self):
        """Each public function and class of ``tensor`` is used by a module other than ``tensor`` and ``gradcheck``.

        A use is ``T.<name>`` or a ``from .tensor import`` of the name.
        """
        package = Path(T.__file__).parent
        module = ast.parse((package / "tensor.py").read_text())
        public = {node.name for node in module.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
        used = set()
        for path in package.glob("*.py"):
            if path.name in ("tensor.py", "gradcheck.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "T":
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                    used.update(alias.name for alias in node.names)
        assert "linear" in public and "linear" in used
        # gradcheck's kink probe is the one caller ``branches`` needs
        assert sorted(public - used - {"branches"}) == []
