"""Autodiff core: op semantics, backward mechanics, optimizers."""
import math

import numpy as np
import pytest

from croprank import tensor as T
from croprank.errors import (
    DimMismatch,
    DisconnectedGraph,
    DomainError,
    MissingGrad,
    NonFinite,
    NotScalar,
)
from croprank.tensor import Adam, Tensor


class TestConstruction:
    def test_dims_and_numel(self):
        t = T.tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert t.dims == (2, 3)
        assert t.numel == 6
        assert t.data.size == int(np.prod(t.dims))

    def test_grad_buffer_present_iff_requires_grad(self):
        a = T.tensor([[1.0]], requires_grad=True)
        b = T.tensor([[1.0]])
        assert a.grad is not None and a.grad.shape == a.data.shape
        assert b.grad is None
        # an op output is recorded but holds no buffer, before or after backward
        y = T.mul(a, b)
        assert y.requires_grad and y.grad is None
        T.backward(T.sum_all(y))
        assert y.grad is None and a.grad.tolist() == [[1.0]]

    def test_item_requires_single_element(self):
        assert T.tensor([[3.5]]).item() == 3.5
        with pytest.raises(NotScalar):
            T.tensor([[1.0, 2.0]]).item()

    def test_zeros_and_ones(self):
        assert np.array_equal(T.zeros((2, 2)).data, np.zeros((2, 2)))
        assert np.array_equal(T.ones((1, 3)).data, np.ones((1, 3)))


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = T.constant(rng.uniform(size=(3, 4)))
        eye = T.constant(np.eye(3))
        assert np.array_equal(T.matmul(eye, x).data, x.data)

    def test_hand_oracle(self):
        a = T.constant([[1.0, 2.0], [3.0, 4.0]])
        b = T.constant([[1.0], [1.0]])
        assert np.array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            T.matmul(T.zeros((2, 3)), T.zeros((2, 3)))

    def test_backward_matches_closed_form(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(size=(4, 2)), requires_grad=True)
        T.backward(T.sum_all(T.matmul(a, b)))
        ones = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, ones @ b.data.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ ones, rtol=0, atol=1e-14)


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
            rx, rw, rb = (Tensor(t.data, dtype=dtype, requires_grad=True) for t in (x, w, b))
            ref = T.add(T.matmul(rx, rw), T.matmul(T.ones((m, 1), dtype=dtype), rb))
            T.backward(T.sum_all(T.mul(ref, upstream)))
            assert out.data.dtype == b.grad.dtype == dtype
            for got, want in ((out.data, ref.data), (x.grad, rx.grad), (w.grad, rw.grad)):
                assert got.tobytes() == want.tobytes()
            # the chain sums the bias gradient as ones^T g, in another order than the column sum
            tol = 1e-12 if dtype == np.float64 else 2 * np.finfo(dtype).eps
            np.testing.assert_allclose(b.grad, rb.grad, rtol=tol, atol=tol)

    def test_shape_and_dtype_checks(self):
        x = T.zeros((2, 4))
        with pytest.raises(DimMismatch):
            T.linear(x, T.zeros((3, 2)), T.zeros((1, 2)))
        with pytest.raises(DimMismatch):
            T.linear(x, T.zeros((4, 2)), T.zeros((2, 2)))
        with pytest.raises(DimMismatch):
            T.linear(x, T.zeros((4, 2)), T.zeros((1, 3)))
        with pytest.raises(DimMismatch):
            T.linear(x, T.zeros((4, 2), dtype=np.float32), T.zeros((1, 2)))


class TestSoftmax:
    def test_constant_row_is_uniform(self):
        out = T.softmax_rows(T.constant(np.full((2, 4), 3.7))).data
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_closed_form_row(self):
        out = T.softmax_rows(T.constant([[0.0, math.log(3.0)]])).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = T.constant(rng.normal(scale=20.0, size=(5, 7)))
            sums = T.softmax_rows(x).data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        base = T.softmax_rows(T.constant(x)).data
        shifted = T.softmax_rows(T.constant(x + 123.456)).data
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    def test_nan_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NonFinite):
            T.softmax_rows(T.constant(bad))


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
            T.div(T.ones((1, 1)), T.zeros((1, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            T.add(T.zeros((2, 2)), T.zeros((2, 3)))
        with pytest.raises(DimMismatch):
            T.mul(T.zeros((2, 2)), T.zeros((3, 2)))

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
    def test_transpose(self):
        x = T.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.transpose(x).data, [[1.0, 3.0], [2.0, 4.0]])

    def test_slice_concat_round_trip(self):
        rng = np.random.default_rng(5)
        x = T.constant(rng.uniform(size=(3, 6)))
        parts = [T.slice_cols(x, 0, 2), T.slice_cols(x, 2, 5), T.slice_cols(x, 5, 6)]
        assert np.array_equal(T.concat_cols(parts).data, x.data)

    def test_gather_rows(self):
        x = T.constant([[0.0], [1.0], [2.0]])
        assert np.array_equal(T.gather_rows(x, [2, 0]).data, [[2.0], [0.0]])

    def test_layer_norm_normalizes_rows(self):
        rng = np.random.default_rng(6)
        x = T.constant(rng.uniform(size=(4, 8)))
        out = T.layer_norm(x, T.ones((1, 8)), T.zeros((1, 8))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=1), 1.0, rtol=0, atol=1e-3)

    def test_layer_norm_affine_shape_check(self):
        with pytest.raises(DimMismatch):
            T.layer_norm(T.zeros((2, 4)), T.ones((1, 3)), T.zeros((1, 4)))


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


class TestOptimizers:
    def test_sgd_single_step(self):
        p = Tensor([[1.0]], requires_grad=True)
        p.grad[...] = 1.0
        T.sgd_step([p], 0.1)
        assert p.data[0, 0] == pytest.approx(0.9, abs=1e-15)
        assert np.array_equal(p.grad, [[0.0]])

    def test_sgd_zero_lr_is_identity(self):
        p = Tensor([[1.2345]], requires_grad=True)
        before = p.data.copy()
        p.grad[...] = 7.0
        T.sgd_step([p], 0.0)
        assert np.array_equal(p.data, before)

    def test_sgd_missing_grad(self):
        with pytest.raises(MissingGrad):
            T.sgd_step([T.constant([[1.0]])], 0.1)

    def test_sgd_converges_on_quadratic(self):
        p = Tensor(np.zeros((1, 3)), requires_grad=True)
        target = T.constant(np.full((1, 3), 3.0))
        for _ in range(200):
            diff = T.sub(p, target)
            T.backward(T.sum_all(T.mul(diff, diff)))
            T.sgd_step([p], 0.1)
        assert np.max(np.abs(p.data - 3.0)) < 1e-6

    def test_adam_converges_on_quadratic(self):
        p = Tensor(np.zeros((1, 3)), requires_grad=True)
        target = T.constant(np.full((1, 3), 3.0))
        opt = Adam()
        for _ in range(400):
            diff = T.sub(p, target)
            T.backward(T.sum_all(T.mul(diff, diff)))
            opt.step([p], 0.1)
        assert np.max(np.abs(p.data - 3.0)) < 1e-3

    def test_adam_missing_grad(self):
        with pytest.raises(MissingGrad):
            Adam().step([T.constant([[1.0]])], 0.1)


class TestXavier:
    def test_bounds_and_shape(self):
        rng = np.random.default_rng(8)
        w = T.xavier_uniform(rng, 30, 50)
        bound = math.sqrt(6.0 / 80.0)
        assert w.shape == (30, 50)
        assert np.all(np.abs(w) <= bound)
