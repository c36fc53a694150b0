"""The batched finite-difference probe, the leading batch axis it relies on, and its kink and NaN checks."""
import contextlib
import functools
import zlib

import numpy as np
import pytest

from croprank import tensor as T
from croprank.composition import CompositionPrior
from croprank.decoder import ModelConfig, forward_train, init_state
from croprank.errors import DimMismatch
from croprank.geometry import giou_pairs, l1_pairs
from croprank import gradcheck
from croprank.gradcheck import (
    DEFAULT_STEP,
    DEFAULT_TOL,
    SCENARIOS,
    max_rel_error,
    numeric_gradients,
    run_check,
    toy_config,
)
from croprank.tensor import Tensor


def looped_gradient(loss_fn, param, step=DEFAULT_STEP):
    """Reference probe: two scalar forwards per entry, perturbing param.data in place."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn().item()
            flat[i] = orig - step
            down = loss_fn().item()
            flat[i] = orig
            grad[i] = (up - down) / (2.0 * step)
    return grad.reshape(param.data.shape)


def reference_numeric_gradient(loss_fn, param, step=DEFAULT_STEP):
    """Reference probe: one parameter's stacked rows at a time, 256 rows per loss_fn call."""
    orig = param.data
    k = orig.size
    flat = orig.reshape(-1)
    losses = np.empty(2 * k)
    try:
        with T.no_grad():
            for first in range(0, k, 128):
                entry = np.arange(first, min(first + 128, k))
                row = np.arange(len(entry))
                rows = np.repeat(flat[None, :], 2 * len(entry), axis=0)
                rows[2 * row, entry] = flat[entry] + step
                rows[2 * row + 1, entry] = flat[entry] - step
                param.data = rows.reshape(rows.shape[:1] + orig.shape)
                losses[2 * first : 2 * first + len(rows)] = loss_fn().data.reshape(-1)
    finally:
        param.data = orig
    return ((losses[0::2] - losses[1::2]) / (2.0 * step)).astype(orig.dtype).reshape(orig.shape)


def reference_compare(params, fn, step=DEFAULT_STEP):
    """Reference ``_compare``: the per-parameter probe, each call's rows checked against its first row."""
    T.backward(fn())
    crossed = False

    def probe():
        nonlocal crossed
        taken = []
        with T.branches(taken):
            loss = fn()
        crossed = crossed or any(b.ndim == 3 and bool((b != b[:1]).any()) for b in taken)
        return loss

    worst = 0.0
    for p in params:
        worst = max(worst, max_rel_error(p.grad, reference_numeric_gradient(probe, p, step)))
    return worst, crossed


def _scenario(name, seed):
    return SCENARIOS[name](np.random.default_rng([seed, zlib.crc32(name.encode())]))


def _leaves(*shapes, seed=3):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True) for shape in shapes]


def _weighed_sigmoids(params, seed=5):
    """A loss every param reaches, through its own sigmoid and a fixed weighting."""
    rng = np.random.default_rng(seed)
    weights = [T.constant(rng.uniform(-1.0, 1.0, size=T.matrix_dims(p))) for p in params]
    terms = [T.sum_all(T.mul(T.sigmoid(p), w)) for p, w in zip(params, weights)]
    return functools.reduce(T.add, terms)


class TestNumericGradient:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_per_entry_loop(self, name, seed):
        params, fn = _scenario(name, seed)
        for p, batched in zip(params, numeric_gradients(fn, params), strict=True):
            assert batched.shape == p.data.shape and batched.dtype == p.data.dtype
            np.testing.assert_allclose(batched, looped_gradient(fn, p), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", list(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_parameter_probe(self, name, seed):
        params, fn = _scenario(name, seed)
        for p, batched in zip(params, numeric_gradients(fn, params), strict=True):
            assert batched.tobytes() == reference_numeric_gradient(fn, p).tobytes()

    @pytest.mark.parametrize(
        "name,seed", [(name, seed) for name in SCENARIOS for seed in (0, 1)]
        + [("decoder_forward", 754), ("l1_pairs", 865), ("training_loss", 1220), ("training_loss", 3908)]
    )
    def test_compare_equals_the_per_parameter_compare(self, name, seed):
        worst, crossed = gradcheck._compare(*_scenario(name, seed), DEFAULT_STEP)
        ref_worst, ref_crossed = reference_compare(*_scenario(name, seed))
        assert np.float64(worst).tobytes() == np.float64(ref_worst).tobytes() and crossed == ref_crossed

    def test_parameters_wider_than_one_batch(self):
        # 144 entries give 288 probe rows, more than one loss_fn call takes
        rng = np.random.default_rng(3)
        w = Tensor(rng.uniform(-1.0, 1.0, size=(12, 12)), requires_grad=True)
        x = T.constant(rng.uniform(-1.0, 1.0, size=(5, 12)))
        b = T.constant(rng.uniform(-1.0, 1.0, size=(1, 12)))
        weights = T.constant(rng.uniform(-1.0, 1.0, size=(5, 12)))

        seen = []

        def fn():
            seen.append(w.data.shape)
            return T.sum_all(T.mul(T.sigmoid(T.linear(x, w, b)), weights))

        batched, = numeric_gradients(fn, [w])
        assert seen == [(256, 12, 12), (32, 12, 12)]
        np.testing.assert_allclose(batched, looped_gradient(fn, w), rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "shapes,calls",
        [
            # 100 + 28 entries fill the first call: the boundary falls between the second and third param
            ([(10, 10), (4, 7), (5, 5)], [[(256, 10, 10), (256, 4, 7), (5, 5)], [(10, 10), (4, 7), (50, 5, 5)]]),
            # 100 + 36 entries: the boundary falls inside the second param, whose last 8 entries go on
            ([(10, 10), (6, 6)], [[(256, 10, 10), (256, 6, 6)], [(10, 10), (16, 6, 6)]]),
        ],
    )
    def test_calls_cut_the_rows_of_all_params(self, shapes, calls):
        params = _leaves(*shapes)
        seen = []

        def fn():
            seen.append([p.data.shape for p in params])
            assert all(p.data.flags.c_contiguous for p in params)
            return _weighed_sigmoids(params)

        grads = numeric_gradients(fn, params)
        assert seen == calls
        for p, grad in zip(params, grads, strict=True):
            assert grad.tobytes() == reference_numeric_gradient(lambda: _weighed_sigmoids(params), p).tobytes()
            np.testing.assert_allclose(grad, looped_gradient(lambda: _weighed_sigmoids(params), p), rtol=0, atol=1e-9)

    def test_f32_parameter(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), dtype=np.float32, requires_grad=True)

        def fn():
            return T.sum_all(T.mul(w, w))

        batched, = numeric_gradients(fn, [w], step=1e-2)
        assert batched.dtype == np.float32
        assert batched.tobytes() == looped_gradient(fn, w, step=1e-2).tobytes()
        assert batched.tobytes() == reference_numeric_gradient(fn, w, step=1e-2).tobytes()

    def test_loss_independent_of_the_parameter_gives_zeros(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones((3, 1)), requires_grad=True)
        grad, = numeric_gradients(lambda: T.sum_all(a), [unused])
        assert np.array_equal(grad, np.zeros((3, 1)))

    def test_a_parameter_the_loss_does_not_reach_gets_zeros_among_ones_it_does(self):
        a, unused, b = _leaves((2, 3), (3, 1), (4, 2))
        grads = numeric_gradients(lambda: _weighed_sigmoids([a, b]), [a, unused, b])
        assert np.array_equal(grads[1], np.zeros((3, 1)))
        for p, grad in ((a, grads[0]), (b, grads[2])):
            assert grad.tobytes() == reference_numeric_gradient(lambda: _weighed_sigmoids([a, b]), p).tobytes()
            assert np.all(grad != 0.0)

    def test_param_data_is_restored(self):
        params, fn = _scenario("layer_norm", 0)
        before = [(p.data, p.data.tobytes()) for p in params]
        numeric_gradients(fn, params)
        assert all(p.data is data and p.data.tobytes() == snapshot for p, (data, snapshot) in zip(params, before))

    def test_param_data_is_restored_when_the_loss_raises(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        before, snapshot = p.data, p.data.tobytes()

        def fn():
            assert p.data.shape == (12, 2, 3)
            raise RuntimeError("loss failed")

        with pytest.raises(RuntimeError):
            numeric_gradients(fn, [p])
        assert p.data is before and p.data.tobytes() == snapshot
        assert T.mul(p, p).requires_grad  # recording is back on

    def test_every_param_data_is_restored_when_a_later_call_raises(self):
        params = _leaves((10, 10), (6, 6), (2, 2))
        before = [(p.data, p.data.tobytes()) for p in params]
        calls = []

        def fn():
            calls.append([p.data.ndim for p in params])
            if len(calls) == 2:
                raise RuntimeError("loss failed")
            return _weighed_sigmoids(params)

        with pytest.raises(RuntimeError):
            numeric_gradients(fn, params)
        assert calls == [[3, 3, 2], [2, 3, 3]]
        assert all(p.data is data and p.data.tobytes() == snapshot for p, (data, snapshot) in zip(params, before))
        assert T.mul(params[0], params[0]).requires_grad  # recording is back on


def _batched(shape, batch=3):
    return T.constant(np.random.default_rng(0).uniform(size=(batch, *shape)))


def _zeros(*shape):
    return T.constant(np.zeros(shape))


class TestBatchAxis:
    def test_rank_checked_ops_take_rank_3_and_reject_rank_4_in_both_modes(self):
        x = _batched((3, 4))
        w = Tensor(np.zeros((4, 2)), requires_grad=True)
        rank4 = T.constant(np.zeros((2, 3, 3, 4)))
        boxes4 = T.constant(np.full((2, 3, 3, 4), 0.5))
        ones = T.constant(np.ones((1, 4)))
        for recording in (True, False):
            with contextlib.nullcontext() if recording else T.no_grad():
                assert T.linear(x, w, _zeros(1, 2)).dims == (3, 3, 2)
                assert T.linear(x, w, _zeros(1, 2)).requires_grad == recording
                assert T.add(x, _zeros(3, 4)).dims == (3, 3, 4)
                assert T.linear(_zeros(3, 4), w, _batched((1, 2))).dims == (3, 3, 2)
                assert T.layer_norm(x, ones, _zeros(1, 4)).dims == (3, 3, 4)
                assert T.attention(x, _zeros(5, 4), _zeros(5, 4), 2).dims == (3, 3, 4)
                assert giou_pairs(_batched((3, 4)), _batched((3, 4))).dims == (3, 3, 1)
                for op in (
                    lambda: T.linear(rank4, w, _zeros(1, 2)),
                    lambda: T.add(rank4, _zeros(3, 4)),
                    lambda: T.layer_norm(rank4, ones, _zeros(1, 4)),
                    lambda: T.attention(rank4, _zeros(5, 4), _zeros(5, 4), 2),
                    lambda: T.sum_all(rank4),
                    lambda: T.slice_cols(rank4, 0, 2),
                    lambda: giou_pairs(boxes4, boxes4),
                    lambda: l1_pairs(boxes4, boxes4),
                ):
                    with pytest.raises(DimMismatch):
                        op()

    def test_no_grad_still_checks_trailing_dims_and_rank(self):
        x = _batched((3, 4))
        rank4 = T.constant(np.zeros((2, 3, 3, 4)))
        with T.no_grad():
            with pytest.raises(DimMismatch):
                T.add(x, _zeros(3, 5))
            with pytest.raises(DimMismatch):
                T.add(x, _batched((3, 4), batch=2))
            with pytest.raises(DimMismatch):
                T.layer_norm(x, T.constant(np.ones((1, 5))), _zeros(1, 4))
            with pytest.raises(DimMismatch):
                T.attention(x, _zeros(5, 6), _zeros(5, 4), 2)
            with pytest.raises(DimMismatch):
                T.linear(x, _zeros(5, 2), _zeros(1, 2))
            with pytest.raises(DimMismatch):
                T.linear(x, _zeros(4, 2), _batched((1, 3)))
            with pytest.raises(DimMismatch):
                T.add(rank4, _zeros(3, 4))
            with pytest.raises(DimMismatch):
                T.layer_norm(rank4, T.constant(np.ones((1, 4))), _zeros(1, 4))
            with pytest.raises(DimMismatch):
                T.attention(rank4, _zeros(5, 4), _zeros(5, 4), 2)
            with pytest.raises(DimMismatch):
                T.linear(rank4, _zeros(4, 2), _zeros(1, 2))
            with pytest.raises(DimMismatch):
                T.sum_all(rank4)

    def test_matrix_dims_reads_past_one_leading_axis_in_both_modes(self):
        x = _batched((3, 4))
        rank4 = T.constant(np.zeros((2, 3, 3, 4)))
        for mode in (contextlib.nullcontext(), T.no_grad()):
            with mode:
                assert T.matrix_dims(_zeros(3, 4)) == (3, 4)
                assert T.matrix_dims(x) == (3, 4)
                with pytest.raises(DimMismatch):
                    T.matrix_dims(rank4)
                with pytest.raises(DimMismatch):
                    T.matrix_dims(T.constant(np.zeros(4)))

    def test_differing_batch_sizes_raise(self):
        x, other = _batched((3, 4)), _batched((4, 2), batch=2)
        with pytest.raises(DimMismatch):
            T.linear(x, other, _zeros(1, 2))
        with pytest.raises(DimMismatch):
            T.attention(x, _batched((5, 4), batch=2), _batched((5, 4), batch=2), 2)
        with pytest.raises(DimMismatch):
            T.attention(x, _zeros(5, 4), _zeros(5, 4), 2, np.zeros((2, 1, 5)))

    def test_ops_act_on_each_batch_entry(self):
        x = _batched((3, 4))
        w = T.constant(np.random.default_rng(1).uniform(size=(4, 4)))
        with T.no_grad():
            cases = [
                (T.sum_all(x), T.sum_all),
                (T.gather_rows(x, [2, 0, 2]), lambda e: T.gather_rows(e, [2, 0, 2])),
                (T.slice_cols(x, 2, 4), lambda e: T.slice_cols(e, 2, 4)),
                (T.attention(x, w, w, 2), lambda e: T.attention(e, w, w, 2)),
            ]
            for batched, single in cases:
                for b in range(3):
                    assert batched.data[b].tobytes() == single(T.constant(x.data[b])).data.tobytes()

    def test_linear_acts_on_each_probe_entry(self):
        rng = np.random.default_rng(3)
        x, w, b = (rng.uniform(size=shape) for shape in ((3, 4), (4, 2), (1, 2)))
        # batch one operand at a time, as the probe does with the parameter it perturbs
        for at in range(3):
            probe = [T.constant(a) for a in (x, w, b)]
            probe[at] = _batched(probe[at].dims)
            with T.no_grad():
                batched = T.linear(*probe)
                for e in range(3):
                    single = [T.constant(p.data[e]) if i == at else p for i, p in enumerate(probe)]
                    assert batched.data[e].tobytes() == T.linear(*single).data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "config", [toy_config(), ModelConfig(n_queries=5, n_layers=2, grid_h=4, grid_w=4, image_h=32, image_w=32)]
    )
    def test_forward_train_equals_separate_forwards(self, config, dtype):
        state = init_state(config, seed=9, dtype=dtype)
        rng = np.random.default_rng(10)
        image = rng.uniform(size=(config.in_channels, config.image_h, config.image_w))
        prior = CompositionPrior(bias=np.maximum(rng.uniform(size=(config.grid_h, config.grid_w)), 1e-6))
        for name in ("enc.proj.w", "query.embed", "layer0.ln2.g", "layer0.cross.bk", "score.b"):
            param = state[name]
            orig = param.data
            variants = np.stack([orig + rng.normal(0.0, 0.05, size=orig.shape).astype(dtype) for _ in range(4)])
            with T.no_grad():
                try:
                    param.data = variants
                    together = forward_train(image, prior, state)
                    singles = []
                    for v in variants:
                        param.data = v
                        singles.append(forward_train(image, prior, state))
                finally:
                    param.data = orig
            # a head the parameter does not reach stays unbatched
            boxes = np.broadcast_to(together.boxes.data, (4, config.n_queries, 4))
            scores = np.broadcast_to(together.scores.data, (4, config.n_queries, 1))
            for b, single in enumerate(singles):
                assert boxes[b].tobytes() == single.boxes.data.tobytes(), name
                assert scores[b].tobytes() == single.scores.data.tobytes(), name


class TestKinks:
    def test_branches_records_each_piecewise_op(self):
        x = T.constant([[-0.5, 0.25]])
        y = T.constant([[0.0, 1.0]])
        taken = []
        with T.branches(taken):
            T.relu(x)
            T.absolute(x)
            T.clamp(x, -0.4, 0.3)
            T.minimum(x, y)
            T.maximum(x, y)
        T.relu(x)  # outside the block: not collected
        expected = [[False, True], [-1.0, 1.0], [False, True], [True, True], [False, False]]
        assert [b.tolist() for b in taken] == [[row] for row in expected]

    @pytest.mark.parametrize(
        "name,seed", [("decoder_forward", 754), ("l1_pairs", 865), ("training_loss", 1220), ("training_loss", 3908)]
    )
    def test_a_draw_whose_stencil_crosses_a_kink_is_replaced(self, name, seed):
        worst, crossed = gradcheck._compare(*_scenario(name, seed), DEFAULT_STEP)
        assert crossed and worst > DEFAULT_TOL
        assert run_check(name, seed).ok

    def test_a_kink_that_never_moves_ends_the_redraws(self, monkeypatch):
        draws = []

        def on_the_kink(rng):
            draws.append(rng)
            a = Tensor(np.zeros((2, 2)), requires_grad=True)
            return [a], lambda: T.sum_all(T.relu(a))

        monkeypatch.setitem(SCENARIOS, "on_the_kink", on_the_kink)
        result = run_check("on_the_kink", 0)
        assert len(draws) == gradcheck._MAX_DRAWS
        assert not result.ok

    def test_a_kink_in_a_later_parameters_stencil_is_flagged(self):
        a, b = _leaves((3, 3), (2, 2))
        for p in (a, b):  # every entry well clear of relu's kink at 0
            p.data[...] = np.where(p.data < 0.0, -0.1, 0.1) + p.data
        fn = lambda: T.add(T.sum_all(T.relu(a)), T.sum_all(T.relu(b)))  # noqa: E731
        worst, crossed = gradcheck._compare([a, b], fn, DEFAULT_STEP)
        assert not crossed and worst < DEFAULT_TOL
        # b's entry (1, 0) within the step of the kink: its raised row takes relu's other branch
        b.data[1, 0] = 0.3 * DEFAULT_STEP
        for p in (a, b):
            p.grad[...] = 0.0
        worst, crossed = gradcheck._compare([a, b], fn, DEFAULT_STEP)
        assert crossed and worst > DEFAULT_TOL


class TestNaN:
    def test_a_nan_analytic_gradient_fails_the_check(self, monkeypatch):
        def nan_gradient(rng):
            a, b = _leaves((2, 2), (2, 3))
            # backward adds into the buffer, so the analytic gradient keeps the NaN
            b.grad[0, 1] = np.nan
            return [a, b], lambda: _weighed_sigmoids([a, b])

        monkeypatch.setitem(SCENARIOS, "nan_gradient", nan_gradient)
        result = run_check("nan_gradient", 0)
        assert np.isnan(result.max_error) and not result.ok
