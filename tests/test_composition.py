"""Saliency-map fusion, grid pooling, and the log-bias term that ``tensor.attention`` adds."""
import math

import numpy as np
import pytest

from croprank import tensor as T
from croprank.composition import (
    BIAS_FLOOR,
    COMPOSITION_CLASSES,
    N_CLASSES,
    ActivationMap,
    ClassProbabilities,
    CompositionPrior,
    fuse_cams,
    make_prior,
    normalize01,
    resample_to_grid,
)
from croprank.decoder import ModelConfig, decode, encode, init_state
from croprank.errors import BadGrid, BadProbabilities, DimMismatch, DomainError
from croprank.tensor import Tensor
from test_tensor import reference_attention


def _one_hot_probs(k: int) -> ClassProbabilities:
    vals = [0.0] * N_CLASSES
    vals[k] = 1.0
    return ClassProbabilities(values=tuple(vals))


def _random_cams(rng, shape=(6, 6)):
    return [ActivationMap(values=rng.uniform(size=shape)) for _ in range(N_CLASSES)]


def _random_probs(rng) -> ClassProbabilities:
    raw = rng.uniform(0.05, 1.0, size=N_CLASSES)
    return ClassProbabilities(values=tuple(raw / raw.sum()))


class TestDomainTypes:
    def test_nine_classes(self):
        assert len(COMPOSITION_CLASSES) == N_CLASSES == 9

    def test_activation_map_validation(self):
        with pytest.raises(DimMismatch):
            ActivationMap(values=np.zeros(4))
        with pytest.raises(DomainError, match="must lie in"):
            ActivationMap(values=np.array([[0.5, 1.5]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                ActivationMap(values=np.array([[bad, 0.5]]))
        with pytest.raises(DomainError, match="non-finite"):
            ActivationMap(values=np.array([[np.nan, 1.5]]))
        assert ActivationMap(values=np.array([[0.0, 1.0]])).shape == (1, 2)

    def test_probabilities_validation(self):
        with pytest.raises(BadProbabilities):
            ClassProbabilities(values=(1.0,) * 4)
        with pytest.raises(BadProbabilities):
            ClassProbabilities(values=(0.5,) * N_CLASSES)
        with pytest.raises(BadProbabilities):
            ClassProbabilities(values=(-0.1, 1.1) + (0.0,) * (N_CLASSES - 2))
        # a 1e-3 slack on the sum is allowed
        near = [1.0 / N_CLASSES] * N_CLASSES
        near[0] += 5e-4
        ClassProbabilities(values=tuple(near))

    def test_argmax_tie_goes_to_lowest_index(self):
        vals = [0.3, 0.3] + [0.4 / 7] * 7
        assert ClassProbabilities(values=tuple(vals)).argmax() == 0

    def test_prior_floor_enforced(self):
        with pytest.raises(DomainError):
            CompositionPrior(bias=np.full((2, 2), 1e-9))
        with pytest.raises(DomainError):
            CompositionPrior(bias=np.full((2, 2), 1.5))

    def test_normalize01(self):
        assert np.array_equal(normalize01(np.array([[2.0, 2.0]])), np.ones((1, 2)))
        out = normalize01(np.array([[1.0, 3.0]]))
        assert np.array_equal(out, [[0.0, 1.0]])


class TestFuseCams:
    def test_one_hot_equals_that_map_in_both_modes(self):
        rng = np.random.default_rng(3)
        cams = _random_cams(rng)
        probs = _one_hot_probs(4)
        expected = normalize01(cams[4].values)
        np.testing.assert_allclose(fuse_cams(cams, probs, "average").values, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fuse_cams(cams, probs, "max").values, expected, rtol=0, atol=1e-12)

    def test_constant_weighted_sum_becomes_all_ones(self):
        shape = (4, 4)
        cams = [ActivationMap(values=np.ones(shape)), ActivationMap(values=np.zeros(shape))]
        cams += [ActivationMap(values=np.zeros(shape)) for _ in range(N_CLASSES - 2)]
        probs = ClassProbabilities(values=(0.5, 0.5) + (0.0,) * (N_CLASSES - 2))
        assert np.array_equal(fuse_cams(cams, probs, "average").values, np.ones(shape))

    def test_average_vs_naive_oracle(self):
        rng = np.random.default_rng(4)
        cams = _random_cams(rng)
        probs = _random_probs(rng)
        weighted = np.zeros((6, 6))
        for y in range(6):
            for x in range(6):
                weighted[y, x] = sum(p * c.values[y, x] for p, c in zip(probs.values, cams))
        expected = (weighted - weighted.min()) / (weighted.max() - weighted.min())
        np.testing.assert_allclose(fuse_cams(cams, probs, "average").values, expected, rtol=0, atol=1e-12)

    def test_max_mode_picks_argmax_class(self):
        rng = np.random.default_rng(5)
        cams = _random_cams(rng)
        probs = _random_probs(rng)
        expected = normalize01(cams[probs.argmax()].values)
        np.testing.assert_allclose(fuse_cams(cams, probs, "max").values, expected, rtol=0, atol=1e-12)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(6)
        cams = _random_cams(rng)
        probs = _random_probs(rng)
        perm = rng.permutation(N_CLASSES)
        cams_p = [cams[i] for i in perm]
        probs_p = ClassProbabilities(values=tuple(probs.values[i] for i in perm))
        base = fuse_cams(cams, probs, "average").values
        permuted = fuse_cams(cams_p, probs_p, "average").values
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-12)

    def test_output_in_unit_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            out = fuse_cams(_random_cams(rng), _random_probs(rng), "average").values
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_errors(self):
        rng = np.random.default_rng(8)
        cams = _random_cams(rng)
        probs = _random_probs(rng)
        with pytest.raises(DomainError):
            fuse_cams(cams, probs, "median")
        with pytest.raises(DimMismatch):
            fuse_cams(cams[:5], probs, "average")
        bad = cams[:8] + [ActivationMap(values=np.zeros((3, 3)))]
        with pytest.raises(DimMismatch):
            fuse_cams(bad, probs, "average")


def loop_resample(values: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """Reference pooling: one mean per cell over its slice, remainders folded into the last row and column."""
    h, w = values.shape
    bh, bw = h // grid_h, w // grid_w
    out = np.empty((grid_h, grid_w), dtype=np.float64)
    for i in range(grid_h):
        r1 = (i + 1) * bh if i < grid_h - 1 else h
        for j in range(grid_w):
            c1 = (j + 1) * bw if j < grid_w - 1 else w
            out[i, j] = values[i * bh : r1, j * bw : c1].mean()
    return normalize01(out)


class TestResample:
    def test_constant_map_becomes_all_ones(self):
        amap = ActivationMap(values=np.full((8, 8), 0.4))
        assert np.array_equal(resample_to_grid(amap, 2, 2).values, np.ones((2, 2)))

    def test_exact_half_split(self):
        vals = np.zeros((4, 4))
        vals[:, :2] = 1.0
        out = resample_to_grid(ActivationMap(values=vals), 2, 2).values
        assert np.array_equal(out, [[1.0, 0.0], [1.0, 0.0]])

    def test_remainder_folds_into_last_cell_vs_naive(self):
        rng = np.random.default_rng(9)
        vals = rng.uniform(size=(5, 5))
        out = resample_to_grid(ActivationMap(values=vals), 2, 2).values
        pooled = np.array(
            [
                [vals[0:2, 0:2].mean(), vals[0:2, 2:5].mean()],
                [vals[2:5, 0:2].mean(), vals[2:5, 2:5].mean()],
            ]
        )
        expected = (pooled - pooled.min()) / (pooled.max() - pooled.min())
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, grid", [
        ((32, 32), (8, 8)), ((64, 64), (8, 8)), ((32, 48), (8, 8)), ((32, 32), (4, 8)), ((24, 24), (1, 1)),
        ((32, 32), (32, 32)), ((40, 9), (4, 9)), ((33, 35), (8, 8)), ((37, 32), (8, 8)), ((32, 37), (8, 8)),
        ((64, 41), (8, 4)), ((23, 31), (7, 3)), ((50, 50), (3, 1)), ((9, 50), (1, 6)),
    ])
    def test_matches_the_cell_loop_bit_for_bit(self, shape, grid):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for dtype in (np.float64, np.float32):
            for _ in range(20):
                vals = rng.uniform(size=shape).astype(dtype)
                out = resample_to_grid(ActivationMap(values=vals), *grid).values
                assert out.dtype == np.float64
                assert np.array_equal(out, loop_resample(vals, *grid))

    def test_rejects_upsampling_and_bad_grid(self):
        amap = ActivationMap(values=np.zeros((4, 4)))
        with pytest.raises(BadGrid):
            resample_to_grid(amap, 8, 2)
        with pytest.raises(BadGrid):
            resample_to_grid(amap, 0, 2)


class TestMakePrior:
    def test_all_ones_gives_zero_log_bias(self):
        prior = make_prior(ActivationMap(values=np.ones((3, 3))))
        assert np.array_equal(prior.log_bias, np.zeros((3, 3)))

    def test_floor_log_value(self):
        prior = make_prior(ActivationMap(values=np.zeros((2, 2))), floor=1e-6)
        assert prior.log_bias[0, 0] == pytest.approx(-13.8155, abs=1e-4)
        assert prior.bias.min() == 1e-6

    def test_log_monotonicity(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(size=(4, 4))
        b = np.minimum(a, rng.uniform(size=(4, 4)))
        pa = make_prior(ActivationMap(values=a))
        pb = make_prior(ActivationMap(values=b))
        assert np.all(pa.log_bias >= pb.log_bias)

    def test_floor_domain(self):
        amap = ActivationMap(values=np.ones((2, 2)))
        with pytest.raises(DomainError):
            make_prior(amap, floor=0.0)
        with pytest.raises(DomainError):
            make_prior(amap, floor=1.0)

    def test_uniform_prior(self):
        prior = CompositionPrior(bias=np.ones((2, 3)))
        assert prior.grid_h == 2 and prior.grid_w == 3
        assert np.array_equal(prior.log_bias, np.zeros((2, 3)))


def _qkv(rng, n_q=3, n_k=4, d=5):
    q = T.constant(rng.normal(size=(n_q, d)))
    k = T.constant(rng.normal(size=(n_k, d)))
    v = T.constant(rng.normal(size=(n_k, d)))
    return q, k, v


def _biased(q, k, v, prior=None, n_heads=1):
    """``tensor.attention`` under the prior's log-bias row, as ``decode`` builds it: (output, (H, m, n) weights)."""
    weights: list = []
    log_bias = None if prior is None else prior.flat_log_bias(q.data.dtype)
    out = T.attention(q, k, v, n_heads, log_bias, weights)
    return out, weights[0]


class TestBiasedAttention:
    def test_matches_the_unfused_per_head_chain_bit_for_bit(self):
        rng = np.random.default_rng(17)
        prior = make_prior(ActivationMap(values=rng.uniform(size=(2, 3))))
        for dtype in (np.float64, np.float32):
            for n_heads in (1, 2, 4):
                for p in (None, prior):
                    q, k, v = (Tensor(rng.normal(size=shape), dtype=dtype, requires_grad=True)
                               for shape in ((5, 8), (6, 8), (6, 8)))
                    upstream = rng.normal(size=(5, 8)).astype(dtype)
                    out, weights = _biased(q, k, v, p, n_heads)
                    log_bias = None if p is None else p.flat_log_bias(dtype)
                    ref, ref_weights, ref_vjp = reference_attention(q.data, k.data, v.data, n_heads, log_bias)
                    assert weights.shape == (n_heads, 5, 6)
                    got = [out.data, *weights, *out._vjp(upstream)]
                    want = [ref, *ref_weights, *ref_vjp(upstream)]
                    assert len(got) == len(want) == n_heads + 4
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
        q, k, v = _qkv(rng, d=6)
        with pytest.raises(DimMismatch):
            T.attention(q, k, v, 4)

    def test_uniform_prior_matches_no_prior(self):
        rng = np.random.default_rng(11)
        q, k, v = _qkv(rng)
        base = _biased(q, k, v)[0].data
        uniform = _biased(q, k, v, CompositionPrior(bias=np.ones((2, 2))))[0].data
        assert np.max(np.abs(uniform - base)) <= 1e-12

    def test_rows_sum_to_one_under_any_prior(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            q, k, v = _qkv(rng, n_k=6)
            prior = make_prior(ActivationMap(values=rng.uniform(size=(2, 3))))
            weights = _biased(q, k, v, prior)[1]
            np.testing.assert_allclose(weights[0].sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_concentrated_prior_lifts_mass_on_two_key_fixture(self):
        rng = np.random.default_rng(13)
        q = T.constant(rng.normal(size=(4, 3)))
        k = T.constant(rng.normal(size=(2, 3)))
        v = T.constant(rng.normal(size=(2, 3)))
        prior = CompositionPrior(bias=np.array([[1.0, BIAS_FLOOR]]))
        plain = _biased(q, k, v)[1][0]
        boosted = _biased(q, k, v, prior)[1][0]
        # every query row puts at least as much mass on the favored key 0
        assert np.all(boosted[:, 0] >= plain[:, 0])
        # direct computation: adding log B to the logits and renormalizing
        logits = (q.data @ k.data.T) / math.sqrt(3)
        shifted = logits + np.log(np.array([1.0, BIAS_FLOOR]))[None, :]
        e = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        np.testing.assert_allclose(boosted, e / e.sum(axis=1, keepdims=True), rtol=0, atol=1e-12)

    def test_bias_monotonicity_random_fixtures(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            q, k, v = _qkv(rng, n_q=2, n_k=4, d=3)
            bias = rng.uniform(0.1, 0.9, size=(1, 4))
            j = int(rng.integers(4))
            raised = bias.copy()
            raised[0, j] = min(bias[0, j] + 0.1, 1.0)
            w_lo = _biased(q, k, v, CompositionPrior(bias=bias))[1][0]
            w_hi = _biased(q, k, v, CompositionPrior(bias=raised))[1][0]
            assert np.all(w_hi[:, j] >= w_lo[:, j])
            if raised[0, j] > bias[0, j]:
                assert np.all(w_hi[:, j] > w_lo[:, j])

    def test_dimension_errors(self):
        rng = np.random.default_rng(15)
        q, k, v = _qkv(rng)
        with pytest.raises(DimMismatch):
            T.attention(q, T.constant(rng.normal(size=(4, 6))), v, 1)
        with pytest.raises(DimMismatch):
            T.attention(q, k, T.constant(rng.normal(size=(3, 5))), 1)
        # a 3x3 prior's nine cells against four keys: attention's row check, and decode's grid check before it
        with pytest.raises(DimMismatch, match="log_bias"):
            _biased(q, k, v, CompositionPrior(bias=np.ones((3, 3))))
        cfg = ModelConfig(n_queries=3, n_layers=1, model_dim=8, n_heads=2, ffn_dim=8, grid_h=2, grid_w=2,
                          in_channels=1, image_h=4, image_w=4)
        state = init_state(cfg, seed=15)
        with pytest.raises(DimMismatch, match="prior grid"):
            decode(encode(np.zeros((1, 4, 4)), state), CompositionPrior(bias=np.ones((3, 3))), state)

    def test_gradients_flow_through_bias_path(self):
        rng = np.random.default_rng(16)
        q = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        k = T.constant(rng.normal(size=(4, 3)))
        v = T.constant(rng.normal(size=(4, 3)))
        prior = make_prior(ActivationMap(values=rng.uniform(size=(2, 2))))
        T.backward(T.sum_all(_biased(q, k, v, prior)[0]))
        assert np.all(np.isfinite(q.grad)) and np.any(q.grad != 0.0)
