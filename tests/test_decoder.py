"""Patch encoder, bias-aware decoder stack, and the prediction heads."""
import time
from dataclasses import asdict

import numpy as np
import pytest

from croprank import tensor as T
from croprank.composition import ActivationMap, make_prior, uniform_prior
from croprank.decoder import (
    HeadOutputs,
    ModelConfig,
    check_heads,
    decode,
    encode,
    forward,
    forward_train,
    init_state,
    patch_matrix,
    predict_heads,
    sinusoidal_grid_encoding,
)
from croprank.errors import BadShape, Degenerate, DimMismatch, NonFinite
from croprank.tensor import Tensor

SMALL = ModelConfig(
    n_queries=5,
    n_layers=2,
    model_dim=8,
    n_heads=2,
    ffn_dim=16,
    grid_h=2,
    grid_w=2,
    in_channels=1,
    image_h=8,
    image_w=8,
)

DESK = ModelConfig()


def _unpatch(patches: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Inverse of patch_matrix: rebuild the (c, h, w) image."""
    p = patches.reshape(cfg.grid_h, cfg.grid_w, cfg.in_channels, cfg.patch_h, cfg.patch_w)
    return np.ascontiguousarray(p.transpose(2, 0, 3, 1, 4).reshape(cfg.in_channels, cfg.image_h, cfg.image_w))


def _zero_state(cfg: ModelConfig, seed: int = 0):
    state = init_state(cfg, seed=seed)
    for name in ("enc.proj.w", "enc.proj.b"):
        state[name].data[...] = 0.0
    return state


class TestModelConfig:
    def test_defaults_expose_derived_shapes(self):
        assert DESK.n_cells == 64
        assert DESK.patch_h == DESK.patch_w == 8
        assert DESK.patch_dim == 3 * 8 * 8
        assert DESK.head_dim == 8

    def test_validation(self):
        with pytest.raises(DimMismatch):
            ModelConfig(n_queries=0)
        with pytest.raises(DimMismatch):
            ModelConfig(n_layers=-1)
        with pytest.raises(DimMismatch):
            ModelConfig(model_dim=30, n_heads=4)
        with pytest.raises(DimMismatch):
            ModelConfig(model_dim=6, n_heads=2)
        with pytest.raises(BadShape):
            ModelConfig(image_h=60, grid_h=8)
        with pytest.raises(DimMismatch):
            ModelConfig(ffn_dim=0)

    def test_zero_layers_is_permitted(self):
        assert ModelConfig(n_layers=0).n_layers == 0

    def test_to_dict_round_trip(self):
        d = asdict(SMALL)
        assert ModelConfig(**d) == SMALL


class TestPositionEncoding:
    def test_shape_and_range(self):
        pe = sinusoidal_grid_encoding(3, 4, 8)
        assert pe.shape == (12, 8)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_rows_are_distinct(self):
        pe = sinusoidal_grid_encoding(8, 8, 32)
        for i in range(pe.shape[0]):
            for j in range(i + 1, pe.shape[0]):
                assert np.max(np.abs(pe[i] - pe[j])) > 1e-6

    def test_dim_must_be_divisible_by_four(self):
        with pytest.raises(DimMismatch):
            sinusoidal_grid_encoding(2, 2, 6)

    def test_deterministic(self):
        a = sinusoidal_grid_encoding(4, 4, 16)
        b = sinusoidal_grid_encoding(4, 4, 16)
        assert np.array_equal(a, b)


class TestPatchMatrix:
    def test_row_major_cell_order(self):
        # each patch is filled with its own row-major cell index
        img = np.zeros((1, 8, 8))
        idx = 0
        for gy in range(2):
            for gx in range(2):
                img[0, gy * 4 : (gy + 1) * 4, gx * 4 : (gx + 1) * 4] = idx
                idx += 1
        pm = patch_matrix(img, SMALL)
        assert pm.shape == (4, 16)
        for cell in range(4):
            assert np.array_equal(pm[cell], np.full(16, float(cell)))

    def test_unpatch_round_trip(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(1, 8, 8))
        assert np.array_equal(_unpatch(patch_matrix(img, SMALL), SMALL), img)

    def test_shape_check(self):
        with pytest.raises(BadShape):
            patch_matrix(np.zeros((1, 8, 9)), SMALL)


class TestEncode:
    def test_zero_projection_leaves_position_only(self):
        state = _zero_state(SMALL)
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(1, 8, 8))
        out = encode(img, state)
        assert np.array_equal(out.data, state.position.data)

    def test_output_shape(self):
        state = init_state(SMALL, seed=0)
        out = encode(np.zeros((1, 8, 8)), state)
        assert out.dims == (SMALL.n_cells, SMALL.model_dim)

    def test_content_is_cell_permutation_equivariant(self):
        state = init_state(SMALL, seed=2)
        rng = np.random.default_rng(3)
        pm = rng.uniform(size=(SMALL.n_cells, SMALL.patch_dim))
        perm = rng.permutation(SMALL.n_cells)
        e1 = encode(_unpatch(pm, SMALL), state, add_position=False).data
        e2 = encode(_unpatch(pm[perm], SMALL), state, add_position=False).data
        np.testing.assert_allclose(e2, e1[perm], rtol=0, atol=1e-12)

    def test_position_breaks_that_symmetry(self):
        state = init_state(SMALL, seed=2)
        rng = np.random.default_rng(4)
        pm = rng.uniform(size=(SMALL.n_cells, SMALL.patch_dim))
        perm = np.array([1, 0, 3, 2])
        e1 = encode(_unpatch(pm, SMALL), state).data
        e2 = encode(_unpatch(pm[perm], SMALL), state).data
        assert np.max(np.abs(e2 - e1[perm])) > 1e-6


class TestDecode:
    def test_zero_layers_returns_anchor_queries_unchanged(self):
        cfg = ModelConfig(
            n_queries=5, n_layers=0, model_dim=8, n_heads=2, ffn_dim=16,
            grid_h=2, grid_w=2, in_channels=1, image_h=8, image_w=8,
        )
        state = init_state(cfg, seed=5)
        memory = encode(np.random.default_rng(6).uniform(size=(1, 8, 8)), state)
        out = decode(memory, None, state)
        assert np.array_equal(out.data, state["query.embed"].data)

    def test_uniform_prior_matches_no_prior(self):
        state = init_state(SMALL, seed=7)
        memory = encode(np.random.default_rng(8).uniform(size=(1, 8, 8)), state)
        base = decode(memory, None, state).data
        uni = decode(memory, uniform_prior(2, 2), state).data
        assert np.max(np.abs(uni - base)) <= 1e-12

    def test_nonuniform_prior_changes_output(self):
        state = init_state(SMALL, seed=9)
        rng = np.random.default_rng(10)
        memory = encode(rng.uniform(size=(1, 8, 8)), state)
        prior = make_prior(ActivationMap(values=np.array([[1.0, 0.0], [0.0, 0.0]])))
        base = decode(memory, None, state).data
        skewed = decode(memory, prior, state).data
        assert np.max(np.abs(skewed - base)) > 1e-9

    def test_collects_attention_weights_per_layer(self):
        state = init_state(SMALL, seed=11)
        memory = encode(np.random.default_rng(12).uniform(size=(1, 8, 8)), state)
        collected: list = []
        decode(memory, None, state, attention_out=collected)
        assert len(collected) == SMALL.n_layers
        for w in collected:
            assert w.shape == (SMALL.n_heads, SMALL.n_queries, SMALL.n_cells)
            np.testing.assert_allclose(w.sum(axis=2), 1.0, rtol=0, atol=1e-9)

    def test_memory_shape_check(self):
        state = init_state(SMALL, seed=13)
        with pytest.raises(DimMismatch):
            decode(T.constant(np.zeros((3, SMALL.model_dim))), None, state)

    def test_prior_grid_check(self):
        state = init_state(SMALL, seed=14)
        memory = encode(np.zeros((1, 8, 8)), state)
        with pytest.raises(DimMismatch):
            decode(memory, uniform_prior(3, 3), state)


class TestHeads:
    def test_zero_weights_give_centered_sigmoid(self):
        state = init_state(SMALL, seed=15)
        for name in state.param_names():
            if name.startswith(("box.", "score.")):
                state[name].data[...] = 0.0
        heads = predict_heads(T.constant(np.random.default_rng(16).normal(size=(5, 8))), state)
        assert np.array_equal(heads.boxes.data, np.full((5, 4), 0.5))
        assert np.array_equal(heads.scores.data, np.full((5, 1), 0.5))

    def test_outputs_are_valid_predictions(self):
        state = init_state(SMALL, seed=17)
        rng = np.random.default_rng(18)
        preds = forward(rng.uniform(size=(1, 8, 8)), None, state)
        assert len(preds) == SMALL.n_queries
        for p in preds:
            assert 0.0 < p.box.w <= 1.0 and 0.0 < p.box.h <= 1.0
            assert 0.0 <= p.box.cx <= 1.0 and 0.0 <= p.box.cy <= 1.0
            assert 0.0 <= p.score <= 1.0

    def test_tiny_extent_is_rejected(self):
        boxes = np.full((2, 4), 0.5)
        boxes[1, 2] = 1e-9
        heads = HeadOutputs(boxes=T.constant(boxes), scores=T.constant(np.full((2, 1), 0.5)))
        with pytest.raises(Degenerate):
            heads.to_predictions()



class TestCheckHeads:
    @pytest.mark.parametrize("field, value, error", [
        (0, -0.1, Degenerate),  # centre outside [0, 1]
        (1, 1.5, Degenerate),
        (2, 1.2, Degenerate),  # extent above 1
        (3, 5e-7, Degenerate),  # extent below MIN_PREDICTED_EXTENT
        (4, 1.5, Degenerate),  # score outside [0, 1]
        (2, np.nan, NonFinite),
        (0, np.inf, NonFinite),
        (4, np.nan, NonFinite),
    ])
    def test_each_rule_names_the_first_bad_row(self, field, value, error):
        boxes, scores = np.full((3, 4, 4), 0.5), np.full((3, 4, 1), 0.5)
        rows = np.concatenate([boxes, scores], axis=2)
        rows[2, 1, field] = value
        rows[2, 3, 2] = 0.0  # a later bad row does not win
        boxes, scores = rows[:, :, :4], rows[:, :, 4:]
        with pytest.raises(error, match="image 2 prediction 1"):
            check_heads(boxes, scores)
        # one image's rows through to_predictions: the same rule, named by row
        with pytest.raises(error, match="^prediction 1"):
            HeadOutputs(boxes=T.constant(boxes[2]), scores=T.constant(scores[2])).to_predictions()

    def test_float32_rows_compare_as_the_floats_they_hold(self):
        boxes, scores = np.full((1, 2, 4), 0.5, dtype=np.float32), np.full((1, 2, 1), 0.5, dtype=np.float32)
        boxes[0, 1, 3] = 1e-6  # rounds to 9.9999997e-07, below the floor
        with pytest.raises(Degenerate, match="near-zero extent"):
            check_heads(boxes, scores)
        boxes[0, 1, 3] = np.nextafter(np.float32(1e-6), np.float32(1.0))
        check_heads(boxes, scores)
        check_heads(boxes[0], scores[0])


class TestForward:
    def test_deterministic_bitwise(self):
        state = init_state(SMALL, seed=19)
        rng = np.random.default_rng(20)
        img = rng.uniform(size=(1, 8, 8))
        prior = make_prior(ActivationMap(values=rng.uniform(size=(2, 2))))
        a = forward(img, prior, state)
        b = forward(img, prior, state)
        for pa, pb in zip(a, b):
            assert (pa.box, pa.score) == (pb.box, pb.score)

    def test_query_order_equivariance(self):
        state = init_state(SMALL, seed=21)
        rng = np.random.default_rng(22)
        img = rng.uniform(size=(1, 8, 8))
        base = forward_train(img, None, state)
        perm = rng.permutation(SMALL.n_queries)
        state["query.embed"].data[...] = state["query.embed"].data[perm]
        permuted = forward_train(img, None, state)
        np.testing.assert_allclose(permuted.boxes.data, base.boxes.data[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(permuted.scores.data, base.scores.data[perm], rtol=0, atol=1e-12)

    def test_desk_scale_median_latency_under_50ms(self):
        state = init_state(DESK, seed=23, dtype=np.float32)
        rng = np.random.default_rng(24)
        img = rng.uniform(size=(3, 64, 64)).astype(np.float32)
        prior = make_prior(ActivationMap(values=rng.uniform(size=(8, 8))))
        forward(img, prior, state)  # warm-up
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            forward(img, prior, state)
            times.append(time.perf_counter() - t0)
        assert sorted(times)[len(times) // 2] < 0.050

    def test_large_query_count_forward(self):
        cfg = ModelConfig(
            n_queries=90, n_layers=1, model_dim=32, n_heads=4, ffn_dim=64,
            grid_h=4, grid_w=4, in_channels=1, image_h=16, image_w=16,
        )
        state = init_state(cfg, seed=25)
        preds = forward(np.random.default_rng(26).uniform(size=(1, 16, 16)), None, state)
        assert len(preds) == 90
