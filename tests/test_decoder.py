"""Patch encoder, bias-aware decoder stack, and the prediction heads."""
import time
from dataclasses import asdict

import numpy as np
import pytest

from croprank import tensor as T
from croprank.composition import ActivationMap, CompositionPrior, make_prior
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
        for n_heads in (0, -4):
            with pytest.raises(DimMismatch, match="n_heads must be >= 1"):
                ModelConfig(n_heads=n_heads)
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

    def test_adds_the_states_own_position_codes(self):
        state = init_state(SMALL, seed=0)
        out = encode(np.zeros((1, 8, 8)), state)
        assert out._parents[1] is state.position

    def test_output_shape(self):
        state = init_state(SMALL, seed=0)
        out = encode(np.zeros((1, 8, 8)), state)
        assert out.dims == (SMALL.n_cells, SMALL.model_dim)

    def test_content_is_cell_permutation_equivariant(self):
        state = init_state(SMALL, seed=2)
        rng = np.random.default_rng(3)
        pm = rng.uniform(size=(SMALL.n_cells, SMALL.patch_dim))
        perm = rng.permutation(SMALL.n_cells)
        # the content embeddings alone: the position codes taken off again
        e1 = encode(_unpatch(pm, SMALL), state).data - state.position.data
        e2 = encode(_unpatch(pm[perm], SMALL), state).data - state.position.data
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
        uni = decode(memory, CompositionPrior(bias=np.ones((2, 2))), state).data
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
            decode(memory, CompositionPrior(bias=np.ones((3, 3))), state)

    def test_each_prior_becomes_a_log_bias_once_per_forward(self, monkeypatch):
        calls = []
        flat_log_bias = CompositionPrior.flat_log_bias
        monkeypatch.setattr(CompositionPrior, "flat_log_bias",
                            lambda prior, dtype: calls.append(prior) or flat_log_bias(prior, dtype))
        state = init_state(SMALL, seed=15)
        rng = np.random.default_rng(16)
        p, q = (make_prior(ActivationMap(values=rng.uniform(size=(2, 2)))) for _ in range(2))
        images = [rng.uniform(size=(1, 8, 8)) for _ in range(3)]
        forward_train(images[0], p, state)
        assert calls == [p]
        calls.clear()
        forward_train(images, [p, None, q], state)
        assert calls == [p, q]
        calls.clear()
        forward_train(images[:2], [None, None], state)
        assert calls == []

    def test_a_batch_mixing_priors_and_none_gives_each_image_its_own_bytes(self):
        state = init_state(SMALL, seed=17)
        rng = np.random.default_rng(18)
        priors = [make_prior(ActivationMap(values=rng.uniform(size=(2, 2)))), None,
                  make_prior(ActivationMap(values=rng.uniform(size=(2, 2))))]
        images = [rng.uniform(size=(1, 8, 8)) for _ in priors]
        batch_weights: list = []
        batched = forward_train(images, priors, state, attention_out=batch_weights)
        for b, (image, prior) in enumerate(zip(images, priors)):
            weights: list = []
            own = forward_train(image, prior, state, attention_out=weights)
            assert batched.boxes.data[b].tobytes() == own.boxes.data.tobytes()
            assert batched.scores.data[b].tobytes() == own.scores.data.tobytes()
            for layer_batch, layer_own in zip(batch_weights, weights, strict=True):
                assert layer_batch.shape == (SMALL.n_heads, len(images), SMALL.n_queries, SMALL.n_cells)
                assert layer_batch[:, b].tobytes() == layer_own.tobytes()


def _uncached_heads(image, prior, state) -> HeadOutputs:
    """A no-grad forward on a fresh copy of ``state``'s values, which has no kept prefix."""
    fresh = init_state(state.config, dtype=state.dtype)
    fresh.data[...] = state.data
    with T.no_grad():
        return forward_train(image, prior, fresh)


@pytest.fixture
def prefix_calls(monkeypatch):
    """The gains of every ``layer_norm`` call and the number of ``attention`` calls, as lists that grow."""
    gains, attentions = [], []
    layer_norm, attention = T.layer_norm, T.attention
    monkeypatch.setattr(T, "layer_norm", lambda x, gain, bias: gains.append(gain) or layer_norm(x, gain, bias))
    monkeypatch.setattr(T, "attention", lambda *args: attentions.append(1) or attention(*args))

    def made(state) -> bool:
        """Whether a call since the last one ran layer 0's LN1, self-attention or LN2; clears the lists."""
        ran = state["layer0.ln1.g"] in gains or state["layer0.ln2.g"] in gains
        assert len(attentions) == 2 * state.config.n_layers - (not ran)
        gains.clear()
        attentions.clear()
        return ran

    return made


# one in-place write to a layer-0 parameter before self-attention's output leaves it
def _one_ulp(state):
    w = state["layer0.self.wq"].data
    w[1, 2] = np.nextafter(w[1, 2], np.inf)


def _negative_zero(state):
    b = state["layer0.self.bv"].data
    assert b[0, 0] == 0.0 and not np.signbit(b[0, 0])
    b[0, 0] = -0.0


def _permute_queries(state):
    q = state["query.embed"].data
    q[...] = q[np.random.default_rng(31).permutation(len(q))]


class TestLayerZeroPrefix:
    """Outside recording, decode keeps layer 0's image-independent prefix while its parameters hold the same bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_prior", [True, False], ids=["prior", "no_prior"])
    @pytest.mark.parametrize("edit", [None, _one_ulp, _negative_zero, _permute_queries],
                             ids=["unchanged", "one_ulp", "negative_zero", "permuted_queries"])
    def test_a_kept_prefix_gives_the_uncached_bytes(self, dtype, with_prior, edit, prefix_calls):
        state = init_state(SMALL, seed=27, dtype=dtype)
        rng = np.random.default_rng(28)
        images = [rng.uniform(size=(1, 8, 8)) for _ in range(2)]
        prior = make_prior(ActivationMap(values=rng.uniform(size=(2, 2)))) if with_prior else None
        with T.no_grad():
            forward_train(images[0], prior, state)
            assert prefix_calls(state)
            if edit is not None:
                edit(state)
            got = forward_train(images[1], prior, state)
            assert prefix_calls(state) == (edit is not None)
        want = _uncached_heads(images[1], prior, state)
        assert got.boxes.data.tobytes() == want.boxes.data.tobytes()
        assert got.scores.data.tobytes() == want.scores.data.tobytes()

    def test_a_second_no_grad_forward_skips_layer_zeros_self_block(self, prefix_calls):
        state = init_state(DESK, seed=29)
        rng = np.random.default_rng(30)
        prior = make_prior(ActivationMap(values=rng.uniform(size=(8, 8))))
        for expect_made in (True, False, False):
            forward(rng.uniform(size=(3, 64, 64)), prior, state)
            assert prefix_calls(state) == expect_made

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_prior", [True, False], ids=["prior", "no_prior"])
    @pytest.mark.parametrize("name", ["query.embed", "layer0.ln2.g", "layer0.self.wk"])
    def test_a_swapped_in_stack_neither_reads_nor_keeps_the_prefix(self, name, with_prior, dtype, prefix_calls):
        state = init_state(SMALL, seed=32, dtype=dtype)
        rng = np.random.default_rng(33)
        image = rng.uniform(size=(1, 8, 8))
        prior = make_prior(ActivationMap(values=rng.uniform(size=(2, 2)))) if with_prior else None
        param = state[name]
        orig = param.data
        variants = np.stack([orig + rng.normal(0.0, 0.05, size=orig.shape).astype(dtype) for _ in range(2)])
        with T.no_grad():
            forward_train(image, prior, state)
            kept = state._prefix
            prefix_calls(state)
            try:
                param.data = variants
                together = forward_train(image, prior, state)
                assert prefix_calls(state) and state._prefix is kept
                param.data = variants[1]
                alone = forward_train(image, prior, state)
                assert prefix_calls(state) and state._prefix is kept
            finally:
                param.data = orig
            again = forward_train(image, prior, state)
            assert not prefix_calls(state)
        assert together.boxes.data[1].tobytes() == alone.boxes.data.tobytes()
        assert again.boxes.data.tobytes() == _uncached_heads(image, prior, state).boxes.data.tobytes()
        orig[...] = variants[1]
        assert alone.boxes.data.tobytes() == _uncached_heads(image, prior, state).boxes.data.tobytes()

    def test_a_recording_forward_neither_reads_nor_keeps_the_prefix(self, prefix_calls):
        state = init_state(SMALL, seed=34)
        image = np.random.default_rng(35).uniform(size=(1, 8, 8))
        forward_train(image, None, state)
        assert prefix_calls(state) and state._prefix is None
        with T.no_grad():
            forward_train(image, None, state)
        kept = state._prefix
        prefix_calls(state)
        recorded = forward_train(image, None, state)
        assert prefix_calls(state) and state._prefix is kept
        assert recorded.boxes.requires_grad

    def test_zero_layers_keep_no_prefix(self):
        cfg = ModelConfig(n_queries=5, n_layers=0, model_dim=8, n_heads=2, ffn_dim=16,
                          grid_h=2, grid_w=2, in_channels=1, image_h=8, image_w=8)
        state = init_state(cfg, seed=36)
        forward(np.random.default_rng(37).uniform(size=(1, 8, 8)), None, state)
        assert state._prefix is None


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
        (3, 5e-7, Degenerate),  # extent below MIN_EXTENT
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
