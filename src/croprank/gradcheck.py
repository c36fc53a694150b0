"""Central finite-difference verification of every differentiable op.

Each scenario builds a small random graph from trainable leaves and
returns (params, loss_fn); the runner compares backward() gradients
against central differences (f64, step 1e-5). Relative
error uses a 1e-3 denominator floor so negligible gradients cannot
manufacture huge ratios out of finite-difference noise.

The probe is batched: the 2k perturbed copies of every k-entry
parameter are stacked along a leading axis and evaluated in no-grad
forwards of up to ``_MAX_ROWS`` rows (every op accepts that axis), so
a scenario costs a few ``loss_fn`` calls. Each row holds the values a
per-entry loop would set, and the batched ops reproduce each row's
rank-2 result, so the differences match that loop's.

A kink of relu/abs/clamp/min/max inside the difference stencil is a
property of the probe, not of the gradient: there the central
difference averages two one-sided slopes. So when some probe row
takes another branch of such an op than its parameter's first row in
the call, ``run_check`` discards the draw and checks the next draw.
"""
from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .assignment import LossWeights, assign, focal_terms, training_loss
from .composition import CompositionPrior
from .decoder import ModelConfig, forward_train, init_state, sinusoidal_grid_encoding
from .errors import NotScalar
from .geometry import ScoredCrop, CropBox, giou_pairs, l1_pairs
from .tensor import Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
REL_FLOOR = 1e-3
# draws of one scenario before the last one is reported as it stands
_MAX_DRAWS = 20
# probe rows built and evaluated per loss_fn call
_MAX_ROWS = 256


def _calls(sizes: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per ``loss_fn`` call, the param and entry of each of its pairs of probe rows, in row order."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    entry = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    half = _MAX_ROWS // 2
    return [(owner[c : c + half], entry[c : c + half]) for c in range(0, owner.size, half)]


def numeric_gradients(loss_fn: Callable[[], Tensor], params: list[Tensor],
                      step: float = DEFAULT_STEP) -> list[np.ndarray]:
    """Central differences of the scalar loss w.r.t. every entry of every param.

    The probe rows of all params form one sequence: param after param,
    row 2i raises entry i by ``step`` and row 2i+1 lowers it. In each
    ``loss_fn`` call of up to ``_MAX_ROWS`` rows, a param with rows in it
    sees a C-contiguous (rows, *shape) stack of its values as ``data``,
    each row perturbed only if it is one of its own; any other param
    keeps its array. ``loss_fn`` runs under ``no_grad`` and returns one
    loss per row, (rows, 1, 1), or (1, 1) when no stack reaches it.
    Every ``data`` is the original again afterwards, also on a raise.
    """
    origs = [p.data for p in params]
    flats = [o.reshape(-1) for o in origs]
    sizes = [f.size for f in flats]
    losses = np.empty(2 * sum(sizes))
    at = 0
    try:
        with T.no_grad():
            for owner, entry in _calls(sizes):
                n = 2 * owner.size
                for p, orig in zip(params, origs):
                    p.data = orig
                for j in set(owner.tolist()):  # not np.unique: its first call adds 1.7 MB of resident memory
                    up, i = 2 * np.flatnonzero(owner == j), entry[owner == j]
                    rows = np.repeat(flats[j][None, :], n, axis=0)
                    rows[up, i] = flats[j][i] + step
                    rows[up + 1, i] = flats[j][i] - step
                    params[j].data = rows.reshape((n, *origs[j].shape))
                out = loss_fn().data
                if out.shape[-2:] != (1, 1) or out.size not in (1, n):
                    raise NotScalar(f"loss_fn must give one scalar per probe row, got shape {out.shape}")
                losses[at : at + n] = out.reshape(-1)
                at += n
    finally:
        for p, orig in zip(params, origs):
            p.data = orig
    diffs = np.split((losses[0::2] - losses[1::2]) / (2.0 * step), np.cumsum(sizes)[:-1])
    return [d.astype(o.dtype).reshape(o.shape) for d, o in zip(diffs, origs)]


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    seed: int
    max_error: float
    ok: bool


def _leaf(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _fixed(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return T.constant(rng.uniform(lo, hi, size=shape))


@functools.lru_cache(maxsize=None)
def _weighting(seed: int, dims: tuple[int, int]) -> np.ndarray:
    """What a fresh generator seeded with ``seed`` draws for ``dims``: drawn once, read-only."""
    r = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dims)
    r.flags.writeable = False
    return r


def _weigh(x: Tensor, seed: int) -> Tensor:
    """Reduce to a scalar through a weighting fixed by ``seed``.

    The weighting depends on the seed and the matrix dims alone, so it
    is the same across the repeated evaluations finite differencing needs.
    """
    # matrix dims only: a probe batch must be weighed like each of its entries
    return T.sum_all(T.mul(x, T.constant(_weighting(seed, T.matrix_dims(x)))))


def _mid_boxes(x: Tensor) -> Tensor:
    """Map a raw (m, 4) tensor into boxes whose corners avoid the unit-square clamp."""
    rows = T.matrix_dims(x)[0]
    # column by column: (cx, cy) in (0.35, 0.65) and (w, h) in (0.10, 0.30)
    scale, offset = (T.constant(np.tile(c, (rows, 1))) for c in ([0.30, 0.30, 0.20, 0.20], [0.35, 0.35, 0.10, 0.10]))
    return T.add(T.mul(T.sigmoid(x), scale), offset)


def _scn_elementwise(rng):
    a = _leaf(rng, (4, 3))
    b = _leaf(rng, (4, 3))
    c = _leaf(rng, (4, 3))

    def fn():
        denom = T.add_const(T.sigmoid(c), 0.5)  # bounded away from zero
        x = T.div(T.mul(T.add(a, b), T.sub(a, b)), denom)
        return _weigh(T.scale(T.add_const(x, 0.25), -1.7), 13)

    return [a, b, c], fn


def _scn_minmax(rng):
    a = _leaf(rng, (4, 4))
    # keep |a - b| away from the tie so the subgradient choice is irrelevant
    b = Tensor(a.data + np.where(rng.uniform(size=(4, 4)) > 0.5, 0.2, -0.2) + rng.uniform(-0.05, 0.05, (4, 4)),
               requires_grad=True)
    return [a, b], lambda: _weigh(T.add(T.minimum(a, b), T.maximum(a, b)), 17)


def _scn_relu_abs_clamp_pow(rng):
    vals = rng.uniform(-1.6, 1.6, size=(4, 4))
    # keep every value a safe distance from the kinks at 0 and +-0.9
    for kink in (0.0, -0.9, 0.9):
        near = np.abs(vals - kink) < 2e-3
        vals = np.where(near, kink + 2e-3, vals)
    a = Tensor(vals, requires_grad=True)

    def fn():
        x = T.add(T.relu(a), T.absolute(a))
        x = T.add(x, T.clamp(a, -0.9, 0.9))
        x = T.add(x, T.pow_const(T.add_const(T.absolute(a), 0.1), 2.5))
        return _weigh(x, 19)

    return [a], fn


def _scn_sigmoid_exp_log(rng):
    a = _leaf(rng, (3, 4))
    return [a], lambda: _weigh(T.log(T.add_const(T.sigmoid(a), 0.1)), 23)


def _scn_layer_norm(rng):
    x = _leaf(rng, (4, 6))
    g = _leaf(rng, (1, 6), 0.5, 1.5)
    b = _leaf(rng, (1, 6), -0.5, 0.5)
    return [x, g, b], lambda: _weigh(T.layer_norm(x, g, b), 31)


def _scn_structural(rng):
    a = _leaf(rng, (5, 4))
    w = _leaf(rng, (4, 6))
    v = _leaf(rng, (1, 6))
    col_weights = np.random.default_rng(41).uniform(-1, 1, (4, 1))

    def fn():
        x = T.linear(a, w, v)
        x = T.add(T.slice_cols(x, 3, 6), T.slice_cols(x, 0, 3))
        x = T.gather_rows(x, [4, 0, 2, 2])  # repeated row exercises accumulation
        return T.sum_all(T.mul(T.sum_cols(x), T.constant(col_weights)))

    return [a, w, v], fn


def _scn_encoder(rng):
    patches = _fixed(rng, (4, 6), 0.0, 1.0)
    position = T.constant(sinusoidal_grid_encoding(2, 2, 4))
    w = _leaf(rng, (6, 4))
    b = _leaf(rng, (1, 4), -0.5, 0.5)
    g, beta = _fixed(rng, (1, 4), 0.5, 1.5), _fixed(rng, (1, 4), -0.5, 0.5)

    def fn():
        # as in decoder.encode: the patches need no gradient, so linear forms no adjoint for them
        memory = T.add(T.linear(patches, w, b), position)
        return _weigh(T.layer_norm(memory, g, beta), 83)

    return [w, b], fn


def _scn_self_attention(rng):
    x = _leaf(rng, (3, 8))
    proj = [(_leaf(rng, (8, 8)), _fixed(rng, (1, 8), -0.5, 0.5)) for _ in range(3)]

    def fn():
        # x reaches the loss four times: through q, k and v and through the residual
        q, k, v = (T.linear(x, w, b) for w, b in proj)
        return _weigh(T.add(x, T.attention(q, k, v, 4)), 89)

    return [x, *(w for w, _ in proj)], fn


def _scn_attention_bias(rng):
    q = _leaf(rng, (3, 4))
    k = _leaf(rng, (4, 4))
    v = _leaf(rng, (4, 4))
    bias = np.maximum(rng.uniform(size=(2, 2)), 1e-6)
    log_bias = CompositionPrior(bias=bias).flat_log_bias(np.float64)

    def fn():
        two_heads = _weigh(T.attention(q, k, v, 2, log_bias), 43)
        return T.add(two_heads, _weigh(T.attention(q, k, v, 1), 37))

    return [q, k, v], fn


def _scn_heads(rng):
    x = _leaf(rng, (3, 4))
    g, beta = _fixed(rng, (1, 4), 0.5, 1.5), _fixed(rng, (1, 4), -0.5, 0.5)
    wb, bb = _fixed(rng, (4, 4)), _fixed(rng, (1, 4), -0.5, 0.5)
    ws, bs = _fixed(rng, (4, 1)), _fixed(rng, (1, 1), -0.5, 0.5)

    def fn():
        # the final layer norm feeds the last box layer and the score head, each through a sigmoid
        decoded = T.layer_norm(x, g, beta)
        boxes = T.sigmoid(T.linear(decoded, wb, bb))
        scores = T.sigmoid(T.linear(decoded, ws, bs))
        return T.add(_weigh(boxes, 97), _weigh(scores, 101))

    return [x], fn


def _scn_iou_giou(rng):
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (3, 4))

    return [a, b], lambda: _weigh(giou_pairs(_mid_boxes(a), _mid_boxes(b)), 47)


def _scn_l1_pairs(rng):
    a = _leaf(rng, (3, 4))
    target = np.random.default_rng(59).uniform(0.2, 0.8, size=(3, 4))
    return [a], lambda: _weigh(l1_pairs(_mid_boxes(a), T.constant(target)), 61)


def _scn_focal(rng):
    a = _leaf(rng, (5, 1), -2.0, 2.0)
    targets = np.random.default_rng(67).uniform(0.0, 1.0, size=(5, 1))
    return [a], lambda: _weigh(focal_terms(T.sigmoid(a), targets, 2.0), 71)


def toy_config() -> ModelConfig:
    """A 413-parameter model small enough for exhaustive finite differences."""
    return ModelConfig(
        n_queries=3,
        n_layers=1,
        model_dim=4,
        n_heads=2,
        ffn_dim=8,
        grid_h=2,
        grid_w=2,
        in_channels=1,
        image_h=8,
        image_w=8,
    )


def _toy_fixture(rng, with_loss: bool):
    cfg = toy_config()
    state = init_state(cfg, seed=int(rng.integers(1 << 30)))
    # nudge every parameter off the symmetric init: with zero biases and a
    # 4-wide head, whole relu rows go dead and the next layer's
    # pre-activation sits exactly on the kink, where one-sided finite
    # differences disagree with the subgradient by construction
    with T.no_grad():
        for p in state.parameters():
            p.data += rng.uniform(0.02, 0.10, size=p.data.shape) * np.where(
                rng.random(p.data.shape) < 0.5, -1.0, 1.0
            )
    image = rng.uniform(0.0, 1.0, size=(1, 8, 8))
    prior = CompositionPrior(bias=np.maximum(rng.uniform(size=(2, 2)), 1e-6))
    if not with_loss:

        def fn():
            head = forward_train(image, prior, state)
            return T.add(_weigh(head.boxes, 73), _weigh(head.scores, 79))

        return state.parameters(), fn
    gts = [
        ScoredCrop(box=CropBox(0.42, 0.40, 0.30, 0.28), mos=4.6),
        ScoredCrop(box=CropBox(0.60, 0.62, 0.26, 0.24), mos=4.2),
        ScoredCrop(box=CropBox(0.30, 0.70, 0.20, 0.20), mos=2.8),
    ]
    w = LossWeights()
    with T.no_grad():
        frozen = assign(forward_train(image, prior, state).to_predictions(), gts, w)

    def fn():
        head = forward_train(image, prior, state)
        return training_loss(head, frozen, w)

    return state.parameters(), fn


SCENARIOS: dict[str, Callable] = {
    "elementwise": _scn_elementwise,
    "minmax": _scn_minmax,
    "relu_abs_clamp_pow": _scn_relu_abs_clamp_pow,
    "sigmoid_exp_log": _scn_sigmoid_exp_log,
    "layer_norm": _scn_layer_norm,
    "structural": _scn_structural,
    "encoder": _scn_encoder,
    "self_attention": _scn_self_attention,
    "attention_bias": _scn_attention_bias,
    "heads": _scn_heads,
    "iou_giou": _scn_iou_giou,
    "l1_pairs": _scn_l1_pairs,
    "focal": _scn_focal,
    "decoder_forward": functools.partial(_toy_fixture, with_loss=False),
    "training_loss": functools.partial(_toy_fixture, with_loss=True),
}


def _compare(params: list[Tensor], fn: Callable[[], Tensor], step: float) -> tuple[float, bool]:
    """Worst relative error over ``params``, NaN if a gradient holds one, and whether a probe crossed a kink."""
    T.backward(fn())
    # per call (last first), each probe row's param's first row in the call
    refs = [np.repeat(2 * np.searchsorted(owner, owner), 2) for owner, _ in _calls([p.data.size for p in params])][::-1]
    crossed = False

    def probe() -> Tensor:
        nonlocal crossed
        taken: list = []
        with T.branches(taken):
            loss = fn()
        # rank 3 means the op saw the probe rows, and a param's rows all take
        # its first row's branch unless some entry's stencil crosses a kink
        ref = refs.pop()
        crossed = crossed or any(b.ndim == 3 and bool((b != b[ref]).any()) for b in taken)
        return loss

    errors = [max_rel_error(p.grad, g) for p, g in zip(params, numeric_gradients(probe, params, step))]
    return float(np.max(errors)), crossed  # np.max, unlike max(), keeps a NaN


def run_check(name: str, seed: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """Build scenario ``name`` for ``seed`` and compare gradients.

    A draw whose difference stencil crosses a kink is replaced by the
    next draw from the same stream, up to ``_MAX_DRAWS`` draws in all.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    for _ in range(_MAX_DRAWS):
        worst, crossed = _compare(*SCENARIOS[name](rng), DEFAULT_STEP)
        if not crossed:
            break
    return CheckResult(name=name, seed=seed, max_error=worst, ok=worst < tol)


def run_all(seeds):
    """CheckResults for the cross product of every scenario and ``seeds``."""
    return [run_check(name, seed) for name in SCENARIOS for seed in seeds]
