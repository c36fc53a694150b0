"""Patch encoder, query decoder, and prediction heads.

The encoder is a deliberately small stand-in: non-overlapping patches
are flattened, linearly projected, and given a fixed 2-D sinusoidal
position encoding (position enters through the keys only; queries are
position-free learnable anchors). The decoder runs M pre-norm blocks
of query self-attention, bias-modulated cross-attention onto the
patch grid, and a feed-forward layer. Both attentions are multi-head:
each projects queries, keys and values once at full width and makes
one fused ``tensor.attention`` call, which splits the heads. ``decode``
is where the composition priors become a bias: it checks their grids
and builds one log-bias array per forward, which every
cross-attention adds to each head's logits. Two heads turn the final
query embeddings into (cx, cy, w, h) boxes and quality scores, both
through sigmoids. Every affine layer (patch projection, attention
projections, FFN and heads) is one ``tensor.linear`` op with a (1, n)
bias row.

``forward_train`` also takes a batch: a list of images and a list of
priors give (B, N, ·) heads in one recorded graph. Each image's values
are the bytes its own forward gives, and the anchor queries, with the
first self-attention block, are computed once for the whole batch.

Nothing before layer 0's cross-attention depends on the image, so a
forward that records no graph keeps that prefix on its ``ModelState``:
the (N, d) residual after self-attention and its LN2 output. The key
is the parameters it read: each one's ``data`` must be the same array
object, a view into ``ModelState.data``, and the run of
``ModelState.data`` that holds them must have the same bytes, which
write-through updates (Adam, ``sgd_step``, a checkpoint load) change.
A swapped-in array, such as the gradient probe's stacks, misses and
is not kept. A recording forward neither reads nor writes the memo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .composition import CompositionPrior
from .errors import BadShape, Degenerate, DimMismatch, NonFinite, ParseError
from .geometry import MIN_EXTENT, CropBox
from .tensor import Tensor


_KINDS = {"int": "an integer", "float": "a finite real number", "str": "a string",
          "tuple": "a non-empty list of integers >= 1"}


def _check_types(config, section: str) -> None:
    """Hold every field of a frozen config dataclass as its declared kind.

    An ``int`` field takes an int or an integral float and holds the int.
    A ``float`` field takes an int or a finite float and holds the float.
    A ``str`` field takes a string. A ``tuple`` field takes a non-empty
    list of ints of at least 1 and holds it as a tuple. A bool is none of
    these. The first field that does not fit is a ``ParseError`` whose
    ``field`` is the dotted name, such as ``train.lr``.
    """
    for f in fields(config):
        value, name, kind = getattr(config, f.name), f"{section}.{f.name}", f.type.partition("[")[0]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
            value = int(value)
        elif kind == "float" and number and math.isfinite(value):
            value = float(value)
        elif kind == "tuple" and isinstance(value, (list, tuple)) and value and all(
                type(v) is int and v >= 1 for v in value):
            value = tuple(value)
        elif kind != "str" or not isinstance(value, str):
            raise ParseError(f"{name} must be {_KINDS[kind]}, got {value!r}", field=name)
        object.__setattr__(config, f.name, value)


@dataclass(frozen=True)
class ModelConfig:
    """Shape hyperparameters for the encoder/decoder stack."""

    n_queries: int = 16
    n_layers: int = 2
    model_dim: int = 32
    n_heads: int = 4
    ffn_dim: int = 128
    grid_h: int = 8
    grid_w: int = 8
    epsilon_b: float = 1e-6
    in_channels: int = 3
    image_h: int = 64
    image_w: int = 64

    def __post_init__(self):
        _check_types(self, "model")
        if self.n_queries < 1:
            raise DimMismatch(f"n_queries must be >= 1, got {self.n_queries}")
        # n_layers == 0 is a degenerate configuration allowed for tests;
        # operational configs use >= 1
        if self.n_layers < 0:
            raise DimMismatch(f"n_layers must be >= 0, got {self.n_layers}")
        if self.n_heads < 1:
            raise DimMismatch(f"n_heads must be >= 1, got {self.n_heads}")
        if self.model_dim < 1 or self.model_dim % self.n_heads != 0:
            raise DimMismatch(f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}")
        if self.model_dim % 4 != 0:
            raise DimMismatch(f"model_dim {self.model_dim} must be divisible by 4 for the 2-D position encoding")
        if self.grid_h < 1 or self.grid_w < 1:
            raise DimMismatch(f"grid_h and grid_w must be positive, got ({self.grid_h}, {self.grid_w})")
        if self.image_h % self.grid_h != 0 or self.image_w % self.grid_w != 0:
            raise BadShape(f"image_h, image_w ({self.image_h}, {self.image_w}) not divisible by "
                           f"grid_h, grid_w ({self.grid_h}, {self.grid_w})")
        if self.ffn_dim < 1 or self.in_channels < 1:
            raise DimMismatch("ffn_dim and in_channels must be positive")

    @property
    def n_cells(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def patch_h(self) -> int:
        return self.image_h // self.grid_h

    @property
    def patch_w(self) -> int:
        return self.image_w // self.grid_w

    @property
    def patch_dim(self) -> int:
        return self.in_channels * self.patch_h * self.patch_w

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads


@dataclass(frozen=True)
class Prediction:
    """One decoded crop candidate with its quality score."""

    box: CropBox
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise Degenerate(f"score {self.score} outside [0, 1]")


@dataclass
class HeadOutputs:
    """Raw head tensors kept differentiable for the training loss."""

    boxes: Tensor  # (N, 4) cxcywh, each in (0, 1); (B, N, 4) for a batch
    scores: Tensor  # (N, 1) in (0, 1); (B, N, 1) for a batch

    def entry(self, index: int) -> "HeadOutputs":
        """Batch entry ``index`` as detached (N, ·) constants."""
        return HeadOutputs(boxes=T.constant(self.boxes.data[index]), scores=T.constant(self.scores.data[index]))

    def to_predictions(self) -> list[Prediction]:
        """Detach one image's rows into Prediction values, after ``check_heads``."""
        b = self.boxes.data
        s = self.scores.data
        if b.ndim != 2:
            raise DimMismatch(f"to_predictions takes one image's (N, 4) boxes, got {b.shape}; use entry()")
        check_heads(b, s)
        return [Prediction(box=CropBox(*row), score=score) for row, (score,) in zip(b.tolist(), s.tolist())]


# per-field bounds of a box row (cx, cy, w, h), in float64 so that float32 rows compare as the floats they hold
_BOX_LOWER = np.array([0.0, 0.0, MIN_EXTENT, MIN_EXTENT])
_BOX_UPPER = np.ones(4)


def check_heads(boxes: np.ndarray, scores: np.ndarray) -> None:
    """Reject head rows that are not valid predictions, without building any object.

    ``boxes`` is (N, 4) or (B, N, 4) and ``scores`` (N, 1) or (B, N, 1).
    The rules are those of ``Prediction`` and ``CropBox``, plus the
    ``MIN_EXTENT`` floor on w and h. The first bad row, in
    image then row order, raises: ``NonFinite`` when a field is NaN or
    infinite, else ``Degenerate``. The message names the row, and the
    image when there is a leading axis.
    """
    rows, values = boxes.reshape(-1, 4), scores.reshape(-1)
    ok = ((rows >= _BOX_LOWER) & (rows <= _BOX_UPPER)).all(axis=1) & (values >= 0.0) & (values <= 1.0)
    if ok.all():
        return
    first = int(np.argmin(ok))
    image, row = divmod(first, boxes.shape[-2])
    where = f"image {image} prediction {row}" if boxes.ndim == 3 else f"prediction {row}"
    (cx, cy, w, h), score = rows[first].tolist(), float(values[first])
    if not all(math.isfinite(v) for v in (cx, cy, w, h, score)):
        raise NonFinite(f"{where} has non-finite values: box ({cx}, {cy}, {w}, {h}), score {score}")
    if w < MIN_EXTENT or h < MIN_EXTENT:
        raise Degenerate(f"{where} has near-zero extent ({w}, {h})")
    try:
        Prediction(box=CropBox(cx=cx, cy=cy, w=w, h=h), score=score)
    except Degenerate as e:
        raise Degenerate(f"{where}: {e}") from None


def sinusoidal_grid_encoding(grid_h: int, grid_w: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed 2-D sin/cos position codes, one row per grid cell.

    Half the channels encode the row index, half the column index,
    with the classic 10000^(2i/half) frequency ladder. Rows are laid
    out in row-major cell order to match patch extraction.
    """
    if dim % 4 != 0:
        raise DimMismatch(f"position encoding dim {dim} must be divisible by 4")
    half = dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(0, half, 2, dtype=np.float64) / half))
    ys, xs = np.meshgrid(np.arange(grid_h, dtype=np.float64), np.arange(grid_w, dtype=np.float64), indexing="ij")
    pos = np.zeros((grid_h * grid_w, dim), dtype=np.float64)
    for axis, coord in enumerate((ys.reshape(-1), xs.reshape(-1))):
        angles = coord[:, None] * freqs[None, :]
        base = axis * half
        pos[:, base : base + half : 2] = np.sin(angles)
        pos[:, base + 1 : base + half : 2] = np.cos(angles)
    return pos.astype(dtype)


class ModelState:
    """Named parameter store for one encoder/decoder instance.

    ``data`` and ``grad`` are zeroed flat vectors of every parameter's
    values and gradient, in ``shapes`` order; each parameter's ``data``
    and ``grad`` are C-contiguous views into them, written in place.
    """

    def __init__(self, config: ModelConfig, shapes: dict[str, tuple[int, int]], dtype: np.dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(sum(math.prod(shape) for shape in shapes.values()), self.dtype)
        self.grad = np.zeros_like(self.data)
        self.params: dict[str, Tensor] = {}
        at = 0
        for name, shape in shapes.items():
            end = at + math.prod(shape)
            self.params[name] = T.parameter(self.data[at:end].reshape(shape), self.grad[at:end].reshape(shape))
            at = end
        self.position = T.constant(sinusoidal_grid_encoding(config.grid_h, config.grid_w, config.model_dim, dtype))
        self._prefix: _Prefix | None = None  # decode's layer-0 memo

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]


def init_state(config: ModelConfig, seed: int = 0, dtype=np.float64) -> ModelState:
    """Xavier-uniform weights, zero biases, unit layer-norm gains, drawn straight into the flat vector."""
    d, f = config.model_dim, config.ffn_dim
    shapes = {"enc.proj.w": (config.patch_dim, d), "enc.proj.b": (1, d), "query.embed": (config.n_queries, d)}
    for i in range(config.n_layers):
        for ln in ("ln1", "ln2", "ln3"):
            shapes[f"layer{i}.{ln}.g"] = shapes[f"layer{i}.{ln}.b"] = (1, d)
        for attn in ("self", "cross"):
            for proj in "qkvo":
                shapes[f"layer{i}.{attn}.w{proj}"], shapes[f"layer{i}.{attn}.b{proj}"] = (d, d), (1, d)
        shapes[f"layer{i}.ffn.w1"], shapes[f"layer{i}.ffn.b1"] = (d, f), (1, f)
        shapes[f"layer{i}.ffn.w2"], shapes[f"layer{i}.ffn.b2"] = (f, d), (1, d)
    shapes["final_ln.g"] = shapes["final_ln.b"] = (1, d)
    for j, fo in enumerate((d, d, 4), start=1):
        shapes[f"box.w{j}"], shapes[f"box.b{j}"] = (d, fo), (1, fo)
    shapes["score.w"], shapes["score.b"] = (d, 1), (1, 1)
    state = ModelState(config, shapes, dtype)
    rng = np.random.default_rng(seed)
    for name, p in state.params.items():
        kind = name.rsplit(".", 1)[1][0]  # w: weight, e: query embedding, g: gain, b: bias (stays zero)
        if kind in "we":
            p.data[...] = T.xavier_uniform(rng, *p.data.shape)
        elif kind == "g":
            p.data[...] = 1.0
    return state


def patch_matrix(image: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Flatten an image into its (n_cells, patch_dim) row-major patch matrix."""
    c, h, w = config.in_channels, config.image_h, config.image_w
    if image.shape != (c, h, w):
        raise BadShape(f"image shape {image.shape} != configured ({c}, {h}, {w})")
    ph, pw = config.patch_h, config.patch_w
    patches = image.reshape(c, config.grid_h, ph, config.grid_w, pw)
    patches = patches.transpose(1, 3, 0, 2, 4).reshape(config.n_cells, config.patch_dim)
    return np.ascontiguousarray(patches)


def encode(image: np.ndarray | list, state: ModelState) -> Tensor:
    """Patch-embed an image into (n_cells, d) key/value memory; a list of images gives (B, n_cells, d)."""
    if isinstance(image, list):
        patches = np.stack([patch_matrix(np.asarray(im, dtype=state.dtype), state.config) for im in image])
    else:
        patches = patch_matrix(np.asarray(image, dtype=state.dtype), state.config)
    content = T.linear(T.constant(patches), state["enc.proj.w"], state["enc.proj.b"])
    return T.add(content, state.position)


def _multi_head_attention(
    state: ModelState,
    prefix: str,
    queries: Tensor,
    memory: Tensor,
    log_bias: np.ndarray | None,
    weights_out: list | None,
) -> Tensor:
    q = T.linear(queries, state[f"{prefix}.wq"], state[f"{prefix}.bq"])
    k = T.linear(memory, state[f"{prefix}.wk"], state[f"{prefix}.bk"])
    v = T.linear(memory, state[f"{prefix}.wv"], state[f"{prefix}.bv"])
    merged = T.attention(q, k, v, state.config.n_heads, log_bias, weights_out)
    return T.linear(merged, state[f"{prefix}.wo"], state[f"{prefix}.bo"])


def _self_block(state: ModelState, i: int, x: Tensor) -> tuple[Tensor, Tensor]:
    """x += SelfAttn(LN1(x)) of layer i: the new x and its LN2 output, which the cross-attention reads."""
    normed = T.layer_norm(x, state[f"layer{i}.ln1.g"], state[f"layer{i}.ln1.b"])
    x = T.add(x, _multi_head_attention(state, f"layer{i}.self", normed, normed, None, None))
    return x, T.layer_norm(x, state[f"layer{i}.ln2.g"], state[f"layer{i}.ln2.b"])


# what layer 0's self block reads; in init_state's order they and layer 0's ln3 fill one run of ModelState.data
_PREFIX = ("query.embed", *(f"layer0.{ln}.{p}" for ln in ("ln1", "ln2") for p in "gb"),
           *(f"layer0.self.{kind}{proj}" for proj in "qkvo" for kind in "wb"))


@dataclass(frozen=True)
class _Prefix:
    arrays: tuple  # each _PREFIX parameter's data when the memo was made
    span: slice  # the run of ModelState.data that holds them all
    bits: bytes  # that run's bytes then
    x: Tensor
    normed: Tensor


def _layer0_prefix(state: ModelState) -> tuple[Tensor, Tensor]:
    """``_self_block`` of layer 0 on the anchor queries, kept between calls that record no graph.

    Nothing in it depends on the image. Outside recording the result
    is kept on the state, and given again while every parameter it
    read is the same array holding the same bits.
    """
    recording, arrays, memo = T.recording(), tuple(state[name].data for name in _PREFIX), state._prefix
    if (not recording and memo is not None and all(a is b for a, b in zip(arrays, memo.arrays))
            and state.data[memo.span].tobytes() == memo.bits):
        return memo.x, memo.normed
    x, normed = _self_block(state, 0, state["query.embed"])
    # a swapped-in array (the gradient probe's stacks) is no view of the flat vector; such a result is not kept
    if not recording and all(a.base is state.data for a in arrays):
        starts = [(a.ctypes.data - state.data.ctypes.data) // state.dtype.itemsize for a in arrays]
        span = slice(min(starts), max(at + a.size for at, a in zip(starts, arrays)))
        state._prefix = _Prefix(arrays, span, state.data[span].tobytes(), x, normed)
    return x, normed


def decode(
    memory: Tensor,
    prior: CompositionPrior | None | list,
    state: ModelState,
    attention_out: list | None = None,
) -> Tensor:
    """Refine the N anchor queries against the encoded grid.

    Pre-norm blocks: x += SelfAttn(LN(x)); x += CrossAttn(LN(x), E)
    with the composition bias added to every head's scaled logits;
    x += FFN(LN(x)). The prior becomes one log-bias array, in memory's
    dtype, that every layer and head shares: a (1, n_cells) row, or
    for a (B, n_cells, d) memory and a list of B priors a (B, 1,
    n_cells) stack, where a None entry is a zero row (log 1 = 0).
    ``attention_out`` collects one (n_heads, N, n_cells) array per
    layer of cross-attention weights ((n_heads, B, N, n_cells) for a
    batch).
    """
    cfg = state.config
    if T.matrix_dims(memory) != (cfg.n_cells, cfg.model_dim):
        raise DimMismatch(f"memory {memory.dims} != ({cfg.n_cells}, {cfg.model_dim})")
    priors = prior if isinstance(prior, list) else [prior]
    for p in priors:
        if p is not None and (p.grid_h, p.grid_w) != (cfg.grid_h, cfg.grid_w):
            raise DimMismatch(f"prior grid ({p.grid_h}, {p.grid_w}) != configured ({cfg.grid_h}, {cfg.grid_w})")
    log_bias = None
    if any(p is not None for p in priors):
        dtype = memory.data.dtype
        rows = [np.zeros((1, cfg.n_cells), dtype) if p is None else p.flat_log_bias(dtype) for p in priors]
        log_bias = np.stack(rows) if isinstance(prior, list) else rows[0]
    x = state["query.embed"]
    for i in range(cfg.n_layers):
        x, normed = _layer0_prefix(state) if i == 0 else _self_block(state, i, x)
        x = T.add(x, _multi_head_attention(state, f"layer{i}.cross", normed, memory, log_bias, attention_out))
        normed = T.layer_norm(x, state[f"layer{i}.ln3.g"], state[f"layer{i}.ln3.b"])
        ffn = T.linear(T.relu(T.linear(normed, state[f"layer{i}.ffn.w1"], state[f"layer{i}.ffn.b1"])),
                       state[f"layer{i}.ffn.w2"], state[f"layer{i}.ffn.b2"])
        x = T.add(x, ffn)
    if cfg.n_layers == 0:
        return x
    return T.layer_norm(x, state["final_ln.g"], state["final_ln.b"])


def predict_heads(decoded: Tensor, state: ModelState) -> HeadOutputs:
    """Box head: 3-layer FFN + sigmoid; score head: linear + sigmoid."""
    h = T.relu(T.linear(decoded, state["box.w1"], state["box.b1"]))
    h = T.relu(T.linear(h, state["box.w2"], state["box.b2"]))
    boxes = T.sigmoid(T.linear(h, state["box.w3"], state["box.b3"]))
    scores = T.sigmoid(T.linear(decoded, state["score.w"], state["score.b"]))
    return HeadOutputs(boxes=boxes, scores=scores)


def forward_train(
    image: np.ndarray | list,
    prior: CompositionPrior | None | list,
    state: ModelState,
    attention_out: list | None = None,
) -> HeadOutputs:
    """encode -> decode -> heads with the graph kept for backward.

    Lists of B images and B priors give (B, N, ·) heads.
    """
    memory = encode(image, state)
    decoded = decode(memory, prior, state, attention_out=attention_out)
    return predict_heads(decoded, state)


def forward(image: np.ndarray, prior: CompositionPrior | None, state: ModelState) -> list[Prediction]:
    """Inference-only pass; deterministic given weights and input."""
    with T.no_grad():
        return forward_train(image, prior, state).to_predictions()
