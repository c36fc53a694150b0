"""Composition heatmaps and the attention bias they induce.

Per-category activation maps are fused under the classifier's
probability vector, pooled down to the decoder's key grid, floored,
and log-transformed. The resulting additive bias steers cross
attention toward salient cells without touching the learned weights:
each head computes softmax(Q_h K_h^T / sqrt(d_h) + log B) V_h. This
module only builds priors; ``decoder.decode`` turns them into the one
log B array that the fused ``tensor.attention`` op adds to every
head's logits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadGrid, BadProbabilities, DimMismatch, DomainError

# canonical category order for probability vectors
COMPOSITION_CLASSES = (
    "rule_of_thirds",
    "center",
    "horizontal",
    "vertical",
    "symmetric",
    "diagonal",
    "curved",
    "triangle",
    "pattern",
)

N_CLASSES = len(COMPOSITION_CLASSES)

# bias floor applied before the log so empty cells stay finite
BIAS_FLOOR = 1e-6

FUSE_MODES = ("average", "max")


def normalize01(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; a constant map becomes all ones.

    The all-ones fallback makes a degenerate map act as a neutral
    attention bias (log 1 = 0) instead of poisoning the logits.
    """
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0.0:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


@dataclass(frozen=True)
class ActivationMap:
    """A single-channel saliency map with values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 2:
            raise DimMismatch("ActivationMap expects a rank-2 array")
        if v.size == 0:
            raise DimMismatch("ActivationMap is empty")
        # a NaN fails both comparisons and an infinity one, so only a map outside [0, 1] needs the finite scan
        if not (v.min() >= 0.0 and v.max() <= 1.0):
            if not np.all(np.isfinite(v)):
                raise DomainError("ActivationMap contains non-finite values")
            raise DomainError("ActivationMap values must lie in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class ClassProbabilities:
    """Probability over the nine composition categories; sums to one."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != N_CLASSES:
            raise BadProbabilities(f"expected {N_CLASSES} probabilities, got {len(vals)}")
        if any(not math.isfinite(v) or v < 0.0 or v > 1.0 for v in vals):
            raise BadProbabilities("probabilities must lie in [0, 1]")
        total = sum(vals)
        if abs(total - 1.0) > 1e-3:
            raise BadProbabilities(f"probabilities sum to {total}, expected 1 within 1e-3")

    def argmax(self) -> int:
        """Index of the largest probability; ties go to the lowest index."""
        return int(np.argmax(self.values))


@dataclass(frozen=True)
class CompositionPrior:
    """Floored, grid-shaped bias map plus its cached elementwise log."""

    bias: np.ndarray
    log_bias: np.ndarray = field(init=False)

    def __post_init__(self):
        b = self.bias
        if not isinstance(b, np.ndarray) or b.ndim != 2:
            raise DimMismatch("CompositionPrior expects a rank-2 bias")
        if b.min() < BIAS_FLOOR * (1.0 - 1e-12) or b.max() > 1.0:
            raise DomainError("bias values must lie in [floor, 1]")
        object.__setattr__(self, "log_bias", np.log(b))

    @property
    def grid_h(self) -> int:
        return self.bias.shape[0]

    @property
    def grid_w(self) -> int:
        return self.bias.shape[1]

    def flat_log_bias(self, dtype) -> np.ndarray:
        """(1, grid_h * grid_w) row for adding onto attention logits."""
        return self.log_bias.reshape(1, -1).astype(dtype)


def fuse_cams(cams, probs: ClassProbabilities, mode: str) -> ActivationMap:
    """Combine the nine per-category maps into one heatmap.

    "average": probability-weighted sum over all categories.
    "max": the single map of the most probable category.
    Both results are min-max normalized.
    """
    if mode not in FUSE_MODES:
        raise DomainError(f"fuse mode {mode!r} not one of {FUSE_MODES}")
    if len(cams) != N_CLASSES:
        raise DimMismatch(f"expected {N_CLASSES} activation maps, got {len(cams)}")
    shape = cams[0].shape
    for c in cams:
        if c.shape != shape:
            raise DimMismatch(f"activation map shapes differ: {c.shape} vs {shape}")
    if mode == "max":
        fused = cams[probs.argmax()].values
    else:
        fused = np.zeros(shape, dtype=np.float64)
        for p, c in zip(probs.values, cams):
            fused = fused + p * c.values
    return ActivationMap(values=normalize01(fused))


def resample_to_grid(amap: ActivationMap, grid_h: int, grid_w: int) -> ActivationMap:
    """Mean-pool a map down to (grid_h, grid_w) cells, then re-normalize.

    Cell boundaries use the floor partition; remainder rows/columns
    fold into the last cell. Upsampling is rejected. The full (bh, bw)
    blocks are one reshape and mean; only the cells of the last row or
    column that take a remainder are pooled one by one.
    """
    h, w = amap.shape
    if grid_h < 1 or grid_w < 1:
        raise BadGrid(f"grid ({grid_h}, {grid_w}) must be positive")
    if grid_h > h or grid_w > w:
        raise BadGrid(f"grid ({grid_h}, {grid_w}) finer than source map ({h}, {w})")
    v = amap.values
    bh, bw = h // grid_h, w // grid_w
    blocks = v[: grid_h * bh, : grid_w * bw].reshape(grid_h, bh, grid_w, bw).transpose(0, 2, 1, 3)
    # each block copied out contiguously: its mean then has the bytes of the mean of its own slice
    out = np.ascontiguousarray(blocks).reshape(grid_h, grid_w, bh * bw).mean(axis=2).astype(np.float64, copy=False)
    last_row = [(grid_h - 1, j) for j in range(grid_w)] if h % grid_h else []
    last_col = [(i, grid_w - 1) for i in range(grid_h)] if w % grid_w else []
    for i, j in last_row + last_col:
        r1 = h if i == grid_h - 1 else (i + 1) * bh
        c1 = w if j == grid_w - 1 else (j + 1) * bw
        out[i, j] = v[i * bh : r1, j * bw : c1].mean()
    return ActivationMap(values=normalize01(out))


def make_prior(amap: ActivationMap, floor: float = BIAS_FLOOR) -> CompositionPrior:
    """Floor a grid-shaped map at ``floor`` so its log stays finite."""
    if not (0.0 < floor < 1.0):
        raise DomainError(f"floor {floor} must lie in (0, 1)")
    bias = np.maximum(amap.values.astype(np.float64), floor)
    return CompositionPrior(bias=bias)

