"""Axis-aligned crop boxes in normalized image coordinates.

Boxes are carried as (cx, cy, w, h) with centers in [0, 1] and extents
in (0, 1]; corner form is derived on demand and clamped to the unit
square at conversion. Two parallel implementations exist on purpose:
a plain-numpy path for costs and metrics, whose matrices also take a
leading batch axis, and a tensor path used inside differentiable
losses. Both derive corners by one rule: extents are clamped to
[1e-6, 1] first (so gradients stay bounded), and the corners then to
the unit square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import Degenerate, DimMismatch, OutOfRange
from .tensor import Tensor

# floor applied to w/h before corners are derived, in both paths
MIN_EXTENT = 1e-6


@dataclass(frozen=True)
class CropBox:
    """One candidate crop: center (cx, cy), width w, height h, all normalized."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise Degenerate(f"box has non-finite fields: {vals}")
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise Degenerate(f"box center ({self.cx}, {self.cy}) outside [0, 1]")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise Degenerate(f"box extent ({self.w}, {self.h}) outside (0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True)
class ScoredCrop:
    """A crop with a mean-opinion score on the 1..5 scale."""

    box: CropBox
    mos: float

    def __post_init__(self):
        if not (math.isfinite(self.mos) and 1.0 <= self.mos <= 5.0):
            raise OutOfRange(f"mos {self.mos} outside [1, 5]")


def to_corners(box: CropBox) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2), clamped to the unit square."""
    x1 = min(max(box.cx - box.w / 2.0, 0.0), 1.0)
    y1 = min(max(box.cy - box.h / 2.0, 0.0), 1.0)
    x2 = min(max(box.cx + box.w / 2.0, 0.0), 1.0)
    y2 = min(max(box.cy + box.h / 2.0, 0.0), 1.0)
    return x1, y1, x2, y2


def from_corners(x1: float, y1: float, x2: float, y2: float) -> CropBox:
    for v in (x1, y1, x2, y2):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise Degenerate(f"corner {v} outside [0, 1]")
    if not (x1 < x2 and y1 < y2):
        raise Degenerate(f"corners ({x1}, {y1}, {x2}, {y2}) have non-positive extent")
    return CropBox(cx=(x1 + x2) / 2.0, cy=(y1 + y2) / 2.0, w=x2 - x1, h=y2 - y1)


def boxes_array(boxes) -> np.ndarray:
    """Stack CropBoxes into an (m, 4) cxcywh array."""
    return np.array([[b.cx, b.cy, b.w, b.h] for b in boxes], dtype=np.float64).reshape(-1, 4)


def _corners_np(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    center = boxes[..., :2]
    half = np.clip(boxes[..., 2:], MIN_EXTENT, 1.0) / 2.0
    lo = np.clip(center - half, 0.0, 1.0)
    hi = np.clip(center + half, 0.0, 1.0)
    return lo[..., 0], lo[..., 1], hi[..., 0], hi[..., 1]


def _overlap_np(a: np.ndarray, b: np.ndarray, op: str):
    """Pairwise intersection and union of (m, 4) vs (n, 4) cxcywh arrays, plus both corner sets.

    (B, m, 4) vs (B, n, 4) pairs the boxes of each leading entry and gives (B, m, n).
    """
    if not (a.ndim == b.ndim in (2, 3) and a.shape[:-2] == b.shape[:-2] and a.shape[-1] == b.shape[-1] == 4):
        raise DimMismatch(f"{op} expects (m, 4) and (n, 4), or (B, m, 4) and (B, n, 4); got {a.shape} and {b.shape}")
    ax1, ay1, ax2, ay2 = ca = _corners_np(a)
    bx1, by1, bx2, by2 = cb = _corners_np(b)
    iw = np.maximum(0.0, np.minimum(ax2[..., None], bx2[..., None, :])
                    - np.maximum(ax1[..., None], bx1[..., None, :]))
    ih = np.maximum(0.0, np.minimum(ay2[..., None], by2[..., None, :])
                    - np.maximum(ay1[..., None], by1[..., None, :]))
    inter = iw * ih
    area_a = ((ax2 - ax1) * (ay2 - ay1))[..., None]
    area_b = ((bx2 - bx1) * (by2 - by1))[..., None, :]
    return inter, area_a + area_b - inter, ca, cb


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (m, 4) vs (n, 4) cxcywh arrays -> (m, n); (B, m, 4) vs (B, n, 4) -> (B, m, n)."""
    inter, union, _, _ = _overlap_np(a, b, "iou_matrix")
    return inter / union


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise generalized IoU of (m, 4) vs (n, 4) cxcywh arrays -> (m, n); (B, m, 4) vs (B, n, 4) -> (B, m, n)."""
    inter, union, (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = _overlap_np(a, b, "giou_matrix")
    ew = np.maximum(ax2[..., None], bx2[..., None, :]) - np.minimum(ax1[..., None], bx1[..., None, :])
    eh = np.maximum(ay2[..., None], by2[..., None, :]) - np.minimum(ay1[..., None], by1[..., None, :])
    enclose = ew * eh
    return inter / union - (enclose - union) / enclose


def iou(a: CropBox, b: CropBox) -> float:
    return float(iou_matrix(a.as_array()[None, :], b.as_array()[None, :])[0, 0])


def giou(a: CropBox, b: CropBox) -> float:
    return float(giou_matrix(a.as_array()[None, :], b.as_array()[None, :])[0, 0])


def l1_box(a: CropBox, b: CropBox) -> float:
    """L1 distance on the (cx, cy, w, h) parameterization itself."""
    return abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h)


# -- differentiable pairs (row i of a vs row i of b) ----------------------------


def _corners_t(boxes: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    if T.matrix_dims(boxes)[1] != 4:
        raise DimMismatch(f"expected (m, 4) box tensor, got {boxes.dims}")
    cx = T.slice_cols(boxes, 0, 1)
    cy = T.slice_cols(boxes, 1, 2)
    w = T.clamp(T.slice_cols(boxes, 2, 3), MIN_EXTENT, 1.0)
    h = T.clamp(T.slice_cols(boxes, 3, 4), MIN_EXTENT, 1.0)
    half_w = T.scale(w, 0.5)
    half_h = T.scale(h, 0.5)
    x1 = T.clamp(T.sub(cx, half_w), 0.0, 1.0)
    y1 = T.clamp(T.sub(cy, half_h), 0.0, 1.0)
    x2 = T.clamp(T.add(cx, half_w), 0.0, 1.0)
    y2 = T.clamp(T.add(cy, half_h), 0.0, 1.0)
    return x1, y1, x2, y2


def giou_pairs(a: Tensor, b: Tensor) -> Tensor:
    """Row-aligned generalized IoU: (m, 4) x (m, 4) -> (m, 1), differentiable."""
    ax1, ay1, ax2, ay2 = _corners_t(a)
    bx1, by1, bx2, by2 = _corners_t(b)
    iw = T.relu(T.sub(T.minimum(ax2, bx2), T.maximum(ax1, bx1)))
    ih = T.relu(T.sub(T.minimum(ay2, by2), T.maximum(ay1, by1)))
    inter = T.mul(iw, ih)
    area_a = T.mul(T.sub(ax2, ax1), T.sub(ay2, ay1))
    area_b = T.mul(T.sub(bx2, bx1), T.sub(by2, by1))
    union = T.sub(T.add(area_a, area_b), inter)
    ew = T.sub(T.maximum(ax2, bx2), T.minimum(ax1, bx1))
    eh = T.sub(T.maximum(ay2, by2), T.minimum(ay1, by1))
    enclose = T.mul(ew, eh)
    return T.sub(T.div(inter, union), T.div(T.sub(enclose, union), enclose))


def l1_pairs(a: Tensor, b: Tensor) -> Tensor:
    """Row-aligned L1 on raw (cx, cy, w, h): (m, 4) x (m, 4) -> (m, 1)."""
    if T.matrix_dims(a) != T.matrix_dims(b) or T.matrix_dims(a)[1] != 4:
        raise DimMismatch(f"l1_pairs expects matching (m, 4) tensors, got {a.dims} and {b.dims}")
    return T.sum_cols(T.absolute(T.sub(a, b)))
