"""Shared builders for randomized fixtures across the test modules."""
import ctypes
import sys
from pathlib import Path

import numpy as np

from croprank.decoder import Prediction
from croprank.geometry import CropBox, ScoredCrop, _corners_np, giou_matrix, iou_matrix
from croprank.metrics import EvalExample


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance scoreboard after output capture has ended."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = list(getattr(mod, "SCOREBOARD", ())) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def blas_key() -> str:
    """The numpy version, the BLAS build and the BLAS core in use: what decides the bytes of a float result.

    The core is the kernel set that a DYNAMIC_ARCH OpenBLAS picked for
    this CPU; it reads "unknown" where numpy bundles no scipy-openblas.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*"):
        dll = ctypes.CDLL(str(lib))  # numpy has it loaded already, so this is the instance in use
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(dll, name):
                getattr(dll, name).restype = ctypes.c_char_p
                core = getattr(dll, name)().decode()
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, core {core}"


def random_box(rng: np.random.Generator) -> CropBox:
    """A valid normalized box; may overhang the unit square pre-clamp."""
    w = float(rng.uniform(0.05, 0.9))
    h = float(rng.uniform(0.05, 0.9))
    return CropBox(
        cx=float(rng.uniform(0.0, 1.0)),
        cy=float(rng.uniform(0.0, 1.0)),
        w=w,
        h=h,
    )


def interior_box(rng: np.random.Generator) -> CropBox:
    """A box whose corners stay strictly inside the unit square."""
    w = float(rng.uniform(0.05, 0.5))
    h = float(rng.uniform(0.05, 0.5))
    return CropBox(
        cx=float(rng.uniform(w / 2.0, 1.0 - w / 2.0)),
        cy=float(rng.uniform(h / 2.0, 1.0 - h / 2.0)),
        w=w,
        h=h,
    )


def random_scored_crop(rng: np.random.Generator) -> ScoredCrop:
    return ScoredCrop(box=random_box(rng), mos=float(rng.uniform(1.0, 5.0)))


def random_eval_example(rng: np.random.Generator, n_preds: int, n_gts: int) -> EvalExample:
    preds = tuple(
        Prediction(box=random_box(rng), score=float(rng.uniform(0.0, 1.0))) for _ in range(n_preds)
    )
    gts = tuple(random_scored_crop(rng) for _ in range(n_gts))
    return EvalExample(predictions=preds, ground_truths=gts)


def box_iou(a: CropBox, b: CropBox) -> float:
    """IoU of two boxes: ``iou_matrix`` on one-row arrays."""
    return float(iou_matrix(a.as_array()[None], b.as_array()[None])[0, 0])


def box_giou(a: CropBox, b: CropBox) -> float:
    """Generalized IoU of two boxes: ``giou_matrix`` on one-row arrays."""
    return float(giou_matrix(a.as_array()[None], b.as_array()[None])[0, 0])


def box_corners(box: CropBox) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) of a box by ``geometry._corners_np``, the numpy path's corner rule."""
    return tuple(map(float, _corners_np(box.as_array())))


def l1_box(a: CropBox, b: CropBox) -> float:
    """L1 distance on the (cx, cy, w, h) parameterization itself (independent oracle)."""
    return abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h)


def random_ranking_baseline(examples, seed: int) -> list[EvalExample]:
    """Same predicted boxes, scores replaced by a random permutation ranking (criterion 7's baseline)."""
    rng = np.random.default_rng(seed)
    out = []
    for ex in examples:
        n = len(ex.predictions)
        ranks = rng.permutation(n)
        preds = tuple(
            Prediction(box=p.box, score=(float(ranks[i]) + 0.5) / n) for i, p in enumerate(ex.predictions)
        )
        out.append(EvalExample(predictions=preds, ground_truths=ex.ground_truths))
    return out


def naive_iou(a: CropBox, b: CropBox) -> float:
    """Scalar IoU written directly from the definition (independent oracle).

    Corners are clamped to the unit square, matching the documented
    conversion contract.
    """

    def corners(box):
        x1 = min(max(box.cx - box.w / 2.0, 0.0), 1.0)
        y1 = min(max(box.cy - box.h / 2.0, 0.0), 1.0)
        x2 = min(max(box.cx + box.w / 2.0, 0.0), 1.0)
        y2 = min(max(box.cy + box.h / 2.0, 0.0), 1.0)
        return x1, y1, x2, y2

    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union
