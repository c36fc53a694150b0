"""Box representations, conversions, IoU/GIoU values and properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_iou, random_box
from croprank import tensor as T
from croprank.errors import Degenerate, DimMismatch, OutOfRange
from croprank.geometry import (
    CropBox,
    ScoredCrop,
    boxes_array,
    from_corners,
    giou,
    giou_matrix,
    giou_pairs,
    iou,
    iou_matrix,
    l1_box,
    l1_pairs,
    to_corners,
)
from croprank.tensor import Tensor

BOX = st.builds(
    CropBox,
    cx=st.floats(0.0, 1.0),
    cy=st.floats(0.0, 1.0),
    w=st.floats(0.01, 1.0),
    h=st.floats(0.01, 1.0),
)

INNER = st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45), st.floats(0.05, 0.45), st.floats(0.05, 0.45))


class TestCropBoxValidation:
    def test_rejects_zero_extent(self):
        with pytest.raises(Degenerate):
            CropBox(cx=0.5, cy=0.5, w=0.0, h=0.5)

    def test_rejects_out_of_range_center(self):
        with pytest.raises(Degenerate):
            CropBox(cx=1.5, cy=0.5, w=0.5, h=0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(Degenerate):
            CropBox(cx=float("nan"), cy=0.5, w=0.5, h=0.5)

    def test_scored_crop_mos_range(self):
        box = CropBox(cx=0.5, cy=0.5, w=0.5, h=0.5)
        assert ScoredCrop(box=box, mos=1.0).mos == 1.0
        assert ScoredCrop(box=box, mos=5.0).mos == 5.0
        with pytest.raises(OutOfRange):
            ScoredCrop(box=box, mos=5.1)
        with pytest.raises(OutOfRange):
            ScoredCrop(box=box, mos=0.9)


class TestCornerConversion:
    def test_full_image_box(self):
        assert to_corners(CropBox(0.5, 0.5, 1.0, 1.0)) == (0.0, 0.0, 1.0, 1.0)

    def test_quarter_box(self):
        assert to_corners(CropBox(0.25, 0.25, 0.5, 0.5)) == (0.0, 0.0, 0.5, 0.5)

    def test_overhang_clamped_only_at_conversion(self):
        b = CropBox(cx=0.05, cy=0.5, w=0.3, h=0.4)
        x1, y1, x2, y2 = to_corners(b)
        assert x1 == 0.0 and x2 == pytest.approx(0.2)
        assert b.cx == 0.05 and b.w == 0.3  # stored fields untouched

    def test_from_corners_rejects_inverted(self):
        with pytest.raises(Degenerate):
            from_corners(0.5, 0.1, 0.5, 0.9)
        with pytest.raises(Degenerate):
            from_corners(0.6, 0.1, 0.4, 0.9)

    def test_from_corners_rejects_out_of_range(self):
        with pytest.raises(Degenerate):
            from_corners(-0.1, 0.0, 0.5, 0.5)

    @given(INNER)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, quad):
        cx, cy, hw, hh = quad
        b = CropBox(cx=0.25 + cx, cy=0.25 + cy, w=hw, h=hh)
        rb = from_corners(*to_corners(b))
        for got, want in zip((rb.cx, rb.cy, rb.w, rb.h), (b.cx, b.cy, b.w, b.h)):
            assert abs(got - want) < 1e-12


class TestIoU:
    def test_self_is_one(self):
        b = CropBox(0.4, 0.6, 0.3, 0.2)
        assert iou(b, b) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_halves(self):
        left = from_corners(0.0, 0.0, 0.5, 1.0)
        right = from_corners(0.5, 0.0, 1.0, 1.0)
        assert iou(left, right) == 0.0

    def test_hand_oracle_one_seventh(self):
        a = from_corners(0.0, 0.0, 0.5, 0.5)
        b = from_corners(0.25, 0.25, 0.75, 0.75)
        assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-15)

    def test_matrix_matches_naive_scalar(self):
        rng = np.random.default_rng(10)
        boxes_a = [random_box(rng) for _ in range(8)]
        boxes_b = [random_box(rng) for _ in range(5)]
        mat = iou_matrix(boxes_array(boxes_a), boxes_array(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pytest.approx(naive_iou(a, b), abs=1e-12)

    def test_matrix_shape_check(self):
        with pytest.raises(DimMismatch):
            iou_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


class TestGIoU:
    def test_self_is_one(self):
        b = CropBox(0.4, 0.6, 0.3, 0.2)
        assert giou(b, b) == pytest.approx(1.0, abs=1e-15)

    def test_adjacent_halves_is_zero(self):
        left = from_corners(0.0, 0.0, 0.5, 1.0)
        right = from_corners(0.5, 0.0, 1.0, 1.0)
        # enclosing box equals the union, so giou == iou == 0
        assert giou(left, right) == pytest.approx(0.0, abs=1e-15)

    def test_hand_oracle_minus_half(self):
        a = from_corners(0.0, 0.0, 0.25, 1.0)
        b = from_corners(0.75, 0.0, 1.0, 1.0)
        assert giou(a, b) == pytest.approx(-0.5, abs=1e-15)

    def test_equals_iou_when_enclosing_equals_union(self):
        # dyadic corners keep the area arithmetic exact in floating point
        cases = [
            (CropBox(0.375, 0.625, 0.25, 0.25), CropBox(0.375, 0.625, 0.25, 0.25)),
            (from_corners(0.0, 0.0, 0.5, 1.0), from_corners(0.5, 0.0, 1.0, 1.0)),
            (from_corners(0.25, 0.25, 0.75, 0.75), from_corners(0.0, 0.0, 1.0, 1.0)),
        ]
        for a, b in cases:
            assert giou(a, b) == iou(a, b)

    def test_matrix_shape_check(self):
        with pytest.raises(DimMismatch):
            giou_matrix(np.zeros((2, 4)), np.zeros((2, 5)))


class TestL1:
    def test_self_is_zero(self):
        b = CropBox(0.4, 0.6, 0.3, 0.2)
        assert l1_box(b, b) == 0.0

    def test_uniform_offset(self):
        a = CropBox(0.3, 0.3, 0.3, 0.3)
        b = CropBox(0.4, 0.4, 0.4, 0.4)
        assert l1_box(a, b) == pytest.approx(0.4, abs=1e-15)


class TestPairProperties:
    @given(BOX, BOX)
    @settings(max_examples=300, deadline=None)
    def test_bounds_ordering_symmetry(self, a, b):
        i = iou(a, b)
        g = giou(a, b)
        assert 0.0 <= i <= 1.0
        assert -1.0 <= g <= 1.0
        assert g <= i + 1e-9
        assert abs(iou(b, a) - i) <= 1e-12
        assert abs(giou(b, a) - g) <= 1e-12

    @given(BOX, BOX, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
    @settings(max_examples=300, deadline=None)
    def test_translation_invariance(self, a, b, dx, dy):
        # keep every corner inside the unit square so the clamp is inert
        for box in (a, b):
            lo_x = box.w / 2.0 + 0.201
            lo_y = box.h / 2.0 + 0.201
            if box.w > 0.59 or box.h > 0.59:
                return
            if not (lo_x <= box.cx <= 1.0 - lo_x and lo_y <= box.cy <= 1.0 - lo_y):
                return
        sa = CropBox(a.cx + dx, a.cy + dy, a.w, a.h)
        sb = CropBox(b.cx + dx, b.cy + dy, b.w, b.h)
        assert abs(iou(sa, sb) - iou(a, b)) <= 1e-12
        assert abs(giou(sa, sb) - giou(a, b)) <= 1e-12


class TestDifferentiablePairs:
    def test_values_match_numpy_path(self):
        rng = np.random.default_rng(11)
        a = [random_box(rng) for _ in range(16)]
        b = [random_box(rng) for _ in range(16)]
        at = T.constant(boxes_array(a))
        bt = T.constant(boxes_array(b))
        giou_t = giou_pairs(at, bt).data[:, 0]
        l1_t = l1_pairs(at, bt).data[:, 0]
        for k in range(16):
            assert giou_t[k] == pytest.approx(giou(a[k], b[k]), abs=1e-12)
            assert l1_t[k] == pytest.approx(l1_box(a[k], b[k]), abs=1e-12)

    def test_matrix_diagonal_matches_pairs_on_degenerate_boxes(self):
        rng = np.random.default_rng(12)
        # random interior, overhanging (corners clamped to the unit square) and sub-1e-6 extents
        boxes = np.concatenate([
            np.column_stack([rng.uniform(0.2, 0.8, (8, 2)), rng.uniform(0.05, 0.5, (8, 2))]),
            np.column_stack([rng.uniform(0.0, 1.0, (8, 2)), rng.uniform(0.6, 1.0, (8, 2))]),
            np.column_stack([rng.uniform(0.1, 0.9, (8, 2)), rng.choice([1e-12, 1e-9, 5e-7, 0.3], (8, 2))]),
        ])
        a, b = boxes, boxes[rng.permutation(len(boxes))]
        pairs = giou_pairs(T.constant(a), T.constant(b)).data[:, 0]
        np.testing.assert_allclose(np.diag(giou_matrix(a, b)), pairs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leading_axis_equals_the_2d_calls_bit_for_bit(self, dtype):
        rng = np.random.default_rng(13)

        def draw(m):
            # interior, overhanging and sub-1e-6 extents, as in the diagonal test above
            return np.concatenate([
                np.column_stack([rng.uniform(0.2, 0.8, (m, 2)), rng.uniform(0.05, 0.5, (m, 2))]),
                np.column_stack([rng.uniform(0.0, 1.0, (m, 2)), rng.uniform(0.6, 1.0, (m, 2))]),
                np.column_stack([rng.uniform(0.1, 0.9, (m, 2)), rng.choice([1e-9, 5e-7, 0.3], (m, 2))]),
            ]).astype(dtype)

        a = np.stack([draw(5) for _ in range(7)])
        b = np.stack([draw(3) for _ in range(7)])
        for fn in (iou_matrix, giou_matrix):
            batched = fn(a, b)
            assert batched.shape == (7, 15, 9) and batched.dtype == dtype
            for k in range(7):
                assert batched[k].tobytes() == fn(a[k], b[k]).tobytes()
            with pytest.raises(DimMismatch):
                fn(a, b[:6])
            with pytest.raises(DimMismatch):
                fn(a, b[0])
            with pytest.raises(DimMismatch):
                fn(a[None], b[None])

    def test_tiny_extent_clamped_keeps_gradient_finite(self):
        a = Tensor(np.array([[0.5, 0.5, 1e-9, 0.3]]), requires_grad=True)
        b = T.constant(np.array([[0.5, 0.5, 0.3, 0.3]]))
        T.backward(T.sum_all(giou_pairs(a, b)))
        assert np.all(np.isfinite(a.grad))

    def test_shape_contract(self):
        with pytest.raises(DimMismatch):
            l1_pairs(T.zeros((2, 4)), T.zeros((3, 4)))
        with pytest.raises(DimMismatch):
            giou_pairs(T.zeros((2, 3)), T.zeros((2, 3)))
