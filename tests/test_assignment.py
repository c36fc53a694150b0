"""Target selection, optimal matching, and the role-dependent training loss."""
import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from croprank import assignment as assignment_module
from croprank import tensor as T
from croprank.assignment import (
    MATCHED,
    NEGATIVE,
    SOFT,
    Assignment,
    LossWeights,
    TrainExample,
    _cost_stack,
    _crop_arrays,
    _focal_np,
    _match,
    _shortest_paths,
    assign,
    assign_batch,
    focal_terms,
    hungarian,
    train_step,
    training_loss,
)
from croprank.cli import build_prior
from croprank.dataio import generate_synthetic
from croprank.decoder import HeadOutputs, ModelConfig, Prediction, forward_train, init_state
from croprank.errors import (
    CardinalityMismatch,
    Degenerate,
    DimMismatch,
    DomainError,
    NonFinite,
    NonSquare,
    OutOfRange,
)
from croprank.gradcheck import toy_config
from croprank.geometry import (
    CropBox,
    ScoredCrop,
    boxes_array,
    giou_matrix,
    giou_pairs,
    iou_matrix,
    l1_pairs,
)
from croprank.tensor import Tensor

from conftest import box_giou, box_iou, l1_box

W = LossWeights()


def normalize_mos(s: float) -> float:
    """The oracle's target score: the 1..5 opinion scale onto [0, 1] linearly, (s - 1) / 4."""
    if not (1.0 <= s <= 5.0):
        raise OutOfRange(f"mos {s} outside [1, 5]")
    return (s - 1.0) / 4.0


def _crop(cx, cy, w, h, mos):
    return ScoredCrop(box=CropBox(cx=cx, cy=cy, w=w, h=h), mos=mos)


def _brute_force_perms(cost: np.ndarray):
    """All optimal assignments of a small square matrix, sorted."""
    n = cost.shape[0]
    best = math.inf
    winners = []
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best - 1e-12:
            best = total
            winners = [perm]
        elif abs(total - best) <= 1e-12:
            winners.append(perm)
    return best, sorted(winners)


def reference_shortest_paths(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference: one (n, m) problem, n <= m, solved on its own, one augmenting path per row.

    Returns (col_of_row, u, v): the column of each row and the dual
    potentials of the rows and columns.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    assigned_row = np.zeros(m + 1, dtype=np.int64)  # per column, 0 = free
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        assigned_row[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = assigned_row[j0]
            free = ~used[1:]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[assigned_row[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if assigned_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1
    col_of_row = np.zeros(n, dtype=np.int64)
    for j in range(1, m + 1):
        if assigned_row[j] > 0:
            col_of_row[assigned_row[j] - 1] = j - 1
    return col_of_row, u[1:], v[1:]


def reference_hungarian(costs: np.ndarray, accepted: list | None = None) -> np.ndarray:
    """Reference: the tie pass that rebuilds its candidates and trial arrays for every row and trial.

    ``accepted`` collects (row, column) for every sub-solve that replaced the match.
    """
    arr = np.asarray(costs, dtype=np.float64)
    n = arr.shape[0]
    is_pad = np.all(arr == arr[:, -1:], axis=0)
    g = n - int(np.argmin(np.append(is_pad[::-1], False)))
    real = arr[:, :g] - arr[:, -1:]
    match = np.full(n, -1, dtype=np.int64)
    if g:
        col_rows, u, v = reference_shortest_paths(real.T)
        match[col_rows] = np.arange(g)
        rows = np.arange(n)
        total = float(arr[rows, match].sum())
        tol = 1e-7 * max(1.0, float(np.abs(arr).max()))
        available = np.ones(g, dtype=bool)
        for i in range(n):
            below = g if match[i] < 0 else match[i]
            reduced = real[i, :below] - u[:below] - v[i]
            for j in np.nonzero(available[:below] & (reduced <= tol))[0]:
                rest = np.nonzero(available)[0]
                rest = rest[rest != j]
                trial = match.copy()
                trial[i] = j
                trial[i + 1 :] = -1
                sub_rows, _, _ = reference_shortest_paths(real[i + 1 :, rest].T)
                trial[i + 1 + sub_rows] = rest
                trial_total = float(arr[rows, trial].sum())
                if trial_total <= total:
                    match, total = trial, trial_total
                    if accepted is not None:
                        accepted.append((i, int(j)))
                    break
            if match[i] >= 0:
                available[match[i]] = False
    match[match < 0] = np.arange(g, n)
    return match


def reference_cost_matrix(preds: list, good: list, w: LossWeights) -> np.ndarray:
    """Reference: one image's padded cost matrix built from its Prediction and ScoredCrop objects."""
    n, g = len(preds), len(good)
    pred_boxes = boxes_array([p.box for p in preds])
    scores = np.array([p.score for p in preds], dtype=np.float64)
    costs = np.empty((n, n), dtype=np.float64)
    costs[:, g:] = (w.focal_weight * _focal_np(scores, 0.0, w.focal_gamma))[:, None]
    if g:
        tgt_boxes = boxes_array([t.box for t in good])
        v = np.array([normalize_mos(t.mos) for t in good], dtype=np.float64)
        l1 = np.abs(pred_boxes[:, None, :] - tgt_boxes[None, :, :]).sum(axis=2)
        gi = giou_matrix(pred_boxes, tgt_boxes)
        fo = _focal_np(scores[:, None], v[None, :], w.focal_gamma)
        costs[:, :g] = l1 + w.giou_weight * (1.0 - gi) + w.focal_weight * fo
    return costs


def reference_assign(preds: list, ground_truths: list, w: LossWeights) -> tuple[Assignment, np.ndarray]:
    """Reference: one image's assignment, row by row over its objects; also returns its cost matrix."""
    n = len(preds)
    good_indices = tuple(i for i, g in enumerate(ground_truths) if g.mos >= 4.0)
    costs = reference_cost_matrix(preds, [ground_truths[i] for i in good_indices], w)
    perm = reference_hungarian(costs)
    if ground_truths:
        ious = iou_matrix(boxes_array([p.box for p in preds]), boxes_array([g.box for g in ground_truths]))
    else:
        ious = np.zeros((n, 0))
    roles, score, box = np.full(n, NEGATIVE), np.zeros(n), np.zeros((n, 4))
    for i in range(n):
        col = int(perm[i])
        if col < len(good_indices):
            target = ground_truths[good_indices[col]]
            roles[i], score[i], box[i] = MATCHED, normalize_mos(target.mos), boxes_array([target.box])[0]
            continue
        if ious.shape[1]:
            neighbor = int(np.argmax(ious[i]))
            overlap = float(ious[i, neighbor])
            if overlap >= w.soft_iou_threshold:
                roles[i], score[i] = SOFT, normalize_mos(ground_truths[neighbor].mos) * overlap
    return Assignment(roles=roles, score=score, box=box, good_indices=good_indices), costs


def _matched_index(a: Assignment, crops: list, i: int) -> int:
    """The index in ``crops`` of the good crop that row ``i`` of ``a`` is matched to: the one whose box it holds."""
    [k] = [k for k in a.good_indices if a.box[i].tolist() == boxes_array([crops[k].box])[0].tolist()]
    return k


def assert_same_assignment(got: Assignment, want: Assignment) -> None:
    """Every array of ``got`` has ``want``'s dtype and bytes, and both name the same good crops."""
    for name in ("roles", "score", "box"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.good_indices == want.good_indices


class TestSelection:
    """The matchable targets are the crops with MOS >= 4, in list order: ``assign_batch``'s ``good_indices``."""

    @staticmethod
    def _good_indices(crop_lists, seed=0):
        rng = np.random.default_rng(seed)
        n = max(map(len, crop_lists)) + 1
        boxes = np.concatenate([rng.uniform(0.3, 0.7, (len(crop_lists), n, 2)),
                                rng.uniform(0.1, 0.3, (len(crop_lists), n, 2))], axis=2)
        scores = rng.uniform(0.1, 0.9, (len(crop_lists), n))
        return [a.good_indices for a in assign_batch(boxes, scores, crop_lists, W)]

    def test_empty(self):
        assert self._good_indices([[]]) == [()]

    def test_threshold_is_inclusive_at_four(self):
        crops = [
            _crop(0.5, 0.5, 0.4, 0.4, 4.0),
            _crop(0.3, 0.3, 0.2, 0.2, 3.9),
            _crop(0.6, 0.6, 0.3, 0.3, 5.0),
        ]
        assert self._good_indices([crops]) == [(0, 2)]

    def test_matches_naive_filter_on_large_fixture(self):
        rng = np.random.default_rng(0)
        crop_lists = [
            [_crop(0.5, 0.5, 0.2 + 0.1 * rng.uniform(), 0.2, float(rng.uniform(1.0, 5.0))) for _ in range(size)]
            for size in (90, 0, 31)
        ]
        want = [tuple(i for i, c in enumerate(crops) if c.mos >= 4.0) for crops in crop_lists]
        assert self._good_indices(crop_lists) == want


class TestNormalizeMos:
    def test_endpoints_and_midpoint(self):
        assert normalize_mos(1.0) == 0.0
        assert normalize_mos(5.0) == 1.0
        assert normalize_mos(4.0) == 0.75

    def test_monotone(self):
        grid = np.linspace(1.0, 5.0, 33)
        vals = [normalize_mos(float(s)) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            normalize_mos(0.9)
        with pytest.raises(OutOfRange):
            normalize_mos(5.1)


def _focal_values(v_hat, v, gamma=2.0):
    """``focal_terms`` of a column of scores against a column of targets, as a list."""
    column = np.asarray(v_hat, dtype=np.float64).reshape(-1, 1)
    return focal_terms(T.constant(column), np.reshape(v, (-1, 1)), gamma).data[:, 0].tolist()


class TestFocal:
    def test_zero_at_target(self):
        assert _focal_values([0.25, 0.5, 0.9], [0.25, 0.5, 0.9]) == [0.0, 0.0, 0.0]

    def test_half_versus_zero_closed_form(self):
        # |0 - 0.5|^2 * (-log(1 - 0.5)) = 0.25 * ln 2
        assert _focal_values([0.5], [0.0]) == [pytest.approx(0.25 * math.log(2.0), abs=1e-15)]

    def test_positive_off_target(self):
        rng = np.random.default_rng(1)
        v_hat = rng.uniform(0.01, 0.99, size=50)
        v = rng.uniform(0.0, 1.0, size=50)
        off = np.abs(v_hat - v) > 1e-9
        assert all(value > 0.0 for value in np.array(_focal_values(v_hat, v))[off])

    def test_differentiable_terms_match_the_cost_focal(self):
        rng = np.random.default_rng(2)
        v_hat = rng.uniform(0.05, 0.95, size=(6, 1))
        v = rng.uniform(size=(6, 1))
        # the matching cost and the loss price a score the same way
        np.testing.assert_allclose(_focal_values(v_hat, v), _focal_np(v_hat, v, 2.0)[:, 0], rtol=0, atol=1e-12)


def cost_stack(boxes, scores, targets: list[list[ScoredCrop]], w: LossWeights) -> np.ndarray:
    """``_cost_stack`` of (B, N, 4) boxes and (B, N) scores against one list of good crops per image."""
    return _cost_stack(boxes, scores, *_crop_arrays(targets), w)


def _one_entry(box, score, targets):
    """The (1, 1) cost matrix of one prediction against its targets (none, or one good crop)."""
    return cost_stack(np.array([[box]]), np.array([[score]]), [targets], W)[0, 0, 0]


class TestMatchCost:
    def test_zero_for_perfect_prediction(self):
        target = _crop(0.5, 0.5, 0.4, 0.4, 5.0)
        # the score clamp leaves a ~1e-21 focal residue
        assert _one_entry([0.5, 0.5, 0.4, 0.4], 1.0, [target]) < 1e-15

    def test_term_by_term_against_scalar_helpers(self):
        box, score = CropBox(0.4, 0.45, 0.3, 0.25), 0.6
        target = _crop(0.55, 0.5, 0.35, 0.3, 4.2)
        expected = (
            l1_box(box, target.box)
            + W.giou_weight * (1.0 - box_giou(box, target.box))
            + W.focal_weight * float(_focal_np(score, normalize_mos(target.mos), W.focal_gamma))
        )
        assert _one_entry([box.cx, box.cy, box.w, box.h], score, [target]) == pytest.approx(expected, abs=1e-15)

    def test_empty_cost_is_focal_to_zero(self):
        expected = W.focal_weight * _focal_values([0.3], [0.0])[0]
        assert _one_entry([0.5, 0.5, 0.2, 0.2], 0.3, []) == pytest.approx(expected, abs=1e-15)

    def test_weights_validation(self):
        with pytest.raises(OutOfRange):
            LossWeights(giou_weight=-0.1)
        with pytest.raises(OutOfRange):
            LossWeights(soft_iou_threshold=0.0)
        with pytest.raises(OutOfRange):
            LossWeights(focal_gamma=0.5)


class TestCostMatrix:
    def test_padded_layout(self):
        rng = np.random.default_rng(3)
        boxes = np.column_stack([rng.uniform(0.3, 0.6, size=(4, 2)), np.full((4, 2), 0.2)])
        scores = rng.uniform(0.1, 0.9, size=4)
        good = [_crop(0.5, 0.5, 0.3, 0.3, 4.5)]
        costs = cost_stack(boxes[None], scores[None], [good], W)[0]
        assert costs.shape == (4, 4)
        for i in range(4):
            assert costs[i, 0] == pytest.approx(_one_entry(boxes[i], scores[i], good), abs=1e-12)
            for j in (1, 2, 3):
                assert costs[i, j] == pytest.approx(_one_entry(boxes[i], scores[i], []), abs=1e-12)

    def test_more_targets_than_predictions(self):
        good = [_crop(0.5, 0.5, 0.3, 0.3, 4.5), _crop(0.4, 0.4, 0.3, 0.3, 4.5)]
        with pytest.raises(CardinalityMismatch):
            cost_stack(np.array([[[0.5, 0.5, 0.2, 0.2]]]), np.array([[0.5]]), [good], W)


def _tie_heavy_matrices() -> list[np.ndarray]:
    """2,400 small integer matrices with many equal-total optima, each with some padding columns."""
    rng = np.random.default_rng(14)
    cases = []
    for _ in range(2400):
        n = int(rng.integers(1, 9))
        g = int(rng.integers(0, n + 1))  # columns from g on share one padding column
        high = int(rng.integers(1, 4))
        cost = rng.integers(0, high + 1, size=(n, n)).astype(np.float64)
        cost[:, g:] = rng.integers(0, high + 1, size=(n, 1))
        cases.append(cost)
    return cases


class TestHungarian:
    def test_zero_diagonal_identity(self):
        cost = np.ones((4, 4)) + np.eye(4) * -1.0
        assert np.array_equal(hungarian(cost), [0, 1, 2, 3])

    def test_two_by_two_swap(self):
        assert np.array_equal(hungarian(np.array([[1.0, 2.0], [2.0, 4.0]])), [1, 0])

    def test_all_zero_matrix_lexicographic(self):
        assert np.array_equal(hungarian(np.zeros((2, 2))), [0, 1])
        assert np.array_equal(hungarian(np.zeros((4, 4))), [0, 1, 2, 3])

    def test_optimal_and_lexicographic_vs_brute_force(self):
        rng = np.random.default_rng(4)
        cases = []
        for trial in range(120):
            n = int(rng.integers(1, 8))
            if trial % 3 == 0:
                cases.append(rng.integers(0, 4, size=(n, n)).astype(np.float64))  # many ties
            else:
                cases.append(rng.uniform(size=(n, n)))
        # the last k columns identical, as the padding of _cost_stack
        draws = (
            lambda size: rng.integers(0, 4, size=size).astype(np.float64),  # integer ties
            lambda size: rng.uniform(size=size),
            np.zeros,
        )
        for n in range(1, 8):
            for k in range(1, n + 1):
                for draw in draws:
                    cost = draw((n, n))
                    cost[:, n - k :] = draw((n, 1))
                    cases.append(cost)
        for cost in cases:
            n = cost.shape[0]
            perm = hungarian(cost)
            best, winners = _brute_force_perms(cost)
            assert sum(cost[i, perm[i]] for i in range(n)) == pytest.approx(best, abs=1e-9)
            assert tuple(perm) == winners[0]

    def test_agrees_with_library_solver_total(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            cost = rng.uniform(size=(n, n)) * float(rng.uniform(0.5, 20.0))
            perm = hungarian(cost)
            rows, cols = linear_sum_assignment(cost)
            assert cost[np.arange(n), perm].sum() == pytest.approx(cost[rows, cols].sum(), abs=1e-9)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            assert np.array_equal(hungarian(cost), hungarian(cost * 7.5))

    def test_tie_pass_equals_the_reference(self, desk_records):
        cases = _tie_heavy_matrices()
        for mode in ("average", "off"):
            boxes, scores = _desk_heads(desk_records, mode, np.float64)
            crops = _desk_crops(desk_records)
            cases.extend(cost_stack(boxes, scores[:, :, 0], [[c for c in gts if c.mos >= 4.0] for gts in crops], W))
        with_accepted = 0
        for cost in cases:
            accepted = []
            assert hungarian(cost).tobytes() == reference_hungarian(cost, accepted).tobytes()
            with_accepted += bool(accepted)
        # the sub-solve that replaces the match is taken, not only tried
        assert with_accepted >= 100

    def test_rejects_bad_input(self):
        with pytest.raises(NonSquare):
            hungarian(np.zeros((2, 3)))
        with pytest.raises(NonSquare):
            hungarian(np.zeros((0, 0)))
        bad = np.zeros((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(NonFinite):
            hungarian(bad)


class TestHungarianBatch:
    """One stacked solve gives every matrix the perm, u and v of its own solve."""

    @staticmethod
    def _assert_per_image(stack):
        perms = _match(stack)
        for cost, perm in zip(stack, perms):
            assert perm.tobytes() == reference_hungarian(cost).tobytes()
            assert perm.tobytes() == hungarian(cost).tobytes()

    def test_duals_and_columns_equal_the_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            n_b, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            rows = rng.integers(0, m + 1, size=n_b)
            rows[int(rng.integers(n_b))] = m  # a square problem: its path may use every column
            shape = (n_b, m, m)
            cost = rng.integers(0, 3, size=shape).astype(np.float64) if trial % 2 else rng.uniform(-2, 2, size=shape)
            row_of_col, u, v = _shortest_paths(cost, rows)
            assert row_of_col.shape == v.shape == (n_b, m) and u.shape == (n_b, m)
            for b, r in enumerate(rows.tolist()):
                col_of_row, ref_u, ref_v = reference_shortest_paths(cost[b, :r])
                expected = np.full(m, -1)
                expected[col_of_row] = np.arange(r)
                assert row_of_col[b].tolist() == expected.tolist()
                assert u[b, :r].tobytes() == ref_u.tobytes()
                assert v[b].tobytes() == ref_v.tobytes()

    def test_tie_heavy_batches_of_mixed_g(self):
        by_size: dict[int, list] = {}
        for cost in _tie_heavy_matrices():
            by_size.setdefault(cost.shape[0], []).append(cost)
        # each matrix draws its own g, so a stack of 16 mixes them
        for cases in by_size.values():
            for at in range(0, len(cases), 16):
                self._assert_per_image(np.stack(cases[at : at + 16]))

    def test_no_padding_column_and_only_padding_columns(self):
        rng = np.random.default_rng(22)
        for n in (1, 2, 5, 8):
            only_padding = np.repeat(rng.uniform(size=(n, 1)), n, axis=1)  # g = 0
            no_padding = rng.uniform(size=(n, n))  # g = N: the last real column is read as padding
            ties = rng.integers(0, 2, size=(n, n)).astype(np.float64)
            self._assert_per_image(np.stack([only_padding, no_padding, ties]))
            assert _match(only_padding[None])[0].tolist() == list(range(n))

    def test_a_real_column_equal_to_the_padding_column(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = int(rng.integers(2, n))
            base = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            base[:, g:] = rng.integers(0, 3, size=(n, 1))
            inner = base.copy()
            inner[:, 0] = base[:, -1]  # a real column inside the block stays real
            trailing = base.copy()
            trailing[:, g - 1] = base[:, -1]  # the trailing run grows: g - 1 real columns are solved
            self._assert_per_image(np.stack([base, inner, trailing]))

    def test_batch_of_one_and_bad_input(self, desk_records):
        boxes, scores = _desk_heads(desk_records[:3], "average", np.float64)
        goods = [[c for c in gts if c.mos >= 4.0] for gts in _desk_crops(desk_records[:3])]
        stack = cost_stack(boxes, scores[:, :, 0], goods, W)
        assert stack.shape == (3, 16, 16)
        for cost in stack:
            self._assert_per_image(cost[None])
        bad = stack.copy()
        bad[2, 4, 1] = np.nan
        with pytest.raises(NonFinite):
            _match(bad)
        bad[2, 4, 1] = -np.inf
        with pytest.raises(NonFinite):
            _match(bad)
        with pytest.raises(NonSquare):
            hungarian(stack)
        with pytest.raises(NonSquare):
            hungarian(stack[0, :, :3])


class TestAssign:
    def test_exact_prediction_is_matched_to_its_target(self):
        target = _crop(0.5, 0.5, 0.4, 0.4, 5.0)
        preds = [
            Prediction(box=target.box, score=1.0),
            Prediction(box=CropBox(0.1, 0.1, 0.1, 0.1), score=0.05),
            Prediction(box=CropBox(0.9, 0.9, 0.1, 0.1), score=0.05),
        ]
        crops = [_crop(0.3, 0.7, 0.2, 0.2, 2.0), target]
        a = assign(preds, crops, W)
        assert a.roles.tolist() == [MATCHED, NEGATIVE, NEGATIVE]
        assert a.good_indices == (1,)
        assert a.score.tolist() == [normalize_mos(5.0), 0.0, 0.0]
        assert a.box[0].tolist() == [0.5, 0.5, 0.4, 0.4] and not a.box[1:].any()

    def test_the_traced_assign_span_can_record_its_counts(self):
        """perfbench's traced ``assign`` span writes (n_good, len(roles)) with json.dumps."""
        preds = [Prediction(box=CropBox(0.5, 0.5, 0.4, 0.4), score=0.9),
                 Prediction(box=CropBox(0.2, 0.2, 0.1, 0.1), score=0.1)]
        a = assign(preds, [_crop(0.5, 0.5, 0.4, 0.4, 4.5), _crop(0.3, 0.7, 0.2, 0.2, 2.0)], W)
        assert type(a.n_good) is int and a.n_good == 1
        assert len(a.roles) == len(preds)
        assert json.loads(json.dumps((a.n_good, len(a.roles)))) == [1, 2]

    def test_soft_labels_for_near_duplicates_of_mediocre_crops(self):
        anchor = CropBox(0.5, 0.5, 0.4, 0.4)
        preds = [Prediction(box=anchor, score=0.4), Prediction(box=CropBox(0.15, 0.2, 0.1, 0.1), score=0.2)]
        crops = [ScoredCrop(box=anchor, mos=3.0)]  # below the matchable threshold
        a = assign(preds, crops, W)
        assert a.n_good == 0
        assert a.roles.tolist() == [SOFT, NEGATIVE]
        assert a.score[0] == pytest.approx(normalize_mos(3.0) * 1.0, abs=1e-12)
        assert a.score[1] == 0.0

    def test_soft_score_scales_with_overlap(self):
        gt_box = CropBox(0.5, 0.5, 0.4, 0.4)
        shifted = CropBox(0.51, 0.5, 0.4, 0.4)
        overlap = box_iou(shifted, gt_box)
        assert overlap >= W.soft_iou_threshold
        a = assign([Prediction(box=shifted, score=0.4)], [ScoredCrop(box=gt_box, mos=3.5)], W)
        assert a.roles[0] == SOFT
        assert a.score[0] == pytest.approx(normalize_mos(3.5) * overlap, abs=1e-12)

    def test_partition_properties_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            preds = [
                Prediction(
                    box=CropBox(*rng.uniform(0.3, 0.7, size=2), *rng.uniform(0.1, 0.4, size=2)),
                    score=float(rng.uniform(0.05, 0.95)),
                )
                for _ in range(10)
            ]
            crops = [
                _crop(*rng.uniform(0.3, 0.7, size=2), *rng.uniform(0.1, 0.4, size=2), float(rng.uniform(1.0, 5.0)))
                for _ in range(4)
            ]
            a = assign(preds, crops, W)
            assert len(a.roles) == 10
            good_set = {i for i, c in enumerate(crops) if c.mos >= 4.0}
            assert set(a.good_indices) == good_set
            matched = np.nonzero(a.roles == MATCHED)[0]
            matched_targets = [_matched_index(a, crops, i) for i in matched]
            # every matchable target is consumed exactly once
            assert sorted(matched_targets) == sorted(good_set)
            # re-derive soft/negative split from scratch
            for i, role in enumerate(a.roles):
                if role == MATCHED:
                    target = crops[_matched_index(a, crops, i)]
                    assert a.score[i] == normalize_mos(target.mos)
                    assert a.box[i].tolist() == [target.box.cx, target.box.cy, target.box.w, target.box.h]
                    continue
                best_j, best_iou = None, 0.0
                for j, c in enumerate(crops):
                    o = box_iou(preds[i].box, c.box)
                    if o > best_iou:
                        best_j, best_iou = j, o
                if best_iou >= W.soft_iou_threshold:
                    assert role == SOFT
                    assert a.score[i] == pytest.approx(normalize_mos(crops[best_j].mos) * best_iou, abs=1e-9)
                else:
                    assert role == NEGATIVE and a.score[i] == 0.0
            # matching is optimal under the padded cost matrix
            good = [crops[i] for i in sorted(good_set)]
            cost = reference_cost_matrix(preds, good, W)
            rows, cols = linear_sum_assignment(cost)
            # a row's padding columns all cost the same, so an unmatched row costs its column len(good)
            ours_cols = np.full(10, len(good))
            ours_cols[matched] = [a.good_indices.index(k) for k in matched_targets]
            ours = cost[np.arange(10), ours_cols].sum()
            assert ours == pytest.approx(cost[rows, cols].sum(), abs=1e-9)

    def test_cardinality_errors(self):
        with pytest.raises(CardinalityMismatch):
            assign([], [_crop(0.5, 0.5, 0.2, 0.2, 4.5)], W)
        preds = [Prediction(box=CropBox(0.5, 0.5, 0.2, 0.2), score=0.5)]
        crops = [_crop(0.5, 0.5, 0.3, 0.3, 4.5), _crop(0.4, 0.4, 0.3, 0.3, 4.5)]
        with pytest.raises(CardinalityMismatch):
            assign(preds, crops, W)


class TestTrainingLoss:
    def test_perfect_outputs_give_negligible_loss(self):
        target = _crop(0.5, 0.5, 0.4, 0.4, 5.0)
        boxes = np.array([[0.5, 0.5, 0.4, 0.4], [0.2, 0.2, 0.1, 0.1]])
        scores = np.array([[1.0], [0.0]])
        head = HeadOutputs(boxes=T.constant(boxes), scores=T.constant(scores))
        a = assign(head.to_predictions(), [target], W)
        assert a.roles.tolist() == [MATCHED, NEGATIVE]
        assert training_loss(head, a, W).item() < 1e-12

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(8)
        boxes = np.column_stack(
            [rng.uniform(0.35, 0.65, size=4), rng.uniform(0.35, 0.65, size=4),
             rng.uniform(0.15, 0.4, size=4), rng.uniform(0.15, 0.4, size=4)]
        )
        scores = rng.uniform(0.1, 0.9, size=(4, 1))
        head = HeadOutputs(boxes=T.constant(boxes), scores=T.constant(scores))
        crops = [_crop(0.5, 0.5, 0.3, 0.3, 4.6), _crop(0.42, 0.58, 0.25, 0.2, 2.5)]
        fixtures = [(head, assign(head.to_predictions(), crops, W), crops), self._all_roles_fixture(np.float64)]
        for head, a, crops in fixtures:
            boxes, scores = head.boxes.data, head.scores.data
            expected = 0.0
            for i, role in enumerate(a.roles):
                v_hat = float(scores[i, 0])
                if role == MATCHED:
                    pb = CropBox(*boxes[i])
                    crop = crops[_matched_index(a, crops, i)]
                    expected += l1_box(pb, crop.box) + W.giou_weight * (1.0 - box_giou(pb, crop.box))
                    target = normalize_mos(crop.mos)
                else:
                    target = float(a.score[i]) if role == SOFT else 0.0
                expected += W.focal_weight * float(_focal_np(v_hat, target, W.focal_gamma))
            expected /= len(a.roles)
            assert training_loss(head, a, W).item() == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _all_roles_fixture(dtype):
        crops = [_crop(0.5, 0.5, 0.3, 0.3, 4.6), _crop(0.3, 0.7, 0.2, 0.2, 2.5)]
        boxes = np.array([
            [0.50, 0.50, 0.30, 0.30],  # matched to the good crop
            [0.505, 0.50, 0.30, 0.30],  # near-duplicate of it: soft
            [0.30, 0.70, 0.20, 0.19],  # on the mediocre crop: soft
            [0.80, 0.20, 0.10, 0.10],  # negatives
            [0.15, 0.20, 0.20, 0.10],
        ])
        scores = np.array([[0.8], [0.6], [0.3], [0.4], [0.1]])
        head = HeadOutputs(boxes=Tensor(boxes, dtype=dtype, requires_grad=True),
                           scores=Tensor(scores, dtype=dtype, requires_grad=True))
        a = assign(head.to_predictions(), crops, W)
        assert a.roles.tolist() == [MATCHED, SOFT, SOFT, NEGATIVE, NEGATIVE]
        return head, a, crops

    @staticmethod
    def _three_branch_loss(head, a, crops, w):
        """Reference: one gather and focal call per role, the terms added in role order."""
        dtype = head.scores.data.dtype
        rows = {k: np.nonzero(a.roles == k)[0].tolist() for k in (MATCHED, SOFT, NEGATIVE)}
        matched = rows[MATCHED]
        matched_crops = [crops[_matched_index(a, crops, i)] for i in matched]
        tgt = T.constant(boxes_array([c.box for c in matched_crops]).astype(dtype))
        pb = T.gather_rows(head.boxes, matched)
        deficit = T.add_const(T.scale(giou_pairs(pb, tgt), -1.0), 1.0)
        terms = [T.sum_all(l1_pairs(pb, tgt)), T.scale(T.sum_all(deficit), w.giou_weight)]
        targets = {
            MATCHED: [normalize_mos(c.mos) for c in matched_crops],
            SOFT: a.score[rows[SOFT]].tolist(),
            NEGATIVE: [0.0] * len(rows[NEGATIVE]),
        }
        for kind, idx in rows.items():
            v = np.array(targets[kind], dtype=dtype).reshape(-1, 1)
            focal_sum = T.sum_all(focal_terms(T.gather_rows(head.scores, idx), v, w.focal_gamma))
            terms.append(T.scale(focal_sum, w.focal_weight))
        total = terms[0]
        for t in terms[1:]:
            total = T.add(total, t)
        return T.scale(total, 1.0 / len(a.roles))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_focal_call_equals_the_per_role_branches(self, dtype):
        head, a, crops = self._all_roles_fixture(dtype)
        loss = training_loss(head, a, W)
        T.backward(loss)
        ref_head = HeadOutputs(boxes=Tensor(head.boxes.data, dtype=dtype, requires_grad=True),
                               scores=Tensor(head.scores.data, dtype=dtype, requires_grad=True))
        ref = self._three_branch_loss(ref_head, a, crops, W)
        T.backward(ref)
        # only the order of the focal sum differs
        tol = 1e-12 if dtype == np.float64 else 4 * np.finfo(dtype).eps
        assert loss.item() == pytest.approx(ref.item(), rel=tol)
        assert head.boxes.grad.tobytes() == ref_head.boxes.grad.tobytes()
        assert head.scores.grad.tobytes() == ref_head.scores.grad.tobytes()

    def test_finite_nonnegative_and_differentiable(self):
        rng = np.random.default_rng(9)
        boxes = Tensor(
            np.column_stack(
                [rng.uniform(0.3, 0.7, size=5), rng.uniform(0.3, 0.7, size=5),
                 rng.uniform(0.1, 0.4, size=5), rng.uniform(0.1, 0.4, size=5)]
            ),
            requires_grad=True,
        )
        scores = Tensor(rng.uniform(0.1, 0.9, size=(5, 1)), requires_grad=True)
        head = HeadOutputs(boxes=boxes, scores=scores)
        crops = [_crop(0.5, 0.5, 0.3, 0.3, 4.5)]
        a = assign(head.to_predictions(), crops, W)
        loss = training_loss(head, a, W)
        value = loss.item()
        assert np.isfinite(value) and value >= 0.0
        T.backward(loss)
        assert np.all(np.isfinite(boxes.grad)) and np.all(np.isfinite(scores.grad))
        assert np.any(scores.grad != 0.0)

    def test_role_count_mismatch(self):
        head = HeadOutputs(boxes=T.constant(np.full((2, 4), 0.5)), scores=T.constant(np.full((2, 1), 0.5)))
        a = Assignment(roles=np.array([NEGATIVE]), score=np.zeros(1), box=np.zeros((1, 4)), good_indices=())
        with pytest.raises(CardinalityMismatch):
            training_loss(head, a, W)

    def test_empty_assignment_rejected(self):
        head = HeadOutputs(boxes=T.constant(np.zeros((0, 4))), scores=T.constant(np.zeros((0, 1))))
        a = Assignment(roles=np.zeros(0, dtype=int), score=np.zeros(0), box=np.zeros((0, 4)), good_indices=())
        with pytest.raises(DomainError):
            training_loss(head, a, W)


def _toy_example(seed: int) -> TrainExample:
    rng = np.random.default_rng(seed)
    image = rng.uniform(size=(1, 8, 8))
    crops = (
        _crop(0.45, 0.55, 0.35, 0.3, 4.6),
        _crop(0.3, 0.3, 0.2, 0.25, 2.2),
        _crop(0.7, 0.6, 0.25, 0.2, 3.1),
    )
    return TrainExample(image=image, prior=None, crops=crops)


class TestTrainStep:
    def test_zero_learning_rate_leaves_parameters_bitwise_identical(self):
        state = init_state(toy_config(), seed=10)
        before = {n: state[n].data.copy() for n in state.param_names()}
        train_step(state, [_toy_example(0)], W, lr=0.0)
        for n in state.param_names():
            assert np.array_equal(state[n].data, before[n])

    def test_deterministic_loss_curve(self):
        curves = []
        for _ in range(2):
            state = init_state(toy_config(), seed=11)
            curves.append([train_step(state, [_toy_example(1)], W, lr=0.05) for _ in range(5)])
        assert curves[0] == curves[1]

    def test_overfits_a_single_example(self):
        state = init_state(toy_config(), seed=12)
        opt = T.Adam()
        ex = _toy_example(2)
        losses = [train_step(state, [ex], W, lr=3e-3, optimizer=opt) for _ in range(200)]
        assert losses[-1] < 0.5 * losses[0]
        assert min(losses[100:]) < min(losses[:50])


def reference_train_step(state, batch, w, lr, optimizer=None) -> float:
    """Reference: one recorded graph per image, the losses added with ``add``, as before batching."""
    losses = []
    for ex in batch:
        head = forward_train(ex.image, ex.prior, state)
        with T.no_grad():
            preds = head.to_predictions()
        a, _ = reference_assign(preds, list(ex.crops), w)
        losses.append(training_loss(head, a, w))
    total = losses[0]
    for extra in losses[1:]:
        total = T.add(total, extra)
    loss = T.scale(total, 1.0 / len(batch))
    value = loss.item()
    T.backward(loss)
    if optimizer is None:
        T.sgd_step(state.data, state.grad, lr)
    else:
        optimizer.step(state.data, state.grad, lr)
    return value


class _GradRecordingAdam(T.Adam):
    """Adam that keeps a copy of the gradients it was handed: every parameter's, in ``params`` order."""

    def step(self, data, grad, lr):
        self.grads = grad.tobytes()
        super().step(data, grad, lr)


@pytest.fixture(scope="module")
def desk_records(tmp_path_factory):
    return generate_synthetic(46, 16, tmp_path_factory.mktemp("desk"))


def _desk_heads(records, mode, dtype, seed=5):
    """(B, N, 4) boxes and (B, N, 1) scores of the desk model on ``records``, with rows that find every role.

    Rows 8-13 of each image are moved onto jittered copies of its first
    six crops, so soft as well as matched rows occur, and row 15 is a
    copy of row 14, an exact tie for the matching.
    """
    config = ModelConfig()
    state = init_state(config, seed=seed, dtype=dtype)
    with T.no_grad():
        head = forward_train([r.load_image().astype(dtype) for r in records],
                             [build_prior(r, config, mode) for r in records], state)
    boxes, scores = head.boxes.data.copy(), head.scores.data.copy()
    rng = np.random.default_rng(seed)
    for b, r in enumerate(records):
        crops = boxes_array([c.box for c in r.crops[:6]])
        boxes[b, 8 : 8 + len(crops)] = np.clip(crops + rng.uniform(-0.01, 0.01, crops.shape), 0.01, 1.0)
        boxes[b, 15], scores[b, 15] = boxes[b, 14], scores[b, 14]
    return boxes, scores


def _desk_crops(records):
    """The records' crop lists, with image 1 held below MOS 4 and image 2 left without crops."""
    crops = [list(r.crops) for r in records]
    crops[1] = [ScoredCrop(box=c.box, mos=min(c.mos, 3.5)) for c in crops[1]]
    crops[2] = []
    return crops


class TestBatchedStep:
    """One recorded graph per step gives the bytes of the per-image loop."""

    @staticmethod
    def _examples(records, mode, dtype):
        config = ModelConfig()
        examples = [TrainExample(image=r.load_image().astype(dtype), prior=build_prior(r, config, mode),
                                 crops=r.crops) for r in records]
        # one image without a crop of MOS >= 4: focal terms only, no box rows
        weak = tuple(ScoredCrop(box=c.box, mos=min(c.mos, 3.5)) for c in examples[1].crops)
        examples[1] = TrainExample(image=examples[1].image, prior=examples[1].prior, crops=weak)
        return examples

    @pytest.mark.parametrize("size", [1, 5, 16])
    @pytest.mark.parametrize("mode", ["average", "off"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_the_per_image_loop_bit_for_bit(self, desk_records, size, mode, dtype):
        examples = self._examples(desk_records, mode, dtype)
        batches = [examples[:size], examples[16 - size :][::-1]]
        if size > 1:
            goods = [sum(c.mos >= 4.0 for c in ex.crops) for ex in batches[0]]
            assert 0 in goods and len(set(goods)) > 2
        states = [init_state(ModelConfig(), seed=5, dtype=dtype) for _ in range(2)]
        optimizers = [_GradRecordingAdam(), _GradRecordingAdam()]
        for batch in batches:
            batched = train_step(states[0], batch, W, 1e-3, optimizer=optimizers[0])
            looped = reference_train_step(states[1], batch, W, 1e-3, optimizer=optimizers[1])
            assert np.float64(batched).tobytes() == np.float64(looped).tobytes()
            assert optimizers[0].grads == optimizers[1].grads
            for a, b in zip(states[0].parameters(), states[1].parameters()):
                assert a.data.tobytes() == b.data.tobytes()

    def test_a_batch_mixing_priors_and_none(self, desk_records):
        examples = self._examples(desk_records[:5], "average", np.float64)
        # an image without a prior gets a zero log-bias row, which leaves its logits as they are
        batch = [ex if i % 2 else TrainExample(image=ex.image, prior=None, crops=ex.crops)
                 for i, ex in enumerate(examples)]
        state, ref = init_state(ModelConfig(), seed=9), init_state(ModelConfig(), seed=9)
        optimizers = [_GradRecordingAdam(), _GradRecordingAdam()]
        batched = train_step(state, batch, W, 1e-3, optimizer=optimizers[0])
        assert batched == reference_train_step(ref, batch, W, 1e-3, optimizer=optimizers[1])
        assert optimizers[0].grads == optimizers[1].grads

    def test_a_batch_without_matched_rows(self, desk_records):
        examples = self._examples(desk_records[:2], "average", np.float32)
        batch = [examples[1], examples[1]]
        state, ref = init_state(ModelConfig(), seed=8, dtype=np.float32), init_state(ModelConfig(), seed=8,
                                                                                    dtype=np.float32)
        optimizers = [_GradRecordingAdam(), _GradRecordingAdam()]
        batched = train_step(state, batch, W, 1e-3, optimizer=optimizers[0])
        assert batched == reference_train_step(ref, batch, W, 1e-3, optimizer=optimizers[1])
        assert optimizers[0].grads == optimizers[1].grads

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_batch_with_an_image_without_crops(self, desk_records, dtype):
        examples = self._examples(desk_records[:4], "average", dtype)
        # image 1 has no crop of MOS >= 4 and image 2 has no crop at all
        examples[2] = TrainExample(image=examples[2].image, prior=examples[2].prior, crops=())
        states = [init_state(ModelConfig(), seed=4, dtype=dtype) for _ in range(2)]
        optimizers = [_GradRecordingAdam(), _GradRecordingAdam()]
        batched = train_step(states[0], examples, W, 1e-3, optimizer=optimizers[0])
        assert batched == reference_train_step(states[1], examples, W, 1e-3, optimizer=optimizers[1])
        assert optimizers[0].grads == optimizers[1].grads

    def test_sgd_step_and_head_shapes(self, desk_records):
        examples = self._examples(desk_records[:3], "average", np.float64)
        state, ref = init_state(ModelConfig(), seed=6), init_state(ModelConfig(), seed=6)
        assert train_step(state, examples, W, 0.05) == reference_train_step(ref, examples, W, 0.05)
        for a, b in zip(state.parameters(), ref.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        head = forward_train([ex.image for ex in examples], [ex.prior for ex in examples], state)
        assert head.boxes.dims == (3, 16, 4) and head.scores.dims == (3, 16, 1)
        with pytest.raises(DimMismatch):
            head.to_predictions()
        assert len(head.entry(2).to_predictions()) == 16

    def test_batch_and_assignment_counts_must_agree(self, desk_records):
        examples = self._examples(desk_records[:2], "off", np.float64)
        state = init_state(ModelConfig(), seed=7)
        head = forward_train([ex.image for ex in examples], [None, None], state)
        crops = [list(ex.crops) for ex in examples]
        a = [assign(head.entry(e).to_predictions(), crops[e], W) for e in range(2)]
        with pytest.raises(CardinalityMismatch):
            training_loss(head, a[:1], W)
        with pytest.raises(CardinalityMismatch):
            train_step(state, [], W, 0.1)


class TestAssignBatch:
    """One cost and IoU pass per batch gives each image the bytes of the per-image reference."""

    @pytest.mark.parametrize("size", [1, 5, 16])
    @pytest.mark.parametrize("mode", ["average", "off"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_the_per_image_reference_bit_for_bit(self, desk_records, size, mode, dtype):
        boxes, scores = _desk_heads(desk_records, mode, dtype)
        crops = _desk_crops(desk_records)
        kinds = set()
        for rows in (list(range(size)), list(range(16 - size, 16))[::-1]):
            got = assign_batch(boxes[rows], scores[rows], [crops[k] for k in rows], W)
            goods = [[c for c in crops[k] if c.mos >= 4.0] for k in rows]
            costs = cost_stack(boxes[rows].astype(np.float64), scores[rows, :, 0].astype(np.float64), goods, W)
            for e, k in enumerate(rows):
                head = HeadOutputs(boxes=T.constant(boxes[k]), scores=T.constant(scores[k]))
                ref, ref_costs = reference_assign(head.to_predictions(), crops[k], W)
                assert_same_assignment(got[e], ref)
                assert costs[e].tobytes() == ref_costs.tobytes()
                kinds.update(ref.roles.tolist())
        if size > 1:
            assert kinds == {MATCHED, SOFT, NEGATIVE}

    def test_a_batch_without_any_crop(self, desk_records):
        boxes, scores = _desk_heads(desk_records[:3], "off", np.float64)
        for a in assign_batch(boxes, scores, [[], [], []], W):
            assert a.good_indices == () and np.all(a.roles == NEGATIVE) and not a.score.any()

    def test_single_image_assign_is_the_batch_of_one(self, desk_records):
        boxes, scores = _desk_heads(desk_records[:4], "average", np.float32)
        crops = _desk_crops(desk_records[:4])
        batch = assign_batch(boxes, scores, crops, W)
        for e in range(4):
            preds = HeadOutputs(boxes=T.constant(boxes[e]), scores=T.constant(scores[e])).to_predictions()
            one = assign(preds, crops[e], W)
            assert_same_assignment(one, batch[e])

    def test_counts_must_agree(self, desk_records):
        boxes, scores = _desk_heads(desk_records[:2], "off", np.float64)
        with pytest.raises(CardinalityMismatch):
            assign_batch(boxes, scores, [list(desk_records[0].crops)], W)
        with pytest.raises(CardinalityMismatch):
            assign_batch(boxes[:, :0], scores[:, :0], [[], []], W)
        many = [_crop(0.5, 0.5, 0.3, 0.3, 4.5)] * 17
        with pytest.raises(CardinalityMismatch):
            assign_batch(boxes, scores, [[], many], W)


class TestTrainStepRejectsBadHeads:
    """A head row that is no valid prediction stops the step before backward: nothing moves."""

    @staticmethod
    def _snapshot(state, optimizer):
        return (
            [p.data.tobytes() for p in state.parameters()],
            [None if p.grad is None else p.grad.tobytes() for p in state.parameters()],
            optimizer.t,
            optimizer.m.tobytes(),
            optimizer.v.tobytes(),
        )

    @staticmethod
    def _started(records):
        """A desk state after one Adam step, so that the moments hold values."""
        examples = TestBatchedStep._examples(records, "average", np.float64)
        state, optimizer = init_state(ModelConfig(), seed=3), T.Adam()
        train_step(state, examples, W, 1e-3, optimizer=optimizer)
        return examples, state, optimizer

    def test_a_nan_weight_raises_non_finite(self, desk_records):
        examples, state, optimizer = self._started(desk_records[:4])
        state["score.w"].data[5, 0] = np.nan
        before = self._snapshot(state, optimizer)
        with pytest.raises(NonFinite, match="image 0 prediction 0 has non-finite values"):
            train_step(state, examples, W, 1e-3, optimizer=optimizer)
        assert self._snapshot(state, optimizer) == before

    def test_a_near_zero_extent_in_one_image_raises_degenerate(self, desk_records, monkeypatch):
        examples, state, optimizer = self._started(desk_records[:5])
        real_forward = assignment_module.forward_train

        def one_collapsed_row(*args, **kwargs):
            head = real_forward(*args, **kwargs)
            head.boxes.data[3, 6, 2] = 1e-9
            return head

        monkeypatch.setattr(assignment_module, "forward_train", one_collapsed_row)
        before = self._snapshot(state, optimizer)
        with pytest.raises(Degenerate, match="image 3 prediction 6 has near-zero extent"):
            train_step(state, examples, W, 1e-3, optimizer=optimizer)
        assert self._snapshot(state, optimizer) == before


def _recorded(loss) -> list:
    """Every tensor recorded behind ``loss``: op nodes and the leaves that require grad."""
    nodes, seen, stack = [], {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def _op_counts(loss) -> dict:
    """Recorded op nodes behind ``loss`` by op name (leaves excluded)."""
    counts: dict = {}
    for node in _recorded(loss):
        if node._op != "leaf":
            counts[node._op] = counts.get(node._op, 0) + 1
    return counts


def _desk_image_loss(tmp_path):
    """The desk model's state and the recorded training loss of one synthetic image."""
    config = ModelConfig()  # the desk preset's model
    record = generate_synthetic(3, 1, tmp_path)[0]
    state = init_state(config, seed=0)
    head = forward_train(record.load_image(), build_prior(record, config, "average"), state)
    with T.no_grad():
        a = assign(head.to_predictions(), list(record.crops), W)
    assert MATCHED in a.roles
    return state, training_loss(head, a, W)


class TestGraphSize:
    def test_one_desk_image_records_117_op_nodes(self, tmp_path):
        _, loss = _desk_image_loss(tmp_path)
        counts = _op_counts(loss)
        # every affine layer is one node, and the focal term is one call over all rows
        assert counts["linear"] == 25 and "matmul" not in counts
        assert counts["gather_rows"] == 1 and counts["pow_const"] == 1
        assert sum(counts.values()) == 117

    def test_a_batch_records_one_graph_whatever_its_size(self, desk_records):
        config = ModelConfig()
        state = init_state(config, seed=0)
        counts = {}
        for size in (1, 4, 16):
            records = desk_records[:size]
            head = forward_train([r.load_image() for r in records],
                                 [build_prior(r, config, "average") for r in records], state)
            crops = [list(r.crops) for r in records]
            a = [assign(head.entry(e).to_predictions(), gts, W) for e, gts in enumerate(crops)]
            counts[size] = _op_counts(T.scale(T.sum_batch(training_loss(head, a, W)), 1.0 / size))
        assert counts[1] == counts[4] == counts[16]
        # one image's 117 nodes, the box rows flattened, the losses summed and scaled
        assert sum(counts[16].values()) == 117 + 3
        assert counts[16]["sum_row_blocks"] == 2 and "sum_all" in counts[16] and counts[16]["flatten_batch"] == 1

    def test_backward_leaves_gradient_buffers_on_parameters_only(self, tmp_path):
        state, loss = _desk_image_loss(tmp_path)
        T.backward(loss)
        ops = [node for node in _recorded(loss) if node._op != "leaf"]
        assert len(ops) == 117 and all(node.grad is None for node in ops)
        for p in state.parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape
