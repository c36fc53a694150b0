"""Set matching between predicted and annotated crops, plus training.

High-quality ground truths (MOS >= 4) are padded with empty targets to
the prediction count and matched one-to-one by cost. The solver works
on the real targets only, as a rectangular problem against all
predictions; the predictions none of them takes get the padding
targets in ascending order. Matched predictions get the full three-term
loss (L1 + weighted GIoU deficit + weighted focal); unmatched
predictions that still sit on an annotated crop (IoU >= tau) get a soft
score target; the rest are pushed to zero score.

Assignment works on arrays: ``assign_batch`` takes a batch's (B, N, 4)
boxes and scores and makes one cost pass and one IoU pass for all its
images, one stacked Hungarian solve for all their matrices, whose tie
pass visits only the images with a candidate tie, and one
``Assignment`` per image. An ``Assignment`` holds arrays, one entry
per prediction row: its role code (``MATCHED``, ``SOFT`` or
``NEGATIVE``), its score target and, for a matched row, its crop's
box. ``training_loss`` reads every target from there and no crop list.
``assign`` is the same core for one image's ``Prediction`` list, and
``hungarian`` the solve of one matrix. One training step is one
batched forward -> ``decoder.check_heads`` -> ``assign_batch`` -> one
batched loss -> one backward -> SGD (or Adam).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .decoder import HeadOutputs, ModelState, Prediction, _check_types, check_heads, forward_train
from .errors import CardinalityMismatch, DomainError, NonFinite, NonSquare, OutOfRange
from .geometry import ScoredCrop, boxes_array, giou_matrix, giou_pairs, iou_matrix, l1_pairs
from .tensor import Tensor

SCORE_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Loss and matching weights: the cost matrices and the training loss share the same lambdas."""

    giou_weight: float = 0.4
    focal_weight: float = 0.4
    focal_gamma: float = 2.0
    soft_iou_threshold: float = 0.85

    def __post_init__(self):
        _check_types(self, "loss")
        if self.giou_weight < 0.0 or self.focal_weight < 0.0:
            raise OutOfRange(f"giou_weight {self.giou_weight} and focal_weight {self.focal_weight} must be nonnegative")
        if not (0.0 < self.soft_iou_threshold <= 1.0):
            raise OutOfRange(f"soft_iou_threshold {self.soft_iou_threshold} outside (0, 1]")
        if self.focal_gamma < 1.0:
            raise OutOfRange(f"focal_gamma {self.focal_gamma} must be >= 1")


# role codes of an ``Assignment`` row
NEGATIVE, SOFT, MATCHED = 0, 1, 2


@dataclass(frozen=True)
class Assignment:
    """What each of one image's N predictions is supervised against, one array entry per row."""

    roles: np.ndarray  # (N,) MATCHED, SOFT or NEGATIVE
    score: np.ndarray  # (N,) float64 score target: normalized MOS if matched, soft score if soft, 0.0 if negative
    box: np.ndarray  # (N, 4) float64 box of a matched row's crop; 0.0 on the other rows
    good_indices: tuple[int, ...]  # columns [0, len) map to these ground-truth indices

    @property
    def n_good(self) -> int:
        return len(self.good_indices)


def _focal_np(v_hat: np.ndarray, v: np.ndarray | float, gamma: float) -> np.ndarray:
    """Quality-focal penalty -|v - v_hat|^gamma [v log v_hat + (1-v) log(1-v_hat)], v_hat clamped off 0 and 1."""
    # np.minimum(np.maximum(...)) is np.clip's result in half its time on a few entries
    vc = np.minimum(np.maximum(v_hat, SCORE_CLAMP), 1.0 - SCORE_CLAMP)
    ce = -(v * np.log(vc) + (1.0 - v) * np.log1p(-vc))
    return np.abs(v - vc) ** gamma * ce


def focal_terms(v_hat: Tensor, targets: np.ndarray, gamma: float) -> Tensor:
    """Differentiable focal penalties, one per row of v_hat (m, 1); (B, m, 1) targets give one column per entry."""
    tv = np.asarray(targets, dtype=v_hat.data.dtype)
    if tv.ndim != 3:
        tv = tv.reshape(T.matrix_dims(v_hat))
    vc = T.clamp(v_hat, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    one_minus = T.add_const(T.scale(vc, -1.0), 1.0)
    ce = T.scale(
        T.add(T.mul(T.constant(tv), T.log(vc)), T.mul(T.constant(1.0 - tv), T.log(one_minus))),
        -1.0,
    )
    gap = T.absolute(T.sub(vc, T.constant(tv)))
    return T.mul(T.pow_const(gap, gamma), ce)


def _prefix_mask(counts: np.ndarray) -> np.ndarray:
    """(B, C) mask of row b's first counts[b] columns; C is the largest count, at least 1."""
    return np.arange(max(int(counts.max(initial=0)), 1)) < counts[:, None]


def _crop_arrays(crop_lists: list[list[ScoredCrop]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, C, 4) boxes and (B, C) normalized MOS of B crop lists padded to the longest, and which are real.

    A padding entry is the box (1, 1, 1, 1) with MOS 1; no result reads
    it. C is at least 1, so a batch without any crop still has a column.
    """
    real = _prefix_mask(np.array([len(crops) for crops in crop_lists], dtype=np.int64))
    boxes = np.ones(real.shape + (4,))
    boxes[real] = boxes_array([c.box for crops in crop_lists for c in crops])
    mos = np.ones(real.shape)
    mos[real] = [c.mos for crops in crop_lists for c in crops]
    # the 1..5 opinion scale onto [0, 1]: (s - 1) / 4
    return boxes, (mos - 1.0) / 4.0, real


def _cost_stack(
    boxes: np.ndarray, scores: np.ndarray, tgt_boxes: np.ndarray, v: np.ndarray, is_target: np.ndarray,
    w: LossWeights,
) -> np.ndarray:
    """The (B, N, N) stack of padded cost matrices; columns beyond an image's own targets are padding.

    ``boxes`` is (B, N, 4) and ``scores`` (B, N) float64; the targets are
    laid out as ``_crop_arrays`` returns them, and image b's are the
    columns where ``is_target[b]`` holds, a prefix of its row; the values
    in the other columns are never read. The L1, GIoU and focal costs of
    the whole batch are one (B, N, G) pass against the G target columns;
    image b's matrix is its real block, then its padding cost (focal
    toward 0) in every column left.
    """
    n = boxes.shape[1]
    most = int(is_target.sum(axis=1).max(initial=0))
    if most > n:
        raise CardinalityMismatch(f"{most} matchable targets but only {n} predictions")
    l1 = np.abs(boxes[:, :, None, :] - tgt_boxes[:, None, :, :]).sum(axis=3)
    gi = giou_matrix(boxes, tgt_boxes)
    fo = _focal_np(scores[:, :, None], v[:, None, :], w.focal_gamma)
    real = l1 + w.giou_weight * (1.0 - gi) + w.focal_weight * fo
    costs = np.empty((len(is_target), n, n))
    costs[...] = w.focal_weight * _focal_np(scores, 0.0, w.focal_gamma)[:, :, None]
    np.copyto(costs[:, :, : real.shape[2]], real, where=is_target[:, None, :])
    return costs


# -- Hungarian solver -----------------------------------------------------------


def _shortest_paths(cost: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest-augmenting-path assignment of B independent (R, M) problems at once.

    Problem b assigns its first ``rows[b]`` rows, rows[b] <= M, and
    ignores the rest of ``cost[b]``. Returns (row_of_col, u, v): the row
    each column takes (-1 if none), (B, M), and the dual potentials of
    the rows, (B, R), and of the columns, (B, M). Reduced costs
    cost[b, r, c] - u[b, r] - v[b, c] are nonnegative and zero on the
    assignment; v is nonpositive, and zero on every column left free.
    Row i's search runs for every problem that has row i. A problem
    whose path has reached a free column moves by 0 until the others
    are done, and u and v never hold -0.0, so each problem makes
    exactly the updates of u, v and assigned_row that a solve of its
    own would make. Its path is then walked back along ``way``.
    """
    n_b, n_rows, m = cost.shape
    ar = np.arange(n_b)
    # problem b's column j sits at [j, b] (flat j * B + b) and its row r at [r, b] (flat r * B + b);
    # row 0 and column 0 are the virtual start of every search, and row 0 marks a free column.
    # Their costs are inf: column 0 is used from the first step on, and a problem whose path
    # has ended reads row 0, so it changes no minv and no way.
    cost_cols = np.empty((m + 1, n_rows + 1, n_b))
    cost_cols.fill(np.inf)
    cost_cols[1:, 1:] = cost.transpose(2, 1, 0)
    cost_cols = cost_cols.reshape(m + 1, -1)
    # -v, u and -minv move by -delta in one masked subtraction: -v on the used columns, u on
    # the rows in the tree, -minv everywhere. x - (-d) is x + d to the bit, and a zero that
    # ends up with the other sign is read back as +0.0 (v = 0.0 - (-v)) or only compared.
    moving = np.zeros((2 * (m + 1) + n_rows + 1, n_b))
    neg_v, u, neg_minv = moving[: m + 1], moving[m + 1 : m + n_rows + 2], moving[m + n_rows + 2 :]
    marks = np.empty(moving.shape, dtype=bool)
    marks[m + n_rows + 2 :] = True
    flags, used, in_tree = marks[: m + n_rows + 2], marks[: m + 1], marks[m + 1 : m + n_rows + 2]
    assigned_row = np.zeros((m + 1) * n_b, dtype=np.int64)  # flat row index per column
    way = np.empty((m + 1, n_b), dtype=np.int64)  # flat index of the column before it on the path
    u_flat, neg_minv_flat, way_flat = u.reshape(-1), neg_minv.reshape(-1), way.reshape(-1)
    used_flat, in_tree_flat = used.reshape(-1), in_tree.reshape(-1)
    if n_rows:
        # row 1 meets only free columns: its search is one step to its cheapest column (the
        # first of equals), which sets u = 0.0 + that cost and moves no real column's v
        has_row = rows >= 1
        np.add(0.0, np.minimum.reduce(cost[:, 0], axis=1), out=u[1], where=has_row)
        row_1 = n_b + ar  # each problem's row 1, flat; its column c + 1 sits at c * B + row_1
        assigned_row[cost[:, 0].argmin(axis=1) * n_b + row_1] = row_1 * has_row
    for i in range(2, n_rows + 1):
        running = rows >= i
        # the first step leaves column 0, which holds row i, and reaches every other column
        np.add(ar, i * n_b, out=assigned_row[:n_b])
        flags.fill(False)
        used[0] = True
        in_tree[i] = True
        np.subtract(u[i], cost_cols[:, i * n_b : (i + 1) * n_b], out=neg_minv)
        neg_minv -= neg_v
        way[...] = ar
        j0 = ar.copy()
        steps = 0
        while True:
            j1 = neg_minv.argmax(axis=0) * n_b + ar
            neg_delta = np.where(running, neg_minv_flat[j1], 0.0)
            np.subtract(moving, neg_delta, out=moving, where=marks)
            np.copyto(j0, j1, where=running)
            np.logical_and(running, assigned_row[j0], out=running)
            steps += 1
            if not np.count_nonzero(running):
                break
            used_flat[j0] = True
            # a used column's minv is never read again; -minv = -inf keeps it out of the argmax
            neg_minv_flat[j0] = -np.inf
            i0 = assigned_row[j0]
            in_tree_flat[i0] = True
            neg_cur = u_flat[i0] - cost_cols.take(i0, axis=1) - neg_v
            better = ~used & (neg_cur > neg_minv)
            np.copyto(neg_minv, neg_cur, where=better)
            np.copyto(way, j0, where=better)
        # a path has at most one column per step; column 0's way is itself
        for _ in range(steps):
            j1 = way_flat[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1
    # row 0 // B - 1 = -1 marks a free column
    return assigned_row.reshape(m + 1, n_b)[1:].T // n_b - 1, u[1:].T, np.subtract(0.0, neg_v[1:]).T


def _lexicographic(arr: np.ndarray, real: np.ndarray, match: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """One image's tie pass: the smallest optimal real column of each row, row by row.

    ``match`` is an optimum of the (N, g) ``real`` block (-1 = padding)
    and ``zero`` marks its zero-reduced-cost entries. A row whose first
    such column lies below its current one tries the smaller candidates
    in ascending order, each verified by a sub-solve of the later rows
    over the real columns left; the first that keeps the total wins.
    """
    n, g = real.shape
    rows = np.arange(n)
    # arr[i, -1] is the padding cost, so index -1 prices an unmatched row
    total = float(arr[rows, match].sum())
    first_zero = np.where(zero.any(axis=1), zero.argmax(axis=1), g).tolist()
    available = np.ones(g, dtype=bool)
    for i in range(n):
        below = g if match[i] < 0 else int(match[i])
        if first_zero[i] < below:
            candidates = np.nonzero(available[:below] & zero[i, :below])[0]
            free = np.nonzero(available)[0]
            for j in candidates:
                rest = free[free != j]
                trial = match.copy()
                trial[i] = j
                sub, _, _ = _shortest_paths(real[None, i + 1 :, rest].transpose(0, 2, 1), np.array([len(rest)]))
                trial[i + 1 :] = np.concatenate((rest, [-1]))[sub[0]]
                trial_total = float(arr[rows, trial].sum())
                if trial_total <= total:
                    match, total = trial, trial_total
                    break
        if match[i] >= 0:
            available[match[i]] = False
    return match


def _match(costs: np.ndarray) -> np.ndarray:
    """``hungarian`` of each (N, N) matrix of a (B, N, N) stack, solved together; (B, N) perms."""
    costs = costs.astype(np.float64, copy=False)
    top = np.maximum.reduce(np.abs(costs), axis=(1, 2))  # NaN if any entry is NaN
    if not np.logical_and.reduce(np.isfinite(top)):
        raise NonFinite("cost matrix contains NaN or infinity")
    n = costs.shape[1]
    last = costs[:, :, -1:]
    # the trailing run of columns equal to the last one, which always counts, is padding:
    # g is one past the last column outside it
    is_pad = np.logical_and.reduce(costs == last, axis=1)
    g = np.maximum.reduce(np.where(is_pad, 0, np.arange(1, n + 1)), axis=1)
    # columns g..width of image b equal its last one, so they reduce to 0; at least one, as in _crop_arrays
    width = max([1, *g.tolist()])
    real = costs[:, :, :width] - last
    match, u, v = _shortest_paths(real.transpose(0, 2, 1), g)
    tol = 1e-7 * np.maximum(1.0, top)
    zero = real - u[:, None, :] - v[:, :, None] <= tol[:, None, None]
    # only a zero-reduced-cost column below a row's own can give a smaller optimum
    below = np.where(match < 0, g[:, None], match)
    flagged = np.logical_or.reduce(zero & (np.arange(width) < below[:, :, None]), axis=(1, 2))
    for b in np.nonzero(flagged)[0].tolist():
        match[b] = _lexicographic(costs[b], real[b, :, : g[b]], match[b], zero[b, :, : g[b]])
    # the rows no real column takes get the padding columns g, g+1, ... in row order
    match[match < 0] = np.nonzero(np.arange(n) >= g[:, None])[1]
    return match


def hungarian(costs: np.ndarray) -> np.ndarray:
    """Exact minimum-cost bijection rows -> columns: ``assign_batch``'s stacked solve for one matrix.

    The trailing block of columns equal to the last one is padding:
    ``_cost_stack`` leaves N - g of them, and every square matrix has
    at least one. Only the g real columns are solved, as a rectangular
    problem against all rows on their cost over padding,
    c[:, :g] - c[:, -1:]; a stack of matrices runs this
    shortest-augmenting-path solve for all of them in one pass, padded
    to its largest g. Among equal-total optima the lexicographically
    smallest column sequence (by row index) is returned: row by row,
    smaller real columns with zero reduced cost are tried and verified
    by sub-solves over the real columns left. The zero-reduced-cost
    mask is computed once for the stack, and only a matrix with a row
    whose first such column lies below its current one goes through the
    row loop, so the refinement costs almost nothing when the optimum
    is unique. The rows no real column takes then get the padding
    columns g, g+1, ... in ascending row order.
    """
    arr = np.asarray(costs)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NonSquare(f"cost matrix must be square and non-empty, got shape {arr.shape}")
    return _match(arr[None])[0]


def assign_batch(
    boxes: np.ndarray, scores: np.ndarray, ground_truths: list[list[ScoredCrop]], w: LossWeights
) -> list[Assignment]:
    """Match each image's predictions to its good targets, then classify the remainder.

    ``boxes`` is (B, N, 4) and ``scores`` (B, N, 1) or (B, N), rows
    that ``decoder.check_heads`` accepts; ``ground_truths`` holds one
    crop list per image. (1) Hungarian over the stack of padded cost
    matrices (``_cost_stack``, one pass for the batch), solved for
    all images at once; (2) rows landing on a real column become
    matched, with their crop's normalized MOS and box as targets;
    (3) unmatched rows overlapping ANY annotated crop at IoU >= tau
    become soft with score (neighbor MOS - 1) / 4 * IoU, the IoUs
    of the whole batch being one (B, N, C) pass; (4) the rest are
    negatives, with score 0. The neighbor is the first crop of highest
    IoU. Every step is a (B, N) array operation; image b's
    ``Assignment`` holds row b of each.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    n_images, n = boxes.shape[:2]
    scores = np.asarray(scores, dtype=np.float64).reshape(n_images, n)
    if n == 0:
        raise CardinalityMismatch("assign requires at least one prediction")
    if len(ground_truths) != n_images:
        raise CardinalityMismatch(f"{len(ground_truths)} crop lists for {n_images} images")
    good_indices = [tuple(i for i, g in enumerate(gts) if g.mos >= 4.0) for gts in ground_truths]
    crop_boxes, crop_v, real_crop = _crop_arrays(ground_truths)
    # the good targets gathered from every crop's arrays: column j of image b is its j-th good crop
    n_good = np.array([len(good) for good in good_indices], dtype=np.int64)
    is_good = _prefix_mask(n_good)
    take = np.zeros(is_good.shape, dtype=np.int64)
    take[is_good] = [i for good in good_indices for i in good]
    rows = np.arange(n_images)[:, None]
    good_boxes, good_v = crop_boxes[rows, take], crop_v[rows, take]
    costs = _cost_stack(boxes, scores, good_boxes, good_v, is_good, w)
    # IoUs lie in [0, 1], so a padding column at -1 never wins; among equal IoUs the lowest index does
    ious = np.where(real_crop[:, None, :], iou_matrix(boxes, crop_boxes), -1.0)
    overlap = ious.max(axis=2)
    is_soft = overlap >= w.soft_iou_threshold
    soft = np.where(is_soft, crop_v[rows, ious.argmax(axis=2)] * overlap, 0.0)
    perms = _match(costs)
    matched = perms < n_good[:, None]
    col = np.where(matched, perms, 0)
    roles = np.where(matched, MATCHED, np.where(is_soft, SOFT, NEGATIVE))
    score = np.where(matched, good_v[rows, col], soft)
    box = np.where(matched[:, :, None], good_boxes[rows, col], 0.0)
    return [Assignment(*fields) for fields in zip(roles, score, box, good_indices)]


def assign(preds: list[Prediction], ground_truths: list[ScoredCrop], w: LossWeights) -> Assignment:
    """``assign_batch`` for one image's predictions."""
    boxes, scores = boxes_array([p.box for p in preds])[None], np.array([[p.score for p in preds]])
    return assign_batch(boxes, scores, [ground_truths], w)[0]


def training_loss(head: HeadOutputs, assignment: Assignment | list[Assignment], w: LossWeights) -> Tensor:
    """Loss by role, summed and averaged over all N predictions: one loss per leading entry.

    Matched rows: L1 + lambda_giou (1 - giou) + lambda_focal focal
    against their target; soft rows: focal toward the soft score;
    negative rows: focal toward zero. Every target comes from the
    assignment: the focal term is one call over all N scores against
    the ``score`` column, and the matched rows' boxes are the ``box``
    rows where ``roles`` is MATCHED. The assignment itself is taken as
    given (no gradient flows through the matching).

    A batch: a (B, N, ·) head and a list of B assignments give
    (B, 1, 1), entry b holding the bytes image b's own loss has. The
    matched (image, row) pairs are one ``np.nonzero`` over the (B, N)
    roles, in row-major order; their rows are gathered into one (M, 4)
    stack for the box terms and summed back per image. One image: an
    (N, ·) head and one ``Assignment`` give a (1, 1) loss. There the
    head may carry a leading axis too, but it holds no-grad probe rows
    of that one image (``gradcheck``), not images, so the loss is
    (P, 1, 1) and every probe row reads the same targets.
    """
    batched = isinstance(assignment, list)
    assignments = assignment if batched else [assignment]
    n = T.matrix_dims(head.scores)[0]
    if batched and (head.scores.data.ndim != 3 or len(assignments) != head.scores.dims[0]):
        raise CardinalityMismatch(f"{len(assignments)} assignments for a head of shape {head.scores.dims}")
    for a in assignments:
        if len(a.roles) != n:
            raise CardinalityMismatch(f"assignment covers {len(a.roles)} rows, head has {n}")
    if n == 0:
        raise DomainError("training_loss: empty assignment")
    dtype = head.scores.data.dtype
    targets = np.stack([a.score for a in assignments])[:, :, None].astype(dtype)
    entries, rows = np.nonzero(np.stack([a.roles for a in assignments]) == MATCHED)
    focal = focal_terms(head.scores, targets if batched else targets[0], w.focal_gamma)
    total = T.scale(T.sum_all(focal), w.focal_weight)
    if len(rows):
        tgt = T.constant(np.stack([a.box for a in assignments])[entries, rows].astype(dtype))
        if batched:
            pb = T.gather_rows(T.flatten_batch(head.boxes), entries * n + rows)
            per_entry = partial(T.sum_row_blocks, counts=np.bincount(entries, minlength=len(assignments)))
        else:
            pb = T.gather_rows(head.boxes, rows)
            per_entry = T.sum_all
        giou_deficit = T.add_const(T.scale(giou_pairs(pb, tgt), -1.0), 1.0)
        box = T.add(per_entry(l1_pairs(pb, tgt)), T.scale(per_entry(giou_deficit), w.giou_weight))
        total = T.add(box, total)
    return T.scale(total, 1.0 / n)


@dataclass(frozen=True)
class TrainExample:
    """One training item: raw image, optional prior, annotated crops."""

    image: np.ndarray
    prior: object | None  # CompositionPrior or None (bias off)
    crops: tuple[ScoredCrop, ...]


def train_step(state: ModelState, batch: list[TrainExample], w: LossWeights, lr: float, optimizer=None) -> float:
    """One SGD (or supplied optimizer) update; returns the pre-step loss.

    The batch's images go through one recorded graph: one forward gives
    (B, N, ·) heads, ``decoder.check_heads`` rejects an invalid row
    (``NonFinite`` for NaN or infinity, else ``Degenerate``) before
    anything moves, ``assign_batch`` matches every image on the
    detached (B, N, ·) arrays, ``training_loss`` gives one loss per
    image and ``sum_batch`` adds them left to right. The loss, the
    gradients and so the update have the bytes of a loop that records,
    matches and scores each image on its own, through its
    ``Prediction`` objects, and adds the B losses with ``add``.
    """
    if not batch:
        raise CardinalityMismatch("train_step needs at least one example")
    head = forward_train([ex.image for ex in batch], [ex.prior for ex in batch], state)
    check_heads(head.boxes.data, head.scores.data)
    assignments = assign_batch(head.boxes.data, head.scores.data, [list(ex.crops) for ex in batch], w)
    loss = T.scale(T.sum_batch(training_loss(head, assignments, w)), 1.0 / len(batch))
    value = loss.item()
    T.backward(loss)
    if optimizer is None:
        T.sgd_step(state.data, state.grad, lr)
    else:
        optimizer.step(state.data, state.grad, lr)
    return value
