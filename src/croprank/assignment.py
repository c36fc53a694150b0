"""Set matching between predicted and annotated crops, plus training.

High-quality ground truths (MOS >= 4) are padded with empty targets to
the prediction count and matched one-to-one by cost. The solver works
on the real targets only, as a rectangular problem against all
predictions; the predictions none of them takes get the padding
targets in ascending order. Matched predictions get the full three-term
loss (L1 + weighted GIoU deficit + weighted focal); unmatched
predictions that still sit on an annotated crop (IoU >= tau) get a soft
score target; the rest are pushed to zero score. One training step is
one batched forward -> per-image assign -> one batched loss -> one
backward -> SGD (or Adam).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .decoder import HeadOutputs, ModelState, Prediction, forward_train
from .errors import CardinalityMismatch, DomainError, NonFinite, NonSquare, OutOfRange
from .geometry import ScoredCrop, boxes_array, giou, giou_matrix, giou_pairs, iou_matrix, l1_box, l1_pairs
from .tensor import Tensor

SCORE_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Loss/matching weights: both paths share the same lambdas."""

    giou_weight: float = 0.4
    focal_weight: float = 0.4
    focal_gamma: float = 2.0
    soft_iou_threshold: float = 0.85

    def __post_init__(self):
        if self.giou_weight < 0.0 or self.focal_weight < 0.0:
            raise OutOfRange("loss weights must be nonnegative")
        if not (0.0 < self.soft_iou_threshold <= 1.0):
            raise OutOfRange(f"soft IoU threshold {self.soft_iou_threshold} outside (0, 1]")
        if self.focal_gamma < 1.0:
            raise OutOfRange(f"focal gamma {self.focal_gamma} must be >= 1")


@dataclass(frozen=True)
class Role:
    """What one prediction is supervised against."""

    kind: str  # "matched" | "soft" | "negative"
    target: int | None = None  # ground-truth index (original list order)
    soft_score: float | None = None


@dataclass(frozen=True)
class Assignment:
    roles: tuple[Role, ...]
    perm: np.ndarray  # row i -> padded target column
    good_indices: tuple[int, ...]  # columns [0, len) map to these ground-truth indices

    @property
    def n_good(self) -> int:
        return len(self.good_indices)


def select_good(ground_truths: list[ScoredCrop]) -> list[ScoredCrop]:
    """Crops with MOS >= 4, original order preserved (may be empty)."""
    return [g for g in ground_truths if g.mos >= 4.0]


def normalize_mos(s: float) -> float:
    """Map the 1..5 opinion scale onto [0, 1] linearly: (s - 1) / 4."""
    if not (1.0 <= s <= 5.0):
        raise OutOfRange(f"mos {s} outside [1, 5]")
    return (s - 1.0) / 4.0


def _focal_np(v_hat: np.ndarray, v: np.ndarray | float, gamma: float) -> np.ndarray:
    vc = np.clip(v_hat, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    ce = -(v * np.log(vc) + (1.0 - v) * np.log1p(-vc))
    return np.abs(v - vc) ** gamma * ce


def focal(v_hat: float, v: float, gamma: float = 2.0) -> float:
    """Quality-focal penalty -|v - v_hat|^gamma [v log v_hat + (1-v) log(1-v_hat)].

    v_hat is clamped to [1e-7, 1 - 1e-7]; zero exactly when the clamped
    prediction equals the target.
    """
    if not (0.0 <= v <= 1.0):
        raise OutOfRange(f"target score {v} outside [0, 1]")
    return float(_focal_np(np.float64(v_hat), np.float64(v), gamma))


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


def match_cost(pred: Prediction, target: ScoredCrop, w: LossWeights) -> float:
    """L1 + lambda_giou (1 - giou) + lambda_focal focal(v_hat, v)."""
    v = normalize_mos(target.mos)
    return (
        l1_box(pred.box, target.box)
        + w.giou_weight * (1.0 - giou(pred.box, target.box))
        + w.focal_weight * focal(pred.score, v, w.focal_gamma)
    )


def empty_cost(pred: Prediction, w: LossWeights) -> float:
    """Cost of assigning a prediction to a padding target: focal vs 0 only."""
    return w.focal_weight * focal(pred.score, 0.0, w.focal_gamma)


def build_cost_matrix(preds: list[Prediction], good: list[ScoredCrop], w: LossWeights) -> np.ndarray:
    """(N, N) padded cost matrix; columns beyond len(good) are padding."""
    n = len(preds)
    g = len(good)
    if g > n:
        raise CardinalityMismatch(f"{g} matchable targets but only {n} predictions")
    pred_boxes = boxes_array([p.box for p in preds])
    scores = np.array([p.score for p in preds], dtype=np.float64)
    costs = np.empty((n, n), dtype=np.float64)
    pad = w.focal_weight * _focal_np(scores, 0.0, w.focal_gamma)
    costs[:, g:] = pad[:, None]
    if g:
        tgt_boxes = boxes_array([t.box for t in good])
        v = np.array([normalize_mos(t.mos) for t in good], dtype=np.float64)
        l1 = np.abs(pred_boxes[:, None, :] - tgt_boxes[None, :, :]).sum(axis=2)
        gi = giou_matrix(pred_boxes, tgt_boxes)
        fo = _focal_np(scores[:, None], v[None, :], w.focal_gamma)
        costs[:, :g] = l1 + w.giou_weight * (1.0 - gi) + w.focal_weight * fo
    return costs


# -- Hungarian solver -----------------------------------------------------------


def _shortest_paths(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest-augmenting-path assignment of every row of an (n, m) matrix, n <= m.

    Returns (col_of_row, u, v): the column of each row and the dual
    potentials of the rows and columns. Reduced costs
    cost[r, c] - u[r] - v[c] are nonnegative and zero on the assignment;
    v is nonpositive, and zero on every column left unassigned.
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


def hungarian(costs: np.ndarray) -> np.ndarray:
    """Exact minimum-cost bijection rows -> columns.

    The trailing block of columns equal to the last one is padding:
    build_cost_matrix leaves N - g of them, and every square matrix has
    at least one. Only the g real columns are solved, as a rectangular
    problem against all rows on their cost over padding,
    c[:, :g] - c[:, -1:]. Among equal-total optima the lexicographically
    smallest column sequence (by row index) is returned: row by row,
    smaller real columns with zero reduced cost are tried and verified
    by sub-solves over the real columns left, so the refinement costs
    nothing when the optimum is unique. The rows no real column takes
    then get the padding columns g, g+1, ... in ascending row order.
    """
    arr = np.asarray(costs)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NonSquare(f"cost matrix must be square and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("cost matrix contains NaN or infinity")
    arr = arr.astype(np.float64, copy=False)
    n = arr.shape[0]
    is_pad = np.all(arr == arr[:, -1:], axis=0)
    g = n - int(np.argmin(np.append(is_pad[::-1], False)))
    real = arr[:, :g] - arr[:, -1:]
    match = np.full(n, -1, dtype=np.int64)  # real column of each row, -1 = padding
    if g:
        col_rows, u, v = _shortest_paths(real.T)
        match[col_rows] = np.arange(g)
        rows = np.arange(n)
        # arr[i, -1] is the padding cost, so index -1 prices an unmatched row
        total = float(arr[rows, match].sum())
        tol = 1e-7 * max(1.0, float(np.abs(arr).max()))
        available = np.ones(g, dtype=bool)
        for i in range(n):
            # only zero-reduced-cost columns can belong to an optimal solution
            below = g if match[i] < 0 else match[i]
            reduced = real[i, :below] - u[:below] - v[i]
            for j in np.nonzero(available[:below] & (reduced <= tol))[0]:
                rest = np.nonzero(available)[0]
                rest = rest[rest != j]
                trial = match.copy()
                trial[i] = j
                trial[i + 1 :] = -1
                sub_rows, _, _ = _shortest_paths(real[i + 1 :, rest].T)
                trial[i + 1 + sub_rows] = rest
                trial_total = float(arr[rows, trial].sum())
                if trial_total <= total:
                    match, total = trial, trial_total
                    break
            if match[i] >= 0:
                available[match[i]] = False
    match[match < 0] = np.arange(g, n)
    return match


def assign(preds: list[Prediction], ground_truths: list[ScoredCrop], w: LossWeights) -> Assignment:
    """Match predictions to good targets, then classify the remainder.

    (1) Hungarian over the padded cost matrix; (2) rows landing on a
    real column become matched; (3) unmatched rows overlapping ANY
    annotated crop at IoU >= tau become soft with score
    normalize_mos(neighbor MOS) * IoU; (4) the rest are negatives.
    """
    n = len(preds)
    if n == 0:
        raise CardinalityMismatch("assign requires at least one prediction")
    good_indices = tuple(i for i, g in enumerate(ground_truths) if g.mos >= 4.0)
    good = [ground_truths[i] for i in good_indices]
    if len(good) > n:
        raise CardinalityMismatch(f"{len(good)} matchable targets but only {n} predictions")
    costs = build_cost_matrix(preds, good, w)
    perm = hungarian(costs)
    if ground_truths:
        ious = iou_matrix(boxes_array([p.box for p in preds]), boxes_array([g.box for g in ground_truths]))
    else:
        ious = np.zeros((n, 0))
    roles: list[Role] = []
    for i in range(n):
        col = int(perm[i])
        if col < len(good):
            roles.append(Role(kind="matched", target=good_indices[col]))
            continue
        if ious.shape[1]:
            neighbor = int(np.argmax(ious[i]))  # ties resolve to the lowest index
            overlap = float(ious[i, neighbor])
            if overlap >= w.soft_iou_threshold:
                soft = normalize_mos(ground_truths[neighbor].mos) * overlap
                roles.append(Role(kind="soft", target=neighbor, soft_score=soft))
                continue
        roles.append(Role(kind="negative"))
    return Assignment(roles=tuple(roles), perm=perm, good_indices=good_indices)


def training_loss(
    head: HeadOutputs,
    assignment: Assignment | list[Assignment],
    ground_truths: list[ScoredCrop] | list[list[ScoredCrop]],
    w: LossWeights,
) -> Tensor:
    """Role-dependent loss, summed and averaged over all N predictions: one loss per leading entry.

    Matched rows: L1 + lambda_giou (1 - giou) + lambda_focal focal
    against their target; soft rows: focal toward the soft score;
    negative rows: focal toward zero. The focal term is one call over
    all N scores against one target column that holds each row's role
    target. The assignment itself is taken as given (no gradient flows
    through the matching).

    One image: an (N, ·) head, one ``Assignment`` and its crops give a
    (1, 1) loss ((P, 1, 1) when a no-grad probe axis rides on the
    head). A batch: a (B, N, ·) head, a list of B assignments and a
    list of B crop lists give (B, 1, 1), entry b holding the bytes
    image b's own loss has. The batch's matched rows are gathered
    into one (M, 4) stack for the box terms and summed back per image.
    """
    batched = isinstance(assignment, list)
    assignments = assignment if batched else [assignment]
    crops = ground_truths if batched else [ground_truths]
    n = T.matrix_dims(head.scores)[0]
    if batched and (head.scores.data.ndim != 3 or not len(assignments) == len(crops) == head.scores.dims[0]):
        raise CardinalityMismatch(
            f"{len(assignments)} assignments and {len(crops)} crop lists for a head of shape {head.scores.dims}"
        )
    for a in assignments:
        if len(a.roles) != n:
            raise CardinalityMismatch(f"assignment covers {len(a.roles)} rows, head has {n}")
    if n == 0:
        raise DomainError("training_loss: empty assignment")
    dtype = head.scores.data.dtype
    targets = np.zeros((len(assignments), n, 1), dtype=dtype)
    matched = []  # (entry, row)
    for e, (a, gts) in enumerate(zip(assignments, crops)):
        for i, r in enumerate(a.roles):
            if r.kind == "matched":
                matched.append((e, i))
                targets[e, i, 0] = normalize_mos(gts[r.target].mos)
            elif r.kind == "soft":
                targets[e, i, 0] = r.soft_score
    focal = focal_terms(head.scores, targets if batched else targets[0], w.focal_gamma)
    total = T.scale(T.sum_all(focal), w.focal_weight)
    if matched:
        tgt = T.constant(boxes_array([crops[e][assignments[e].roles[i].target].box for e, i in matched]).astype(dtype))
        if batched:
            pb = T.gather_rows(T.flatten_batch(head.boxes), [e * n + i for e, i in matched])
            counts = np.bincount([e for e, _ in matched], minlength=len(assignments))
            per_entry = partial(T.sum_row_blocks, counts=counts)
        else:
            pb = T.gather_rows(head.boxes, [i for _, i in matched])
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
    (B, N, ·) heads, each image is matched on its own detached rows,
    ``training_loss`` gives one loss per image and ``sum_batch`` adds
    them left to right. The loss, the gradients and so the update have
    the bytes of a loop that records, matches and scores each image on
    its own and adds the B losses with ``add``.
    """
    if not batch:
        raise CardinalityMismatch("train_step needs at least one example")
    head = forward_train([ex.image for ex in batch], [ex.prior for ex in batch], state)
    crops = [list(ex.crops) for ex in batch]
    assignments = [assign(head.entry(e).to_predictions(), gts, w) for e, gts in enumerate(crops)]
    loss = T.scale(T.sum_batch(training_loss(head, assignments, crops, w)), 1.0 / len(batch))
    value = loss.item()
    T.backward(loss)
    params = state.parameters()
    if optimizer is None:
        T.sgd_step(params, lr)
    else:
        optimizer.step(params, lr)
    return value
