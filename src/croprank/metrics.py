"""Rank-based evaluation of predicted crops against annotated crops.

Acc_{K/N}: the fraction of the top-K scored predictions whose best IoU
against any of the top-N annotated crops clears a threshold, averaged
over all T examples; both rankings break ties by original index. It is
computed once per split: one sort per example, one (T, max K, max N)
``iou_matrix`` call, then the cumulative hit count at rank K over T·K.
A flagged example (see ``EvalExample``) stays in T with zero hits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .decoder import Prediction
from .errors import DimMismatch, EmptySK, KTooLarge, NTooLarge, OutOfRange
from .geometry import ScoredCrop, boxes_array, iou_matrix


@dataclass(frozen=True)
class EvalExample:
    """One evaluated image; ``flagged`` is the id of an image whose heads were invalid, left with no predictions."""

    predictions: tuple[Prediction, ...]
    ground_truths: tuple[ScoredCrop, ...]
    flagged: str | None = None

    def __post_init__(self):
        if len(self.predictions) < 1 and self.flagged is None:
            raise DimMismatch("EvalExample needs at least one prediction")


def _top_rows(items, key, depth: int) -> np.ndarray:
    """(depth, 4) boxes of the ``depth`` items of highest ``key``; the stable argsort breaks ties by index."""
    order = np.argsort([-key(x) for x in items], kind="stable")[:depth]
    return boxes_array([items[i].box for i in order])


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy table for one evaluation run, with the ids of its flagged examples."""

    epsilon: float
    n_examples: int
    acc: dict  # {N: {K: value}}
    acc_bar: dict  # {N: value}
    flagged: tuple[str, ...] = ()

    def to_json(self) -> str:
        acc = {str(n): {str(k): v for k, v in row.items()} for n, row in self.acc.items()}
        payload = {"epsilon": self.epsilon, "examples": self.n_examples, "acc": acc,
                   "acc_bar": {str(n): v for n, v in self.acc_bar.items()}}
        flagged = {"flagged": {"count": len(self.flagged), "ids": list(self.flagged)}} if self.flagged else {}
        return json.dumps({**payload, **flagged}, indent=2, sort_keys=True)


def build_report(examples, ks=(1, 2, 3, 4), ns=(5, 10), epsilon: float = 0.90) -> MetricsReport:
    """Acc_{K/N} for every pair and its mean over K for every N, from one IoU pass over the split."""
    examples, ks, ns = list(examples), list(ks), list(ns)
    flagged = tuple(ex.flagged for ex in examples if ex.flagged is not None)
    if not ns:
        return MetricsReport(epsilon=epsilon, n_examples=len(examples), acc={}, acc_bar={}, flagged=flagged)
    if not ks:
        raise EmptySK("build_report: S_K is empty")
    if not (0.0 <= epsilon <= 1.0):
        raise OutOfRange(f"epsilon {epsilon} outside [0, 1]")
    if not examples:
        raise DimMismatch("build_report needs at least one example")
    for n, k, ex in product(ns, ks, examples):  # the first bad (N, K) pair raises, at its first bad example
        if ex.flagged is None and not 1 <= k <= len(ex.predictions):
            raise KTooLarge(f"K={k} outside [1, {len(ex.predictions)}]")
        if not 1 <= n <= len(ex.ground_truths):
            raise NTooLarge(f"N={n} outside [1, {len(ex.ground_truths)}]")
    live = [ex for ex in examples if ex.flagged is None]
    preds = [_top_rows(ex.predictions, lambda p: p.score, max(ks)) for ex in live]
    gts = [_top_rows(ex.ground_truths, lambda g: g.mos, max(ns)) for ex in live]
    ious = iou_matrix(np.reshape(preds, (len(live), max(ks), 4)), np.reshape(gts, (len(live), max(ns), 4)))
    hits = {n: np.cumsum((ious[:, :, :n].max(axis=2) >= epsilon).sum(axis=0)) for n in ns}
    acc = {n: {k: int(hits[n][k - 1]) / (len(examples) * k) for k in ks} for n in ns}
    acc_bar = {n: sum(row[k] for k in ks) / len(ks) for n, row in acc.items()}
    return MetricsReport(epsilon=epsilon, n_examples=len(examples), acc=acc, acc_bar=acc_bar, flagged=flagged)


def render_table(rows: list[tuple[str, MetricsReport]]) -> str:
    """Aligned text table: one row per labeled run, Acc_{K/N} columns."""
    if not rows:
        return ""
    ns = sorted(rows[0][1].acc.keys())
    ks = sorted(next(iter(rows[0][1].acc.values())).keys())
    headers = ["run"]
    for n in ns:
        headers += [f"Acc_{k}/{n}" for k in ks] + [f"AccBar_{n}"]
    table = [headers]
    for label, rep in rows:
        cells = [label]
        for n in ns:
            cells += [f"{rep.acc[n][k]:.4f}" for k in ks] + [f"{rep.acc_bar[n]:.4f}"]
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
