"""In-memory spans around calls into croprank's public functions.

A traced phase swaps each function listed in ``TRACE_POINTS`` for a
timing wrapper, everywhere croprank holds a reference to it, and puts
the originals back when the phase ends. The program's own files are
not touched and the wrappers pass arguments and results through
unchanged, so a traced run computes the same bytes as an untraced one.

Each span records the op it belongs to (-1 for set-up), its name, its
start and end on ``time.perf_counter``, the span that caused it, and an
optional ``info`` value taken from the call after the span closed
(graph size, matched-target count, scenario name).
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from croprank import assignment, composition, dataio, decoder, gradcheck, metrics, tensor

OP, NAME, START, END, PARENT, INFO = range(6)


def graph_nodes(loss) -> int:
    """Tensors that take part in backward from ``loss`` (leaves included).

    Walks the engine's parent links the way ``tensor.backward`` does;
    it runs after the backward span has closed, so it is not timed.
    """
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# (owner, attribute, span name, info taken from (args, result) or None)
TRACE_POINTS = (
    (tensor, "backward", "tensor.backward", lambda args, result: graph_nodes(args[0])),
    (tensor.Adam, "step", "tensor.optimizer", None),
    (decoder, "encode", "decoder.encode", None),
    (decoder, "decode", "decoder.decode", None),
    (decoder, "predict_heads", "decoder.heads", None),
    (decoder.HeadOutputs, "to_predictions", "decoder.to_predictions", None),
    (assignment, "train_step", "assignment.train_step", None),
    (assignment, "assign", "assignment.assign", lambda args, result: (result.n_good, len(result.roles))),
    (assignment, "hungarian", "assignment.hungarian", None),
    (assignment, "training_loss", "assignment.loss", None),
    (composition, "fuse_cams", "composition.fuse_cams", None),
    (composition, "resample_to_grid", "composition.resample_to_grid", None),
    (composition, "make_prior", "composition.make_prior", None),
    (dataio, "generate_synthetic", "dataio.gen", None),
    (dataio, "load_dataset", "dataio.load_dataset", None),
    (dataio.DatasetRecord, "load_image", "dataio.load_image", None),
    (dataio.DatasetRecord, "load_cams", "dataio.load_cams", None),
    (dataio, "save_checkpoint", "dataio.checkpoint", None),
    (dataio, "load_checkpoint", "dataio.checkpoint", None),
    (metrics, "build_report", "metrics.report", None),
    (gradcheck, "run_check", "gradcheck.run_check", lambda args, result: args[0]),
)


class Tracer:
    """Collects spans; ``op`` names the op that spans opened now belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._patches: list[tuple] | None = None

    def wrap(self, name: str, fn, info=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        if self._patches is None:
            self._patches = self._plan()
        try:
            for holder, attr, _, wrapper in self._patches:
                setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original, _ in self._patches:
                setattr(holder, attr, original)

    def _plan(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every reference to patch."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "croprank"]
        plan = []
        for owner, attr, name, info in TRACE_POINTS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, info)
            # `from .x import f` leaves a second reference in the importer
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            plan += [(holder, attr, original, wrapper) for holder in holders]
        return plan

    def summary(self, ops: bool) -> dict:
        """Per span name: calls, total and self seconds, and the info values.

        ``ops`` selects spans recorded inside ops (True) or in set-up.
        Self time is a span's duration minus that of its direct children.
        """
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": []})
        for span in self.spans:
            if (span[OP] >= 0) != ops:
                continue
            duration = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration
            if span[INFO] is not None:
                entry["info"].append(span[INFO])
            if span[PARENT] >= 0:
                parent = self.spans[span[PARENT]]
                out[parent[NAME]]["self_s"] -= duration
        return out

    def write(self, path) -> None:
        """One JSON array per span: op, name, start, end, parent index, info."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
