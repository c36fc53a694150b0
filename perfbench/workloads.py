"""The benchmark's three workloads and the closed loop that times them.

Every workload is one process with one caller: an op starts when the
previous one returns, and nothing is scheduled by arrival time.

- ``train_desk``: back-to-back ``assignment.train_step`` calls with
  Adam on the desk preset, in passes over the same four epochs from
  the same init; one op is one 16-image step. Matching, graph recording
  and backward do the work.
- ``eval_desk``: per image ``load_image``, ``load_cams``, prior fusion
  and a no-grad ``decoder.forward``; each pass over the split ends with
  one ``build_report``. One op is one image. No matching, no backward:
  the bypass for assignment and backward changes.
- ``gradcheck_toy``: ``gradcheck.run_check`` over all scenarios for
  consecutive seeds at tol 1e-4; one op is one scenario, and latencies
  are reported per seed. Hundreds of toy forwards per seed, so per-op
  Python overhead in ``tensor`` dominates.

The workload seed sets the data seed and the train seed; the program
only ever sees the generated inputs.
"""
from __future__ import annotations

import copy
import math
import shutil
import statistics
import time
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

from croprank import assignment, cli, composition, dataio, decoder, gradcheck, metrics
from croprank.errors import CropError
from croprank.tensor import Adam
from spans import END, INFO, NAME, OP, START

GRADCHECK_TOL = 1e-4
# set-up is timed this often and for at least this long, both before and
# after the timed ops, so that a slow spell of the machine weighs less
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# The machine's speed shifts by up to 1.7x in spells of seconds to minutes,
# so wall-clock times are scaled to one reference speed: a fixed task runs
# between ops at least this often, and the ops between two runs of it are
# scaled by REFERENCE_S over the mean of the two (see README, "Machine speed").
PROBE_EVERY_S = 0.2
# about what the reference task takes on a 2-vCPU Xeon at 2.0 GHz in its fast spells
REFERENCE_S = 2.2e-3
_REF_A = np.random.default_rng(0).standard_normal((32, 64))
_REF_B = np.random.default_rng(1).standard_normal((64, 32))
# read by the reference task: the benchmark's own sources, which are the same
# on every commit it measures
_REF_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def plus(self, x):
        return self.value + x


def reference_seconds() -> float:
    """Wall time of the reference task.

    Small Python objects made, called and stored, a chain of small numpy
    products and a few small file reads: the kinds of work croprank's ops
    are made of, and a mix that a slow spell slows about as much as it
    slows the ops. It shares no code with croprank, so a change to
    croprank does not change what it does.
    """
    t0 = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(2_000):
        table[i & 63] = _Cell(i).plus(i)
        total += len(table)
    x = _REF_A
    for _ in range(60):
        x = np.tanh(x @ _REF_B) @ _REF_A * 0.5
    for _ in range(8):
        for path in _REF_FILES:
            total += len(path.read_bytes())
    return time.perf_counter() - t0


class Workload:
    """A set-up step plus ops replayable from the same start.

    ``op(i)`` returns the op's output or raises ``CropError``;
    ``check(i, out)`` returns a problem description or None;
    ``digest(out)`` gives the bytes compared between traced and
    untraced phases; ``keep(out)`` is what of it the checks after the
    loop need.
    """

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.profile: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def start_phase(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def items(self, i: int) -> int:
        return 1

    def check(self, i: int, out) -> str | None:
        return None

    def digest(self, out) -> bytes:
        raise NotImplementedError

    def keep(self, out):
        return out

    def after_op(self, i: int, out, problems: list) -> None:
        pass

    def may_stop_before(self, i: int) -> bool:
        return True

    def reported_latencies(self, latencies: list[float]) -> list[float]:
        """The latencies ``op_ms_*`` are taken over, from those of the ops."""
        return latencies

    def final_check(self, phase: "Phase") -> list[str]:
        return []

    def output_metrics(self, phase: "Phase") -> dict:
        return {}

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def time_setups(wl: Workload) -> tuple[list[float], list[float]]:
    """Set ``wl`` up repeatedly; seconds per set-up, at the reference speed and on the wall clock."""
    scaled: list[float] = []
    wall: list[float] = []
    probe = reference_seconds()
    while len(wall) < SETUP_REPEATS or sum(wall) < SETUP_MIN_S:
        t0 = time.perf_counter()
        wl.setup()
        wall.append(time.perf_counter() - t0)
        next_probe = reference_seconds()
        scaled.append(wall[-1] * REFERENCE_S / ((probe + next_probe) / 2))
        probe = next_probe
    return scaled, wall


def _desk_config(seed: int, **overrides):
    fields = {"data.seed": seed, "train.seed": seed, "mcab": "average"}
    fields.update(overrides)
    return cli.resolve_config("desk", None, fields)


def _generate(cfg, seed: int, n: int, out_dir: Path):
    """``generate_synthetic`` with the config's shapes, as ``cli.cmd_gen`` calls it."""
    data, m = cfg["data"], cfg.model
    return dataio.generate_synthetic(
        seed, n, out_dir, image_h=m.image_h, image_w=m.image_w, channels=m.in_channels,
        cam_h=int(data["cam_h"]), cam_w=int(data["cam_w"]), n_candidates=int(data["n_candidates"]),
    )


def _good_profile(records, n_queries: int) -> dict:
    goods = [sum(1 for c in r.crops if c.mos >= 4.0) for r in records]
    crops = [len(r.crops) for r in records]
    return {
        "images": len(records),
        "good_per_image_histogram": {str(g): n for g, n in sorted(Counter(goods).items())},
        "pad_share": statistics.fmean((n_queries - g) / n_queries for g in goods),
        "crops_per_image": {"min": min(crops), "max": max(crops), "mean": statistics.fmean(crops)},
    }


def _model_profile(cfg) -> dict:
    m = cfg.model
    return {
        "preset": "desk",
        "n_queries": m.n_queries,
        "n_layers": m.n_layers,
        "model_dim": m.model_dim,
        "image": [m.in_channels, m.image_h, m.image_w],
        "dtype": cfg.raw["dtype"],
        "mcab": cfg.mcab,
    }


def _per_call_ms(summary: dict, *names: str, per: str | None = None) -> float:
    """Total span time of ``names`` in ms, divided by the calls of ``per``."""
    calls = summary[per or names[0]]["calls"]
    if not calls:
        return 0.0
    return 1000.0 * sum(summary[n]["total_s"] for n in names) / calls


class TrainDesk(Workload):
    """Passes over the first epochs of ``cli.run_training``'s loop.

    Each pass starts from the same init and replays the same steps, so
    the steps timed do not depend on how many of them fit in the run.
    """

    name = "train_desk"
    N_TRAIN = 64
    WINDOW_EPOCHS = 4

    def setup(self) -> None:
        self.cfg = cfg = _desk_config(self.seed, **{"data.n_train": self.N_TRAIN,
                                                    "train.epochs": self.WINDOW_EPOCHS})
        self.records = _generate(cfg, self.seed, self.N_TRAIN, self.fresh_dir("train"))
        # priors are built here, once; the timed steps never touch them
        self.examples = cli.prepare_examples(self.records, cfg.model, cfg.mcab, cfg.dtype)
        train = cfg["train"]
        batch_size = int(train["batch_size"])
        self.steps_per_epoch = math.ceil(self.N_TRAIN / batch_size)
        # the epoch order and learning-rate decay of cli.run_training
        rng = np.random.default_rng([self.seed, 1])
        lr = float(train["lr"])
        self.schedule: list[tuple[np.ndarray, float]] = []
        for epoch in range(self.WINDOW_EPOCHS):
            if epoch == int(train["decay_epoch"]):
                lr *= float(train["decay_factor"])
            order = rng.permutation(self.N_TRAIN)
            self.schedule += [(order[at : at + batch_size], lr) for at in range(0, self.N_TRAIN, batch_size)]
        self.reference: dict[int, bytes] = {}
        self.profile = {**_model_profile(cfg), "batch_size": batch_size, "optimizer": train["optimizer"],
                        "window_steps": len(self.schedule), **_good_profile(self.records, cfg.model.n_queries)}

    def start_phase(self) -> None:
        self.state = decoder.init_state(self.cfg.model, seed=self.seed, dtype=self.cfg.dtype)
        self.optimizer = Adam()

    def op(self, i: int):
        batch, lr = self.schedule[i % len(self.schedule)]
        return assignment.train_step(self.state, [self.examples[k] for k in batch], self.cfg.loss, lr,
                                     optimizer=self.optimizer)

    def items(self, i: int) -> int:
        return len(self.schedule[i % len(self.schedule)][0])

    def check(self, i: int, out) -> str | None:
        if not (math.isfinite(out) and out >= 0.0):
            return f"step {i}: loss {out!r} is not a finite nonnegative number"
        # every pass must repeat the first one bit for bit
        digest = self.digest(out)
        if self.reference.setdefault(i % len(self.schedule), digest) != digest:
            return f"step {i}: loss differs from the first pass"
        return None

    def digest(self, out) -> bytes:
        return np.float64(out).tobytes()

    def after_op(self, i: int, out, problems: list) -> None:
        if (i + 1) % len(self.schedule) == 0:
            self.start_phase()

    def may_stop_before(self, i: int) -> bool:
        return i % len(self.schedule) == 0

    def final_check(self, phase: "Phase") -> list[str]:
        """The first pass equals cli.run_training on the same config, bit for bit."""
        try:
            _, history = cli.run_training(self.cfg, self.records)
        except CropError as e:
            return [f"cli.run_training raised {type(e).__name__}: {e}"]
        expected = [self.digest(loss) for loss in history["step_losses"]]
        if [self.reference.get(i) for i in range(len(self.schedule))] != expected:
            return ["step losses differ from cli.run_training"]
        return []

    def output_metrics(self, phase: "Phase") -> dict:
        """Mean loss over the window's last epoch, as cli.run_training computes it."""
        last = range(len(self.schedule) - self.steps_per_epoch, len(self.schedule))
        losses = [phase.outputs[i] for i in last]
        if None in losses:
            return {"train_loss_final": 0.0}
        return {"train_loss_final": sum(loss * self.items(i) for loss, i in zip(losses, last)) / self.N_TRAIN}


class EvalDesk(Workload):
    """Per-image eval of a briefly trained checkpoint over the val split."""

    name = "eval_desk"
    N_TRAIN = 32
    N_VAL = 60

    def setup(self) -> None:
        cfg = _desk_config(self.seed, **{"data.n_train": self.N_TRAIN, "data.n_val": self.N_VAL,
                                         "train.epochs": 1})
        # the val split's seed follows the train split's, as in cli.cmd_gen
        train = _generate(cfg, self.seed, self.N_TRAIN, self.fresh_dir("train"))
        self.records = _generate(cfg, self.seed + 1, self.N_VAL, self.fresh_dir("val"))
        trained, _ = cli.run_training(cfg, train)
        ckpt = self.fresh_dir("checkpoint")
        dataio.save_checkpoint(ckpt, trained, extra={"mcab": cfg.mcab, "dtype": cfg.raw["dtype"]})
        self.state, extra = dataio.load_checkpoint(ckpt)
        self.mode = extra["mcab"]
        ev = cfg["eval"]
        self.report_args = dict(ks=tuple(ev["ks"]), ns=tuple(ev["ns"]), epsilon=float(ev["epsilon"]))
        self.profile = {**_model_profile(cfg), "train_images": self.N_TRAIN, "train_epochs": 1,
                        **_good_profile(self.records, cfg.model.n_queries)}
        self.reference: dict[int, bytes] = {}

    def start_phase(self) -> None:
        self.examples: list = []

    def op(self, i: int):
        record = self.records[i % len(self.records)]
        m = self.state.config
        image = record.load_image().astype(self.state.dtype)
        cams = record.load_cams()
        fused = composition.fuse_cams(cams, record.class_probs, self.mode)
        prior = composition.make_prior(composition.resample_to_grid(fused, m.grid_h, m.grid_w), m.epsilon_b)
        return decoder.forward(image, prior, self.state)

    def check(self, i: int, out) -> str | None:
        for p in out:
            b = p.box
            if not (all(math.isfinite(v) for v in (b.cx, b.cy, b.w, b.h, p.score))
                    and 0.0 <= b.cx <= 1.0 and 0.0 <= b.cy <= 1.0
                    and 0.0 < b.w <= 1.0 and 0.0 < b.h <= 1.0 and 0.0 <= p.score <= 1.0):
                return f"image {i}: invalid prediction {p}"
        # every pass over the split must give the same bytes
        digest = self.digest(out)
        if self.reference.setdefault(i % len(self.records), digest) != digest:
            return f"image {i}: predictions differ from the first pass"
        return None

    def digest(self, out) -> bytes:
        return np.array([[p.box.cx, p.box.cy, p.box.w, p.box.h, p.score] for p in out]).tobytes()

    def keep(self, out):
        return None  # checked as it arrives; keeping every pass would grow the heap

    def after_op(self, i: int, out, problems: list) -> None:
        if out is not None:
            record = self.records[i % len(self.records)]
            self.examples.append(metrics.EvalExample(predictions=tuple(out), ground_truths=record.crops))
        if (i + 1) % len(self.records) == 0 and self.examples:
            report = metrics.build_report(self.examples, **self.report_args)
            values = [v for row in report.acc.values() for v in row.values()] + list(report.acc_bar.values())
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"pass ending at image {i}: Acc value outside [0, 1]")
            self.examples = []

    def may_stop_before(self, i: int) -> bool:
        return i % len(self.records) == 0

    def final_check(self, phase: "Phase") -> list[str]:
        """The first pass equals cli.evaluate_model on the same checkpoint and split."""
        try:
            expected = cli.evaluate_model(self.state, self.records, self.mode, self.state.dtype)
        except CropError as e:
            return [f"cli.evaluate_model raised {type(e).__name__}: {e}"]
        for i, ex in enumerate(expected):
            if self.reference.get(i) != self.digest(ex.predictions):
                return [f"image {i}: predictions differ from cli.evaluate_model"]
        return []


class GradcheckToy(Workload):
    """All gradcheck scenarios for consecutive seeds, one scenario per op.

    A seed's scenarios run back to back and its latency is their sum. One
    op per scenario lets the reference task run between the two long
    scenarios of a seed, which take most of its time.
    """

    name = "gradcheck_toy"
    SCENARIOS = tuple(gradcheck.SCENARIOS)

    def setup(self) -> None:
        # building every scenario's fixture, as run_check does, is the only
        # preparation a seed needs
        for name, build in gradcheck.SCENARIOS.items():
            build(np.random.default_rng([self.seed, zlib.crc32(name.encode())]))
        toy = decoder.init_state(gradcheck.toy_config(), seed=0)
        self.profile = {
            "scenarios": len(gradcheck.SCENARIOS),
            "tol": GRADCHECK_TOL,
            "toy_parameters": sum(p.numel for p in toy.parameters()),
            "dtype": "f64",
            "first_seed": self.seed,
        }

    def op(self, i: int):
        offset, k = divmod(i, len(self.SCENARIOS))
        return gradcheck.run_check(self.SCENARIOS[k], self.seed + offset, tol=GRADCHECK_TOL)

    def items(self, i: int) -> int:
        return int(i % len(self.SCENARIOS) == len(self.SCENARIOS) - 1)  # a seed is done

    def may_stop_before(self, i: int) -> bool:
        return i % len(self.SCENARIOS) == 0

    def check(self, i: int, out) -> str | None:
        if not out.max_error < GRADCHECK_TOL:
            return f"seed {self.seed + i // len(self.SCENARIOS)}: {out.name} rel err {out.max_error:.3e}"
        return None

    def digest(self, out) -> bytes:
        return np.float64(out.max_error).tobytes()

    def reported_latencies(self, latencies: list[float]) -> list[float]:
        n = len(self.SCENARIOS)
        return [sum(latencies[at : at + n]) for at in range(0, len(latencies), n)]

    def output_metrics(self, phase: "Phase") -> dict:
        errors = [r.max_error for r in phase.outputs if r is not None]
        return {"gradcheck.max_rel_err": max(errors, default=0.0)}


WORKLOADS = {w.name: w for w in (TrainDesk, EvalDesk, GradcheckToy)}


class Phase:
    """What one run of the closed loop produced, op by op."""

    def __init__(self):
        self.latencies: list[float] = []  # wall clock
        self.outputs: list = []
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []  # CropErrors raised by ops
        self.problems: list[str] = []  # failed output checks
        self.elapsed = 0.0  # wall clock, reference task runs excluded
        # filled by run_phase only: each op's wall-to-reference factor, the
        # elapsed time at the reference speed, and every reference task time
        self.scales: list[float] = []
        self.ref_elapsed = 0.0
        self.probes: list[float] = []

    def ref_latencies(self) -> list[float]:
        return [lat * scale for lat, scale in zip(self.latencies, self.scales)]


def _step(wl: Workload, i: int, phase: Phase, tracer):
    """Op ``i`` of ``wl`` into ``phase``; returns its output.

    A ``CropError`` or a failed output check counts the op as failed
    and the caller goes on.
    """
    tracer.op = i
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except CropError as e:
        out = None
        phase.errors.append(f"op {i}: {type(e).__name__} ({e.code}): {e}")
    phase.latencies.append(time.perf_counter() - t0)
    problem = wl.check(i, out) if out is not None else None
    if problem:
        phase.problems.append(problem)
    if out is None or problem:
        phase.failed += 1
    phase.outputs.append(None if out is None else wl.keep(out))
    phase.items += wl.items(i)
    wl.after_op(i, out, phase.problems)
    tracer.op = -1
    return out


def run_phase(wl: Workload, tracer, seconds: float) -> Phase:
    """Ops back to back, untraced, until ``seconds`` have passed.

    The reference task runs before the first op, after the last, and
    between ops once ``PROBE_EVERY_S`` has passed since it last ran. The
    ops of each stretch between two runs of it, and the stretch's wall
    time, are scaled by ``REFERENCE_S`` over the mean of the two.
    """
    phase = Phase()
    wl.start_phase()
    phase.probes.append(reference_seconds())
    start = stretch_start = time.perf_counter()
    stretch_ops = 0
    i = 0
    while True:
        now = time.perf_counter()
        done = now - start >= seconds and wl.may_stop_before(i)
        if done or now - stretch_start >= PROBE_EVERY_S:
            phase.probes.append(reference_seconds())
            scale = REFERENCE_S / statistics.fmean(phase.probes[-2:])
            phase.scales += [scale] * stretch_ops
            phase.elapsed += now - stretch_start
            phase.ref_elapsed += (now - stretch_start) * scale
            if done:
                return phase
            stretch_start = time.perf_counter()
            stretch_ops = 0
        _step(wl, i, phase, tracer)
        stretch_ops += 1
        i += 1


def run_pair(wl: Workload, tracer, seconds: float) -> tuple[Phase, Phase]:
    """The same ops replayed untraced and traced, interleaved op by op.

    A twin of the workload (same set-up, its own phase state) runs the
    traced side, so op i of both sides starts from the same point and
    both see the same machine load; which side goes first alternates.
    The two outputs of each op must have the same bytes.
    """
    twin = copy.copy(wl)
    untraced, traced = Phase(), Phase()
    wl.start_phase()
    twin.start_phase()
    start = time.perf_counter()
    i = 0
    while not (time.perf_counter() - start >= seconds and wl.may_stop_before(i)):
        out = {}
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            if side:
                with tracer.active():
                    out[side] = _step(twin, i, traced, tracer)
            else:
                out[side] = _step(wl, i, untraced, tracer)
        if (out[0] is None) != (out[1] is None) or (out[0] is not None and wl.digest(out[0]) != wl.digest(out[1])):
            traced.problems.append(f"op {i}: traced output differs from untraced")
        i += 1
    return untraced, traced


def layer_metrics(wl: Workload, tracer, traced: Phase, untraced: Phase, setup_summary: dict) -> dict:
    """Per-layer numbers from the traced phase (set-up totals from the traced set-up)."""
    s = tracer.summary(ops=True)
    assigned = s["assignment.assign"]["info"]
    checks: dict = {}  # seconds per gradcheck scenario
    for span in tracer.spans:
        if span[OP] >= 0 and span[NAME] == "gradcheck.run_check":
            checks[span[INFO]] = checks.get(span[INFO], 0.0) + span[END] - span[START]
    seeds = traced.items if checks else 0
    model_s = checks.get("decoder_forward", 0.0), checks.get("training_loss", 0.0)
    out = {
        "tensor.backward_ms_per_step": _per_call_ms(s, "tensor.backward"),
        "tensor.optimizer_ms_per_step": _per_call_ms(s, "tensor.optimizer"),
        "tensor.graph_nodes_per_step": statistics.fmean(s["tensor.backward"]["info"] or [0]),
        "decoder.encode_ms_per_img": _per_call_ms(s, "decoder.encode"),
        "decoder.decode_ms_per_img": _per_call_ms(s, "decoder.decode"),
        "decoder.heads_ms_per_img": _per_call_ms(s, "decoder.heads"),
        "decoder.to_predictions_ms_per_img": _per_call_ms(s, "decoder.to_predictions"),
        "assignment.hungarian_ms_per_img": _per_call_ms(s, "assignment.hungarian", per="assignment.assign"),
        "assignment.assign_self_ms_per_img": (
            1000.0 * s["assignment.assign"]["self_s"] / len(assigned) if assigned else 0.0),
        "assignment.loss_ms_per_img": _per_call_ms(s, "assignment.loss"),
        "assignment.good_per_img": statistics.fmean([g for g, _ in assigned] or [0]),
        "assignment.pad_share": statistics.fmean([(n - g) / n for g, n in assigned] or [0]),
        "composition.prior_ms_per_img": _per_call_ms(
            s, "composition.fuse_cams", "composition.resample_to_grid", "composition.make_prior"),
        "dataio.load_ms_per_img": _per_call_ms(s, "dataio.load_image", "dataio.load_cams"),
        "dataio.gen_s": setup_summary["dataio.gen"]["total_s"],
        "dataio.checkpoint_s": setup_summary["dataio.checkpoint"]["total_s"],
        "metrics.report_ms": _per_call_ms(s, "metrics.report"),
        "gradcheck.decoder_forward_s_per_seed": model_s[0] / seeds if seeds else 0.0,
        "gradcheck.training_loss_s_per_seed": model_s[1] / seeds if seeds else 0.0,
        "gradcheck.op_scenarios_s_per_seed": (sum(checks.values()) - sum(model_s)) / seeds if seeds else 0.0,
        "gradcheck.forwards_per_seed": s["decoder.encode"]["calls"] / seeds if seeds else 0.0,
        "gradcheck.max_rel_err": 0.0,
        "train_loss_final": 0.0,
        "failed_share": untraced.failed / len(untraced.outputs),
        "trace.overhead_share": sum(traced.latencies) / sum(untraced.latencies) - 1.0,
    }
    out.update(wl.output_metrics(untraced))
    return out
