"""Operator entry point: gen / train / eval / fuse / gradcheck / ablate.

Configuration is one JSON document; every leaf is overridable with a
flag of the same dotted name (e.g. --model.n_queries 32), and
--seed, --epochs and --lr are aliases of --train.seed, --train.epochs
and --train.lr. A flag's text becomes an int, a float, a JSON value or
else the text itself; ``RunConfig`` then types and bounds it by the
rule it applies to the file, so a flag and a file fail on the same
field with the same code. A flag given twice, through its alias or
not, keeps its last value. Errors derived from CropError leave as
machine-readable JSON on stderr with a nonzero exit code.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import gradcheck
from .assignment import LossWeights, TrainExample, train_step
from .composition import (
    FUSE_MODES,
    ActivationMap,
    ClassProbabilities,
    fuse_cams,
    make_prior,
    resample_to_grid,
)
from .dataio import (
    DatasetRecord,
    _number,
    dtype_named,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    read_tensor,
    save_checkpoint,
    write_pgm,
    write_tensor,
)
from .decoder import ModelConfig, ModelState, _check_types, forward_train, init_state
from .errors import CropError, Degenerate, DimMismatch, KTooLarge, NonFinite, ParseError
from .metrics import EvalExample, MetricsReport, build_report, render_table
from .tensor import Adam, no_grad

MCAB_MODES = ("average", "max", "off")
OPTIMIZERS = ("sgd", "adam")
# images per no-grad forward in evaluate_model
EVAL_CHUNK = 32


# -- configuration ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """The optimizer and its epoch schedule: the learning rate falls by ``decay_factor`` at ``decay_epoch``."""

    epochs: int = 20
    batch_size: int = 16
    lr: float = 1e-3
    decay_epoch: int = 15
    decay_factor: float = 0.1
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        _check_types(self, "train")
        _check_floors(self, "train", epochs=1, batch_size=1, seed=0)
        if self.optimizer not in OPTIMIZERS:
            raise ParseError(f"train.optimizer {self.optimizer!r} not one of {OPTIMIZERS}", field="train.optimizer")


@dataclass(frozen=True)
class DataConfig:
    """The synthetic dataset ``gen`` writes; ``make_scene`` checks ``n_candidates``' floor."""

    seed: int = 7
    n_train: int = 200
    n_val: int = 60
    n_candidates: int = 24
    cam_h: int = 32
    cam_w: int = 32

    def __post_init__(self):
        _check_types(self, "data")
        _check_floors(self, "data", seed=0, n_train=0, n_val=0, cam_h=1, cam_w=1)


@dataclass(frozen=True)
class EvalConfig:
    """``build_report``'s arguments: the ranking depths K, the ground-truth pools N and the IoU threshold."""

    epsilon: float = 0.90
    ks: tuple[int, ...] = (1, 2, 3, 4)
    ns: tuple[int, ...] = (5, 10)

    def __post_init__(self):
        _check_types(self, "eval")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParseError(f"eval.epsilon must lie in [0, 1], got {self.epsilon!r}", field="eval.epsilon")


def _check_floors(config, section: str, **least: int) -> None:
    """Each named field of a typed config section is at least its floor."""
    for name, floor in least.items():
        value = getattr(config, name)
        if value < floor:
            raise ParseError(f"{section}.{name} must be at least {floor}, got {value!r}", field=f"{section}.{name}")


SECTIONS = {"model": ModelConfig, "loss": LossWeights, "train": TrainConfig, "data": DataConfig, "eval": EvalConfig}
DESK_CONFIG = {**{name: asdict(section()) for name, section in SECTIONS.items()}, "mcab": "average", "dtype": "f64"}

PRESETS = {"desk": DESK_CONFIG}


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        dotted = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, dotted + "."))
        else:
            out[dotted] = v
    return out


def _deep_merge(base: dict, override, path: str = "") -> dict:
    """A fresh copy of ``base`` with ``override``'s leaves in place; every key must be one of ``base``'s."""
    if not isinstance(override, dict):
        raise ParseError(f"config {'section' if path else 'document'} must be a JSON object, "
                         f"got {type(override).__name__}", field=path[:-1] or None)
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for k, v in override.items():
        dotted = f"{path}{k}"
        if k not in out:
            raise ParseError(f"unknown config field {dotted!r}", field=dotted)
        out[k] = _deep_merge(out[k], v, dotted + ".") if isinstance(out[k], dict) else v
    return out


@dataclass(frozen=True)
class RunConfig:
    """The merged config document, typed once: every section is built when the RunConfig is made."""

    raw: dict
    model: ModelConfig = field(init=False)
    loss: LossWeights = field(init=False)
    train: TrainConfig = field(init=False)
    data: DataConfig = field(init=False)
    eval: EvalConfig = field(init=False)
    mcab: str = field(init=False)
    dtype: np.dtype = field(init=False)

    def __post_init__(self):
        for name, section in SECTIONS.items():
            object.__setattr__(self, name, section(**self.raw[name]))
        mode = self.raw["mcab"]
        if mode not in MCAB_MODES:
            raise ParseError(f"mcab mode {mode!r} not one of {MCAB_MODES}", field="mcab")
        object.__setattr__(self, "mcab", mode)
        object.__setattr__(self, "dtype", dtype_named(self.raw["dtype"]))

    def __getitem__(self, section: str) -> dict:
        return self.raw[section]


def _read_json(path: str, what: str):
    """The JSON document in the file at ``path``; a file that cannot be read as JSON text is a ParseError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise ParseError(f"{what} file not found: {path}") from e
    except OSError as e:  # a directory, or a file without read permission
        raise ParseError(f"{what} file unreadable: {path}: {e.strerror}") from e
    except ValueError as e:  # a JSONDecodeError, or a UnicodeDecodeError from a binary file
        raise ParseError(f"{what} file is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError(f"{what} file nests too deeply to read as JSON: {path}") from e


def resolve_config(preset: str, config_path: str | None, overrides: dict) -> RunConfig:
    if preset not in PRESETS:
        raise ParseError(f"preset {preset!r} not one of {sorted(PRESETS)}", field="preset")
    merged = _deep_merge(PRESETS[preset], _read_json(config_path, "config") if config_path else {})
    # each dotted override is a one-leaf document, merged by the file's rule
    for dotted, value in overrides.items():
        merged = _deep_merge(merged, reduce(lambda leaf, key: {key: leaf}, reversed(dotted.split(".")), value))
    return RunConfig(raw=merged)


# -- pipeline helpers ---------------------------------------------------------------


def build_prior(record: DatasetRecord, model: ModelConfig, mode: str):
    """Fuse the record's activation maps into a decoder-grid prior (or None)."""
    if mode == "off":
        return None
    fused = fuse_cams(record.load_cams(), record.class_probs, mode)
    pooled = resample_to_grid(fused, model.grid_h, model.grid_w)
    return make_prior(pooled, model.epsilon_b)


def prepare_examples(records, model: ModelConfig, mode: str, dtype) -> list[TrainExample]:
    return [TrainExample(image=r.load_image().astype(dtype), prior=build_prior(r, model, mode), crops=r.crops)
            for r in records]


def run_training(cfg: RunConfig, records, progress=None) -> tuple[ModelState, dict]:
    """Train from scratch on the given records; returns (state, history)."""
    if not records:
        raise DimMismatch("run_training needs at least one record; the training split is empty")
    train, batch_size, lr = cfg.train, cfg.train.batch_size, cfg.train.lr
    state = init_state(cfg.model, seed=train.seed, dtype=cfg.dtype)
    examples = prepare_examples(records, cfg.model, cfg.mcab, cfg.dtype)
    rng = np.random.default_rng([train.seed, 1])
    optimizer = Adam() if train.optimizer == "adam" else None
    step_losses: list[float] = []
    epoch_losses: list[float] = []
    started = time.perf_counter()
    for epoch in range(train.epochs):
        if epoch == train.decay_epoch:
            lr *= train.decay_factor
        order = rng.permutation(len(examples))
        epoch_sum = 0.0
        for at in range(0, len(order), batch_size):
            batch = [examples[i] for i in order[at : at + batch_size]]
            try:
                loss = train_step(state, batch, cfg.loss, lr, optimizer=optimizer)
            except (Degenerate, NonFinite) as e:
                raise type(e)(f"epoch {epoch}, step {at // batch_size} (run step {len(step_losses)}): {e}") from e
            step_losses.append(loss)
            epoch_sum += loss * len(batch)
        epoch_losses.append(epoch_sum / len(examples))
        if progress:
            progress(epoch, epoch_losses[-1])
    history = {
        "step_losses": step_losses,
        "epoch_losses": epoch_losses,
        "wall_seconds": time.perf_counter() - started,
    }
    return state, history


def evaluate_model(state: ModelState, records, mode: str, dtype) -> list[EvalExample]:
    """One example per record, from one no-grad forward per chunk of ``EVAL_CHUNK`` images.

    Each image's heads have the bytes of its own forward. An image whose
    heads ``check_heads`` rejects (a NaN or infinite value, or a collapsed
    or out-of-range row) is flagged with its id: it has no predictions
    and counts as zero hits, and the other images are scored as usual.
    """
    examples = []
    for at in range(0, len(records), EVAL_CHUNK):
        chunk = records[at : at + EVAL_CHUNK]
        inputs = [(r.load_image().astype(dtype), build_prior(r, state.config, mode)) for r in chunk]
        with no_grad():
            heads = forward_train([image for image, _ in inputs], [prior for _, prior in inputs], state)
        for b, r in enumerate(chunk):
            try:
                preds, flagged = tuple(heads.entry(b).to_predictions()), None
            except (Degenerate, NonFinite):
                preds, flagged = (), r.id
            examples.append(EvalExample(predictions=preds, ground_truths=r.crops, flagged=flagged))
    return examples


# -- commands -----------------------------------------------------------------------


def cmd_gen(cfg: RunConfig, out_dir: str) -> dict:
    data, model = cfg.data, cfg.model
    paths, counts = {}, {}
    for offset, (split, n) in enumerate((("train", data.n_train), ("val", data.n_val))):
        split_dir = Path(out_dir) / split
        records = generate_synthetic(
            data.seed + offset, n, split_dir, image_h=model.image_h, image_w=model.image_w,
            channels=model.in_channels, cam_h=data.cam_h, cam_w=data.cam_w, n_candidates=data.n_candidates,
        )
        paths[split] = str(split_dir / "data.jsonl")
        counts[f"n_{split}"] = len(records)
    return {**paths, **counts}


def cmd_train(cfg: RunConfig, data_path: str, out_dir: str, quiet: bool = False) -> dict:
    records = load_dataset(data_path)
    progress = None if quiet else (lambda e, l: print(f"epoch {e:3d}  loss {l:.6f}"))
    state, history = run_training(cfg, records, progress=progress)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint", state, extra={"mcab": cfg.mcab, "dtype": cfg.raw["dtype"]})
    # the wall time stays out of the run directory, so one seed gives one set of bytes
    curve = {k: history[k] for k in ("step_losses", "epoch_losses")}
    (out / "loss_curve.json").write_text(json.dumps(curve, indent=2))
    (out / "config.json").write_text(json.dumps(cfg.raw, indent=2, sort_keys=True))
    return {"checkpoint": str(out / "checkpoint"), "final_loss": history["step_losses"][-1]}


def cmd_eval(cfg: RunConfig, checkpoint_dir: str, data_path: str, out_dir: str | None) -> MetricsReport:
    state, extra = load_checkpoint(checkpoint_dir)
    mode = extra.get("mcab", cfg.mcab)
    records = load_dataset(data_path)
    examples = evaluate_model(state, records, mode, state.dtype)
    report = build_report(examples, **asdict(cfg.eval))
    table = render_table([(f"mcab={mode}", report)])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
        (out / "report.txt").write_text(table + "\n")
    print(table)
    return report


def cmd_fuse(cam_paths, probs_path: str, mode: str, grid_h: int, grid_w: int,
             epsilon_b: float, out_path: str, pgm_path: str | None) -> dict:
    cams = [ActivationMap(values=read_tensor(p).data.astype(np.float64)) for p in cam_paths]
    probs_raw = _read_json(probs_path, "probabilities")
    if not isinstance(probs_raw, list):
        raise ParseError(f"probabilities must be a JSON list, got {type(probs_raw).__name__}", field="probs")
    probs = ClassProbabilities(values=tuple(_number(v, "probs") for v in probs_raw))
    fused = fuse_cams(cams, probs, mode)
    pooled = resample_to_grid(fused, grid_h, grid_w)
    prior = make_prior(pooled, epsilon_b)
    write_tensor(out_path, prior.bias)
    if pgm_path:
        write_pgm(pgm_path, pooled)
    return {"prior": out_path, "grid": [grid_h, grid_w]}


def cmd_gradcheck(seeds: int, tol: float, scenarios=None) -> bool:
    if seeds < 1:
        raise ParseError(f"seeds must be at least 1, got {seeds}", field="seeds")
    if not 0 < tol < math.inf:  # a NaN, zero or negative tolerance would fail every check
        raise ParseError(f"tol must be a finite number above 0, got {tol}", field="tol")
    names = scenarios or list(gradcheck.SCENARIOS)
    unknown = [name for name in names if name not in gradcheck.SCENARIOS]
    if unknown:
        raise ParseError(f"unknown scenarios {unknown}; known: {sorted(gradcheck.SCENARIOS)}", field="scenarios")
    all_ok = True
    for name in names:
        results = [gradcheck.run_check(name, s, tol=tol) for s in range(seeds)]
        worst = float(np.max([r.max_error for r in results]))  # np.max, unlike max(), keeps a NaN
        ok = all(r.ok for r in results)
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] gradcheck {name}: max rel err {worst:.3e} over {seeds} seeds")
    return all_ok


def cmd_ablate(cfg: RunConfig, train_path: str, val_path: str, out_dir: str,
               modes=MCAB_MODES, depths=(1, 2), quiet: bool = False) -> dict:
    """Train the {mode} x {depth} grid and tabulate ranking accuracy."""
    k, ns = cfg.eval.ks[0], cfg.eval.ns
    if max(cfg.eval.ks) > cfg.model.n_queries:
        raise KTooLarge(f"K={max(cfg.eval.ks)} outside [1, {cfg.model.n_queries}], the model's n_queries")
    # every cell's config is built before the first cell trains, so a bad depth fails first
    cells = [RunConfig(raw={**cfg.raw, "model": {**cfg.raw["model"], "n_layers": depth}, "mcab": mode})
             for depth in depths for mode in modes]
    train_records = load_dataset(train_path)
    val_records = load_dataset(val_path)
    rows = []
    results = {}
    for variant in cells:
        label = f"M={variant.model.n_layers} mcab={variant.mcab}"
        if not quiet:
            print(f"training {label} ...")
        state, _ = run_training(variant, train_records)
        examples = evaluate_model(state, val_records, variant.mcab, state.dtype)
        report = build_report(examples, **asdict(cfg.eval))
        rows.append((label, report))
        results[label] = {**{f"acc_{k}_{n}": report.acc[n][k] for n in ns},
                          **{f"acc_bar_{n}": report.acc_bar[n] for n in ns}}
    table = render_table(rows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablate.json").write_text(json.dumps({"epsilon": cfg.eval.epsilon, "runs": results},
                                                indent=2, sort_keys=True))
    (out / "ablate.txt").write_text(table + "\n")
    print(table)
    return results


# -- argument parsing ---------------------------------------------------------------


def _flag_value(text: str, dotted: str):
    """A flag's text as an int, else a float, else a JSON value, else the text; ``RunConfig`` types it.

    JSON that nests too deeply to read is a ParseError on the flag's field.
    """
    for parse in (int, float, json.loads):
        try:
            return parse(text)
        except ValueError:  # json.JSONDecodeError is a ValueError
            pass
        except RecursionError as e:
            raise ParseError(f"--{dotted} nests too deeply to read as JSON", field=dotted) from e
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk",
                        help="base configuration (desk: minutes-scale defaults)")
    parser.add_argument("--config", default=None, help="JSON config overriding the preset")
    shown = {"train.seed": ("--seed", "shorthand for --train.seed"),
             "mcab": (None, f"composition bias mode: one of {', '.join(MCAB_MODES)}"),
             "train.epochs": ("--epochs", "shorthand for --train.epochs"),
             "train.lr": ("--lr", "shorthand for --train.lr")}
    for dotted in sorted(_flatten(DESK_CONFIG)):
        alias, text = shown.get(dotted, (None, argparse.SUPPRESS))
        flags = [f"--{dotted}"] if alias is None else [alias, f"--{dotted}"]
        parser.add_argument(*flags, dest=f"dotted:{dotted}", default=argparse.SUPPRESS,
                            metavar=dotted.rpartition(".")[2].upper(), help=text)


def _config_from(args) -> RunConfig:
    texts = {key[len("dotted:"):]: text for key, text in vars(args).items() if key.startswith("dotted:")}
    overrides = {dotted: _flag_value(text, dotted) for dotted, text in texts.items()}
    return resolve_config(args.preset, args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="croprank",
                                     description="composition-aware crop proposal and ranking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic train/val dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a model on a JSON-lines dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="path to data.jsonl")
    p.add_argument("--out", required=True, help="run directory for checkpoint and curves")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="path to data.jsonl")
    p.add_argument("--out", default=None, help="directory for report.json/report.txt")

    p = sub.add_parser("fuse", help="fuse 9 activation maps into a prior")
    p.add_argument("--cams", nargs=9, required=True, metavar="CAM", help="9 AESC map files")
    p.add_argument("--probs", required=True, help="JSON file with 9 class probabilities")
    p.add_argument("--mode", choices=FUSE_MODES, default="average")
    p.add_argument("--grid-h", type=int, default=8)
    p.add_argument("--grid-w", type=int, default=8)
    p.add_argument("--epsilon-b", type=float, default=1e-6)
    p.add_argument("--out", required=True, help="output AESC file for the prior bias")
    p.add_argument("--pgm", default=None, help="optional debug PGM dump")

    p = sub.add_parser("gradcheck", help="finite-difference checks on all ops")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--scenarios", default=None, help="comma-separated subset")

    p = sub.add_parser("ablate", help="train the bias-mode x depth grid and tabulate")
    _add_common(p)
    p.add_argument("--train-data", required=True)
    p.add_argument("--val-data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--modes", default="average,max,off")
    p.add_argument("--depths", default="1,2")
    p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            print(json.dumps(cmd_gen(_config_from(args), args.out), indent=2))
        elif args.command == "train":
            print(json.dumps(cmd_train(_config_from(args), args.data, args.out, quiet=args.quiet), indent=2))
        elif args.command == "eval":
            cmd_eval(_config_from(args), args.checkpoint, args.data, args.out)
        elif args.command == "fuse":
            print(json.dumps(cmd_fuse(args.cams, args.probs, args.mode, args.grid_h, args.grid_w,
                                      args.epsilon_b, args.out, args.pgm), indent=2))
        elif args.command == "gradcheck":
            scenarios = args.scenarios.split(",") if args.scenarios else None
            if not cmd_gradcheck(args.seeds, args.tol, scenarios):
                return 1
        elif args.command == "ablate":
            modes = tuple(args.modes.split(","))
            try:
                depths = tuple(int(d) for d in args.depths.split(","))
            except ValueError as e:
                raise ParseError(f"depths must be comma-separated integers, got {args.depths!r}",
                                 field="depths") from e
            cmd_ablate(_config_from(args), args.train_data, args.val_data, args.out,
                       modes=modes, depths=depths, quiet=args.quiet)
        return 0
    except CropError as e:
        print(json.dumps({"error": type(e).__name__, "code": e.code, "message": str(e)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
