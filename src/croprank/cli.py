"""Operator entry point: gen / train / eval / fuse / gradcheck / ablate.

Configuration is one JSON document; every leaf is overridable with a
flag of the same dotted name (e.g. --model.n_queries 32). Errors
derived from CropError leave as machine-readable JSON on stderr with
a nonzero exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import gradcheck
from .assignment import LossWeights, TrainExample, train_step
from .composition import (
    ActivationMap,
    ClassProbabilities,
    fuse_cams,
    make_prior,
    resample_to_grid,
)
from .dataio import (
    DatasetRecord,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    read_tensor,
    save_checkpoint,
    write_pgm,
    write_tensor,
)
from .decoder import ModelConfig, ModelState, Prediction, forward, init_state
from .errors import CropError, DomainError, NonFinite, ParseError
from .metrics import EvalExample, MetricsReport, build_report, render_table
from .tensor import Adam

MCAB_MODES = ("average", "max", "off")


# -- configuration ----------------------------------------------------------------

DESK_CONFIG = {
    "model": asdict(ModelConfig()),
    "loss": asdict(LossWeights()),
    "train": {
        "epochs": 20,
        "batch_size": 16,
        "lr": 1e-3,
        "decay_epoch": 15,
        "decay_factor": 0.1,
        "seed": 0,
        "optimizer": "adam",
    },
    "data": {
        "seed": 7,
        "n_train": 200,
        "n_val": 60,
        "n_candidates": 24,
        "cam_h": 32,
        "cam_w": 32,
    },
    "eval": {
        "epsilon": 0.90,
        "ks": [1, 2, 3, 4],
        "ns": [5, 10],
    },
    "mcab": "average",
    "dtype": "f64",
}

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


def _set_dotted(d: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = d
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for k, v in override.items():
        dotted = f"{path}{k}"
        if k not in out:
            raise ParseError(f"unknown config field {dotted!r}", field=dotted)
        if isinstance(out[k], dict):
            if not isinstance(v, dict):
                raise ParseError(f"config field {dotted!r} must be an object", field=dotted)
            out[k] = _deep_merge(out[k], v, dotted + ".")
        else:
            out[k] = v
    return out


@dataclass(frozen=True)
class RunConfig:
    """Typed view over the merged config document."""

    raw: dict

    @property
    def model(self) -> ModelConfig:
        return ModelConfig(**self.raw["model"])

    @property
    def loss(self) -> LossWeights:
        return LossWeights(**self.raw["loss"])

    @property
    def mcab(self) -> str:
        mode = self.raw["mcab"]
        if mode not in MCAB_MODES:
            raise ParseError(f"mcab mode {mode!r} not one of {MCAB_MODES}", field="mcab")
        return mode

    @property
    def dtype(self):
        name = self.raw["dtype"]
        if name not in ("f32", "f64"):
            raise ParseError(f"dtype {name!r} not one of f32/f64", field="dtype")
        return np.float32 if name == "f32" else np.float64

    def __getitem__(self, section: str) -> dict:
        return self.raw[section]


def resolve_config(preset: str, config_path: str | None, overrides: dict) -> RunConfig:
    if preset not in PRESETS:
        raise ParseError(f"preset {preset!r} not one of {sorted(PRESETS)}", field="preset")
    base = PRESETS[preset]
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for section in list(merged):
        if isinstance(merged[section], dict):
            merged[section] = dict(merged[section])
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except FileNotFoundError as e:
            raise ParseError(f"config file not found: {config_path}") from e
        except json.JSONDecodeError as e:
            raise ParseError(f"config is not valid JSON: {e.msg}") from e
        merged = _deep_merge(merged, doc)
    flat = _flatten(merged)
    for dotted, value in overrides.items():
        if dotted not in flat:
            raise ParseError(f"unknown config field {dotted!r}", field=dotted)
        _set_dotted(merged, dotted, value)
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
    out = []
    for r in records:
        image = r.load_image().astype(dtype)
        out.append(TrainExample(image=image, prior=build_prior(r, model, mode), crops=r.crops))
    return out


def run_training(cfg: RunConfig, records, progress=None) -> tuple[ModelState, dict]:
    """Train from scratch on the given records; returns (state, history)."""
    model = cfg.model
    weights = cfg.loss
    train = cfg["train"]
    state = init_state(model, seed=int(train["seed"]), dtype=cfg.dtype)
    examples = prepare_examples(records, model, cfg.mcab, cfg.dtype)
    rng = np.random.default_rng([int(train["seed"]), 1])
    optimizer = Adam() if train["optimizer"] == "adam" else None
    if train["optimizer"] not in ("sgd", "adam"):
        raise ParseError(f"optimizer {train['optimizer']!r} not one of sgd/adam", field="train.optimizer")
    lr = float(train["lr"])
    batch_size = int(train["batch_size"])
    step_losses: list[float] = []
    epoch_losses: list[float] = []
    started = time.perf_counter()
    for epoch in range(int(train["epochs"])):
        if epoch == int(train["decay_epoch"]):
            lr *= float(train["decay_factor"])
        order = rng.permutation(len(examples))
        epoch_sum = 0.0
        for at in range(0, len(order), batch_size):
            batch = [examples[i] for i in order[at : at + batch_size]]
            try:
                loss = train_step(state, batch, weights, lr, optimizer=optimizer)
            except NonFinite as e:
                raise NonFinite(f"epoch {epoch}, step {at // batch_size} (run step {len(step_losses)}): {e}") from e
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
    examples = []
    for r in records:
        image = r.load_image().astype(dtype)
        preds = forward(image, build_prior(r, state.config, mode), state)
        examples.append(EvalExample(predictions=tuple(preds), ground_truths=r.crops))
    return examples


def random_ranking_baseline(examples, seed: int) -> list[EvalExample]:
    """Same predicted boxes, scores replaced by a random permutation ranking."""
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


# -- commands -----------------------------------------------------------------------


def cmd_gen(cfg: RunConfig, out_dir: str) -> dict:
    data = cfg["data"]
    model = cfg.model
    paths, counts = {}, {}
    for offset, split in enumerate(("train", "val")):
        split_dir = Path(out_dir) / split
        records = generate_synthetic(
            int(data["seed"]) + offset, int(data[f"n_{split}"]), split_dir,
            image_h=model.image_h, image_w=model.image_w, channels=model.in_channels,
            cam_h=int(data["cam_h"]), cam_w=int(data["cam_w"]), n_candidates=int(data["n_candidates"]),
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
    ev = cfg["eval"]
    report = build_report(examples, ks=tuple(ev["ks"]), ns=tuple(ev["ns"]), epsilon=float(ev["epsilon"]))
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
    try:
        probs_raw = json.loads(Path(probs_path).read_text())
    except FileNotFoundError as e:
        raise ParseError(f"probabilities file not found: {probs_path}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"probabilities file is not valid JSON: {e.msg}") from e
    probs = ClassProbabilities(values=tuple(float(v) for v in probs_raw))
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
    names = scenarios or list(gradcheck.SCENARIOS)
    unknown = [name for name in names if name not in gradcheck.SCENARIOS]
    if unknown:
        raise ParseError(f"unknown scenarios {unknown}; known: {sorted(gradcheck.SCENARIOS)}", field="scenarios")
    all_ok = True
    for name in names:
        worst = 0.0
        ok = True
        for result in (gradcheck.run_check(name, s, tol=tol) for s in range(seeds)):
            worst = max(worst, result.max_error)
            ok = ok and result.ok
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] gradcheck {name}: max rel err {worst:.3e} over {seeds} seeds")
    return all_ok


def cmd_ablate(cfg: RunConfig, train_path: str, val_path: str, out_dir: str,
               modes=MCAB_MODES, depths=(1, 2), quiet: bool = False) -> dict:
    """Train the {mode} x {depth} grid and tabulate ranking accuracy."""
    train_records = load_dataset(train_path)
    val_records = load_dataset(val_path)
    ev = cfg["eval"]
    rows = []
    results = {}
    for depth in depths:
        for mode in modes:
            variant = RunConfig(raw=json.loads(json.dumps(cfg.raw)))
            variant.raw["model"]["n_layers"] = int(depth)
            variant.raw["mcab"] = mode
            label = f"M={depth} mcab={mode}"
            if not quiet:
                print(f"training {label} ...")
            state, _ = run_training(variant, train_records)
            examples = evaluate_model(state, val_records, mode, state.dtype)
            report = build_report(examples, ks=tuple(ev["ks"]), ns=tuple(ev["ns"]), epsilon=float(ev["epsilon"]))
            rows.append((label, report))
            results[label] = {
                "acc_1_5": report.acc[5][1],
                "acc_1_10": report.acc[10][1],
                "acc_bar_5": report.acc_bar[5],
                "acc_bar_10": report.acc_bar[10],
            }
    table = render_table(rows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablate.json").write_text(json.dumps({"epsilon": float(ev["epsilon"]), "runs": results},
                                                indent=2, sort_keys=True))
    (out / "ablate.txt").write_text(table + "\n")
    print(table)
    return results


# -- argument parsing ---------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk",
                        help="base configuration (desk: minutes-scale defaults)")
    parser.add_argument("--config", default=None, help="JSON config overriding the preset")
    parser.add_argument("--seed", type=int, default=None, help="shorthand for --train.seed")
    parser.add_argument("--mcab", choices=MCAB_MODES, default=None, help="composition bias mode")
    parser.add_argument("--epochs", type=int, default=None, help="shorthand for --train.epochs")
    parser.add_argument("--lr", type=float, default=None, help="shorthand for --train.lr")
    flat = _flatten(DESK_CONFIG)
    reserved = {"preset", "config", "seed", "mcab", "epochs", "lr"}
    for dotted, default in sorted(flat.items()):
        if dotted in reserved:  # the explicit shorthand already covers it
            continue
        if isinstance(default, bool):
            kind = bool
        elif isinstance(default, int):
            kind = int
        elif isinstance(default, float):
            kind = float
        elif isinstance(default, list):
            kind = json.loads
        else:
            kind = str
        parser.add_argument(f"--{dotted}", dest=f"dotted:{dotted}", type=kind, default=None,
                            help=argparse.SUPPRESS)


def _config_from(args) -> RunConfig:
    overrides = {}
    for key, value in vars(args).items():
        if key.startswith("dotted:") and value is not None:
            overrides[key.split(":", 1)[1]] = value
    if args.seed is not None:
        overrides["train.seed"] = args.seed
    if args.mcab is not None:
        overrides["mcab"] = args.mcab
    if args.epochs is not None:
        overrides["train.epochs"] = args.epochs
    if args.lr is not None:
        overrides["train.lr"] = args.lr
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
    p.add_argument("--mode", choices=("average", "max"), default="average")
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
            for m in modes:
                if m not in MCAB_MODES:
                    raise DomainError(f"unknown mcab mode {m!r}")
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
