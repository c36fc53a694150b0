"""One sha256 per artifact of a short desk run, for checking that a change keeps the bytes.

    python -m croprank.digest --data-seed 11 --train-seed 12

The desk preset's data is generated once from the data seed, and a first
line hashes it: ``data.jsonl`` and every AESC file of both splits, in
sorted relative-path order. Then, for each dtype (f64, f32) and ``mcab``
mode (average, off), the model is trained for two epochs from the train
seed and evaluated on the val split, and one line is printed per
artifact: the loss curve (step and epoch losses), the parameter files,
the checkpoint manifest, the composition priors of both splits, the eval
predictions, ``report.json`` and ``report.txt`` (at IoU threshold 0.5,
where a two-epoch model already has hits). A last line hashes every
gradcheck ``CheckResult`` for the train seed and the seeds after it. Two
trees that print the same lines gave the same bytes; each line names its
artifact, so a diff of two outputs shows which one moved.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from . import cli, gradcheck
from .dataio import load_checkpoint, load_dataset

DTYPES = ("f64", "f32")
MODES = ("average", "off")


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _prediction_bytes(example) -> bytes:
    rows = [[p.box.cx, p.box.cy, p.box.w, p.box.h, p.score] for p in example.predictions]
    return len(rows).to_bytes(4, "little") + np.array(rows, dtype=np.float64).tobytes()


def gradcheck_sha256(results) -> str:
    """sha256 over one line per gradcheck ``CheckResult``, its max_error as float64 bytes in hex."""
    return _sha(f"{r.name} {r.seed} {np.float64(r.max_error).tobytes().hex()} {r.ok}\n".encode() for r in results)


def run_lines(data_seed: int, train_seed: int, n_train: int = 200, n_val: int = 60,
              gradcheck_seeds: int = 100) -> list[str]:
    """The digest lines, in a fixed order: the data, per dtype and mode, then gradcheck."""
    def config(dtype: str, mode: str) -> cli.RunConfig:
        return cli.resolve_config("desk", None, {
            "data.seed": data_seed, "data.n_train": n_train, "data.n_val": n_val,
            "train.seed": train_seed, "train.epochs": 2, "mcab": mode, "dtype": dtype, "eval.epsilon": 0.5,
        })

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cli.cmd_gen(config(DTYPES[0], MODES[0]), str(root / "data"))
        files = sorted(p.relative_to(root).as_posix() for p in (root / "data").rglob("*") if p.is_file())
        lines.append("data " + _sha((root / rel).read_bytes() for rel in files))
        train_path, val_path = str(root / "data" / "train" / "data.jsonl"), str(root / "data" / "val" / "data.jsonl")
        train_records, val_records = load_dataset(train_path), load_dataset(val_path)
        for dtype in DTYPES:
            for mode in MODES:
                cfg = config(dtype, mode)
                run = root / f"{dtype}-{mode}"
                cli.cmd_train(cfg, train_path, str(run), quiet=True)
                ckpt = run / "checkpoint"
                manifest = json.loads((ckpt / "manifest.json").read_text())
                priors = (cli.build_prior(r, cfg.model, mode) for r in train_records + val_records)
                state, _ = load_checkpoint(ckpt)
                examples = cli.evaluate_model(state, val_records, mode, state.dtype)
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.cmd_eval(cfg, str(ckpt), val_path, str(run / "report"))
                artifacts = {
                    "loss_curve": [(run / "loss_curve.json").read_bytes()],
                    "parameters": ((ckpt / f"{name}.aesc").read_bytes() for name in manifest["params"]),
                    "manifest": [(ckpt / "manifest.json").read_bytes()],
                    "priors": (b"none" if p is None else p.bias.tobytes() for p in priors),
                    "predictions": (_prediction_bytes(ex) for ex in examples),
                    "report.json": [(run / "report" / "report.json").read_bytes()],
                    "report.txt": [(run / "report" / "report.txt").read_bytes()],
                }
                lines += [f"{dtype}/{mode} {name} {_sha(chunks)}" for name, chunks in artifacts.items()]
    results = gradcheck.run_all(range(train_seed, train_seed + gradcheck_seeds))
    lines.append("gradcheck " + gradcheck_sha256(results))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m croprank.digest", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data-seed", type=int, required=True)
    p.add_argument("--train-seed", type=int, required=True)
    p.add_argument("--n-train", type=int, default=200, help="train images (desk preset: 200)")
    p.add_argument("--n-val", type=int, default=60, help="val images (desk preset: 60)")
    p.add_argument("--gradcheck-seeds", type=int, default=100, help="gradcheck seeds from the train seed on")
    args = p.parse_args(argv)
    for line in run_lines(args.data_seed, args.train_seed, args.n_train, args.n_val, args.gradcheck_seeds):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
