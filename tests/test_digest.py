"""The byte-identity tool: same tree, same seeds, same lines."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import croprank

SRC = str(Path(croprank.__file__).resolve().parent.parent)
SMALL = ["--data-seed", "3", "--train-seed", "4", "--n-train", "8", "--n-val", "4", "--gradcheck-seeds", "1"]


def _digest(args) -> list[str]:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "croprank.digest", *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def first():
    return _digest(SMALL)


def test_two_runs_print_identical_lines(first):
    assert _digest(SMALL) == first
    artifacts = ["loss_curve", "parameters", "manifest", "priors", "predictions", "report.json", "report.txt"]
    names = [f"{d}/{m} {a}" for d in ("f64", "f32") for m in ("average", "off") for a in artifacts] + ["gradcheck"]
    assert [line.rsplit(" ", 1)[0] for line in first] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in first)


def test_another_train_seed_moves_the_training_lines(first):
    other = _digest(SMALL[:3] + ["5"] + SMALL[4:])
    moved = {line.rsplit(" ", 1)[0] for line, o in zip(first, other) if line != o}
    assert {"f64/average loss_curve", "f32/off parameters", "gradcheck"} <= moved
    # the data seed alone decides the priors
    assert not moved & {"f64/average priors", "f32/off priors"}
