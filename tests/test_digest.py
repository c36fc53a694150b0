"""The byte-identity tool: same tree, same seeds, same lines."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import croprank

from conftest import blas_key

SRC = str(Path(croprank.__file__).resolve().parent.parent)
SMALL = ["--data-seed", "3", "--train-seed", "4", "--n-train", "8", "--n-val", "4", "--gradcheck-seeds", "1"]
# the SMALL run's lines, keyed by ``conftest.blas_key``: the numpy version, BLAS build and BLAS core that decide
# their bytes. A change to an entry is a change to a check.
SMALL_LINES = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX": """
data e7ea7c10cce693d8978beeda11c9d98732df67bb03c8227c048b6e9077c474cc
f64/average loss_curve 8d9b2250000d574925cb2cab6386cd9cbeeb68e83f7ccc0110f6d319940d0f3b
f64/average parameters ef71f02549e207b175de0bf1b233edafdfbe0a7cb4b4fed536717c128a3cf0a1
f64/average manifest dd2bea6dcfa41a043874c0ce7dc3576dc39850fdc00f0178fc622a5c078e2079
f64/average priors 4ce2685c0eabd1fa5c0e06e360c6528fd55c37f3b68200bef98197bb7b791d25
f64/average predictions f6bca645a0f696482d3342cc08337e91b43ff8e5cd0377b73b7e27e5bd7eb0d0
f64/average report.json eaae495f50a49cddf11498e9f4a84e554dcaae2e841989b02d4e726b0fb7b19e
f64/average report.txt d0b6eaca33e864200e11b4d2241d3c855ad9f0c41e546b7a78b3886c201808fa
f64/off loss_curve 976675eccfdaa60044f82fd8e11a81bcad68108272c62575f18979da003c4db7
f64/off parameters 4526ae61b8355bbf265786e438bc03187c2a6e34710dd7b8844c2dcc17d75875
f64/off manifest 0077f74a0d58cab53199858124d7756df3c01f97d363c2ca04eafa5c13c48fd1
f64/off priors 7edcd53aa5c768b47e3ee6bf8da0d835738cdbb0b96653808b603c4b646a8aa1
f64/off predictions e2699d6b179e4c26fa9f08de001e6a388d833191a141d5efd57f7d58d8a37238
f64/off report.json eaae495f50a49cddf11498e9f4a84e554dcaae2e841989b02d4e726b0fb7b19e
f64/off report.txt 48133af5e53493db268f3901c5ded43423e8cde1b9be52615c0520fdd82b29b5
f32/average loss_curve f66801400cd775ed5984c28140a936cd70f5f60e4c2a819c036da02325622fc4
f32/average parameters a610ed62c0d1bd6ad91caebf34a50ce4173e090feaf551b0fb1c5f5ef99f89eb
f32/average manifest bcc6aa5c6a9521245472dbb8fd9bd2f68a48c9573113f5b17783ebd4153eaa05
f32/average priors 4ce2685c0eabd1fa5c0e06e360c6528fd55c37f3b68200bef98197bb7b791d25
f32/average predictions 63b007a9d9cd8b359e4d8445c51a07947fa628bd8620fff12a263d4172682e2b
f32/average report.json eaae495f50a49cddf11498e9f4a84e554dcaae2e841989b02d4e726b0fb7b19e
f32/average report.txt d0b6eaca33e864200e11b4d2241d3c855ad9f0c41e546b7a78b3886c201808fa
f32/off loss_curve 62547534b690e26d1dc8f8418160e15605f11e7bbafe2c88e8cd75114c79914c
f32/off parameters fc37f46d54a5ce14273addd7d5310bed2e4c008be1cfd5926ecc53a777fb4ff2
f32/off manifest a999f6733182b9411176198a76c874b613e700eb3b94fa20fa1472d0baec2832
f32/off priors 7edcd53aa5c768b47e3ee6bf8da0d835738cdbb0b96653808b603c4b646a8aa1
f32/off predictions bb125576f3d192c758fb01151c7aac58f241dd542eefa2db2a5a23ead5249392
f32/off report.json eaae495f50a49cddf11498e9f4a84e554dcaae2e841989b02d4e726b0fb7b19e
f32/off report.txt 48133af5e53493db268f3901c5ded43423e8cde1b9be52615c0520fdd82b29b5
gradcheck 70a295e404a6b8c29bca8f558351edea0e63cb6e5779e5713a5129161a682301
""",
}


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
    names = ["data"] + [f"{d}/{m} {a}" for d in ("f64", "f32") for m in ("average", "off") for a in artifacts] + ["gradcheck"]
    assert [line.rsplit(" ", 1)[0] for line in first] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in first)


def test_another_train_seed_moves_the_training_lines(first):
    other = _digest(SMALL[:3] + ["5"] + SMALL[4:])
    moved = {line.rsplit(" ", 1)[0] for line, o in zip(first, other) if line != o}
    assert {"f64/average loss_curve", "f32/off parameters", "gradcheck"} <= moved
    # the data seed alone decides the data and the priors
    assert not moved & {"data", "f64/average priors", "f32/off priors"}


def test_small_run_keeps_the_committed_bytes(first):
    key = blas_key()
    if key not in SMALL_LINES:
        pytest.skip(f"no committed lines for this numpy and BLAS; the SMALL_LINES entry to commit: {key!r}: "
                    + "\n".join(first))
    want = SMALL_LINES[key].strip().splitlines()
    moved = [line.rsplit(" ", 1)[0] for line, ref in zip(first, want) if line != ref]
    assert len(first) == len(want), f"{len(first)} lines, {len(want)} committed"
    assert not moved, f"artifacts that changed bytes under {key!r}: {moved}"
