"""End-to-end acceptance checks for the cropping pipeline.

Each test covers one numbered criterion and records a single PASS/FAIL
line; the conftest terminal-summary hook prints them after the run so a
full `pytest` invocation ends with a nine-line scoreboard. The training
cells are shared module-level fixtures; everything is seeded and
deterministic.
"""
import itertools
import sys
import time

import numpy as np
import pytest

from croprank.assignment import hungarian
from croprank.cli import resolve_config, run_training
from croprank.cli import evaluate_model
from croprank.composition import CompositionPrior
from croprank.dataio import (
    generate_synthetic,
    load_dataset,
    read_tensor,
    save_dataset,
    write_tensor,
)
from croprank.decoder import ModelConfig, forward_train, init_state
from croprank.digest import gradcheck_sha256
from croprank.errors import BadMagic, BadVersion, TruncatedPayload
from croprank.geometry import from_corners
from croprank.gradcheck import run_all
from croprank.metrics import build_report

from conftest import (
    blas_key,
    box_corners,
    box_giou,
    box_iou,
    interior_box,
    random_eval_example,
    random_ranking_baseline,
)

EPSILON_ACC = 0.65  # hit threshold used by the end-to-end ranking checks
TRAIN_SEED_DATA = 7
VAL_SEED_DATA = 8
N_TRAIN = 200
N_VAL = 100


# scoreboard lines collected here; conftest prints them post-capture
SCOREBOARD: list = []

# criterion 2's CheckResults hashed as the digest's gradcheck line hashes them, keyed by
# ``conftest.blas_key``: the numpy version, BLAS build and BLAS core that decide their bytes
GRADCHECK_SHA256 = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX":
        "32e17d261076df6c3c74be4562b52e0f7e75039b7e58ae16cbdc1dc170b25431",
}


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    SCOREBOARD.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_data")
    train = generate_synthetic(TRAIN_SEED_DATA, N_TRAIN, root / "train")
    val = generate_synthetic(VAL_SEED_DATA, N_VAL, root / "val")
    return train, val


def _train_cell(mode: str, depth: int, train_records, val_records):
    cfg = resolve_config("desk", None, {"mcab": mode, "model.n_layers": depth})
    state, history = run_training(cfg, train_records)
    examples = evaluate_model(state, val_records, mode, state.dtype)
    return {
        "history": history,
        "examples": examples,
        "acc": build_report(examples, (1,), (5,), EPSILON_ACC).acc[5][1],
    }


@pytest.fixture(scope="module")
def cells(datasets):
    train, val = datasets
    grid = {}
    for mode, depth in (("average", 2), ("max", 2), ("off", 2), ("average", 1)):
        grid[(mode, depth)] = _train_cell(mode, depth, train, val)
    return grid


@pytest.fixture(scope="module")
def gradcheck_results():
    """Criterion 2's 1,500 CheckResults and the seconds they took, computed once for both of its tests."""
    started = time.perf_counter()
    results = run_all(range(100))
    return results, time.perf_counter() - started


class TestAcceptance:
    def test_criterion_1_hungarian_matches_brute_force(self):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        checked = 0
        for n in range(2, 8):
            perms = np.array(list(itertools.permutations(range(n))))
            rows = np.arange(n)
            for _ in range(1000):
                cost = rng.uniform(size=(n, n))
                perm = hungarian(cost)
                mine = cost[rows, perm].sum()
                best = cost[rows, perms].sum(axis=1).min()
                assert mine == best, f"n={n}: solver total {mine!r} != brute force {best!r}"
                checked += 1
        elapsed = time.perf_counter() - started
        ok = checked == 6000 and elapsed < 30.0
        _report(1, ok, f"Hungarian equals brute force on {checked} matrices in {elapsed:.1f}s (< 30s)")
        assert ok

    def test_criterion_2_gradient_checks(self, gradcheck_results):
        results, elapsed = gradcheck_results
        failures = [r for r in results if not r.ok]
        worst = max(r.max_error for r in results)
        ok = not failures and elapsed < 120.0
        _report(2, ok, f"finite differences across {len(results)} checks, "
                       f"max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 120s)")
        assert not failures, failures[:5]
        assert elapsed < 120.0

    def test_criterion_2_results_keep_their_bytes(self, gradcheck_results):
        sha, key = gradcheck_sha256(gradcheck_results[0]), blas_key()
        if key not in GRADCHECK_SHA256:
            pytest.skip(f"no committed sha256 for this numpy and BLAS; the GRADCHECK_SHA256 line to commit: "
                        f"{key!r}: {sha!r}")
        assert sha == GRADCHECK_SHA256[key], f"criterion 2's CheckResults changed bytes under {key!r}"

    def test_criterion_3_uniform_prior_is_neutral(self):
        cfg = ModelConfig()
        worst = 0.0
        for trial in range(20):
            state = init_state(cfg, seed=300 + trial)
            rng = np.random.default_rng(330 + trial)
            image = rng.uniform(size=(cfg.in_channels, cfg.image_h, cfg.image_w))
            plain = forward_train(image, None, state)
            uniform = forward_train(image, CompositionPrior(bias=np.ones((cfg.grid_h, cfg.grid_w))), state)
            worst = max(
                worst,
                float(np.max(np.abs(plain.boxes.data - uniform.boxes.data))),
                float(np.max(np.abs(plain.scores.data - uniform.scores.data))),
            )
        ok = worst <= 1e-12
        _report(3, ok, f"uniform-prior forward equals bias-off forward, max |diff| {worst:.1e} (<= 1e-12)")
        assert ok

    def test_criterion_4_planted_prior_lifts_attention_mass(self):
        cfg = ModelConfig()
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(400 + trial)
            state = init_state(cfg, seed=470 + trial)
            image = rng.uniform(size=(cfg.in_channels, cfg.image_h, cfg.image_w))
            subset = rng.choice(cfg.n_cells, size=int(rng.integers(4, cfg.n_cells // 2)), replace=False)
            bias = np.full(cfg.n_cells, cfg.epsilon_b)
            bias[subset] = 1.0
            prior = CompositionPrior(bias=bias.reshape(cfg.grid_h, cfg.grid_w))
            planted_attn: list = []
            uniform_attn: list = []
            forward_train(image, prior, state, attention_out=planted_attn)
            uniform = CompositionPrior(bias=np.ones((cfg.grid_h, cfg.grid_w)))
            forward_train(image, uniform, state, attention_out=uniform_attn)
            mass_planted = np.mean([w[:, :, subset].sum(axis=2).mean() for w in planted_attn])
            mass_uniform = np.mean([w[:, :, subset].sum(axis=2).mean() for w in uniform_attn])
            if mass_planted > mass_uniform:
                hits += 1
        ok = hits == 100
        _report(4, ok, f"planted prior raised cross-attention mass on S in {hits}/100 fixtures")
        assert ok

    def test_criterion_5_metric_matches_naive_oracle(self):
        rng = np.random.default_rng(500)

        def naive(examples, k, n, eps):
            hits = 0
            for ex in examples:
                top_p = sorted(range(len(ex.predictions)), key=lambda i: (-ex.predictions[i].score, i))[:k]
                top_g = sorted(range(len(ex.ground_truths)), key=lambda j: (-ex.ground_truths[j].mos, j))[:n]
                for i in top_p:
                    best = max(box_iou(ex.predictions[i].box, ex.ground_truths[j].box) for j in top_g)
                    if best >= eps:
                        hits += 1
            return hits / (len(examples) * k)

        mismatches = 0
        for _ in range(100):
            examples = [
                random_eval_example(rng, int(rng.integers(4, 9)), int(rng.integers(5, 11)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            for eps in (0.0, 0.5, 0.90):
                if build_report(examples, (k,), (n,), eps).acc[n][k] != naive(examples, k, n, eps):
                    mismatches += 1
            ks = (1, 2, 3)
            expect_bar = sum(naive(examples, kk, n, 0.5) for kk in ks) / len(ks)
            if build_report(examples, ks, (n,), 0.5).acc_bar[n] != expect_bar:
                mismatches += 1
        ok = mismatches == 0
        _report(5, ok, f"build_report's acc / acc_bar equal the double-loop oracle on 100 eval sets "
                       f"({mismatches} mismatches)")
        assert ok

    def test_criterion_6_geometry_properties(self):
        rng = np.random.default_rng(600)
        worst_sym = worst_trans = worst_round = 0.0
        for _ in range(10_000):
            a = interior_box(rng)
            b = interior_box(rng)
            i = box_iou(a, b)
            g = box_giou(a, b)
            assert 0.0 <= i <= 1.0
            assert -1.0 <= g <= 1.0
            assert g <= i + 1e-9
            worst_sym = max(worst_sym, abs(i - box_iou(b, a)), abs(g - box_giou(b, a)))
            ax1, ay1, ax2, ay2 = box_corners(a)
            bx1, by1, bx2, by2 = box_corners(b)
            room_x = min(ax1, bx1, 1.0 - ax2, 1.0 - bx2)
            room_y = min(ay1, by1, 1.0 - ay2, 1.0 - by2)
            dx = float(rng.uniform(-room_x, room_x))
            dy = float(rng.uniform(-room_y, room_y))
            a2 = from_corners(ax1 + dx, ay1 + dy, ax2 + dx, ay2 + dy)
            b2 = from_corners(bx1 + dx, by1 + dy, bx2 + dx, by2 + dy)
            worst_trans = max(worst_trans, abs(box_iou(a2, b2) - i), abs(box_giou(a2, b2) - g))
            back = from_corners(*box_corners(a))
            worst_round = max(
                worst_round,
                abs(back.cx - a.cx), abs(back.cy - a.cy), abs(back.w - a.w), abs(back.h - a.h),
            )
        ok = worst_sym <= 1e-12 and worst_trans <= 1e-12 and worst_round <= 1e-12
        _report(6, ok, f"10^4 box pairs: symmetry {worst_sym:.1e}, translation {worst_trans:.1e}, "
                       f"round-trip {worst_round:.1e} (all <= 1e-12)")
        assert ok

    def test_criterion_7_end_to_end_training(self, cells):
        cell = cells[("average", 2)]
        steps = cell["history"]["step_losses"]
        ratio = float(np.mean(steps[-10:])) / steps[9]
        acc = cell["acc"]
        random_examples = random_ranking_baseline(cell["examples"], seed=123)
        baseline = build_report(random_examples, (1,), (5,), EPSILON_ACC).acc[5][1]
        wall = cell["history"]["wall_seconds"]
        ok = ratio <= 0.5 and baseline > 0.0 and acc >= 3.0 * baseline and wall < 600.0
        _report(7, ok, f"loss ratio {ratio:.3f} (<= 0.5), Acc_1/5 {acc:.3f} vs random {baseline:.3f} "
                       f"({acc / max(baseline, 1e-9):.1f}x >= 3x), {wall:.0f}s (< 600s)")
        assert ratio <= 0.5
        assert baseline > 0.0
        assert acc >= 3.0 * baseline
        assert wall < 600.0

    def test_criterion_8_ablation_direction(self, cells):
        avg2 = cells[("average", 2)]["acc"]
        max2 = cells[("max", 2)]["acc"]
        off2 = cells[("off", 2)]["acc"]
        avg1 = cells[("average", 1)]["acc"]
        ok = avg2 >= max2 >= off2 and avg2 >= avg1
        _report(8, ok, f"Acc_1/5 average {avg2:.3f} >= max {max2:.3f} >= off {off2:.3f}; "
                       f"M=2 {avg2:.3f} >= M=1 {avg1:.3f}")
        assert avg2 >= max2 >= off2
        assert avg2 >= avg1

    def test_criterion_9_format_round_trips(self, tmp_path, datasets):
        rng = np.random.default_rng(900)
        tensor_ok = True
        for trial in range(50):
            rank = int(rng.integers(1, 4))
            shape = tuple(int(d) for d in rng.integers(1, 8, size=rank))
            dtype = np.float32 if trial % 2 else np.float64
            arr = rng.normal(size=shape).astype(dtype)
            path = tmp_path / f"t{trial}.aesc"
            write_tensor(path, arr)
            back = read_tensor(path).data
            tensor_ok = tensor_ok and back.dtype == arr.dtype and np.array_equal(back, arr)

        train, _ = datasets
        sample = train[:5]
        # the copy sits next to the original so relative tensor paths resolve
        copy_path = f"{sample[0].base_dir}/roundtrip_copy.jsonl"
        save_dataset(sample, copy_path)
        reloaded = load_dataset(copy_path)
        dataset_ok = reloaded == list(sample)

        good = tmp_path / "good.aesc"
        write_tensor(good, np.ones((2, 2)))
        blob = good.read_bytes()
        errors_ok = True
        bad_magic = tmp_path / "m.aesc"
        bad_magic.write_bytes(b"XXXX" + blob[4:])
        try:
            read_tensor(bad_magic)
            errors_ok = False
        except BadMagic:
            pass
        bad_version = tmp_path / "v.aesc"
        bad_version.write_bytes(blob[:4] + b"\x09\x00" + blob[6:])
        try:
            read_tensor(bad_version)
            errors_ok = False
        except BadVersion:
            pass
        truncated = tmp_path / "p.aesc"
        truncated.write_bytes(blob[:-4])
        try:
            read_tensor(truncated)
            errors_ok = False
        except TruncatedPayload:
            pass

        ok = tensor_ok and dataset_ok and errors_ok
        _report(9, ok, f"AESC bit-exact on 50 fixtures ({tensor_ok}), JSONL value-exact ({dataset_ok}), "
                       f"corrupt headers raise typed errors ({errors_ok})")
        assert tensor_ok
        assert dataset_ok
        assert errors_ok
