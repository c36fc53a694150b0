"""Config resolution and the end-to-end command-line workflow."""
import json

import numpy as np
import pytest

from croprank.cli import (
    DESK_CONFIG,
    MCAB_MODES,
    PRESETS,
    RunConfig,
    _config_from,
    build_parser,
    evaluate_model,
    main,
    random_ranking_baseline,
    resolve_config,
)
from croprank.dataio import load_checkpoint, load_dataset, read_tensor, save_checkpoint, write_tensor
from croprank.decoder import init_state
from croprank.errors import ParseError
from croprank.gradcheck import toy_config
from croprank.metrics import EvalExample

from conftest import random_eval_example

# a configuration small enough that gen/train/eval finishes in seconds
TINY_FLAGS = [
    "--model.n_queries", "12",
    "--model.n_layers", "1",
    "--model.model_dim", "8",
    "--model.n_heads", "2",
    "--model.ffn_dim", "16",
    "--model.grid_h", "4",
    "--model.grid_w", "4",
    "--model.image_h", "16",
    "--model.image_w", "16",
    "--data.n_train", "6",
    "--data.n_val", "4",
    "--data.n_candidates", "13",
    "--data.cam_h", "8",
    "--data.cam_w", "8",
]


def _gen(tmp_path, name, seed="3"):
    out = tmp_path / name
    code = main(["gen", "--out", str(out), "--data.seed", seed, *TINY_FLAGS])
    assert code == 0
    return out


class TestResolveConfig:
    def test_presets_differ_where_expected(self):
        desk = resolve_config("desk", None, {})
        assert desk.model.n_queries == 16 and desk.model.n_layers == 2
        assert desk["train"]["epochs"] == 20
        assert list(PRESETS) == ["desk"]
        with pytest.raises(ParseError) as err:
            resolve_config("full", None, {})
        assert err.value.field == "preset"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen", "--out", "x", "--preset", "full"])

    def test_override_applies(self):
        cfg = resolve_config("desk", None, {"train.epochs": 3, "model.n_layers": 1})
        assert cfg["train"]["epochs"] == 3
        assert cfg.model.n_layers == 1

    def test_unknown_override_rejected(self):
        with pytest.raises(ParseError) as err:
            resolve_config("desk", None, {"train.epohcs": 3})
        assert err.value.field == "train.epohcs"

    def test_config_file_merges(self, tmp_path):
        doc = {"train": {"epochs": 4}, "mcab": "max"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = resolve_config("desk", str(path), {})
        assert cfg["train"]["epochs"] == 4
        assert cfg.mcab == "max"
        # untouched keys keep their preset values
        assert cfg["train"]["lr"] == DESK_CONFIG["train"]["lr"]

    def test_config_file_unknown_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epohcs": 4}}))
        with pytest.raises(ParseError) as err:
            resolve_config("desk", str(path), {})
        assert err.value.field == "train.epohcs"

    def test_config_file_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        with pytest.raises(ParseError):
            resolve_config("desk", str(path), {})

    def test_config_file_missing(self, tmp_path):
        with pytest.raises(ParseError):
            resolve_config("desk", str(tmp_path / "none.json"), {})

    def test_section_type_guard(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": 7}))
        with pytest.raises(ParseError):
            resolve_config("desk", str(path), {})

    def test_run_config_validation(self):
        cfg = RunConfig(raw={**resolve_config("desk", None, {}).raw, "mcab": "median"})
        with pytest.raises(ParseError):
            cfg.mcab
        cfg = RunConfig(raw={**resolve_config("desk", None, {}).raw, "dtype": "f16"})
        with pytest.raises(ParseError):
            cfg.dtype

    def test_shorthand_flags_map_to_overrides(self):
        args = build_parser().parse_args(
            ["gen", "--out", "x", "--seed", "5", "--epochs", "2", "--mcab", "off", "--lr", "0.01",
             "--model.n_layers", "1"]
        )
        cfg = _config_from(args)
        assert cfg["train"]["seed"] == 5
        assert cfg["train"]["epochs"] == 2
        assert cfg["train"]["lr"] == 0.01
        assert cfg.mcab == "off"
        assert cfg.model.n_layers == 1

    def test_modes_constant(self):
        assert MCAB_MODES == ("average", "max", "off")


class TestRandomBaseline:
    def test_rewrites_scores_only(self):
        rng = np.random.default_rng(0)
        examples = [random_eval_example(rng, 6, 6) for _ in range(4)]
        base = random_ranking_baseline(examples, seed=123)
        assert len(base) == 4
        for orig, rand in zip(examples, base):
            assert [p.box for p in rand.predictions] == [p.box for p in orig.predictions]
            assert rand.ground_truths == orig.ground_truths
            scores = sorted(p.score for p in rand.predictions)
            n = len(orig.predictions)
            assert scores == [(r + 0.5) / n for r in range(n)]

    def test_seed_reproducible(self):
        rng = np.random.default_rng(1)
        examples = [random_eval_example(rng, 5, 5) for _ in range(3)]
        a = random_ranking_baseline(examples, seed=7)
        b = random_ranking_baseline(examples, seed=7)
        assert all(
            [p.score for p in ea.predictions] == [p.score for p in eb.predictions]
            for ea, eb in zip(a, b)
        )


class TestPipeline:
    def test_gen_is_deterministic(self, tmp_path):
        a = _gen(tmp_path, "a")
        b = _gen(tmp_path, "b")
        for rel in ("train/data.jsonl", "val/data.jsonl", "train/images/scene_0000.aesc"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_gen_train_eval_round_trip(self, tmp_path, capsys):
        data = _gen(tmp_path, "data")
        capsys.readouterr()  # drop the gen summary
        run = tmp_path / "run"
        code = main(
            ["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(run),
             "--quiet", "--epochs", "2", "--train.batch_size", "3", "--train.decay_epoch", "1",
             *TINY_FLAGS]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["checkpoint"] == str(run / "checkpoint")
        assert np.isfinite(summary["final_loss"])
        curve = json.loads((run / "loss_curve.json").read_text())
        assert len(curve["epoch_losses"]) == 2
        assert len(curve["step_losses"]) == 4  # 6 examples / batch 3, twice
        assert (run / "config.json").exists()

        report_dir = tmp_path / "report"
        code = main(
            ["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(data / "val" / "data.jsonl"),
             "--out", str(report_dir), *TINY_FLAGS]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "mcab=average" in table
        payload = json.loads((report_dir / "report.json").read_text())
        assert payload["examples"] == 4
        for row in payload["acc"].values():
            for v in row.values():
                assert 0.0 <= v <= 1.0
        assert (report_dir / "report.txt").read_text().splitlines()[0].startswith("run")

    def test_f32_train_checkpoint_eval(self, tmp_path, capsys):
        data = _gen(tmp_path, "data")
        run = tmp_path / "run"
        code = main(
            ["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(run),
             "--quiet", "--epochs", "2", "--train.batch_size", "3", "--dtype", "f32", *TINY_FLAGS]
        )
        assert code == 0
        capsys.readouterr()
        curve = json.loads((run / "loss_curve.json").read_text())
        assert len(curve["step_losses"]) == 4
        assert all(np.isfinite(curve["step_losses"] + curve["epoch_losses"]))
        ckpt = run / "checkpoint"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["dtype"] == "f32"
        # the files hold what training left in memory, before any cast on load
        for name in manifest["params"]:
            assert read_tensor(ckpt / f"{name}.aesc").data.dtype == np.float32, name
        state, extra = load_checkpoint(ckpt)
        assert state.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in state.parameters())
        examples = evaluate_model(state, load_dataset(data / "val" / "data.jsonl"), extra["mcab"], state.dtype)
        assert len(examples) == 4
        for ex in examples:
            assert len(ex.predictions) == 12
            for pred in ex.predictions:
                assert 0.0 <= pred.score <= 1.0
                assert 0.0 < pred.box.w <= 1.0 and 0.0 < pred.box.h <= 1.0
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data / "val" / "data.jsonl"),
                     "--out", str(tmp_path / "report"), *TINY_FLAGS])
        assert code == 0
        payload = json.loads((tmp_path / "report" / "report.json").read_text())
        assert payload["examples"] == 4
        assert all(0.0 <= v <= 1.0 for row in payload["acc"].values() for v in row.values())

    def test_train_is_deterministic(self, tmp_path, capsys):
        data = _gen(tmp_path, "data")
        outs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            code = main(
                ["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(run),
                 "--quiet", "--epochs", "1", *TINY_FLAGS]
            )
            assert code == 0
            capsys.readouterr()
            outs.append(run)
        a, b = outs
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert {"loss_curve.json", "config.json"} <= {str(f) for f in files}
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_fuse_writes_prior_and_pgm(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        cam_paths = []
        for k in range(9):
            p = tmp_path / f"cam{k}.aesc"
            write_tensor(p, rng.uniform(size=(8, 8)))
            cam_paths.append(str(p))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps([1.0 / 9] * 9))
        out = tmp_path / "prior.aesc"
        pgm = tmp_path / "prior.pgm"
        code = main(
            ["fuse", "--cams", *cam_paths, "--probs", str(probs), "--grid-h", "4", "--grid-w", "4",
             "--out", str(out), "--pgm", str(pgm)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["grid"] == [4, 4]
        bias = read_tensor(out).data
        assert bias.shape == (4, 4)
        assert bias.min() >= 1e-6 and bias.max() <= 1.0
        assert bias.max() == 1.0  # normalization pins the peak cell
        assert pgm.read_text().startswith("P2\n")

    def test_gradcheck_single_scenario(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--scenarios", "matmul"]) == 0
        assert "[PASS] gradcheck matmul" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, field", [
        (["--seeds", "0"], "seeds"),
        (["--seeds", "1", "--scenarios", "matmul,nope"], "scenarios"),
    ])
    def test_gradcheck_without_checks_exits_2(self, flags, field, capsys):
        # zero seeds would pass on zero checks; a misspelled scenario is not a failed check
        assert main(["gradcheck", *flags]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        err = json.loads(err)
        assert err["code"] == "parse_error" and field in err["message"]

    def test_ablate_non_integer_depth_exits_2(self, tmp_path, capsys):
        code = main(["ablate", "--train-data", str(tmp_path / "t.jsonl"), "--val-data", str(tmp_path / "v.jsonl"),
                     "--out", str(tmp_path / "ablate"), "--depths", "1,x"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "parse_error" and "depths" in err["message"]

    def test_ablate_tiny_grid(self, tmp_path, capsys):
        data = _gen(tmp_path, "data")
        out = tmp_path / "ablate"
        code = main(
            ["ablate", "--train-data", str(data / "train" / "data.jsonl"),
             "--val-data", str(data / "val" / "data.jsonl"), "--out", str(out),
             "--modes", "off", "--depths", "1", "--quiet", "--epochs", "1", *TINY_FLAGS]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((out / "ablate.json").read_text())
        assert list(payload["runs"]) == ["M=1 mcab=off"]
        row = payload["runs"]["M=1 mcab=off"]
        assert set(row) == {"acc_1_5", "acc_1_10", "acc_bar_5", "acc_bar_10"}
        assert (out / "ablate.txt").read_text().count("M=1 mcab=off") == 1

    def test_crop_errors_exit_2_with_json(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingFile"
        assert err["code"] == "missing_file"
        assert "missing.jsonl" in err["message"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_training_names_the_epoch_and_step(self, tmp_path, capsys):
        data = _gen(tmp_path, "data")
        capsys.readouterr()
        # the first Adam step at this rate moves every weight by about 1e300, and the next forward overflows
        code = main(["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(tmp_path / "run"),
                     "--quiet", "--epochs", "1", "--lr", "1e300", "--train.batch_size", "3", *TINY_FLAGS])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "non_finite"
        assert err["message"].startswith("epoch 0, step 1 (run step 1): ")

    def test_bad_override_value_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "x"), "--data.n_candidates", "5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "out_of_range"

    def test_non_object_checkpoint_extra_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        save_checkpoint(ckpt, init_state(toy_config(), seed=1))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        (ckpt / "manifest.json").write_text(json.dumps({**manifest, "extra": [1]}))
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "val.jsonl")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "parse_error"
        assert "extra" in err["message"]

    @pytest.mark.parametrize("doc", ["3", "null"])
    def test_non_object_checkpoint_manifest_exits_2(self, tmp_path, capsys, doc):
        ckpt = tmp_path / "ck"
        save_checkpoint(ckpt, init_state(toy_config(), seed=1))
        (ckpt / "manifest.json").write_text(doc)
        with pytest.raises(ParseError, match="not a JSON object"):
            load_checkpoint(ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "val.jsonl")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "parse_error"

    def test_mistyped_model_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"model": {"n_queries": "4"}}))
        code = main(["gen", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "parse_error"
        assert "n_queries" in err["message"]
