"""Config resolution and the end-to-end command-line workflow."""
import functools
import json

import numpy as np
import pytest

from croprank import cli, decoder, gradcheck
from croprank.cli import (
    DESK_CONFIG,
    MCAB_MODES,
    PRESETS,
    _config_from,
    build_prior,
    build_parser,
    evaluate_model,
    main,
    resolve_config,
)
from croprank.dataio import load_checkpoint, load_dataset, read_tensor, save_checkpoint, write_tensor
from croprank.dataio import generate_synthetic
from croprank.decoder import ModelConfig, forward, init_state
from croprank.errors import CropError, Degenerate, DimMismatch, ParseError
from croprank.gradcheck import CheckResult, toy_config
from croprank.metrics import EvalExample, build_report

from conftest import random_eval_example, random_ranking_baseline

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

    @pytest.mark.parametrize("text", [b"{oops", b"null", b"[1]", b"5", b"\xd0\xff", b"[" * 100000],
                             ids=["broken", "null", "list", "number", "binary", "deep"])
    def test_config_file_invalid_json(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ParseError):
            resolve_config("desk", str(path), {})
        err = _main_error(capsys, ["gen", "--config", str(path), "--out", str(tmp_path / "data")])
        assert err["code"] == "parse_error"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("name", ["none.json", "."], ids=["missing", "directory"])
    def test_config_file_missing(self, tmp_path, capsys, name):
        with pytest.raises(ParseError):
            resolve_config("desk", str(tmp_path / name), {})
        err = _main_error(capsys, ["gen", "--config", str(tmp_path / name), "--out", str(tmp_path / "data")])
        assert err["code"] == "parse_error"

    def test_section_type_guard(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": 7}))
        with pytest.raises(ParseError):
            resolve_config("desk", str(path), {})

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


def _flags(*flags) -> cli.RunConfig:
    return _config_from(build_parser().parse_args(["gen", "--out", "x", *flags]))


class TestFlagValues:
    """A flag's text reaches ``RunConfig`` as a number, a JSON value or the text, and is typed there."""

    @pytest.mark.parametrize("flag, text, dotted, want", [
        ("--train.lr", ".001", "train.lr", 0.001),
        ("--train.lr", "+0.1", "train.lr", 0.1),
        ("--train.lr", "1e-3", "train.lr", 0.001),
        ("--lr", "1.", "train.lr", 1.0),
        ("--model.n_queries", "010", "model.n_queries", 10),
        ("--model.n_queries", "16.0", "model.n_queries", 16),
        ("--eval.ks", "[1, 2]", "eval.ks", (1, 2)),
        ("--mcab", "off", "mcab", "off"),
        ("--train.optimizer", "sgd", "train.optimizer", "sgd"),
    ])
    def test_a_spelling_keeps_its_value(self, flag, text, dotted, want):
        got = functools.reduce(getattr, dotted.split("."), _flags(flag, text))
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("alias, dotted, values", [
        ("--seed", "--train.seed", ("5", "6")),
        ("--epochs", "--train.epochs", ("2", "3")),
        ("--lr", "--train.lr", ("0.5", "0.25")),
    ])
    def test_an_alias_and_its_dotted_flag_take_the_last_value(self, alias, dotted, values):
        leaf = dotted.rpartition(".")[2]
        first, last = values
        assert getattr(_flags(alias, first, dotted, last).train, leaf) == float(last)
        assert getattr(_flags(dotted, first, alias, last).train, leaf) == float(last)

    def test_a_null_flag_is_a_null_value(self, tmp_path, capsys):
        err = _main_error(capsys, ["gen", "--out", str(tmp_path / "data"), "--train.lr", "null"])
        assert err["code"] == "parse_error" and "(field 'train.lr')" in err["message"]
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("flag", ["--train.lr", "--lr"])
    def test_json_nested_too_deep_to_read_fails_on_the_flags_field(self, tmp_path, capsys, flag):
        err = _main_error(capsys, ["gen", "--out", str(tmp_path / "data"), flag, "[" * 100000])
        assert err["code"] == "parse_error" and "(field 'train.lr')" in err["message"]
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("dotted, text", [("train.optimizer", "1e5"), ("mcab", "010"), ("dtype", "64")])
    def test_a_number_for_a_string_field_fails_on_that_field(self, tmp_path, capsys, dotted, text):
        # the converter reads the text as a number, so only the file's code and field carry over;
        # the value's JSON text ('"1e5"') gives the file's exact error
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_doc(dotted, text)))
        from_file = _main_error(capsys, ["gen", "--config", str(config), "--out", str(tmp_path / "data")])
        err = _main_error(capsys, ["gen", f"--{dotted}", text, "--out", str(tmp_path / "data")])
        assert err["code"] == from_file["code"] == "parse_error"
        assert f"(field '{dotted}')" in err["message"] and f"(field '{dotted}')" in from_file["message"]
        quoted = _main_error(capsys, ["gen", f"--{dotted}", json.dumps(text), "--out", str(tmp_path / "data")])
        assert quoted == from_file
        assert not (tmp_path / "data").exists()

    def test_help_lists_the_aliases_and_the_modes(self):
        text = build_parser()._subparsers._group_actions[0].choices["train"].format_help()
        for flags in ("--seed SEED, --train.seed SEED", "--epochs EPOCHS, --train.epochs EPOCHS",
                      "--lr LR, --train.lr LR", "--mcab MCAB"):
            assert flags in text
        assert "average, max, off" in text
        assert "--model." not in text and "--data." not in text


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


def per_image_eval(state, records, mode, dtype) -> list[EvalExample]:
    """Reference for ``evaluate_model``: one ``decoder.forward`` per image."""
    return [
        EvalExample(predictions=tuple(forward(r.load_image().astype(dtype), build_prior(r, state.config, mode), state)),
                    ground_truths=r.crops)
        for r in records
    ]


def _box_bytes(examples) -> list[bytes]:
    return [np.array([[p.box.cx, p.box.cy, p.box.w, p.box.h, p.score] for p in ex.predictions]).tobytes()
            for ex in examples]


class TestBatchedEval:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        return generate_synthetic(41, 10, tmp_path_factory.mktemp("batched_eval"))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["average", "off"])
    @pytest.mark.parametrize("chunk", [32, 4])
    def test_each_image_has_the_bytes_of_its_own_forward(self, records, dtype, mode, chunk, monkeypatch):
        monkeypatch.setattr(cli, "EVAL_CHUNK", chunk)  # 4 leaves a short last chunk of 2
        state = init_state(ModelConfig(), seed=5, dtype=dtype)
        got = evaluate_model(state, records, mode, dtype)
        expected = per_image_eval(state, records, mode, dtype)
        assert [ex.ground_truths for ex in got] == [ex.ground_truths for ex in expected]
        assert all(ex.flagged is None for ex in got)
        assert _box_bytes(got) == _box_bytes(expected)
        # the ten images give ten different prediction sets
        assert len(set(_box_bytes(got))) == len(records)

    def test_degenerate_image_is_flagged_and_scored_as_zero_hits(self, tmp_path, records, capsys, monkeypatch):
        state = init_state(ModelConfig(), seed=6)
        ckpt = tmp_path / "ck"
        save_checkpoint(ckpt, state, extra={"mcab": "average", "dtype": "f64"})
        expected = per_image_eval(state, records, "average", state.dtype)
        real_heads = decoder.predict_heads

        def collapse_one_query_of_image_3(decoded, state):
            heads = real_heads(decoded, state)
            boxes = heads.boxes.data
            if boxes.ndim == 3 and boxes.shape[0] > 3:
                boxes[3, 5, 2] = 1e-9  # w below the 1e-6 extent floor
            elif boxes.ndim == 2:
                boxes[5, 2] = 1e-9
            return heads

        monkeypatch.setattr(decoder, "predict_heads", collapse_one_query_of_image_3)
        # the per-image forward still raises on the collapsed query
        with pytest.raises(Degenerate, match="near-zero extent"):
            forward(records[3].load_image(), build_prior(records[3], state.config, "average"), state)
        got = evaluate_model(state, records, "average", state.dtype)
        assert [ex.flagged for ex in got] == [None] * 3 + [records[3].id] + [None] * 6
        assert got[3].predictions == () and got[3].ground_truths == records[3].crops
        assert _box_bytes(got[:3] + got[4:]) == _box_bytes(expected[:3] + expected[4:])

        data = records[0].base_dir + "/data.jsonl"
        code = main(["eval", "--checkpoint", str(ckpt), "--data", data, "--out", str(tmp_path / "report"),
                     "--eval.epsilon", "0.3"])
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "report" / "report.json").read_text())
        assert payload["examples"] == 10
        assert payload["flagged"] == {"count": 1, "ids": [records[3].id]}
        # the flagged image stays in T with zero hits; the others score as they would alone
        expected[3] = EvalExample(predictions=(), ground_truths=records[3].crops, flagged=records[3].id)
        report = build_report(expected, epsilon=0.3)
        assert (tmp_path / "report" / "report.json").read_text() == report.to_json()
        assert report.acc[5][4] > 0.0


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
        assert main(["gradcheck", "--seeds", "1", "--scenarios", "encoder"]) == 0
        assert "[PASS] gradcheck encoder" in capsys.readouterr().out

    def test_gradcheck_prints_a_nan_worst_error(self, monkeypatch, capsys):
        errors = iter([1e-7, float("nan")])

        def run_check(name, seed, tol):
            error = next(errors)
            return CheckResult(name=name, seed=seed, max_error=error, ok=error < tol)

        monkeypatch.setattr(gradcheck, "run_check", run_check)
        assert main(["gradcheck", "--seeds", "2", "--scenarios", "encoder"]) == 1
        assert "[FAIL] gradcheck encoder: max rel err nan over 2 seeds" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, field", [
        (["--seeds", "0"], "seeds"),
        (["--seeds", "1", "--scenarios", "encoder,nope"], "scenarios"),
        *[(["--seeds", "1", "--tol", tol], "tol") for tol in ("nan", "-1", "0", "inf")],
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
    def test_non_finite_training_names_the_epoch_and_step(self, tmp_path, capsys, monkeypatch):
        data = _gen(tmp_path, "data")
        capsys.readouterr()
        # the first Adam step at this rate moves every weight by about 1e300, and the next forward overflows
        code = main(["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(tmp_path / "run"),
                     "--quiet", "--epochs", "1", "--lr", "1e300", "--train.batch_size", "3", *TINY_FLAGS])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "non_finite"
        assert err["message"].startswith("epoch 0, step 1 (run step 1): ")

        # a collapsed query on the second step is a Degenerate step, with the same context
        real_heads, calls = decoder.predict_heads, []

        def collapse_one_query_from_the_second_step(decoded, state):
            heads = real_heads(decoded, state)
            calls.append(None)
            if len(calls) > 1:
                heads.boxes.data[1, 5, 2] = 1e-9  # w below the 1e-6 extent floor
            return heads

        monkeypatch.setattr(decoder, "predict_heads", collapse_one_query_from_the_second_step)
        argv = ["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(tmp_path / "collapsed"),
                "--quiet", "--epochs", "1", "--train.batch_size", "3", *TINY_FLAGS]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "degenerate_box"
        assert err["message"].startswith("epoch 0, step 1 (run step 1): image 1 prediction 5 has near-zero extent")
        calls.clear()
        with pytest.raises(Degenerate, match=r"^epoch 0, step 1 \(run step 1\): "):
            cli.run_training(_config_from(build_parser().parse_args(argv)), load_dataset(argv[2]))

    @pytest.mark.parametrize("flags, code, field", [
        (["--model.n_heads", "0"], "dim_mismatch", "n_heads"),
        (["--model.n_heads", "-4"], "dim_mismatch", "n_heads"),
        (["--train.batch_size", "0"], "parse_error", "batch_size"),
        (["--train.batch_size", "-3"], "parse_error", "batch_size"),
    ], ids=["heads_0", "heads_-4", "batch_0", "batch_-3"])
    def test_non_positive_head_count_or_batch_size_exits_2(self, tmp_path, capsys, flags, code, field):
        data = _gen(tmp_path, "data")
        capsys.readouterr()
        argv = ["train", "--data", str(data / "train" / "data.jsonl"), "--out", str(tmp_path / "run"),
                "--quiet", "--epochs", "1", *TINY_FLAGS, *flags]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == code and field in err["message"]
        assert not (tmp_path / "run").exists()
        if code == "parse_error":
            with pytest.raises(ParseError) as raised:
                cli.run_training(_config_from(build_parser().parse_args(argv)), load_dataset(argv[2]))
            assert raised.value.field == "train.batch_size"

    def test_bad_override_value_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "x"), "--data.n_candidates", "5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "out_of_range"
        assert not (tmp_path / "x").exists()

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

    def test_checkpoint_without_heads_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        save_checkpoint(ckpt, init_state(toy_config(), seed=1))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["model"]["n_heads"] = 0
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DimMismatch, match="n_heads"):
            load_checkpoint(ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "val.jsonl")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "dim_mismatch"

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

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny generated dataset and a one-epoch checkpoint trained on its train split."""
    root = tmp_path_factory.mktemp("tiny_run")
    assert main(["gen", "--out", str(root / "data"), "--data.seed", "3", *TINY_FLAGS]) == 0
    assert main(["train", "--data", str(root / "data" / "train" / "data.jsonl"), "--out", str(root / "run"),
                 "--quiet", "--epochs", "1", *TINY_FLAGS]) == 0
    return root


def _main_error(capsys, argv) -> dict:
    """The error JSON of a ``main`` call that must exit 2."""
    capsys.readouterr()
    assert main(argv) == 2
    return json.loads(capsys.readouterr().err)


class TestUntypedValues:
    def test_training_on_an_empty_split_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), *TINY_FLAGS, "--data.n_train", "0"]) == 0
        assert load_dataset(data / "train" / "data.jsonl") == []
        err = _main_error(capsys, ["train", "--data", str(data / "train" / "data.jsonl"), "--out",
                                   str(tmp_path / "run"), "--quiet", "--epochs", "1", *TINY_FLAGS])
        assert err["code"] == "dim_mismatch" and "empty" in err["message"]
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _fuse_error(tmp_path, capsys, probs_path) -> dict:
        cam_paths = []
        for k in range(9):
            write_tensor(tmp_path / f"cam{k}.aesc", np.full((8, 8), 0.5))
            cam_paths.append(str(tmp_path / f"cam{k}.aesc"))
        err = _main_error(capsys, ["fuse", "--cams", *cam_paths, "--probs", str(probs_path),
                                   "--grid-h", "4", "--grid-w", "4", "--out", str(tmp_path / "prior.aesc")])
        assert not (tmp_path / "prior.aesc").exists()
        return err

    @pytest.mark.parametrize("probs", [["x", *[1.0 / 8] * 8], {"a": 1}, [None] * 9], ids=["string", "object", "null"])
    def test_non_numeric_fuse_probabilities_exit_2(self, tmp_path, capsys, probs):
        (tmp_path / "probs.json").write_text(json.dumps(probs))
        err = self._fuse_error(tmp_path, capsys, tmp_path / "probs.json")
        assert err["code"] == "parse_error" and "probs" in err["message"]

    @pytest.mark.parametrize("name", ["dir", "probs.bin", "deep.json"], ids=["directory", "binary", "deep"])
    def test_unreadable_fuse_probabilities_exit_2(self, tmp_path, capsys, name):
        (tmp_path / "dir").mkdir()
        (tmp_path / "probs.bin").write_bytes(b"\xd0\xff")
        (tmp_path / "deep.json").write_text("[" * 100000)
        err = self._fuse_error(tmp_path, capsys, tmp_path / name)
        assert err["code"] == "parse_error" and "probabilities file" in err["message"]


# an out-of-range value for each leaf field whose bound the config checks, with the error code it gives;
# model.epsilon_b, train.lr, train.decay_epoch and train.decay_factor have no bound in the config,
# and data.n_candidates' floor is generate_synthetic's (test_bad_override_value_exits_2)
OUT_OF_RANGE = {
    "model.n_queries": (0, "dim_mismatch"),
    "model.n_layers": (-1, "dim_mismatch"),
    "model.model_dim": (30, "dim_mismatch"),
    "model.n_heads": (0, "dim_mismatch"),
    "model.ffn_dim": (0, "dim_mismatch"),
    "model.grid_h": (0, "dim_mismatch"),
    "model.grid_w": (0, "dim_mismatch"),
    "model.in_channels": (0, "dim_mismatch"),
    "model.image_h": (65, "bad_shape"),
    "model.image_w": (65, "bad_shape"),
    "loss.giou_weight": (-0.1, "out_of_range"),
    "loss.focal_weight": (-0.1, "out_of_range"),
    "loss.focal_gamma": (0.5, "out_of_range"),
    "loss.soft_iou_threshold": (1.5, "out_of_range"),
    "train.epochs": (0, "parse_error"),
    "train.batch_size": (0, "parse_error"),
    "train.seed": (-1, "parse_error"),
    "train.optimizer": ("rmsprop", "parse_error"),
    "data.seed": (-1, "parse_error"),
    "data.n_train": (-1, "parse_error"),
    "data.n_val": (-1, "parse_error"),
    "data.cam_h": (0, "parse_error"),
    "data.cam_w": (0, "parse_error"),
    "eval.ks": ([0, 1], "parse_error"),
    "eval.ns": ([0], "parse_error"),
    "eval.epsilon": (1.5, "parse_error"),
    "mcab": ("median", "parse_error"),
    "dtype": ("f16", "parse_error"),
}
LEAVES = cli._flatten(DESK_CONFIG)


def _doc(dotted: str, value) -> dict:
    """A config document that sets the one field ``dotted``."""
    *sections, leaf = dotted.split(".")
    doc = {leaf: value}
    for section in reversed(sections):
        doc = {section: doc}
    return doc


def _bad_cases():
    """(dotted field, bad value, error code) for every leaf field of the preset."""
    for dotted, default in LEAVES.items():
        kinds = {"string": "x", "bool": True, "null": None, "fraction": 0.5, "nan": float("nan"), "list": [1]}
        if isinstance(default, float):
            del kinds["fraction"]  # a valid value; test_a_fraction_or_an_int_is_a_real
        if isinstance(default, tuple):
            kinds.update(list=[1.5], bool_entry=[True], string_entry=["12"], empty=[])
        for kind, value in kinds.items():
            yield pytest.param(dotted, value, "parse_error", id=f"{dotted}-{kind}")
        if dotted in OUT_OF_RANGE:
            yield pytest.param(dotted, *OUT_OF_RANGE[dotted], id=f"{dotted}-out_of_range")


class TestEveryConfigField:
    def test_every_out_of_range_entry_is_a_leaf(self):
        assert set(OUT_OF_RANGE) <= set(LEAVES)

    @pytest.mark.parametrize("dotted, value, code", list(_bad_cases()))
    def test_a_bad_value_exits_2_before_gen_writes(self, tmp_path, capsys, dotted, value, code):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_doc(dotted, value)))
        err = _main_error(capsys, ["gen", "--config", str(config), "--out", str(tmp_path / "data")])
        assert err["code"] == code
        # a ParseError names the dotted field; the model and loss range errors name the field's own name
        assert (f"(field '{dotted}')" if code == "parse_error" else dotted.split(".")[-1]) in err["message"]
        assert not (tmp_path / "data").exists()
        with pytest.raises(CropError):
            resolve_config("desk", str(config), {})

    @pytest.mark.parametrize("dotted, value, code", list(_bad_cases()))
    def test_a_bad_flag_fails_as_the_file_does(self, tmp_path, capsys, dotted, value, code):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_doc(dotted, value)))
        from_file = _main_error(capsys, ["gen", "--config", str(config), "--out", str(tmp_path / "data")])
        # the flag's text is the value's JSON text
        err = _main_error(capsys, ["gen", f"--{dotted}", json.dumps(value), "--out", str(tmp_path / "data")])
        assert err == from_file and err["code"] == code
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_every_command_types_the_config_before_it_writes(self, tiny_run, tmp_path, capsys, command):
        (tmp_path / "cfg.json").write_text(json.dumps({"eval": {"ks": [1.5]}}))
        train, val = (str(tiny_run / "data" / split / "data.jsonl") for split in ("train", "val"))
        inputs = {"train": ["--data", train], "eval": ["--checkpoint", str(tiny_run / "run" / "checkpoint"),
                                                       "--data", val],
                  "ablate": ["--train-data", train, "--val-data", val]}[command]
        err = _main_error(capsys, [command, "--config", str(tmp_path / "cfg.json"), *inputs,
                                   "--out", str(tmp_path / "out"), *TINY_FLAGS])
        assert err["code"] == "parse_error" and "(field 'eval.ks')" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dotted", [d for d, v in LEAVES.items() if isinstance(v, float)])
    def test_a_fraction_or_an_int_is_a_real(self, dotted):
        section, leaf = dotted.split(".")
        fraction = resolve_config("desk", None, {dotted: LEAVES[dotted] * 0.75})
        assert getattr(getattr(fraction, section), leaf) == LEAVES[dotted] * 0.75
        whole = getattr(getattr(resolve_config("desk", None, {dotted: 1}), section), leaf)
        assert whole == 1.0 and type(whole) is float

    @pytest.mark.parametrize("dotted", [d for d, v in LEAVES.items() if isinstance(v, int)])
    def test_an_integral_float_is_an_int(self, dotted):
        section, leaf = dotted.split(".")
        value = getattr(getattr(resolve_config("desk", None, {dotted: float(LEAVES[dotted])}), section), leaf)
        assert value == LEAVES[dotted] and type(value) is int

    def test_every_leaf_has_a_flag_that_sets_it(self):
        preset = resolve_config("desk", None, {})
        for dotted, default in LEAVES.items():
            text = json.dumps(list(default)) if isinstance(default, tuple) else str(default)
            cfg = _config_from(build_parser().parse_args(["gen", "--out", "x", f"--{dotted}", text]))
            assert all(getattr(cfg, name) == getattr(preset, name) for name in (*cli.SECTIONS, "mcab", "dtype"))


class TestRunOnlyOnValidValues:
    @pytest.mark.parametrize("flags, doc, field", [
        (["--seed", "-1"], None, "train.seed"),
        (["--epochs", "0"], None, "train.epochs"),
        (["--epochs", "-1"], None, "train.epochs"),
        (["--lr", "nan"], None, "train.lr"),
        (["--lr", "inf"], None, "train.lr"),
        ([], {"train": {"lr": float("nan")}}, "train.lr"),
    ], ids=["seed_-1", "epochs_0", "epochs_-1", "lr_nan", "lr_inf", "config_lr_nan"])
    def test_a_value_that_crashed_or_corrupted_training_exits_2(self, tiny_run, tmp_path, capsys, flags, doc, field):
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))  # json writes NaN, and Python's json reads it
            flags = ["--config", str(tmp_path / "cfg.json")]
        # one step over the six images, unless a case's own --epochs, which comes later, overrides it
        err = _main_error(capsys, ["train", "--data", str(tiny_run / "data" / "train" / "data.jsonl"),
                                   "--out", str(tmp_path / "run"), "--quiet", "--epochs", "1",
                                   "--train.batch_size", "6", *TINY_FLAGS, *flags])
        assert err["code"] == "parse_error" and f"(field '{field}')" in err["message"]
        assert not (tmp_path / "run").exists()

    def test_gen_types_mcab_and_dtype_before_writing(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"mcab": "bogus", "dtype": "f16"}))
        err = _main_error(capsys, ["gen", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "data"),
                                   *TINY_FLAGS])
        assert err["code"] == "parse_error" and "(field 'mcab')" in err["message"]
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("flags, code, field", [
        (["--eval.epsilon", "1.5"], "parse_error", "(field 'eval.epsilon')"),
        (["--eval.ks", "[1, 13]"], "k_too_large", "K=13"),
        (["--depths", "1,-1"], "dim_mismatch", "n_layers"),
        (["--modes", "bogus"], "parse_error", "(field 'mcab')"),
    ], ids=["epsilon_1.5", "ks_13", "depth_-1", "modes_bogus"])
    def test_ablate_refuses_a_config_value_before_it_trains(self, tiny_run, tmp_path, capsys, flags, code, field):
        data = tiny_run / "data"
        capsys.readouterr()
        assert main(["ablate", "--train-data", str(data / "train" / "data.jsonl"),
                     "--val-data", str(data / "val" / "data.jsonl"), "--out", str(tmp_path / "ablate"),
                     "--modes", "off", "--depths", "1", "--epochs", "1", *TINY_FLAGS, *flags]) == 2
        out, err = capsys.readouterr()
        assert "training" not in out
        assert json.loads(err)["code"] == code and field in json.loads(err)["message"]
        assert not (tmp_path / "ablate").exists()

    @pytest.mark.parametrize("flags, keys", [
        (["--eval.ns", "[3]"], {"acc_1_3", "acc_bar_3"}),
        (["--eval.ks", "[2]"], {"acc_2_5", "acc_2_10", "acc_bar_5", "acc_bar_10"}),
    ], ids=["ns_3", "ks_2"])
    def test_ablate_summarizes_the_configured_k_and_n(self, tiny_run, tmp_path, capsys, flags, keys):
        data = tiny_run / "data"
        assert main(["ablate", "--train-data", str(data / "train" / "data.jsonl"),
                     "--val-data", str(data / "val" / "data.jsonl"), "--out", str(tmp_path / "ablate"),
                     "--modes", "off", "--depths", "1", "--quiet", "--epochs", "1", *TINY_FLAGS, *flags]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "ablate" / "ablate.json").read_text())
        assert set(payload["runs"]["M=1 mcab=off"]) == keys
