"""Binary tensor codec, JSONL datasets, synthetic scenes, checkpoints."""
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from croprank import dataio
from croprank.dataio import (
    AESC_MAGIC,
    AESC_VERSION,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    make_scene,
    read_tensor,
    save_checkpoint,
    save_dataset,
    write_pgm,
    write_tensor,
)
from croprank.composition import ActivationMap
from croprank.decoder import init_state
from croprank.errors import (
    BadMagic,
    BadShape,
    BadVersion,
    ChecksumMismatch,
    MissingFile,
    OutOfRange,
    ParseError,
    RangeError,
    TruncatedPayload,
)
from croprank.gradcheck import toy_config
from croprank.tensor import Tensor

from conftest import box_iou


def _valid_record(tmp_path, **overrides):
    """One syntactically complete JSONL record with a real image file."""
    img = tmp_path / "img.aesc"
    write_tensor(img, np.zeros((1, 4, 4), dtype=np.float32))
    rec = {
        "id": "r0",
        "channels": 1,
        "height": 4,
        "width": 4,
        "image": "img.aesc",
        "class_probs": [1.0 / 9] * 9,
        "crops": [{"cx": 0.5, "cy": 0.5, "w": 0.4, "h": 0.4, "mos": 4.5}],
    }
    rec.update(overrides)
    return rec


def _write_lines(tmp_path, *objs):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(o if isinstance(o, str) else json.dumps(o) for o in objs) + "\n")
    return path


class TestTensorCodec:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4)])
    def test_round_trip_bitwise(self, tmp_path, dtype, shape):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=shape).astype(dtype)
        path = tmp_path / "t.aesc"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.data.dtype == np.dtype(dtype)
        assert back.data.shape == shape
        assert np.array_equal(back.data, arr)

    def test_accepts_tensor_values(self, tmp_path):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        path = tmp_path / "t.aesc"
        write_tensor(path, t)
        assert np.array_equal(read_tensor(path).data, t.data)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.aesc"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == AESC_MAGIC == b"AESC"
        version, code, rank = struct.unpack("<HBB", blob[4:8])
        assert (version, code, rank) == (AESC_VERSION, 0, 2)
        assert struct.unpack("<2I", blob[8:16]) == (2, 3)
        assert len(blob) == 16 + 2 * 3 * 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            read_tensor(tmp_path / "absent.aesc")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.aesc"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_bad_version_and_dtype_code(self, tmp_path):
        path = tmp_path / "t.aesc"
        path.write_bytes(AESC_MAGIC + struct.pack("<HBB", 2, 0, 0) + bytes(4))
        with pytest.raises(BadVersion):
            read_tensor(path)
        path.write_bytes(AESC_MAGIC + struct.pack("<HBB", AESC_VERSION, 7, 0) + bytes(8))
        with pytest.raises(BadVersion):
            read_tensor(path)

    def test_unsupported_write_dtype(self, tmp_path):
        with pytest.raises(BadVersion):
            write_tensor(tmp_path / "t.aesc", np.zeros(3, dtype=np.int32))

    def test_truncated_header_and_payload(self, tmp_path):
        path = tmp_path / "t.aesc"
        write_tensor(path, np.zeros((2, 3), dtype=np.float64))
        blob = path.read_bytes()
        path.write_bytes(blob[:10])  # inside the dims block
        with pytest.raises(TruncatedPayload):
            read_tensor(path)
        path.write_bytes(blob[:-8])  # one element short
        with pytest.raises(TruncatedPayload):
            read_tensor(path)
        path.write_bytes(blob + bytes(8))  # trailing garbage also rejected
        with pytest.raises(TruncatedPayload):
            read_tensor(path)


    def test_string_paths_raise_the_same_types(self, tmp_path):
        good = tmp_path / "good.aesc"
        write_tensor(good, np.arange(6, dtype=np.float32).reshape(2, 3))
        blob = good.read_bytes()
        cases = {
            "absent.aesc": (None, MissingFile),
            "magic.aesc": (b"NOPE" + blob[4:], BadMagic),
            "version.aesc": (blob[:4] + struct.pack("<HBB", 2, 0, 2) + blob[8:], BadVersion),
            "code.aesc": (blob[:4] + struct.pack("<HBB", AESC_VERSION, 9, 2) + blob[8:], BadVersion),
            "short.aesc": (blob[:-1], TruncatedPayload),
        }
        for name, (content, error) in cases.items():
            path = tmp_path / name
            if content is not None:
                path.write_bytes(content)
            with pytest.raises(error, match=name):
                read_tensor(str(path))

    def test_read_gives_a_writable_native_copy(self, tmp_path):
        path = tmp_path / "t.aesc"
        write_tensor(path, np.arange(6, dtype=np.float64).reshape(2, 3))
        data = read_tensor(str(path)).data
        assert data.flags.owndata and data.flags.writeable and data.dtype.isnative
        data[0, 0] = 7.0
        assert read_tensor(path).data[0, 0] == 0.0

    def test_record_file_removed_after_load_raises_missing_file(self, tmp_path):
        records = generate_synthetic(5, 1, tmp_path / "d", image_h=16, image_w=16, cam_h=8, cam_w=8,
                                     n_candidates=13)
        (tmp_path / "d" / records[0].cam_paths[4]).unlink()
        assert records[0].load_image().shape == (3, 16, 16)
        with pytest.raises(MissingFile, match=records[0].cam_paths[4]):
            records[0].load_cams()

class TestLoadDataset:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path / "none.jsonl")

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = _write_lines(tmp_path, _valid_record(tmp_path), "", "   ")
        assert len(load_dataset(path)) == 1

    def test_basic_fields(self, tmp_path):
        path = _write_lines(tmp_path, _valid_record(tmp_path))
        (rec,) = load_dataset(path)
        assert rec.id == "r0"
        assert (rec.channels, rec.height, rec.width) == (1, 4, 4)
        assert rec.load_image().shape == (1, 4, 4)
        assert rec.crops[0].mos == 4.5

    def test_invalid_json_names_line(self, tmp_path):
        path = _write_lines(tmp_path, _valid_record(tmp_path), "{not json")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_json_nested_too_deep_names_line(self, tmp_path):
        path = _write_lines(tmp_path, _valid_record(tmp_path), "[" * 100000)
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_non_object_line(self, tmp_path):
        path = _write_lines(tmp_path, "[1, 2]")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        rec = _valid_record(tmp_path)
        del rec["height"]
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert err.value.field == "height"

    def test_wrong_type(self, tmp_path):
        rec = _valid_record(tmp_path, width="four")
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert err.value.field == "width"

    @pytest.mark.parametrize("value", ["abc", None, "0.5", True], ids=["string", "null", "numeric_string", "bool"])
    def test_a_box_field_must_be_a_json_number(self, tmp_path, value):
        rec = _valid_record(tmp_path)
        rec["crops"][0]["cx"] = value
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert (err.value.line, err.value.field) == (1, "cx")

    def test_a_corner_field_must_be_a_json_number(self, tmp_path):
        rec = _valid_record(tmp_path, crops=[{"x1": 0.2, "y1": 0.3, "x2": "0.6", "y2": 0.7, "mos": 3.0}])
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert (err.value.line, err.value.field) == (1, "x2")

    @pytest.mark.parametrize("value", [True, "4.5", None], ids=["bool", "string", "null"])
    def test_mos_must_be_a_json_number(self, tmp_path, value):
        rec = _valid_record(tmp_path)
        rec["crops"][0]["mos"] = value
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert (err.value.line, err.value.field) == (1, "mos")

    @pytest.mark.parametrize("field", ["channels", "height", "width"])
    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_dims_must_be_json_ints(self, tmp_path, field, value):
        rec = _valid_record(tmp_path, **{field: value})
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, _valid_record(tmp_path), rec))
        assert (err.value.line, err.value.field) == (2, field)

    @pytest.mark.parametrize("value", ["0.1", True, None], ids=["string", "bool", "null"])
    def test_class_probs_entries_must_be_json_numbers(self, tmp_path, value):
        rec = _valid_record(tmp_path, class_probs=[value] + [1.0 / 9] * 8)
        with pytest.raises(ParseError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert (err.value.line, err.value.field) == (1, "class_probs")

    def test_integer_box_fields_and_mos_are_numbers(self, tmp_path):
        rec = _valid_record(tmp_path, crops=[{"x1": 0, "y1": 0, "x2": 1, "y2": 1, "mos": 4}])
        (out,) = load_dataset(_write_lines(tmp_path, rec))
        assert out.crops[0].mos == 4.0 and out.crops[0].box.w == 1.0

    def test_no_crops(self, tmp_path):
        rec = _valid_record(tmp_path, crops=[])
        with pytest.raises(ParseError):
            load_dataset(_write_lines(tmp_path, rec))

    def test_mos_out_of_range_names_record(self, tmp_path):
        rec = _valid_record(tmp_path)
        rec["crops"][0]["mos"] = 5.1
        with pytest.raises(RangeError) as err:
            load_dataset(_write_lines(tmp_path, rec))
        assert err.value.record == "r0"

    def test_degenerate_box_names_record(self, tmp_path):
        rec = _valid_record(tmp_path)
        rec["crops"][0]["w"] = 0.0
        with pytest.raises(RangeError):
            load_dataset(_write_lines(tmp_path, rec))

    def test_corner_form_is_converted(self, tmp_path):
        rec = _valid_record(tmp_path, crops=[{"x1": 0.2, "y1": 0.3, "x2": 0.6, "y2": 0.7, "mos": 3.0}])
        (out,) = load_dataset(_write_lines(tmp_path, rec))
        box = out.crops[0].box
        assert (box.cx, box.cy, box.w, box.h) == pytest.approx((0.4, 0.5, 0.4, 0.4), abs=1e-12)

    def test_crop_without_either_form(self, tmp_path):
        rec = _valid_record(tmp_path, crops=[{"mos": 3.0}])
        with pytest.raises(ParseError):
            load_dataset(_write_lines(tmp_path, rec))

    def test_both_cam_forms_rejected(self, tmp_path):
        inline = [[[0.0, 1.0], [0.5, 0.5]]] * 9
        rec = _valid_record(tmp_path, cams=["c.aesc"] * 9, cams_inline=inline)
        with pytest.raises(ParseError):
            load_dataset(_write_lines(tmp_path, rec))

    def test_wrong_cam_count(self, tmp_path):
        rec = _valid_record(tmp_path, cams_inline=[[[0.0, 1.0]]] * 8)
        with pytest.raises(ParseError):
            load_dataset(_write_lines(tmp_path, rec))

    def test_inline_cams_load(self, tmp_path):
        inline = [[[0.0, 1.0], [0.5, 0.25]]] * 9
        rec = _valid_record(tmp_path, cams_inline=inline)
        (out,) = load_dataset(_write_lines(tmp_path, rec))
        cams = out.load_cams()
        assert len(cams) == 9
        assert np.array_equal(cams[0].values, [[0.0, 1.0], [0.5, 0.25]])

    @pytest.mark.parametrize("value", [5, ["img.aesc"], True], ids=["number", "list", "bool"])
    def test_image_path_must_be_a_string(self, tmp_path, value):
        path = _write_lines(tmp_path, _valid_record(tmp_path), _valid_record(tmp_path, image=value))
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert (err.value.field, err.value.line) == ("image", 2)

    @pytest.mark.parametrize("value", [5, None, ["c.aesc"]], ids=["number", "null", "list"])
    def test_cam_paths_must_be_strings(self, tmp_path, value):
        write_tensor(tmp_path / "c.aesc", np.zeros((4, 4)))
        rec = _valid_record(tmp_path, cams=[value, *["c.aesc"] * 8])
        path = _write_lines(tmp_path, _valid_record(tmp_path, cams=["c.aesc"] * 9), rec)
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert (err.value.field, err.value.line) == ("cams", 2)

    def test_referenced_file_must_exist(self, tmp_path):
        rec = _valid_record(tmp_path, image="gone.aesc")
        with pytest.raises(MissingFile):
            load_dataset(_write_lines(tmp_path, rec))

    def test_save_load_identity(self, tmp_path):
        records = generate_synthetic(3, 2, tmp_path / "ds", image_h=16, image_w=16, cam_h=8, cam_w=8, n_candidates=13)
        out = tmp_path / "copy.jsonl"
        save_dataset(records, out)
        # records resolve paths relative to their own directory
        reloaded = load_dataset(tmp_path / "ds" / "data.jsonl")
        again = load_dataset(out.parent / "ds" / "data.jsonl")
        for a, b in zip(reloaded, again):
            assert a == b
        assert (tmp_path / "ds" / "data.jsonl").read_text().splitlines()[0] == out.read_text().splitlines()[0]


class TestSyntheticScenes:
    def test_same_seed_same_bytes(self, tmp_path):
        kw = dict(image_h=16, image_w=16, cam_h=8, cam_w=8, n_candidates=13)
        generate_synthetic(11, 2, tmp_path / "a", **kw)
        generate_synthetic(11, 2, tmp_path / "b", **kw)
        for rel in ("data.jsonl", "images/scene_0000.aesc", "cams/scene_0001_c4.aesc"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        kw = dict(image_h=16, image_w=16, cam_h=8, cam_w=8, n_candidates=13)
        generate_synthetic(11, 1, tmp_path / "a", **kw)
        generate_synthetic(12, 1, tmp_path / "c", **kw)
        assert (tmp_path / "a" / "data.jsonl").read_text() != (tmp_path / "c" / "data.jsonl").read_text()

    def test_records_are_fully_formed(self, tmp_path):
        records = generate_synthetic(5, 3, tmp_path / "ds", image_h=32, image_w=32, cam_h=16, cam_w=16)
        assert len(records) == 3
        for rec in records:
            assert len(rec.crops) == 24
            img = rec.load_image()
            assert img.shape == (3, 32, 32)
            assert img.min() >= 0.0 and img.max() <= 1.0
            cams = rec.load_cams()
            assert len(cams) == 9
            for cam in cams:
                assert cam.values.shape == (16, 16)

    def test_returns_the_records_it_wrote_without_reading_them_back(self, tmp_path, monkeypatch):
        kw = dict(image_h=16, image_w=16, cam_h=8, cam_w=8, n_candidates=13)

        def refuse(path):
            raise AssertionError(f"generate_synthetic read {path} back")

        with monkeypatch.context() as patched:
            patched.setattr(dataio, "load_dataset", refuse)
            records = generate_synthetic(7, 3, tmp_path / "ds", **kw)
        assert records == load_dataset(tmp_path / "ds" / "data.jsonl")
        assert [r.id for r in records] == ["scene_0000", "scene_0001", "scene_0002"]

    def test_load_image_is_a_read_only_view_of_the_file(self, tmp_path):
        rec = generate_synthetic(8, 1, tmp_path / "ds", image_h=16, image_w=16, cam_h=8, cam_w=8,
                                 n_candidates=13)[0]
        img = rec.load_image()
        assert not img.flags.writeable and img.dtype == np.float32
        stored = read_tensor(tmp_path / "ds" / rec.image_path).data
        for dtype in (np.float32, np.float64):
            converted = img.astype(dtype)
            assert converted.flags.writeable and converted.tobytes() == stored.astype(dtype).tobytes()

    def test_scores_follow_the_overlap_oracle(self, tmp_path):
        records = generate_synthetic(6, 2, tmp_path / "ds", image_h=16, image_w=16, cam_h=8, cam_w=8)
        for rec in records:
            best = max(rec.crops, key=lambda c: c.mos)
            assert best.mos == 5.0
            planted = rec.crops[0].box
            assert rec.crops[0].mos == 5.0
            for crop in rec.crops:
                expected = 1.0 + 4.0 * box_iou(crop.box, planted) ** 2
                assert crop.mos == pytest.approx(expected, abs=1e-9)
            assert sum(1 for c in rec.crops if c.mos >= 4.0) >= 1

    def test_candidate_floor(self, tmp_path):
        rng = np.random.default_rng(0)
        with pytest.raises(OutOfRange):
            make_scene(rng, n_candidates=dataio.MIN_CANDIDATES - 1)
        make_scene(rng, n_candidates=dataio.MIN_CANDIDATES)
        # the floor is checked before the first directory is made, not at the first scene
        with pytest.raises(OutOfRange):
            generate_synthetic(0, 2, tmp_path / "ds", n_candidates=dataio.MIN_CANDIDATES - 1)
        assert not (tmp_path / "ds").exists()

    def test_scene_pieces_are_consistent(self):
        rng = np.random.default_rng(1)
        scene = make_scene(rng, image_h=32, image_w=32, cam_h=16, cam_w=16)
        assert scene.salient_mask.shape == (32, 32)
        assert scene.salient_mask.any()
        assert len(scene.decoys) == 3
        for d in scene.decoys:
            assert box_iou(d, scene.planted) < 0.05
        assert len(scene.cams) == 9
        assert abs(sum(scene.class_probs.values) - 1.0) < 1e-9


class TestCheckpoints:
    def _trained_state(self):
        state = init_state(toy_config(), seed=4)
        state["query.embed"].data += 0.25  # make it differ from a fresh init
        return state

    def test_round_trip_bit_exact(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state, extra={"epoch": 7, "note": "x"})
        loaded, extra = load_checkpoint(tmp_path / "ck")
        assert extra == {"epoch": 7, "note": "x"}
        assert loaded.config == state.config
        assert loaded.param_names() == state.param_names()
        for name in state.param_names():
            assert np.array_equal(loaded[name].data, state[name].data)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_checkpoint(tmp_path / "nope")

    def test_corrupt_manifest(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        (tmp_path / "ck" / "manifest.json").write_text("{broken")
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "ck")

    def test_manifest_nested_too_deep(self, tmp_path):
        save_checkpoint(tmp_path / "ck", self._trained_state())
        (tmp_path / "ck" / "manifest.json").write_text("[" * 100000)
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "ck")

    def test_unknown_format(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest["format"] = 2
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadVersion):
            load_checkpoint(tmp_path / "ck")

    def test_missing_manifest_field(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        del manifest["dtype"]
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("name", ["f16", ["f64"], None])
    def test_unknown_dtype(self, tmp_path, name):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest["dtype"] = name
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as err:
            load_checkpoint(tmp_path / "ck")
        assert err.value.field == "dtype"

    def test_model_keys_must_match_the_config(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        saved = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        unknown = {**saved["model"], "n_experts": 2}
        missing = {k: v for k, v in saved["model"].items() if k != "n_heads"}
        mistyped = [({**saved["model"], "n_queries": bad}, "model.n_queries") for bad in ("4", 4.5, None, True)]
        mistyped.append(({**saved["model"], "epsilon_b": "1e-6"}, "model.epsilon_b"))
        for model, field in ((unknown, "model"), (missing, "model"), ([1, 2], "model"), *mistyped):
            (tmp_path / "ck" / "manifest.json").write_text(json.dumps({**saved, "model": model}))
            with pytest.raises(ParseError) as err:
                load_checkpoint(tmp_path / "ck")
            assert err.value.field == field

    def test_parameter_list_mismatch(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        names = manifest["params"]
        for params in (names[:-1], 5, "enc.proj.w", [["a"]], [*names[:-1], 7], None):
            (tmp_path / "ck" / "manifest.json").write_text(json.dumps({**manifest, "params": params}))
            with pytest.raises(ParseError) as err:
                load_checkpoint(tmp_path / "ck")
            assert err.value.field == "params"
        for extra in ([1], "mcab", 3, None):
            (tmp_path / "ck" / "manifest.json").write_text(json.dumps({**manifest, "extra": extra}))
            with pytest.raises(ParseError) as err:
                load_checkpoint(tmp_path / "ck")
            assert err.value.field == "extra"

    def test_shape_mismatch(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        write_tensor(tmp_path / "ck" / "query.embed.aesc", np.zeros((2, 2)))
        with pytest.raises(BadShape):
            load_checkpoint(tmp_path / "ck")

    def test_interrupted_overwrite_is_refused(self, tmp_path, monkeypatch):
        old = self._trained_state()
        save_checkpoint(tmp_path / "ck", old)
        new = init_state(toy_config(), seed=5)
        written = []
        real_write = dataio.write_tensor

        def fail_after_five(path, t):
            if len(written) == 5:
                raise OSError("disk full")
            real_write(path, t)
            written.append(path)

        monkeypatch.setattr(dataio, "write_tensor", fail_after_five)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "ck", new)
        monkeypatch.undo()
        # five files hold the new values, the manifest and the rest the old ones
        assert not list((tmp_path / "ck").glob("*.tmp"))
        with pytest.raises(ChecksumMismatch) as err:
            load_checkpoint(tmp_path / "ck")
        assert err.value.code == "checksum_mismatch"
        save_checkpoint(tmp_path / "ck", new)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        for name in new.param_names():
            assert loaded[name].data.tobytes() == new[name].data.tobytes()

    def test_each_parameter_file_is_read_once_on_load_and_never_on_save(self, tmp_path, monkeypatch):
        state = self._trained_state()
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(".aesc") and "r" in (args[0] if args else kwargs.get("mode", "r")):
                opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"{self} read through Path.read_bytes"))
        save_checkpoint(tmp_path / "ck", state)
        assert opened == []
        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert sorted(opened) == sorted(str(tmp_path / "ck" / f"{name}.aesc") for name in state.param_names())
        for name in state.param_names():
            assert loaded[name].data.tobytes() == state[name].data.tobytes()

    def test_changed_parameter_file_is_refused(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        write_tensor(tmp_path / "ck" / "query.embed.aesc", state["query.embed"].data + 1.0)
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(tmp_path / "ck")

    def test_checksums_must_cover_every_parameter(self, tmp_path):
        state = self._trained_state()
        save_checkpoint(tmp_path / "ck", state)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        partial = dict(list(manifest["sha256"].items())[1:])
        for checksums in (partial, ["abc"], None):
            (tmp_path / "ck" / "manifest.json").write_text(json.dumps({**manifest, "sha256": checksums}))
            with pytest.raises(ParseError) as err:
                load_checkpoint(tmp_path / "ck")
            assert err.value.field == "sha256"
        del manifest["sha256"]
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as err:
            load_checkpoint(tmp_path / "ck")
        assert err.value.field == "sha256"


class TestPgm:
    def test_header_and_values(self, tmp_path):
        amap = ActivationMap(values=np.array([[0.0, 1.0], [0.5, 0.25]]))
        path = tmp_path / "m.pgm"
        write_pgm(path, amap)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["0", "255"]
        assert lines[4].split() == [str(int(np.round(0.5 * 255))), str(int(np.round(0.25 * 255)))]
