"""File formats and the synthetic-oracle dataset.

Three concerns live here: the AESC binary tensor format (magic
"AESC", u16 version, u8 dtype code, u8 rank, u32 dims, row-major
little-endian payload), the JSON-lines annotation container, and a
synthetic scene generator that plants a known-optimal crop so
end-to-end training has a ground truth to converge to. Checkpoints
(JSON manifest + one AESC file per parameter) also land here.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .composition import ActivationMap, ClassProbabilities, N_CLASSES, normalize01
from .decoder import ModelConfig, ModelState, init_state
from .errors import (
    BadMagic,
    BadShape,
    BadVersion,
    ChecksumMismatch,
    CropError,
    Degenerate,
    MissingFile,
    OutOfRange,
    ParseError,
    RangeError,
    TruncatedPayload,
)
from .geometry import CropBox, ScoredCrop, boxes_array, from_corners, iou_matrix
from .tensor import Tensor

AESC_MAGIC = b"AESC"
AESC_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
# the run dtypes by the names that the config and the checkpoint manifest give them
DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


def dtype_named(name) -> np.dtype:
    """The run dtype that ``name`` names; anything else is a ``ParseError`` on field ``dtype``."""
    if not (isinstance(name, str) and name in DTYPES):
        raise ParseError(f"dtype {name!r} not one of {sorted(DTYPES)}", field="dtype")
    return DTYPES[name]


def _aesc_bytes(t) -> bytes:
    """The AESC bytes of a Tensor or ndarray (f32/f64, any rank)."""
    arr = t.data if isinstance(t, Tensor) else np.asarray(t)
    dtype = np.dtype(arr.dtype)
    if dtype not in _DTYPE_CODES:
        raise BadVersion(f"cannot serialize dtype {dtype}; use f32 or f64")
    header = AESC_MAGIC + struct.pack("<HBB", AESC_VERSION, _DTYPE_CODES[dtype], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr).astype(dtype.newbyteorder("<"), copy=False).tobytes()


def write_tensor(path, t) -> None:
    """Serialize a Tensor or ndarray (f32/f64, any rank) to AESC."""
    Path(path).write_bytes(_aesc_bytes(t))


def _read_aesc(path) -> tuple[bytes, np.ndarray]:
    """An AESC file's bytes, and its payload as a read-only little-endian view of them."""
    p = os.fspath(path)
    try:
        with open(p, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise MissingFile(f"tensor file not found: {p}") from None
    if len(blob) < 8 or blob[:4] != AESC_MAGIC:
        raise BadMagic(f"{p}: missing AESC magic")
    version, dtype_code, rank = struct.unpack("<HBB", blob[4:8])
    if version != AESC_VERSION:
        raise BadVersion(f"{p}: version {version}, expected {AESC_VERSION}")
    if dtype_code not in _CODE_DTYPES:
        raise BadVersion(f"{p}: unknown dtype code {dtype_code}")
    dims_end = 8 + 4 * rank
    if len(blob) < dims_end:
        raise TruncatedPayload(f"{p}: header truncated at {len(blob)} bytes")
    dims = struct.unpack(f"<{rank}I", blob[8:dims_end]) if rank else ()
    dtype = _CODE_DTYPES[dtype_code]
    expected = math.prod(dims) * dtype.itemsize
    actual = len(blob) - dims_end
    if actual != expected:
        raise TruncatedPayload(f"{p}: payload is {actual} bytes, expected {expected}")
    return blob, np.frombuffer(blob, dtype=dtype, offset=dims_end).reshape(dims)


def read_tensor(path) -> Tensor:
    """Parse an AESC file back into a (non-trainable) Tensor, bit-exact."""
    arr = _read_aesc(path)[1]
    # Tensor copies the little-endian payload into a native-order array of its own
    return Tensor(arr, dtype=arr.dtype.newbyteorder("="))


# -- dataset records -------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    """One annotated image; tensor payloads stay on disk until asked for."""

    id: str
    channels: int
    height: int
    width: int
    image_path: str | None
    class_probs: ClassProbabilities
    cam_paths: tuple[str, ...] | None
    cams_inline: tuple | None
    crops: tuple[ScoredCrop, ...]
    base_dir: str

    def _resolve(self, rel: str) -> str:
        return os.path.join(self.base_dir, rel)

    def load_image(self) -> np.ndarray:
        """The image as a read-only view of the file's bytes: a caller's ``astype`` is the one copy."""
        if self.image_path is None:
            raise MissingFile(f"record {self.id!r} has no image tensor")
        arr = _read_aesc(self._resolve(self.image_path))[1]
        if arr.shape != (self.channels, self.height, self.width):
            raise BadShape(f"record {self.id!r}: image shape {arr.shape} != declared "
                           f"({self.channels}, {self.height}, {self.width})")
        return arr

    def load_cams(self) -> list[ActivationMap]:
        if self.cams_inline is not None:
            return [ActivationMap(values=np.array(v, dtype=np.float64)) for v in self.cams_inline]
        if self.cam_paths is None:
            raise MissingFile(f"record {self.id!r} has no activation maps")
        return [ActivationMap(values=_read_aesc(self._resolve(p))[1].astype(np.float64)) for p in self.cam_paths]


def _number(val, key: str, line_no: int | None = None) -> float:
    """A JSON number as a float; a string, null or bool is a ParseError naming the line, if any, and the field."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"field {key!r} must be a number, got {type(val).__name__}", line=line_no, field=key)
    return float(val)


_BOX_FORMS = (("cx", "cy", "w", "h"), ("x1", "y1", "x2", "y2"))


def _parse_crop(entry: dict, record_id: str, line_no: int) -> ScoredCrop:
    if not isinstance(entry, dict) or "mos" not in entry:
        raise ParseError("crop entry must be an object with a 'mos' field", line=line_no, field="crops")
    mos = _number(entry["mos"], "mos", line_no)
    form = next((keys for keys in _BOX_FORMS if all(k in entry for k in keys)), None)
    if form is None:
        raise ParseError("crop needs cx/cy/w/h or x1/y1/x2/y2", line=line_no, field="crops")
    vals = [_number(entry[k], k, line_no) for k in form]
    try:
        box = CropBox(*vals) if form is _BOX_FORMS[0] else from_corners(*vals)
        return ScoredCrop(box=box, mos=mos)
    except (Degenerate, OutOfRange) as e:
        raise RangeError(str(e), record=record_id) from e


def _require(obj: dict, key: str, kind, line_no: int):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line=line_no, field=key)
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ParseError(f"field {key!r} has wrong type {type(val).__name__}", line=line_no, field=key)
    return val


def load_dataset(path) -> list[DatasetRecord]:
    """Read a JSON-lines annotation file, validating every record."""
    p = Path(path)
    if not p.exists():
        raise MissingFile(f"dataset file not found: {p}")
    base_dir = str(p.parent)
    records: list[DatasetRecord] = []
    for line_no, raw in enumerate(p.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=line_no) from e
        except RecursionError as e:
            raise ParseError("JSON nests too deeply to read", line=line_no) from e
        if not isinstance(obj, dict):
            raise ParseError("record is not a JSON object", line=line_no)
        rec_id = _require(obj, "id", str, line_no)
        channels = _require(obj, "channels", int, line_no)
        height = _require(obj, "height", int, line_no)
        width = _require(obj, "width", int, line_no)
        if min(channels, height, width) < 1:
            raise RangeError(f"non-positive image dims ({channels}, {height}, {width})", record=rec_id)
        probs_raw = _require(obj, "class_probs", list, line_no)
        prob_values = tuple(_number(v, "class_probs", line_no) for v in probs_raw)
        try:
            probs = ClassProbabilities(values=prob_values)
        except CropError as e:
            raise RangeError(str(e), record=rec_id) from e
        crops_raw = _require(obj, "crops", list, line_no)
        if not crops_raw:
            raise ParseError("record has no crops", line=line_no, field="crops")
        crops = tuple(_parse_crop(c, rec_id, line_no) for c in crops_raw)
        image_path = obj.get("image")
        cam_paths = obj.get("cams")
        cams_inline = obj.get("cams_inline")
        if image_path is not None and not isinstance(image_path, str):
            raise ParseError(f"image must be a path string, got {type(image_path).__name__}",
                             line=line_no, field="image")
        if cam_paths is not None and cams_inline is not None:
            raise ParseError("record has both cams and cams_inline", line=line_no, field="cams")
        if cam_paths is not None:
            if not isinstance(cam_paths, list) or len(cam_paths) != N_CLASSES:
                raise ParseError(f"cams must list {N_CLASSES} paths", line=line_no, field="cams")
            if not all(isinstance(c, str) for c in cam_paths):
                raise ParseError("cams must list path strings", line=line_no, field="cams")
            cam_paths = tuple(cam_paths)
        if cams_inline is not None:
            if not isinstance(cams_inline, list) or len(cams_inline) != N_CLASSES:
                raise ParseError(f"cams_inline must list {N_CLASSES} maps", line=line_no, field="cams_inline")
            cams_inline = tuple(cams_inline)
        for rel in filter(None, [image_path, *(cam_paths or ())]):
            if not os.path.exists(os.path.join(base_dir, rel)):
                raise MissingFile(f"record {rec_id!r} references missing file {rel}")
        records.append(
            DatasetRecord(
                id=rec_id,
                channels=channels,
                height=height,
                width=width,
                image_path=image_path,
                class_probs=probs,
                cam_paths=cam_paths,
                cams_inline=cams_inline,
                crops=crops,
                base_dir=base_dir,
            )
        )
    return records


def save_dataset(records, path) -> None:
    """Write records back out as JSON lines (paths kept relative)."""
    lines = []
    for r in records:
        obj = {
            "id": r.id,
            "channels": r.channels,
            "height": r.height,
            "width": r.width,
            "image": r.image_path,
            "class_probs": list(r.class_probs.values),
            "cams": list(r.cam_paths) if r.cam_paths is not None else None,
            "crops": [{"cx": c.box.cx, "cy": c.box.cy, "w": c.box.w, "h": c.box.h, "mos": c.mos} for c in r.crops],
        }
        if r.cams_inline is not None:
            obj["cams_inline"] = [np.asarray(v).tolist() for v in r.cams_inline]
            del obj["cams"]
        lines.append(json.dumps(obj, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


# -- synthetic scenes -------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticScene:
    """In-memory generated scene before serialization."""

    planted: CropBox
    decoys: tuple[CropBox, ...]
    salient_mask: np.ndarray
    image: np.ndarray
    cams: tuple[ActivationMap, ...]
    class_probs: ClassProbabilities
    crops: tuple[ScoredCrop, ...]


def _oracle_mos(candidates: np.ndarray, planted: CropBox) -> list[float]:
    """1 + 4 IoU^2 of each (m, 4) candidate row with the planted box, the power taken on Python floats."""
    overlap = iou_matrix(candidates, planted.as_array()[None, :])[:, 0]
    return [1.0 + 4.0 * v ** 2.0 for v in overlap.tolist()]


def _clip_center(c: float, extent: float) -> float:
    lo, hi = extent / 2.0, 1.0 - extent / 2.0
    return min(max(c, lo), hi)


def _jittered(rng: np.random.Generator, base: CropBox, sigma: float) -> CropBox:
    w = min(max(base.w * (1.0 + rng.normal(0.0, sigma)), 0.05), 0.9)
    h = min(max(base.h * (1.0 + rng.normal(0.0, sigma)), 0.05), 0.9)
    cx = _clip_center(base.cx + float(rng.normal(0.0, sigma)), w)
    cy = _clip_center(base.cy + float(rng.normal(0.0, sigma)), h)
    return CropBox(cx=cx, cy=cy, w=w, h=h)


_JITTER_LEVELS = (0.005, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.18, 0.21, 0.25)
# a scene's candidates: the planted box, one jitter per level and at least one random box
MIN_CANDIDATES = len(_JITTER_LEVELS) + 2


def make_scene(
    rng: np.random.Generator,
    *,
    image_h: int = 64,
    image_w: int = 64,
    channels: int = 3,
    cam_h: int = 32,
    cam_w: int = 32,
    n_candidates: int = 24,
) -> SyntheticScene:
    """Plant one optimal crop plus a look-alike decoy; derive image, maps, MOS.

    The subject and the decoy are textured rectangles with overlapping
    brightness ranges, so raw pixels alone rarely settle which one the
    scored candidates reward. The activation maps resolve it: the
    dominant and runner-up composition categories receive complementary
    halves of a saliency bump over the subject only, so
    probability-weighted fusion recovers the whole region while picking
    only the argmax map covers half.

    Up to three decoys are drawn, each trial tested with one
    ``iou_matrix`` call against the subject and the decoys placed so
    far. The n_candidates - 1 candidate boxes (the subject's jitters,
    then random boxes) are all drawn before one ``iou_matrix`` pass
    scores them; scoring draws nothing from the rng.
    """
    if n_candidates < MIN_CANDIDATES:
        raise OutOfRange(f"n_candidates must be >= {MIN_CANDIDATES}")
    w = float(rng.uniform(0.20, 0.40))
    h = float(rng.uniform(0.20, 0.40))
    planted = CropBox(
        cx=float(rng.uniform(w / 2.0 + 0.03, 1.0 - w / 2.0 - 0.03)),
        cy=float(rng.uniform(h / 2.0 + 0.03, 1.0 - h / 2.0 - 0.03)),
        w=w,
        h=h,
    )
    # row 0 holds the planted box, the next rows the decoys accepted so far, and row k the trial
    placed = np.empty((4, 4))
    placed[0] = planted.as_array()
    decoys: list[CropBox] = []
    for _ in range(3):
        k = len(decoys) + 1
        for _ in range(64):
            dw = float(rng.uniform(0.15, 0.35))
            dh = float(rng.uniform(0.15, 0.35))
            dcx = float(rng.uniform(dw / 2.0 + 0.03, 1.0 - dw / 2.0 - 0.03))
            dcy = float(rng.uniform(dh / 2.0 + 0.03, 1.0 - dh / 2.0 - 0.03))
            placed[k] = dcx, dcy, dw, dh
            if iou_matrix(placed[k : k + 1], placed[:k]).max() < 0.05:
                decoys.append(CropBox(cx=dcx, cy=dcy, w=dw, h=dh))
                break

    # image: dim noise, decoy rectangles, and the subject rectangle on top
    image = rng.uniform(0.0, 0.30, size=(channels, image_h, image_w))
    ys = np.arange(image_h)[:, None]
    xs = np.arange(image_w)[None, :]

    def _rect_mask(box: CropBox) -> np.ndarray:
        x1, y1, x2, y2 = box.cx - box.w / 2, box.cy - box.h / 2, box.cx + box.w / 2, box.cy + box.h / 2
        return (
            (ys >= y1 * image_h) & (ys < y2 * image_h) & (xs >= x1 * image_w) & (xs < x2 * image_w)
        )

    mask = _rect_mask(planted)
    decoy_masks = [_rect_mask(decoy) for decoy in decoys]
    for c in range(channels):
        for decoy_mask in decoy_masks:
            dim = rng.uniform(0.55, 0.85, size=(image_h, image_w))
            np.copyto(image[c], dim, where=decoy_mask)
        # the leading two channels carry the subject's extents as flat
        # brightness levels, so its size is readable from local content
        if c == 0 and channels >= 2:
            fill = 0.5 + 1.5 * (w - 0.2) + rng.uniform(-0.02, 0.02, size=(image_h, image_w))
        elif c == 1 and channels >= 3:
            fill = 0.5 + 1.5 * (h - 0.2) + rng.uniform(-0.02, 0.02, size=(image_h, image_w))
        else:
            fill = rng.uniform(0.70, 1.0, size=(image_h, image_w))
        np.copyto(image[c], fill, where=mask)

    # saliency bump over the subject, split into two half-maps
    cy_grid = (np.arange(cam_h)[:, None] + 0.5) / cam_h
    cx_grid = (np.arange(cam_w)[None, :] + 0.5) / cam_w

    bump = np.exp(
        -(
            ((cx_grid - planted.cx) ** 2) / (2.0 * (1.8 * planted.w) ** 2)
            + ((cy_grid - planted.cy) ** 2) / (2.0 * (1.8 * planted.h) ** 2)
        )
    )
    left = 1.0 / (1.0 + np.exp((cx_grid - planted.cx) / 0.02))
    left = np.broadcast_to(left, bump.shape)
    if rng.random() < 0.5:
        left = 1.0 - left
    dominant, runner_up = rng.choice(N_CLASSES, size=2, replace=False)
    cams: list[ActivationMap] = []
    for k in range(N_CLASSES):
        if k == dominant:
            vals = bump * left + 0.02 * rng.uniform(size=bump.shape)
        elif k == runner_up:
            vals = bump * (1.0 - left) + 0.02 * rng.uniform(size=bump.shape)
        else:
            vals = rng.uniform(size=bump.shape) * 0.5
        cams.append(ActivationMap(values=normalize01(vals)))

    probs = np.full(N_CLASSES, 0.13 / (N_CLASSES - 2))
    probs[dominant] = 0.45
    probs[runner_up] = 0.42
    probs = probs / probs.sum()
    class_probs = ClassProbabilities(values=tuple(float(v) for v in probs))

    candidates = [_jittered(rng, planted, sigma) for sigma in _JITTER_LEVELS]
    while len(candidates) < n_candidates - 1:
        rw = float(rng.uniform(0.15, 0.50))
        rh = float(rng.uniform(0.15, 0.50))
        candidates.append(CropBox(
            cx=float(rng.uniform(rw / 2.0, 1.0 - rw / 2.0)),
            cy=float(rng.uniform(rh / 2.0, 1.0 - rh / 2.0)),
            w=rw,
            h=rh,
        ))
    crops = [ScoredCrop(box=planted, mos=5.0)]
    crops += map(ScoredCrop, candidates, _oracle_mos(boxes_array(candidates), planted))

    return SyntheticScene(
        planted=planted,
        decoys=tuple(decoys),
        salient_mask=mask,
        image=image,
        cams=tuple(cams),
        class_probs=class_probs,
        crops=tuple(crops),
    )


def generate_synthetic(
    seed: int,
    n_images: int,
    out_dir,
    *,
    image_h: int = 64,
    image_w: int = 64,
    channels: int = 3,
    cam_h: int = 32,
    cam_w: int = 32,
    n_candidates: int = 24,
) -> list[DatasetRecord]:
    """Write a complete synthetic dataset and return its records, equal to what ``load_dataset`` reads back.

    Layout: out_dir/data.jsonl plus images/ and cams/ with AESC files
    (float32). The same seed reproduces the same bytes. A candidate
    count below ``MIN_CANDIDATES`` is refused before anything is written.
    """
    if n_candidates < MIN_CANDIDATES:
        raise OutOfRange(f"n_candidates must be >= {MIN_CANDIDATES}")
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "cams").mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n_images):
        scene = make_scene(
            rng,
            image_h=image_h,
            image_w=image_w,
            channels=channels,
            cam_h=cam_h,
            cam_w=cam_w,
            n_candidates=n_candidates,
        )
        rec_id = f"scene_{i:04d}"
        image_rel = f"images/{rec_id}.aesc"
        write_tensor(out / image_rel, scene.image.astype(np.float32))
        cam_rels = []
        for k, cam in enumerate(scene.cams):
            rel = f"cams/{rec_id}_c{k}.aesc"
            write_tensor(out / rel, cam.values.astype(np.float32))
            cam_rels.append(rel)
        rows.append(
            DatasetRecord(
                id=rec_id,
                channels=channels,
                height=image_h,
                width=image_w,
                image_path=image_rel,
                class_probs=scene.class_probs,
                cam_paths=tuple(cam_rels),
                cams_inline=None,
                crops=scene.crops,
                base_dir=str(out),
            )
        )
    save_dataset(rows, out / "data.jsonl")
    return rows


# -- checkpoints ------------------------------------------------------------------


def _replace(path: Path, write) -> None:
    """Write ``path`` through a temp file beside it and ``os.replace``, so it is old or new, never partial."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(out_dir, state: ModelState, extra: dict | None = None) -> None:
    """One AESC file per named parameter, then the manifest JSON with each file's sha256.

    Every file goes through a temp file and ``os.replace``, the manifest
    last. A save cut short leaves the previous manifest, whose checksums
    no longer match the files already replaced, so ``load_checkpoint``
    refuses the mix instead of returning it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = state.param_names()
    checksums = {}
    for name in names:
        _replace(out / f"{name}.aesc", lambda tmp: write_tensor(tmp, state.params[name]))
        # the bytes write_tensor wrote, made again in memory instead of read back from disk
        checksums[name] = hashlib.sha256(_aesc_bytes(state.params[name])).hexdigest()
    manifest = {
        "format": 1,
        "model": asdict(state.config),
        "dtype": next(name for name, dtype in DTYPES.items() if dtype == state.dtype),
        "params": names,
        "sha256": checksums,
        "extra": extra or {},
    }
    _replace(out / "manifest.json", lambda tmp: tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True)))


def load_checkpoint(ckpt_dir) -> tuple[ModelState, dict]:
    """Rebuild a ModelState (bit-exact parameters) from a checkpoint."""
    ckpt = Path(ckpt_dir)
    manifest_path = ckpt / "manifest.json"
    if not manifest_path.exists():
        raise MissingFile(f"checkpoint manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"manifest is not valid JSON: {e.msg}") from e
    except RecursionError as e:
        raise ParseError("manifest nests too deeply to read as JSON") from e
    if not isinstance(manifest, dict):
        raise ParseError("manifest is not a JSON object")
    for key in ("format", "model", "dtype", "params", "sha256"):
        if key not in manifest:
            raise ParseError(f"manifest missing field {key!r}", field=key)
    if manifest["format"] != 1:
        raise BadVersion(f"checkpoint format {manifest['format']}, expected 1")
    dtype = dtype_named(manifest["dtype"])
    model = manifest["model"]
    if not isinstance(model, dict) or set(model) != {f.name for f in fields(ModelConfig)}:
        raise ParseError("manifest model keys do not match the model config", field="model")
    params = manifest["params"]
    if not isinstance(params, list) or not all(isinstance(name, str) for name in params):
        raise ParseError("manifest params must be a list of parameter names", field="params")
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise ParseError("manifest extra must be an object", field="extra")
    config = ModelConfig(**model)
    state = init_state(config, seed=0, dtype=dtype)
    if set(params) != set(state.param_names()):
        raise ParseError("manifest parameter list does not match the configured model", field="params")
    checksums = manifest["sha256"]
    if not isinstance(checksums, dict) or set(checksums) != set(params):
        raise ParseError("manifest sha256 must map every parameter to a checksum", field="sha256")
    for name in params:
        path = ckpt / f"{name}.aesc"
        # one read: the checksum covers the very bytes that are loaded
        blob, loaded = _read_aesc(path)
        if loaded.shape != state.params[name].dims:
            raise BadShape(f"parameter {name}: stored {loaded.shape} != expected {state.params[name].dims}")
        if hashlib.sha256(blob).hexdigest() != checksums[name]:
            raise ChecksumMismatch(f"parameter {name}: {path} does not match the manifest's sha256")
        state.params[name].data[...] = loaded
    return state, extra


def write_pgm(path, amap: ActivationMap) -> None:
    """Debug-only grayscale dump (ASCII PGM, 8-bit)."""
    vals = np.round(amap.values * 255.0).astype(np.int64)
    h, w = vals.shape
    body = "\n".join(" ".join(str(v) for v in row) for row in vals)
    Path(path).write_text(f"P2\n{w} {h}\n255\n{body}\n")
