"""Dataset ingestion and model-bundle persistence.

File surfaces: plain-text landmark files (version/n_points header and a
brace-delimited coordinate block), binary 8-bit PGM images, and the
versioned little-endian bundle format documented in FORMAT.md.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AsmFitError,
    BundleCorruptionError,
    BundleVersionError,
    DatasetError,
    DimensionMismatchError,
    PgmDecodeError,
    PointsParseError,
    ShapeArityError,
    SplitError,
)
from .imaging import GrayImage
from .profiles import ProfileModel, ProfileStats
from .scheme import LandmarkScheme
from .search import FitConfig
from .shape_model import Shape, ShapeModel
from .svm import LinearSvmModel

BUNDLE_MAGIC = b"ASMFITB1"
BUNDLE_VERSION = 5


@dataclass(frozen=True, eq=False)
class AnnotatedSample:
    """One training/test pair: image plus scheme-consistent landmarks."""

    name: str
    image: GrayImage
    shape: Shape

    def __post_init__(self):
        pts = self.shape.points
        w, h = self.image.width, self.image.height
        bad = np.flatnonzero(
            (pts[:, 0] < 0) | (pts[:, 0] > w - 1) | (pts[:, 1] < 0) | (pts[:, 1] > h - 1)
        )
        if bad.size:
            raise DatasetError(
                f"{self.name}: landmark {bad[0]} at {tuple(pts[bad[0]])} "
                f"lies outside the {w}x{h} image"
            )


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything fitting needs, persisted as one artifact."""

    scheme: LandmarkScheme
    shape_model: ShapeModel
    classic_profiles: ProfileModel
    asm_profiles: ProfileModel
    svms: tuple
    fit_defaults: FitConfig
    train_meta: dict

    def __post_init__(self):
        n = self.scheme.total
        if self.shape_model.n != n:
            raise DimensionMismatchError(
                f"shape model covers {self.shape_model.n} landmarks, scheme {n}"
            )
        for pm in (self.classic_profiles, self.asm_profiles):
            if pm.n_landmarks != n:
                raise DimensionMismatchError("profile models must cover every landmark")
        levels = self.fit_defaults.levels
        if not (self.classic_profiles.levels == self.asm_profiles.levels == levels):
            raise DimensionMismatchError("profile models and fit defaults disagree on levels")
        if self.asm_profiles.sizes != self.fit_defaults.profile_lengths:
            raise DimensionMismatchError("asm profile sizes must match fit defaults")
        if self.fit_defaults.mode != "asm_svm":
            raise ShapeArityError(f"fit defaults name mode {self.fit_defaults.mode!r}, not asm_svm")
        got = [model.weights.shape for model in self.svms]
        want = [(n, size * size) for size in self.asm_profiles.sizes]
        if got != want:
            raise DimensionMismatchError(f"SVM weights {got} per level, profiles need {want}")


# ---------------------------------------------------------------- points IO

def load_points_file(path) -> Shape:
    """Parse the version/n_points landmark text format."""
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise PointsParseError(f"{path.name}: not UTF-8 text at byte {exc.start}") from None
    idx = 0

    def fail(msg, lineno):
        raise PointsParseError(f"{path.name}:{lineno}: {msg}")

    def next_content():
        nonlocal idx
        while idx < len(lines):
            stripped = lines[idx].strip()
            idx += 1
            if stripped:
                return stripped, idx
        return None, idx

    header, ln = next_content()
    if header is None or header.replace(" ", "") != "version:1":
        fail(f"expected 'version: 1', got {header!r}", ln)
    counts, ln = next_content()
    if counts is None or not counts.startswith("n_points:"):
        fail(f"expected 'n_points: <k>', got {counts!r}", ln)
    try:
        declared = int(counts.split(":", 1)[1].strip())
    except ValueError:
        fail(f"non-integer point count in {counts!r}", ln)
    brace, ln = next_content()
    if brace != "{":
        fail(f"expected '{{', got {brace!r}", ln)
    pts = []
    while True:
        row, ln = next_content()
        if row is None:
            fail("missing closing '}'", ln)
        if row == "}":
            break
        parts = row.split()
        if len(parts) != 2:
            fail(f"expected 'x y', got {row!r}", ln)
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            fail(f"non-numeric coordinate in {row!r}", ln)
    if len(pts) != declared:
        raise PointsParseError(
            f"{path.name}: header declares {declared} points but body has {len(pts)}"
        )
    return Shape(np.array(pts))


def write_points_file(shape: Shape, path) -> None:
    """Write landmarks with full-precision decimal reprs (exact round trip)."""
    lines = ["version: 1", f"n_points: {shape.n}", "{"]
    lines += [f"{repr(float(x))} {repr(float(y))}" for x, y in shape.points]
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------- image IO

def _pgm_tokens(data: bytes):
    """Header tokens of a PGM/PPM file, skipping whitespace and comments."""
    pos = 0
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos].decode("ascii", "replace"), pos


def load_image(path) -> GrayImage:
    """Decode a binary 8-bit PGM (P5)."""
    path = Path(path)
    data = path.read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic != "P5":
            raise PgmDecodeError(f"{path.name}: expected P5 magic, got {magic!r}")
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
    except StopIteration:
        raise PgmDecodeError(f"{path.name}: truncated header") from None
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError:
        raise PgmDecodeError(f"{path.name}: non-numeric header field") from None
    if maxval != 255:
        raise PgmDecodeError(f"{path.name}: only 8-bit images supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise PgmDecodeError(f"{path.name}: bad dimensions {width}x{height}")
    payload = data[end + 1: end + 1 + width * height]
    if len(payload) < width * height:
        raise PgmDecodeError(
            f"{path.name}: payload holds {len(payload)} bytes, need {width * height}"
        )
    return GrayImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width).astype(float))


def save_pgm(image: GrayImage, path) -> None:
    data = np.clip(np.rint(image.pixels), 0, 255).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def save_ppm(rgb: np.ndarray, path) -> None:
    """Write an (h, w, 3) uint8 array as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise PgmDecodeError(f"overlay expects (h, w, 3) uint8, got {rgb.shape} {rgb.dtype}")
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())


# ------------------------------------------------------------- dataset prep

def discover_pairs(images_dir, points_dir):
    """Sorted (stem, image path, points path) triples; both files required."""
    images_dir, points_dir = Path(images_dir), Path(points_dir)
    image_stems = {p.stem: p for p in images_dir.glob("*.pgm")}
    point_stems = {p.stem: p for p in points_dir.glob("*.pts")}
    for stem in sorted(point_stems.keys() - image_stems.keys()):
        raise DatasetError(f"annotation {stem}.pts has no matching image")
    for stem in sorted(image_stems.keys() - point_stems.keys()):
        raise DatasetError(f"image {stem}.pgm has no matching annotation")
    if not image_stems:
        raise DatasetError("no training pairs found")
    return [(stem, image_stems[stem], point_stems[stem]) for stem in sorted(image_stems)]


def load_annotated(images_dir, points_dir, scheme: LandmarkScheme):
    """Load and validate every image/points pair against the scheme."""
    samples = []
    for stem, img_path, pts_path in discover_pairs(images_dir, points_dir):
        shape = load_points_file(pts_path)
        if shape.n != scheme.total:
            raise DatasetError(
                f"{stem}: annotation has {shape.n} points, scheme expects {scheme.total}"
            )
        samples.append(AnnotatedSample(stem, load_image(img_path), shape))
    return samples


def split_dataset(samples, train_count: int, seed: int):
    """Seeded shuffle split into (train, test); disjoint and exhaustive."""
    total = len(samples)
    if not 0 < train_count < total:
        raise SplitError(f"train_count must be in (0, {total}), got {train_count}")
    order = np.random.default_rng(seed).permutation(total)
    train = [samples[i] for i in order[:train_count]]
    test = [samples[i] for i in order[train_count:]]
    return train, test


# ------------------------------------------------------- bundle (de)coding

_T_NONE, _T_BOOL, _T_INT, _T_FLOAT, _T_STR, _T_LIST, _T_DICT, _T_F64, _T_U8 = range(9)


def _encode(obj, out: bytearray):
    if obj is None:
        out.append(_T_NONE)
    elif isinstance(obj, bool):
        out.append(_T_BOOL)
        out.append(1 if obj else 0)
    elif isinstance(obj, (int, np.integer)):
        out.append(_T_INT)
        out += struct.pack("<q", int(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(_T_FLOAT)
        out += struct.pack("<d", float(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        if arr.dtype == np.uint8:
            out.append(_T_U8)
        else:
            arr = arr.astype("<f8")
            out.append(_T_F64)
        out.append(arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<Q", dim)
        out += arr.tobytes()
    elif isinstance(obj, (list, tuple)):
        out.append(_T_LIST)
        out += struct.pack("<I", len(obj))
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(obj))
        for key, value in obj.items():
            _encode(str(key), out)
            _encode(value, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# Nesting depth of lists/dicts a bundle may use; the writer needs three.
_MAX_DEPTH = 8


def _advance(buf: memoryview, pos: int, n: int) -> int:
    """Position after n more bytes, if the buffer holds them."""
    if n > len(buf) - pos:
        raise BundleCorruptionError(f"value at byte {pos} runs past the end of its section")
    return pos + n


def _decode(buf: memoryview, pos: int, depth: int = 0):
    if depth > _MAX_DEPTH:
        raise BundleCorruptionError(f"values nested deeper than {_MAX_DEPTH} at byte {pos}")
    pos = _advance(buf, pos, 1)
    tag = buf[pos - 1]
    if tag == _T_NONE:
        return None, pos
    if tag == _T_BOOL:
        end = _advance(buf, pos, 1)
        if buf[pos] > 1:
            raise BundleCorruptionError(f"bool at byte {pos} holds {buf[pos]}")
        return bool(buf[pos]), end
    if tag in (_T_INT, _T_FLOAT):
        end = _advance(buf, pos, 8)
        return struct.unpack_from("<q" if tag == _T_INT else "<d", buf, pos)[0], end
    if tag in (_T_STR, _T_LIST, _T_DICT):
        start = _advance(buf, pos, 4)
        n = struct.unpack_from("<I", buf, pos)[0]
        # Every item takes at least one byte, a string byte exactly one.
        _advance(buf, start, n)
        pos = start
        if tag == _T_STR:
            try:
                return str(buf[pos:pos + n], "utf-8"), pos + n
            except UnicodeDecodeError:
                raise BundleCorruptionError(f"string at byte {pos} is not UTF-8") from None
        items = []
        for _ in range(n * (2 if tag == _T_DICT else 1)):
            item, pos = _decode(buf, pos, depth + 1)
            items.append(item)
        if tag == _T_LIST:
            return items, pos
        keys = items[0::2]
        if not all(isinstance(key, str) for key in keys):
            raise BundleCorruptionError(f"dict ending at byte {pos} has a non-string key")
        return dict(zip(keys, items[1::2])), pos
    if tag in (_T_F64, _T_U8):
        pos = _advance(buf, pos, 1)
        ndim = buf[pos - 1]
        pos = _advance(buf, pos, 8 * ndim)
        shape = struct.unpack_from(f"<{ndim}Q", buf, pos - 8 * ndim)
        dtype = np.dtype("<f8") if tag == _T_F64 else np.dtype(np.uint8)
        count = math.prod(shape)
        end = _advance(buf, pos, count * dtype.itemsize)
        try:
            arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).reshape(shape)
        except ValueError as exc:
            raise BundleCorruptionError(f"array at byte {pos} has shape {shape}: {exc}") from None
        arr = arr.copy()
        arr.setflags(write=False)  # read-only, so the models take it over without a copy
        return arr, end
    raise BundleCorruptionError(f"unknown value tag {tag} at byte {pos - 1}")


def _profile_model_payload(pm: ProfileModel) -> dict:
    return {
        "sizes": list(pm.sizes),
        "means": [st.mean for st in pm.stats],
        "bases": [st.basis for st in pm.stats],
        "lams": [st.lam for st in pm.stats],
        "rhos": [st.rho for st in pm.stats],
    }


def _profile_model_from_payload(payload: dict, kind: str) -> ProfileModel:
    fields = [payload[key] for key in ("means", "bases", "lams", "rhos")]
    stats = tuple(ProfileStats(means, basis=bases, lam=lams, rho=rhos)
                  for means, bases, lams, rhos in zip(*fields, strict=True))
    return ProfileModel(kind=kind, sizes=tuple(payload["sizes"]), stats=stats)


def _fit_config_from_payload(payload: dict) -> FitConfig:
    """FitConfig from a payload holding exactly its fields."""
    want = {f.name for f in dataclasses.fields(FitConfig)}
    if payload.keys() != want:
        raise BundleCorruptionError(
            f"fit config keys: missing {sorted(want - payload.keys())}, "
            f"unknown {sorted(payload.keys() - want)}"
        )
    return FitConfig(**payload)


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write the bundle: magic, version, section table, payload, CRC32."""
    sm = bundle.shape_model
    sections = [
        ("scheme", {"groups": bundle.scheme.to_jsonable()}),
        ("shape_model", {
            "mean": sm.mean_shape.as_vector(),
            "modes": sm.modes,
            "eigenvalues": sm.eigenvalues,
            "variance_fraction": sm.variance_fraction,
            "clamp_alpha": sm.clamp_alpha,
        }),
        ("profiles", {
            "classic": _profile_model_payload(bundle.classic_profiles),
            "asm": _profile_model_payload(bundle.asm_profiles),
        }),
        ("svms", {
            "weights": [model.weights for model in bundle.svms],
            "biases": [model.bias for model in bundle.svms],
        }),
        ("fit_defaults", {
            "config": dataclasses.asdict(bundle.fit_defaults),
            "train_meta": bundle.train_meta,
        }),
    ]
    blobs = []
    for name, payload in sections:
        blob = bytearray()
        _encode(payload, blob)
        blobs.append((name, bytes(blob)))

    table = bytearray()
    offset = 0
    for name, blob in blobs:
        raw = name.encode("ascii")
        table += struct.pack("<H", len(raw))
        table += raw
        table += struct.pack("<QQ", offset, len(blob))
        offset += len(blob)
    head = BUNDLE_MAGIC + struct.pack("<II", BUNDLE_VERSION, len(blobs))
    body = head + bytes(table) + b"".join(blob for _, blob in blobs)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _section_table(data: memoryview, count: int, start: int):
    """(name, offset, length) entries and the first payload byte."""
    pos = start
    table = []
    for _ in range(count):
        pos = _advance(data, pos, 2)
        name_len = struct.unpack_from("<H", data, pos - 2)[0]
        pos = _advance(data, pos, name_len + 16)
        try:
            name = str(data[pos - 16 - name_len:pos - 16], "ascii")
        except UnicodeDecodeError:
            raise BundleCorruptionError("section name is not ASCII") from None
        offset, length = struct.unpack_from("<QQ", data, pos - 16)
        table.append((name, offset, length))
    return table, pos


def load_bundle(path) -> ModelBundle:
    """Read and validate a bundle; checks magic, checksum, then version."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < len(BUNDLE_MAGIC) + 12 or data[:len(BUNDLE_MAGIC)] != BUNDLE_MAGIC:
        raise BundleCorruptionError(f"{path.name}: not a model bundle (bad magic)")
    view = memoryview(data)[:-4]
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(view) != stored_crc:
        raise BundleCorruptionError(f"{path.name}: checksum mismatch, file corrupted")
    version, section_count = struct.unpack_from("<II", data, len(BUNDLE_MAGIC))
    if version != BUNDLE_VERSION:
        raise BundleVersionError(
            f"{path.name}: bundle version {version}, this build reads {BUNDLE_VERSION}; "
            "retrain the model"
        )
    # A bundle that passed its checksum can still be malformed (written by
    # another tool, or damaged before the checksum was taken). Every failure
    # to decode it or to rebuild the model from its fields is corruption.
    try:
        table, payload_start = _section_table(view, section_count, len(BUNDLE_MAGIC) + 8)
        sections = {}
        for name, offset, length in table:
            blob = view[payload_start + offset:payload_start + offset + length]
            if len(blob) != length:
                raise BundleCorruptionError(f"section {name} runs past the end of the file")
            value, end = _decode(blob, 0)
            if end != length:
                raise BundleCorruptionError(f"section {name} has trailing bytes")
            sections[name] = value
        return _bundle_from_sections(sections)
    except BundleCorruptionError as exc:
        raise BundleCorruptionError(f"{path.name}: {exc}") from None
    except KeyError as exc:
        raise BundleCorruptionError(f"{path.name}: missing bundle field {exc}") from None
    except (AsmFitError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        raise BundleCorruptionError(f"{path.name}: malformed bundle field: {exc}") from None


def _bundle_from_sections(sections: dict) -> ModelBundle:
    scheme = LandmarkScheme.from_jsonable(sections["scheme"]["groups"])
    sm_raw = sections["shape_model"]
    shape_model = ShapeModel(
        mean_shape=Shape.from_vector(sm_raw["mean"]),
        modes=sm_raw["modes"],
        eigenvalues=sm_raw["eigenvalues"],
        variance_fraction=sm_raw["variance_fraction"],
        clamp_alpha=sm_raw["clamp_alpha"],
    )
    svm_raw = sections["svms"]
    return ModelBundle(
        scheme=scheme,
        shape_model=shape_model,
        classic_profiles=_profile_model_from_payload(sections["profiles"]["classic"], "one_d"),
        asm_profiles=_profile_model_from_payload(sections["profiles"]["asm"], "two_d"),
        svms=tuple(LinearSvmModel(w, b)
                   for w, b in zip(svm_raw["weights"], svm_raw["biases"], strict=True)),
        fit_defaults=_fit_config_from_payload(sections["fit_defaults"]["config"]),
        train_meta=sections["fit_defaults"]["train_meta"],
    )
