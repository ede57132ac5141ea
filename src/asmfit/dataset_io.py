"""Dataset ingestion and model-bundle persistence.

File surfaces: plain-text landmark files (version/n_points header and a
brace-delimited coordinate block), binary 8-bit PGM images, and the
versioned little-endian bundle format documented in FORMAT.md.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import struct
import zlib
from dataclasses import dataclass
from itertools import islice
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
    check_odd_size,
)
from .imaging import GrayImage
from .profiles import ProfileStats
from .scheme import LandmarkScheme
from .search import FitConfig
from .shape_model import Shape, ShapeModel
from .svm import LinearSvmModel

BUNDLE_MAGIC = b"ASMFITB1"
BUNDLE_VERSION = 9


@dataclass(frozen=True, eq=False)
class AnnotatedSample:
    """One training/test pair: image plus scheme-consistent landmarks."""

    name: str
    image: GrayImage
    shape: Shape

    def __post_init__(self):
        pts = self.shape.points
        bad = np.flatnonzero(~self.image.contains(pts))
        if bad.size:
            raise DatasetError(
                f"{self.name}: landmark {bad[0]} at {tuple(pts[bad[0]])} "
                f"lies outside the {self.image.width}x{self.image.height} image"
            )


@dataclass(frozen=True, eq=False)
class LevelModel:
    """One pyramid level's models, each stacked over the landmarks: the 1-D
    profile statistics (classic), the 2-D window statistics (asm) and the
    SVMs. The profile length and window side are the statistics' own sizes.
    The means lie where normalized rows do: a 1-D profile divided by its
    absolute sum in [-1, 1], and a window of gradient magnitudes divided by
    its sum in [0, 1]."""

    classic: ProfileStats
    asm: ProfileStats
    svms: LinearSvmModel

    def __post_init__(self):
        if self.window_side**2 != self.asm.dim:
            raise DimensionMismatchError(f"window dimension {self.asm.dim} is not a square")
        check_odd_size("profile length", self.classic_length)
        check_odd_size("window side", self.window_side)
        classic, asm = self.classic.mean.shape, self.asm.mean.shape
        if len(asm) != 2 or classic[:-1] != asm[:-1] or self.svms.weights.shape != asm:
            raise DimensionMismatchError(
                f"1-D means {classic}, 2-D means {asm} and SVM weights "
                f"{self.svms.weights.shape} do not stack one model per landmark"
            )
        if not (np.abs(self.classic.mean) <= 1).all():
            raise ShapeArityError("1-D profile means must lie in [-1, 1]")
        if not ((self.asm.mean >= 0) & (self.asm.mean <= 1)).all():
            raise ShapeArityError("2-D window means must lie in [0, 1]")

    @property
    def classic_length(self) -> int:
        return self.classic.dim

    @property
    def window_side(self) -> int:
        return math.isqrt(self.asm.dim)


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything fitting needs, persisted as one artifact: levels[l] holds
    pyramid level l's models, finest first."""

    scheme: LandmarkScheme
    shape_model: ShapeModel
    levels: tuple
    fit_defaults: FitConfig
    train_meta: dict

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))  # no list to change after the checks
        n = self.scheme.total
        covered = [self.shape_model.n] + [lv.asm.mean.shape[0] for lv in self.levels]
        if covered != [n] * len(covered):
            raise DimensionMismatchError(f"landmarks: scheme {n}, shape model and levels {covered}")
        if len(self.levels) != self.fit_defaults.levels:
            raise DimensionMismatchError(
                f"bundle holds {len(self.levels)} levels, fit defaults {self.fit_defaults.levels}"
            )


# ---------------------------------------------------------------- points IO

def load_points_file(path) -> Shape:
    """Parse the version/n_points landmark text format."""
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise PointsParseError(f"{path.name}: not UTF-8 text at byte {exc.start}") from None

    def fail(msg, lineno):
        raise PointsParseError(f"{path.name}:{lineno}: {msg}")

    # Each non-blank line, stripped, with its 1-based number; past the last
    # one, None at the number of lines.
    rows = ((text, ln) for ln, text in enumerate(map(str.strip, lines), 1) if text)
    end = (None, len(lines))
    header, ln = next(rows, end)
    if header is None or header.replace(" ", "") != "version:1":
        fail(f"expected 'version: 1', got {header!r}", ln)
    counts, ln = next(rows, end)
    if counts is None or not counts.startswith("n_points:"):
        fail(f"expected 'n_points: <k>', got {counts!r}", ln)
    try:
        declared = int(counts.split(":", 1)[1].strip())
    except ValueError:
        fail(f"non-integer point count in {counts!r}", ln)
    brace, ln = next(rows, end)
    if brace != "{":
        fail(f"expected '{{', got {brace!r}", ln)
    pts = []
    for row, ln in rows:
        if row == "}":
            break
        parts = row.split()
        if len(parts) != 2:
            fail(f"expected 'x y', got {row!r}", ln)
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            fail(f"non-numeric coordinate in {row!r}", ln)
    else:
        fail("missing closing '}'", len(lines))
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

# A PGM header token: a '#' at a token start begins a comment that runs to
# the end of its line; any other token is a run of non-whitespace bytes.
_PGM_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def load_image(path) -> GrayImage:
    """Decode a binary 8-bit PGM (P5)."""
    path = Path(path)
    data = path.read_bytes()
    # Magic, width, height and maxval; the payload starts one byte after them.
    header = list(islice((m for m in _PGM_TOKEN.finditer(data) if m[1]), 4))
    fields = [m[1].decode("ascii", "replace") for m in header]
    if fields and fields[0] != "P5":
        raise PgmDecodeError(f"{path.name}: expected P5 magic, got {fields[0]!r}")
    if len(fields) < 4:
        raise PgmDecodeError(f"{path.name}: truncated header")
    try:
        width, height, maxval = map(int, fields[1:])
    except ValueError:
        raise PgmDecodeError(f"{path.name}: non-numeric header field") from None
    if maxval != 255:
        raise PgmDecodeError(f"{path.name}: only 8-bit images supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise PgmDecodeError(f"{path.name}: bad dimensions {width}x{height}")
    end = header[-1].end()
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

# Magic, u32 version and u64 header length: the array block starts at the
# first multiple of 8 after the header.
_PREFIX = len(BUNDLE_MAGIC) + 12
# An array reference's one key names the dtype of its block bytes.
_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}


def _profile_payload(levels, kind: str) -> dict:
    stats = [getattr(lv, kind) for lv in levels]
    return {
        "means": [st.mean for st in stats],
        "bases": [st.basis for st in stats],
        "lams": [st.lam for st in stats],
        "rhos": [st.rho for st in stats],
    }


def _profile_stats_from_payload(payload: dict, array) -> list:
    fields = [map(array, payload[key]) for key in ("means", "bases", "lams", "rhos")]
    return [ProfileStats(means, basis=bases, lam=lams, rho=rhos)
            for means, bases, lams, rhos in zip(*fields, strict=True)]


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
    """Write the bundle: magic, version, JSON header, array block, CRC32."""
    sm, levels = bundle.shape_model, bundle.levels
    payload = {
        "scheme": {"groups": bundle.scheme.to_jsonable()},
        "shape_model": {
            "mean": sm.mean_shape.as_vector(),
            "modes": sm.modes,
            "eigenvalues": sm.eigenvalues,
            "variance_fraction": sm.variance_fraction,
            "clamp_alpha": sm.clamp_alpha,
        },
        "profiles": {kind: _profile_payload(levels, kind) for kind in ("classic", "asm")},
        "svms": {
            "weights": [lv.svms.weights for lv in levels],
            "biases": [lv.svms.bias for lv in levels],
        },
        "fit_defaults": {
            "config": dataclasses.asdict(bundle.fit_defaults),
            "train_meta": bundle.train_meta,
        },
    }
    arrays = []
    block_size = 0

    def refer(obj):
        """What the header holds for a value JSON has no form for. A float32
        array is stored as f32, any other as f64; zero bytes pad the block
        to a multiple of 8 after each array, so every array starts aligned."""
        nonlocal block_size
        if isinstance(obj, np.ndarray):
            key = "f32" if obj.dtype == np.float32 else "f64"
            arr = np.ascontiguousarray(obj, dtype=_DTYPES[key])
            offset, pad = block_size, -arr.nbytes % 8
            arrays.extend([arr, bytes(pad)] if pad else [arr])
            block_size += arr.nbytes + pad
            return {key: [offset, list(arr.shape)]}
        if isinstance(obj, np.integer):
            return int(obj)
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    header = json.dumps(payload, default=refer, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(_PREFIX + len(header)) % 8)
    head = BUNDLE_MAGIC + struct.pack("<IQ", BUNDLE_VERSION, len(header)) + header
    # The arrays are written from their own buffers with a running CRC: the
    # body is never joined into one more copy of the whole bundle.
    crc = zlib.crc32(head)
    with open(path, "wb") as f:
        f.write(head)
        for arr in arrays:
            f.write(arr)
            crc = zlib.crc32(arr, crc)
        f.write(struct.pack("<I", crc))


def _block_array(obj, block: memoryview) -> np.ndarray:
    """The array a one-key {"f64": [offset, shape]} or {"f32": [offset,
    shape]} object refers to, as a view of its block bytes in that dtype.
    The file's bytes are immutable, so the view is read-only and the models
    keep it without a copy."""
    if not (isinstance(obj, dict) and len(obj) == 1 and next(iter(obj)) in _DTYPES):
        raise BundleCorruptionError(
            f"array reference {obj!r:.80} is not one {{\"f64\" or \"f32\": [offset, shape]}}"
        )
    [(key, ref)] = obj.items()
    dtype = _DTYPES[key]
    if not (isinstance(ref, list) and len(ref) == 2 and isinstance(ref[1], list)
            and all(type(v) is int and v >= 0 for v in [ref[0], *ref[1]])):
        raise BundleCorruptionError(
            f"array reference {ref!r:.80} is not [offset, shape] of non-negative ints"
        )
    offset, shape = ref
    count = math.prod(shape)
    if offset + count * dtype.itemsize > len(block):
        raise BundleCorruptionError(
            f"{key} array at block byte {offset} with shape {shape!r:.80} runs past the end of "
            "the block"
        )
    return np.frombuffer(block, dtype=dtype, count=count, offset=offset).reshape(shape)


def load_bundle(path) -> ModelBundle:
    """Read and validate a bundle; checks magic, checksum, then version."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _PREFIX + 4 or data[:len(BUNDLE_MAGIC)] != BUNDLE_MAGIC:
        raise BundleCorruptionError(f"{path.name}: not a model bundle (bad magic)")
    body = memoryview(data)[:-4]
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(body) != stored_crc:
        raise BundleCorruptionError(f"{path.name}: checksum mismatch, file corrupted")
    version, header_len = struct.unpack_from("<IQ", data, len(BUNDLE_MAGIC))
    if version != BUNDLE_VERSION:
        raise BundleVersionError(
            f"{path.name}: bundle version {version}, this build reads {BUNDLE_VERSION}; "
            "retrain the model"
        )
    # A bundle that passed its checksum can still be malformed (written by
    # another tool, or damaged before the checksum was taken). Every failure
    # to decode it or to rebuild the model from its fields is corruption.
    try:
        if header_len > len(body) - _PREFIX:
            raise BundleCorruptionError(
                f"header of {header_len} bytes runs past the end of the file"
            )
        try:
            header = str(body[_PREFIX:_PREFIX + header_len], "utf-8")
        except UnicodeDecodeError:
            raise BundleCorruptionError("header is not UTF-8") from None
        block = body[_PREFIX + header_len:]
        return _bundle_from_payload(json.loads(header),
                                    lambda obj: _block_array(obj, block))
    except BundleCorruptionError as exc:
        raise BundleCorruptionError(f"{path.name}: {exc}") from None
    except KeyError as exc:
        raise BundleCorruptionError(f"{path.name}: missing bundle field {exc}") from None
    except json.JSONDecodeError as exc:
        raise BundleCorruptionError(f"{path.name}: header is not JSON: {exc}") from None
    except RecursionError:
        raise BundleCorruptionError(f"{path.name}: header nests too deeply") from None
    except (AsmFitError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        raise BundleCorruptionError(f"{path.name}: malformed bundle field: {exc}") from None


def _bundle_from_payload(payload: dict, array) -> ModelBundle:
    """The bundle of a decoded header; array(obj) gives the block array that
    the reference obj names, at each place the format holds an array."""
    scheme = LandmarkScheme.from_jsonable(payload["scheme"]["groups"])
    sm_raw = payload["shape_model"]
    shape_model = ShapeModel(
        mean_shape=Shape.from_vector(array(sm_raw["mean"])),
        modes=array(sm_raw["modes"]),
        eigenvalues=array(sm_raw["eigenvalues"]),
        variance_fraction=sm_raw["variance_fraction"],
        clamp_alpha=sm_raw["clamp_alpha"],
    )
    profiles, svm_raw = payload["profiles"], payload["svms"]
    svms = [LinearSvmModel(array(w), array(b))
            for w, b in zip(svm_raw["weights"], svm_raw["biases"], strict=True)]
    stats = [_profile_stats_from_payload(profiles[kind], array) for kind in ("classic", "asm")]
    levels = tuple(LevelModel(*models) for models in zip(*stats, svms, strict=True))
    return ModelBundle(
        scheme=scheme,
        shape_model=shape_model,
        levels=levels,
        fit_defaults=_fit_config_from_payload(payload["fit_defaults"]["config"]),
        train_meta=payload["fit_defaults"]["train_meta"],
    )
