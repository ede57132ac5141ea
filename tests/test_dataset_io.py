import dataclasses
import json
import math
import re
import struct
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_SCHEMES, planted, reseal, stacked_stats, with_fit_default
from reference_profiles import single_contour_scheme
from asmfit.cli import truth_box
from asmfit.dataset_io import (
    BUNDLE_MAGIC,
    BUNDLE_VERSION,
    AnnotatedSample,
    LevelModel,
    ModelBundle,
    discover_pairs,
    load_annotated,
    load_bundle,
    load_image,
    load_points_file,
    save_bundle,
    save_pgm,
    save_ppm,
    split_dataset,
    write_points_file,
)
from asmfit.errors import (
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
from asmfit.imaging import GrayImage, build_pyramid
from asmfit.profiles import ProfileStats
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.search import FitConfig, config_for_mode, fit, init_shape_from_box
from asmfit.shape_model import Shape
from asmfit.svm import LinearSvmModel, SvmTrainConfig
from asmfit.synthetic import generate_face_dataset
from asmfit.training import TrainConfig, train_bundle


# -------------------------------------------------------------- points IO

def test_points_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    shape = Shape(rng.uniform(-100, 100, (7, 2)))
    path = tmp_path / "face.pts"
    write_points_file(shape, path)
    assert np.array_equal(load_points_file(path).points, shape.points)


def test_points_parser_tolerates_blank_lines(tmp_path):
    path = tmp_path / "spaced.pts"
    path.write_text("\nversion: 1\n\n n_points: 3\n{\n0 0\n\n1.5 -2\n3 4\n}\n\n")
    pts = load_points_file(path)
    assert pts.points.tolist() == [[0, 0], [1.5, -2], [3, 4]]


@pytest.mark.parametrize("body", [
    "version: 2\nn_points: 3\n{\n0 0\n1 1\n2 2\n}\n",
    "n_points: 3\n{\n0 0\n1 1\n2 2\n}\n",
    "version: 1\nn_points: three\n{\n0 0\n1 1\n2 2\n}\n",
    "version: 1\nn_points: 3\n0 0\n1 1\n2 2\n}\n",
    "version: 1\nn_points: 3\n{\n0 0\n1 1 1\n2 2\n}\n",
    "version: 1\nn_points: 3\n{\n0 0\nx y\n2 2\n}\n",
    "version: 1\nn_points: 4\n{\n0 0\n1 1\n2 2\n}\n",
    "version: 1\nn_points: 3\n{\n0 0\n1 1\n2 2\n",
])
def test_points_parser_failures(tmp_path, body):
    path = tmp_path / "bad.pts"
    path.write_text(body)
    with pytest.raises(PointsParseError):
        load_points_file(path)


def test_points_errors_carry_location(tmp_path):
    path = tmp_path / "loc.pts"
    path.write_text("version: 1\nn_points: 3\n{\n0 0\nbad line here\n2 2\n}\n")
    with pytest.raises(PointsParseError, match="loc.pts:5"):
        load_points_file(path)


# --------------------------------------------------------------- image IO

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = GrayImage(rng.integers(0, 256, (9, 13)).astype(float))
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    assert np.array_equal(load_image(path).pixels, img.pixels)


def test_pgm_header_comments(tmp_path):
    payload = bytes(range(12))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n4 3\n# another\n255\n" + payload)
    img = load_image(path)
    assert img.pixels.shape == (3, 4)
    assert img.pixels.ravel().tolist() == list(range(12))


@pytest.mark.parametrize("data", [
    b"P2\n2 2\n255\n" + bytes(4),
    b"P5\n2 2\n65535\n" + bytes(8),
    b"P5\n2 two\n255\n" + bytes(4),
    b"P5\n4 4\n255\n" + bytes(7),
    b"P5\n2 2\n",
])
def test_pgm_decode_failures(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmDecodeError):
        load_image(path)


def test_ppm_writer(tmp_path):
    rgb = np.zeros((2, 3, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)
    path = tmp_path / "o.ppm"
    save_ppm(rgb, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n3 2\n255\n")
    assert data[len(b"P6\n3 2\n255\n"):] == rgb.tobytes()
    with pytest.raises(PgmDecodeError):
        save_ppm(rgb.astype(np.int32), path)


# ---------------------------------------------------------------- dataset

def test_annotated_sample_bounds_check():
    img = GrayImage(np.zeros((10, 10)))
    ok = Shape(np.array([[0.0, 0.0], [9.0, 9.0], [4.0, 4.0]]))
    AnnotatedSample("a", img, ok)
    bad = Shape(np.array([[0.0, 0.0], [10.0, 4.0], [4.0, 4.0]]))
    with pytest.raises(DatasetError, match="landmark 1"):
        AnnotatedSample("a", img, bad)


def write_pair(tmp_path, stem, n=4):
    rng = np.random.default_rng(abs(hash(stem)) % 2**32)
    img = GrayImage(rng.integers(0, 256, (16, 16)).astype(float))
    shape = Shape(rng.uniform(0, 15, (n, 2)))
    (tmp_path / "images").mkdir(exist_ok=True)
    (tmp_path / "points").mkdir(exist_ok=True)
    save_pgm(img, tmp_path / "images" / f"{stem}.pgm")
    write_points_file(shape, tmp_path / "points" / f"{stem}.pts")


def test_discover_pairs_sorted(tmp_path):
    for stem in ("zebra", "alpha", "mid"):
        write_pair(tmp_path, stem)
    pairs = discover_pairs(tmp_path / "images", tmp_path / "points")
    assert [p[0] for p in pairs] == ["alpha", "mid", "zebra"]


def test_discover_pairs_mismatches(tmp_path):
    write_pair(tmp_path, "a")
    (tmp_path / "points" / "orphan.pts").write_text("version: 1\nn_points: 3\n{\n0 0\n1 1\n2 2\n}\n")
    with pytest.raises(DatasetError, match="orphan"):
        discover_pairs(tmp_path / "images", tmp_path / "points")
    (tmp_path / "points" / "orphan.pts").unlink()
    save_pgm(GrayImage(np.zeros((4, 4))), tmp_path / "images" / "lonely.pgm")
    with pytest.raises(DatasetError, match="lonely"):
        discover_pairs(tmp_path / "images", tmp_path / "points")


def test_discover_pairs_empty(tmp_path):
    (tmp_path / "images").mkdir()
    (tmp_path / "points").mkdir()
    with pytest.raises(DatasetError, match="no training pairs"):
        discover_pairs(tmp_path / "images", tmp_path / "points")


def test_load_annotated_checks_scheme(tmp_path):
    write_pair(tmp_path, "a", n=4)
    samples = load_annotated(tmp_path / "images", tmp_path / "points",
                             single_contour_scheme(4))
    assert len(samples) == 1 and samples[0].name == "a"
    with pytest.raises(DatasetError, match="scheme expects 5"):
        load_annotated(tmp_path / "images", tmp_path / "points",
                       single_contour_scheme(5))


def test_split_dataset_properties():
    samples = list(range(10))
    train, test = split_dataset(samples, 7, seed=3)
    assert len(train) == 7 and len(test) == 3
    assert sorted(train + test) == samples
    again_train, again_test = split_dataset(samples, 7, seed=3)
    assert train == again_train and test == again_test
    other_train, _ = split_dataset(samples, 7, seed=4)
    assert train != other_train
    with pytest.raises(SplitError):
        split_dataset(samples, 0, seed=0)
    with pytest.raises(SplitError):
        split_dataset(samples, 10, seed=0)


# ----------------------------------------------------------------- bundle

@pytest.fixture(scope="module")
def saved_bundle(trained, tmp_path_factory):
    bundle, _, _ = trained
    path = tmp_path_factory.mktemp("bundle") / "model.asmb"
    save_bundle(bundle, path)
    return bundle, path


def test_level_model_validation(saved_bundle):
    """A level's sizes are its statistics' dimensions: an odd profile length
    and an odd window side, both >= 3, and a square window. Its means lie in
    the ranges of the normalized rows they average. Its statistics
    and SVMs stack one model per landmark, and a bundle's levels cover the
    scheme's landmarks, one level per configured level. A size that is not
    an integer cannot arise in memory, and a bundle header stores no size."""
    def stats(dim, k=1):
        return stacked_stats([ProfileStats(np.zeros(dim), np.eye(dim), eps=1e-3)] * k)

    def svms(dim, k=1):
        return LinearSvmModel(np.zeros((k, dim)), np.zeros(k))

    level = LevelModel(stats(5), stats(9), svms(9))
    assert (level.classic_length, level.window_side) == (5, 3)
    for classic, asm, name, size in ((4, 9, "profile length", 4), (1, 9, "profile length", 1),
                                     (3, 16, "window side", 4), (3, 1, "window side", 1)):
        with pytest.raises(ShapeArityError, match=rf"^{name} must be odd and >= 3, got {size}$"):
            LevelModel(stats(classic), stats(asm), svms(asm))
    # The means lie where the normalized rows do: 1-D in [-1, 1], 2-D in [0, 1].
    def filled(dim, value):
        base = stats(dim)
        return ProfileStats(np.full(base.mean.shape, value), basis=base.basis, lam=base.lam,
                            rho=base.rho)

    for value in (-1.0, 1.0):
        LevelModel(filled(5, value), stats(9), svms(9))
    for value in (0.0, 1.0):
        LevelModel(stats(5), filled(9, value), svms(9))
    for value in (-1.5, 1.0000000000000002, 1e300):
        with pytest.raises(ShapeArityError, match=r"^1-D profile means must lie in \[-1, 1\]$"):
            LevelModel(filled(5, value), stats(9), svms(9))
    for value in (-0.5, -5e-324, 1.5):
        with pytest.raises(ShapeArityError, match=r"^2-D window means must lie in \[0, 1\]$"):
            LevelModel(stats(5), filled(9, value), svms(9))
    for asm in (3, 8, 15):  # not a square window: 1-D statistics in the 2-D slot
        with pytest.raises(DimensionMismatchError,
                           match=rf"^window dimension {asm} is not a square$"):
            LevelModel(stats(3), stats(asm), svms(asm))
    unstacked = ProfileStats(np.zeros(9), np.eye(9), eps=1e-3)
    for classic, asm, model in (
        (ProfileStats(np.zeros(3), np.eye(3), eps=1e-3), stats(9), svms(9)),  # not stacked
        (stats(3), unstacked, LinearSvmModel(np.zeros(9), 0.0)),
        (stats(3, k=2), stats(9), svms(9)),  # 2 and 1 landmarks
        (stats(3), stats(9, k=2), svms(9, k=2)),
        (stats(3), stats(9), svms(9, k=2)),
        (stats(3), stats(9), svms(8)),
    ):
        with pytest.raises(DimensionMismatchError, match="do not stack one model per landmark$"):
            LevelModel(classic, asm, model)

    bundle, _ = saved_bundle
    fields = {name: getattr(bundle, name)
              for name in ("scheme", "shape_model", "levels", "fit_defaults", "train_meta")}
    assert list(fields) == [f.name for f in dataclasses.fields(ModelBundle)]
    assert ModelBundle(**fields).levels == bundle.levels
    assert ModelBundle(**{**fields, "levels": list(bundle.levels)}).levels == bundle.levels
    two_landmarks = LevelModel(stats(15, k=2), stats(225, k=2), svms(225, k=2))
    with pytest.raises(DimensionMismatchError,
                       match=r"^landmarks: scheme 68, shape model and levels \[68, 68, 68, 2\]$"):
        ModelBundle(**{**fields, "levels": bundle.levels[:2] + (two_landmarks,)})
    with pytest.raises(DimensionMismatchError, match="^bundle holds 2 levels, fit defaults 3$"):
        ModelBundle(**{**fields, "levels": bundle.levels[:2]})


def test_bundle_round_trip(saved_bundle):
    bundle, path = saved_bundle
    loaded = load_bundle(path)
    assert loaded.scheme.to_jsonable() == bundle.scheme.to_jsonable()
    assert np.array_equal(loaded.shape_model.mean_shape.points,
                          bundle.shape_model.mean_shape.points)
    assert np.array_equal(loaded.shape_model.modes, bundle.shape_model.modes)
    assert np.array_equal(loaded.shape_model.eigenvalues, bundle.shape_model.eigenvalues)
    assert len(loaded.levels) == len(bundle.levels)
    for got_lv, want_lv in zip(loaded.levels, bundle.levels):
        assert got_lv.classic_length == want_lv.classic_length
        assert got_lv.window_side == want_lv.window_side
        for kind in ("classic", "asm"):
            got, want = getattr(got_lv, kind), getattr(want_lv, kind)
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.basis, want.basis)
            assert np.array_equal(got.lam, want.lam)
            assert np.array_equal(got.rho, want.rho)
        assert np.array_equal(got_lv.svms.weights, want_lv.svms.weights)
        assert np.array_equal(got_lv.svms.bias, want_lv.svms.bias)
    assert loaded.fit_defaults == bundle.fit_defaults
    assert loaded.train_meta == bundle.train_meta


def test_bundle_resave_byte_identical(saved_bundle, tmp_path):
    _, path = saved_bundle
    loaded = load_bundle(path)
    again = tmp_path / "again.asmb"
    save_bundle(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_loaded_arrays_are_read_only_views_of_the_file(saved_bundle):
    """The models keep the loader's arrays as they are: each one is a
    read-only view of the file's bytes, not a copy."""
    loaded = load_bundle(saved_bundle[1])
    arrays = [lv.asm.basis for lv in loaded.levels]
    arrays += [lv.classic.mean for lv in loaded.levels]
    arrays += [lv.svms.weights for lv in loaded.levels]
    for arr in arrays:
        assert arr.flags.writeable is False
        assert not arr.flags.owndata


def _buffer_of(arr):
    """The object whose memory an array views: its last ndarray base's buffer."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_asm_means_and_bases_are_float32_everything_else_float64(saved_bundle):
    """Training stores the asm means and bases as float32, and the loader
    views them in place as float32: read-only views of the file's bytes,
    not copies. The asm lam, rho and weights, the classic statistics, the
    SVMs and the shape model stay float64, in the trained bundle and in its
    loaded copy alike."""
    bundle, path = saved_bundle
    loaded = load_bundle(path)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    for model in (bundle, loaded):
        for lv in model.levels:
            st = lv.asm
            assert (st.mean.dtype, st.basis.dtype) == (f32, f32)
            assert {st.lam.dtype, st.rho.dtype, st.weights.dtype} == {f64}
            st = lv.classic
            assert {st.mean.dtype, st.basis.dtype, st.lam.dtype, st.rho.dtype} == {f64}
            assert {lv.svms.weights.dtype, lv.svms.bias.dtype} == {f64}
        sm = model.shape_model
        assert {sm.mean_shape.points.dtype, sm.modes.dtype, sm.eigenvalues.dtype} == {f64}
    data = path.read_bytes()
    for lv in loaded.levels:
        for arr in (lv.asm.mean, lv.asm.basis):
            assert arr.flags.writeable is False and not arr.flags.owndata
            assert _buffer_of(arr) == data


def test_trained_bundle_fits_as_its_saved_and_loaded_copy(saved_bundle, faces96):
    """A freshly trained bundle fits, byte for byte, as its saved-and-loaded
    copy does, in both modes: the same points and landmark costs. eigh
    returns the shape modes in Fortran order and a loaded bundle holds them
    in C order; both are kept in C order, since BLAS rounds fit_params by
    the layout."""
    bundle, path = saved_bundle
    loaded = load_bundle(path)
    assert bundle.shape_model.modes.flags.c_contiguous
    for face in faces96[6:]:
        box = truth_box(face.shape, 0.10)
        for mode in ("asm_svm", "classic"):
            config = config_for_mode(bundle, mode)
            pyramid = build_pyramid(face.image, config.levels)
            trained, reloaded = (fit(pyramid, model, init_shape_from_box(model.shape_model, box),
                                     config) for model in (bundle, loaded))
            assert trained.shape.points.tobytes() == reloaded.shape.points.tobytes()
            assert trained.landmark_costs.tobytes() == reloaded.landmark_costs.tobytes()


@pytest.fixture(scope="module")
def fit_256_bundle(tmp_path_factory):
    """A bundle of the benchmark's fit-256 data with window sides (3, 7, 15),
    about 2.7 MB: 30 faces at 256x256 on the default scheme. One Newton
    iteration, as only the shapes of the arrays matter here."""
    bundle, _ = train_bundle(generate_face_dataset(30, size=256, seed=3), DEFAULT_SCHEME,
                             svm_config=SvmTrainConfig(epochs=1), profile_lengths=(3, 7, 15))
    path = tmp_path_factory.mktemp("fit256") / "model.asmb"
    save_bundle(bundle, path)
    return path


def test_bundle_load_peaks_under_one_and_a_half_file_sizes(fit_256_bundle):
    """A load holds the file's bytes once; arrays copied out of them would
    take the peak to about twice the file size."""
    size = fit_256_bundle.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_bundle(fit_256_bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 2_600_000
    assert loaded.levels[-1].asm.basis.shape == (68, 225, 27)
    assert peak < 1.5 * size


def test_bundle_rejects_bad_magic(saved_bundle, tmp_path):
    _, path = saved_bundle
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMODEL"
    bad = tmp_path / "magic.asmb"
    bad.write_bytes(bytes(data))
    with pytest.raises(BundleCorruptionError, match="magic"):
        load_bundle(bad)


def test_bundle_rejects_flipped_byte(saved_bundle, tmp_path):
    _, path = saved_bundle
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad = tmp_path / "flip.asmb"
    bad.write_bytes(bytes(data))
    with pytest.raises(BundleCorruptionError, match="checksum"):
        load_bundle(bad)


def test_bundle_rejects_truncation(saved_bundle, tmp_path):
    _, path = saved_bundle
    data = path.read_bytes()
    bad = tmp_path / "trunc.asmb"
    bad.write_bytes(data[:-64])
    with pytest.raises(BundleCorruptionError):
        load_bundle(bad)
    tiny = tmp_path / "tiny.asmb"
    tiny.write_bytes(data[:6])
    with pytest.raises(BundleCorruptionError):
        load_bundle(tiny)


def test_bundle_rejects_future_version(saved_bundle, tmp_path):
    _, path = saved_bundle
    data = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", data, len(BUNDLE_MAGIC), 99)
    data += struct.pack("<I", zlib.crc32(bytes(data)))
    bad = tmp_path / "future.asmb"
    bad.write_bytes(bytes(data))
    with pytest.raises(BundleVersionError, match="99"):
        load_bundle(bad)


@pytest.mark.parametrize("version", range(1, BUNDLE_VERSION))
def test_bundle_rejects_previous_version(saved_bundle, tmp_path, version):
    _, path = saved_bundle
    data = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", data, len(BUNDLE_MAGIC), version)
    old = tmp_path / f"v{version}.asmb"
    old.write_bytes(reseal(data))
    with pytest.raises(BundleVersionError, match=f"version {version}.*retrain"):
        load_bundle(old)


@pytest.mark.parametrize("drop, extra", [("canny_high", None), (None, "svm_gate"),
                                         (None, "profile_norm"), (None, "profile_lengths"),
                                         ("c", "legacy")])
def test_bundle_rejects_fit_config_key_set(saved_bundle, tmp_path, drop, extra):
    """A stored fit config must hold exactly FitConfig's fields: a missing
    key, an extra one (svm_gate is a version-3 field, profile_norm a
    version-4 one, profile_lengths a version-6 one) or both is corruption."""
    bundle, _ = saved_bundle
    cfg = bundle.fit_defaults
    fields = [(f.name, f.type, dataclasses.field(default=getattr(cfg, f.name)))
              for f in dataclasses.fields(FitConfig) if f.name != drop]
    if extra:
        fields.append((extra, bool, dataclasses.field(default=True)))
    odd = dataclasses.make_dataclass("OddFitConfig", fields, frozen=True)()
    path = tmp_path / "odd.asmb"
    save_bundle(dataclasses.replace(bundle, fit_defaults=odd), path)
    with pytest.raises(BundleCorruptionError, match="fit config keys"):
        load_bundle(path)


@pytest.mark.parametrize("name, value", [("search_radius", 3.0), ("max_iters_per_level", 20.0),
                                         ("canny_low", "x"), ("canny_low", 200.0)])
def test_bundle_rejects_mistyped_fit_defaults(saved_bundle, tmp_path, name, value):
    bundle, _ = saved_bundle
    path = tmp_path / "mistyped.asmb"
    save_bundle(with_fit_default(bundle, name, value), path)
    with pytest.raises(BundleCorruptionError, match=f"{name} must be"):
        load_bundle(path)


def _swap_profiles(header):
    profiles = header["profiles"]
    profiles["classic"], profiles["asm"] = profiles["asm"], profiles["classic"]


def test_bundle_rejects_two_d_statistics_in_classic_slot(saved_bundle, tmp_path):
    """The slot fixes a statistic's kind: when the two kinds trade places,
    the classic statistics in the asm slot give no square window."""
    _, source = saved_bundle
    path = tmp_path / "swapped.asmb"
    path.write_bytes(_edited(source.read_bytes(), _swap_profiles))
    with pytest.raises(BundleCorruptionError,
                       match="malformed bundle field: window dimension 15 is not a square$"):
        load_bundle(path)


def test_bundle_load_builds_one_stacked_model_per_level(saved_bundle, monkeypatch):
    """A level's statistics and SVMs load as one stacked object each, not
    one per landmark: 2 x 3 ProfileStats and 3 LinearSvmModels."""
    _, path = saved_bundle
    built = Counter()
    for cls, method in ((ProfileStats, "__init__"), (LinearSvmModel, "__post_init__")):
        def counting(self, *args, _original=getattr(cls, method), _name=cls.__name__, **kwargs):
            built[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counting)
    load_bundle(path)
    assert built == {"ProfileStats": 6, "LinearSvmModel": 3}


def _changed(values, index, value):
    out = np.array(values)
    out[index] = value
    return out


# (level-0 model, field, damage) applied to its stacked arrays, and the check that must fire.
STACK_DEFECTS = {
    "rhos-one-short": ("asm", "rho", lambda a: a[:-1], "ridge"),
    "bases-other-rank": ("asm", "basis", lambda a: a[..., :-1], "eigenvalues"),
    "negative-lam": ("asm", "lam", lambda a: _changed(a, (3, 0), -1.0), "non-negative"),
    "nan-rho": ("asm", "rho", lambda a: _changed(a, 5, np.nan), "ridge must be"),
    "biases-one-short": ("svms", "bias", lambda a: a[:-1], "do not pair"),
    "weights-wrong-dim": ("svms", "weights", lambda a: a[:, :-1], "SVM weights"),
    "infinite-bias": ("svms", "bias", lambda a: _changed(a, 7, np.inf), "finite"),
}


@pytest.mark.parametrize("defect", STACK_DEFECTS)
def test_bundle_rejects_mismatched_stacked_arrays(saved_bundle, tmp_path, defect):
    """Stacked arrays that disagree in shape, or hold values no trainer
    writes, make the bundle corrupt."""
    bundle, _ = saved_bundle
    model, name, damage, expect = STACK_DEFECTS[defect]
    part = getattr(bundle.levels[0], model)
    damaged = planted(part, **{name: damage(getattr(part, name))})
    level0 = planted(bundle.levels[0], **{model: damaged})
    bad = planted(bundle, levels=(level0,) + bundle.levels[1:])
    path = tmp_path / "mismatched.asmb"
    save_bundle(bad, path)
    with pytest.raises(BundleCorruptionError, match=expect):
        load_bundle(path)


# The keys train_bundle writes to train_meta, in order.
TRAIN_META_KEYS = ["seed", "samples", "c_penalty", "epochs", "negatives_per_positive",
                   "offset_min", "offset_max", "eps"]


def test_format_doc_matches_bundle_version_and_fit_config():
    """FORMAT.md names the current version, and the stored fit config and
    train_meta keys in order."""
    text = (Path(__file__).resolve().parents[1] / "FORMAT.md").read_text(encoding="utf-8")
    assert [int(v) for v in re.findall(r"currently (\d+)", text)] == [BUNDLE_VERSION]
    keys = re.search(r"`fit_defaults\.config` is a dict .*? in\s+this\s+order:(.*?`)\.", text, re.S)
    assert re.findall(r"`(\w+)`", keys.group(1)) == [f.name for f in dataclasses.fields(FitConfig)]
    keys = re.search(r"`train_meta` records,\s+in\s+this\s+order,(.*?`)\.", text, re.S)
    assert re.findall(r"`(\w+)`", keys.group(1)) == TRAIN_META_KEYS


def mouth_samples(faces):
    """The first 6 faces cut to their 12 mouth landmarks."""
    return [AnnotatedSample(s.name, s.image, Shape(s.shape.points[-12:]))
            for s in faces[:6]]


def test_classic_fit_defaults_round_trip_and_give_each_mode(faces96, tmp_path):
    """A bundle may store either mode as its default; config_for_mode
    gives each mode from it. Two levels train the default window sides of
    two levels."""
    bundle, _ = train_bundle(
        mouth_samples(faces96), single_contour_scheme(12),
        fit_config=FitConfig(levels=2, mode="classic"),
        svm_config=SvmTrainConfig(epochs=2), classic_length=5,
    )
    sides = TrainConfig(fit_config=FitConfig(levels=2)).profile_lengths
    assert [(lv.classic_length, lv.window_side) for lv in bundle.levels] == [
        (5, side) for side in sides]
    path = tmp_path / "classic.asmb"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.fit_defaults == bundle.fit_defaults == FitConfig(levels=2, mode="classic")
    assert config_for_mode(loaded, "classic") == loaded.fit_defaults
    assert config_for_mode(loaded, "asm_svm") == FitConfig(levels=2)
    again = tmp_path / "again.asmb"
    save_bundle(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def small_bundle_bytes(faces96, tmp_path_factory):
    # The 12 mouth landmarks on two levels keep a load near two
    # milliseconds, so the fuzz below stays fast.
    bundle, _ = train_bundle(
        mouth_samples(faces96), single_contour_scheme(12),
        fit_config=FitConfig(levels=2), profile_lengths=(3, 5),
        svm_config=SvmTrainConfig(epochs=2), classic_length=5,
    )
    path = tmp_path_factory.mktemp("small") / "small.asmb"
    save_bundle(bundle, path)
    return path.read_bytes()


def test_bundle_mutation_fuzz_raises_only_bundle_errors(small_bundle_bytes, tmp_path):
    body = small_bundle_bytes[:-4]
    rng = np.random.default_rng(2024)
    mutant = tmp_path / "mutant.asmb"
    outcomes = Counter()
    for i in range(400):
        data = bytearray(body)
        # Two of three mutations hit the first 4 KB, the rest anywhere.
        pos = int(rng.integers(len(data) if i % 3 == 0 else 4096))
        data[pos] = (data[pos] + int(rng.integers(1, 256))) % 256
        mutant.write_bytes(reseal(data))
        try:
            load_bundle(mutant)
            outcomes["loaded"] += 1
        except AsmFitError as exc:
            outcomes[type(exc).__name__] += 1
    assert set(outcomes) <= {"loaded", "BundleCorruptionError", "BundleVersionError"}
    assert outcomes["BundleCorruptionError"] >= 20


_HEADER_START = len(BUNDLE_MAGIC) + 12


def _header_length(data) -> int:
    return struct.unpack_from("<Q", data, len(BUNDLE_MAGIC) + 4)[0]


def _header(data) -> dict:
    """The JSON header of bundle bytes, array references left as objects."""
    return json.loads(bytes(data[_HEADER_START:_HEADER_START + _header_length(data)]))


def _with_header(data, header: bytes) -> bytes:
    """Bundle bytes with the header replaced and the array block kept, resealed."""
    block = data[_HEADER_START + _header_length(data):-4]
    return reseal(data[:len(BUNDLE_MAGIC) + 4] + struct.pack("<Q", len(header)) + header + block)


def _edited(data, edit) -> bytes:
    header = _header(data)
    edit(header)
    return _with_header(data, json.dumps(header).encode("utf-8"))


def _set_mean_ref(ref):
    def edit(header):
        header["shape_model"]["mean"]["f64"] = ref
    return edit


# Header paths of array references where a non-finite value is planted.
NON_FINITE_SITES = {
    "asm-basis": ("profiles", "asm", "bases", 0),
    "classic-mean": ("profiles", "classic", "means", 0),
    "shape-modes": ("shape_model", "modes"),
    "eigenvalues": ("shape_model", "eigenvalues"),
}


def _planted_first(data, path, value) -> bytes:
    """Bundle bytes with value, in the array's dtype, as the first entry of
    the array the header refers to at path, resealed."""
    ref = _header(data)
    for key in path:
        ref = ref[key]
    [(kind, (offset, _))] = ref.items()
    planted_value = np.array(value, dtype={"f64": "<f8", "f32": "<f4"}[kind]).tobytes()
    body = bytearray(data[:-4])
    start = _HEADER_START + _header_length(body) + offset
    body[start:start + len(planted_value)] = planted_value
    return reseal(body)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("site", NON_FINITE_SITES)
def test_bundle_rejects_non_finite_model_values(small_bundle_bytes, tmp_path, site, value):
    """A NaN or inf as the first entry of a statistic or of the shape model,
    under a valid checksum, makes the bundle corrupt."""
    bad = tmp_path / "non_finite.asmb"
    bad.write_bytes(_planted_first(small_bundle_bytes, NON_FINITE_SITES[site], value))
    with pytest.raises(BundleCorruptionError, match="finite"):
        load_bundle(bad)


@pytest.mark.parametrize("kind, value, dtype, message", [
    ("classic", 1e300, "f64", r"1-D profile means must lie in \[-1, 1\]"),
    ("asm", -0.5, "f32", r"2-D window means must lie in \[0, 1\]"),
])
def test_bundle_rejects_profile_means_no_normalized_row_has(small_bundle_bytes, tmp_path, kind,
                                                            value, dtype, message):
    """A finite profile mean outside the range of the normalized rows it
    averages, under a valid checksum, makes the bundle corrupt: 1e300 in a
    classic mean used to load, and a classic fit then returned non-finite costs."""
    assert list(_header(small_bundle_bytes)["profiles"][kind]["means"][0]) == [dtype]
    bad = tmp_path / "mean.asmb"
    bad.write_bytes(_planted_first(small_bundle_bytes, ("profiles", kind, "means", 0), value))
    with pytest.raises(BundleCorruptionError, match=message):
        load_bundle(bad)


@pytest.mark.parametrize("case", MALFORMED_SCHEMES)
def test_bundle_rejects_a_malformed_scheme(small_bundle_bytes, tmp_path, case):
    """A header scheme of another form, under a valid checksum, is
    corruption, in one line that names the scheme."""
    def edit(header):
        header["scheme"]["groups"] = MALFORMED_SCHEMES[case]

    bad = tmp_path / "scheme.asmb"
    bad.write_bytes(_edited(small_bundle_bytes, edit))
    with pytest.raises(BundleCorruptionError,
                       match=r"^scheme\.asmb: malformed bundle field: scheme ") as caught:
        load_bundle(bad)
    assert "\n" not in str(caught.value)


def test_bundle_header_length_past_the_end(small_bundle_bytes, tmp_path):
    bad = tmp_path / "long.asmb"
    body = len(small_bundle_bytes) - 4
    for length in (body - _HEADER_START + 1, 2**64 - 1):
        data = bytearray(small_bundle_bytes[:-4])
        struct.pack_into("<Q", data, len(BUNDLE_MAGIC) + 4, length)
        bad.write_bytes(reseal(data))
        with pytest.raises(BundleCorruptionError, match="past the end of the file"):
            load_bundle(bad)


def test_bundle_array_past_the_end_of_the_block(small_bundle_bytes, tmp_path):
    block = len(small_bundle_bytes) - 4 - _HEADER_START - _header_length(small_bundle_bytes)
    offset, shape = _header(small_bundle_bytes)["shape_model"]["mean"]["f64"]
    bad = tmp_path / "past.asmb"
    # the mean moved to end one f64 past the block, to its end, or grown past it
    for ref in ([block - 8 * shape[0] + 8, shape], [block, [1]], [offset, [shape[0], 2**40]]):
        bad.write_bytes(_edited(small_bundle_bytes, _set_mean_ref(ref)))
        with pytest.raises(BundleCorruptionError, match="past the end of the block"):
            load_bundle(bad)


@pytest.mark.parametrize("ref", [
    [0, [True, 12]], [0, [24.0]], [0, [-24]], [-8, [24]], [True, [24]], [0.0, [24]],
    [0], [0, [24], 1], [0, 24], "0,24", None,
])
def test_bundle_rejects_malformed_array_reference(small_bundle_bytes, tmp_path, ref):
    bad = tmp_path / "ref.asmb"
    bad.write_bytes(_edited(small_bundle_bytes, _set_mean_ref(ref)))
    with pytest.raises(BundleCorruptionError, match="array reference"):
        load_bundle(bad)


@pytest.mark.parametrize("header, expect", [
    (b"[" * 100_000, "nests too deeply"),
    (b"{\"scheme\":", "not JSON"),
    (b"\xff" * 8, "header is not UTF-8"),
])
def test_bundle_rejects_unreadable_header(small_bundle_bytes, tmp_path, header, expect):
    bad = tmp_path / "header.asmb"
    bad.write_bytes(_with_header(small_bundle_bytes, header))
    with pytest.raises(BundleCorruptionError, match=expect):
        load_bundle(bad)


def test_bundle_header_is_padded_to_align_the_block(small_bundle_bytes):
    assert (_HEADER_START + _header_length(small_bundle_bytes)) % 8 == 0
    header = _header(small_bundle_bytes)
    assert list(header) == ["scheme", "shape_model", "profiles", "svms", "fit_defaults"]


def test_bundle_header_states_each_fact_once(small_bundle_bytes):
    """A profile model holds only its arrays, whose dimensions are the sizes,
    and train_meta only the settings no other field of the bundle holds."""
    header = _header(small_bundle_bytes)
    for kind in ("classic", "asm"):
        assert list(header["profiles"][kind]) == ["means", "bases", "lams", "rhos"]
    assert list(header["fit_defaults"]["train_meta"]) == TRAIN_META_KEYS


@pytest.mark.parametrize("group", [["all", 12.0, "closed"], ["all", True, "closed"],
                                   ["all", "12", "closed"], [12, 12, "closed"]])
def test_bundle_rejects_mistyped_scheme_group(small_bundle_bytes, tmp_path, group):
    def edit(header):
        header["scheme"]["groups"] = [group]

    bad = tmp_path / "scheme.asmb"
    bad.write_bytes(_edited(small_bundle_bytes, edit))
    with pytest.raises(BundleCorruptionError, match="must be"):
        load_bundle(bad)


# A bool or a str is no real number, though true stands for 1 in range.
@pytest.mark.parametrize("name, value", [("clamp_alpha", -1), ("clamp_alpha", 0),
                                         ("variance_fraction", 1.5), ("variance_fraction", 0),
                                         ("variance_fraction", True), ("clamp_alpha", True),
                                         ("variance_fraction", "0.9")])
def test_bundle_rejects_out_of_range_shape_limits(small_bundle_bytes, tmp_path, name, value):
    def edit(header):
        header["shape_model"][name] = value

    bad = tmp_path / "limits.asmb"
    bad.write_bytes(_edited(small_bundle_bytes, edit))
    with pytest.raises(BundleCorruptionError, match=f"{name} must be"):
        load_bundle(bad)


def test_bundle_round_trips_numpy_integer_settings(faces96, tmp_path):
    """numpy integer settings save, and load back as Python ints."""
    bundle, _ = train_bundle(
        mouth_samples(faces96), single_contour_scheme(np.int64(12)),
        fit_config=FitConfig(levels=2, search_radius=np.int64(3)), profile_lengths=(3, 5),
        svm_config=SvmTrainConfig(epochs=2), classic_length=5, seed=np.int64(3),
    )
    path = tmp_path / "int64.asmb"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert type(loaded.fit_defaults.search_radius) is int
    assert loaded.fit_defaults == bundle.fit_defaults
    assert type(loaded.train_meta["seed"]) is int and loaded.train_meta["seed"] == 3
    assert type(loaded.scheme.groups[0].count) is int
    again = tmp_path / "again.asmb"
    save_bundle(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _array_refs(obj) -> list:
    """(dtype key, offset, shape) of every array reference in a header, in
    the order the header lists them, which is block order."""
    if isinstance(obj, dict):
        if len(obj) == 1 and next(iter(obj)) in ("f64", "f32"):
            [(key, (offset, shape))] = obj.items()
            return [(key, offset, shape)]
        obj = list(obj.values())
    if isinstance(obj, list):
        return [ref for item in obj for ref in _array_refs(item)]
    return []


def test_odd_float32_arrays_are_padded_so_every_array_stays_aligned(faces96, tmp_path):
    """13 landmarks give level-0 asm means of 13 x 9 float32 values, 468
    bytes. The writer follows each such array with 4 zero bytes, so every
    array still starts at a multiple of 8 in the file; the bundle loads back
    bit for bit, dtype for dtype, and re-saves byte-identically."""
    samples = [AnnotatedSample(s.name, s.image, Shape(s.shape.points[-13:])) for s in faces96[:6]]
    bundle, _ = train_bundle(samples, single_contour_scheme(13), fit_config=FitConfig(levels=2),
                             profile_lengths=(3, 5), svm_config=SvmTrainConfig(epochs=2),
                             classic_length=5)
    path = tmp_path / "odd.asmb"
    save_bundle(bundle, path)
    data = path.read_bytes()
    start = _HEADER_START + _header_length(data)
    refs = _array_refs(_header(data))
    ends = [offset + math.prod(shape) * (4 if key == "f32" else 8) for key, offset, shape in refs]
    odd = [i for i, (key, _, shape) in enumerate(refs) if key == "f32" and math.prod(shape) % 2]
    assert odd and odd[0] < len(refs) - 1  # an odd f32 array with arrays after it
    assert [offset for _, offset, _ in refs] == sorted(offset for _, offset, _ in refs)
    assert start % 8 == 0 and all((start + offset) % 8 == 0 for _, offset, _ in refs)
    for end, (_, offset, _) in zip(ends, refs[1:]):
        assert offset - end == (4 if end % 8 else 0)
        assert data[start + end:start + offset] == bytes(offset - end)
    loaded = load_bundle(path)
    for got_lv, want_lv in zip(loaded.levels, bundle.levels, strict=True):
        for got, want in ((got_lv.classic, want_lv.classic), (got_lv.asm, want_lv.asm)):
            for name in ("mean", "basis", "lam", "rho"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    again = tmp_path / "again.asmb"
    save_bundle(loaded, again)
    assert again.read_bytes() == data


def _set_asm_mean_ref(obj):
    def edit(header):
        header["profiles"]["asm"]["means"][0] = obj
    return edit


def test_float32_array_past_the_end_of_the_block(small_bundle_bytes, tmp_path):
    block = len(small_bundle_bytes) - 4 - _HEADER_START - _header_length(small_bundle_bytes)
    offset, shape = _header(small_bundle_bytes)["profiles"]["asm"]["means"][0]["f32"]
    count = math.prod(shape)
    bad = tmp_path / "past.asmb"
    # the level-0 asm mean moved to end one f32 past the block, to its end, or grown past it
    for ref in ([block - 4 * count + 4, shape], [block, [1]], [offset, [shape[0], 2**40]]):
        bad.write_bytes(_edited(small_bundle_bytes, _set_asm_mean_ref({"f32": ref})))
        with pytest.raises(BundleCorruptionError, match="f32 array .* past the end of the block"):
            load_bundle(bad)


@pytest.mark.parametrize("obj", [{"f16": [0, [12, 9]]}, {"F32": [0, [12, 9]]},
                                 {"f32": [0, [12, 9]], "f64": [0, [12, 9]]}, {}, [0.5] * 108,
                                 None],
                         ids=["f16", "F32", "two-keys", "empty", "inline-list", "null"])
def test_bundle_rejects_unknown_array_reference_keys(small_bundle_bytes, tmp_path, obj):
    """Where the format holds an array, only a one-key f64 or f32 reference
    loads; any other object, or an inline JSON list, is corruption."""
    bad = tmp_path / "key.asmb"
    bad.write_bytes(_edited(small_bundle_bytes, _set_asm_mean_ref(obj)))
    with pytest.raises(BundleCorruptionError, match="array reference"):
        load_bundle(bad)
