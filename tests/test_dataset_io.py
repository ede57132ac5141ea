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

from conftest import MALFORMED_SCHEMES, planted, reseal, with_fit_default
from reference_profiles import single_contour_scheme
from asmfit.cli import truth_box
from asmfit.dataset_io import (
    BUNDLE_MAGIC,
    BUNDLE_VERSION,
    AnnotatedSample,
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
    PgmDecodeError,
    PointsParseError,
    SplitError,
)
from asmfit.imaging import GrayImage, build_pyramid
from asmfit.profiles import ProfileStats
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.search import FitConfig, config_for_mode, fit, init_shape_from_box
from asmfit.shape_model import Shape
from asmfit.svm import LinearSvmModel, SvmTrainConfig
from asmfit.synthetic import generate_face_dataset
from asmfit.training import train_bundle


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


def test_bundle_round_trip(saved_bundle):
    bundle, path = saved_bundle
    loaded = load_bundle(path)
    assert loaded.scheme.to_jsonable() == bundle.scheme.to_jsonable()
    assert np.array_equal(loaded.shape_model.mean_shape.points,
                          bundle.shape_model.mean_shape.points)
    assert np.array_equal(loaded.shape_model.modes, bundle.shape_model.modes)
    assert np.array_equal(loaded.shape_model.eigenvalues, bundle.shape_model.eigenvalues)
    for got_pm, want_pm in ((loaded.classic_profiles, bundle.classic_profiles),
                            (loaded.asm_profiles, bundle.asm_profiles)):
        assert got_pm.kind == want_pm.kind
        assert got_pm.sizes == want_pm.sizes
        assert len(got_pm.stats) == len(want_pm.stats)
        for got, want in zip(got_pm.stats, want_pm.stats):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.basis, want.basis)
            assert np.array_equal(got.lam, want.lam)
            assert np.array_equal(got.rho, want.rho)
    assert len(loaded.svms) == len(bundle.svms)
    for got, want in zip(loaded.svms, bundle.svms):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)
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
    arrays = [st.basis for st in loaded.asm_profiles.stats]
    arrays += [st.mean for st in loaded.classic_profiles.stats]
    arrays += [model.weights for model in loaded.svms]
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
        for st in model.asm_profiles.stats:
            assert (st.mean.dtype, st.basis.dtype) == (f32, f32)
            assert {st.lam.dtype, st.rho.dtype, st.weights.dtype} == {f64}
        for st in model.classic_profiles.stats:
            assert {st.mean.dtype, st.basis.dtype, st.lam.dtype, st.rho.dtype} == {f64}
        for svm in model.svms:
            assert {svm.weights.dtype, svm.bias.dtype} == {f64}
        sm = model.shape_model
        assert {sm.mean_shape.points.dtype, sm.modes.dtype, sm.eigenvalues.dtype} == {f64}
    data = path.read_bytes()
    for st in loaded.asm_profiles.stats:
        for arr in (st.mean, st.basis):
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
    """A bundle of the benchmark's fit-256 size, about 5 MB: 30 faces at
    256x256 on the default scheme. One Newton iteration, as only the shapes
    of the arrays matter here."""
    bundle, _ = train_bundle(generate_face_dataset(30, size=256, seed=3), DEFAULT_SCHEME,
                             svm_config=SvmTrainConfig(epochs=1))
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
    assert loaded.asm_profiles.stats[-1].basis.shape == (68, 225, 27)
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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
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


def test_bundle_rejects_mistyped_profile_sizes(saved_bundle, tmp_path):
    """The trained sizes are the bundle's one record of each level's profile
    size; sizes that are not integers are corruption."""
    bundle, _ = saved_bundle
    path = tmp_path / "mistyped.asmb"
    sizes = tuple(float(size) for size in bundle.asm_profiles.sizes)
    save_bundle(planted(bundle, asm_profiles=planted(bundle.asm_profiles, sizes=sizes)), path)
    want = rf"malformed bundle field: profile sizes\[0\] must be an integer, got {sizes[0]}$"
    with pytest.raises(BundleCorruptionError, match=want):
        load_bundle(path)


def test_bundle_rejects_two_d_statistics_in_classic_slot(saved_bundle, tmp_path):
    """The slot fixes a profile model's kind: 2-D statistics stored as the
    classic model do not load."""
    bundle, _ = saved_bundle
    path = tmp_path / "swapped.asmb"
    save_bundle(dataclasses.replace(bundle, classic_profiles=bundle.asm_profiles), path)
    with pytest.raises(BundleCorruptionError, match="stats dim 9 does not match"):
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


# (model, field, damage) applied to level 0's stacked arrays, and the check that must fire.
STACK_DEFECTS = {
    "rhos-one-short": ("stats", "rho", lambda a: a[:-1], "ridge"),
    "bases-other-rank": ("stats", "basis", lambda a: a[..., :-1], "eigenvalues"),
    "negative-lam": ("stats", "lam", lambda a: _changed(a, (3, 0), -1.0), "non-negative"),
    "nan-rho": ("stats", "rho", lambda a: _changed(a, 5, np.nan), "ridge must be"),
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
    if model == "stats":
        pm = bundle.asm_profiles
        level0 = planted(pm.stats[0], **{name: damage(getattr(pm.stats[0], name))})
        bad = planted(bundle, asm_profiles=planted(pm, stats=(level0,) + pm.stats[1:]))
    else:
        level0 = planted(bundle.svms[0], **{name: damage(getattr(bundle.svms[0], name))})
        bad = planted(bundle, svms=(level0,) + bundle.svms[1:])
    path = tmp_path / "mismatched.asmb"
    save_bundle(bad, path)
    with pytest.raises(BundleCorruptionError, match=expect):
        load_bundle(path)


def test_format_doc_matches_bundle_version_and_fit_config():
    """FORMAT.md names the current version and the stored fit config keys in order."""
    text = (Path(__file__).resolve().parents[1] / "FORMAT.md").read_text(encoding="utf-8")
    assert [int(v) for v in re.findall(r"currently (\d+)", text)] == [BUNDLE_VERSION]
    keys = re.search(r"`fit_defaults\.config` is a dict .*? in\s+this\s+order:(.*?`)\.", text, re.S)
    assert re.findall(r"`(\w+)`", keys.group(1)) == [f.name for f in dataclasses.fields(FitConfig)]


def mouth_samples(faces):
    """The first 6 faces cut to their 12 mouth landmarks."""
    return [AnnotatedSample(s.name, s.image, Shape(s.shape.points[-12:]))
            for s in faces[:6]]


def test_classic_fit_defaults_round_trip_and_give_each_mode(faces96, tmp_path):
    """A bundle may store either mode as its default; config_for_mode
    gives each mode from it. Two levels train the first two default window
    sides."""
    bundle, _ = train_bundle(
        mouth_samples(faces96), single_contour_scheme(12),
        fit_config=FitConfig(levels=2, mode="classic"),
        svm_config=SvmTrainConfig(epochs=2), classic_length=5,
    )
    assert bundle.asm_profiles.sizes == (3, 7)
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("site", NON_FINITE_SITES)
def test_bundle_rejects_non_finite_model_values(small_bundle_bytes, tmp_path, site, value):
    """A NaN or inf as the first entry of a statistic or of the shape model,
    under a valid checksum, makes the bundle corrupt."""
    ref = _header(small_bundle_bytes)
    for key in NON_FINITE_SITES[site]:
        ref = ref[key]
    [(kind, (offset, _))] = ref.items()
    planted_value = np.array(value, dtype={"f64": "<f8", "f32": "<f4"}[kind]).tobytes()
    data = bytearray(small_bundle_bytes[:-4])
    start = _HEADER_START + _header_length(data) + offset
    data[start:start + len(planted_value)] = planted_value
    bad = tmp_path / "non_finite.asmb"
    bad.write_bytes(reseal(data))
    with pytest.raises(BundleCorruptionError, match="finite"):
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


@pytest.mark.parametrize("group", [["all", 12.0, "closed"], ["all", True, "closed"],
                                   ["all", "12", "closed"], [12, 12, "closed"]])
def test_bundle_rejects_mistyped_scheme_group(small_bundle_bytes, tmp_path, group):
    def edit(header):
        header["scheme"]["groups"] = [group]

    bad = tmp_path / "scheme.asmb"
    bad.write_bytes(_edited(small_bundle_bytes, edit))
    with pytest.raises(BundleCorruptionError, match="must be"):
        load_bundle(bad)


@pytest.mark.parametrize("name, value", [("clamp_alpha", -1), ("clamp_alpha", 0),
                                         ("variance_fraction", 1.5), ("variance_fraction", 0)])
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
    for got_pm, want_pm in ((loaded.classic_profiles, bundle.classic_profiles),
                            (loaded.asm_profiles, bundle.asm_profiles)):
        for got, want in zip(got_pm.stats, want_pm.stats):
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
