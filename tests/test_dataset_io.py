import dataclasses
import re
import struct
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import planted, reseal, with_fit_default
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
    ShapeArityError,
    SplitError,
)
from asmfit.imaging import GrayImage
from asmfit.profiles import ProfileStats
from asmfit.scheme import single_contour_scheme
from asmfit.search import FitConfig
from asmfit.shape_model import Shape
from asmfit.svm import LinearSvmModel, SvmTrainConfig
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


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_bundle_rejects_previous_version(saved_bundle, tmp_path, version):
    _, path = saved_bundle
    data = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", data, len(BUNDLE_MAGIC), version)
    old = tmp_path / f"v{version}.asmb"
    old.write_bytes(reseal(data))
    with pytest.raises(BundleVersionError, match=f"version {version}.*retrain"):
        load_bundle(old)


@pytest.mark.parametrize("drop, extra", [("canny_high", None), (None, "svm_gate"),
                                         (None, "profile_norm"), ("c", "legacy")])
def test_bundle_rejects_fit_config_key_set(saved_bundle, tmp_path, drop, extra):
    """A stored fit config must hold exactly FitConfig's fields: a missing
    key, an extra one (svm_gate is a version-3 field, profile_norm a
    version-4 one) or both is corruption."""
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
                                         ("canny_low", "x"), ("profile_lengths", (3.0, 7.0, 15.0)),
                                         ("canny_low", 200.0)])
def test_bundle_rejects_mistyped_fit_defaults(saved_bundle, tmp_path, name, value):
    bundle, _ = saved_bundle
    path = tmp_path / "mistyped.asmb"
    save_bundle(with_fit_default(bundle, name, value), path)
    with pytest.raises(BundleCorruptionError, match=f"{name} must be"):
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


def test_bundle_fit_defaults_must_name_asm_svm(trained):
    bundle, _, _ = trained
    classic = dataclasses.replace(bundle.fit_defaults, mode="classic")
    with pytest.raises(ShapeArityError, match="asm_svm"):
        dataclasses.replace(bundle, fit_defaults=classic)


@pytest.fixture(scope="module")
def small_bundle_bytes(faces96, tmp_path_factory):
    # The 12 mouth landmarks on two levels keep a load near two
    # milliseconds, so the fuzz below stays fast.
    samples = [AnnotatedSample(s.name, s.image, Shape(s.shape.points[-12:]))
               for s in faces96[:6]]
    bundle, _ = train_bundle(
        samples, single_contour_scheme(12),
        fit_config=FitConfig(levels=2, profile_lengths=(3, 5)),
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


def test_bundle_section_table_bounds(small_bundle_bytes, tmp_path):
    body = bytearray(small_bundle_bytes[:-4])
    bad = tmp_path / "table.asmb"
    # first section: u16 name length at byte 16, then the name, offset, length
    name_len = struct.unpack_from("<H", body, 16)[0]
    for field_pos, value in ((18 + name_len, 2**63), (26 + name_len, 2**40)):
        data = bytearray(body)
        struct.pack_into("<Q", data, field_pos, value)
        bad.write_bytes(reseal(data))
        with pytest.raises(BundleCorruptionError, match="past the end"):
            load_bundle(bad)
    data = bytearray(body)
    struct.pack_into("<I", data, len(BUNDLE_MAGIC) + 4, 2**31)
    bad.write_bytes(reseal(data))
    with pytest.raises(BundleCorruptionError):
        load_bundle(bad)
