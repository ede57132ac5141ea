"""Property-based checks of the file loaders and of fitting.

Written files read back exactly, a bundle's SVM parameters, profile
statistics and shape model included, and arbitrary bytes make a loader
raise an AsmFitError or nothing at all; the `.pts` and PGM readers give
their cursor oracles' array, or exception type and message, on each. A
fit of any image from any box returns finite points or raises an
AsmFitError. Examples are derandomized, so every run draws the same ones,
and no example database is written.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PROPERTY, reseal
from reference_profiles import single_contour_scheme
import reference_dataset_io
from asmfit.dataset_io import (
    BUNDLE_MAGIC,
    BUNDLE_VERSION,
    AnnotatedSample,
    load_bundle,
    load_image,
    load_points_file,
    save_bundle,
    save_pgm,
    write_points_file,
)
from asmfit.errors import AsmFitError
from asmfit.imaging import GrayImage, build_pyramid
from asmfit.profiles import ProfileStats
from asmfit.search import FitConfig, config_for_mode, fit, init_shape_from_box
from asmfit.shape_model import Shape, ShapeModel
from asmfit.svm import LinearSvmModel, SvmTrainConfig
from asmfit.training import train_bundle


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "file"


def loads_or_raises_asmfit_error(loader, path, data):
    path.write_bytes(data)
    try:
        loader(path)
    except AsmFitError:
        pass


@PROPERTY
@given(points=arrays(np.float64, st.tuples(st.integers(3, 40), st.just(2)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_points_file_round_trip_is_exact(scratch, points):
    write_points_file(Shape(points), scratch)
    assert load_points_file(scratch).points.tobytes() == points.tobytes()


@PROPERTY
@given(pixels=arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24))))
def test_pgm_round_trip_is_exact(scratch, pixels):
    save_pgm(GrayImage(pixels), scratch)
    assert np.array_equal(load_image(scratch).pixels, pixels)


@pytest.fixture(scope="module")
def tiny_bundle(faces96):
    """6 mouth landmarks on two levels of 3x3 and 5x5 windows."""
    samples = [AnnotatedSample(s.name, s.image, Shape(s.shape.points[-6:]))
               for s in faces96[:3]]
    bundle, _ = train_bundle(
        samples, single_contour_scheme(6),
        fit_config=FitConfig(levels=2), profile_lengths=(3, 5),
        svm_config=SvmTrainConfig(epochs=1), classic_length=3,
    )
    return bundle


# Finite doubles, with signed zeros and subnormals drawn often.
SVM_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-310]),
)


@PROPERTY
@given(data=st.data())
def test_bundle_svm_parameters_round_trip_bit_for_bit(scratch, tiny_bundle, data):
    weights = [data.draw(arrays(np.float64, (6, lv.window_side**2), elements=SVM_FLOATS))
               for lv in tiny_bundle.levels]
    biases = [data.draw(arrays(np.float64, 6, elements=SVM_FLOATS)) for _ in weights]
    levels = tuple(dataclasses.replace(lv, svms=LinearSvmModel(w, b))
                   for lv, w, b in zip(tiny_bundle.levels, weights, biases))
    save_bundle(dataclasses.replace(tiny_bundle, levels=levels), scratch)
    loaded = [lv.svms for lv in load_bundle(scratch).levels]
    for w, b, model in zip(weights, biases, loaded, strict=True):
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.tobytes() == b.tobytes()


# Non-negative finite doubles, with signed zeros and subnormals drawn often.
NONNEGATIVE_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.5e-310]),
)


# Finite float32 values, with signed zeros, subnormals and extremes drawn often.
F32_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([-0.0, 0.0, 1.401298464324817e-45, -1.401298464324817e-45,
                     1.1754943508222875e-38, -3.4028234663852886e38]),
)


def mean_floats(low, dtype):
    """Finite dtype values in [low, 1], as LevelModel admits profile means,
    with signed zeros, the least subnormal and the bounds drawn often."""
    tiny = float(np.finfo(dtype).smallest_subnormal)
    edges = [-0.0, 0.0, tiny, low, 1.0] + ([-tiny] if low < 0 else [])
    return st.one_of(st.floats(low, 1.0, width=np.finfo(dtype).bits), st.sampled_from(edges))


def draw_profile_arrays(data, levels, kind):
    """Per level (means, bases, lams, rhos) of a drawn rank, shaped like the
    levels' `kind` statistics, classic or asm. The means and bases of 2-D
    (asm) statistics are float32, as training stores them, or float64, as
    another writer may; lams and rhos are float64. The means lie in [-1, 1]
    (classic) or [0, 1] (asm), the ranges of the rows they average."""
    kept = np.float64
    if kind == "asm":
        kept = data.draw(st.sampled_from([np.float32, np.float64]))
    elements = F32_FLOATS if kept == np.float32 else SVM_FLOATS
    means = mean_floats(-1.0 if kind == "classic" else 0.0, kept)
    drawn = []
    for lv in levels:
        k, d = getattr(lv, kind).mean.shape
        r = data.draw(st.integers(1, d))
        lams = data.draw(arrays(np.float64, (k, r), elements=NONNEGATIVE_FLOATS))
        rhos = data.draw(arrays(np.float64, k, elements=NONNEGATIVE_FLOATS))
        # A zero ridge needs a full-rank, non-singular factor.
        rhos[(rhos == 0) & ~((r == d) & lams.all(axis=1))] = 5e-324
        drawn.append((data.draw(arrays(kept, (k, d), elements=means)),
                      data.draw(arrays(kept, (k, d, r), elements=elements)),
                      lams, rhos))
    return drawn


@PROPERTY
@given(data=st.data())
def test_bundle_statistics_and_shape_model_round_trip_bit_for_bit(scratch, tiny_bundle, data):
    drawn = {kind: draw_profile_arrays(data, tiny_bundle.levels, kind)
             for kind in ("classic", "asm")}
    t = data.draw(st.integers(0, 4))
    mean = data.draw(arrays(np.float64, (6, 2), elements=SVM_FLOATS))
    modes = data.draw(arrays(np.float64, (12, t), elements=SVM_FLOATS))
    eigenvalues = np.sort(data.draw(arrays(
        np.float64, t, elements=st.floats(min_value=5e-324, allow_infinity=False))))[::-1]
    # variance_fraction in (0, 1] and a positive, finite clamp_alpha
    scalars = data.draw(st.tuples(
        st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([5e-324, 1.0])),
        st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
                  st.sampled_from([5e-324, 1.7976931348623157e308])),
    ))
    with np.errstate(over="ignore", divide="ignore"):  # 1 / (lam + rho) may overflow
        levels = tuple(
            dataclasses.replace(lv, **{kind: ProfileStats(m, basis=b, lam=lam, rho=rho)
                                       for kind, (m, b, lam, rho) in zip(drawn, level)})
            for lv, level in zip(tiny_bundle.levels, zip(*drawn.values()), strict=True))
        shape_model = ShapeModel(Shape(mean), modes, eigenvalues, *scalars)
        save_bundle(dataclasses.replace(tiny_bundle, shape_model=shape_model, levels=levels),
                    scratch)
        loaded = load_bundle(scratch)
    for kind, levels in drawn.items():
        for level, lv in zip(levels, loaded.levels, strict=True):
            for want, attr in zip(level, ("mean", "basis", "lam", "rho")):
                got = getattr(getattr(lv, kind), attr)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    sm = loaded.shape_model
    assert sm.mean_shape.points.tobytes() == mean.tobytes()
    assert sm.modes.tobytes() == modes.tobytes()
    assert sm.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert struct.pack("<2d", sm.variance_fraction, sm.clamp_alpha) == struct.pack("<2d", *scalars)
    assert loaded.fit_defaults == tiny_bundle.fit_defaults


POINTS_LINES = st.one_of(
    st.sampled_from(["version: 1", "version:1", "n_points: 3", "n_points: 0", "n_points: x",
                     "{", "}", "1 2", "-3.5 4e2", "nan 1", "inf 0", "1e999 2", "1 2 3", ""]),
    st.text(max_size=12),
)


POINTS_FILES = st.one_of(
    st.binary(max_size=200),
    st.lists(POINTS_LINES, max_size=10).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.lists(st.one_of(st.sampled_from([b"version: 1\n", b"n_points: 3\n", b"{\n", b"1 2\n",
                                        b"}\n"]), st.binary(max_size=4)), max_size=8).map(b"".join),
)
PGM_FILES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from([b"P5", b"P6", b" ", b"\n", b"#c\n", b"2", b"3", b"0", b"-1",
                                        b"255", b"65535", b"1e3", b"99999999999"]),
                       st.binary(max_size=4)), max_size=12).map(b"".join),
)


@PROPERTY
@given(data=POINTS_FILES)
def test_points_loader_raises_only_asmfit_errors(scratch, data):
    loads_or_raises_asmfit_error(load_points_file, scratch, data)


@PROPERTY
@given(data=PGM_FILES)
def test_image_loader_raises_only_asmfit_errors(scratch, data):
    loads_or_raises_asmfit_error(load_image, scratch, data)


def outcome(loader, path):
    """The array that loader reads from path, or the exception it raises."""
    try:
        loaded = loader(path)
    except Exception as exc:
        return exc
    return loaded.points if isinstance(loaded, Shape) else loaded.pixels


def assert_same_outcome(loader, oracle, path, data):
    """loader gives oracle's array, or its exception type and message."""
    path.write_bytes(data)
    got, want = outcome(loader, path), outcome(oracle, path)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert isinstance(got, np.ndarray)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@PROPERTY
@given(data=POINTS_FILES)
@example(data=b"")
@example(data=b"version: 1\n\nn_points: 1\n{\n1 2\n\n")
@example(data=b"\n version:1 \r\n \t \r\nn_points: 3\r\n {\r\n1 2\r\n 3 4 \r\n5 6\n\t}\r\n")
def test_points_loader_equals_cursor_oracle(scratch, data):
    assert_same_outcome(load_points_file, reference_dataset_io.load_points_file, scratch, data)


@PROPERTY
@given(data=PGM_FILES)
@example(data=b"")
@example(data=b"P5 1 #only a comment")
@example(data=b"P5\n# c\r2 2\n1 1\n255\nx")
@example(data=b"P5#c 1 1 255 x")
@example(data=b"P5 1#c 1 255\nx")
@example(data=b"P5\x0b1\x0c1\t255\rx")
@example(data=b"P5 1 1\x1c255 x")
def test_image_loader_equals_cursor_oracle(scratch, data):
    assert_same_outcome(load_image, reference_dataset_io.load_image, scratch, data)


# JSON headers with array references among the bundle's keys. References
# run into the block, past its end, and have negative or mistyped fields.
ARRAY_REFS = st.fixed_dictionaries({"f64": st.one_of(
    st.tuples(st.integers(-1, 40), st.lists(st.integers(-1, 3), max_size=3)).map(list),
    st.lists(st.one_of(st.integers(-1, 72), st.none()), max_size=3),
)})
JSON_HEADERS = st.recursive(
    st.one_of(ARRAY_REFS, st.sampled_from([None, True, False, -1, 0, 3, 0.5, 1e308, "", "x"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["scheme", "groups", "shape_model", "mean", "modes",
                                         "profiles", "classic", "asm", "svms", "weights",
                                         "fit_defaults", "config", "f64"]), inner, max_size=4)),
    max_leaves=10,
).map(lambda value: json.dumps(value).encode("utf-8"))


@PROPERTY
@given(data=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda body: reseal(BUNDLE_MAGIC + body)),
    st.tuples(JSON_HEADERS, st.binary(min_size=48, max_size=96)).map(
        lambda t: reseal(BUNDLE_MAGIC + struct.pack("<IQ", BUNDLE_VERSION, len(t[0])) + t[0] + t[1])),
))
def test_bundle_loader_raises_only_asmfit_errors(scratch, data):
    loads_or_raises_asmfit_error(load_bundle, scratch, data)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(mode=st.sampled_from(["asm_svm", "classic"]),
       image=st.one_of(st.integers(0, 255).map(lambda v: ("constant", v)),
                       st.integers(0, 2**32 - 1).map(lambda seed: ("noise", seed)),
                       st.integers(0, 1).map(lambda i: ("face", i))),
       height=st.integers(4, 120), width=st.integers(4, 120),
       box=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                     st.floats(0.01, 2.5), st.floats(0.01, 2.5)))
def test_fit_returns_finite_points_or_asmfit_error(trained, mode, image, height, width, box):
    """Boxes reach past every border, so search windows fall off the image."""
    bundle, _, faces = trained
    kind, value = image
    if kind == "constant":
        pixels = np.full((height, width), float(value))
    elif kind == "noise":
        pixels = np.random.default_rng(value).uniform(0.0, 255.0, (height, width))
    else:
        pixels = faces[6 + value].image.pixels
    h, w = pixels.shape
    x, y, bw, bh = box
    cfg = config_for_mode(bundle, mode)
    try:
        result = fit(build_pyramid(GrayImage(pixels), cfg.levels), bundle,
                     init_shape_from_box(bundle.shape_model, (x * w, y * h, bw * w, bh * h)), cfg)
    except AsmFitError:
        return
    assert np.isfinite(result.shape.points).all()
    assert result.landmark_costs is None or np.isfinite(result.landmark_costs).all()
