"""Property-based checks of the file loaders and of fitting.

Written files read back exactly, a bundle's SVM parameters, profile
statistics and shape model included, and arbitrary bytes make a loader
raise an AsmFitError or nothing at all. A
fit of any image from any box returns finite points or raises an
AsmFitError. Examples are derandomized, so every run draws the same ones,
and no example database is written.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reseal
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
from asmfit.scheme import single_contour_scheme
from asmfit.search import FitConfig, config_for_mode, fit, init_shape_from_box
from asmfit.shape_model import Shape, ShapeModel
from asmfit.svm import LinearSvmModel, SvmTrainConfig
from asmfit.training import train_bundle

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


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
        fit_config=FitConfig(levels=2, profile_lengths=(3, 5)),
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
    weights = [data.draw(arrays(np.float64, (6, size * size), elements=SVM_FLOATS))
               for size in tiny_bundle.asm_profiles.sizes]
    biases = [data.draw(arrays(np.float64, 6, elements=SVM_FLOATS)) for _ in weights]
    svms = tuple(LinearSvmModel(w, b) for w, b in zip(weights, biases))
    save_bundle(dataclasses.replace(tiny_bundle, svms=svms), scratch)
    loaded = load_bundle(scratch).svms
    for w, b, model in zip(weights, biases, loaded):
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.tobytes() == b.tobytes()


# Non-negative finite doubles, with signed zeros and subnormals drawn often.
NONNEGATIVE_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.5e-310]),
)


def draw_profile_arrays(data, pm):
    """Per level (means, bases, lams, rhos) of a drawn rank, shaped for pm."""
    k = pm.n_landmarks
    levels = []
    for size in pm.sizes:
        d = size if pm.kind == "one_d" else size * size
        r = data.draw(st.integers(1, d))
        lams = data.draw(arrays(np.float64, (k, r), elements=NONNEGATIVE_FLOATS))
        rhos = data.draw(arrays(np.float64, k, elements=NONNEGATIVE_FLOATS))
        # A zero ridge needs a full-rank, non-singular factor.
        rhos[(rhos == 0) & ~((r == d) & lams.all(axis=1))] = 5e-324
        levels.append((data.draw(arrays(np.float64, (k, d), elements=SVM_FLOATS)),
                       data.draw(arrays(np.float64, (k, d, r), elements=SVM_FLOATS)),
                       lams, rhos))
    return levels


@PROPERTY
@given(data=st.data())
def test_bundle_statistics_and_shape_model_round_trip_bit_for_bit(scratch, tiny_bundle, data):
    drawn = {name: draw_profile_arrays(data, getattr(tiny_bundle, name))
             for name in ("classic_profiles", "asm_profiles")}
    t = data.draw(st.integers(0, 4))
    mean = data.draw(arrays(np.float64, (6, 2), elements=SVM_FLOATS))
    modes = data.draw(arrays(np.float64, (12, t), elements=SVM_FLOATS))
    eigenvalues = np.sort(data.draw(arrays(
        np.float64, t, elements=st.floats(min_value=5e-324, allow_infinity=False))))[::-1]
    scalars = data.draw(st.tuples(SVM_FLOATS, SVM_FLOATS))
    with np.errstate(over="ignore", divide="ignore"):  # 1 / (lam + rho) may overflow
        profiles = {
            name: dataclasses.replace(getattr(tiny_bundle, name), stats=tuple(
                ProfileStats(m, basis=b, lam=lam, rho=rho) for m, b, lam, rho in levels))
            for name, levels in drawn.items()
        }
        shape_model = ShapeModel(Shape(mean), modes, eigenvalues, *scalars)
        save_bundle(dataclasses.replace(tiny_bundle, shape_model=shape_model, **profiles),
                    scratch)
        loaded = load_bundle(scratch)
    for name, levels in drawn.items():
        for level, stats in zip(levels, getattr(loaded, name).stats):
            for want, attr in zip(level, ("mean", "basis", "lam", "rho")):
                assert getattr(stats, attr).tobytes() == want.tobytes()
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


@PROPERTY
@given(data=st.one_of(
    st.binary(max_size=200),
    st.lists(POINTS_LINES, max_size=10).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.lists(st.one_of(st.sampled_from([b"version: 1\n", b"n_points: 3\n", b"{\n", b"1 2\n",
                                        b"}\n"]), st.binary(max_size=4)), max_size=8).map(b"".join),
))
def test_points_loader_raises_only_asmfit_errors(scratch, data):
    loads_or_raises_asmfit_error(load_points_file, scratch, data)


@PROPERTY
@given(data=st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from([b"P5", b"P6", b" ", b"\n", b"#c\n", b"2", b"3", b"0", b"-1",
                                        b"255", b"65535", b"1e3", b"99999999999"]),
                       st.binary(max_size=4)), max_size=12).map(b"".join),
))
def test_image_loader_raises_only_asmfit_errors(scratch, data):
    loads_or_raises_asmfit_error(load_image, scratch, data)


@PROPERTY
@given(data=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda body: reseal(BUNDLE_MAGIC + body)),
    st.tuples(st.integers(0, 6), st.binary(max_size=200)).map(
        lambda t: reseal(BUNDLE_MAGIC + struct.pack("<II", BUNDLE_VERSION, t[0]) + t[1])),
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
