import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from asmfit import imaging
from asmfit.errors import ImageSizeError, ShapeArityError, ThresholdError
from asmfit.imaging import (
    GradientField,
    GrayImage,
    build_pyramid,
    canny_edges,
    equalize_histogram,
    equalized_magnitude,
    sample_bilinear,
    sobel_gradients,
)
from asmfit.search import FitConfig, build_level_context, config_for_mode
from asmfit.synthetic import generate_face_dataset

import reference_imaging
from conftest import PROPERTY
from reference_canny import (
    ramp_step_fixture,
    reference_canny,
    vectorized_canny,
    whole_image_labels_canny,
)

# Intensities for the byte-equality properties: arbitrary floats in
# [0, 255], the signed zeros and the smallest subnormal included.
INTENSITIES = st.one_of(st.floats(0.0, 255.0), st.sampled_from([-0.0, 0.0, 5e-324, 0.5, 255.0]))


@st.composite
def images(draw, min_side):
    """A float image of min_side..24 pixels a side: arbitrary intensities,
    few levels (equal magnitudes along ridges and in flat areas) or one
    constant; thin and tiny shapes are drawn first when shrinking."""
    shape = draw(st.tuples(st.integers(min_side, 24), st.integers(min_side, 24)))
    kind = draw(st.sampled_from(["floats", "levels", "constant"]))
    if kind == "floats":
        return draw(arrays(np.float64, shape, elements=INTENSITIES))
    if kind == "levels":
        levels = draw(st.lists(INTENSITIES, min_size=2, max_size=3))
        index = draw(arrays(np.intp, shape, elements=st.integers(0, len(levels) - 1)))
        return np.array(levels)[index]
    return np.full(shape, draw(INTENSITIES))


# ------------------------------------------------------------- containers

def test_gray_image_validation():
    with pytest.raises(ImageSizeError):
        GrayImage(np.zeros(5))
    with pytest.raises(ImageSizeError):
        GrayImage(np.zeros((0, 4)))
    with pytest.raises(ImageSizeError):
        GrayImage(np.array([[0.0, np.nan]]))
    with pytest.raises(ImageSizeError):
        GrayImage(np.array([[-1.0, 0.0]]))
    with pytest.raises(ImageSizeError):
        GrayImage(np.array([[0.0, 256.0]]))


def test_gray_image_properties_and_immutability():
    img = GrayImage(np.zeros((3, 7)))
    assert (img.height, img.width) == (3, 7)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_gradient_field_shape_check():
    with pytest.raises(ImageSizeError):
        GradientField(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


def test_gradient_field_keeps_arrays_by_the_readonly_rule(monkeypatch):
    """GradientField keeps a read-only array as it is and freezes a copy of
    a writable one, so its caller's arrays stay writable and its own do not
    change with them. sobel_gradients freezes the fresh arrays of _sobel,
    which GradientField then keeps without a copy."""
    gx, gy, mag = np.zeros((3, 4)), np.ones((3, 4)), np.full((3, 4), 2.0)
    field = GradientField(gx, gy, mag)
    for caller, kept in zip((gx, gy, mag), (field.gx, field.gy, field.magnitude)):
        assert caller.flags.writeable and not kept.flags.writeable
        caller += 5.0
        assert not np.array_equal(caller, kept)
    frozen = np.zeros((3, 4))
    frozen.setflags(write=False)
    assert GradientField(frozen, frozen, frozen).gx is frozen

    made = []

    def sobel(pixels, original=imaging._sobel):
        made.extend(original(pixels))
        return tuple(made)

    monkeypatch.setattr(imaging, "_sobel", sobel)
    field = sobel_gradients(GrayImage(np.arange(20.0).reshape(4, 5)))
    assert len(made) == 3
    assert all(kept is fresh for kept, fresh in zip((field.gx, field.gy, field.magnitude), made))


# ------------------------------------------------------------ equalization

def test_equalize_constant_unchanged():
    img = GrayImage(np.full((5, 5), 77.0))
    assert np.array_equal(equalize_histogram(img).pixels, img.pixels)


def test_equalize_uniform_histogram_is_identity():
    img = GrayImage(np.arange(256.0).reshape(16, 16))
    assert np.array_equal(equalize_histogram(img).pixels, img.pixels)


def test_equalize_hand_case():
    # counts: two 0s, one 100, one 255 -> cdf 2, 3, 4; cdf_min 2, N 4
    # out(v) = round(255 * (cdf - 2) / 2) -> 0, 128, 255
    img = GrayImage(np.array([[0.0, 0.0], [100.0, 255.0]]))
    assert np.array_equal(equalize_histogram(img).pixels,
                          np.array([[0.0, 0.0], [128.0, 255.0]]))


def test_equalize_stretches_low_contrast():
    px = np.full((4, 4), 100.0)
    px[2:] = 150.0
    out = equalize_histogram(GrayImage(px)).pixels
    assert set(np.unique(out)) == {0.0, 255.0}


def test_equalize_stays_in_range():
    rng = np.random.default_rng(0)
    for _ in range(5):
        px = rng.integers(40, 90, (12, 9)).astype(float)
        out = equalize_histogram(GrayImage(px)).pixels
        assert out.min() >= 0.0 and out.max() <= 255.0


@PROPERTY
@given(pixels=images(min_side=1))
def test_equalize_equals_clipped_fancy_index_oracle(pixels):
    """One take through the LUT, without the clips, gives the oracle's bytes;
    a constant image comes back unchanged."""
    img = GrayImage(pixels)
    got = equalize_histogram(img).pixels
    if np.ptp(np.rint(img.pixels)) == 0:
        assert got is img.pixels
    else:
        assert got.tobytes() == reference_imaging.equalize(img.pixels).tobytes()


# ----------------------------------------------------------------- sobel

def test_sobel_constant_is_zero():
    g = sobel_gradients(GrayImage(np.full((6, 6), 42.0)))
    assert not g.gx.any() and not g.gy.any() and not g.magnitude.any()


def test_sobel_vertical_step():
    h = 17.0
    px = np.full((5, 6), 30.0)
    px[:, 3:] += h
    g = sobel_gradients(GrayImage(px))
    expected = np.zeros((5, 6))
    expected[:, 2:4] = 4.0 * h
    assert np.array_equal(g.gx, expected)
    assert not g.gy.any()
    assert np.array_equal(g.magnitude, expected)


def test_sobel_horizontal_step():
    h = 9.0
    px = np.full((6, 5), 30.0)
    px[3:, :] += h
    g = sobel_gradients(GrayImage(px))
    expected = np.zeros((6, 5))
    expected[2:4, :] = 4.0 * h
    assert np.array_equal(g.gy, expected)
    assert not g.gx.any()


def test_sobel_rejects_tiny_images():
    with pytest.raises(ImageSizeError):
        sobel_gradients(GrayImage(np.zeros((2, 5))))
    with pytest.raises(ImageSizeError):
        sobel_gradients(GrayImage(np.zeros((5, 2))))


@PROPERTY
@given(pixels=images(min_side=3))
@example(pixels=np.array([[0.0, 0.0, -0.0]] * 3))
def test_sobel_gradients_equal_correlate_oracle(pixels):
    """The slice-add Sobel gives ndimage.correlate's bytes, and those of the
    same taps on an np.pad border: gx, gy and the magnitude, signed zeros
    included. In the example, -p of the first tap in place of 0.0 - p would
    leave gx at -0.0."""
    got = sobel_gradients(GrayImage(pixels))
    for oracle in (reference_imaging.sobel, reference_imaging.sobel_np_pad):
        want = oracle(GrayImage(pixels).pixels)
        for name, arr in zip(("gx", "gy", "magnitude"), want):
            assert getattr(got, name).tobytes() == arr.tobytes(), (oracle.__name__, name)


@st.composite
def level_images(draw):
    """A 3..40 pixel a side image for equalized_magnitude: whole-number or
    fractional intensities, a whole or fractional constant, or 0/255 stripes
    or checkerboards, whose edges reach |gx| or |gy| = 4 * 255 = 1020."""
    shape = draw(st.tuples(st.integers(3, 40), st.integers(3, 40)))
    kind = draw(st.sampled_from(["whole", "fractional", "constant", "stripes", "checkerboard"]))
    if kind == "whole":
        return draw(arrays(np.int16, shape, elements=st.integers(0, 255))).astype(float)
    if kind == "fractional":
        return draw(arrays(np.float64, shape, elements=INTENSITIES))
    if kind == "constant":
        return np.full(shape, draw(st.one_of(st.integers(0, 255).map(float), INTENSITIES)))
    y, x = np.indices(shape)
    cell = draw(st.integers(1, 6))
    phase = draw(st.integers(0, 2 * cell - 1))
    if kind == "stripes":
        band = draw(st.sampled_from([x, y]))
        return 255.0 * ((band + phase) // cell % 2)
    return 255.0 * (((x + phase) // cell + y // cell) % 2)


def _oracle_magnitude(pixels):
    return sobel_gradients(equalize_histogram(GrayImage(pixels))).magnitude


@PROPERTY
@given(pixels=level_images())
def test_equalized_magnitude_equals_float_sobel_of_equalized_oracle(pixels):
    """The integer Sobel of the equalized levels gives the bytes of the float
    Sobel of the equalized image, as a read-only float64 array, and those of
    ndimage.correlate on the oracle's equalized image, which shares no
    helper with the library."""
    got = equalized_magnitude(GrayImage(pixels))
    assert got.dtype == np.float64 and got.shape == pixels.shape
    assert not got.flags.writeable
    assert got.tobytes() == _oracle_magnitude(pixels).tobytes()
    equalized = pixels if np.ptp(np.rint(pixels)) == 0 else reference_imaging.equalize(pixels)
    assert got.tobytes() == reference_imaging.sobel(equalized)[2].tobytes()


def test_equalized_magnitude_reaches_the_integer_range_edge():
    """0/255 stripes two pixels wide give |gx| or |gy| = 1020, whose square
    1,040,400 is the largest value the int16 taps and int32 squares hold; a
    fractional constant is not remapped, and its float Sobel is not 0."""
    stripes = 255.0 * (np.arange(12) // 2 % 2) * np.ones((7, 1))
    for pixels in (stripes, stripes.T):
        got = equalized_magnitude(GrayImage(pixels))
        assert got.max() == 1020.0
        assert got.tobytes() == _oracle_magnitude(pixels).tobytes()
    constant = np.full((38, 35), np.random.default_rng(13).uniform(0.0, 255.0))
    got = equalized_magnitude(GrayImage(constant))
    assert got.any()
    assert got.tobytes() == _oracle_magnitude(constant).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_equalized_magnitude_equals_oracle_on_face_pyramids(seed):
    """Every level of 256x256 synthetic-face pyramids, as fits and training
    build them."""
    for sample in generate_face_dataset(3, size=256, seed=seed):
        for image in build_pyramid(sample.image, 3):
            got = equalized_magnitude(image)
            assert got.tobytes() == _oracle_magnitude(image.pixels).tobytes()
            assert got.flags.owndata and not got.flags.writeable


@pytest.mark.parametrize("hw", [(2, 5), (5, 2), (1, 1), (2, 40)])
def test_equalized_magnitude_refuses_what_sobel_gradients_refuses(hw):
    """A side under 3 pixels raises sobel_gradients' ImageSizeError, from the
    one place both check it."""
    image = GrayImage(np.arange(float(hw[0] * hw[1])).reshape(hw))
    raised = []
    for compute in (sobel_gradients, equalized_magnitude):
        with pytest.raises(ImageSizeError, match=r"^need at least 3x3 for gradients, got ") as info:
            compute(image)
        raised.append((str(info.value), info.traceback[-1].frame.code.raw))
    assert raised[0] == raised[1]


# ----------------------------------------------------------------- canny

# low = 0 makes every pixel a candidate, low == high leaves no weak pixels,
# and small levels put equal magnitudes side by side, where only the
# strict "before" comparison drops the second pixel of a ridge. A high of
# 1500 lies above every magnitude (at most 1020 * sqrt(2) on [0, 255]), so
# no component is anchored.
THRESHOLDS = st.one_of(
    st.sampled_from([(0.0, 0.0), (0.0, 40.0), (10.0, 10.0), (50.0, 150.0), (300.0, 300.0),
                     (0.0, 1500.0)]),
    st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)).map(sorted),
)


@PROPERTY
@given(pixels=images(min_side=1), thresholds=THRESHOLDS)
def test_canny_edges_equal_vectorized_oracle(pixels, thresholds):
    """Suppression on the candidates at or above low gives the whole-image
    form's edge map byte for byte, and writing only the survivors gives the
    bytes of reading every pixel's label."""
    low, high = thresholds
    got = canny_edges(GrayImage(pixels), low, high)
    for oracle in (vectorized_canny, whole_image_labels_canny):
        want = oracle(GrayImage(pixels).pixels, low, high)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), oracle.__name__


@pytest.mark.parametrize("hw", [(1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (7, 2)])
@pytest.mark.parametrize("low,high", [(0.0, 0.0), (0.0, 5.0), (5.0, 5.0), (1.0, 30.0)])
def test_canny_edges_equal_vectorized_oracle_on_thin_images(hw, low, high):
    """Every pixel of a thin image has a suppression neighbour on the zero
    border or a replicated row; the candidates' flat offsets must land on
    the same neighbours as the whole-image slices."""
    rng = np.random.default_rng(hw[0] * 10 + hw[1])
    for pixels in (rng.uniform(0.0, 255.0, hw), 80.0 * rng.integers(0, 3, hw), np.zeros(hw)):
        got = canny_edges(GrayImage(pixels), low, high)
        assert got.tobytes() == vectorized_canny(pixels, low, high).tobytes()


def test_canny_folds_plus_and_minus_pi_to_direction_zero():
    """A vertical step's smoothed gradient points left with gy rounding to
    +0 or a tiny negative, so arctan2 gives pi in one edge column and -pi
    in the next; both are direction 0, and the step keeps one column."""
    px = np.full((7, 8), 200.0)
    px[:, 4:] = 20.0
    smoothed = ndimage.correlate(px, imaging._gaussian_kernel_5x5(1.4), mode="nearest")
    angle = np.arctan2(*reference_imaging.sobel(smoothed)[1::-1])
    assert (angle[:, 3] == np.pi).all() and (angle[:, 4] == -np.pi).all()
    got = canny_edges(GrayImage(px), 10.0, 20.0)
    assert got.tobytes() == vectorized_canny(px, 10.0, 20.0).tobytes()
    assert np.array_equal(np.flatnonzero(got.any(axis=0)), [3])


# gx, gy of each quantized direction, in the upper and the lower half-plane,
# and the (dy, dx) its suppression neighbours lie along.
DIRECTIONS = [((1.0, 0.0), (0, 1)), ((-1.0, -0.0), (0, 1)), ((1.0, 1.0), (1, 1)),
              ((-1.0, -1.0), (1, 1)), ((0.0, 1.0), (1, 0)), ((0.0, -1.0), (1, 0)),
              ((-1.0, 1.0), (1, -1)), ((1.0, -1.0), (1, -1))]


@pytest.mark.parametrize("gradient,axis", DIRECTIONS)
def test_canny_keeps_the_first_pixel_of_an_equal_ridge(monkeypatch, gradient, axis):
    """Three equal magnitudes along the gradient axis keep only the first,
    row-major-earlier one: "before" must be strictly smaller, "after" may
    be equal. The Sobel of both Cannys is replaced by the planted field."""
    (gx0, gy0), (dy, dx) = gradient, axis
    mag = np.zeros((7, 7))
    for t in (-1, 0, 1):
        mag[3 + t * dy, 3 + t * dx] = 5.0
    field = (np.full((7, 7), gx0), np.full((7, 7), gy0), mag)
    monkeypatch.setattr(imaging, "_sobel", lambda pixels: field)
    monkeypatch.setattr(reference_imaging, "sobel", lambda pixels: field)
    want = np.zeros((7, 7), dtype=np.uint8)
    want[3 - dy, 3 - dx] = 1
    for low, high in ((5.0, 5.0), (0.0, 5.0), (1.0, 9.0)):
        expected = (want * (high <= 5)).tobytes()
        assert vectorized_canny(np.zeros((7, 7)), low, high).tobytes() == expected
        assert canny_edges(GrayImage(np.zeros((7, 7))), low, high).tobytes() == expected


def test_canny_matches_reference_on_step_fixture():
    px = ramp_step_fixture()
    got = canny_edges(GrayImage(px), 50.0, 150.0)
    want = reference_canny(px, 50.0, 150.0)
    assert got.dtype == np.uint8
    assert want.any()
    assert np.array_equal(got, want)


# (0, 0): flat areas have magnitude exactly 0, so only the strict "before"
# comparison keeps them off the map.
@pytest.mark.parametrize("low,high", [(10.0, 100.0), (60.0, 60.0), (0.0, 40.0), (0.0, 0.0)])
def test_canny_matches_reference_across_thresholds(low, high):
    px = ramp_step_fixture()
    assert np.array_equal(canny_edges(GrayImage(px), low, high),
                          reference_canny(px, low, high))


def test_canny_matches_reference_on_product_surface():
    # smooth, asymmetric field: no mirror-image neighborhoods, so no
    # floating-point tie hazards between the two implementations; the small
    # shapes put every pixel's suppression neighbors on the zero border
    for h, w in [(16, 16), (1, 1), (2, 3), (5, 40)]:
        y, x = np.mgrid[0:h, 0:w]
        px = 0.9 * (x + 1.0) * (y + 2.0)
        got = canny_edges(GrayImage(px), 2.0, 8.0)
        want = reference_canny(px, 2.0, 8.0)
        assert np.array_equal(got, want)


def test_canny_blank_image_has_no_edges():
    out = canny_edges(GrayImage(np.full((10, 10), 25.0)), 50.0, 150.0)
    assert not out.any()
    assert out.shape == (10, 10)


def test_canny_output_is_binary():
    out = canny_edges(GrayImage(ramp_step_fixture()), 50.0, 150.0)
    assert set(np.unique(out)).issubset({0, 1})


def test_canny_threshold_validation():
    """canny_edges applies FitConfig's rule 0 <= low <= high < inf: an
    infinite high threshold marks no edge, which would turn edge weighting
    off. ThresholdError is the ShapeArityError FitConfig raises."""
    img = GrayImage(np.zeros((8, 8)))
    with pytest.raises(ThresholdError):
        canny_edges(img, 100.0, 50.0)
    with pytest.raises(ThresholdError):
        canny_edges(img, -1.0, 50.0)
    inf = float("inf")
    for low, high in ((50.0, inf), (inf, inf)):
        with pytest.raises(ThresholdError, match=r"^canny_low must be in \[0, canny_high\] and "
                                                 r"canny_high finite, got low=.* high=inf$"):
            canny_edges(img, low, high)
    assert issubclass(ThresholdError, ShapeArityError)
    # A threshold that is not a real number, a bool among them, is refused by
    # FitConfig's name before any comparison.
    for value in ("50", None, True):
        want = f"must be a real number, got {re.escape(repr(value))}$"
        for low, high, name in ((value, 150.0, "canny_low"), (50.0, value, "canny_high")):
            with pytest.raises(ShapeArityError, match=f"^{name} {want}"):
                canny_edges(img, low, high)


def test_context_images_equal_oracles_on_face_pyramids(trained):
    """An asm_svm level context holds the oracles' magnitude at all three
    pyramid levels of 256x256 synthetic faces, and their edge map at levels
    1 and 2. Level 0 has no edge map, so canny_edges is checked on its
    equalized 256x256 image directly."""
    bundle = trained[0]
    config = config_for_mode(bundle, "asm_svm")
    for sample in generate_face_dataset(4, size=256, seed=201):
        for level, image in enumerate(build_pyramid(sample.image, 3)):
            ctx = build_level_context(bundle, image, level, config)
            equalized = equalize_histogram(image)
            assert ctx.magnitude.tobytes() == reference_imaging.sobel(equalized.pixels)[2].tobytes()
            want = vectorized_canny(equalized.pixels, config.canny_low, config.canny_high)
            assert want.any()
            if level:
                assert ctx.edge_map.tobytes() == want.tobytes()
            else:
                assert ctx.edge_map is None
                got = canny_edges(equalized, config.canny_low, config.canny_high)
                assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- arrays kept as built

def test_equalized_and_pyramid_pixels_are_kept_without_a_copy(monkeypatch):
    """equalize_histogram and build_pyramid freeze the arrays they build, so
    GrayImage keeps each as it is: read-only, owning its data, and with the
    oracles' bytes."""
    image = GrayImage(np.random.default_rng(3).uniform(0.0, 255.0, (37, 50)))
    kept, real = [], imaging.readonly

    def spy(values, dtype=float):
        out = real(values, dtype)
        kept.append(out is values)
        return out

    monkeypatch.setattr(imaging, "readonly", spy)
    equalized = equalize_histogram(image)
    pyramid = build_pyramid(image, 3)
    assert kept == [True, True, True]
    assert pyramid[0] is image
    for px in (equalized.pixels, pyramid[1].pixels, pyramid[2].pixels):
        assert px.flags.owndata and not px.flags.writeable
    assert equalized.pixels.tobytes() == reference_imaging.equalize(image.pixels).tobytes()
    for level in (1, 2):
        want = reference_imaging.pyramid_level(pyramid[level - 1].pixels)
        assert pyramid[level].pixels.tobytes() == want.tobytes()


# --------------------------------------------------------------- pyramid

def test_pyramid_block_average():
    px = np.arange(16.0).reshape(4, 4)
    pyr = build_pyramid(GrayImage(px), levels=2)
    want = np.array([[2.5, 4.5], [10.5, 12.5]])
    assert np.array_equal(pyr[1].pixels, want)
    assert np.array_equal(pyr[0].pixels, px)


def test_pyramid_odd_dimensions_floor():
    pyr = build_pyramid(GrayImage(np.zeros((5, 5))), levels=2)
    assert pyr[1].pixels.shape == (2, 2)


def test_pyramid_shape_chain():
    pyr = build_pyramid(GrayImage(np.zeros((17, 12))), levels=3)
    assert [lvl.pixels.shape for lvl in pyr] == [(17, 12), (8, 6), (4, 3)]
    assert len(pyr) == 3


def test_pyramid_single_level():
    img = GrayImage(np.zeros((3, 3)))
    pyr = build_pyramid(img, levels=1)
    assert len(pyr) == 1
    assert np.array_equal(pyr[0].pixels, img.pixels)


def test_pyramid_size_errors():
    """An image too small for its levels is an image error; a level count
    under 1 is refused as FitConfig refuses it."""
    with pytest.raises(ImageSizeError):
        build_pyramid(GrayImage(np.zeros((2, 2))), levels=3)
    with pytest.raises(ShapeArityError, match=r"^need at least 1 level, got 0$"):
        build_pyramid(GrayImage(np.zeros((4, 4))), levels=0)
    with pytest.raises(ShapeArityError, match=r"^need at least 1 level, got 0$"):
        FitConfig(levels=0)


@pytest.mark.parametrize("levels", [True, 2.0, "3"])
def test_pyramid_rejects_non_integer_levels(levels):
    """A bool would build one level and a float or string raise a bare
    TypeError; each is refused like levels < 1, with FitConfig's error and
    wording for the same setting."""
    want = rf"^levels must be an integer, got {re.escape(repr(levels))}$"
    with pytest.raises(ShapeArityError, match=want):
        build_pyramid(GrayImage(np.zeros((8, 8))), levels=levels)
    with pytest.raises(ShapeArityError, match=want):
        FitConfig(levels=levels)


@PROPERTY
@given(pixels=images(min_side=2), levels=st.integers(2, 4))
@example(pixels=np.full((4, 3), -0.0), levels=2)
@example(pixels=np.full((3, 4), -0.0), levels=2)
@example(pixels=np.full((8, 8), -0.0), levels=3)
def test_pyramid_levels_equal_block_mean_oracle(pixels, levels):
    """Every level is the oracle's block mean of the one before, byte for
    byte: odd sides, levels one row or one column wide, constant images
    and blocks of -0.0 (which mean averages to +0.0) included."""
    image = GrayImage(pixels)
    if min(pixels.shape) < 2 ** (levels - 1):
        with pytest.raises(ImageSizeError):
            build_pyramid(image, levels)
        return
    got = build_pyramid(image, levels)
    want = image.pixels
    for level in got[1:]:
        want = reference_imaging.pyramid_level(want)
        assert level.pixels.tobytes() == want.tobytes()


# -------------------------------------------------------------- sampling

def test_bilinear_exact_at_integers():
    px = np.arange(12.0).reshape(3, 4)
    img = GrayImage(px)
    ys, xs = np.mgrid[0:3, 0:4].astype(float)
    assert np.array_equal(sample_bilinear(img, xs, ys), px)


def test_bilinear_midpoints():
    img = GrayImage(np.array([[0.0, 10.0], [20.0, 30.0]]))
    got = sample_bilinear(img, np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.5, 0.5]))
    assert got == pytest.approx([5.0, 10.0, 15.0])


def test_bilinear_clamps_outside():
    img = GrayImage(np.array([[0.0, 10.0], [20.0, 30.0]]))
    assert sample_bilinear(img, np.array([-5.0, 99.0]), np.array([-5.0, 99.0])).tolist() == [
        0.0, 30.0]


def test_bilinear_array_arguments():
    img = GrayImage(np.arange(9.0).reshape(3, 3))
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 1.0, 2.0])
    assert np.allclose(sample_bilinear(img, xs, ys), [0.0, 4.0, 8.0])



@pytest.mark.parametrize("hw", [(256, 256), (37, 53), (1, 9), (9, 1), (1, 1), (2, 2)])
def test_bilinear_matches_four_gather_oracle(hw):
    """The flat-index gather gives the oracle's bytes at random coordinates
    inside, on and beyond every border, at exact integers and halves, and
    exactly on the last column and row, where its past-the-end neighbour
    weighs 0. Arrays of any shape, one-point arrays included."""
    h, w = hw
    rng = np.random.default_rng(h * 1000 + w)
    for pixels in (rng.uniform(0.0, 255.0, hw), rng.integers(0, 256, hw).astype(float),
                   np.zeros(hw)):
        img = GrayImage(pixels)
        x = rng.uniform(-3.0, w + 2.0, (40, 9, 8))
        y = rng.uniform(-3.0, h + 2.0, (40, 9, 8))
        x[::4] = np.rint(x[::4])
        y[1::4] = np.rint(2 * y[1::4]) / 2
        x[2::4, 0], y[2::4, 1] = w - 1.0, h - 1.0
        x[3::4, 2], y[3::4, 2] = w - 1.0, h - 1.0
        x[3::4, 3], y[3::4, 3] = 0.0, 0.0
        for xs, ys in ((x, y), (x[0, 0], y[0, 0]), (x.ravel(), y.ravel())):
            got = sample_bilinear(img, xs, ys)
            assert got.tobytes() == reference_imaging.sample_bilinear(img, xs, ys).tobytes()
        points = ((w - 1.0, h - 1.0), (w - 1, 0), (0.0, h - 1.0), (-7.5, 1e9),
                   (x[5, 5, 5], y[5, 5, 5]))
        for xs, ys in points:
            xs, ys = np.array([xs], dtype=float), np.array([ys], dtype=float)
            got = sample_bilinear(img, xs, ys)
            assert got.tobytes() == reference_imaging.sample_bilinear(img, xs, ys).tobytes()


def test_bilinear_nan_coordinates_give_nan():
    """A NaN coordinate samples NaN, as the oracle does; its flat index is
    clipped, not an IndexError. The NaN to integer cast warns in both."""
    img = GrayImage(np.arange(12.0).reshape(3, 4))
    x = np.array([np.nan, 1.5, 3.0, np.nan, 0.0])
    y = np.array([1.0, np.nan, 2.0, np.nan, 0.25])
    with np.errstate(invalid="ignore"):
        got = sample_bilinear(img, x, y)
        want = reference_imaging.sample_bilinear(img, x, y)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).tolist() == [True, True, False, True, False]
    with pytest.raises(RuntimeWarning, match="invalid value"):
        sample_bilinear(img, x, y)


def test_bilinear_reads_fortran_ordered_pixels_in_row_major_order():
    """A GrayImage keeps its pixels C-ordered, so the flat index y * w + x
    names pixel (x, y) whatever the order of the array it was made from."""
    px = np.asfortranarray(np.arange(20.0).reshape(4, 5))
    img = GrayImage(px)
    assert img.pixels.flags.c_contiguous
    xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
    assert sample_bilinear(img, xs, ys).tobytes() == px.tobytes(order="C")


# --------------------------------------------------------------- segments

@st.composite
def segment_sets(draw):
    """(a, b) of 1..12 segments at one scale of 0.1..1000 px, some of zero
    length, with endpoints anywhere within ten scales of the origin."""
    n = draw(st.integers(1, 12))
    scale = draw(st.floats(0.1, 1000.0))
    unit = st.floats(-1.0, 1.0)
    a = draw(arrays(np.float64, (n, 2), elements=unit)) * (10.0 * scale)
    b = a + draw(arrays(np.float64, (n, 2), elements=unit)) * scale
    still = draw(arrays(np.bool_, n))
    b[still] = a[still]
    return a, b


@PROPERTY
@given(segments=segment_sets())
@example(segments=(np.zeros((1, 2)), np.zeros((1, 2))))
@example(segments=(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[0.0, 0.1], [3.0, 4.0]])))
@example(segments=(np.array([[5.0, 5.0]]), np.array([[1005.0, -995.0]])))
def test_segment_points_equal_per_segment_linspace_oracle(segments):
    """All segments spaced at once give the per-segment np.linspace points
    byte for byte: zero-length segments get their two samples, and every
    segment starts at a and ends at a + (b - a)."""
    a, b = segments
    got = imaging.segment_points(a, b)
    assert got.tobytes() == reference_imaging.segment_points(a, b).tobytes()
    steps = np.array([max(2, int(np.ceil(2 * np.linalg.norm(d)))) for d in b - a])
    starts = np.cumsum(steps) - steps
    assert got.shape == (steps.sum(), 2)
    assert np.array_equal(got[starts], a)
    assert np.array_equal(got[starts + steps - 1], a + (b - a))
