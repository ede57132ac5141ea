import numpy as np
import pytest

from asmfit.errors import ImageSizeError, ThresholdError
from asmfit.imaging import (
    GradientField,
    GrayImage,
    build_pyramid,
    canny_edges,
    equalize_histogram,
    sample_bilinear,
    sobel_gradients,
)

from reference_canny import ramp_step_fixture, reference_canny


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


# ----------------------------------------------------------------- canny

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
    out = canny_edges(GrayImage(np.full((10, 10), 25.0)))
    assert not out.any()
    assert out.shape == (10, 10)


def test_canny_output_is_binary():
    out = canny_edges(GrayImage(ramp_step_fixture()), 50.0, 150.0)
    assert set(np.unique(out)).issubset({0, 1})


def test_canny_threshold_validation():
    img = GrayImage(np.zeros((8, 8)))
    with pytest.raises(ThresholdError):
        canny_edges(img, 100.0, 50.0)
    with pytest.raises(ThresholdError):
        canny_edges(img, -1.0, 50.0)


# --------------------------------------------------------------- pyramid

def test_pyramid_block_average():
    px = np.arange(16.0).reshape(4, 4)
    pyr = build_pyramid(GrayImage(px), levels=2)
    want = np.array([[2.5, 4.5], [10.5, 12.5]])
    assert np.array_equal(pyr.levels[1].pixels, want)
    assert np.array_equal(pyr.levels[0].pixels, px)


def test_pyramid_odd_dimensions_floor():
    pyr = build_pyramid(GrayImage(np.zeros((5, 5))), levels=2)
    assert pyr.levels[1].pixels.shape == (2, 2)


def test_pyramid_shape_chain():
    pyr = build_pyramid(GrayImage(np.zeros((17, 12))), levels=3)
    assert [lvl.pixels.shape for lvl in pyr.levels] == [(17, 12), (8, 6), (4, 3)]
    assert len(pyr) == 3


def test_pyramid_single_level():
    img = GrayImage(np.zeros((3, 3)))
    pyr = build_pyramid(img, levels=1)
    assert len(pyr) == 1
    assert np.array_equal(pyr.levels[0].pixels, img.pixels)


def test_pyramid_size_errors():
    with pytest.raises(ImageSizeError):
        build_pyramid(GrayImage(np.zeros((2, 2))), levels=3)
    with pytest.raises(ImageSizeError):
        build_pyramid(GrayImage(np.zeros((4, 4))), levels=0)


# -------------------------------------------------------------- sampling

def test_bilinear_exact_at_integers():
    px = np.arange(12.0).reshape(3, 4)
    img = GrayImage(px)
    for y in range(3):
        for x in range(4):
            assert sample_bilinear(img, x, y) == px[y, x]


def test_bilinear_midpoints():
    img = GrayImage(np.array([[0.0, 10.0], [20.0, 30.0]]))
    assert sample_bilinear(img, 0.5, 0.0) == pytest.approx(5.0)
    assert sample_bilinear(img, 0.0, 0.5) == pytest.approx(10.0)
    assert sample_bilinear(img, 0.5, 0.5) == pytest.approx(15.0)


def test_bilinear_clamps_outside():
    img = GrayImage(np.array([[0.0, 10.0], [20.0, 30.0]]))
    assert sample_bilinear(img, -5.0, -5.0) == 0.0
    assert sample_bilinear(img, 99.0, 99.0) == 30.0


def test_bilinear_array_arguments():
    img = GrayImage(np.arange(9.0).reshape(3, 3))
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 1.0, 2.0])
    assert np.allclose(sample_bilinear(img, xs, ys), [0.0, 4.0, 8.0])

