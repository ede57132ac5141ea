"""Grayscale image operations: equalization, Sobel, Canny, pyramid, sampling.

Images are float64 (h, w) arrays with intensities in [0, 255]. All
convolutions replicate the border pixel so gradients near face-boundary
landmarks are not contaminated by a zero halo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ImageSizeError, ThresholdError

# Quantized gradient directions 1, 2, 3 (45, 90, 135 degrees) start at the
# first three of these angles in [0, pi]; direction 0 lies below the first
# and at or past the last, where the count of starts passed is 4.
_SECTOR_STARTS = np.array([np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8])


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable grayscale image, row-major, intensities in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.array(self.pixels, dtype=float, order="C")
        if px.ndim != 2 or px.size == 0:
            raise ImageSizeError(f"expected a non-empty 2-D pixel array, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ImageSizeError("image contains non-finite intensities")
        if px.min() < 0 or px.max() > 255:
            raise ImageSizeError("intensities must lie in [0, 255]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class GradientField:
    """Per-pixel x/y derivatives and their Euclidean magnitude."""

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        for name in ("gx", "gy", "magnitude"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.gx.shape == self.gy.shape == self.magnitude.shape):
            raise ImageSizeError("gradient components must share one shape")


@dataclass(frozen=True, eq=False)
class ImagePyramid:
    """Coarse-to-fine image stack; levels[0] is full resolution."""

    levels: tuple

    def __len__(self) -> int:
        return len(self.levels)


def equalize_histogram(image: GrayImage) -> GrayImage:
    """Spread intensities by the 256-bin CDF remap.

    out = round(255 * (cdf(v) - cdf_min) / (N - cdf_min)); a constant image
    is returned unchanged (nothing to spread).
    """
    px = image.pixels
    bins = np.clip(np.rint(px).astype(int), 0, 255)
    hist = np.bincount(bins.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    occupied = np.flatnonzero(hist)
    cdf_min = cdf[occupied[0]]
    total = px.size
    if total == cdf_min:
        return image
    lut = np.rint(255.0 * (cdf - cdf_min) / (total - cdf_min))
    return GrayImage(np.clip(lut[bins], 0, 255))


def _sobel(pixels: np.ndarray):
    """(gx, gy, magnitude) of the 3x3 Sobel kernels with replicated borders.

    SOBEL_X is [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]] and SOBEL_Y its
    transpose. The result is byte-equal to ndimage.correlate with them,
    which adds pixel * weight over the nonzero taps in the kernel's C
    order, starting from 0.0. Here each tap is a slice of the edge-padded
    image, added or subtracted in that order: every weight is +-1 or +-2,
    so each product is exact and the sums round alike. Starting from
    0.0 - p gives a zero the sign that 0.0 + p * -1 gives it.
    """
    h, w = pixels.shape
    padded = np.pad(pixels, 1, mode="edge")

    def tap(row, col):
        return padded[row:row + h, col:col + w]

    # A new array faults in its pages on first write, so the magnitude's
    # array holds the doubled taps until its turn, and the spent padded
    # image holds gy * gy.
    gx = np.subtract(0.0, tap(0, 0))
    gy = gx.copy()
    mag = np.multiply(2.0, tap(1, 0))
    # SOBEL_X: (0,0) -1, (0,2) +1, (1,0) -2, (1,2) +2, (2,0) -1, (2,2) +1.
    gx += tap(0, 2)
    gx -= mag
    gx += np.multiply(2.0, tap(1, 2), out=mag)
    gx -= tap(2, 0)
    gx += tap(2, 2)
    # SOBEL_Y: (0,0) -1, (0,1) -2, (0,2) -1, (2,0) +1, (2,1) +2, (2,2) +1.
    gy -= np.multiply(2.0, tap(0, 1), out=mag)
    gy -= tap(0, 2)
    gy += tap(2, 0)
    gy += np.multiply(2.0, tap(2, 1), out=mag)
    gy += tap(2, 2)
    np.multiply(gx, gx, out=mag)
    mag += np.multiply(gy, gy, out=tap(0, 0))
    return gx, gy, np.sqrt(mag, out=mag)


def sobel_gradients(image: GrayImage) -> GradientField:
    """3x3 Sobel derivatives with replicated borders."""
    if image.width < 3 or image.height < 3:
        raise ImageSizeError(f"need at least 3x3 for gradients, got {image.width}x{image.height}")
    return GradientField(*_sobel(image.pixels))


def _gaussian_kernel_5x5(sigma: float) -> np.ndarray:
    ax = np.arange(-2.0, 3.0)
    xx, yy = np.meshgrid(ax, ax)
    k = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    return k / k.sum()


def canny_edges(image: GrayImage, low: float = 50.0, high: float = 150.0) -> np.ndarray:
    """Binary Canny edge map (uint8 0/1).

    Pipeline: 5x5 Gaussian blur (sigma 1.4), Sobel gradients, non-maximum
    suppression along the gradient direction quantized to 4 bins, then
    double-threshold hysteresis where weak pixels survive only in an
    8-connected component touching a strong pixel. A pixel below `low`
    can never be an edge, so direction and suppression run only on the
    pixels at or above it.
    """
    if not (0 <= low <= high):
        raise ThresholdError(f"need 0 <= low <= high, got low={low} high={high}")
    smoothed = ndimage.correlate(image.pixels, _gaussian_kernel_5x5(1.4), mode="nearest")
    gx, gy, mag = _sobel(smoothed)
    h, w = mag.shape
    cand = np.flatnonzero(mag >= low)

    # Quantize direction to 0/45/90/135 degrees. Angles in [-pi, pi]; fold
    # (-pi, 0) to (0, pi) since opposite directions share a suppression
    # axis. Adding pi there rounds as np.mod(angle, pi) does; elsewhere
    # adding 0.0 changes nothing but -0.0. Both -0.0 and -pi fold to 0, and
    # pi lands at or past the last sector start: all direction 0.
    angle = np.arctan2(gy.take(cand), gx.take(cand))
    angle += np.pi * (angle < 0)
    sector = (angle >= _SECTOR_STARTS[0]).view(np.int8)
    for start in _SECTOR_STARTS[1:]:
        sector += angle >= start

    # Each direction's neighbours along the gradient axis sit at a flat
    # offset (dy, dx) -> dy * (w + 2) + dx of the zero-padded magnitude:
    # "before" (the row-major-earlier one) at minus it, "after" at plus it.
    # A ridge of equal magnitudes keeps only its first pixel (strict >
    # before, >= after).
    # Candidate i = y * w + x sits at (y + 1) * (w + 2) + x + 1 there.
    padded = np.pad(mag, 1).ravel()
    step = np.array([1, w + 3, w + 2, w + 1, 1]).take(sector)
    at = cand // w * 2 + cand + (w + 3)
    value = padded.take(at)
    keep = (value > padded.take(at - step)) & (value >= padded.take(at + step))
    edges = cand[keep]

    weak_or_strong = np.zeros(h * w, dtype=bool)
    weak_or_strong[edges] = True
    labels, count = ndimage.label(weak_or_strong.reshape(h, w),
                                  structure=np.ones((3, 3), dtype=int))
    anchored = np.zeros(count + 1, dtype=np.uint8)
    anchored[labels.take(edges[value[keep] >= high])] = 1
    return anchored.take(labels)


def build_pyramid(image: GrayImage, levels: int = 3) -> ImagePyramid:
    """Stack of `levels` images, each the 2x2 block average of the previous."""
    if levels < 1:
        raise ImageSizeError(f"need at least 1 level, got {levels}")
    out = [image]
    for _ in range(levels - 1):
        prev = out[-1].pixels
        h2, w2 = prev.shape[0] // 2, prev.shape[1] // 2
        if h2 < 1 or w2 < 1:
            raise ImageSizeError(
                f"image {image.width}x{image.height} too small for {levels} pyramid levels"
            )
        block = prev[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2)
        out.append(GrayImage(block.mean(axis=(1, 3))))
    return ImagePyramid(tuple(out))


def sample_bilinear(image: GrayImage, x, y):
    """Bilinear interpolation at real coordinates, clamped to the border.

    Accepts scalars or equally shaped arrays; returns matching shape. The
    four neighbours are gathered from the raveled pixels at one flat index
    y0 * w + x0. On the last column or row the neighbour past it is read
    from the next row, or clipped to the last pixel, but its weight there
    is exactly 0. A NaN coordinate gives NaN.
    """
    px = image.pixels
    h, w = px.shape
    flat_px = px.ravel()
    xq = np.clip(np.asarray(x, dtype=float), 0.0, w - 1.0)
    yq = np.clip(np.asarray(y, dtype=float), 0.0, h - 1.0)
    x0 = np.floor(xq)
    y0 = np.floor(yq)
    i = (y0 * w + x0).astype(np.intp)
    fx = xq - x0
    fy = yq - y0
    top = flat_px.take(i, mode="clip") * (1 - fx) + flat_px.take(i + 1, mode="clip") * fx
    i += w
    bot = flat_px.take(i, mode="clip") * (1 - fx) + flat_px.take(i + 1, mode="clip") * fx
    val = top * (1 - fy) + bot * fy
    if np.isscalar(x):
        return float(val)
    return val
