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

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()


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
    """(gx, gy, magnitude) of the 3x3 Sobel kernels with replicated borders."""
    gx = ndimage.correlate(pixels, SOBEL_X, mode="nearest")
    gy = ndimage.correlate(pixels, SOBEL_Y, mode="nearest")
    return gx, gy, np.sqrt(gx * gx + gy * gy)


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
    8-connected component touching a strong pixel.
    """
    if not (0 <= low <= high):
        raise ThresholdError(f"need 0 <= low <= high, got low={low} high={high}")
    smoothed = ndimage.correlate(image.pixels, _gaussian_kernel_5x5(1.4), mode="nearest")
    gx, gy, mag = _sobel(smoothed)

    # Quantize direction to 0/45/90/135 degrees. Angles in [-pi, pi]; fold
    # to [0, pi) since opposite directions share a suppression axis.
    angle = np.mod(np.arctan2(gy, gx), np.pi)
    sector = np.zeros(mag.shape, dtype=int)
    sector[(angle >= np.pi / 8) & (angle < 3 * np.pi / 8)] = 1
    sector[(angle >= 3 * np.pi / 8) & (angle < 5 * np.pi / 8)] = 2
    sector[(angle >= 5 * np.pi / 8) & (angle < 7 * np.pi / 8)] = 3

    # Each sector's neighbors along the gradient axis are slices of the
    # zero-padded magnitude, at -(dy, dx) ("before", the row-major-earlier
    # one) and +(dy, dx) ("after"). A ridge of equal magnitudes keeps only
    # its first pixel (strict > before, >= after).
    h, w = mag.shape
    padded = np.pad(mag, 1)
    keep = np.zeros(mag.shape, dtype=bool)
    for s, (dy, dx) in enumerate(((0, 1), (1, 1), (1, 0), (1, -1))):
        before = padded[1 - dy:h + 1 - dy, 1 - dx:w + 1 - dx]
        after = padded[1 + dy:h + 1 + dy, 1 + dx:w + 1 + dx]
        keep |= (sector == s) & (mag > before) & (mag >= after)

    strong = keep & (mag >= high)
    weak_or_strong = keep & (mag >= low)
    labels, count = ndimage.label(weak_or_strong, structure=np.ones((3, 3), dtype=int))
    if count == 0:
        return np.zeros(mag.shape, dtype=np.uint8)
    anchored = np.zeros(count + 1, dtype=bool)
    anchored[np.unique(labels[strong])] = True
    anchored[0] = False
    return (anchored[labels]).astype(np.uint8)


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
