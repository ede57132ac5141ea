"""Grayscale image operations: equalization, Sobel, Canny, pyramid, sampling,
and the rasterizer that draws polylines and marks into a pixel array.

Images are float64 (h, w) arrays with intensities in [0, 255]. All
convolutions replicate the border pixel so gradients near face-boundary
landmarks are not contaminated by a zero halo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ImageSizeError, check_canny_thresholds, check_levels, readonly

# Quantized gradient directions 1, 2, 3 (45, 90, 135 degrees) start at the
# first three of these angles in [0, pi]; direction 0 lies below the first
# and at or past the last, where the count of starts passed is 4.
_SECTOR_STARTS = np.array([np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8])
# The nine pixels of a 3x3 mark, relative to its rounded center.
_MARK_OFFSETS = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), axis=-1).reshape(9, 2)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable grayscale image, row-major, intensities in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = readonly(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ImageSizeError(f"expected a non-empty 2-D pixel array, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ImageSizeError("image contains non-finite intensities")
        if px.min() < 0 or px.max() > 255:
            raise ImageSizeError("intensities must lie in [0, 255]")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def contains(self, points) -> np.ndarray:
        """(n,) mask of the (n, 2) (x, y) points with 0 <= x <= w - 1 and 0 <= y <= h - 1."""
        x, y = points[:, 0], points[:, 1]
        return (x >= 0) & (x <= self.width - 1) & (y >= 0) & (y <= self.height - 1)


@dataclass(frozen=True, eq=False)
class GradientField:
    """Per-pixel x/y derivatives and their Euclidean magnitude."""

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        for name in ("gx", "gy", "magnitude"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        if not (self.gx.shape == self.gy.shape == self.magnitude.shape):
            raise ImageSizeError("gradient components must share one shape")


def equalize_histogram(image: GrayImage) -> GrayImage:
    """Spread intensities by the 256-bin CDF remap.

    out = round(255 * (cdf(v) - cdf_min) / (N - cdf_min)); a constant image
    is returned unchanged (nothing to spread).
    """
    px = image.pixels
    # GrayImage holds [0, 255], so every bin is in range; the LUT entries
    # that can be read lie in [0, 255] too.
    bins = np.rint(px).astype(np.intp)
    hist = np.bincount(bins.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    occupied = np.flatnonzero(hist)
    cdf_min = cdf[occupied[0]]
    total = px.size
    if total == cdf_min:
        return image
    lut = np.rint(255.0 * (cdf - cdf_min) / (total - cdf_min))
    out = lut.take(bins)
    out.setflags(write=False)  # owned here, so GrayImage keeps it without a copy
    return GrayImage(out)


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
    # np.pad(pixels, 1, mode="edge"), built by slice copies.
    padded = np.empty((h + 2, w + 2))
    padded[1:-1, 1:-1] = pixels
    padded[0, 1:-1] = pixels[0]
    padded[-1, 1:-1] = pixels[-1]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]

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
    gradients = _sobel(image.pixels)
    for arr in gradients:  # fresh, so GradientField keeps them without a copy
        arr.setflags(write=False)
    return GradientField(*gradients)


def _gaussian_kernel_5x5(sigma: float) -> np.ndarray:
    ax = np.arange(-2.0, 3.0)
    xx, yy = np.meshgrid(ax, ax)
    k = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    return k / k.sum()


# Canny's blur, built once.
_CANNY_BLUR = _gaussian_kernel_5x5(1.4)
_CANNY_BLUR.setflags(write=False)


def canny_edges(image: GrayImage, low: float, high: float) -> np.ndarray:
    """Binary Canny edge map (uint8 0/1).

    Pipeline: 5x5 Gaussian blur (sigma 1.4), Sobel gradients, non-maximum
    suppression along the gradient direction quantized to 4 bins, then
    double-threshold hysteresis where weak pixels survive only in an
    8-connected component touching a strong pixel. A pixel below `low`
    can never be an edge, so direction and suppression run only on the
    pixels at or above it, and the hysteresis result is written only at
    the pixels that survive suppression; every other pixel stays 0.
    """
    check_canny_thresholds(low, high)
    smoothed = ndimage.correlate(image.pixels, _CANNY_BLUR, mode="nearest")
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
    padded = np.empty((h + 2, w + 2))
    padded[1:-1, 1:-1] = mag
    padded[0] = padded[-1] = 0.0
    padded[1:-1, 0] = padded[1:-1, -1] = 0.0
    padded = padded.ravel()
    step = np.array([1, w + 3, w + 2, w + 1, 1]).take(sector)
    at = cand // w * 2 + cand + (w + 3)
    value = padded.take(at)
    keep = (value > padded.take(at - step)) & (value >= padded.take(at + step))
    edges = cand[keep]

    weak_or_strong = np.zeros(h * w, dtype=bool)
    weak_or_strong[edges] = True
    labels, count = ndimage.label(weak_or_strong.reshape(h, w),
                                  structure=np.ones((3, 3), dtype=int))
    # Only survivors carry a label, so they are the only pixels to write.
    edge_labels = labels.take(edges)
    anchored = np.zeros(count + 1, dtype=np.uint8)
    anchored[edge_labels[value[keep] >= high]] = 1
    out = np.zeros(h * w, dtype=np.uint8)
    out[edges] = anchored.take(edge_labels)
    return out.reshape(h, w)


def build_pyramid(image: GrayImage, levels: int) -> tuple:
    """Tuple of `levels` images, the input image first, each next one the
    2x2 block average of the one before.

    levels is an integer >= 1 (not a bool); any other raises ShapeArityError,
    as FitConfig does. An odd last row or column is dropped. Each block's
    four pixels are summed from four strided slices, in the order numpy's
    mean over the blocks adds them, then divided by 4, so a level is
    byte-equal to reshape(h2, 2, w2, 2).mean(axis=(1, 3)).
    """
    check_levels(levels)
    out = [image]
    for _ in range(levels - 1):
        prev = out[-1].pixels
        h2, w2 = prev.shape[0] // 2, prev.shape[1] // 2
        if h2 < 1 or w2 < 1:
            raise ImageSizeError(
                f"image {image.width}x{image.height} too small for {levels} pyramid levels"
            )
        top, bottom = prev[0:2 * h2:2], prev[1:2 * h2:2]
        total = top[:, 0:2 * w2:2] + top[:, 1:2 * w2:2]
        if w2 > 1:
            total += bottom[:, 0:2 * w2:2] + bottom[:, 1:2 * w2:2]
        else:
            total += bottom[:, 0:1]
            total += bottom[:, 1:2]
        total /= 4
        # mean's sum starts from +0.0, so a block of four -0.0 averages to +0.0.
        total += 0.0
        total.setflags(write=False)  # owned here, so GrayImage keeps it without a copy
        out.append(GrayImage(total))
    return tuple(out)


def sample_bilinear(image: GrayImage, x, y):
    """Bilinear interpolation at real coordinates, clamped to the border.

    x and y are equally shaped arrays; returns that shape. The four
    neighbours are gathered from the raveled pixels at one flat index
    y0 * w + x0. On the last column or row the neighbour past it is read
    from the next row, or clipped to the last pixel, but its weight there
    is exactly 0. A NaN coordinate gives NaN.

    The arithmetic is top = p00 * (1 - fx) + p01 * fx, bot likewise, then
    top * (1 - fy) + bot * fy. Each step writes in place into an array this
    call already made (the clipped coordinates, their floors, the gathered
    pixels), which gives the same bytes with fewer temporaries.
    """
    px = image.pixels
    h, w = px.shape
    flat_px = px.ravel()
    xq = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), 0.0, w - 1.0)
    yq = np.clip(np.atleast_1d(np.asarray(y, dtype=float)), 0.0, h - 1.0)
    x0 = np.floor(xq)
    y0 = np.floor(yq)
    left = y0 * w
    left += x0
    left = left.astype(np.intp)
    right = left + 1
    fx = np.subtract(xq, x0, out=x0)
    fy = np.subtract(yq, y0, out=y0)
    fx_left = np.subtract(1, fx, out=xq)
    top = flat_px.take(left, mode="clip")
    top *= fx_left
    part = flat_px.take(right, mode="clip")
    part *= fx
    top += part
    left += w
    right += w
    bot = flat_px.take(left, mode="clip")
    bot *= fx_left
    flat_px.take(right, mode="clip", out=part)
    part *= fx
    bot += part
    bot *= fy
    top *= np.subtract(1, fy, out=yq)
    top += bot
    return top.reshape(np.shape(x))


def segment_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Points along each segment a[i] -> b[i], segment by segment: a + t (b - a)
    at max(2, ceil(2 |b - a|)) values of np.linspace(0, 1, steps), spaced for
    all segments at once with linspace's arithmetic: t = i * (1 / (steps - 1)),
    and t = 1 at each segment's end."""
    delta = b - a
    # vecdot rounds like np.linalg.norm of one segment, so the counts match it.
    steps = np.maximum(2, np.ceil(np.sqrt(np.vecdot(delta, delta)) * 2)).astype(int)
    seg = np.repeat(np.arange(len(a)), steps)
    starts = np.cumsum(steps) - steps
    t = (np.arange(len(seg)) - starts[seg]) * (1.0 / (steps - 1))[seg]
    t[starts + steps - 1] = 1.0
    return a[seg] + t[:, None] * delta[seg]


def marks(xy: np.ndarray) -> np.ndarray:
    """The nine pixel positions of a 3x3 mark around each rounded (x, y) row."""
    return (np.rint(xy)[:, None, :] + _MARK_OFFSETS).reshape(-1, 2)


def paint(canvas: np.ndarray, xy: np.ndarray, value) -> None:
    """Set the pixel at every (x, y) row of xy, rounded half to even, that
    lies inside canvas (h, w) or (h, w, channels)."""
    h, w = canvas.shape[:2]
    px = np.rint(xy)
    inside = (px[:, 0] >= 0) & (px[:, 0] < w) & (px[:, 1] >= 0) & (px[:, 1] < h)
    px = px[inside].astype(np.intp)
    canvas[px[:, 1], px[:, 0]] = value
