"""Imaging oracles: Sobel by ndimage.correlate and on an np.pad border,
equalization by a clipped fancy index, the pyramid by a block mean,
bilinear sampling by four 2-D gathers.

The library's Sobel adds shifted slices of the edge-padded image in the
order ndimage.correlate visits the kernel taps. `sobel` keeps the two
correlate calls it replaces. `sobel_np_pad` is the slice-add form on a
border made by np.pad(mode="edge"); the library builds that border by
slice copies.

`equalize` clips the bins and the remapped values, and maps by a fancy
index; the library drops both clips, which change nothing on [0, 255]
pixels, and maps with one take. `pyramid_level` averages 2x2 blocks with
reshape(...).mean(axis=(1, 3)); the library sums four strided slices in
the order that mean adds them.

The library gathers a sample's four neighbours from the raveled pixels at
one flat index. This module keeps the form it replaces: both coordinates
clipped twice, x1 = min(x0 + 1, w - 1) and y1 = min(y0 + 1, h - 1), and
four 2-D fancy indexes. The arithmetic is the library's, in the same order.

The library spaces every segment's samples with one arange scaled by each
segment's 1 / (steps - 1), its last sample set to 1, as np.linspace does.
`segment_points` keeps the form it replaces: one np.linspace per segment.
"""

import numpy as np
from scipy import ndimage

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()


def sobel(pixels):
    """(gx, gy, magnitude) of the 3x3 Sobel kernels with replicated borders."""
    gx = ndimage.correlate(pixels, SOBEL_X, mode="nearest")
    gy = ndimage.correlate(pixels, SOBEL_Y, mode="nearest")
    return gx, gy, np.sqrt(gx * gx + gy * gy)


def sobel_np_pad(pixels):
    """(gx, gy, magnitude) of the slice-add Sobel on an np.pad edge border."""
    h, w = pixels.shape
    padded = np.pad(pixels, 1, mode="edge")

    def tap(row, col):
        return padded[row:row + h, col:col + w]

    gx = 0.0 - tap(0, 0)
    gy = 0.0 - tap(0, 0)
    gx = gx + tap(0, 2) - 2.0 * tap(1, 0) + 2.0 * tap(1, 2) - tap(2, 0) + tap(2, 2)
    gy = gy - 2.0 * tap(0, 1) - tap(0, 2) + tap(2, 0) + 2.0 * tap(2, 1) + tap(2, 2)
    return gx, gy, np.sqrt(gx * gx + gy * gy)


def equalize(pixels):
    """256-bin CDF remap of a non-constant image, both clips kept."""
    bins = np.clip(np.rint(pixels).astype(int), 0, 255)
    hist = np.bincount(bins.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    cdf_min = cdf[np.flatnonzero(hist)[0]]
    lut = np.rint(255.0 * (cdf - cdf_min) / (pixels.size - cdf_min))
    return np.clip(lut[bins], 0, 255)


def pyramid_level(pixels):
    """2x2 block average; an odd last row or column is dropped."""
    h2, w2 = pixels.shape[0] // 2, pixels.shape[1] // 2
    return pixels[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def sample_bilinear(image, x, y):
    """Bilinear interpolation at real coordinates, clamped to the border."""
    px = image.pixels
    h, w = px.shape
    xq = np.clip(np.asarray(x, dtype=float), 0.0, w - 1.0)
    yq = np.clip(np.asarray(y, dtype=float), 0.0, h - 1.0)
    x0 = np.clip(np.floor(xq).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(yq).astype(int), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xq - x0
    fy = yq - y0
    top = px[y0, x0] * (1 - fx) + px[y0, x1] * fx
    bot = px[y1, x0] * (1 - fx) + px[y1, x1] * fx
    val = top * (1 - fy) + bot * fy
    if np.isscalar(x):
        return float(val)
    return val


def segment_points(a, b):
    """Points along each segment a[i] -> b[i]: a + t (b - a) at
    max(2, ceil(2 |b - a|)) values of np.linspace(0, 1, steps), one segment
    after another."""
    delta = b - a
    steps = np.maximum(2, np.ceil(np.sqrt(np.vecdot(delta, delta)) * 2)).astype(int)
    t = np.concatenate([np.linspace(0.0, 1.0, n) for n in steps])
    seg = np.repeat(np.arange(len(a)), steps)
    return a[seg] + t[:, None] * delta[seg]
