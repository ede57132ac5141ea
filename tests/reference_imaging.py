"""Imaging oracles: Sobel by ndimage.correlate, bilinear sampling by four
2-D gathers.

The library's Sobel adds shifted slices of the edge-padded image in the
order ndimage.correlate visits the kernel taps. `sobel` keeps the two
correlate calls it replaces.

The library gathers a sample's four neighbours from the raveled pixels at
one flat index. This module keeps the form it replaces: both coordinates
clipped twice, x1 = min(x0 + 1, w - 1) and y1 = min(y0 + 1, h - 1), and
four 2-D fancy indexes. The arithmetic is the library's, in the same order.
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
