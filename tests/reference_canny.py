"""Two Canny oracles for the tests.

`reference_canny` is a brute-force loop Canny: the library's conventions
(5x5 Gaussian sigma 1.4, replicated borders, Sobel, 4-sector suppression
with the first-of-ridge tie rule, 8-connected transitive hysteresis)
written as explicit per-pixel loops with breadth-first hysteresis. Its
sums round differently, so it agrees with the library only away from
floating-point ties.

`vectorized_canny` is the library's former whole-image form: Sobel by
ndimage.correlate, every pixel's direction folded with np.mod, and
suppression by one masked slice comparison per direction. The library
must equal it byte for byte.
"""

import math
from collections import deque

import numpy as np
from scipy import ndimage

import reference_imaging

SOBEL_X = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
SOBEL_Y = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]

BEFORE = {0: (0, -1), 1: (-1, -1), 2: (-1, 0), 3: (-1, 1)}
AFTER = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}


def _gauss5(sigma=1.4):
    k = [[math.exp(-(x * x + y * y) / (2 * sigma * sigma))
          for x in (-2, -1, 0, 1, 2)] for y in (-2, -1, 0, 1, 2)]
    total = sum(sum(row) for row in k)
    return [[v / total for v in row] for row in k]


def _correlate(pixels, kernel):
    h, w = pixels.shape
    half = len(kernel) // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-half, half + 1):
                for dx in range(-half, half + 1):
                    sy = min(max(y + dy, 0), h - 1)
                    sx = min(max(x + dx, 0), w - 1)
                    acc += kernel[dy + half][dx + half] * pixels[sy, sx]
            out[y, x] = acc
    return out


def reference_canny(pixels, low, high):
    pixels = np.asarray(pixels, dtype=float)
    smoothed = _correlate(pixels, _gauss5())
    gx = _correlate(smoothed, SOBEL_X)
    gy = _correlate(smoothed, SOBEL_Y)
    h, w = pixels.shape
    mag = np.zeros((h, w))
    sector = np.zeros((h, w), dtype=int)
    for y in range(h):
        for x in range(w):
            mag[y, x] = math.sqrt(gx[y, x] ** 2 + gy[y, x] ** 2)
            angle = math.atan2(gy[y, x], gx[y, x]) % math.pi
            if math.pi / 8 <= angle < 3 * math.pi / 8:
                sector[y, x] = 1
            elif 3 * math.pi / 8 <= angle < 5 * math.pi / 8:
                sector[y, x] = 2
            elif 5 * math.pi / 8 <= angle < 7 * math.pi / 8:
                sector[y, x] = 3

    def at(y, x):
        if 0 <= y < h and 0 <= x < w:
            return mag[y, x]
        return 0.0

    keep = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            dy_b, dx_b = BEFORE[sector[y, x]]
            dy_a, dx_a = AFTER[sector[y, x]]
            keep[y, x] = (mag[y, x] > at(y + dy_b, x + dx_b)
                          and mag[y, x] >= at(y + dy_a, x + dx_a))

    strong = keep & (mag >= high)
    weak = keep & (mag >= low)
    edges = np.zeros((h, w), dtype=np.uint8)
    queue = deque((y, x) for y in range(h) for x in range(w) if strong[y, x])
    for y, x in queue:
        edges[y, x] = 1
    while queue:
        y, x = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = 1
                    queue.append((ny, nx))
    return edges


def vectorized_canny(pixels, low, high):
    """Binary Canny edge map (uint8 0/1), computed on every pixel."""
    ax = np.arange(-2.0, 3.0)
    xx, yy = np.meshgrid(ax, ax)
    kernel = np.exp(-(xx * xx + yy * yy) / (2.0 * 1.4 * 1.4))
    smoothed = ndimage.correlate(pixels, kernel / kernel.sum(), mode="nearest")
    gx, gy, mag = reference_imaging.sobel(smoothed)

    angle = np.mod(np.arctan2(gy, gx), np.pi)
    sector = np.zeros(mag.shape, dtype=int)
    sector[(angle >= np.pi / 8) & (angle < 3 * np.pi / 8)] = 1
    sector[(angle >= 3 * np.pi / 8) & (angle < 5 * np.pi / 8)] = 2
    sector[(angle >= 5 * np.pi / 8) & (angle < 7 * np.pi / 8)] = 3

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


def ramp_step_fixture(size=16):
    """Vertical step with a gentle ramp on the bright side.

    The asymmetry keeps every suppression comparison away from exact
    ties, so the vectorized and loop implementations must agree
    pixel-for-pixel.
    """
    img = np.empty((size, size))
    for c in range(size):
        img[:, c] = 10.0 if c <= 6 else 210.0 + 3.0 * (c - 7)
    return img
