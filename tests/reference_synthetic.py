"""The synthetic face generator written out feature by feature, used as an
oracle for asmfit.synthetic.

Each ellipse's center and radii are spelled twice, once for its landmarks
and once for its fill, and the nose is stroked point by point: every
sample of a segment a -> b (max(2, ceil(2 |b - a|)) points of
np.linspace(0, 1, steps)) is rounded half to even with Python's round and
paints the 3x3 block around it, clipped to the canvas. The rng draws, the
fill order and the noise are the library's, so the same seed must give the
same bytes.
"""

import numpy as np

from asmfit.dataset_io import AnnotatedSample
from asmfit.imaging import GrayImage
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.shape_model import Shape
from asmfit.synthetic import (
    BACKGROUND,
    BROW_FILL,
    EYE_FILL,
    FACE_FILL,
    MOUTH_FILL,
    NOSE_FILL,
)


def ellipse_points(center, rx, ry, count):
    theta = np.arange(count) * (2 * np.pi / count)
    return np.column_stack([center[0] + rx * np.cos(theta), center[1] + ry * np.sin(theta)])


def fill_ellipse(canvas, center, rx, ry, value):
    h, w = canvas.shape
    ys, xs = np.ogrid[:h, :w]
    mask = ((xs - center[0]) / rx) ** 2 + ((ys - center[1]) / ry) ** 2 <= 1.0
    canvas[mask] = value


def stroke_polyline(canvas, points, value):
    h, w = canvas.shape
    for a, b in zip(points[:-1], points[1:]):
        steps = max(2, int(np.ceil(np.linalg.norm(b - a) * 2)))
        for t in np.linspace(0.0, 1.0, steps):
            x, y = a + t * (b - a)
            cx, cy = int(round(x)), int(round(y))
            y0, y1 = max(cy - 1, 0), min(cy + 2, h)
            x0, x1 = max(cx - 1, 0), min(cx + 2, w)
            canvas[y0:y1, x0:x1] = value


def nose_points(center, half_width, top_y, base_y):
    apex = np.array([center, top_y])
    left = np.array([center - half_width, base_y])
    right = np.array([center + half_width, base_y])
    ts = np.linspace(0.0, 1.0, 5)
    left_leg = left + ts[:, None] * (apex - left)
    right_leg = apex + ts[1:, None] * (right - apex)
    return np.vstack([left_leg, right_leg])


def generate_face(rng, size=256, noise_sigma=5.0):
    unit = size / 256.0
    scale = rng.uniform(0.85, 1.15)
    cx = size / 2 + rng.uniform(-12, 12) * unit
    cy = size / 2 + rng.uniform(-12, 12) * unit
    a = 70.0 * unit * scale * (1 + rng.uniform(-0.05, 0.05))
    b = 78.0 * unit * scale * (1 + rng.uniform(-0.05, 0.05))

    def jit(lo=-0.1, hi=0.1):
        return 1.0 + rng.uniform(lo, hi)

    brow_dx, brow_dy = 0.42 * a, -0.46 * b * jit(-0.05, 0.05)
    brow_rx, brow_ry = 0.20 * a * jit(), 0.08 * b * jit()
    eye_dx, eye_dy = 0.40 * a, -0.20 * b * jit(-0.05, 0.05)
    eye_rx, eye_ry = 0.16 * a * jit(), 0.09 * b * jit()
    mouth_dy = 0.55 * b * jit(-0.05, 0.05)
    mouth_rx, mouth_ry = 0.24 * a * jit(), 0.09 * b * jit()
    nose_hw = 0.14 * a * jit()
    nose_top = cy - 0.12 * b
    nose_base = cy + 0.20 * b * jit(-0.05, 0.05)

    face_center = np.array([cx, cy])
    groups = {
        "face_boundary": ellipse_points(face_center, a, b, 15),
        "right_eyebrow": ellipse_points(face_center + (-brow_dx, brow_dy), brow_rx, brow_ry, 8),
        "left_eyebrow": ellipse_points(face_center + (brow_dx, brow_dy), brow_rx, brow_ry, 8),
        "left_eye": ellipse_points(face_center + (eye_dx, eye_dy), eye_rx, eye_ry, 8),
        "right_eye": ellipse_points(face_center + (-eye_dx, eye_dy), eye_rx, eye_ry, 8),
        "nose": nose_points(cx, nose_hw, nose_top, nose_base),
        "mouth": ellipse_points(face_center + (0.0, mouth_dy), mouth_rx, mouth_ry, 12),
    }
    points = np.vstack([groups[g.name] for g in DEFAULT_SCHEME.groups])

    canvas = np.full((size, size), BACKGROUND)
    fill_ellipse(canvas, face_center, a, b, FACE_FILL)
    fill_ellipse(canvas, face_center + (-brow_dx, brow_dy), brow_rx, brow_ry, BROW_FILL)
    fill_ellipse(canvas, face_center + (brow_dx, brow_dy), brow_rx, brow_ry, BROW_FILL)
    fill_ellipse(canvas, face_center + (eye_dx, eye_dy), eye_rx, eye_ry, EYE_FILL)
    fill_ellipse(canvas, face_center + (-eye_dx, eye_dy), eye_rx, eye_ry, EYE_FILL)
    fill_ellipse(canvas, face_center + (0.0, mouth_dy), mouth_rx, mouth_ry, MOUTH_FILL)
    stroke_polyline(canvas, groups["nose"], NOSE_FILL)
    canvas += rng.normal(0.0, noise_sigma, canvas.shape)
    canvas = np.clip(np.rint(canvas), 0, 255)
    return GrayImage(canvas), Shape(points)


def generate_face_dataset(count=40, size=256, seed=0, noise_sigma=5.0):
    rng = np.random.default_rng(seed)
    return [AnnotatedSample(f"face_{i:03d}", *generate_face(rng, size, noise_sigma))
            for i in range(count)]
