"""Synthetic face-like dataset generator for benchmarks and tests.

Each face is an ellipse with elliptical eyebrows/eyes/mouth and a V-shaped
nose stroke, rendered with additive Gaussian noise and annotated with the
standard 68-landmark scheme. Geometry is randomized per face (position,
scale, feature jitter) but never rotated, so bounding-box initialization
is representative. Pixel values are quantized to integers so in-memory
data matches a PGM round trip exactly.
"""

from __future__ import annotations

import numpy as np

from .dataset_io import AnnotatedSample, save_pgm, write_points_file
from .imaging import GrayImage, marks, paint, segment_points
from .scheme import DEFAULT_SCHEME
from .shape_model import Shape

BACKGROUND = 200.0
FACE_FILL = 130.0
BROW_FILL = 60.0
EYE_FILL = 40.0
MOUTH_FILL = 70.0
NOSE_FILL = 60.0


def _ellipse_points(center, rx, ry, count):
    theta = np.arange(count) * (2 * np.pi / count)
    return np.column_stack([center[0] + rx * np.cos(theta), center[1] + ry * np.sin(theta)])


def _fill_ellipse(canvas, center, rx, ry, value):
    h, w = canvas.shape
    ys, xs = np.ogrid[:h, :w]
    mask = ((xs - center[0]) / rx) ** 2 + ((ys - center[1]) / ry) ** 2 <= 1.0
    canvas[mask] = value


def _nose_points(center, half_width, top_y, base_y):
    """9 points along an inverted V: 4 down the left leg, apex, 4 down the right."""
    apex = np.array([center, top_y])
    left = np.array([center - half_width, base_y])
    right = np.array([center + half_width, base_y])
    ts = np.linspace(0.0, 1.0, 5)
    left_leg = left + ts[:, None] * (apex - left)  # includes apex at t=1
    right_leg = apex + ts[1:, None] * (right - apex)
    return np.vstack([left_leg, right_leg])


def generate_face(rng, size: int = 256, noise_sigma: float = 5.0):
    """One rendered face and its 68 landmarks."""
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
    # Each ellipse's group, offset from the face center, radii, landmark
    # count and fill, in fill order; the nose stroke is drawn over them all.
    ellipses = (
        ("face_boundary", (0.0, 0.0), a, b, 15, FACE_FILL),
        ("right_eyebrow", (-brow_dx, brow_dy), brow_rx, brow_ry, 8, BROW_FILL),
        ("left_eyebrow", (brow_dx, brow_dy), brow_rx, brow_ry, 8, BROW_FILL),
        ("left_eye", (eye_dx, eye_dy), eye_rx, eye_ry, 8, EYE_FILL),
        ("right_eye", (-eye_dx, eye_dy), eye_rx, eye_ry, 8, EYE_FILL),
        ("mouth", (0.0, mouth_dy), mouth_rx, mouth_ry, 12, MOUTH_FILL),
    )
    canvas = np.full((size, size), BACKGROUND)
    groups = {"nose": _nose_points(cx, nose_hw, nose_top, nose_base)}
    for name, offset, rx, ry, count, fill in ellipses:
        center = face_center + offset
        groups[name] = _ellipse_points(center, rx, ry, count)
        _fill_ellipse(canvas, center, rx, ry, fill)
    points = np.vstack([groups[g.name] for g in DEFAULT_SCHEME.groups])
    nose = groups["nose"]
    paint(canvas, marks(segment_points(nose[:-1], nose[1:])), NOSE_FILL)
    canvas += rng.normal(0.0, noise_sigma, canvas.shape)
    canvas = np.clip(np.rint(canvas), 0, 255)
    return GrayImage(canvas), Shape(points)


def generate_face_dataset(count: int = 40, size: int = 256, seed: int = 0,
                          noise_sigma: float = 5.0):
    """Deterministic list of AnnotatedSample faces."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        image, shape = generate_face(rng, size, noise_sigma)
        samples.append(AnnotatedSample(f"face_{i:03d}", image, shape))
    return samples


def write_dataset(samples, images_dir, points_dir) -> None:
    """Write samples as paired .pgm/.pts files (directories must exist)."""
    for sample in samples:
        save_pgm(sample.image, f"{images_dir}/{sample.name}.pgm")
        write_points_file(sample.shape, f"{points_dir}/{sample.name}.pts")
