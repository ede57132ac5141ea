"""Shape algebra: Procrustes alignment, PCA shape models, constrained fitting.

Shapes are ordered 2-D landmark sets. Alignment removes translation,
rotation and scale; the aligned cloud is summarized by a linear model
``mean + modes @ b`` whose coefficients are clamped to keep synthesized
shapes close to the training distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DegenerateShapeError, InsufficientDataError, ShapeArityError, check_scale,
                     check_shape_limits, readonly)
from .profiles import retained_rank

# Centroid sizes below this are treated as a point mass (unusable geometry).
_DEGENERATE_SIZE = 1e-12

# Generalized Procrustes alignment stops once its mean moves less than
# _GPA_TOLERANCE in a round, or after _GPA_MAX_ROUNDS rounds.
_GPA_TOLERANCE = 1e-10
_GPA_MAX_ROUNDS = 100

# Defaults of build_shape_model and of training (TrainConfig).
DEFAULT_VARIANCE_FRACTION = 0.975
DEFAULT_CLAMP_ALPHA = 3.0


@dataclass(frozen=True, eq=False)
class Shape:
    """Ordered landmark set, stored as an (n, 2) array of (x, y) pixels.

    Immutable once constructed; the flat vector form interleaves
    coordinates as (x1, y1, ..., xn, yn).
    """

    points: np.ndarray

    def __post_init__(self):
        pts = readonly(self.points)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ShapeArityError(f"expected (n, 2) point array, got shape {pts.shape}")
        if pts.shape[0] < 3:
            raise ShapeArityError(f"need at least 3 landmarks, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise DegenerateShapeError("shape contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_vector(cls, vec) -> "Shape":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 2:
            raise ShapeArityError(f"flat shape vector must have even length, got {vec.shape}")
        return cls(vec.reshape(-1, 2))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def as_vector(self) -> np.ndarray:
        return self.points.ravel()

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) of the landmarks."""
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


@dataclass(frozen=True)
class SimilarityTransform:
    """Rigid scale/rotation/translation map p -> scale * R(rotation) p + translation."""

    scale: float
    rotation: float
    translation: np.ndarray

    def __post_init__(self):
        check_scale(self.scale)
        object.__setattr__(self, "translation", readonly(self.translation).reshape(2))

    def rotation_matrix(self) -> np.ndarray:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return np.array([[c, -s], [s, c]])

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.scale * pts @ self.rotation_matrix().T + self.translation


@dataclass(frozen=True, eq=False)
class ShapeModel:
    """Linear shape model: mean plus orthonormal deformation modes.

    ``modes`` is (2n, t) with unit columns; ``eigenvalues`` the matching
    per-mode variances, sorted non-increasing and all positive. Non-finite
    modes or eigenvalues raise DegenerateShapeError.
    """

    mean_shape: Shape
    modes: np.ndarray
    eigenvalues: np.ndarray
    variance_fraction: float
    clamp_alpha: float

    def __post_init__(self):
        # readonly gives C order, not eigh's Fortran order: BLAS rounds fit_params by layout.
        modes = readonly(self.modes)
        evals = readonly(self.eigenvalues)
        if modes.ndim != 2 or modes.shape[0] != 2 * self.mean_shape.n:
            raise ShapeArityError(f"modes must be (2n, t), got {modes.shape}")
        if evals.shape != (modes.shape[1],):
            raise ShapeArityError("one eigenvalue per mode required")
        if not np.isfinite(modes).all():
            raise DegenerateShapeError("shape modes must be finite")
        if not (np.isfinite(evals).all() and (evals > 0).all() and (np.diff(evals) <= 0).all()):
            raise DegenerateShapeError("eigenvalues must be finite, positive and non-increasing")
        check_shape_limits(self.variance_fraction, self.clamp_alpha)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "eigenvalues", evals)

    @property
    def n(self) -> int:
        return self.mean_shape.n

    @property
    def num_modes(self) -> int:
        return self.modes.shape[1]

    def coefficients(self, params) -> np.ndarray:
        """params as a float array, or ShapeArityError unless it holds one per mode."""
        b = np.asarray(params, dtype=float)
        if b.shape != (self.num_modes,):
            raise ShapeArityError(f"expected {self.num_modes} coefficients, got {b.shape}")
        return b

    def mode_limits(self) -> np.ndarray:
        """Per-mode clamp bound alpha * sqrt(lambda_i)."""
        return self.clamp_alpha * np.sqrt(self.eigenvalues)


class ParamFit(NamedTuple):
    """points is the posed model shape, transform applied to mean + modes @ params."""

    transform: SimilarityTransform
    params: np.ndarray
    residual: float
    points: np.ndarray


def _as_complex(points: np.ndarray) -> np.ndarray:
    return points[..., 0] + 1j * points[..., 1]


def _from_complex(z: np.ndarray) -> np.ndarray:
    return np.column_stack([z.real, z.imag])


def _canonical_spin(mean_z: np.ndarray) -> complex:
    # Fix the frame's free rotation: spin the mean so its first landmark of
    # non-negligible radius sits on the +x axis. This makes the aligned frame
    # a function of the input geometry alone, not of any reference shape.
    radii = np.abs(mean_z)
    usable = np.flatnonzero(radii > 1e-9 * np.linalg.norm(mean_z))
    if usable.size == 0:
        raise DegenerateShapeError("mean shape collapsed to its centroid")
    anchor = mean_z[usable[0]]
    return complex(anchor.conjugate() / abs(anchor))


def _similarity(src: np.ndarray, tgt_c: np.ndarray, tgt_z: np.ndarray):
    """(scale, rotation, translation) of the least-squares similarity mapping
    (n, 2) points src onto a target given as its centroid tgt_c and its
    centred complex form tgt_z; the scale is not yet checked."""
    # src.mean(axis=0) and np.angle(sigma) as the ufuncs behind them, without
    # their Python wrappers.
    src_c = np.add.reduce(src, axis=0) / len(src)
    a = _as_complex(src - src_c)
    denom = float(np.vdot(a, a).real)
    if denom < _DEGENERATE_SIZE:
        raise DegenerateShapeError("source shape collapsed to a point")
    sigma = np.vdot(a, tgt_z) / denom
    scale = abs(sigma)
    if scale < _DEGENERATE_SIZE:
        raise DegenerateShapeError("no similarity maps the model shape onto the target")
    rotation = float(np.arctan2(sigma.imag, sigma.real))
    rot = np.array([[math.cos(rotation), -math.sin(rotation)],
                    [math.sin(rotation), math.cos(rotation)]])
    return float(scale), rotation, tgt_c - scale * rot @ src_c


def gpa_align(shapes: Sequence[Shape]) -> tuple[list[Shape], Shape]:
    """Generalized Procrustes alignment of a shape set into a common frame.

    Each shape is translated to zero centroid, then iteratively rotated and
    scaled onto the evolving mean; the mean is re-normalized to unit centroid
    size (and a canonical spin) every round. Iteration stops when the mean
    moves less than _GPA_TOLERANCE or after _GPA_MAX_ROUNDS.

    The shapes are the rows of one complex array. A round scales every row
    z by vecdot(z, mean) / vecdot(z, z), which rounds as np.vdot of that row
    does; the denominator does not change between rounds and is computed
    once. The first shape of another landmark count, or the first collapsed
    shape before it, is reported.

    Returns the aligned shapes and the converged mean, both in the common
    frame (zero centroid, mean at unit centroid size).
    """
    if not shapes:
        raise ShapeArityError("cannot align an empty shape list")
    n = shapes[0].n
    count = next((i for i, s in enumerate(shapes) if s.n != n), len(shapes))
    z = _as_complex(np.stack([s.points for s in shapes[:count]]))
    z -= z.mean(axis=1, keepdims=True)
    # Each row's np.linalg.norm: its real and imaginary parts dotted with themselves.
    sizes = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
    if (sizes < _DEGENERATE_SIZE).any():
        raise DegenerateShapeError("shape collapsed to a point; cannot align")
    if count < len(shapes):
        raise ShapeArityError(f"mixed landmark counts: {shapes[count].n} vs {n}")
    squared = np.vecdot(z, z).real

    mean = z[0] / np.linalg.norm(z[0])
    mean = mean * _canonical_spin(mean)
    for _ in range(_GPA_MAX_ROUNDS):
        # A power iteration, new_mean = S mean / N with S = sum of u u^H over the
        # unit rows u (the spin is a unit factor). Its Rayleigh quotient starts at
        # |u_0^H u_0|^2 = 1 and never falls, so |new_mean| >= 1/N: no collapse.
        new_mean = (z * (np.vecdot(z, mean) / squared)[:, None]).mean(axis=0)
        new_mean = new_mean / np.linalg.norm(new_mean)
        new_mean = new_mean * _canonical_spin(new_mean)
        moved = np.linalg.norm(new_mean - mean)
        mean = new_mean
        if moved < _GPA_TOLERANCE:
            break
    aligned = z * (np.vecdot(z, mean) / squared)[:, None]
    return [Shape(_from_complex(row)) for row in aligned], Shape(_from_complex(mean))


def build_shape_model(
    aligned: Sequence[Shape],
    variance_fraction: float = DEFAULT_VARIANCE_FRACTION,
    clamp_alpha: float = DEFAULT_CLAMP_ALPHA,
) -> ShapeModel:
    """PCA model of an aligned shape set.

    Modes come from the eigendecomposition of the sample covariance of the
    flattened shape vectors; profiles.retained_rank keeps the smallest count
    whose cumulative eigenvalue sum reaches `variance_fraction` of the total,
    never a near-zero eigenvalue (relative to the largest).
    """
    if len(aligned) < 2:
        raise InsufficientDataError(f"need at least 2 aligned shapes, got {len(aligned)}")
    n = aligned[0].n
    if any(s.n != n for s in aligned):
        raise ShapeArityError("aligned shapes have mixed landmark counts")
    data = np.stack([s.as_vector() for s in aligned])
    mean_vec = data.mean(axis=0)
    dev = data - mean_vec
    cov = dev.T @ dev / (len(aligned) - 1)
    cov = (cov + cov.T) / 2

    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]

    t = int(retained_rank(evals, variance_fraction))
    return ShapeModel(
        mean_shape=Shape.from_vector(mean_vec),
        modes=evecs[:, :t],
        eigenvalues=evals[:t],
        variance_fraction=variance_fraction,
        clamp_alpha=clamp_alpha,
    )


def synthesize(model: ShapeModel, params: np.ndarray) -> Shape:
    """Shape generated by the model at coefficients `params` (model frame)."""
    b = model.coefficients(params)
    return Shape.from_vector(model.mean_shape.as_vector() + model.modes @ b)


def clamp_params(model: ShapeModel, params: np.ndarray) -> np.ndarray:
    """Clip each coefficient to +/- alpha * sqrt(lambda_i)."""
    limits = model.mode_limits()
    return np.clip(model.coefficients(params), -limits, limits)


def fit_params(
    model: ShapeModel,
    target: Shape,
    tolerance: float = 1e-6,
    max_iters: int = 50,
) -> ParamFit:
    """Pose and coefficients that best explain `target` under the model.

    Alternates a closed-form similarity fit (coefficients fixed) with a
    projection of the back-transformed target onto the modes (pose fixed),
    clamping after every projection. Stops when the largest coefficient
    change, relative to sqrt(lambda_i), falls below `tolerance`.

    Returns the transform, the clamped coefficients, the residual sum of
    squared point distances between the posed model shape and the target,
    and that posed shape's points.

    The loop works on arrays: each step is _similarity, the inverse
    similarity applied to the target and clamp_params written out, with
    the target's centroid and centred form computed once (the centroid as
    mean computes it: add.reduce, then divided by n). The model is posed
    once per pass; the pass after the last projection poses the final
    coefficients and stops.
    """
    if target.n != model.n:
        raise ShapeArityError(f"target has {target.n} landmarks, model expects {model.n}")
    tgt = target.points
    tgt_c = np.add.reduce(tgt, axis=0) / len(tgt)
    centred = tgt - tgt_c
    if np.linalg.norm(centred) < _DEGENERATE_SIZE:  # the target's centroid size
        raise DegenerateShapeError("target shape collapsed to a point")

    mean_vec = model.mean_shape.as_vector()
    scales = np.sqrt(model.eigenvalues) if model.num_modes else np.empty(0)
    limits = model.mode_limits()
    tgt_z = _as_complex(centred)
    b = np.zeros(model.num_modes)
    projections = 0
    settled = False
    while True:
        posed = (mean_vec + model.modes @ b).reshape(-1, 2)
        if not np.isfinite(posed).all():
            raise DegenerateShapeError("the posed model shape has non-finite coordinates")
        scale, rotation, translation = _similarity(posed, tgt_c, tgt_z)
        check_scale(scale)
        if settled or projections >= max_iters:
            break
        projections += 1
        # The inverse similarity, p -> (1 / scale) R(-rotation) (p - translation).
        inv_scale = 1.0 / scale
        c, s = math.cos(-rotation), math.sin(-rotation)
        r_inv = np.array([[c, -s], [s, c]])
        back = inv_scale * tgt @ r_inv.T + -inv_scale * r_inv @ translation
        b_new = np.minimum(np.maximum(model.modes.T @ (back.ravel() - mean_vec), -limits),
                           limits)
        settled = (model.num_modes == 0
                   or np.maximum.reduce(np.abs(b_new - b) / scales) < tolerance)
        b = b_new
    transform = SimilarityTransform(scale, rotation, translation)
    points = transform.apply(posed)
    residual = float(np.add.reduce((points - tgt) ** 2, axis=None))
    return ParamFit(transform, b, residual, points)
