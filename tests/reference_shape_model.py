"""fit_params as a loop of shape objects, and procrustes_fit on its own, used as oracles.

Each step of this fit_params builds a Shape of the posed model, fits a
SimilarityTransform with procrustes_fit, inverts and applies it to the
target and clamps the projected coefficients with clamp_params. The
library's loop writes the same operations out on arrays and must return
the same ParamFit bit for bit, and raise the same errors. procrustes_fit
here centres both point sets with mean(axis=0) in every call; the
library's must give the same transform bit for bit.

regularize is search._regularize before fit_params returned its posed
points: it synthesizes the returned coefficients and poses them again.
The library's _regularize takes the points fit_params already posed and
must return the same shape bit for bit.

retained_count is the shape model's mode-count search as it was written
before profiles.retained_rank took it over for every eigenvalue row, so
the shape model must still get the same count from it.
"""

import math

import numpy as np

from asmfit.errors import DegenerateShapeError, ShapeArityError
from asmfit.shape_model import (
    _DEGENERATE_SIZE,
    ParamFit,
    Shape,
    ShapeModel,
    SimilarityTransform,
    _as_complex,
    clamp_params,
    synthesize,
)


def retained_count(evals, variance_fraction):
    """The shape model's mode count, searched on one descending eigenvalue
    row: the smallest count whose cumulative sum reaches the fraction of
    the total, never past the eigenvalues above 1e-12 of the largest."""
    evals = np.asarray(evals, dtype=float)
    if evals.size == 0 or evals[0] <= 0:
        return 0
    usable = int(np.sum(evals > 1e-12 * evals[0]))
    total = float(evals.sum())
    csum = np.cumsum(evals)
    t = int(np.searchsorted(csum, variance_fraction * total - 1e-12 * total) + 1)
    return min(t, usable)


def procrustes_fit(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity mapping `source` points onto `target` points."""
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ShapeArityError(f"point sets must share an (n, 2) shape, got {src.shape} vs {tgt.shape}")
    src_c = src.mean(axis=0)
    tgt_c = tgt.mean(axis=0)
    a = _as_complex(src - src_c)
    b = _as_complex(tgt - tgt_c)
    denom = float(np.vdot(a, a).real)
    if denom < _DEGENERATE_SIZE:
        raise DegenerateShapeError("source shape collapsed to a point")
    sigma = np.vdot(a, b) / denom
    scale = abs(sigma)
    if scale < _DEGENERATE_SIZE:
        raise DegenerateShapeError("target shape collapsed to a point")
    rotation = float(np.angle(sigma))
    rot = np.array([[math.cos(rotation), -math.sin(rotation)],
                    [math.sin(rotation), math.cos(rotation)]])
    translation = tgt_c - scale * rot @ src_c
    return SimilarityTransform(float(scale), rotation, translation)


def fit_params(
    model: ShapeModel,
    target: Shape,
    tolerance: float = 1e-6,
    max_iters: int = 50,
) -> ParamFit:
    """Pose and coefficients that best explain `target` under the model."""
    if target.n != model.n:
        raise ShapeArityError(f"target has {target.n} landmarks, model expects {model.n}")
    if target.centroid_size() < _DEGENERATE_SIZE:
        raise DegenerateShapeError("target shape collapsed to a point")

    mean_vec = model.mean_shape.as_vector()
    scales = np.sqrt(model.eigenvalues) if model.num_modes else np.empty(0)
    b = np.zeros(model.num_modes)
    transform = SimilarityTransform(1.0, 0.0, np.zeros(2))
    for _ in range(max_iters):
        posed = Shape.from_vector(mean_vec + model.modes @ b)
        transform = procrustes_fit(posed.points, target.points)
        back = transform.inverse().apply(target.points)
        b_new = clamp_params(model, model.modes.T @ (back.ravel() - mean_vec))
        if model.num_modes == 0:
            b = b_new
            break
        step = float(np.max(np.abs(b_new - b) / scales))
        b = b_new
        if step < tolerance:
            break
    posed = Shape.from_vector(mean_vec + model.modes @ b)
    transform = procrustes_fit(posed.points, target.points)
    points = transform.apply(posed.points)
    residual = float(np.sum((points - target.points) ** 2))
    return ParamFit(transform, b, residual, points)


def regularize(model: ShapeModel, shape: Shape) -> Shape:
    """search._regularize as it was: the coefficients of fit_params
    synthesized into a new shape and posed by its transform."""
    pf = fit_params(model, shape)
    return Shape(pf.transform.apply(synthesize(model, pf.params).points))
