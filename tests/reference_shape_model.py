"""fit_params as a loop of shape objects, procrustes_fit and gpa_align on lists, used as oracles.

Each step of this fit_params builds a Shape of the posed model, fits a
SimilarityTransform with procrustes_fit, inverts and applies it to the
target (inverse) and clamps the projected coefficients with clamp_params.
The library's loop writes the same operations out on arrays and must
return the same ParamFit bit for bit, and raise the same errors.
procrustes_fit centres both point sets with mean(axis=0) in every call;
the library's one Procrustes solve, shape_model._similarity, must give the
same transform bit for bit.

gpa_align keeps one small complex array per shape and scales each with
np.vdot in every round. The library aligns the shapes as the rows of one
array and must return the same aligned shapes and mean bit for bit, and
raise the same errors.

regularize is the regularization of search.fit before fit_params
returned its posed points: it synthesizes the returned coefficients and
poses them again. fit takes the points fit_params already posed, as a
Shape, and must get the same shape bit for bit.

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
    _canonical_spin,
    _from_complex,
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


def centroid_size(shape: Shape) -> float:
    """Frobenius norm of the centered landmark cloud."""
    return float(np.linalg.norm(shape.points - shape.centroid()))


def inverse(transform: SimilarityTransform) -> SimilarityTransform:
    """The similarity that undoes `transform`."""
    inv_scale = 1.0 / transform.scale
    c, s = math.cos(-transform.rotation), math.sin(-transform.rotation)
    r_inv = np.array([[c, -s], [s, c]])
    return SimilarityTransform(inv_scale, -transform.rotation,
                               -inv_scale * r_inv @ transform.translation)


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


def gpa_align(shapes, tolerance: float = 1e-10, max_rounds: int = 100):
    """Generalized Procrustes alignment of a shape set into a common frame,
    one array per shape: (aligned shapes, mean)."""
    if not shapes:
        raise ShapeArityError("cannot align an empty shape list")
    n = shapes[0].n
    centered = []
    for s in shapes:
        if s.n != n:
            raise ShapeArityError(f"mixed landmark counts: {s.n} vs {n}")
        z = _as_complex(s.points)
        z = z - z.mean()
        size = np.linalg.norm(z)
        if size < _DEGENERATE_SIZE:
            raise DegenerateShapeError("shape collapsed to a point; cannot align")
        centered.append(z)

    mean = centered[0] / np.linalg.norm(centered[0])
    mean = mean * _canonical_spin(mean)
    for _ in range(max_rounds):
        aligned = [z * (np.vdot(z, mean) / np.vdot(z, z).real) for z in centered]
        new_mean = np.mean(aligned, axis=0)
        size = np.linalg.norm(new_mean)
        if size < _DEGENERATE_SIZE:
            raise DegenerateShapeError("mean shape collapsed during alignment")
        new_mean = new_mean / size
        new_mean = new_mean * _canonical_spin(new_mean)
        moved = np.linalg.norm(new_mean - mean)
        mean = new_mean
        if moved < tolerance:
            break
    aligned = [z * (np.vdot(z, mean) / np.vdot(z, z).real) for z in centered]
    return [Shape(_from_complex(z)) for z in aligned], Shape(_from_complex(mean))


def fit_params(
    model: ShapeModel,
    target: Shape,
    tolerance: float = 1e-6,
    max_iters: int = 50,
) -> ParamFit:
    """Pose and coefficients that best explain `target` under the model."""
    if target.n != model.n:
        raise ShapeArityError(f"target has {target.n} landmarks, model expects {model.n}")
    if centroid_size(target) < _DEGENERATE_SIZE:
        raise DegenerateShapeError("target shape collapsed to a point")

    mean_vec = model.mean_shape.as_vector()
    scales = np.sqrt(model.eigenvalues) if model.num_modes else np.empty(0)
    b = np.zeros(model.num_modes)
    transform = SimilarityTransform(1.0, 0.0, np.zeros(2))
    for _ in range(max_iters):
        posed = Shape.from_vector(mean_vec + model.modes @ b)
        transform = procrustes_fit(posed.points, target.points)
        back = inverse(transform).apply(target.points)
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
    """fit's regularization as it was: the coefficients of fit_params
    synthesized into a new shape and posed by its transform."""
    pf = fit_params(model, shape)
    return Shape(pf.transform.apply(synthesize(model, pf.params).points))
