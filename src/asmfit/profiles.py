"""Gray-level profile extraction, statistics, and candidate costs.

Two feature families share this module: 1-D normalized derivative profiles
sampled along contour normals, and 2-D normalized gradient-magnitude
windows. Both are scored against per-landmark training statistics with a
regularized Mahalanobis form, optionally weighted down on edge pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DimensionMismatchError, InsufficientDataError, ShapeArityError,
                     check_edge_weight, check_odd_size, check_scheme_covers, readonly)
from .imaging import GrayImage, sample_bilinear
from .scheme import LandmarkScheme

if TYPE_CHECKING:  # shape_model imports retained_rank from here
    from .shape_model import Shape

# Window sums below this count as flat; sum-normalization returns uniform.
_FLAT_SUM = 1e-12

# Relative eigenvalue floor: anything smaller is numerical noise, not a mode.
_EIGENVALUE_FLOOR = 1e-12

# Default ridge fraction eps of stats_from_matrix and of training (TrainConfig).
DEFAULT_EPS = 1e-3


@dataclass(frozen=True, eq=False)
class Profile:
    """Normalized feature vector for one candidate position."""

    values: np.ndarray

    def __post_init__(self):
        v = readonly(self.values).ravel()
        if not np.all(np.isfinite(v)):
            raise ShapeArityError("profile contains non-finite values")
        object.__setattr__(self, "values", v)


def _ridge(eps: float, trace, dim: int):
    """Ridge rho = eps * trace / d added to the covariance; floored when eps > 0."""
    rho = eps * trace / dim
    return np.maximum(rho, 1e-12) if eps > 0 else rho


def _stored_dtype(values):
    """float32 for a float32 array, float64 for anything else."""
    return np.float32 if getattr(values, "dtype", None) == np.float32 else float


@dataclass(frozen=True, eq=False, init=False)
class ProfileStats:
    """Training statistics of one landmark, or of k stacked landmarks, as exact eigen-factors.

    The covariance is C = U diag(lam) U^T with an orthonormal (d, r) basis
    U; C has no mass outside span(U). Costs use C + rho * I through
    weights = 1 / (lam + rho), so no inverse is ever formed. Build it from
    a covariance and eps (every eigenpair is kept, r = d) or directly from
    (basis, lam, rho), as stats_from_matrix and the bundle loader do.

    A stack adds a leading landmark axis to every field: mean (k, d), basis
    (k, d, r), lam and weights (k, r), rho (k,). Its landmarks share d and
    r, and landmark j's statistics are row j of each array.

    A float32 mean or basis, as training stores the 2-D statistics and the
    bundle loader reads them, is kept float32; every other field, and any
    other input, is float64.
    """

    mean: np.ndarray
    basis: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    rho: float | np.ndarray
    weights: np.ndarray = field(repr=False)

    def __init__(self, mean, covariance=None, eps: float | None = None, *,
                 basis=None, lam=None, rho=None):
        mean = readonly(mean, _stored_dtype(mean))
        if mean.ndim not in (1, 2):
            raise DimensionMismatchError(f"mean must be (d,) or (k, d), got {mean.shape}")
        lead, d = mean.shape[:-1], mean.shape[-1]
        if covariance is not None:
            if eps is None or basis is not None or lam is not None or rho is not None:
                raise TypeError("give either a covariance and eps or (basis, lam, rho), not both")
            cov = np.asarray(covariance, dtype=float)
            if cov.shape != lead + (d, d):
                raise DimensionMismatchError(
                    f"covariance {cov.shape} does not match mean {mean.shape}"
                )
            cov = cov + np.swapaxes(cov, -1, -2)
            cov /= 2
            lam, basis = np.linalg.eigh(cov)
            basis.setflags(write=False)  # owned here, so kept without a copy
            lam = np.maximum(lam, 0.0)
            rho = _ridge(eps, np.trace(cov, axis1=-2, axis2=-1), d)
        elif basis is None or lam is None or rho is None:
            raise TypeError("ProfileStats needs a covariance or (basis, lam, rho)")
        basis = readonly(basis, _stored_dtype(basis))
        lam = readonly(lam)
        rho = readonly(rho)
        r = basis.shape[-1] if basis.ndim else 0
        if basis.shape != lead + (d, r) or r > d:
            raise DimensionMismatchError(f"basis {basis.shape} does not fit mean {mean.shape}")
        if lam.shape != lead + (r,):
            raise DimensionMismatchError(f"eigenvalues {lam.shape} for a basis {basis.shape}")
        if rho.shape != lead:
            raise DimensionMismatchError(f"ridge {rho.shape} for a mean {mean.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(basis).all()):
            raise InsufficientDataError("mean and basis must be finite")
        if not ((lam >= 0).all() and np.isfinite(lam).all()):
            raise InsufficientDataError("eigenvalues must be finite and non-negative")
        if not ((rho >= 0) & (rho < np.inf)).all():
            raise InsufficientDataError("ridge must be finite and non-negative")
        if ((rho == 0) & ((r < d) | ~lam.all(axis=-1))).any():
            raise InsufficientDataError("eps=0 needs a full-rank, non-singular covariance")
        weights = 1.0 / (lam + rho[..., None])
        weights.setflags(write=False)
        for name, value in (("mean", mean), ("basis", basis), ("lam", lam),
                            ("rho", rho if lead else float(rho)), ("weights", weights)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def rank(self) -> int:
        return self.lam.shape[-1]


def landmark_normals(shape: Shape, scheme: LandmarkScheme) -> np.ndarray:
    """(n, 2) array of unit normals, each pointing away from the shape centroid.

    The tangent is the chord joining the landmark's contour neighbors
    (endpoints of open contours use their single adjacent segment). A
    degenerate chord falls back to the centroid-to-landmark direction, and
    a landmark on the centroid gets (1, 0). Lengths and dot products use
    vecdot, which rounds like np.linalg.norm and a scalar dot, so the
    per-landmark form agrees bit for bit.
    """
    check_scheme_covers(scheme, shape)
    prev, nxt = scheme.chord_ends
    pts = shape.points
    outward = pts - shape.centroid()
    chord = pts[nxt] - pts[prev]
    normal = np.stack([-chord[:, 1], chord[:, 0]], axis=1)
    length = np.sqrt(np.vecdot(normal, normal))
    radial = length < 1e-12
    normal[radial] = outward[radial]
    length[radial] = np.sqrt(np.vecdot(outward[radial], outward[radial]))
    usable = length >= 1e-12
    np.divide(normal, length[:, None], out=normal, where=usable[:, None])
    inward = np.vecdot(normal, outward) < 0
    normal[inward] = -normal[inward]
    normal[~usable] = (1.0, 0.0)
    return normal


def normalize_derivatives(diffs: np.ndarray) -> np.ndarray:
    """Divide rows by their absolute sum, in place; flat rows become zero rows."""
    norm = np.sum(np.abs(diffs), axis=-1, keepdims=True)
    flat = norm[..., 0] < _FLAT_SUM
    norm[flat] = 1.0
    diffs /= norm
    diffs[flat] = 0.0
    return diffs


def profile_derivatives(
    image: GrayImage, centers: np.ndarray, normals: np.ndarray, length: int
) -> np.ndarray:
    """(..., length) derivative profiles at unit spacing, not yet normalized.

    Samples length+1 points per row centered on each center, along the
    matching normal, then differences them. centers is (..., 2) and normals
    (..., 2) broadcasts against it, so one normal can serve a landmark's
    whole (k, m, 2) grid of candidate centers.
    """
    check_odd_size("profile length", length)
    centers = np.asarray(centers, dtype=float)
    normals = np.asarray(normals, dtype=float)
    offsets = np.arange(length + 1) - length / 2.0
    xs = centers[..., 0:1] + offsets * normals[..., 0:1]
    ys = centers[..., 1:2] + offsets * normals[..., 1:2]
    return np.diff(sample_bilinear(image, xs, ys), axis=-1)


def profiles_1d_batch(
    image: GrayImage, centers: np.ndarray, normals: np.ndarray, length: int
) -> np.ndarray:
    """(..., length) profile_derivatives, each row divided by its absolute sum
    (normalize_derivatives)."""
    return normalize_derivatives(profile_derivatives(image, centers, normals, length))


def normalize_windows(flat: np.ndarray, mode: str, q: float = None,
                      out: np.ndarray = None) -> np.ndarray:
    """Normalize flattened gradient windows (rows); training and fitting use sum.

    sum: g / sum(g), with flat windows mapped to the uniform vector so
    costs stay finite; it ignores q. sigmoid: g / (|g| + q) elementwise,
    with q > 0 given by the caller. The result goes to `out` when given,
    which may be `flat` itself.
    """
    flat = np.asarray(flat, dtype=float)
    if mode == "sigmoid":
        if q is None or q <= 0:
            raise ShapeArityError(f"sigmoid normalization needs q > 0, got {q}")
        return np.divide(flat, np.abs(flat) + q, out=out)
    if mode == "sum":
        total = flat.sum(axis=-1, keepdims=True)
        is_flat = np.abs(total[..., 0]) < _FLAT_SUM
        total[is_flat] = 1.0
        out = np.divide(flat, total, out=out)
        out[is_flat] = 1.0 / flat.shape[-1]
        return out
    raise ShapeArityError(f"unknown 2-D normalization {mode!r}")


def windows_batch(values: np.ndarray, centers: np.ndarray, size: int) -> np.ndarray:
    """(k, size*size) row-major windows around rounded centers, border-clamped.

    Every window is one index into a sliding-window view of the array
    edge-padded by size - 1. A center farther than size // 2 outside the
    array is moved to that distance first; its window reads the same
    replicated border pixels either way.
    """
    check_odd_size("window size", size)
    h, w = values.shape
    centers = np.asarray(centers, dtype=float)
    half = size // 2
    cx = np.clip(np.rint(centers[:, 0]).astype(int), -half, w - 1 + half)
    cy = np.clip(np.rint(centers[:, 1]).astype(int), -half, h - 1 + half)
    view = sliding_window_view(np.pad(values, size - 1, mode="edge"), (size, size))
    return view[cy + half, cx + half].reshape(len(centers), size * size)


def grid_patches(values: np.ndarray, origins: np.ndarray, g: int, size: int) -> np.ndarray:
    """(k, P, P) border-clamped patches of values, P = g + size - 1: patch j
    holds every pixel that the windows_batch windows of the g x g integer
    grid whose first node is origins[j] = (x, y) read, so the window of node
    (a, c), row-major (y outer, x inner), is patch[j, a:a + size, c:c + size]."""
    check_odd_size("window size", size)
    h, w = values.shape
    span = np.arange(g + size - 1) - size // 2
    xs = np.clip(origins[:, 0, None] + span, 0, w - 1).astype(np.intp)
    ys = np.clip(origins[:, 1, None] + span, 0, h - 1).astype(np.intp)
    return np.take(values, ys[:, :, None] * w + xs[:, None, :])


def grid_windows(patches: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(n, size*size) rows of the windows of grid_patches' (k, P, P) patches
    at the n nodes that the (k, g, g) mask picks, in np.nonzero(mask) order;
    size is P - g + 1. Each row is read through a sliding-window view, so no
    array is padded and only the picked windows are copied, and it equals
    windows_batch's row for the same center byte for byte."""
    size = patches.shape[1] - mask.shape[1] + 1
    return sliding_window_view(patches, (size, size), axis=(1, 2))[mask].reshape(-1, size * size)


def stats_from_matrix(rows: np.ndarray, eps: float = DEFAULT_EPS) -> ProfileStats:
    """ProfileStats from an (m, d) sample matrix (m >= 2), of rank min(m - 1, d).

    A (k, m, d) stack of k landmarks' samples gives their statistics
    stacked. The covariance of m centred rows has rank at most m - 1. With
    m <= d the factor comes from a thin SVD of the centred rows, otherwise
    from the eigendecomposition of the d x d covariance; neither forms an
    inverse.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3) or rows.shape[-2] < 2:
        raise InsufficientDataError(f"need at least 2 profile samples, got {rows.shape}")
    m, d = rows.shape[-2:]
    mean = rows.mean(axis=-2)
    dev = rows - mean[..., None, :]
    if m > d:
        cov = np.swapaxes(dev, -1, -2) @ dev
        del dev  # with cov, the largest arrays of a stack's statistics
        cov /= m - 1
        return ProfileStats(mean, cov, eps)
    _, s, vt = np.linalg.svd(dev, full_matrices=False)
    # The m eigenvalues of the covariance; their sum is its trace.
    lam = s * s / (m - 1)
    return ProfileStats(mean, basis=np.swapaxes(vt[..., :m - 1, :], -1, -2),
                        lam=lam[..., :m - 1], rho=_ridge(eps, lam.sum(axis=-1), d))


def retained_rank(eigenvalues, fraction: float):
    """The smallest count of leading eigenvalues whose cumulative sum reaches
    `fraction` of their total, for eigenvalues sorted largest first; one
    whose value is at or below 1e-12 of the largest is never counted.
    (r,) eigenvalues give one count, (k, r) one per row."""
    lam = np.asarray(eigenvalues, dtype=float)
    total = lam.sum(axis=-1)
    short = np.cumsum(lam, axis=-1) < (fraction * total - 1e-12 * total)[..., None]
    usable = np.sum(lam > _EIGENVALUE_FLOOR * lam[..., :1], axis=-1)
    return np.minimum(short.sum(axis=-1) + 1, usable)


def subspace_rank(stats: ProfileStats, fraction: float) -> int:
    """The least rank whose leading eigenpairs keep `fraction` of the
    variance of every landmark of stats (retained_rank per landmark)."""
    return int(np.max(retained_rank(np.sort(stats.lam)[..., ::-1], fraction)))


def leading_subspace(stats: ProfileStats, rank: int) -> dict:
    """The fields (mean, basis, lam, rho) of stats cut to their `rank`
    largest eigenpairs, as views, for ProfileStats(**fields).

    The variance of the dropped pairs is spread evenly over the d - rank
    dims outside the kept span, the residual of probabilistic PCA:
    rho' = rho + sum(dropped lam) / (d - rank). stats are as
    stats_from_matrix makes them: eigh's pairs in ascending order when it
    keeps all d, otherwise the SVD's in descending order. A rank at or
    above stats.rank keeps every field as it is.
    """
    full, d = stats.rank, stats.dim
    fields = {"mean": stats.mean, "basis": stats.basis, "lam": stats.lam, "rho": stats.rho}
    if rank >= full:
        return fields
    if full == d:  # ascending: the largest pairs are the last columns
        keep, drop = slice(full - rank, None), slice(None, full - rank)
    else:
        keep, drop = slice(None, rank), slice(rank, None)
    fields.update(basis=stats.basis[..., keep], lam=stats.lam[..., keep],
                  rho=stats.rho + stats.lam[..., drop].sum(axis=-1) / (d - rank))
    return fields


def mahalanobis_cost(stats: ProfileStats, g: Profile) -> float:
    """Quadratic form (g - mean)^T (C + rho I)^-1 (g - mean) of one profile."""
    return float(mahalanobis_batch(stats, g.values[None, :])[0])


def owner_bounds(rows: np.ndarray, params: np.ndarray, owner) -> tuple | None:
    """The checked owner array of a scorer's call, as intp, and the row
    bounds of its blocks: landmark j owns rows bounds[j]:bounds[j + 1].

    rows must be (m, d). params is the statistics' mean: (d,) for one
    landmark's statistics, which take no owner and get None, or (k, d) for
    stacked ones, which need owner, one landmark index in [0, k) per row,
    as integers in ascending order. Anything else raises
    DimensionMismatchError, so svm.decision_values, which checks one
    classifier's (d,) weights here with no owner, refuses a stack. A
    landmark with no rows has an empty block. The bounds are a (k + 1,) array.
    """
    stacked = params.ndim == 2
    if rows.ndim != 2 or rows.shape[1] != params.shape[-1] or stacked != (owner is not None):
        raise DimensionMismatchError(
            f"rows {rows.shape} {'without' if owner is None else 'with'} owner indices vs model "
            f"rows {params.shape}; need (m, d) rows, and owner indices for a stacked model only")
    if not stacked:
        return None
    owner = np.asarray(owner)
    m, k = len(rows), len(params)
    if owner.shape != (m,) or (m and owner.dtype.kind not in "iu"):
        raise DimensionMismatchError(f"owner indices {owner.shape} of dtype {owner.dtype} "
                                     f"for {m} rows; need one integer per row")
    if m and (owner[0] < 0 or owner[-1] >= k or (owner[1:] < owner[:-1]).any()):
        raise DimensionMismatchError(f"owner indices must be sorted and lie in [0, {k})")
    owner = owner.astype(np.intp, copy=False)  # an empty [] arrives as float
    return owner, np.searchsorted(owner, np.arange(k + 1))


def owner_blocks(rows: np.ndarray, bounds: np.ndarray) -> tuple:
    """(blocks, at): the (m, a) rows as a (k, c, a) stack of the landmarks'
    blocks (see owner_bounds), and where each row lies in the stack.

    When every block holds the same count c, blocks is a view of rows and
    at is None. Otherwise c is the largest count, every block is
    zero-padded to it in one new stack, and at holds the flat (k * c)
    position of each row. owner_rows reads the rows back.
    """
    counts = np.diff(bounds)
    (m, a), k = rows.shape, len(counts)
    c = counts.max(initial=0)
    if k and counts.min() == c:
        return rows.reshape(k, c, a), None
    at = np.arange(m) + np.repeat(np.arange(k) * c - bounds[:-1], counts)
    blocks = np.zeros((k * c, a), rows.dtype)
    blocks[at] = rows
    return blocks.reshape(k, c, a), at


def owner_rows(stacked: np.ndarray, at) -> np.ndarray:
    """The (m, ...) rows of a (k, c, ...) result computed on owner_blocks'
    stack: all of them when at is None, else the ones at the flat positions at."""
    flat = stacked.reshape((-1,) + stacked.shape[2:])
    return flat if at is None else flat[at]


def mahalanobis_batch(stats: ProfileStats, rows: np.ndarray, owner=None) -> np.ndarray:
    """Regularized Mahalanobis cost of every row of an (m, d) candidate matrix, (m,).

    In-span part sum((U^T delta)^2 / (lam + rho)) plus the residual outside
    span(U) over rho; the residual term is absent when U spans every dim.
    One landmark's statistics score every row. Stacked statistics need
    owner, an (m,) array of sorted landmark indices (see owner_bounds), and
    score row i against landmark owner[i]. The deltas are stacked once into
    owner_blocks' (k, c, d) blocks, zero-padded to the largest block unless
    every landmark owns c rows, and the projection, the weight product and
    the residual run on that stack, one BLAS call per block and product.
    So every block has the bytes that its landmark's statistics alone give
    its rows zero-padded to c (a padded row's value does not reach the
    others' bytes).

    The deltas are float64. The projection runs in the basis's dtype: a
    float32 basis projects the deltas rounded once to float32, and is
    itself never cast or copied. The squared projection, the residual and
    the cost are float64.
    """
    rows = np.asarray(rows, dtype=float)
    checked = owner_bounds(rows, stats.mean, owner)
    mean = stats.mean.astype(float, copy=False)  # a float32 mean upcast, small beside the rows
    if checked is None:  # one landmark is a stack of one block
        delta, at = (rows - mean)[None], None
        basis, weights, rho = stats.basis[None], stats.weights[None, :, None], stats.rho
    else:
        owner, bounds = checked
        delta = np.take(mean, owner, axis=0)
        np.subtract(rows, delta, out=delta)  # one (m, d) temporary, not two
        delta, at = owner_blocks(delta, bounds)
        basis, weights, rho = stats.basis, stats.weights[:, :, None], stats.rho[:, None]
    proj = np.matmul(delta.astype(basis.dtype, copy=False), basis)
    sq = proj.astype(float, copy=False)  # a float64 projection is squared in place
    np.multiply(sq, sq, out=sq)
    cost = np.matmul(sq, weights)[..., 0]
    if stats.rank < stats.dim:
        cost += (np.einsum("...d,...d->...", delta, delta) - sq.sum(axis=-1)) / rho
    return owner_rows(cost, at)


def edge_weighted_cost(stats: ProfileStats, g: Profile, on_edge: bool, c: float) -> float:
    """(c - I) * mahalanobis_cost with I = 1 on an edge pixel, 0 off it."""
    check_edge_weight(c)
    return (c - (1.0 if on_edge else 0.0)) * mahalanobis_cost(stats, g)
