"""Gray-level profile extraction, statistics, and candidate costs.

Two feature families share this module: 1-D normalized derivative profiles
sampled along contour normals, and 2-D normalized gradient-magnitude
windows. Both are scored against per-landmark training statistics with a
regularized Mahalanobis form, optionally weighted down on edge pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionMismatchError, InsufficientDataError, ShapeArityError
from .imaging import GrayImage, sample_bilinear
from .scheme import LandmarkScheme, single_contour_scheme
from .shape_model import Shape

# Window sums below this count as flat; sum-normalization returns uniform.
_FLAT_SUM = 1e-12


@dataclass(frozen=True, eq=False)
class Profile:
    """Normalized feature vector for one candidate position."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ShapeArityError("profile contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


def _ridge(eps: float, trace: float, dim: int) -> float:
    """Ridge rho = eps * trace / d added to the covariance; floored when eps > 0."""
    rho = eps * trace / dim
    return max(rho, 1e-12) if eps > 0 else rho


@dataclass(frozen=True, eq=False, init=False)
class ProfileStats:
    """Per-landmark training statistics as an exact eigen-factor.

    The covariance is C = U diag(lam) U^T with an orthonormal (d, r) basis
    U; C has no mass outside span(U). Costs use C + rho * I through
    weights = 1 / (lam + rho), so no inverse is ever formed. Build it from
    a covariance (every eigenpair is kept, r = d) or directly from
    (basis, lam, rho), as stats_from_matrix and the bundle loader do.
    """

    mean: np.ndarray
    basis: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    rho: float
    weights: np.ndarray = field(repr=False)

    def __init__(self, mean, covariance=None, eps: float = 1e-3, *,
                 basis=None, lam=None, rho=None):
        mean = np.array(mean, dtype=float).ravel()
        d = mean.size
        if covariance is not None:
            if basis is not None or lam is not None or rho is not None:
                raise TypeError("give either a covariance or (basis, lam, rho), not both")
            cov = np.array(covariance, dtype=float)
            if cov.shape != (d, d):
                raise DimensionMismatchError(
                    f"covariance {cov.shape} does not match mean dim {d}"
                )
            cov = (cov + cov.T) / 2
            lam, basis = np.linalg.eigh(cov)
            lam = np.maximum(lam, 0.0)
            rho = _ridge(eps, float(np.trace(cov)), d)
        elif basis is None or lam is None or rho is None:
            raise TypeError("ProfileStats needs a covariance or (basis, lam, rho)")
        basis = np.array(basis, dtype=float, order="C")
        lam = np.array(lam, dtype=float)
        rho = float(rho)
        if basis.ndim != 2 or basis.shape[0] != d or basis.shape[1] > d:
            raise DimensionMismatchError(f"basis {basis.shape} does not fit mean dim {d}")
        if lam.shape != basis.shape[1:]:
            raise DimensionMismatchError(
                f"{lam.size} eigenvalues for a rank-{basis.shape[1]} basis"
            )
        if not ((lam >= 0).all() and np.isfinite(lam).all()):
            raise InsufficientDataError("eigenvalues must be finite and non-negative")
        if not 0 <= rho < np.inf:
            raise InsufficientDataError(f"ridge must be finite and non-negative, got {rho}")
        if rho == 0 and (basis.shape[1] < d or not lam.all()):
            raise InsufficientDataError("eps=0 needs a full-rank, non-singular covariance")
        for name, arr in (("mean", mean), ("basis", basis), ("lam", lam),
                          ("weights", 1.0 / (lam + rho))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def rank(self) -> int:
        return self.lam.size


@dataclass(frozen=True, eq=False)
class ProfileModel:
    """Profile geometry plus per (level, landmark) statistics.

    stats[level][landmark] -> ProfileStats; sizes[level] is the profile
    length (1-D) or the side of the sum-normalized window (2-D) used at
    that pyramid level.
    """

    kind: str
    sizes: tuple
    stats: tuple

    def __post_init__(self):
        if self.kind not in ("one_d", "two_d"):
            raise ShapeArityError(f"unknown profile kind {self.kind!r}")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != len(self.stats):
            raise DimensionMismatchError("one size per level required")
        for s in sizes:
            if s < 3 or s % 2 == 0:
                raise ShapeArityError(f"profile sizes must be odd and >= 3, got {s}")
        stats = tuple(tuple(level) for level in self.stats)
        n = len(stats[0]) if stats else 0
        for level_stats, size in zip(stats, sizes):
            if len(level_stats) != n:
                raise DimensionMismatchError("every level must cover every landmark")
            want = size if self.kind == "one_d" else size * size
            for st in level_stats:
                if st.dim != want:
                    raise DimensionMismatchError(
                        f"stats dim {st.dim} does not match configured size {size}"
                    )
            if len({st.rank for st in level_stats}) > 1:
                raise DimensionMismatchError("every landmark of a level must share one rank")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "stats", stats)

    @property
    def levels(self) -> int:
        return len(self.sizes)

    @property
    def n_landmarks(self) -> int:
        return len(self.stats[0])


def landmark_normals(shape: Shape, scheme: LandmarkScheme = None) -> np.ndarray:
    """(n, 2) array of unit normals, each pointing away from the shape centroid.

    The tangent is the chord joining the landmark's contour neighbors
    (endpoints of open contours use their single adjacent segment). A
    degenerate chord falls back to the centroid-to-landmark direction, and
    a landmark on the centroid gets (1, 0). Lengths and dot products use
    vecdot, which rounds like np.linalg.norm and a scalar dot, so the
    per-landmark form agrees bit for bit.
    """
    if scheme is None:
        scheme = single_contour_scheme(shape.n)
    if scheme.total != shape.n:
        raise ShapeArityError(f"scheme covers {scheme.total} landmarks, shape has {shape.n}")
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


def _normalize_derivatives(diffs: np.ndarray) -> np.ndarray:
    """Divide rows by their absolute sum; flat rows become zero rows."""
    norm = np.sum(np.abs(diffs), axis=-1, keepdims=True)
    safe = np.where(norm < _FLAT_SUM, 1.0, norm)
    out = diffs / safe
    out[np.broadcast_to(norm < _FLAT_SUM, out.shape)] = 0.0
    return out


def profiles_1d_batch(
    image: GrayImage, centers: np.ndarray, normals: np.ndarray, length: int
) -> np.ndarray:
    """(..., length) normalized derivative profiles at unit spacing.

    Samples length+1 points per row centered on each center, along the
    matching normal, then differences and abs-sum-normalizes. centers is
    (..., 2) and normals (..., 2) broadcasts against it, so one normal can
    serve a landmark's whole (k, m, 2) grid of candidate centers.
    """
    if length < 3 or length % 2 == 0:
        raise ShapeArityError(f"profile length must be odd and >= 3, got {length}")
    centers = np.asarray(centers, dtype=float)
    normals = np.asarray(normals, dtype=float)
    offsets = np.arange(length + 1) - length / 2.0
    xs = centers[..., 0:1] + offsets * normals[..., 0:1]
    ys = centers[..., 1:2] + offsets * normals[..., 1:2]
    samples = sample_bilinear(image, xs, ys)
    return _normalize_derivatives(np.diff(samples, axis=-1))


def normalize_windows(flat: np.ndarray, mode: str, q: float = 10.0,
                      out: np.ndarray = None) -> np.ndarray:
    """Normalize flattened gradient windows (rows); training and fitting use sum.

    sum: g / sum(g), with flat windows mapped to the uniform vector so
    costs stay finite. sigmoid: g / (|g| + q) elementwise. The result goes
    to `out` when given, which may be `flat` itself.
    """
    flat = np.asarray(flat, dtype=float)
    if mode == "sigmoid":
        if q <= 0:
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

    Windows inside the array are copied out of a strided view of it; the
    few that cross the border are gathered with clamped indices.
    """
    if size < 3 or size % 2 == 0:
        raise ShapeArityError(f"window size must be odd and >= 3, got {size}")
    h, w = values.shape
    centers = np.asarray(centers, dtype=float)
    half = size // 2
    cx = np.rint(centers[:, 0]).astype(int)
    cy = np.rint(centers[:, 1]).astype(int)
    if h >= size and w >= size:
        # Top-left corners, moved inside where a window crosses the border;
        # those windows are read again below.
        x0 = np.minimum(np.maximum(cx - half, 0), w - size)
        y0 = np.minimum(np.maximum(cy - half, 0), h - size)
        edge = (x0 != cx - half) | (y0 != cy - half)
        s0, s1 = values.strides
        view = as_strided(values, (h - size + 1, w - size + 1, size, size), (s0, s1, s0, s1),
                          writeable=False)
        wins = view[y0, x0]
    else:
        edge = np.ones(len(centers), dtype=bool)
        wins = np.empty((len(centers), size, size), dtype=values.dtype)
    if edge.any():
        offs = np.arange(-half, half + 1)
        xs = np.clip(cx[edge, None] + offs[None, :], 0, w - 1)
        ys = np.clip(cy[edge, None] + offs[None, :], 0, h - 1)
        wins[edge] = values[ys[:, :, None], xs[:, None, :]]
    return wins.reshape(len(centers), size * size)


def stats_from_matrix(rows: np.ndarray, eps: float = 1e-3) -> ProfileStats:
    """ProfileStats from an (m, d) sample matrix (m >= 2), of rank min(m - 1, d).

    The covariance of m centred rows has rank at most m - 1. With m <= d
    the factor comes from a thin SVD of the centred rows, otherwise from
    the eigendecomposition of the d x d covariance; neither forms an inverse.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 profile samples, got {rows.shape}")
    m, d = rows.shape
    mean = rows.mean(axis=0)
    dev = rows - mean
    if m > d:
        return ProfileStats(mean, dev.T @ dev / (m - 1), eps)
    _, s, vt = np.linalg.svd(dev, full_matrices=False)
    trace = float(np.vdot(dev, dev)) / (m - 1)
    return ProfileStats(mean, eps=eps, basis=vt[:m - 1].T, lam=s[:m - 1] ** 2 / (m - 1),
                        rho=_ridge(eps, trace, d))


def mahalanobis_cost(stats: ProfileStats, g: Profile) -> float:
    """Quadratic form (g - mean)^T (C + rho I)^-1 (g - mean) of one profile."""
    if g.dim != stats.dim:
        raise DimensionMismatchError(f"profile dim {g.dim} vs stats dim {stats.dim}")
    return float(mahalanobis_batch(stats, g.values[None, :])[0])


def mahalanobis_batch(stats: ProfileStats, rows: np.ndarray) -> np.ndarray:
    """Regularized Mahalanobis cost of every row of an (m, d) candidate matrix.

    In-span part sum((U^T delta)^2 / (lam + rho)) plus the residual outside
    span(U) over rho; the residual term is absent when U spans every dim.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] != stats.dim:
        raise DimensionMismatchError(f"profile dim {rows.shape[-1]} vs stats dim {stats.dim}")
    delta = rows - stats.mean
    proj = delta @ stats.basis
    sq = proj * proj
    cost = sq @ stats.weights
    if stats.rank < stats.dim:
        cost += (np.einsum("md,md->m", delta, delta) - sq.sum(axis=1)) / stats.rho
    return cost


def edge_weighted_cost(stats: ProfileStats, g: Profile, on_edge: bool, c: float = 2.0) -> float:
    """(c - I) * mahalanobis_cost with I = 1 on an edge pixel, 0 off it."""
    if not c > 1:
        raise ValueError(f"edge weight constant must exceed 1, got {c}")
    return (c - (1.0 if on_edge else 0.0)) * mahalanobis_cost(stats, g)
