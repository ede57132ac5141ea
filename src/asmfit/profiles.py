"""Gray-level profile extraction, statistics, and candidate costs.

Two feature families share this module: 1-D normalized derivative profiles
sampled along contour normals, and 2-D normalized gradient-magnitude
windows. Both are scored against per-landmark training statistics with a
regularized Mahalanobis form, optionally weighted down on edge pixels.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _ridge(eps: float, trace, dim: int):
    """Ridge rho = eps * trace / d added to the covariance; floored when eps > 0."""
    rho = eps * trace / dim
    return np.maximum(rho, 1e-12) if eps > 0 else rho


def readonly(values) -> np.ndarray:
    """values as a read-only C-ordered float array; one that already is, such
    as a decoded bundle array, is kept without a copy."""
    arr = np.asarray(values, dtype=float, order="C")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, init=False)
class ProfileStats:
    """Training statistics of one landmark, or of k stacked landmarks, as exact eigen-factors.

    The covariance is C = U diag(lam) U^T with an orthonormal (d, r) basis
    U; C has no mass outside span(U). Costs use C + rho * I through
    weights = 1 / (lam + rho), so no inverse is ever formed. Build it from
    a covariance (every eigenpair is kept, r = d) or directly from
    (basis, lam, rho), as stats_from_matrix and the bundle loader do.

    A stack adds a leading landmark axis to every field: mean (k, d), basis
    (k, d, r), lam and weights (k, r), rho (k,). Its landmarks share d and
    r, and landmark j's statistics are row j of each array.
    """

    mean: np.ndarray
    basis: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    rho: float | np.ndarray
    weights: np.ndarray = field(repr=False)

    def __init__(self, mean, covariance=None, eps: float = 1e-3, *,
                 basis=None, lam=None, rho=None):
        mean = readonly(mean)
        if mean.ndim not in (1, 2):
            raise DimensionMismatchError(f"mean must be (d,) or (k, d), got {mean.shape}")
        lead, d = mean.shape[:-1], mean.shape[-1]
        if covariance is not None:
            if basis is not None or lam is not None or rho is not None:
                raise TypeError("give either a covariance or (basis, lam, rho), not both")
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
        basis = readonly(basis)
        lam = readonly(lam)
        rho = readonly(rho)
        r = basis.shape[-1] if basis.ndim else 0
        if basis.shape != lead + (d, r) or r > d:
            raise DimensionMismatchError(f"basis {basis.shape} does not fit mean {mean.shape}")
        if lam.shape != lead + (r,):
            raise DimensionMismatchError(f"eigenvalues {lam.shape} for a basis {basis.shape}")
        if rho.shape != lead:
            raise DimensionMismatchError(f"ridge {rho.shape} for a mean {mean.shape}")
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


@dataclass(frozen=True, eq=False)
class ProfileModel:
    """Profile geometry plus per-level statistics of every landmark.

    stats[level] is one ProfileStats stacked over the landmarks; sizes[level]
    is the profile length (1-D) or the side of the sum-normalized window
    (2-D) used at that pyramid level.
    """

    kind: str
    sizes: tuple
    stats: tuple

    def __post_init__(self):
        if self.kind not in ("one_d", "two_d"):
            raise ShapeArityError(f"unknown profile kind {self.kind!r}")
        sizes = integer_sizes("profile sizes", self.sizes)
        if len(sizes) != len(self.stats):
            raise DimensionMismatchError("one size per level required")
        n = self.stats[0].mean.shape[0] if self.stats else 0
        for level_stats, size in zip(self.stats, sizes):
            want = size if self.kind == "one_d" else size * size
            if level_stats.mean.shape != (n, want):
                raise DimensionMismatchError(
                    f"stats dim {level_stats.dim} does not match configured size {size}, "
                    f"or the level does not hold all {n} landmarks"
                )
        object.__setattr__(self, "sizes", sizes)

    @property
    def levels(self) -> int:
        return len(self.sizes)

    @property
    def n_landmarks(self) -> int:
        return self.stats[0].mean.shape[0]


def check_numbers(values: dict, integers=(), reals=()) -> dict:
    """Raise ShapeArityError unless values[name] is an integer, not a bool,
    for each name in integers, and a real number for each name in reals.
    Returns the reals as floats, in the order named, so that an integral
    value is stored and computed with as the float it stands for."""
    for name in integers:
        if isinstance(values[name], bool) or not isinstance(values[name], numbers.Integral):
            raise ShapeArityError(f"{name} must be an integer, got {values[name]!r}")
    floats = {}
    for name in reals:
        if not isinstance(values[name], numbers.Real):
            raise ShapeArityError(f"{name} must be a real number, got {values[name]!r}")
        try:
            floats[name] = float(values[name])
        except OverflowError:
            raise ShapeArityError(f"{name} is too large for a float") from None
    return floats


def integer_sizes(name: str, values) -> tuple:
    """values as a tuple of odd integers >= 3; bools and non-integers are rejected."""
    sizes = tuple(values)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in sizes):
        raise ShapeArityError(f"{name} must be integers, got {sizes!r}")
    if any(v < 3 or v % 2 == 0 for v in sizes):
        raise ShapeArityError(f"{name} must be odd and >= 3, got {sizes}")
    return tuple(int(v) for v in sizes)


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

    Every window is one index into a sliding-window view of the array
    edge-padded by size - 1. A center farther than size // 2 outside the
    array is moved to that distance first; its window reads the same
    replicated border pixels either way.
    """
    if size < 3 or size % 2 == 0:
        raise ShapeArityError(f"window size must be odd and >= 3, got {size}")
    h, w = values.shape
    centers = np.asarray(centers, dtype=float)
    half = size // 2
    cx = np.clip(np.rint(centers[:, 0]).astype(int), -half, w - 1 + half)
    cy = np.clip(np.rint(centers[:, 1]).astype(int), -half, h - 1 + half)
    view = sliding_window_view(np.pad(values, size - 1, mode="edge"), (size, size))
    return view[cy + half, cx + half].reshape(len(centers), size * size)


def stats_from_matrix(rows: np.ndarray, eps: float = 1e-3) -> ProfileStats:
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
    # One dot per landmark: a stacked sum would round differently.
    trace = np.array([np.vdot(x, x) for x in dev.reshape(-1, m * d)]).reshape(dev.shape[:-2])
    return ProfileStats(mean, basis=np.swapaxes(vt[..., :m - 1, :], -1, -2),
                        lam=s[..., :m - 1] ** 2 / (m - 1), rho=_ridge(eps, trace / (m - 1), d))


def mahalanobis_cost(stats: ProfileStats, g: Profile) -> float:
    """Quadratic form (g - mean)^T (C + rho I)^-1 (g - mean) of one profile."""
    if g.dim != stats.dim:
        raise DimensionMismatchError(f"profile dim {g.dim} vs stats dim {stats.dim}")
    return float(mahalanobis_batch(stats, g.values[None, :])[0])


def owner_bounds(owner, rows: int, k: int) -> list:
    """Row bounds of the blocks of an owner array: landmark j owns rows
    bounds[j]:bounds[j + 1].

    owner must hold one landmark index in [0, k) per row, as integers in
    ascending order; anything else raises DimensionMismatchError. A
    landmark with no rows has an empty block.
    """
    owner = np.asarray(owner)
    if owner.shape != (rows,) or (rows and owner.dtype.kind not in "iu"):
        raise DimensionMismatchError(f"owner indices {owner.shape} of dtype {owner.dtype} "
                                     f"for {rows} rows; need one integer per row")
    if rows and (owner[0] < 0 or owner[-1] >= k or (owner[1:] < owner[:-1]).any()):
        raise DimensionMismatchError(f"owner indices must be sorted and lie in [0, {k})")
    return np.searchsorted(owner, np.arange(k + 1)).tolist()


def mahalanobis_batch(stats: ProfileStats, rows: np.ndarray, landmark=None) -> np.ndarray:
    """Regularized Mahalanobis cost of every row of an (m, d) candidate matrix.

    In-span part sum((U^T delta)^2 / (lam + rho)) plus the residual outside
    span(U) over rho; the residual term is absent when U spans every dim.
    For stacked statistics, landmark names the row of the stack to use.

    Two forms score several landmarks in one call with the bytes of the
    indexed form. Without a landmark index, a (k, c, d) stack of rows
    against statistics of k stacked landmarks gives each landmark's c
    costs, (k, c); the stacked matmuls make the indexed form's products
    once per landmark. With landmark an (m,) array of sorted owner indices
    (see owner_bounds), row i is scored against landmark landmark[i], (m,):
    the elementwise terms run once over all rows, and each landmark's
    matmuls run on its own block of rows, as the indexed form runs them.
    """
    rows = np.asarray(rows, dtype=float)
    if np.ndim(landmark) == 1:
        return _owner_costs(stats, rows, landmark)
    mean, basis, weights, rho = stats.mean, stats.basis, stats.weights, stats.rho
    if landmark is not None:
        mean, basis, weights, rho = mean[landmark], basis[landmark], weights[landmark], rho[landmark]
    stacked = rows.ndim == 3 and mean.ndim == 2
    if stacked:
        if mean.shape != rows.shape[::2]:
            raise DimensionMismatchError(f"rows {rows.shape} vs stats mean {mean.shape}")
        mean, rho = mean[:, None, :], rho[:, None]
    elif mean.shape != rows.shape[-1:]:
        raise DimensionMismatchError(f"profile dim {rows.shape[-1]} vs stats mean {mean.shape} "
                                     "(stacked statistics need a landmark index)")
    delta = rows - mean
    proj = delta @ basis
    sq = proj * proj
    cost = np.matmul(sq, weights[:, :, None])[:, :, 0] if stacked else sq @ weights
    if stats.rank < stats.dim:
        cost += (np.einsum("...d,...d->...", delta, delta) - sq.sum(axis=-1)) / rho
    return cost


def _owner_costs(stats: ProfileStats, rows: np.ndarray, owner) -> np.ndarray:
    """mahalanobis_batch's owner form: row i against landmark owner[i]."""
    if stats.mean.ndim != 2 or rows.ndim != 2 or rows.shape[1] != stats.dim:
        raise DimensionMismatchError(f"rows {rows.shape} vs stats mean {stats.mean.shape} "
                                     "(owner indices need stacked statistics and (m, d) rows)")
    bounds = owner_bounds(owner, len(rows), len(stats.mean))
    blocks = list(enumerate(zip(bounds, bounds[1:])))
    delta = rows - stats.mean[owner]
    proj = np.empty((len(rows), stats.rank))
    for j, (a, b) in blocks:
        np.matmul(delta[a:b], stats.basis[j], out=proj[a:b])
    sq = proj * proj
    cost = np.empty(len(rows))
    for j, (a, b) in blocks:
        np.matmul(sq[a:b], stats.weights[j], out=cost[a:b])
    if stats.rank < stats.dim:
        cost += (np.einsum("...d,...d->...", delta, delta) - sq.sum(axis=-1)) / stats.rho[owner]
    return cost


def edge_weighted_cost(stats: ProfileStats, g: Profile, on_edge: bool, c: float = 2.0) -> float:
    """(c - I) * mahalanobis_cost with I = 1 on an edge pixel, 0 off it."""
    if not c > 1:
        raise ValueError(f"edge weight constant must exceed 1, got {c}")
    return (c - (1.0 if on_edge else 0.0)) * mahalanobis_cost(stats, g)
