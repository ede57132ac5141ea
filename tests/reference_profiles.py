"""Direct forms of the profile fast paths, used as oracles in tests.

The library scores candidates from an eigen-factor of each landmark's
training covariance and never forms an inverse. This module keeps the
direct form that the factor replaces: the symmetrized sample covariance C,
the ridge rho = eps * trace(C) / d (floored at 1e-12 when eps > 0), the
explicit inverse of C + rho * I, and the quadratic form evaluated row by
row.

The library copies gradient windows out of a strided view and normalizes
them with one division. This module keeps the clamped three-index gather
of every window and the masked sum normalization those replace.

Training takes each level's 2-D profile statistics from the positive
windows of its SVM stacks, stack by stack. This module keeps the separate
pass those replace, level_window_stats: every landmark's window at its
annotated point in every image, then one stats_from_matrix call.

The library computes every landmark's normal in one vectorized pass from
the scheme's chord_ends arrays; this module keeps the per-landmark form,
landmark_normal, and the scheme lookups it uses, group_of and neighbors.
single_contour_scheme makes the one-contour schemes the tests use.

The library scores float32 means and bases by projecting the deltas in
float32; factor_costs keeps the float64 quadratic form of the same
eigen-factor, evaluated row by row through its dense matrix.

The library scores stacked statistics with one owner index per row;
landmark_stats gives one landmark's statistics alone, to score its rows
with the unstacked form. When the landmarks own unequal row counts the
library scores every block zero-padded to the largest count, in one stack;
padded_block_scores keeps the form that replaces: each landmark's block
padded alone and scored by its own model alone, one call per landmark.

The library gathers a search pass's windows from one border-clamped patch
per landmark; grid_centers gives the centers of the grid nodes a mask picks,
for windows_batch and clamped_windows to gather the same windows one by one.

The library cuts each level's 2-D statistics to a leading subspace, as
views of the eigen-factor, and folds the dropped variance into the ridge;
subspace_dense_costs keeps the dense form of that model: the explicit
inverse of U_r diag(lam_r) U_r^T + rho' I built from the sample covariance.
"""

import numpy as np

from asmfit.errors import ShapeArityError
from asmfit.imaging import build_pyramid, equalize_histogram, sobel_gradients
from asmfit.profiles import ProfileStats, stats_from_matrix
from asmfit.scheme import ContourGroup, LandmarkScheme


def single_contour_scheme(n: int, closed: bool = True) -> LandmarkScheme:
    """A scheme treating all n landmarks as one contour."""
    return LandmarkScheme((ContourGroup("all", n, closed),))


def sample_covariance(rows):
    """(mean, covariance) of an (m, d) sample matrix, divisor m - 1."""
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=0)
    dev = rows - mean
    return mean, dev.T @ dev / (rows.shape[0] - 1)


def regularized_inverse(cov, eps):
    """(C + rho * I)^-1 for the symmetrized covariance C."""
    cov = np.asarray(cov, dtype=float)
    cov = (cov + cov.T) / 2
    d = cov.shape[0]
    ridge = eps * float(np.trace(cov)) / d
    if eps > 0:
        ridge = max(ridge, 1e-12)
    return np.linalg.inv(cov + ridge * np.eye(d))


def dense_costs(mean, cov, eps, rows):
    """delta^T (C + rho * I)^-1 delta for every row, one row at a time."""
    inverse = regularized_inverse(cov, eps)
    out = []
    for row in np.atleast_2d(np.asarray(rows, dtype=float)):
        delta = row - mean
        out.append(float(delta @ inverse @ delta))
    return np.array(out)


def subspace_dense_costs(rows, eps, rank, candidates):
    """delta^T (U_r diag(lam_r) U_r^T + rho' I)^-1 delta for every candidate,
    one row at a time: U_r and lam_r are the rank largest eigenpairs of the
    sample covariance C of rows, and rho' = rho + (sum of the others) / (d - rank)
    with rho = eps * trace(C) / d, floored at 1e-12 when eps > 0."""
    mean, cov = sample_covariance(rows)
    cov = (cov + cov.T) / 2
    d = cov.shape[0]
    lam, vec = np.linalg.eigh(cov)
    lam, vec = np.maximum(lam[::-1], 0.0), vec[:, ::-1]
    ridge = eps * float(np.trace(cov)) / d
    if eps > 0:
        ridge = max(ridge, 1e-12)
    if rank < d:
        ridge += lam[rank:].sum() / (d - rank)
    kept = vec[:, :rank]
    inverse = np.linalg.inv(kept @ np.diag(lam[:rank]) @ kept.T + ridge * np.eye(d))
    out = []
    for row in np.atleast_2d(np.asarray(candidates, dtype=float)):
        delta = row - mean
        out.append(float(delta @ inverse @ delta))
    return np.array(out)


def factor_costs(mean, basis, lam, rho, rows):
    """sum((U^T delta)^2 / (lam + rho)) + (|delta|^2 - |U^T delta|^2) / rho
    for every row of one landmark, in float64 whatever the inputs' dtype,
    one row at a time through the dense matrix U diag(1 / (lam + rho)) U^T
    + (I - U U^T) / rho. Its second term is absent when U is square, as the
    library's residual term is."""
    mean, basis, lam = (np.asarray(a, dtype=float) for a in (mean, basis, lam))
    d, r = basis.shape
    form = basis @ np.diag(1.0 / (lam + rho)) @ basis.T
    if r < d:
        form += (np.eye(d) - basis @ basis.T) / rho
    return np.array([float(delta @ form @ delta)
                     for delta in np.atleast_2d(np.asarray(rows, dtype=float)) - mean])


def landmark_stats(stats, j):
    """Landmark j's unstacked statistics; every field is a view of row j of
    the stack, so it keeps the alignment the stacked scorer reads it with."""
    one = ProfileStats(stats.mean[j], basis=stats.basis[j], lam=stats.lam[j], rho=stats.rho[j])
    object.__setattr__(one, "weights", stats.weights[j])
    return one


def padded_block_scores(score, single, stack, rows, counts):
    """The (m,) scores of an owner-form call by the padded-block rule: the
    block of landmark j, counts[j] rows, zero-padded to the largest count,
    scored by score(single(stack, j), padded block) alone, its pad rows
    dropped. With equal counts no block is padded."""
    rows = np.asarray(rows, dtype=float)
    c = max(counts, default=0)
    bounds = np.cumsum([0] + list(counts))
    out = [np.zeros(0)]
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        block = np.zeros((c, rows.shape[1]))
        block[:b - a] = rows[a:b]
        out.append(score(single(stack, j), block)[:b - a])
    return np.concatenate(out)


def grid_centers(origins, mask):
    """(n, 2) centers of the nodes mask (k, g, g) picks from grids whose
    node (a, b) of landmark j lies at origins[j] + (b, a), in np.nonzero order."""
    j, a, b = np.nonzero(mask)
    return np.asarray(origins, dtype=float)[j] + np.stack([b, a], axis=1)


def clamped_windows(values, centers, size):
    """(k, size*size) windows read with one three-index gather of clamped rows and columns."""
    h, w = values.shape
    centers = np.asarray(centers, dtype=float)
    half = size // 2
    offs = np.arange(-half, half + 1)
    cx = np.rint(centers[:, 0]).astype(int)
    cy = np.rint(centers[:, 1]).astype(int)
    xs = np.clip(cx[:, None] + offs[None, :], 0, w - 1)
    ys = np.clip(cy[:, None] + offs[None, :], 0, h - 1)
    wins = values[ys[:, :, None], xs[:, None, :]]
    return wins.reshape(len(centers), size * size)


def sum_normalized(flat):
    """Rows divided by their sum; rows summing to under 1e-12 become uniform."""
    flat = np.asarray(flat, dtype=float)
    total = flat.sum(axis=-1, keepdims=True)
    dim = flat.shape[-1]
    safe = np.where(np.abs(total) < 1e-12, 1.0, total)
    out = flat / safe
    out[np.broadcast_to(np.abs(total) < 1e-12, out.shape)] = 1.0 / dim
    return out


def level_window_stats(samples, level, size, eps=1e-3, levels=3):
    """2-D profile statistics of one pyramid level: the sum-normalized
    windows of all n landmarks at their annotated points on the equalized
    Sobel magnitude, then stats_from_matrix over (n, images, size*size)."""
    windows = []
    for sample in samples:
        raw = build_pyramid(sample.image, levels)[level]
        magnitude = sobel_gradients(equalize_histogram(raw)).magnitude
        points = sample.shape.points / 2.0**level
        windows.append(sum_normalized(clamped_windows(magnitude, points, size)))
    return stats_from_matrix(np.stack(windows, axis=1), eps)


def group_of(scheme, index):
    """(group, start offset) owning the global landmark index."""
    for group, (_, span) in zip(scheme.groups, scheme.group_slices()):
        if span.start <= index < span.stop:
            return group, span.start
    raise IndexError(f"landmark index {index} outside scheme of {scheme.total}")


def neighbors(scheme, index):
    """Global indices (prev, next) along the landmark's contour.

    Open-contour endpoints get None on the missing side; closed contours
    wrap around.
    """
    g, start = group_of(scheme, index)
    local = index - start
    prev = local - 1
    nxt = local + 1
    if g.closed:
        return start + prev % g.count, start + nxt % g.count
    return (start + prev if prev >= 0 else None,
            start + nxt if nxt < g.count else None)


def landmark_normal(shape, index, scheme=None):
    """Unit normal at one landmark, pointing away from the shape centroid.

    The tangent is the chord joining the landmark's contour neighbors
    (endpoints of open contours use their single adjacent segment). A
    degenerate chord falls back to the centroid-to-landmark direction.
    """
    if scheme is None:
        scheme = single_contour_scheme(shape.n)
    if scheme.total != shape.n:
        raise ShapeArityError(f"scheme covers {scheme.total} landmarks, shape has {shape.n}")
    prev, nxt = neighbors(scheme, index)
    pts = shape.points
    a = pts[prev] if prev is not None else pts[index]
    b = pts[nxt] if nxt is not None else pts[index]
    chord = b - a
    normal = np.array([-chord[1], chord[0]])
    length = np.linalg.norm(normal)
    if length < 1e-12:
        normal = pts[index] - shape.centroid()
        length = np.linalg.norm(normal)
        if length < 1e-12:
            return np.array([1.0, 0.0])
    normal = normal / length
    outward = pts[index] - shape.centroid()
    if normal @ outward < 0:
        normal = -normal
    return normal
