"""Multi-resolution landmark search: candidate scoring, gating, fitting loop.

Fitting walks the pyramid coarse to fine. At each level every landmark
scans the integer grid within a Chebyshev radius of its current position,
scores candidates with the mode's profile cost (SVM-gated and
edge-weighted in asm_svm), and the whole shape is then pulled back onto the
constrained shape model. Levels hand off by doubling coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoxError,
    DegenerateShapeError,
    DimensionMismatchError,
    InitializationError,
    ShapeArityError,
)
from .imaging import GrayImage, ImagePyramid, canny_edges, equalize_histogram, sobel_gradients
from .imaging import sample_bilinear  # noqa: F401 (perfbench/tracing.py:WRAPS wraps this name)
from .profiles import (
    ProfileStats,
    check_numbers,
    integer_sizes,
    landmark_normals,
    mahalanobis_batch,
    normalize_windows,
    profiles_1d_batch,
    windows_batch,
)
from .shape_model import Shape, ShapeModel, fit_params, synthesize
from .svm import LinearSvmModel, decision_values

# Least fraction of init landmarks inside the level-0 image that fit accepts.
MIN_INIT_INSIDE = 0.5


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitting loop.

    profile_lengths is indexed by pyramid level: entry 0 applies at full
    resolution, the last entry at the coarsest level. Defaults follow the
    coarse-to-fine shrinkage 15, 7, 3 with the 15-wide window at the
    coarsest level. mode, asm_svm or classic, names the pipeline.
    """

    levels: int = 3
    profile_lengths: tuple = (3, 7, 15)
    search_radius: int = 3
    max_iters_per_level: int = 20
    convergence: float = 0.9
    c: float = 2.0
    canny_low: float = 50.0
    canny_high: float = 150.0
    mode: str = "asm_svm"

    def __post_init__(self):
        reals = check_numbers(vars(self), integers=("levels", "search_radius", "max_iters_per_level"),
                              reals=("convergence", "c", "canny_low", "canny_high"))
        for name, value in reals.items():
            object.__setattr__(self, name, value)
        if self.levels < 1:
            raise ShapeArityError(f"need at least 1 level, got {self.levels}")
        lengths = integer_sizes("profile_lengths", self.profile_lengths)
        if len(lengths) != self.levels:
            raise ShapeArityError(
                f"profile_lengths needs one entry per level, got {len(lengths)} for {self.levels}"
            )
        object.__setattr__(self, "profile_lengths", lengths)
        if self.search_radius < 1:
            raise ShapeArityError(f"search_radius must be >= 1, got {self.search_radius}")
        if self.max_iters_per_level < 0:
            raise ShapeArityError("max_iters_per_level must be >= 0")
        if not 0 < self.convergence <= 1:
            raise ShapeArityError(f"convergence fraction must be in (0, 1], got {self.convergence}")
        if not self.c > 1:
            raise ShapeArityError(f"edge weight constant must exceed 1, got {self.c}")
        if not 0 <= self.canny_low <= self.canny_high:
            raise ShapeArityError(f"canny_low must be in [0, canny_high], got low="
                                  f"{self.canny_low} high={self.canny_high}")
        if self.mode not in ("asm_svm", "classic"):
            raise ShapeArityError(f"unknown mode {self.mode!r}, expected classic or asm_svm")


@dataclass(frozen=True, eq=False)
class LevelContext:
    """Per-level cache of models stacked over the landmarks and of images;
    classic leaves magnitude (the Sobel gradient magnitude), edge_map and
    svms None."""

    raw: GrayImage
    magnitude: np.ndarray
    edge_map: np.ndarray
    stats: ProfileStats
    svms: LinearSvmModel
    scheme: object


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted shape plus the loop's bookkeeping.

    The shape always satisfies the model constraint: it is T(mean + modes@b)
    for the last regularization's similarity T and clamped b. iterations and
    converged are indexed by pyramid level; landmark_costs holds the final
    search pass's per-landmark costs (None when search never ran).
    """

    shape: Shape
    iterations: tuple
    converged: tuple
    landmark_costs: np.ndarray


def init_shape_from_box(model: ShapeModel, box) -> Shape:
    """Mean shape scaled anisotropically (no rotation) to fill the box.

    box is (x, y, width, height) in level-0 pixels. A box that is not four
    real numbers, has a non-finite entry or a width or height under 1 pixel
    raises BoxError.
    """
    try:
        x, y, w, h = (float(v) for v in box)
    except (TypeError, ValueError, OverflowError):
        raise BoxError(f"box must be four real numbers x, y, width, height, got {box!r}") from None
    if not np.isfinite((x, y, w, h)).all():
        raise BoxError(f"box entries must be finite, got {(x, y, w, h)}")
    if not (w >= 1 and h >= 1):
        raise BoxError(f"box needs a width and height of at least 1 pixel, got {w}x{h}")
    x0, y0, x1, y1 = model.mean_shape.bounding_box()
    if x1 - x0 < 1e-12 or y1 - y0 < 1e-12:
        raise DegenerateShapeError("mean shape has no extent to place in a box")
    pts = model.mean_shape.points
    sx = w / (x1 - x0)
    sy = h / (y1 - y0)
    out = (pts - (x0, y0)) * (sx, sy) + (x, y)
    return Shape(out)


def _candidate_grid(points: np.ndarray, radius: int):
    """Integer candidate centers within Chebyshev `radius` of each point.

    Returns (cx, cy, valid, cheb), each (k, m) with m = (2*radius+1)^2 and
    candidates enumerated row-major (dy outer, dx inner). valid masks out
    pad entries beyond the radius (the grid per axis holds 2r or 2r+1
    integers depending on the fractional part of the position).
    """
    r = radius
    offs = np.arange(2 * r + 1)
    x0 = np.ceil(points[:, 0] - r)
    y0 = np.ceil(points[:, 1] - r)
    gx = x0[:, None] + offs[None, :]
    gy = y0[:, None] + offs[None, :]
    ok_x = gx <= np.floor(points[:, 0] + r)[:, None]
    ok_y = gy <= np.floor(points[:, 1] + r)[:, None]
    k = len(points)
    m = (2 * r + 1) ** 2
    cx = np.broadcast_to(gx[:, None, :], (k, 2 * r + 1, 2 * r + 1)).reshape(k, m)
    cy = np.broadcast_to(gy[:, :, None], (k, 2 * r + 1, 2 * r + 1)).reshape(k, m)
    valid = (ok_y[:, :, None] & ok_x[:, None, :]).reshape(k, m)
    cheb = np.maximum(np.abs(cx - points[:, 0:1]), np.abs(cy - points[:, 1:2]))
    return cx, cy, valid, cheb


def _candidate_features(ctx: LevelContext, shape: Shape, size: int,
                        centers: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """(n, d) normalized feature rows of n candidates; centers is (n, 2) and
    owner (n,) holds the landmark each candidate belongs to."""
    if ctx.magnitude is None:
        normals = landmark_normals(shape, ctx.scheme)[owner]
        return profiles_1d_batch(ctx.raw, centers, normals, size)
    rows = windows_batch(ctx.magnitude, centers, size)
    return normalize_windows(rows, "sum", out=rows)


def _by_landmark(score, model, rows: np.ndarray, owner: np.ndarray, k: int) -> np.ndarray:
    """score(model, ...) of every row, flat: row i against entry owner[i] of
    the stacked model of k landmarks, with owner sorted.

    One call either way: on the (k, c, d) view of rows when every landmark
    has the same c rows, otherwise in the owner form. score is
    decision_values or mahalanobis_batch, whose two forms give the
    per-landmark bytes.
    """
    counts = np.bincount(owner, minlength=k)
    if (counts == counts[0]).all():
        return score(model, rows.reshape(k, counts[0], rows.shape[-1])).ravel()
    return score(model, rows, owner)


def search_landmarks(ctx: LevelContext, shape: Shape, config: FitConfig, level: int):
    """One candidate-search pass; every landmark moves independently.

    Candidates within the Chebyshev search radius compete; when the
    context holds SVMs, only candidates the landmark's classifier accepts
    do, falling back to all of them if none pass. Only the competing
    candidates are scored by the Mahalanobis profile cost, weighted down on
    edge pixels when the context holds an edge map. Ties break toward the
    smaller displacement, then row-major candidate order.

    Returns (new Shape, per-landmark winning costs).
    """
    size = config.profile_lengths[level]
    pts = shape.points
    cx, cy, allowed, cheb = _candidate_grid(pts, config.search_radius)
    k, m = cx.shape
    if ctx.stats.mean.shape[:-1] != (k,):
        raise DimensionMismatchError(f"statistics {ctx.stats.mean.shape} for {k} landmarks")
    if ctx.svms is not None and ctx.svms.weights.shape[:-1] != (k,):
        raise DimensionMismatchError(f"SVM stack {ctx.svms.weights.shape} for {k} landmarks")
    # Features of the in-radius candidates only, landmark after landmark in
    # row-major order; row i belongs to landmark owner[i].
    owner = np.nonzero(allowed)[0]
    rows = _candidate_features(ctx, shape, size, np.stack([cx[allowed], cy[allowed]], axis=1),
                               owner)
    if ctx.svms is not None:
        accepted = _by_landmark(decision_values, ctx.svms, rows, owner, k) >= 0
        # A landmark none of whose candidates its classifier accepts keeps them all.
        passed = np.zeros(k, dtype=bool)
        passed[owner[accepted]] = True
        keep = accepted | ~passed[owner]
        allowed[allowed] = keep
        rows = rows[keep]
        owner = owner[keep]

    # Only the competing candidates are scored, each landmark against its own statistics.
    costs = np.full((k, m), np.inf)
    costs[allowed] = _by_landmark(mahalanobis_batch, ctx.stats, rows, owner, k)
    if ctx.edge_map is not None:
        h, w = ctx.edge_map.shape
        ex = np.clip(cx.astype(int), 0, w - 1)
        ey = np.clip(cy.astype(int), 0, h - 1)
        np.multiply(costs, config.c - ctx.edge_map[ey, ex], out=costs, where=allowed)

    # Lowest cost, then smallest Chebyshev distance, then first in row-major
    # order. Candidates that do not compete cost inf and lose to any finite cost.
    best = costs == costs.min(axis=1, keepdims=True)
    near = np.where(best, cheb, np.inf)
    best &= near == near.min(axis=1, keepdims=True)
    pick = best.argmax(axis=1)
    lm = np.arange(k)
    return Shape(np.stack([cx[lm, pick], cy[lm, pick]], axis=1)), costs[lm, pick]


def _regularize(model: ShapeModel, shape: Shape) -> Shape:
    """Pull a shape back onto the constrained model manifold; fit_params
    returns clamped coefficients."""
    pf = fit_params(model, shape)
    return Shape(pf.transform.apply(synthesize(model, pf.params).points))


def build_level_context(bundle, level_image: GrayImage, level: int, config: FitConfig) -> LevelContext:
    """Everything one level's search needs: the one place a mode becomes a pipeline.

    asm_svm adds Sobel gradients and Canny edges of the level image after
    histogram equalization, and the level's SVMs; classic samples 1-D
    profiles from raw.
    """
    asm = config.mode == "asm_svm"
    pm = bundle.asm_profiles if asm else bundle.classic_profiles
    if pm.sizes[level] != config.profile_lengths[level]:
        raise DimensionMismatchError(
            f"level {level}: configured profile length {config.profile_lengths[level]} "
            f"does not match trained size {pm.sizes[level]}"
        )
    ctx = LevelContext(raw=level_image, magnitude=None, edge_map=None, stats=pm.stats[level],
                       svms=None, scheme=bundle.scheme)
    if not asm:
        return ctx
    image = equalize_histogram(level_image)
    return replace(ctx, magnitude=sobel_gradients(image).magnitude,
                   edge_map=canny_edges(image, config.canny_low, config.canny_high),
                   svms=bundle.svms[level])


def fit(pyramid: ImagePyramid, bundle, init: Shape, config: FitConfig = None) -> FitResult:
    """Coarse-to-fine constrained fit of the bundle's model to one image.

    The init shape (level-0 pixels) is scaled down to the coarsest level
    and regularized; each level then loops search + regularization until
    the configured fraction of landmarks moves under a pixel, and hands
    its shape up by doubling coordinates. Deterministic: no randomness.

    Raises DimensionMismatchError when the pyramid does not have the
    config's levels or the bundle has fewer, and InitializationError when
    fewer than MIN_INIT_INSIDE (half) of the init landmarks lie inside the
    level-0 image.
    """
    if config is None:
        config = bundle.fit_defaults
    if len(pyramid.levels) != config.levels:
        raise DimensionMismatchError(
            f"pyramid has {len(pyramid.levels)} levels, config expects {config.levels}"
        )
    if config.levels > bundle.asm_profiles.levels:
        raise DimensionMismatchError(
            f"config asks for {config.levels} levels, the bundle holds {bundle.asm_profiles.levels}"
        )
    base = pyramid.levels[0]
    inside = (
        (init.points[:, 0] >= 0) & (init.points[:, 0] <= base.width - 1)
        & (init.points[:, 1] >= 0) & (init.points[:, 1] <= base.height - 1)
    )
    if inside.mean() < MIN_INIT_INSIDE:
        raise InitializationError(
            f"{np.count_nonzero(~inside)} of {len(inside)} init landmarks lie outside the "
            f"{base.width}x{base.height} image; at least {MIN_INIT_INSIDE:.0%} must lie inside"
        )

    model = bundle.shape_model
    top = config.levels - 1
    shape = Shape(init.points / 2.0**top)
    iterations = [0] * config.levels
    converged = [False] * config.levels
    costs = None
    for level in range(top, -1, -1):
        shape = _regularize(model, shape)
        if config.max_iters_per_level:
            ctx = build_level_context(bundle, pyramid.levels[level], level, config)
        for _ in range(config.max_iters_per_level):
            iterations[level] += 1
            searched, costs = search_landmarks(ctx, shape, config, level)
            updated = _regularize(model, searched)
            moved = np.linalg.norm(updated.points - shape.points, axis=1)
            shape = updated
            if np.mean(moved < 1.0) >= config.convergence:
                converged[level] = True
                break
        if level > 0:
            shape = Shape(shape.points * 2.0)
    return FitResult(shape, tuple(iterations), tuple(converged), costs)


def config_for_mode(bundle, mode: str) -> FitConfig:
    """Fit configuration for the two evaluation pipelines.

    Both reuse the training-time defaults stored in the bundle, which name
    asm_svm; classic swaps in its mode and its trained profile lengths.
    """
    if mode == "asm_svm":
        return bundle.fit_defaults
    if mode == "classic":
        return replace(bundle.fit_defaults, mode="classic",
                       profile_lengths=bundle.classic_profiles.sizes)
    raise ShapeArityError(f"unknown mode {mode!r}, expected classic or asm_svm")
