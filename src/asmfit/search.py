"""Multi-resolution landmark search: candidate scoring, gating, fitting loop.

Fitting walks the pyramid coarse to fine in fit_contexts, which pulls the
init onto the constrained shape model once, at the coarsest level. At each
level fit_level has every landmark scan the integer grid within a Chebyshev
radius of its current position and score candidates with the mode's profile
cost (SVM-gated in asm_svm, and edge-weighted there at every level but the
finest), and pulls the whole shape back onto the model with
_PASS_PROJECTIONS projections; fit_contexts hands each level's shape to the
next by doubling coordinates, a similarity, so the next level starts from a
model instance. fit runs it on one image's level contexts. The asm_svm gate
runs first, on the raw gradient windows, so only the candidates that
compete are sum-normalized and scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoxError,
    DegenerateShapeError,
    DimensionMismatchError,
    InitializationError,
    ShapeArityError,
    check_canny_thresholds,
    check_edge_weight,
    check_levels,
    check_numbers,
    check_radius,
)
from .imaging import GrayImage, canny_edges, equalize_histogram, sobel_gradients
from .imaging import sample_bilinear  # noqa: F401 (perfbench/tracing.py:WRAPS wraps this name)
from .profiles import (
    ProfileStats,
    homogeneous_rows,
    landmark_normals,
    mahalanobis_batch,
    normalize_derivatives,
    normalize_windows,
    profile_derivatives,
    windows_batch,
)
from .shape_model import Shape, ShapeModel, fit_params
from .svm import LinearSvmModel, decision_values

# Least fraction of init landmarks inside the level-0 image that fit accepts.
MIN_INIT_INSIDE = 0.5
# Projections of each search pass's regularization. Each one shrinks the
# coefficient step about 3e-3 times, so two leave the shape within ~3e-5 px
# of fit_params' converged fit, far below the one-pixel grid the search moves on.
_PASS_PROJECTIONS = 2


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitting loop.

    levels counts the pyramid levels a fit walks, from the bundle's first;
    each level's profile length or window side is the one trained at that
    level. mode, asm_svm or classic, names the pipeline. canny_low,
    canny_high and the edge weight c act only at asm_svm levels >= 1, the
    only ones with an edge map, so a one-level asm_svm fit reads none of them.
    """

    levels: int = 3
    search_radius: int = 3
    max_iters_per_level: int = 20
    convergence: float = 0.9
    c: float = 2.0
    canny_low: float = 50.0
    canny_high: float = 150.0
    mode: str = "asm_svm"

    def __post_init__(self):
        check_levels(self.levels)
        check_radius("search_radius", self.search_radius)
        reals = check_numbers(vars(self), integers=("max_iters_per_level",),
                              reals=("convergence", "c", "canny_low", "canny_high"))
        for name, value in reals.items():
            object.__setattr__(self, name, value)
        if self.max_iters_per_level < 0:
            raise ShapeArityError("max_iters_per_level must be >= 0")
        if not 0 < self.convergence <= 1:
            raise ShapeArityError(f"convergence fraction must be in (0, 1], got {self.convergence}")
        check_edge_weight(self.c)
        check_canny_thresholds(self.canny_low, self.canny_high)
        if self.mode not in ("asm_svm", "classic"):
            raise ShapeArityError(f"unknown mode {self.mode!r}, expected classic or asm_svm")


@dataclass(frozen=True, eq=False)
class LevelContext:
    """Per-level cache of images and of models stacked over the landmarks,
    sized by the statistics' dimension; classic leaves magnitude (the Sobel
    gradient magnitude), edge_map and svms None, and asm_svm leaves edge_map None at level 0."""

    raw: GrayImage
    magnitude: np.ndarray
    edge_map: np.ndarray
    stats: ProfileStats
    svms: LinearSvmModel
    scheme: object


@dataclass(frozen=True, eq=False)
class LevelFit:
    """One pyramid level's search: its final shape, in that level's own
    pixels, the last pass's per-landmark costs (None when no pass ran), the
    passes run and whether the last one converged."""

    shape: Shape
    costs: np.ndarray
    passes: int
    converged: bool


@dataclass(frozen=True, eq=False)
class FitResult:
    """One LevelFit per pyramid level, finest first.

    shape is the finest level's, in level-0 pixels; it always satisfies the
    model constraint: it is T(mean + modes@b) for the last regularization's
    similarity T and clamped b. iterations and converged are indexed by
    pyramid level.
    """

    levels: tuple

    @property
    def shape(self) -> Shape:
        return self.levels[0].shape

    @property
    def iterations(self) -> tuple:
        return tuple(lv.passes for lv in self.levels)

    @property
    def converged(self) -> tuple:
        return tuple(lv.converged for lv in self.levels)


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


def _candidate_features(ctx: LevelContext, shape: Shape, centers: np.ndarray,
                        owner: np.ndarray) -> np.ndarray:
    """(n, d) feature rows of n candidates, not yet normalized (see
    _normalized); centers is (n, 2) and owner (n,) holds the landmark each
    candidate belongs to."""
    if ctx.magnitude is None:
        normals = landmark_normals(shape, ctx.scheme)[owner]
        return profile_derivatives(ctx.raw, centers, normals, ctx.stats.dim)
    return windows_batch(ctx.magnitude, centers, math.isqrt(ctx.stats.dim))


def _normalized(ctx: LevelContext, rows: np.ndarray) -> np.ndarray:
    """_candidate_features rows normalized in place, as training normalized
    them: a 1-D profile by its absolute sum, a 2-D window by its sum."""
    if ctx.magnitude is None:
        return normalize_derivatives(rows)
    return normalize_windows(rows, "sum", out=rows)


def search_landmarks(ctx: LevelContext, shape: Shape, config: FitConfig):
    """One candidate-search pass; every landmark moves independently.

    Candidates within the Chebyshev search radius compete; when the
    context holds SVMs, only candidates the landmark's classifier accepts
    do, falling back to all of them if none pass. The classifiers were
    trained on normalized rows, but gate the raw ones: a row g with
    normalizer s > 0 is accepted when w.g + b*s >= 0, the sign of
    w.(g / s) + b (profiles.homogeneous_rows). Only the competing
    candidates are normalized and scored by the Mahalanobis profile cost,
    weighted down on edge pixels when the context holds an edge map. Ties
    break toward the smaller displacement, then row-major candidate order.
    A tie is of computed costs: on BLAS kernels whose matmul rounding
    depends on a row's position (OpenBLAS Haswell), two identical windows,
    such as two clamped to the same border pixels, can cost one ulp apart,
    and the cheaper one wins whatever its displacement.

    Returns (new Shape, per-landmark winning costs).
    """
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
    rows = _candidate_features(ctx, shape, np.stack([cx[allowed], cy[allowed]], axis=1), owner)
    if ctx.svms is not None:
        gated, sums = homogeneous_rows(rows, absolute=ctx.magnitude is None)
        accepted = decision_values(ctx.svms, gated, owner, sums) >= 0
        # A landmark none of whose candidates its classifier accepts keeps them all.
        passed = np.zeros(k, dtype=bool)
        passed[owner[accepted]] = True
        keep = accepted | ~passed[owner]
        allowed[allowed] = keep
        rows = rows[keep]
        owner = owner[keep]
    rows = _normalized(ctx, rows)

    # Only the competing candidates are scored, each landmark against its own statistics.
    costs = np.full((k, m), np.inf)
    costs[allowed] = mahalanobis_batch(ctx.stats, rows, owner)
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


def build_level_context(bundle, level_image: GrayImage, level: int, config: FitConfig) -> LevelContext:
    """Everything one level's search needs: the one place a mode becomes a pipeline.

    asm_svm adds Sobel gradients of the level image after histogram
    equalization and the level's SVMs, and at levels >= 1 its Canny edges;
    level 0 computes no edge map, so its search is not edge-weighted and a
    one-level asm_svm fit runs no Canny at all. classic samples 1-D
    profiles from raw. The level's profile size is the one it was trained with.
    """
    asm = config.mode == "asm_svm"
    lv = bundle.levels[level]
    ctx = LevelContext(raw=level_image, magnitude=None, edge_map=None,
                       stats=lv.asm if asm else lv.classic, svms=None, scheme=bundle.scheme)
    if not asm:
        return ctx
    image = equalize_histogram(level_image)
    return replace(ctx, magnitude=sobel_gradients(image).magnitude,
                   edge_map=canny_edges(image, config.canny_low, config.canny_high) if level else None,
                   svms=lv.svms)


def fit_level(ctx: LevelContext, shape: Shape, model: ShapeModel, config: FitConfig) -> LevelFit:
    """One pyramid level's search from `shape`, a model instance: search and
    regularize it (fit_params capped at _PASS_PROJECTIONS projections) until
    config.convergence of the landmarks move under a pixel, for at most
    max_iters_per_level passes. With no pass, the LevelFit holds the shape
    as given, no costs and 0 passes."""
    costs = None
    for passes in range(1, config.max_iters_per_level + 1):
        searched, costs = search_landmarks(ctx, shape, config)
        updated = Shape(fit_params(model, searched, max_iters=_PASS_PROJECTIONS).points)
        moved = np.linalg.norm(updated.points - shape.points, axis=1)
        shape = updated
        if np.mean(moved < 1.0) >= config.convergence:
            return LevelFit(shape, costs, passes, True)
    return LevelFit(shape, costs, config.max_iters_per_level, False)


def fit_contexts(contexts, model: ShapeModel, init: Shape, config: FitConfig) -> FitResult:
    """The coarse-to-fine fit on level contexts indexed by level, finest
    first: the init shape (level-0 pixels) is scaled down to the coarsest
    level and fitted to the model once, with fit_params' defaults; each
    level, coarse to fine, runs fit_level and hands its shape up by doubling
    coordinates, which keeps it a model instance. A context may be None only
    when max_iters_per_level is 0. Deterministic: no randomness."""
    shape = Shape(fit_params(model, Shape(init.points / 2.0 ** (len(contexts) - 1))).points)
    fits = []
    for ctx in reversed(contexts):
        if fits:
            shape = Shape(fits[-1].shape.points * 2.0)
        fits.append(fit_level(ctx, shape, model, config))
    return FitResult(tuple(reversed(fits)))


def fit(pyramid: tuple, bundle, init: Shape, config: FitConfig) -> FitResult:
    """fit_contexts on the bundle's model and the level contexts of one
    image, given as build_pyramid's tuple of level images. The contexts are
    built coarse to fine, and only when a pass may run.

    Raises DimensionMismatchError when the pyramid does not have the
    config's levels or the bundle has fewer, and InitializationError when
    fewer than MIN_INIT_INSIDE (half) of the init landmarks lie inside the
    level-0 image.
    """
    if len(pyramid) != config.levels:
        raise DimensionMismatchError(
            f"pyramid has {len(pyramid)} levels, config expects {config.levels}"
        )
    if config.levels > len(bundle.levels):
        raise DimensionMismatchError(
            f"config asks for {config.levels} levels, the bundle holds {len(bundle.levels)}"
        )
    base = pyramid[0]
    inside = base.contains(init.points)
    if inside.mean() < MIN_INIT_INSIDE:
        raise InitializationError(
            f"{np.count_nonzero(~inside)} of {len(inside)} init landmarks lie outside the "
            f"{base.width}x{base.height} image; at least {MIN_INIT_INSIDE:.0%} must lie inside"
        )
    coarse_first = ([build_level_context(bundle, pyramid[level], level, config)
                     for level in reversed(range(config.levels))]
                    if config.max_iters_per_level else [None] * config.levels)
    return fit_contexts(coarse_first[::-1], bundle.shape_model, init, config)


def config_for_mode(bundle, mode: str) -> FitConfig:
    """The bundle's stored fit defaults with `mode`, asm_svm or classic, as
    the pipeline; FitConfig rejects any other mode."""
    return replace(bundle.fit_defaults, mode=mode)
