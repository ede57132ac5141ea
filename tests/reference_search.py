"""The candidate search as one score, gate and lexsort loop, used as an oracle.

The library gates candidates first, scores only the ones that compete and
picks every winner with one masked selection. This module keeps the form
those replace: every candidate of every landmark is gathered with the
clamped three-index gather (2-D windows) or sampled along its landmark's
normal in one inline (k, m, size + 1) grid (1-D profiles), normalized and
scored, each landmark by its own unstacked statistics and classifier; the
gate then masks the scores, and a lexsort per landmark picks the lowest
cost, then the smallest Chebyshev distance, then the first candidate in
row-major order.
"""

import numpy as np

from asmfit.imaging import sample_bilinear
from asmfit.profiles import landmark_normals, mahalanobis_batch
from asmfit.search import _candidate_grid
from asmfit.shape_model import Shape
from asmfit.svm import decision_values
from reference_profiles import clamped_windows, landmark_stats, sum_normalized
from reference_svm import landmark_svm


def derivatives_1d(ctx, shape, size, cx, cy):
    """(k, m, size) derivative profiles of every candidate along its
    landmark's normal, not yet normalized."""
    normals = landmark_normals(shape, ctx.scheme)
    offs = np.arange(size + 1) - size / 2.0
    sx = cx[:, :, None] + offs[None, None, :] * normals[:, 0, None, None]
    sy = cy[:, :, None] + offs[None, None, :] * normals[:, 1, None, None]
    samples = sample_bilinear(ctx.raw, sx, sy)
    return np.diff(samples, axis=2)


def profiles_1d(ctx, shape, size, cx, cy):
    """derivatives_1d, each divided by its absolute sum; flat ones are zeros."""
    diffs = derivatives_1d(ctx, shape, size, cx, cy)
    norm = np.sum(np.abs(diffs), axis=2, keepdims=True)
    flat = norm < 1e-12
    out = diffs / np.where(flat, 1.0, norm)
    out[np.broadcast_to(flat, out.shape)] = 0.0
    return out


def raw_candidate_features(ctx, shape, size, cx, cy):
    """(k, m, d) feature rows of every candidate before normalization: 1-D
    derivative profiles, or 2-D windows read with the oracle gather."""
    if ctx.magnitude is None:
        return derivatives_1d(ctx, shape, size, cx, cy)
    k, m = cx.shape
    centers = np.stack([cx.ravel(), cy.ravel()], axis=1)
    return clamped_windows(ctx.magnitude, centers, size).reshape(k, m, size * size)


def candidate_features(ctx, shape, size, cx, cy):
    """(k, m, d) feature rows of every candidate; 2-D windows use the oracle
    gather and sum normalization.

    A context without a gradient magnitude searches 1-D profiles.
    """
    if ctx.magnitude is None:
        return profiles_1d(ctx, shape, size, cx, cy)
    return sum_normalized(raw_candidate_features(ctx, shape, size, cx, cy))


def search_landmarks(ctx, shape, config, accepted=None):
    """(new Shape, per-landmark winning costs) of one search pass.

    accepted, a (k, m) mask over the candidate grid, stands in for the
    classifiers' decisions where they are rounding noise (see
    test_stacked_pass_equals_per_landmark_pass); the gate's fallback still
    applies."""
    size = ctx.size
    pts = shape.points
    cx, cy, valid, cheb = _candidate_grid(pts, config.search_radius)
    k, m = cx.shape
    feats = candidate_features(ctx, shape, size, cx, cy)

    costs = np.empty((k, m))
    for j in range(k):
        costs[j] = mahalanobis_batch(landmark_stats(ctx.stats, j), feats[j])

    if ctx.edge_map is not None:
        h, w = ctx.edge_map.shape
        ex = np.clip(cx.astype(int), 0, w - 1)
        ey = np.clip(cy.astype(int), 0, h - 1)
        costs *= config.c - ctx.edge_map[ey, ex]

    allowed = valid.copy()
    if ctx.svms is not None:
        for j in range(k):
            if accepted is None:
                decided = decision_values(landmark_svm(ctx.svms, j), feats[j]) >= 0
            else:
                decided = accepted[j]
            gated = allowed[j] & decided
            if gated.any():
                allowed[j] = gated

    new_pts = np.empty((k, 2))
    won = np.empty(k)
    enum_idx = np.arange(m)
    for j in range(k):
        cost_j = np.where(allowed[j], costs[j], np.inf)
        best = np.lexsort((enum_idx, cheb[j], cost_j))[0]
        new_pts[j] = cx[j, best], cy[j, best]
        won[j] = costs[j, best]
    return Shape(new_pts), won
