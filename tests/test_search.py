import dataclasses
import math

import numpy as np
import pytest

from asmfit import imaging, search
from asmfit.cli import truth_box
from asmfit.dataset_io import AnnotatedSample
from asmfit.errors import (
    MAX_RADIUS,
    BoxError,
    DatasetError,
    DegenerateShapeError,
    DimensionMismatchError,
    InitializationError,
    ShapeArityError,
)
from asmfit.imaging import (
    GrayImage,
    build_pyramid,
    canny_edges,
    equalize_histogram,
    equalized_magnitude,
    sobel_gradients,
)
from asmfit.profiles import (
    ProfileStats,
    grid_patches,
    grid_windows,
    mahalanobis_batch,
    normalize_windows,
    profiles_1d_batch,
    stats_from_matrix,
    windows_batch,
)
from asmfit.search import (
    FitConfig,
    LevelContext,
    _candidate_features,
    _candidate_grid,
    build_level_context,
    config_for_mode,
    fit,
    fit_level,
    init_shape_from_box,
    search_landmarks,
)
from asmfit.shape_model import Shape, build_shape_model, fit_params
from asmfit.svm import LinearSvmModel, SvmTrainConfig, decision_values, grid_decisions

from conftest import (
    matmul_operands,
    owner_products,
    random_shape_points,
    stacked_stats,
    stacked_svms,
)
from reference_profiles import landmark_stats, padded_block_scores, single_contour_scheme
from reference_svm import assert_gate_agrees, landmark_svm, row_gate
import reference_search


def two_d_config(**overrides):
    base = dict(levels=1, search_radius=2)
    base.update(overrides)
    return FitConfig(**base)


def make_context(magnitude, stats, raw=None, edge_map=None, svms=None, scheme=None):
    """2-D context from per-landmark stats and SVMs, stacked as a bundle
    holds them, of windows whose side is the root of the stats' dimension;
    no edge map means no edge weighting, no SVMs no gate."""
    if raw is None:
        raw = GrayImage(np.zeros(magnitude.shape))
    return LevelContext(raw=raw, magnitude=magnitude, edge_map=edge_map,
                        stats=stacked_stats(stats),
                        svms=None if svms is None else stacked_svms(svms), scheme=scheme)


def window_feature(magnitude, center, size=5):
    return normalize_windows(windows_batch(magnitude, np.array([center], float), size), "sum")[0]


def stats_around(feature, rng, spread=1e-3, rows=6):
    noisy = feature[None, :] + rng.normal(0.0, spread, (rows, feature.size))
    return stats_from_matrix(noisy)


# --------------------------------------------------------------- FitConfig

def test_fit_config_validation():
    with pytest.raises(ShapeArityError):
        FitConfig(levels=0)
    # A radius is bounded, so a setting that would ask for terabytes is refused up front.
    assert FitConfig(search_radius=MAX_RADIUS).search_radius == MAX_RADIUS
    message = rf"^search_radius must be in \[1, {MAX_RADIUS}\], got "
    for radius in (0, MAX_RADIUS + 1, 100000):
        with pytest.raises(ShapeArityError, match=message):
            FitConfig(search_radius=radius)
    with pytest.raises(ShapeArityError):
        FitConfig(convergence=0.0)
    with pytest.raises(ShapeArityError):
        FitConfig(c=1.0)
    with pytest.raises(ShapeArityError, match="finite"):
        FitConfig(c=float("inf"))
    with pytest.raises(ShapeArityError):
        FitConfig(mode="hybrid")
    with pytest.raises(ShapeArityError):
        FitConfig(max_iters_per_level=-1)
    # canny_edges needs 0 <= low <= high; the config checks it when built. An
    # infinite high threshold marks no edge, which would turn edge weighting off.
    inf = float("inf")
    for low, high in ((200.0, 100.0), (-1.0, 100.0), (float("nan"), 100.0), (inf, inf),
                      (50.0, inf), (50.0, float("nan"))):
        with pytest.raises(ShapeArityError, match=r"canny_low must be in \[0, canny_high\]"):
            FitConfig(canny_low=low, canny_high=high)


@pytest.mark.parametrize("name, value", [
    ("levels", True), ("levels", 3.0), ("search_radius", 3.0), ("max_iters_per_level", 20.0),
    ("max_iters_per_level", False), ("convergence", "0.9"), ("c", None), ("canny_low", "x"),
    ("canny_high", [150.0]), ("convergence", True), ("canny_low", False), ("c", True),
])
def test_fit_config_rejects_mistyped_values(name, value):
    with pytest.raises(ShapeArityError, match=f"{name} must be"):
        FitConfig(**{name: value})


def test_integral_reals_are_stored_as_floats(trained):
    # An integer edge weight used to reach the uint8 edge map as an integer:
    # c=300 overflowed it and every asm_svm fit raised OverflowError.
    cfg = FitConfig(convergence=1, c=300, canny_low=0, canny_high=100)
    assert [type(getattr(cfg, name)) for name in ("convergence", "c", "canny_low", "canny_high")
            ] == [float] * 4
    assert cfg == FitConfig(convergence=1.0, c=300.0, canny_low=0.0, canny_high=100.0)
    assert type(SvmTrainConfig(c_penalty=2).c_penalty) is float
    bundle, _, faces = trained
    sample = faces[6]
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    result = fit(build_pyramid(sample.image, 3), bundle, init, dataclasses.replace(
        bundle.fit_defaults, c=300))
    assert np.isfinite(result.shape.points).all()


# ------------------------------------------------------------- placement

def test_init_shape_fills_box():
    model = build_shape_model([
        Shape(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])),
        Shape(np.array([[0.0, 0.0], [2.1, 0.0], [2.1, 1.1], [0.0, 1.1]])),
    ])
    placed = init_shape_from_box(model, (10.0, 20.0, 30.0, 40.0))
    assert placed.bounding_box() == pytest.approx((10.0, 20.0, 40.0, 60.0))


def test_init_shape_box_errors():
    model = build_shape_model([
        Shape(random_shape_points(np.random.default_rng(0), 5)),
        Shape(random_shape_points(np.random.default_rng(1), 5)),
    ])
    with pytest.raises(BoxError):
        init_shape_from_box(model, (0.0, 0.0, 0.0, 10.0))
    assert init_shape_from_box(model, (10.0, 10.0, 1.0, 1.0)).n == 5
    line = Shape(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    flat = build_shape_model([line, line, line])
    with pytest.raises(DegenerateShapeError):
        init_shape_from_box(flat, (0.0, 0.0, 10.0, 10.0))


@pytest.mark.parametrize("box", [
    (10.0, 10.0, float("inf"), 20.0), (10.0, 10.0, 20.0, float("inf")),
    (float("-inf"), 10.0, 20.0, 20.0), (10.0, float("nan"), 20.0, 20.0),
    (10.0, 10.0, float("nan"), 20.0), (10.0, 10.0, 1e-9, 1e-9), (10.0, 10.0, 0.999, 20.0),
    (10.0, 10.0, 20.0, 0.5), (10.0, 10.0, -20.0, 20.0), (10.0, 10.0, 20.0),
    (10.0, 10.0, 10**400, 20.0), ("x", 10.0, 20.0, 20.0), None,
])
def test_init_shape_rejects_bad_box_before_arithmetic(box):
    """A non-finite, sub-pixel or malformed box is a BoxError and no numpy
    warning (which the suite turns into an error) is raised first."""
    model = build_shape_model([
        Shape(random_shape_points(np.random.default_rng(0), 5)),
        Shape(random_shape_points(np.random.default_rng(1), 5)),
    ])
    with pytest.raises(BoxError):
        init_shape_from_box(model, box)


# --------------------------------------------------------- candidate grid

def test_candidate_grid_integer_position():
    cx, cy, valid, cheb = _candidate_grid(np.array([[10.0, 5.0]]), 2)
    assert valid.sum() == 25
    assert cheb[valid].max() == 2
    xs = sorted(set(cx[0, valid[0]]))
    ys = sorted(set(cy[0, valid[0]]))
    assert xs == [8.0, 9.0, 10.0, 11.0, 12.0]
    assert ys == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_candidate_grid_fractional_position():
    cx, cy, valid, cheb = _candidate_grid(np.array([[10.3, 4.7]]), 1)
    got = {(x, y) for x, y in zip(cx[0, valid[0]], cy[0, valid[0]])}
    assert got == {(10.0, 4.0), (11.0, 4.0), (10.0, 5.0), (11.0, 5.0)}
    assert cheb[0, valid[0]].max() <= 1.0


def test_candidate_grid_covers_exactly_the_chebyshev_ball():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pos = rng.uniform(-5, 30, (3, 2))
        r = int(rng.integers(1, 4))
        cx, cy, valid, cheb = _candidate_grid(pos, r)
        assert (cheb[valid] <= r + 1e-9).all()
        for j in range(3):
            got = {(x, y) for x, y in zip(cx[j, valid[j]], cy[j, valid[j]])}
            want = {
                (float(ix), float(iy))
                for ix in range(int(np.ceil(pos[j, 0] - r)), int(np.floor(pos[j, 0] + r)) + 1)
                for iy in range(int(np.ceil(pos[j, 1] - r)), int(np.floor(pos[j, 1] + r)) + 1)
            }
            assert got == want


# ----------------------------------------------------------------- search

def test_search_moves_to_planted_pattern():
    rng = np.random.default_rng(2)
    mag = rng.uniform(1.0, 3.0, (32, 32))
    mag[12, 18:23] = 50.0
    mag[10:15, 20] = 50.0
    st = stats_around(window_feature(mag, (20.0, 12.0)), rng)
    ctx = make_context(mag, (st, st, st))
    shape = Shape(np.array([[18.0, 12.0], [5.0, 5.0], [26.0, 26.0]]))
    moved, costs = search_landmarks(ctx, shape, two_d_config())
    assert tuple(moved.points[0]) == (20.0, 12.0)
    assert np.max(np.abs(moved.points - shape.points)) <= 2.0
    assert costs.shape == (3,)


def test_search_tie_breaks_toward_nearest_integer():
    mag = np.full((24, 24), 5.0)
    rng = np.random.default_rng(3)
    st = stats_from_matrix(rng.normal(0.3, 0.05, (8, 25)))
    ctx = make_context(mag, (st, st, st))
    shape = Shape(np.array([[10.3, 7.6], [4.4, 4.3], [16.7, 18.2]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config())
    assert np.array_equal(moved.points, np.rint(shape.points))


def test_search_integer_position_is_stationary_on_flat_costs():
    mag = np.full((24, 24), 5.0)
    rng = np.random.default_rng(4)
    st = stats_from_matrix(rng.normal(0.3, 0.05, (8, 25)))
    ctx = make_context(mag, (st, st, st))
    shape = Shape(np.array([[10.0, 7.0], [4.0, 4.0], [16.0, 18.0]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config())
    assert np.array_equal(moved.points, shape.points)


def test_search_edge_weighting_attracts_to_edges():
    # flat field: every candidate costs the same, so halving the cost on
    # one edge pixel must win even at a larger displacement
    mag = np.full((24, 24), 5.0)
    rng = np.random.default_rng(5)
    st = stats_from_matrix(rng.normal(0.3, 0.05, (8, 25)))
    edge_map = np.zeros((24, 24), dtype=np.uint8)
    edge_map[9, 12] = 1
    ctx = make_context(mag, (st, st, st), edge_map=edge_map)
    shape = Shape(np.array([[10.0, 7.0], [4.0, 4.0], [16.0, 18.0]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config())
    assert tuple(moved.points[0]) == (12.0, 9.0)


def test_search_gate_overrides_cost_ranking():
    rng = np.random.default_rng(6)
    mag = rng.uniform(1.0, 9.0, (32, 32))
    start = np.array([10.0, 12.0])
    target = (12.0, 13.0)
    decoy = (9.0, 11.0)
    # stats love the decoy window, so ungated search goes there
    st = stats_around(window_feature(mag, decoy), rng)
    ctx_plain = make_context(mag, (st, st, st))
    shape = Shape(np.vstack([start, [4.0, 4.0], [26.0, 26.0]]))
    ungated, _ = search_landmarks(ctx_plain, shape, two_d_config())
    assert tuple(ungated.points[0]) == decoy

    # linear gate fires only on the target window: accepted set is a
    # singleton, so the landmark must land there instead
    cx, cy, valid, _ = _candidate_grid(shape.points, 2)
    feats = normalize_windows(
        windows_batch(mag, np.stack([cx[0], cy[0]], axis=1), 5), "sum")
    t_idx = next(i for i in range(len(feats))
                 if valid[0, i] and (cx[0, i], cy[0, i]) == target)
    w = feats[t_idx] - feats.mean(axis=0)
    scores = feats @ w
    others = np.delete(scores, t_idx)
    bias = -(scores[t_idx] + others.max()) / 2.0
    assert scores[t_idx] + bias > 0 > others.max() + bias
    gate = LinearSvmModel(w, float(bias))
    ctx_gated = make_context(mag, (st, st, st), svms=(gate, gate, gate))
    gated, _ = search_landmarks(ctx_gated, shape, two_d_config())
    assert tuple(gated.points[0]) == target


def test_search_gate_falls_back_when_nothing_passes():
    rng = np.random.default_rng(7)
    mag = rng.uniform(1.0, 9.0, (32, 32))
    decoy = (9.0, 11.0)
    st = stats_around(window_feature(mag, decoy), rng)
    reject_all = LinearSvmModel(np.zeros(25), -1.0)
    ctx = make_context(mag, (st, st, st), svms=(reject_all,) * 3)
    shape = Shape(np.array([[10.0, 12.0], [4.0, 4.0], [26.0, 26.0]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config())
    assert tuple(moved.points[0]) == decoy


def test_search_one_d_follows_contour_normal():
    # step present only in row 16: the profile is distinctive at exactly
    # (11, 16), so the middle landmark must land there
    px = np.full((32, 32), 20.0)
    px[16, 11:] = 180.0
    img = GrayImage(px)
    shape = Shape(np.array([[8.0, 13.0], [8.0, 16.0], [8.0, 19.0]]))
    trained_row = profiles_1d_batch(img, np.array([[11.0, 16.0]]),
                                    np.array([[-1.0, 0.0]]), 5)[0]
    rng = np.random.default_rng(8)
    st_edge = stats_around(trained_row, rng)
    cfg = FitConfig(levels=1, search_radius=3, mode="classic")
    ctx = LevelContext(raw=img, magnitude=None, edge_map=None,
                       stats=stacked_stats((st_edge,) * 3), svms=None,
                       scheme=single_contour_scheme(3))
    moved, _ = search_landmarks(ctx, shape, cfg)
    assert tuple(moved.points[1]) == (11.0, 16.0)


def test_search_respects_radius_property():
    rng = np.random.default_rng(9)
    for trial in range(10):
        mag = rng.uniform(1.0, 9.0, (32, 32))
        st = stats_from_matrix(rng.normal(0.2, 0.1, (8, 25)))
        ctx = make_context(mag, (st, st, st))
        pts = rng.uniform(6.0, 24.0, (3, 2))
        r = int(rng.integers(1, 4))
        moved, _ = search_landmarks(ctx, Shape(pts), two_d_config(search_radius=r))
        assert np.max(np.abs(moved.points - pts)) <= r + 1e-9
        assert np.array_equal(moved.points, np.rint(moved.points))


def oracle_context(rng, kind, size, k, hw=(40, 52), tie_image=False, gate=True, edges=True,
                   flat=False):
    """Context with per-landmark stats and gates of varied acceptance.

    Gate biases run from reject-all (the gate falls back) to accept-all.
    A tie image is constant in its left half, so many candidates there
    share one window and one cost. Its statistics are centred on that
    window, so the shared cost is exactly 0 on every BLAS kernel, wherever
    a row sits in its call. flat zeroes the magnitude and the intensities
    of the bottom right quadrant, whose windows and profiles are then flat
    (they sum to 0). It also sets landmark j's bias to -t_j * mean(w_j),
    t_j from 0.5 to 1.5, so a flat row's decision depends on what it is
    normalized to: the uniform vector's has the sign of (1 - t_j) * mean(w_j)
    and the bias alone (a zero row's) the opposite one. Landmark 0 then
    rejects every row and the last accepts every row. A one_d context has
    no gradient magnitude, so it takes gate=False (LevelContext refuses
    SVMs without one); without gate or edges a context holds no SVMs or no
    edge map. Every array is drawn either way, so the draws do not depend
    on the switches.
    """
    h, w = hw
    mag = rng.uniform(0.5, 9.0, hw)
    raw = rng.uniform(0.0, 255.0, hw)
    if tie_image:
        mag[:, : w // 2] = 3.0
        raw[:, : w // 2] = 90.0
    if flat:
        mag[h // 2:, w // 2:] = 0.0
        raw[h // 2:, w // 2:] = 0.0
    d = size * size if kind == "two_d" else size
    # One row count for the stack: a level's landmarks share one rank.
    stats = stats_from_matrix(rng.uniform(0.0, 0.05 if kind == "two_d" else 0.3,
                                          (k, int(rng.integers(4, 40)), d)))
    svms = LinearSvmModel(rng.normal(0.0, 1.0, (k, d)) / np.sqrt(d), np.linspace(-1.5, 1.5, k))
    if flat:
        bias = -svms.weights.mean(axis=1) * np.linspace(0.5, 1.5, k)
        bias[[0, -1]] = -1e9, 1e9
        svms = LinearSvmModel(svms.weights, bias)
    edge_map = (rng.uniform(size=hw) < 0.3).astype(np.uint8)
    if tie_image:
        # A constant window sum-normalizes to 1/d in every dim (3/147 and
        # 1/49 round alike); a flat 1-D profile is all zeros.
        tie_row = np.full(d, 1.0 / d) if kind == "two_d" else np.zeros(d)
        stats = ProfileStats(np.tile(tie_row, (k, 1)), basis=stats.basis, lam=stats.lam,
                             rho=stats.rho)
    return LevelContext(raw=GrayImage(raw), magnitude=mag if kind == "two_d" else None,
                        edge_map=edge_map if edges else None, stats=stats,
                        svms=svms if gate else None, scheme=single_contour_scheme(k))


def median_gates(ctx, shape, size, landmarks):
    """ctx's gates with each of `landmarks` whose in-radius windows all lie
    inside the image re-biased to the midpoint of the two adjacent decision
    values, over those candidates, nearest their median that differ by more
    than 1e-9: it accepts part of its candidates, and no decision lies
    within rounding of 0 (one window in two places can score two roundings
    apart). A clamped window can repeat another exactly, and such copies
    can cost an ulp apart on some BLAS kernels, so their landmarks keep
    their gates. Draws no random numbers."""
    cx, cy, valid, _ = _candidate_grid(shape.points, 3)
    feats = reference_search.candidate_features(ctx, shape, size, cx, cy)
    h, w = ctx.raw.pixels.shape
    half = size // 2
    inside = (cx >= half) & (cx < w - half) & (cy >= half) & (cy < h - half)
    bias = ctx.svms.bias.copy()
    for j in landmarks:
        if not inside[j][valid[j]].all():
            continue
        values = np.sort(decision_values(landmark_svm(ctx.svms, j), feats[j][valid[j]]))
        steps = np.flatnonzero(np.diff(values) > 1e-9)
        if steps.size:
            i = steps[np.argmin(np.abs(steps + 0.5 - (len(values) - 1) / 2))]
            bias[j] -= (values[i] + values[i + 1]) / 2
    return LinearSvmModel(ctx.svms.weights, bias)


ORACLE_CASES = [
    (21, "two_d", True, True),
    (22, "two_d", False, True),
    (23, "two_d", True, False),
    (25, "one_d", False, False),
]


# The ids keep the "sum" they had when the window rule was a parameter.
# tie_image "flat" is the tie image with flat windows and profiles planted
# (oracle_context's flat): the oracle normalizes them before its gate, the
# search gates them in their normalized form.
@pytest.mark.parametrize("seed,kind,gate,edges", ORACLE_CASES,
                         ids=[f"{s}-{k}-sum-{g}-{e}" for s, k, g, e in ORACLE_CASES])
@pytest.mark.parametrize("tie_image", [False, True, "flat"])
def test_search_matches_score_gate_lexsort_oracle(seed, kind, gate, edges, tie_image):
    """Winners equal the oracle's; costs agree to rtol 1e-12, gate fallbacks,
    partial acceptance, ties and flat rows included. With "flat", points and
    costs under axis statistics are also equal byte for byte.

    The drawn 2-D gates accept all or none of a landmark's candidates (w.x
    is small against the bias), so outside "flat" the gated 2-D landmarks
    but the first (reject-all) and the last (accept-all) are re-biased to
    their median decisions (median_gates)."""
    flat = tie_image == "flat"
    rng = np.random.default_rng(seed + (20 if flat else 10 * tie_image))
    k, size = 12, 7
    cfg = FitConfig(levels=1, search_radius=3)
    flat_rows = fallbacks = partial = 0
    for trial in range(4):
        ctx = oracle_context(rng, kind, size, k, tie_image=bool(tie_image), gate=gate,
                             edges=edges, flat=flat)
        # inside, fractional and integer, and across every border
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (k, 2))
        pts[::3] = np.rint(pts[::3])
        shape = Shape(pts)
        if gate and kind == "two_d" and not flat:
            ctx = dataclasses.replace(ctx, svms=median_gates(ctx, shape, size, range(1, k - 1)))
        got, got_costs = search_landmarks(ctx, shape, cfg)
        want, want_costs = reference_search.search_landmarks(ctx, shape, cfg)
        assert np.array_equal(got.points, want.points)
        np.testing.assert_allclose(got_costs, want_costs, rtol=1e-12, atol=0)
        cx, cy, valid, _ = _candidate_grid(pts, 3)
        if flat:
            # With axis statistics every cost has the same bits on every BLAS kernel.
            exact = dataclasses.replace(ctx, stats=axis_stats(ctx.stats))
            got, got_costs = search_landmarks(exact, shape, cfg)
            want, want_costs = reference_search.search_landmarks(exact, shape, cfg)
            assert got.points.tobytes() == want.points.tobytes()
            assert got_costs.tobytes() == want_costs.tobytes()
            raw = reference_search.raw_candidate_features(ctx, shape, size, cx, cy)
            sums = (raw if kind == "two_d" else np.abs(raw)).sum(axis=2)
            flat_rows += np.count_nonzero(valid & (sums == 0.0))
        if gate:
            feats = reference_search.candidate_features(ctx, shape, size, cx, cy)
            for j in range(k):
                decided = valid[j] & (decision_values(landmark_svm(ctx.svms, j), feats[j]) >= 0)
                fallbacks += not decided.any()
                partial += 0 < np.count_nonzero(decided) < np.count_nonzero(valid[j])
    if flat:
        assert flat_rows > 0
    if gate:
        assert fallbacks > 0 and partial > 0


def test_oracle_contexts_plant_fallbacks_and_ties():
    """The oracle test above meets both gate fallbacks and cost ties."""
    rng = np.random.default_rng(1)
    ctx = oracle_context(rng, "two_d", 7, 12, tie_image=True)
    pts = np.column_stack([np.full(12, 10.0), np.linspace(5.0, 35.0, 12)])
    cx, cy, valid, _ = _candidate_grid(pts, 3)
    feats = reference_search.candidate_features(ctx, Shape(pts), 7, cx, cy)
    gates = [decision_values(landmark_svm(ctx.svms, j), feats[j]) >= 0 for j in range(12)]
    accepted = [np.count_nonzero(valid[j] & gates[j]) for j in range(12)]
    assert accepted[0] == 0 and accepted[-1] == np.count_nonzero(valid[-1])
    costs = np.array([mahalanobis_batch(landmark_stats(ctx.stats, j), feats[j]) for j in range(12)])
    assert all(len(np.unique(row[valid[j]])) == 1 for j, row in enumerate(costs))


def in_radius_features(ctx, shape, radius=3):
    """_candidate_features of every in-radius candidate, not yet normalized,
    ungated, with the (k, m) grid (cx, cy) and its in-radius mask."""
    cx, cy, valid, _ = _candidate_grid(shape.points, radius)
    rows, competing = _candidate_features(dataclasses.replace(ctx, svms=None), shape, cx, cy, valid)
    assert competing is valid
    return rows, cx, cy, valid


@pytest.mark.parametrize("size", [3, 7, 15])
def test_one_d_candidate_features_match_inline_oracle(size):
    """The batched 1-D path equals the inline (k, m, size + 1) sampling exactly,
    row for row at every in-radius grid position, before and after the
    abs-sum normalization."""
    rng = np.random.default_rng(40 + size)
    flat_rows = 0
    for trial in range(4):
        ctx = oracle_context(rng, "one_d", size, 12, tie_image=True, gate=False, edges=False)
        # inside, fractional and integer, and across every border
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (12, 2))
        pts[::3] = np.rint(pts[::3])
        shape = Shape(pts)
        got, cx, cy, valid = in_radius_features(ctx, shape)
        want = reference_search.profiles_1d(ctx, shape, size, cx, cy)
        assert want.shape == (12, 49, size)
        assert got.shape == (np.count_nonzero(valid), size)
        raw = reference_search.derivatives_1d(ctx, shape, size, cx, cy)
        assert got.tobytes() == raw[valid].tobytes()
        assert search._normalized(ctx, got).tobytes() == want[valid].tobytes()
        flat_rows += np.count_nonzero(~want[valid].any(axis=1))
    assert flat_rows > 0


@pytest.mark.parametrize("size", [3, 7, 15])
def test_two_d_candidate_features_match_oracle_gather(size):
    """2-D rows equal the clamped-gather oracle exactly, row for row at every
    in-radius grid position, before and after the sum normalization, flat
    windows included."""
    rng = np.random.default_rng(50 + size)
    flat_rows = 0
    for trial in range(4):
        ctx = oracle_context(rng, "two_d", size, 12, gate=False, edges=False)
        ctx.magnitude[:, :20] = 0.0
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (12, 2))
        pts[::3] = np.rint(pts[::3])
        shape = Shape(pts)
        got, cx, cy, valid = in_radius_features(ctx, shape)
        want = reference_search.candidate_features(ctx, shape, size, cx, cy)
        assert got.shape == (np.count_nonzero(valid), size * size)
        raw = reference_search.raw_candidate_features(ctx, shape, size, cx, cy)
        assert got.tobytes() == raw[valid].tobytes()
        assert search._normalized(ctx, got).tobytes() == want[valid].tobytes()
        flat_rows += np.count_nonzero((want[valid] == want[valid][:, :1]).all(axis=1))
    assert flat_rows > 0


def axis_stats(stats):
    """stats cut to one mode per landmark, on a unit axis (landmark j's is
    axis j mod d), keeping the mean, the first eigenvalue and the ridge.
    Every product a BLAS call makes with such a basis is exact, so a row's
    cost has the same bits on every kernel, whatever rows share its call;
    clamped candidates past the border share rows, and so exact ties."""
    k, d = stats.mean.shape
    basis = np.zeros((k, d, 1))
    basis[np.arange(k), np.arange(k) % d, 0] = 1.0
    return ProfileStats(stats.mean, basis=basis, lam=stats.lam[:, :1], rho=stats.rho)


@pytest.mark.parametrize("kind", ["two_d"])
def test_gate_sees_in_radius_rows_and_search_equals_oracle(kind, monkeypatch):
    """The gate sees every landmark's in-radius candidates, not yet
    normalized, in one call: 36 at a fractional position, 49 at an integer
    one. A pass calls no decision_values: it gives grid_decisions one
    border-clamped patch per landmark, whose windows at the in-radius nodes
    are the oracle's raw rows byte for byte, and its values there equal the
    row gate's to GATE_ROUNDING and decide alike. mahalanobis_batch then
    gets, in one owner-form call, only the rows that compete, normalized as
    the oracle normalizes them: a landmark's accepted rows, or all of them
    when it accepts none. Points and winning costs equal the oracle's byte
    for byte, near the border too."""
    calls = {"grid": [], "cost": []}

    def refuse(*args, **kwargs):
        raise AssertionError("a pass called decision_values")

    def grid(model, patches):
        values = grid_decisions(model, patches)
        calls["grid"].append((np.array(patches), values))
        return values

    def cost(stats, rows, owner=None):
        calls["cost"].append((owner, np.array(rows)))
        return mahalanobis_batch(stats, rows, owner)

    monkeypatch.setattr(search, "decision_values", refuse)
    monkeypatch.setattr(search, "grid_decisions", grid)
    monkeypatch.setattr(search, "mahalanobis_batch", cost)
    rng = np.random.default_rng(60)
    k, size = 12, 7
    cfg = FitConfig(levels=1, search_radius=3)
    fallbacks = 0
    for trial in range(4):
        ctx = oracle_context(rng, kind, size, k)
        ctx = dataclasses.replace(ctx, stats=axis_stats(ctx.stats))
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (k, 2))
        pts[::2] = np.rint(pts[::2])
        pts[1] = (0.5, 43.5)
        shape = Shape(pts)
        for recorded_calls in calls.values():
            recorded_calls.clear()
        got, got_costs = search_landmarks(ctx, shape, cfg)
        cx, cy, valid, _ = _candidate_grid(pts, 3)
        raw_rows = reference_search.raw_candidate_features(ctx, shape, size, cx, cy)
        want_rows = reference_search.candidate_features(ctx, shape, size, cx, cy)
        assert len(calls["cost"]) == 1 and len(calls["grid"]) == 1
        patches, grid_values = calls["grid"][0]
        assert patches.shape == (k, 7 + size - 1, 7 + size - 1)
        owner = np.nonzero(valid)[0]
        rows = grid_windows(patches, valid.reshape(k, 7, 7))
        values = grid_values.reshape(k, 49)[valid]
        assert_gate_agrees(values, *row_gate(ctx.svms, rows, owner))
        cost_owner, cost_rows = calls["cost"][0]
        assert np.unique(owner).tolist() == list(range(k))
        competing = []
        for j in range(k):
            assert np.count_nonzero(owner == j) == (49 if j % 2 == 0 else 36)
            raw_j, want_j = raw_rows[j][valid[j]], want_rows[j][valid[j]]
            assert rows[owner == j].tobytes() == raw_j.tobytes()
            accepted = values[owner == j] >= 0
            keep = accepted if accepted.any() else np.ones_like(accepted)
            competing.append(np.count_nonzero(keep))
            assert cost_rows[cost_owner == j].tobytes() == want_j[keep].tobytes()
            fallbacks += not accepted.any()
        assert cost_owner.tolist() == np.repeat(np.arange(k), competing).tolist()
        want, want_costs = reference_search.search_landmarks(ctx, shape, cfg)
        assert got.points.tobytes() == want.points.tobytes()
        assert got_costs.tobytes() == want_costs.tobytes()
    assert 0 < fallbacks < 4 * k


def test_search_checks_stats_arity():
    mag = np.full((24, 24), 5.0)
    st = stats_from_matrix(np.random.default_rng(10).normal(0.3, 0.05, (8, 25)))
    ctx = make_context(mag, (st, st))
    shape = Shape(np.array([[10.0, 7.0], [4.0, 4.0], [16.0, 18.0]]))
    with pytest.raises(DimensionMismatchError):
        search_landmarks(ctx, shape, two_d_config())


def test_level_context_refuses_svms_without_a_magnitude():
    """SVMs gate 2-D windows of the magnitude (grid_decisions), and 1-D
    profiles have no gate, so a context that holds SVMs and no magnitude
    raises ShapeArityError, built directly or through dataclasses.replace,
    rather than search ungated. Without SVMs, or with a magnitude, the
    same context is built."""
    rng = np.random.default_rng(12)
    k, size = 3, 5
    one_d = oracle_context(rng, "one_d", size, k, gate=False)
    two_d = oracle_context(rng, "two_d", size, k)
    svms = LinearSvmModel(rng.normal(0.0, 1.0, (k, size)), np.zeros(k))
    message = "^a level context with SVMs needs a gradient magnitude"
    with pytest.raises(ShapeArityError, match=message):
        LevelContext(raw=one_d.raw, magnitude=None, edge_map=None, stats=one_d.stats,
                     svms=svms, scheme=one_d.scheme)
    with pytest.raises(ShapeArityError, match=message):
        dataclasses.replace(one_d, svms=svms)
    with pytest.raises(ShapeArityError, match=message):
        dataclasses.replace(two_d, magnitude=None)
    assert dataclasses.replace(two_d, magnitude=None, svms=None).svms is None
    assert dataclasses.replace(one_d, magnitude=two_d.magnitude, svms=svms).svms is svms


@pytest.mark.parametrize("rows", [2, 4])
def test_search_checks_svm_stack_size(rows, monkeypatch):
    """An SVM stack of another size than the shape raises before any feature is built."""
    rng = np.random.default_rng(11)
    mag = np.full((24, 24), 5.0)
    st = stats_from_matrix(rng.normal(0.3, 0.05, (8, 25)))
    svm = LinearSvmModel(rng.normal(0.0, 1.0, 25), 0.0)
    ctx = make_context(mag, (st, st, st), svms=(svm,) * rows)
    built = []
    monkeypatch.setattr(search, "_candidate_features", lambda *args: built.append(args))
    shape = Shape(np.array([[10.5, 7.5], [4.5, 4.5], [16.5, 18.5]]))
    with pytest.raises(DimensionMismatchError):
        search_landmarks(ctx, shape, two_d_config())
    assert built == []


def landmark_stack(model, j):
    """Landmark j's classifier of a stacked model, as a stack of one."""
    return LinearSvmModel(model.weights[j:j + 1], model.bias[j:j + 1])


def one_by_one(monkeypatch):
    """The search's cost scoring each landmark's block of rows with its own
    unstacked statistics, one call per landmark, every block zero-padded to
    the call's largest (padded_block_scores), and its gate each landmark's
    patch with its own classifier: the pass computed landmark by landmark."""
    monkeypatch.setattr(search, "mahalanobis_batch", lambda stats, rows, owner: padded_block_scores(
        mahalanobis_batch, landmark_stats, stats, rows, np.bincount(owner).tolist()))
    monkeypatch.setattr(search, "grid_decisions", lambda model, patches: np.concatenate(
        [grid_decisions(landmark_stack(model, j), patches[j:j + 1]) for j in range(len(patches))]))


def recorded(monkeypatch):
    """Every cost call's (owner as a tuple, rows shape), and every grid gate
    call's patches shape, in call order."""
    calls = {"grid": [], "cost": []}

    def recording_cost(stats, rows, owner=None):
        calls["cost"].append((None if owner is None else tuple(owner.tolist()), np.shape(rows)))
        return mahalanobis_batch(stats, rows, owner)

    monkeypatch.setattr(search, "mahalanobis_batch", recording_cost)

    def recording_grid(model, patches):
        calls["grid"].append(np.shape(patches))
        return grid_decisions(model, patches)

    monkeypatch.setattr(search, "grid_decisions", recording_grid)
    return calls


def fractional_points(rng, k):
    """k positions inside and across every border, none on the integer grid
    in either axis, so every landmark has (2r)^2 in-radius candidates."""
    pts = np.floor(rng.uniform((-4.0, -4.0), (56.0, 44.0), (k, 2)))
    return pts + rng.uniform(0.05, 0.95, (k, 2))


# gate: None (no SVMs); "mixed" (centred weights accept part of the rows, and
# landmark 0 is planted to reject all of them and fall back, so the costs'
# counts differ and their blocks are zero-padded to the largest); "all" (every
# row accepted, so the costs' counts are equal too). A one_d context holds no
# SVMs, so it runs ungated only. The last trial of each case uses the tie image.
STACKED_CASES = ([("two_d", gate, edges) for gate in (None, "mixed", "all")
                  for edges in (False, True)]
                 + [("one_d", None, edges) for edges in (False, True)])


@pytest.mark.parametrize("kind,gate,edges", STACKED_CASES,
                         ids=[f"{k}-{g}-{e}" for k, g, e in STACKED_CASES])
def test_stacked_pass_equals_per_landmark_pass(kind, gate, edges, monkeypatch):
    """With every landmark at a fractional position the gate gets one call,
    on one (k, P, P) stack of patches. Points and winning costs equal the
    same pass computed landmark by landmark, each cost by its own unstacked
    statistics on its block zero-padded to the call's largest and each gate
    by its own classifier on its own patch, byte for byte, and with axis
    statistics the points equal the oracle's."""
    rng = np.random.default_rng(70 + 10 * STACKED_CASES.index((kind, gate, edges)))
    k, size = 12, 7
    cfg = FitConfig(levels=1, search_radius=3)
    for trial in range(4):
        ctx = oracle_context(rng, kind, size, k, gate=gate is not None, edges=edges,
                             tie_image=trial == 3)
        if gate == "mixed":
            w = ctx.svms.weights
            bias = np.zeros(k)
            bias[0] = -1e9
            ctx = dataclasses.replace(ctx, svms=LinearSvmModel(
                1e3 * (w - w.mean(axis=1, keepdims=True)), bias))
        elif gate == "all":
            ctx = dataclasses.replace(ctx, svms=LinearSvmModel(ctx.svms.weights, np.full(k, 1e9)))
        shape = Shape(fractional_points(rng, k))
        with monkeypatch.context() as patch:
            calls = recorded(patch)
            got, got_costs = search_landmarks(ctx, shape, cfg)
        d = size * size if kind == "two_d" else size
        equal = (tuple(np.repeat(np.arange(k), 36).tolist()), (k * 36, d))
        assert calls["grid"] == ([] if gate is None else [(k, 7 + size - 1, 7 + size - 1)])
        if gate == "mixed":
            # The gate's own rule, on the patches. The centred weights score a
            # constant window (the tie image, a clamped corner) by rounding
            # noise alone; on every other row it agrees with the normalized
            # rows' decisions.
            rows, cx, cy, valid = in_radius_features(ctx, shape)
            owner = np.repeat(np.arange(k), 36)
            patches = grid_patches(ctx.magnitude, np.stack([cx[:, 0], cy[:, 0]], axis=1), 7, size)
            values = grid_decisions(ctx.svms, patches).reshape(k, 49)[valid]
            assert_gate_agrees(values, *row_gate(ctx.svms, rows, owner))
            normalized = search._normalized(ctx, rows).reshape(k, 36, -1)
            normalized = np.concatenate([decision_values(landmark_svm(ctx.svms, j), normalized[j])
                                         for j in range(k)])
            clear = np.abs(normalized) > 1e-9
            assert np.array_equal(values[clear] >= 0, normalized[clear] >= 0)
            accepted = (values >= 0).reshape(k, 36)
            owner = np.nonzero(accepted | ~accepted.any(axis=1, keepdims=True))[0]
            assert calls["cost"] == [(tuple(owner.tolist()), (len(owner), d))]
        else:
            assert calls["cost"] == [equal]
        with monkeypatch.context() as patch:
            one_by_one(patch)
            want, want_costs = search_landmarks(ctx, shape, cfg)
        assert got.points.tobytes() == want.points.tobytes()
        assert got_costs.tobytes() == want_costs.tobytes()
        # The oracle scores all 49 rows of a landmark and the search only its
        # gated in-radius ones; with axis statistics a row's cost has the same
        # bits on every BLAS kernel either way.
        exact = dataclasses.replace(ctx, stats=axis_stats(ctx.stats))
        decided = None
        if gate == "mixed":
            # The oracle's noise decisions are no expectation: it takes the gate's.
            decided = np.zeros(valid.shape, dtype=bool)
            decided[valid] = accepted.ravel()
        oracle, _ = reference_search.search_landmarks(exact, shape, cfg, decided)
        assert (search_landmarks(exact, shape, cfg)[0].points.tobytes()
                == oracle.points.tobytes())
        if gate == "mixed":
            assert not accepted[0].any()
            assert (accepted.any(axis=1) & ~accepted.all(axis=1)).any()


def test_equal_counts_stack_and_mixed_counts_do_not(monkeypatch):
    """A 2-D pass makes one grid gate call, on a (k, P, P) stack of patches,
    whose product runs as one stacked matmul on the patches' (k, g, s * P)
    overlapping row bands, and one cost call with (m, d) rows and an owner
    array, whose two products each run as one stacked matmul. In an
    equal-count pass, 36 rows per landmark, those run on a (k, 36, a) view
    of the rows; with some landmarks on the integer grid (49 candidates,
    not 36) the counts differ, and they run on a (k, 49, a) stack of blocks
    zero-padded to 49 rows."""
    rng = np.random.default_rng(90)
    k, size = 12, 7
    cfg = FitConfig(levels=1, search_radius=3)
    ctx = oracle_context(rng, "two_d", size, k)
    ctx = dataclasses.replace(ctx, svms=LinearSvmModel(ctx.svms.weights, np.full(k, 1e9)))
    widths = (size * size, ctx.stats.rank)  # the cost's two products
    p = 7 + size - 1
    pts = fractional_points(rng, k)
    calls = recorded(monkeypatch)

    def one_pass(counts):
        for recorded_calls in calls.values():
            recorded_calls.clear()
        with matmul_operands() as products:
            search_landmarks(ctx, Shape(pts), cfg)
        owner = np.repeat(np.arange(k), counts)
        assert calls == {"grid": [(k, p, p)],
                         "cost": [(tuple(owner.tolist()), (len(owner), size * size))]}
        assert products == [(k, 7, size * p)] + owner_products(counts, widths)

    one_pass((36,) * k)
    pts[::3] = np.rint(pts[::3])
    one_pass(tuple(49 if j % 3 == 0 else 36 for j in range(k)))


@pytest.mark.parametrize("kind", ["two_d"])
def test_a_landmark_rejecting_every_candidate_falls_back_to_all(kind, monkeypatch):
    """A landmark whose classifier is planted to reject every candidate
    competes with all of its in-radius candidates, 49 at an integer
    position and 36 at a fractional one, while the other landmarks keep
    only the ones they accept. Its winner is the one a pass without a gate
    picks, at the same cost."""
    rng = np.random.default_rng(95)
    k, size = 12, 7
    cfg = FitConfig(levels=1, search_radius=3)
    ctx = oracle_context(rng, kind, size, k)
    w = ctx.svms.weights
    bias = np.zeros(k)
    bias[[4, 7]] = -1e9
    ctx = dataclasses.replace(ctx, svms=LinearSvmModel(1e3 * (w - w.mean(axis=1, keepdims=True)),
                                                       bias))
    pts = fractional_points(rng, k)
    pts[4] = np.rint(pts[4])
    calls = recorded(monkeypatch)
    got, got_costs = search_landmarks(ctx, Shape(pts), cfg)
    (owner, _), = calls["cost"]
    counts = np.bincount(owner, minlength=k)
    assert counts[4] == 49 and counts[7] == 36
    others = np.delete(np.arange(k), [4, 7])
    assert (counts[others] < 36).any()
    ungated, ungated_costs = search_landmarks(dataclasses.replace(ctx, svms=None), Shape(pts), cfg)
    for j in (4, 7):
        assert got.points[j].tobytes() == ungated.points[j].tobytes()
        np.testing.assert_allclose(got_costs[j], ungated_costs[j], rtol=1e-12, atol=0)


# ------------------------------------------------------------------- fit

def mean_error(shape, truth):
    return float(np.linalg.norm(shape.points - truth.points, axis=1).mean())


def test_fit_improves_on_box_initialization(trained):
    bundle, _, faces = trained
    for mode, bound in (("asm_svm", 2.0), ("classic", 2.0)):
        cfg = config_for_mode(bundle, mode)
        fitted, initial = [], []
        for sample in faces[6:]:
            pyr = build_pyramid(sample.image, cfg.levels)
            init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
            res = fit(pyr, bundle, init, cfg)
            fitted.append(mean_error(res.shape, sample.shape))
            initial.append(mean_error(init, sample.shape))
        assert np.mean(fitted) < np.mean(initial)
        assert np.mean(fitted) < bound


def test_fit_is_deterministic(trained):
    bundle, _, faces = trained
    sample = faces[6]
    cfg = config_for_mode(bundle, "asm_svm")
    pyr = build_pyramid(sample.image, cfg.levels)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    a = fit(pyr, bundle, init, cfg)
    b = fit(pyr, bundle, init, cfg)
    assert np.array_equal(a.shape.points, b.shape.points)
    assert a.iterations == b.iterations


def test_fit_zero_iterations_returns_regularized_init(trained, monkeypatch):
    """With no pass to run, fit builds no level context (so it runs no Canny)
    and returns the regularized init. Every level's record holds no pass:
    the coarsest holds the init regularized there, in that level's pixels,
    and each finer one exactly twice the next coarser one's points."""
    bundle, _, faces = trained
    sample = faces[6]
    base = config_for_mode(bundle, "asm_svm")
    cfg = FitConfig(levels=base.levels, max_iters_per_level=0)
    pyr = build_pyramid(sample.image, cfg.levels)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))

    def refuse(*args):
        raise AssertionError("a fit of no passes built a level context")

    monkeypatch.setattr(search, "build_level_context", refuse)
    res = fit(pyr, bundle, init, cfg)
    assert res.iterations == (0, 0, 0)
    assert res.converged == (False, False, False)
    assert len(res.levels) == cfg.levels
    for record in res.levels:
        assert (record.passes, record.converged, record.costs) == (0, False, None)
    coarsest = fit_params(bundle.shape_model, Shape(init.points / 2.0 ** (cfg.levels - 1)))
    assert res.levels[-1].shape.points.tobytes() == coarsest.points.tobytes()
    for finer, coarser in zip(res.levels, res.levels[1:]):
        assert finer.shape.points.tobytes() == (coarser.shape.points * 2).tobytes()
    assert res.shape is res.levels[0].shape
    # still a legal model instance: refitting it leaves it in place
    pf = fit_params(bundle.shape_model, res.shape)
    assert pf.residual == pytest.approx(0.0, abs=1e-9)
    assert (np.abs(pf.params) <= 3.0 * np.sqrt(bundle.shape_model.eigenvalues) + 1e-9).all()


@pytest.mark.parametrize("mode", ["asm_svm", "classic"])
def test_fit_is_fit_level_per_level_with_a_doubling_hand_off(trained, mode):
    """Driving fit_level by hand, on each level's build_level_context, from
    the init scaled to the coarsest level and regularized once, and doubled
    between levels, gives the full fit's record of every level, byte for
    byte: its shape, costs, passes and convergence.
    The stored defaults converge after more than one pass somewhere; one
    pass per level leaves some level unconverged."""
    bundle, _, faces = trained
    sample = faces[7]
    pyr = build_pyramid(sample.image, 3)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.20))
    for max_iters in (bundle.fit_defaults.max_iters_per_level, 1):
        cfg = dataclasses.replace(config_for_mode(bundle, mode), max_iters_per_level=max_iters)
        result = fit(pyr, bundle, init, cfg)
        assert cfg.levels == len(result.levels) == 3
        shape = Shape(fit_params(bundle.shape_model, Shape(init.points / 4.0)).points)
        for level in (2, 1, 0):
            ctx = build_level_context(bundle, pyr[level], level, cfg)
            got = fit_level(ctx, shape, bundle.shape_model, cfg)
            want = result.levels[level]
            assert got.shape.points.tobytes() == want.shape.points.tobytes()
            assert got.costs.tobytes() == want.costs.tobytes()
            assert (got.passes, got.converged) == (want.passes, want.converged)
            assert (result.iterations[level], result.converged[level]) == (got.passes, got.converged)
            shape = Shape(got.shape.points * 2.0)
        assert got.shape.points.tobytes() == result.shape.points.tobytes()
        if max_iters > 1:
            assert all(result.converged) and max(result.iterations) > 1
        else:
            assert not all(result.converged) and result.iterations == (1, 1, 1)


def spied_fits(bundle, faces, mode, monkeypatch):
    """(fit results, fit_params calls) of held-out faces fitted from boxes
    inflated by 0.10 and 0.20; each call is (args, kwargs, returned ParamFit)."""
    calls, results = [], []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, fit_params(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(search, "fit_params", spy)
    cfg = config_for_mode(bundle, mode)
    for sample in faces[6:]:
        pyr = build_pyramid(sample.image, cfg.levels)
        for inflate in (0.10, 0.20):
            init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, inflate))
            start = len(calls)
            results.append((fit(pyr, bundle, init, cfg), calls[start:]))
    return results


@pytest.mark.parametrize("mode", ["asm_svm", "classic"])
def test_fit_regularizes_the_init_once_and_each_pass_with_two_projections(
        trained, monkeypatch, mode):
    """A fit calls fit_params once per pass plus once for the init: the
    init's call takes fit_params' defaults, every pass's call caps it at two
    projections, and the last call's points are the fitted shape."""
    bundle, _, faces = trained
    assert search._PASS_PROJECTIONS == 2
    for result, calls in spied_fits(bundle, faces, mode, monkeypatch):
        assert len(calls) == 1 + sum(result.iterations)
        (model, _), kwargs, _ = calls[0]
        assert model is bundle.shape_model and kwargs == {}
        assert all(args[0] is bundle.shape_model and kwargs == {"max_iters": 2}
                   for args, kwargs, _ in calls[1:])
        assert calls[-1][2].points.tobytes() == result.shape.points.tobytes()


@pytest.mark.parametrize("mode", ["asm_svm", "classic"])
def test_capped_pass_regularization_is_near_the_converged_fit(trained, monkeypatch, mode):
    """Each pass's two-projection fit lands within 1e-4 px of fit_params
    run to its default tolerance on the same searched shape, the slow
    reference, and the capped fit still satisfies the model's clamp."""
    bundle, _, faces = trained
    model = bundle.shape_model
    limits = model.mode_limits()
    for _, calls in spied_fits(bundle, faces, mode, monkeypatch):
        for (_, searched), _, capped in calls[1:]:
            reference = fit_params(model, searched)
            assert np.abs(capped.points - reference.points).max() <= 1e-4
            assert (np.abs(capped.params) <= limits).all()


@pytest.mark.parametrize("mode", ["asm_svm", "classic"])
def test_a_doubled_fitted_shape_is_a_model_instance(trained, mode):
    """Doubling is a similarity, so twice any shape a fit returns, and twice
    each level's shape that fit hands up, is a model instance: fit_params run
    to a 1e-12 tolerance gives it back within 1e-12 px. With its defaults,
    as the re-fit on a level's entry ran it, fit_params moves it by under
    1e-8 px, what its 1e-6 stopping rule leaves (up to ~1.2e-9 px here); so
    skipping that re-fit loses nothing."""
    bundle, _, faces = trained
    cfg = config_for_mode(bundle, mode)
    for sample in faces[6:]:
        pyr = build_pyramid(sample.image, cfg.levels)
        init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
        result = fit(pyr, bundle, init, cfg)
        for record in result.levels:
            doubled = 2.0 * record.shape.points
            exact = fit_params(bundle.shape_model, Shape(doubled), tolerance=1e-12).points
            assert np.abs(exact - doubled).max() <= 1e-12
            refit = fit_params(bundle.shape_model, Shape(doubled)).points
            assert np.abs(refit - doubled).max() <= 1e-8


def test_fit_result_satisfies_model_constraint(trained):
    bundle, _, faces = trained
    sample = faces[7]
    cfg = config_for_mode(bundle, "asm_svm")
    pyr = build_pyramid(sample.image, cfg.levels)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    res = fit(pyr, bundle, init, cfg)
    pf = fit_params(bundle.shape_model, res.shape)
    assert pf.residual == pytest.approx(0.0, abs=1e-9)
    assert all(it <= cfg.max_iters_per_level for it in res.iterations)
    assert res.levels[0].costs.shape == (bundle.scheme.total,)


def test_fit_rejects_outside_init_and_level_mismatch(trained):
    bundle, _, faces = trained
    sample = faces[6]
    cfg = config_for_mode(bundle, "asm_svm")
    pyr = build_pyramid(sample.image, cfg.levels)
    outside = Shape(np.full((bundle.scheme.total, 2), -500.0))
    with pytest.raises(InitializationError):
        fit(pyr, bundle, outside, cfg)
    short = build_pyramid(sample.image, 2)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    with pytest.raises(DimensionMismatchError):
        fit(short, bundle, init, cfg)


@pytest.mark.parametrize("mode", ["asm_svm", "classic"])
def test_fit_rejects_more_levels_than_the_bundle_holds(trained, mode, monkeypatch):
    """A config deeper than the bundle fails before any work is done."""
    bundle, _, faces = trained
    sample = faces[6]
    cfg = FitConfig(levels=4, mode=mode)
    pyr = build_pyramid(sample.image, cfg.levels)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    monkeypatch.setattr(search, "fit_params", None)
    with pytest.raises(DimensionMismatchError, match="4 levels, the bundle holds 3"):
        fit(pyr, bundle, init, cfg)


def test_fit_rejects_init_mostly_off_the_image(trained):
    bundle, _, faces = trained
    sample = faces[6]
    cfg = dataclasses.replace(config_for_mode(bundle, "classic"), max_iters_per_level=1)
    pyr = build_pyramid(sample.image, cfg.levels)
    x, y, w, h = truth_box(sample.shape, 0.10)
    init = init_shape_from_box(bundle.shape_model, (-0.75 * w, y, w, h))
    assert 0.6 < np.mean(init.points[:, 0] < 0) < 0.9
    with pytest.raises(InitializationError, match="outside"):
        fit(pyr, bundle, init, cfg)
    # The rule's edge: half the landmarks inside is enough, one fewer is not.
    pts = init_shape_from_box(bundle.shape_model, (x, y, w, h)).points.copy()
    half = bundle.scheme.total // 2
    pts[:half, 0] = -40.0
    assert np.isfinite(fit(pyr, bundle, Shape(pts), cfg).shape.points).all()
    pts[half, 0] = -40.0
    with pytest.raises(InitializationError, match=f"{half + 1} of {bundle.scheme.total}"):
        fit(pyr, bundle, Shape(pts), cfg)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_fit_and_samples_share_the_inside_rule_at_the_far_edge(trained, axis):
    """fit's init check and AnnotatedSample both ask GrayImage.contains: a
    landmark at the last pixel, w - 1 (or h - 1), is inside for both, and
    the next float past it is outside for both."""
    bundle, _, faces = trained
    sample = faces[6]
    image = sample.image
    edge = float((image.width, image.height)[axis] - 1)
    cfg = dataclasses.replace(config_for_mode(bundle, "classic"), max_iters_per_level=0)
    pyr = build_pyramid(image, cfg.levels)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10)).points
    assert image.contains(init).all() and image.contains(sample.shape.points).all()
    moved = bundle.scheme.total // 2 + 1  # one past half: fit refuses the init iff all are outside
    for value, inside in ((edge, True), (np.nextafter(edge, np.inf), False)):
        pts, truth = init.copy(), sample.shape.points.copy()
        pts[:moved, axis] = value
        truth[0, axis] = value
        assert (image.contains(pts) == (np.arange(len(pts)) >= moved) | inside).all()
        if inside:
            assert fit(pyr, bundle, Shape(pts), cfg).iterations == (0,) * cfg.levels
            AnnotatedSample("edge", image, Shape(truth))
            continue
        with pytest.raises(InitializationError, match=f"{moved} of {bundle.scheme.total} "):
            fit(pyr, bundle, Shape(pts), cfg)
        with pytest.raises(DatasetError, match=r"edge: landmark 0 at .* lies outside the "):
            AnnotatedSample("edge", image, Shape(truth))


# --------------------------------------------------------------- modes

def test_config_for_mode(trained):
    bundle, _, _ = trained
    assert config_for_mode(bundle, "asm_svm") == bundle.fit_defaults
    assert bundle.fit_defaults.mode == "asm_svm"
    classic = config_for_mode(bundle, "classic")
    assert classic == dataclasses.replace(bundle.fit_defaults, mode="classic")
    with pytest.raises(ShapeArityError):
        config_for_mode(bundle, "hybrid")


@pytest.mark.parametrize("mode, dims", [("asm_svm", [49, 9]), ("classic", [15, 15])],
                         ids=["asm_svm", "classic"])
def test_fewer_levels_read_their_sizes_from_the_bundle(trained_3_7_15, monkeypatch, mode, dims):
    """A 2-level fit of the 3-level bundle searches its two finest levels,
    coarse to fine, each with the statistics, and so the profile length or
    window side, trained there."""
    bundle, _, faces = trained_3_7_15
    sample = faces[6]
    seen = []

    def recording(*args):
        ctx = build_level_context(*args)
        seen.append(ctx.stats.dim)
        return ctx

    monkeypatch.setattr(search, "build_level_context", recording)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    result = fit(build_pyramid(sample.image, 2), bundle, init, FitConfig(levels=2, mode=mode))
    assert seen == dims
    assert len(result.iterations) == 2 and np.isfinite(result.shape.points).all()


def test_classic_context_computes_no_equalization_sobel_or_canny(trained, monkeypatch):
    """A classic fit reads the raw level images only."""
    bundle, _, faces = trained
    sample = faces[6]
    cfg = config_for_mode(bundle, "classic")
    pyr = build_pyramid(sample.image, cfg.levels)

    def refuse(*args, **kwargs):
        raise AssertionError("a classic fit computed an asm_svm image")

    for name in ("equalize_histogram", "equalized_magnitude", "equalize_with_magnitude",
                 "sobel_gradients", "canny_edges"):
        monkeypatch.setattr(search, name, refuse)
    for level in range(cfg.levels):
        ctx = build_level_context(bundle, pyr[level], level, cfg)
        assert ctx.stats.dim == bundle.levels[level].classic_length == 15
        assert ctx.raw is pyr[level]
        assert ctx.magnitude is None and ctx.edge_map is None and ctx.svms is None
        assert ctx.stats == bundle.levels[level].classic
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    assert np.isfinite(fit(pyr, bundle, init, cfg).shape.points).all()
    # the patch is live: an asm_svm context does reach it
    with pytest.raises(AssertionError, match="computed an asm_svm image"):
        build_level_context(bundle, pyr[0], 0, config_for_mode(bundle, "asm_svm"))


def test_asm_svm_context_holds_gradients_edges_and_svms(trained_3_7_15, monkeypatch):
    """Every asm_svm level holds the equalized image's Sobel magnitude and
    the level's SVMs; only levels >= 1 hold Canny edges. Level 0 never calls
    canny_edges, so a fit over L levels calls it L - 1 times."""
    bundle, _, faces = trained_3_7_15
    cfg = config_for_mode(bundle, "asm_svm")
    pyr = build_pyramid(faces[6].image, cfg.levels)
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("a level-0 asm_svm context computed Canny edges")

    def counted(image, low, high):
        calls.append(image.pixels.shape)
        return canny_edges(image, low, high)

    for level in range(cfg.levels):
        monkeypatch.setattr(search, "canny_edges", counted if level else refuse)
        image = pyr[level]
        ctx = build_level_context(bundle, image, level, cfg)
        assert ctx.stats.dim == bundle.levels[level].window_side**2 == (9, 49, 225)[level]
        equalized = equalize_histogram(image)
        assert ctx.raw is image
        assert ctx.magnitude.tobytes() == sobel_gradients(equalized).magnitude.tobytes()
        if level:
            assert np.array_equal(ctx.edge_map,
                                  canny_edges(equalized, cfg.canny_low, cfg.canny_high))
        else:
            assert ctx.edge_map is None
        assert ctx.svms == bundle.levels[level].svms
        assert ctx.stats == bundle.levels[level].asm
    assert calls == [pyr[1].pixels.shape, pyr[2].pixels.shape]

    calls.clear()
    monkeypatch.setattr(search, "canny_edges", counted)
    init = init_shape_from_box(bundle.shape_model, truth_box(faces[6].shape, 0.10))
    assert cfg.levels == 3 and cfg.max_iters_per_level > 0
    assert np.isfinite(fit(pyr, bundle, init, cfg).shape.points).all()
    assert calls == [pyr[2].pixels.shape, pyr[1].pixels.shape]


def test_asm_svm_context_equalizes_each_level_once(trained, monkeypatch):
    """An asm_svm level context builds one equalization LUT (imaging._equalization),
    which feeds both its magnitude and, at levels >= 1, its Canny edges;
    both equal equalized_magnitude's and canny_edges of equalize_histogram's
    byte for byte."""
    bundle, _, faces = trained
    cfg = config_for_mode(bundle, "asm_svm")
    pyr = build_pyramid(faces[6].image, cfg.levels)
    calls = []
    real = imaging._equalization

    def counted(pixels):
        calls.append(pixels.shape)
        return real(pixels)

    for level in range(cfg.levels):
        image = pyr[level]
        with monkeypatch.context() as patch:
            patch.setattr(imaging, "_equalization", counted)
            ctx = build_level_context(bundle, image, level, cfg)
        assert calls == [image.pixels.shape]
        calls.clear()
        assert ctx.magnitude.tobytes() == equalized_magnitude(image).tobytes()
        if level:
            edges = canny_edges(equalize_histogram(image), cfg.canny_low, cfg.canny_high)
            assert ctx.edge_map.dtype == edges.dtype and ctx.edge_map.tobytes() == edges.tobytes()
        else:
            assert ctx.edge_map is None


def test_two_d_fit_gates_each_pass_with_one_banded_product(trained, monkeypatch):
    """Every pass of an asm_svm fit gates each landmark's whole grid from its
    patch in one grid_decisions call, which makes one matmul, calls no
    decision_values and gathers only the competing
    windows: grid_windows' mask picks exactly the rows mahalanobis_batch
    gets, in np.nonzero order, fewer than the in-radius candidates in some
    passes. The banded weights are built once per level's classifier stack
    over two fits."""
    bundle, _, faces = trained
    cfg = config_for_mode(bundle, "asm_svm")
    sample = faces[6]
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    pyr = build_pyramid(sample.image, cfg.levels)
    # Fresh copies of the stacks, so this test's fits build their banded weights.
    bundle = dataclasses.replace(bundle, levels=tuple(
        dataclasses.replace(lv, svms=LinearSvmModel(lv.svms.weights, lv.svms.bias))
        for lv in bundle.levels))
    passes = []

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-D pass called decision_values")

    def grid(model, patches):
        with matmul_operands() as products:
            values = grid_decisions(model, patches)
        passes.append({"model": model, "products": products})
        return values

    def gather(patches, mask):
        passes[-1]["kept"] = np.nonzero(mask.reshape(len(mask), -1))
        return grid_windows(patches, mask)

    def cost(stats, rows, owner=None):
        passes[-1]["cost"] = (len(rows), owner)
        return mahalanobis_batch(stats, rows, owner)

    monkeypatch.setattr(search, "decision_values", refuse)
    monkeypatch.setattr(search, "grid_decisions", grid)
    monkeypatch.setattr(search, "grid_windows", gather)
    monkeypatch.setattr(search, "mahalanobis_batch", cost)
    first = fit(pyr, bundle, init, cfg)
    assert len(passes) == sum(first.iterations)
    bands = [lv.svms.grid_bands(7) for lv in bundle.levels]
    second = fit(pyr, bundle, init, cfg)
    assert second.shape.points.tobytes() == first.shape.points.tobytes()
    fewer = 0
    for record in passes:
        k, d = record["model"].weights.shape
        side = math.isqrt(d)
        assert record["products"] == [(k, 7, side * (7 + side - 1))]
        kept_owner, _ = record["kept"]
        count, owner = record["cost"]
        assert count == len(kept_owner) and owner.tolist() == kept_owner.tolist()
        fewer += count < 36 * k
    assert fewer > 0
    assert {id(record["model"]) for record in passes} <= {id(lv.svms) for lv in bundle.levels}
    for lv, built in zip(bundle.levels, bands):
        assert list(lv.svms._bands) == [7] and lv.svms.grid_bands(7) is built


def test_gate_decision_convention():
    # accepted means decision value >= 0, matching predict()
    model = LinearSvmModel(np.array([1.0, 0.0]), 0.0)
    vals = decision_values(model, np.array([[0.0, 5.0], [1.0, 0.0], [-1.0, 0.0]]))
    assert ((vals >= 0) == np.array([True, True, False])).all()
