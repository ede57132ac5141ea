import dataclasses

import numpy as np
import pytest

from asmfit import search
from asmfit.cli import truth_box
from asmfit.errors import (
    BoxError,
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
    sobel_gradients,
)
from asmfit.profiles import (
    ProfileStats,
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
    init_shape_from_box,
    search_landmarks,
)
from asmfit.shape_model import Shape, build_shape_model, fit_params
from asmfit.svm import LinearSvmModel, SvmTrainConfig, decision_values

from conftest import random_shape_points, stacked_stats, stacked_svms
import reference_search


def two_d_config(**overrides):
    base = dict(levels=1, profile_lengths=(5,), search_radius=2)
    base.update(overrides)
    return FitConfig(**base)


def make_context(magnitude, stats, raw=None, edge_map=None, svms=None, scheme=None):
    """2-D context from per-landmark stats and SVMs, stacked as a bundle
    holds them; no edge map means no edge weighting, no SVMs no gate."""
    if raw is None:
        raw = GrayImage(np.zeros(magnitude.shape))
    return LevelContext(raw=raw, magnitude=magnitude, edge_map=edge_map, stats=stacked_stats(stats),
                        svms=None if svms is None else stacked_svms(svms), scheme=scheme)


def window_feature(magnitude, center, size=5):
    return normalize_windows(windows_batch(magnitude, np.array([center], float), size), "sum")[0]


def stats_around(feature, rng, spread=1e-3, rows=6):
    noisy = feature[None, :] + rng.normal(0.0, spread, (rows, feature.size))
    return stats_from_matrix(noisy)


# --------------------------------------------------------------- FitConfig

def test_fit_config_validation():
    with pytest.raises(ShapeArityError):
        FitConfig(levels=0, profile_lengths=())
    with pytest.raises(ShapeArityError):
        FitConfig(levels=2, profile_lengths=(3,))
    with pytest.raises(ShapeArityError):
        FitConfig(levels=1, profile_lengths=(4,))
    with pytest.raises(ShapeArityError):
        FitConfig(search_radius=0)
    with pytest.raises(ShapeArityError):
        FitConfig(convergence=0.0)
    with pytest.raises(ShapeArityError):
        FitConfig(c=1.0)
    with pytest.raises(ShapeArityError):
        FitConfig(mode="hybrid")
    with pytest.raises(ShapeArityError):
        FitConfig(max_iters_per_level=-1)
    # canny_edges needs 0 <= low <= high; the config checks it when built
    for low, high in ((200.0, 100.0), (-1.0, 100.0), (float("nan"), 100.0)):
        with pytest.raises(ShapeArityError, match=r"canny_low must be in \[0, canny_high\]"):
            FitConfig(canny_low=low, canny_high=high)


@pytest.mark.parametrize("name, value", [
    ("levels", True), ("levels", 3.0), ("search_radius", 3.0), ("max_iters_per_level", 20.0),
    ("max_iters_per_level", False), ("convergence", "0.9"), ("c", None), ("canny_low", "x"),
    ("canny_high", [150.0]), ("profile_lengths", (3.9, 7.2, "15")),
    ("profile_lengths", (3, True, 15)),
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
    moved, costs = search_landmarks(ctx, shape, two_d_config(), 0)
    assert tuple(moved.points[0]) == (20.0, 12.0)
    assert np.max(np.abs(moved.points - shape.points)) <= 2.0
    assert costs.shape == (3,)


def test_search_tie_breaks_toward_nearest_integer():
    mag = np.full((24, 24), 5.0)
    rng = np.random.default_rng(3)
    st = stats_from_matrix(rng.normal(0.3, 0.05, (8, 25)))
    ctx = make_context(mag, (st, st, st))
    shape = Shape(np.array([[10.3, 7.6], [4.4, 4.3], [16.7, 18.2]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config(), 0)
    assert np.array_equal(moved.points, np.rint(shape.points))


def test_search_integer_position_is_stationary_on_flat_costs():
    mag = np.full((24, 24), 5.0)
    rng = np.random.default_rng(4)
    st = stats_from_matrix(rng.normal(0.3, 0.05, (8, 25)))
    ctx = make_context(mag, (st, st, st))
    shape = Shape(np.array([[10.0, 7.0], [4.0, 4.0], [16.0, 18.0]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config(), 0)
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
    moved, _ = search_landmarks(ctx, shape, two_d_config(), 0)
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
    ungated, _ = search_landmarks(ctx_plain, shape, two_d_config(), 0)
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
    gated, _ = search_landmarks(ctx_gated, shape, two_d_config(), 0)
    assert tuple(gated.points[0]) == target


def test_search_gate_falls_back_when_nothing_passes():
    rng = np.random.default_rng(7)
    mag = rng.uniform(1.0, 9.0, (32, 32))
    decoy = (9.0, 11.0)
    st = stats_around(window_feature(mag, decoy), rng)
    reject_all = LinearSvmModel(np.zeros(25), -1.0)
    ctx = make_context(mag, (st, st, st), svms=(reject_all,) * 3)
    shape = Shape(np.array([[10.0, 12.0], [4.0, 4.0], [26.0, 26.0]]))
    moved, _ = search_landmarks(ctx, shape, two_d_config(), 0)
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
    cfg = FitConfig(levels=1, profile_lengths=(5,), search_radius=3, mode="classic")
    ctx = LevelContext(raw=img, magnitude=None, edge_map=None,
                       stats=stacked_stats((st_edge,) * 3), svms=None, scheme=None)
    moved, _ = search_landmarks(ctx, shape, cfg, 0)
    assert tuple(moved.points[1]) == (11.0, 16.0)


def test_search_respects_radius_property():
    rng = np.random.default_rng(9)
    for trial in range(10):
        mag = rng.uniform(1.0, 9.0, (32, 32))
        st = stats_from_matrix(rng.normal(0.2, 0.1, (8, 25)))
        ctx = make_context(mag, (st, st, st))
        pts = rng.uniform(6.0, 24.0, (3, 2))
        r = int(rng.integers(1, 4))
        moved, _ = search_landmarks(ctx, Shape(pts), two_d_config(search_radius=r), 0)
        assert np.max(np.abs(moved.points - pts)) <= r + 1e-9
        assert np.array_equal(moved.points, np.rint(moved.points))


def oracle_context(rng, kind, size, k, hw=(40, 52), tie_image=False, gate=True, edges=True):
    """Context with per-landmark stats and gates of varied acceptance.

    Gate biases run from reject-all (the gate falls back) to accept-all.
    A tie image is constant in its left half, so many candidates there
    share one window and one cost. Its statistics are centred on that
    window, so the shared cost is exactly 0 on every BLAS kernel, wherever
    a row sits in its call. A one_d context has no gradient magnitude;
    without gate or edges it holds no SVMs or no edge map. Every array is
    drawn either way, so the draws do not depend on the switches.
    """
    h, w = hw
    mag = rng.uniform(0.5, 9.0, hw)
    raw = rng.uniform(0.0, 255.0, hw)
    if tie_image:
        mag[:, : w // 2] = 3.0
        raw[:, : w // 2] = 90.0
    d = size * size if kind == "two_d" else size
    # One row count for the stack: a level's landmarks share one rank.
    stats = stats_from_matrix(rng.uniform(0.0, 0.05 if kind == "two_d" else 0.3,
                                          (k, int(rng.integers(4, 40)), d)))
    svms = LinearSvmModel(rng.normal(0.0, 1.0, (k, d)) / np.sqrt(d), np.linspace(-1.5, 1.5, k))
    edge_map = (rng.uniform(size=hw) < 0.3).astype(np.uint8)
    if tie_image:
        # A constant window sum-normalizes to 1/d in every dim (3/147 and
        # 1/49 round alike); a flat 1-D profile is all zeros.
        tie_row = np.full(d, 1.0 / d) if kind == "two_d" else np.zeros(d)
        stats = ProfileStats(np.tile(tie_row, (k, 1)), basis=stats.basis, lam=stats.lam,
                             rho=stats.rho)
    return LevelContext(raw=GrayImage(raw), magnitude=mag if kind == "two_d" else None,
                        edge_map=edge_map if edges else None, stats=stats,
                        svms=svms if gate else None, scheme=None)


ORACLE_CASES = [
    (21, "two_d", True, True),
    (22, "two_d", False, True),
    (23, "two_d", True, False),
    (25, "one_d", False, False),
    (26, "one_d", True, True),
]


# The ids keep the "sum" they had when the window rule was a parameter.
@pytest.mark.parametrize("seed,kind,gate,edges", ORACLE_CASES,
                         ids=[f"{s}-{k}-sum-{g}-{e}" for s, k, g, e in ORACLE_CASES])
@pytest.mark.parametrize("tie_image", [False, True])
def test_search_matches_score_gate_lexsort_oracle(seed, kind, gate, edges, tie_image):
    """Winners equal the oracle's; costs agree to rtol 1e-12, gate fallbacks and ties included."""
    rng = np.random.default_rng(seed + 10 * tie_image)
    k, size = 12, 7
    cfg = FitConfig(levels=1, profile_lengths=(size,), search_radius=3)
    for trial in range(4):
        ctx = oracle_context(rng, kind, size, k, tie_image=tie_image, gate=gate, edges=edges)
        # inside, fractional and integer, and across every border
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (k, 2))
        pts[::3] = np.rint(pts[::3])
        shape = Shape(pts)
        got, got_costs = search_landmarks(ctx, shape, cfg, 0)
        want, want_costs = reference_search.search_landmarks(ctx, shape, cfg, 0)
        assert np.array_equal(got.points, want.points)
        np.testing.assert_allclose(got_costs, want_costs, rtol=1e-12, atol=0)


def test_oracle_contexts_plant_fallbacks_and_ties():
    """The oracle test above meets both gate fallbacks and cost ties."""
    rng = np.random.default_rng(1)
    ctx = oracle_context(rng, "two_d", 7, 12, tie_image=True)
    pts = np.column_stack([np.full(12, 10.0), np.linspace(5.0, 35.0, 12)])
    cx, cy, valid, _ = _candidate_grid(pts, 3)
    feats = reference_search.candidate_features(ctx, Shape(pts), 7, cx, cy)
    accepted = [np.count_nonzero(valid[j] & (decision_values(ctx.svms, feats[j], j) >= 0))
                for j in range(12)]
    assert accepted[0] == 0 and accepted[-1] == np.count_nonzero(valid[-1])
    costs = np.array([mahalanobis_batch(ctx.stats, feats[j], j) for j in range(12)])
    assert all(len(np.unique(row[valid[j]])) == 1 for j, row in enumerate(costs))


def in_radius_features(ctx, shape, size, radius=3):
    """_candidate_features of every in-radius candidate, with the (k, m)
    grid (cx, cy) and its in-radius mask."""
    cx, cy, valid, _ = _candidate_grid(shape.points, radius)
    centers = np.stack([cx[valid], cy[valid]], axis=1)
    return _candidate_features(ctx, shape, size, centers, np.nonzero(valid)[0]), cx, cy, valid


@pytest.mark.parametrize("size", [3, 7, 15])
def test_one_d_candidate_features_match_inline_oracle(size):
    """The batched 1-D path equals the inline (k, m, size + 1) sampling exactly,
    row for row at every in-radius grid position."""
    rng = np.random.default_rng(40 + size)
    flat_rows = 0
    for trial in range(4):
        ctx = oracle_context(rng, "one_d", size, 12, tie_image=True, gate=False, edges=False)
        # inside, fractional and integer, and across every border
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (12, 2))
        pts[::3] = np.rint(pts[::3])
        shape = Shape(pts)
        got, cx, cy, valid = in_radius_features(ctx, shape, size)
        want = reference_search.profiles_1d(ctx, shape, size, cx, cy)
        assert want.shape == (12, 49, size)
        assert got.shape == (np.count_nonzero(valid), size)
        assert got.tobytes() == want[valid].tobytes()
        flat_rows += np.count_nonzero(~want[valid].any(axis=1))
    assert flat_rows > 0


@pytest.mark.parametrize("size", [3, 7, 15])
def test_two_d_candidate_features_match_oracle_gather(size):
    """2-D rows equal the clamped-gather, sum-normalized oracle exactly, row
    for row at every in-radius grid position, flat windows included."""
    rng = np.random.default_rng(50 + size)
    flat_rows = 0
    for trial in range(4):
        ctx = oracle_context(rng, "two_d", size, 12, gate=False, edges=False)
        ctx.magnitude[:, :20] = 0.0
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (12, 2))
        pts[::3] = np.rint(pts[::3])
        shape = Shape(pts)
        got, cx, cy, valid = in_radius_features(ctx, shape, size)
        want = reference_search.candidate_features(ctx, shape, size, cx, cy)
        assert got.shape == (np.count_nonzero(valid), size * size)
        assert got.tobytes() == want[valid].tobytes()
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


@pytest.mark.parametrize("kind", ["two_d", "one_d"])
def test_gate_sees_in_radius_rows_and_search_equals_oracle(kind, monkeypatch):
    """decision_values gets each landmark's in-radius rows and nothing else,
    in one owner-form call: 36 rows at a fractional position, 49 at an
    integer one. Points and winning costs equal the oracle's byte for byte,
    near the border too."""
    calls = []

    def recording(model, rows, landmark=None):
        calls.append((landmark, np.array(rows)))
        return decision_values(model, rows, landmark)

    monkeypatch.setattr(search, "decision_values", recording)
    rng = np.random.default_rng(60)
    k, size = 12, 7
    cfg = FitConfig(levels=1, profile_lengths=(size,), search_radius=3)
    for trial in range(4):
        ctx = oracle_context(rng, kind, size, k)
        ctx = dataclasses.replace(ctx, stats=axis_stats(ctx.stats))
        pts = rng.uniform((-4.0, -4.0), (56.0, 44.0), (k, 2))
        pts[::2] = np.rint(pts[::2])
        pts[1] = (0.5, 43.5)
        shape = Shape(pts)
        calls.clear()
        got, got_costs = search_landmarks(ctx, shape, cfg, 0)
        cx, cy, valid, _ = _candidate_grid(pts, 3)
        want_rows = reference_search.candidate_features(ctx, shape, size, cx, cy)
        assert len(calls) == 1
        owner, rows = calls[0]
        assert np.unique(owner).tolist() == list(range(k))
        for j in range(k):
            assert np.count_nonzero(owner == j) == (49 if j % 2 == 0 else 36)
            assert rows[owner == j].tobytes() == want_rows[j][valid[j]].tobytes()
        want, want_costs = reference_search.search_landmarks(ctx, shape, cfg, 0)
        assert got.points.tobytes() == want.points.tobytes()
        assert got_costs.tobytes() == want_costs.tobytes()


def test_search_checks_stats_arity():
    mag = np.full((24, 24), 5.0)
    st = stats_from_matrix(np.random.default_rng(10).normal(0.3, 0.05, (8, 25)))
    ctx = make_context(mag, (st, st))
    shape = Shape(np.array([[10.0, 7.0], [4.0, 4.0], [16.0, 18.0]]))
    with pytest.raises(DimensionMismatchError):
        search_landmarks(ctx, shape, two_d_config(), 0)


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
        search_landmarks(ctx, shape, two_d_config(), 0)
    assert built == []


def one_by_one(score, model, rows, owner, k):
    """search._by_landmark without its one call: one call per landmark."""
    bounds = np.searchsorted(owner, np.arange(k + 1))
    return np.concatenate([score(model, rows[bounds[j]:bounds[j + 1]], j) for j in range(k)])


def recorded(monkeypatch):
    """Every gate and cost call's (landmark, rows shape), in call order; an
    owner array is recorded as a tuple."""
    calls = {"gate": [], "cost": []}
    for name, key, fn in (("decision_values", "gate", decision_values),
                          ("mahalanobis_batch", "cost", mahalanobis_batch)):
        def recording(model, rows, landmark=None, key=key, fn=fn):
            owners = landmark if np.ndim(landmark) == 0 else tuple(np.asarray(landmark).tolist())
            calls[key].append((owners, np.shape(rows)))
            return fn(model, rows, landmark)
        monkeypatch.setattr(search, name, recording)
    return calls


def fractional_points(rng, k):
    """k positions inside and across every border, none on the integer grid
    in either axis, so every landmark has (2r)^2 in-radius candidates."""
    pts = np.floor(rng.uniform((-4.0, -4.0), (56.0, 44.0), (k, 2)))
    return pts + rng.uniform(0.05, 0.95, (k, 2))


# gate: None (no SVMs); "mixed" (centred weights accept part of the rows, and
# landmark 0 is planted to reject all of them and fall back, so the counts
# differ and the costs are per landmark); "all" (every row accepted, so the
# costs are stacked too). The last trial of each case uses the tie image.
STACKED_CASES = [(kind, gate, edges) for kind in ("two_d", "one_d")
                 for gate in (None, "mixed", "all") for edges in (False, True)]


@pytest.mark.parametrize("kind,gate,edges", STACKED_CASES,
                         ids=[f"{k}-{g}-{e}" for k, g, e in STACKED_CASES])
def test_stacked_pass_equals_per_landmark_pass(kind, gate, edges, monkeypatch):
    """With every landmark at a fractional position the gate runs as one
    stacked call; points and winning costs equal the same pass computed
    landmark by landmark byte for byte, and with axis statistics the points
    equal the oracle's."""
    rng = np.random.default_rng(70 + 10 * STACKED_CASES.index((kind, gate, edges)))
    k, size = 12, 7
    cfg = FitConfig(levels=1, profile_lengths=(size,), search_radius=3)
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
            got, got_costs = search_landmarks(ctx, shape, cfg, 0)
        d = size * size if kind == "two_d" else size
        assert calls["gate"] == ([] if gate is None else [(None, (k, 36, d))])
        if gate == "mixed":
            rows, *_ = in_radius_features(ctx, shape, size)
            accepted = decision_values(ctx.svms, rows.reshape(k, 36, d)) >= 0
            owner = np.nonzero(accepted | ~accepted.any(axis=1, keepdims=True))[0]
            assert calls["cost"] == [(tuple(owner.tolist()), (len(owner), d))]
        else:
            assert calls["cost"] == [(None, (k, 36, d))]
        with monkeypatch.context() as patch:
            patch.setattr(search, "_by_landmark", one_by_one)
            want, want_costs = search_landmarks(ctx, shape, cfg, 0)
        assert got.points.tobytes() == want.points.tobytes()
        assert got_costs.tobytes() == want_costs.tobytes()
        # The oracle scores all 49 rows of a landmark and the search only its
        # gated in-radius ones; with axis statistics a row's cost has the same
        # bits on every BLAS kernel either way.
        exact = dataclasses.replace(ctx, stats=axis_stats(ctx.stats))
        oracle, _ = reference_search.search_landmarks(exact, shape, cfg, 0)
        assert (search_landmarks(exact, shape, cfg, 0)[0].points.tobytes()
                == oracle.points.tobytes())
        if gate == "mixed":
            assert not accepted[0].any()
            assert (accepted.any(axis=1) & ~accepted.all(axis=1)).any()


def test_equal_counts_stack_and_mixed_counts_do_not(monkeypatch):
    """An equal-count pass makes one stacked gate call and one stacked cost
    call; with some landmarks on the integer grid (49 candidates, not 36)
    neither stacks, and each runs as one owner-form call."""
    rng = np.random.default_rng(90)
    k, size = 12, 7
    cfg = FitConfig(levels=1, profile_lengths=(size,), search_radius=3)
    ctx = oracle_context(rng, "two_d", size, k)
    ctx = dataclasses.replace(ctx, svms=LinearSvmModel(ctx.svms.weights, np.full(k, 1e9)))
    pts = fractional_points(rng, k)
    calls = recorded(monkeypatch)
    search_landmarks(ctx, Shape(pts), cfg, 0)
    assert calls == {"gate": [(None, (k, 36, 49))], "cost": [(None, (k, 36, 49))]}

    pts[::3] = np.rint(pts[::3])
    calls["gate"].clear()
    calls["cost"].clear()
    search_landmarks(ctx, Shape(pts), cfg, 0)
    owner = np.repeat(np.arange(k), [49 if j % 3 == 0 else 36 for j in range(k)])
    one_owner_call = [(tuple(owner.tolist()), (len(owner), 49))]
    assert calls == {"gate": one_owner_call, "cost": one_owner_call}


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


def test_fit_zero_iterations_returns_regularized_init(trained):
    bundle, _, faces = trained
    sample = faces[6]
    base = config_for_mode(bundle, "asm_svm")
    cfg = FitConfig(levels=base.levels, profile_lengths=base.profile_lengths,
                    max_iters_per_level=0)
    pyr = build_pyramid(sample.image, cfg.levels)
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    res = fit(pyr, bundle, init, cfg)
    assert res.iterations == (0, 0, 0)
    assert res.converged == (False, False, False)
    assert res.landmark_costs is None
    # still a legal model instance: refitting it leaves it in place
    pf = fit_params(bundle.shape_model, res.shape)
    assert pf.residual == pytest.approx(0.0, abs=1e-9)
    assert (np.abs(pf.params) <= 3.0 * np.sqrt(bundle.shape_model.eigenvalues) + 1e-9).all()


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
    assert res.landmark_costs.shape == (bundle.scheme.total,)


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
    cfg = FitConfig(levels=4, profile_lengths=(3, 7, 15, 15), mode=mode)
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


# --------------------------------------------------------------- modes

def test_config_for_mode(trained):
    bundle, _, _ = trained
    assert config_for_mode(bundle, "asm_svm") is bundle.fit_defaults
    assert bundle.fit_defaults.mode == "asm_svm"
    classic = config_for_mode(bundle, "classic")
    assert classic == dataclasses.replace(bundle.fit_defaults, mode="classic",
                                          profile_lengths=bundle.classic_profiles.sizes)
    with pytest.raises(ShapeArityError):
        config_for_mode(bundle, "hybrid")


def test_classic_context_computes_no_equalization_sobel_or_canny(trained, monkeypatch):
    """A classic fit reads the raw level images only."""
    bundle, _, faces = trained
    sample = faces[6]
    cfg = config_for_mode(bundle, "classic")
    pyr = build_pyramid(sample.image, cfg.levels)

    def refuse(*args, **kwargs):
        raise AssertionError("a classic fit computed an asm_svm image")

    for name in ("equalize_histogram", "sobel_gradients", "canny_edges"):
        monkeypatch.setattr(search, name, refuse)
    for level in range(cfg.levels):
        ctx = build_level_context(bundle, pyr.levels[level], level, cfg)
        assert ctx.raw is pyr.levels[level]
        assert ctx.magnitude is None and ctx.edge_map is None and ctx.svms is None
        assert ctx.stats == bundle.classic_profiles.stats[level]
    init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, 0.10))
    assert np.isfinite(fit(pyr, bundle, init, cfg).shape.points).all()
    # the patch is live: an asm_svm context does reach it
    with pytest.raises(AssertionError, match="computed an asm_svm image"):
        build_level_context(bundle, pyr.levels[0], 0, config_for_mode(bundle, "asm_svm"))


def test_asm_svm_context_holds_gradients_edges_and_svms(trained):
    bundle, _, faces = trained
    cfg = config_for_mode(bundle, "asm_svm")
    pyr = build_pyramid(faces[6].image, cfg.levels)
    for level in range(cfg.levels):
        image = pyr.levels[level]
        ctx = build_level_context(bundle, image, level, cfg)
        equalized = equalize_histogram(image)
        assert ctx.raw is image
        assert np.array_equal(ctx.magnitude, sobel_gradients(equalized).magnitude)
        assert np.array_equal(ctx.edge_map,
                              canny_edges(equalized, cfg.canny_low, cfg.canny_high))
        assert ctx.svms == bundle.svms[level]
        assert ctx.stats == bundle.asm_profiles.stats[level]


def test_gate_decision_convention():
    # accepted means decision value >= 0, matching predict()
    model = LinearSvmModel(np.array([1.0, 0.0]), 0.0)
    vals = decision_values(model, np.array([[0.0, 5.0], [1.0, 0.0], [-1.0, 0.0]]))
    assert ((vals >= 0) == np.array([True, True, False])).all()
