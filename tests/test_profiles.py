import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies

from asmfit.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    ShapeArityError,
)
from asmfit.imaging import GrayImage, sample_bilinear
from asmfit import profiles
from asmfit.profiles import (
    Profile,
    ProfileStats,
    edge_weighted_cost,
    grid_patches,
    grid_windows,
    landmark_normals,
    leading_subspace,
    mahalanobis_batch,
    mahalanobis_cost,
    normalize_windows,
    profiles_1d_batch,
    stats_from_matrix,
    subspace_rank,
    windows_batch,
)
from asmfit.scheme import DEFAULT_SCHEME, ContourGroup, LandmarkScheme
from asmfit.search import _candidate_grid
from asmfit.shape_model import Shape
from conftest import (
    ARITY_CASES,
    PROPERTY,
    arity_call,
    matmul_operands,
    owner_counts,
    owner_products,
    stacked_stats,
)
from reference_svm import landmark_svm
from reference_profiles import (
    clamped_windows,
    dense_costs,
    factor_costs,
    grid_centers,
    landmark_normal,
    landmark_stats,
    padded_block_scores,
    sample_covariance,
    single_contour_scheme,
    subspace_dense_costs,
    sum_normalized,
)


def ramp_image(width=21, height=7, slope=3.0):
    return GrayImage(np.tile(slope * np.arange(width), (height, 1)))


# ------------------------------------------------------------- containers

def test_profile_validation():
    with pytest.raises(ShapeArityError):
        Profile(np.array([1.0, np.inf]))
    assert Profile(np.zeros((3, 3))).values.shape == (9,)


def factor_inverse(st):
    """(C + rho * I)^-1 rebuilt from a full-rank factor."""
    return st.basis @ np.diag(st.weights) @ st.basis.T


def test_profile_stats_symmetrizes_covariance():
    cov = np.array([[2.0, 0.4], [0.0, 1.0]])
    st = ProfileStats(np.zeros(2), cov, eps=1e-3)
    sym = ProfileStats(np.zeros(2), (cov + cov.T) / 2, eps=1e-3)
    assert np.array_equal(st.basis, sym.basis)
    assert np.array_equal(st.lam, sym.lam)
    assert st.rho == sym.rho


def test_profile_stats_ridge():
    st = ProfileStats(np.zeros(2), np.diag([2.0, 0.5]), eps=1e-3)
    ridge = 1e-3 * 2.5 / 2
    assert st.rho == ridge
    assert np.allclose(factor_inverse(st),
                       np.linalg.inv(np.diag([2.0, 0.5]) + ridge * np.eye(2)))


def test_profile_stats_zero_covariance_floor():
    st = ProfileStats(np.zeros(2), np.zeros((2, 2)), eps=1e-3)
    assert st.rho == 1e-12
    assert np.isfinite(st.weights).all()
    assert mahalanobis_cost(st, Profile(np.ones(2))) > 0


def test_profile_stats_eps_zero_exact_inverse():
    st = ProfileStats(np.zeros(2), np.diag([2.0, 0.5]), eps=0.0)
    assert st.rho == 0.0
    assert np.array_equal(factor_inverse(st), np.diag([0.5, 2.0]))


def test_profile_stats_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        ProfileStats(np.zeros(3), np.eye(2), eps=1e-3)
    with pytest.raises(DimensionMismatchError):
        ProfileStats(np.zeros(2), basis=np.eye(3), lam=np.ones(3), rho=0.1)
    with pytest.raises(DimensionMismatchError):
        ProfileStats(np.zeros(2), basis=np.eye(2), lam=np.ones(3), rho=0.1)
    # a level's stack holds one rank: rank-1 eigenvalues do not fit rank-3 bases
    with pytest.raises(DimensionMismatchError):
        ProfileStats(np.zeros((2, 3)), basis=np.tile(np.eye(3), (2, 1, 1)), lam=np.ones((2, 1)),
                     rho=np.full(2, 0.1))


def test_profile_stats_factor_validation():
    basis = np.eye(3)[:, :2]
    for lam in ([1.0, -1e-3], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(InsufficientDataError):
            ProfileStats(np.zeros(3), basis=basis, lam=lam, rho=0.1)
    for rho in (-0.1, np.inf, np.nan):
        with pytest.raises(InsufficientDataError):
            ProfileStats(np.zeros(3), basis=basis, lam=[1.0, 1.0], rho=rho)
    # without a ridge the space outside the basis has no finite cost
    with pytest.raises(InsufficientDataError):
        ProfileStats(np.zeros(3), basis=basis, lam=[1.0, 1.0], rho=0.0)
    with pytest.raises(InsufficientDataError):
        ProfileStats(np.zeros(2), np.diag([1.0, 0.0]), eps=0.0)
    with pytest.raises(InsufficientDataError):
        stats_from_matrix(np.random.default_rng(0).normal(size=(3, 5)), eps=0.0)
    with pytest.raises(TypeError):
        ProfileStats(np.zeros(2), np.eye(2), eps=1e-3, basis=np.eye(2), lam=[1.0, 1.0], rho=0.1)
    with pytest.raises(TypeError, match="covariance and eps"):
        ProfileStats(np.zeros(2), np.eye(2))  # the covariance form has no default eps
    with pytest.raises(TypeError):
        ProfileStats(np.zeros(2), basis=np.eye(2), lam=[1.0, 1.0])


@pytest.mark.parametrize("m", [5, 12], ids=["svd-rank-m-1", "eigh-full-rank"])
def test_stacked_stats_equal_per_landmark_stats(m):
    """A (k, m, d) stack gives each landmark's statistics and costs bit for bit."""
    rng = np.random.default_rng(m)
    rows = rng.normal(0.3, 0.05, (4, m, 9))
    candidates = rng.normal(0.3, 0.08, (7, 9))
    stack = stats_from_matrix(rows)
    assert stack.mean.shape == (4, 9) and stack.rank == min(m - 1, 9)
    for j in range(4):
        one = stats_from_matrix(rows[j])
        for attr in ("mean", "basis", "lam", "weights"):
            assert getattr(stack, attr)[j].tobytes() == getattr(one, attr).tobytes()
        assert stack.rho[j] == one.rho
        assert (mahalanobis_batch(stack, candidates, np.full(7, j)).tobytes()
                == mahalanobis_batch(one, candidates).tobytes())
    with pytest.raises(DimensionMismatchError, match="owner"):
        mahalanobis_batch(stack, candidates)


def test_stacked_stats_validation():
    """Every stacked field must carry the landmark axis, and every landmark is checked."""
    good = dict(basis=np.tile(np.eye(3)[:, :2], (2, 1, 1)), lam=np.ones((2, 2)),
                rho=np.full(2, 0.1))
    mean = np.zeros((2, 3))
    assert ProfileStats(mean, **good).rho.shape == (2,)
    for name, bad in (("basis", np.eye(3)[:, :2]), ("lam", np.ones((1, 2))),
                      ("lam", np.ones((2, 3))), ("rho", 0.1), ("rho", np.full(3, 0.1))):
        with pytest.raises(DimensionMismatchError):
            ProfileStats(mean, **{**good, name: bad})
    for name, bad in (("lam", [[1.0, 1.0], [1.0, -1.0]]), ("rho", [0.1, np.nan]),
                      ("rho", [0.0, 0.1])):  # rank 2 < 3 needs a ridge on every landmark
        with pytest.raises(InsufficientDataError):
            ProfileStats(mean, **{**good, name: bad})
    with pytest.raises(DimensionMismatchError):
        ProfileStats(np.zeros((2, 2, 3)), **good)


# ---------------------------------------------------------------- normals

def test_normal_square_corner_points_outward():
    sq = Shape(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    normals = landmark_normals(sq, single_contour_scheme(4))
    assert np.allclose(normals[0], [-1 / math.sqrt(2), -1 / math.sqrt(2)])
    outward = sq.points - sq.centroid()
    assert (np.sum(normals * outward, axis=1) > 0).all()


def test_normal_open_endpoint_uses_adjacent_segment():
    ell = Shape(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    normals = landmark_normals(ell, single_contour_scheme(3, closed=False))
    assert np.allclose(normals[2], [1.0, 0.0])
    assert np.allclose(normals[0], [0.0, -1.0])


def test_normal_degenerate_chord_falls_back_to_radial():
    pts = np.array([[2.0, 2.0], [0.0, 0.0], [2.0, 2.0]])
    n = landmark_normals(Shape(pts), single_contour_scheme(3))[1]
    assert np.allclose(n, [-1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_normal_fully_degenerate_default():
    assert np.array_equal(landmark_normals(Shape(np.ones((3, 2))), single_contour_scheme(3)),
                          [[1.0, 0.0]] * 3)


def test_normal_scheme_arity_check():
    # a scheme covering fewer landmarks than the shape holds
    sq = Shape(np.zeros((4, 2)) + np.arange(4)[:, None])
    with pytest.raises(ShapeArityError):
        landmark_normals(sq, single_contour_scheme(3))


@pytest.mark.parametrize("scheme", [
    DEFAULT_SCHEME,
    single_contour_scheme(68, closed=False),
    LandmarkScheme((ContourGroup("pair", 2, False), ContourGroup("loop", 3, True),
                    ContourGroup("rest", 63, False))),
])
def test_normals_match_per_landmark_oracle(scheme):
    """The batched normals equal landmark_normal bit for bit, degenerate cases included."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        pts = rng.normal(0.0, 30.0, (68, 2)) * 10.0 ** rng.uniform(-2, 2)
        if trial % 4 == 1:  # coincident points make degenerate chords
            pts[rng.integers(0, 68, 12)] = pts[rng.integers(0, 68, 12)]
        if trial % 4 == 2:  # a chord whose ends meet, on a landmark off the centroid
            pts[2] = pts[0]
            pts[1] = pts[0] + (5.0, -3.0)
        if trial % 4 == 3:  # every point at the centroid: the fixed fallback
            pts[:] = pts[0]
        shape = Shape(pts)
        want = np.stack([landmark_normal(shape, i, scheme) for i in range(68)])
        assert np.array_equal(landmark_normals(shape, scheme), want)


def test_normals_batch_checks_scheme_arity():
    with pytest.raises(ShapeArityError):
        landmark_normals(Shape(np.arange(8.0).reshape(4, 2)), single_contour_scheme(5))


def test_normals_are_unit_length():
    rng = np.random.default_rng(0)
    shape = Shape(rng.normal(0, 10, (9, 2)))
    norms = landmark_normals(shape, single_contour_scheme(9))
    assert np.allclose(np.linalg.norm(norms, axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------ 1-D profiles

def test_profiles_1d_on_ramp():
    # slope 3 along +x: length+1 samples a unit apart all differ by 3,
    # so the normalized profile is uniform 1/length
    rows = profiles_1d_batch(ramp_image(), np.array([[10.0, 3.0]]),
                             np.array([[1.0, 0.0]]), 3)
    assert np.allclose(rows, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_profiles_1d_step_hand_case():
    px = np.zeros((7, 21))
    px[:, 11:] = 120.0
    rows = profiles_1d_batch(GrayImage(px), np.array([[10.0, 3.0]]),
                             np.array([[1.0, 0.0]]), 3)
    assert np.allclose(rows, [[0.0, 0.5, 0.5]], atol=1e-12)


def test_profiles_1d_constant_image_is_zero():
    rows = profiles_1d_batch(GrayImage(np.full((7, 21), 50.0)),
                             np.array([[10.0, 3.0]]), np.array([[1.0, 0.0]]), 5)
    assert np.array_equal(rows, np.zeros((1, 5)))


def test_profiles_1d_mixed_flat_rows_equal_a_per_row_oracle():
    """A batch whose rows are flat (on the image's constant left half) and not
    flat (on its noisy right half) gives each row's bytes, signed zeros
    included: its differences over their absolute sum, or zeros when that sum
    is below 1e-12."""
    rng = np.random.default_rng(5)
    px = np.full((20, 40), 80.0)
    px[:, 20:] += rng.normal(0.0, 20.0, (20, 20))
    image = GrayImage(px)
    centers = np.stack([rng.uniform(5.0, 35.0, (6, 8)), rng.uniform(5.0, 15.0, (6, 8))], axis=-1)
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8], [0.8, 0.6], [0.0, -1.0],
                        [-1.0, 0.0]])[:, None, :]
    rows = profiles_1d_batch(image, centers, normals, 5)
    flat = 0
    for i, j in np.ndindex(centers.shape[:2]):
        xs = centers[i, j, 0] + (np.arange(6) - 2.5) * normals[i, 0, 0]
        ys = centers[i, j, 1] + (np.arange(6) - 2.5) * normals[i, 0, 1]
        diffs = np.diff(sample_bilinear(image, xs, ys))
        total = np.sum(np.abs(diffs))
        want = np.zeros(5) if total < 1e-12 else diffs / total
        flat += total < 1e-12
        assert rows[i, j].tobytes() == want.tobytes()
    assert 0 < flat < centers.shape[0] * centers.shape[1]


def test_profiles_1d_direction_reversal():
    img = ramp_image()
    fwd = profiles_1d_batch(img, np.array([[10.0, 3.0]]), np.array([[1.0, 0.0]]), 5)
    bwd = profiles_1d_batch(img, np.array([[10.0, 3.0]]), np.array([[-1.0, 0.0]]), 5)
    assert np.allclose(bwd, -fwd[:, ::-1], atol=1e-12)


def test_profiles_1d_length_validation():
    img = ramp_image()
    centers, normals = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    with pytest.raises(ShapeArityError):
        profiles_1d_batch(img, centers, normals, 4)
    with pytest.raises(ShapeArityError):
        profiles_1d_batch(img, centers, normals, 1)


# ------------------------------------------------------- 2-D normalization

def test_sigmoid_fixed_points():
    q = 10.0
    out = normalize_windows(np.array([[q, 0.0, -q, 3 * q]]), "sigmoid", q)
    assert out[0, 0] == 0.5
    assert out[0, 1] == 0.0
    assert out[0, 2] == -0.5
    assert out[0, 3] == pytest.approx(0.75)


def test_sigmoid_needs_positive_q():
    # a sigmoid call must pass q: one that omits it is refused like q <= 0
    for args in [(0.0,), (-1.0,), ()]:
        with pytest.raises(ShapeArityError, match="needs q > 0"):
            normalize_windows(np.ones((1, 4)), "sigmoid", *args)


def test_sum_normalization():
    out = normalize_windows(np.array([[1.0, 2.0, 3.0, 4.0]]), "sum")
    assert np.allclose(out, [[0.1, 0.2, 0.3, 0.4]])
    rng = np.random.default_rng(1)
    wins = rng.uniform(0.1, 5.0, (50, 9))
    assert np.allclose(normalize_windows(wins, "sum").sum(axis=1), 1.0, atol=1e-9)


def test_sum_normalization_flat_guard():
    out = normalize_windows(np.zeros((2, 5)), "sum")
    assert np.array_equal(out, np.full((2, 5), 0.2))


def test_unknown_mode_rejected():
    with pytest.raises(ShapeArityError):
        normalize_windows(np.ones((1, 4)), "softmax")


# ------------------------------------------------------------ 2-D windows

def test_windows_batch_interior():
    vals = np.arange(25.0).reshape(5, 5)
    rows = windows_batch(vals, np.array([[2.0, 1.0]]), 3)
    assert np.array_equal(rows[0], vals[0:3, 1:4].ravel())


def test_windows_batch_rounds_center():
    vals = np.arange(25.0).reshape(5, 5)
    a = windows_batch(vals, np.array([[2.4, 0.7]]), 3)
    b = windows_batch(vals, np.array([[2.0, 1.0]]), 3)
    assert np.array_equal(a, b)


def test_windows_batch_border_clamp():
    vals = np.arange(25.0).reshape(5, 5)
    rows = windows_batch(vals, np.array([[0.0, 0.0]]), 3)
    want = vals[np.ix_([0, 0, 1], [0, 0, 1])].ravel()
    assert np.array_equal(rows[0], want)


def window_centers(h, w, rng):
    """Centers inside, on and beyond every border, at the corners and far off the image."""
    xs = [0.0, 0.4, 0.6, 1.0, 2.0, w / 2, w - 3.0, w - 1.6, w - 1.0, w - 0.5, w + 2.0, -1.0, -3.0]
    ys = [0.0, 0.4, 0.6, 1.0, 2.0, h / 2, h - 3.0, h - 1.6, h - 1.0, h - 0.5, h + 2.0, -1.0, -3.0]
    grid = np.array([(x, y) for x in xs for y in ys])
    inside = rng.uniform((0.0, 0.0), (w - 1.0, h - 1.0), (40, 2))
    far = np.array([[-1e4, 5.0], [5.0, -1e4], [1e4, 1e4], [w + 60.0, -60.0]])
    return np.vstack([grid, inside, far])


@pytest.mark.parametrize("size", [3, 7, 15])
@pytest.mark.parametrize("hw", [(23, 41), (41, 23), (16, 16), (9, 30), (1, 1), (3, 2)])
def test_windows_batch_matches_clamped_gather_oracle(size, hw):
    rng = np.random.default_rng(size * 100 + hw[0])
    vals = rng.uniform(0.0, 50.0, hw)
    centers = window_centers(*hw, rng)
    want = clamped_windows(vals, centers, size)
    assert np.array_equal(windows_batch(vals, centers, size), want)
    # one window at a time takes the same path as a batch
    for c, row in zip(centers[::17], want[::17]):
        assert np.array_equal(windows_batch(vals, c[None, :], size)[0], row)
    assert windows_batch(vals, np.empty((0, 2)), size).shape == (0, size * size)


def test_normalize_sum_matches_masked_oracle():
    rng = np.random.default_rng(12)
    rows = rng.uniform(0.0, 5.0, (30, 49))
    rows[3] = 0.0
    rows[7] = 1e-14
    rows[11, :2] = (1e-3, -1e-3)
    rows[11, 2:] = 0.0
    rows[19] = -rows[19]  # a negative total is divided, not reset
    assert np.array_equal(normalize_windows(rows, "sum"), sum_normalized(rows))
    stacked = rows.reshape(5, 6, 49)
    assert np.array_equal(normalize_windows(stacked, "sum"), sum_normalized(stacked))
    assert np.array_equal(normalize_windows(rows[3], "sum"), sum_normalized(rows[3]))
    assert np.array_equal(normalize_windows(rows[0], "sum"), sum_normalized(rows[0]))


@pytest.mark.parametrize("mode", ["sum", "sigmoid"])
def test_normalize_windows_in_place(mode):
    rng = np.random.default_rng(13)
    rows = rng.uniform(0.0, 5.0, (12, 9))
    rows[4] = 0.0
    want = normalize_windows(rows, mode, 2.0)
    got = normalize_windows(rows, mode, 2.0, out=rows)
    assert got is rows
    assert np.array_equal(rows, want)


def test_windows_batch_size_validation():
    with pytest.raises(ShapeArityError):
        windows_batch(np.zeros((5, 5)), np.zeros((1, 2)), 2)
    with pytest.raises(ShapeArityError):
        grid_patches(np.zeros((5, 5)), np.zeros((1, 2)), 3, 4)


@PROPERTY
@given(data=strategies.data())
def test_grid_windows_equal_windows_batch(data):
    """The windows a search pass gathers from one border-clamped patch per
    landmark (grid_patches), at the in-radius nodes of its candidate grid
    (or any subset of them), equal windows_batch's and the clamped-gather oracle's at the
    same centers, byte for byte and in the same order. Radii 1-4, odd sides
    3-9; every coordinate lies inside the image, across a border, or at
    least 20 px outside one, at fractional and integer positions."""
    radius = data.draw(strategies.integers(1, 4), label="radius")
    size = data.draw(strategies.sampled_from([3, 5, 7, 9]), label="size")
    h, w = data.draw(strategies.integers(1, 40)), data.draw(strategies.integers(1, 40))
    k = data.draw(strategies.integers(1, 8), label="landmarks")

    def coordinate(n):
        return data.draw(strategies.one_of(
            strategies.floats(0.0, n - 1.0), strategies.floats(-size - 1.0, n + size),
            strategies.floats(-200.0, -20.0), strategies.floats(n + 19.0, n + 200.0)))

    pts = np.array([[coordinate(w), coordinate(h)] for _ in range(k)])
    if data.draw(strategies.booleans(), label="integer"):
        pts[::2] = np.rint(pts[::2])
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.0, 50.0, (h, w))
    cx, cy, allowed, _ = _candidate_grid(pts, radius)
    if data.draw(strategies.booleans(), label="subset"):
        allowed &= rng.uniform(size=allowed.shape) < 0.5
    g = 2 * radius + 1
    origins = np.stack([cx[:, 0], cy[:, 0]], axis=1)
    mask = allowed.reshape(k, g, g)
    centers = np.stack([cx[allowed], cy[allowed]], axis=1)
    assert grid_centers(origins, mask).tobytes() == centers.tobytes()
    patches = grid_patches(vals, origins, g, size)
    assert patches.shape == (k, g + size - 1, g + size - 1)
    got = grid_windows(patches, mask)
    assert got.shape == (len(centers), size * size)
    assert got.tobytes() == windows_batch(vals, centers, size).tobytes()
    assert got.tobytes() == clamped_windows(vals, centers, size).tobytes()


# ------------------------------------------------------------- statistics

def test_stats_from_matrix_hand_case():
    st = stats_from_matrix(np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert np.array_equal(st.mean, [1.0, 1.0])
    # two samples leave rank 1: covariance [[2, 2], [2, 2]] = 4 u u^T
    assert st.rank == 1
    assert st.lam == pytest.approx([4.0], rel=1e-15)
    assert np.abs(st.basis[:, 0]) == pytest.approx([2**-0.5, 2**-0.5], rel=1e-15)
    assert st.rho == 1e-3 * 4.0 / 2


def test_stats_require_two_samples():
    with pytest.raises(InsufficientDataError):
        stats_from_matrix(np.ones((1, 4)))


@pytest.mark.parametrize("m, d, eps, spread", [
    (8, 25, 1e-3, 0.05),    # m < d: rank m - 1, residual term outside the basis
    (30, 225, 1e-3, 0.05),  # the coarsest 15x15 window with 30 training faces
    (40, 9, 1e-3, 0.05),    # m > d: full rank
    (40, 9, 0.0, 0.05),     # no ridge, full rank
    (2, 2, 1e-3, 0.05),     # m = d
    (5, 9, 1e-3, 0.0),      # zero covariance: only the floored ridge is left
])
def test_cost_matches_dense_inverse_oracle(m, d, eps, spread):
    rng = np.random.default_rng(m * 1000 + d)
    rows = rng.normal(0.3, spread, (m, d))
    candidates = rng.normal(0.3, 0.08, (49, d))
    st = stats_from_matrix(rows, eps)
    assert st.rank == min(m - 1, d)
    mean, cov = sample_covariance(rows)
    want = dense_costs(mean, cov, eps, candidates)
    assert np.allclose(mahalanobis_batch(st, candidates), want, rtol=1e-9, atol=0)
    from_cov = ProfileStats(mean, cov, eps)
    assert np.allclose(mahalanobis_batch(from_cov, candidates), want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("m, d, eps, fraction", [
    (8, 25, 1e-3, 0.9),     # SVD path: cut below rank m - 1
    (30, 225, 1e-3, 0.975),  # fit-256's coarsest window
    (240, 49, 1e-3, 0.975),  # eigh path, as train-240's middle level
    (40, 9, 0.0, 0.6),      # eigh path without a ridge: the cut makes one
    (40, 9, 1e-3, 1.0),     # every pair kept: no residual term
])
def test_cut_cost_matches_dense_subspace_oracle(m, d, eps, fraction):
    """Statistics cut to their leading subspace score every candidate with
    the inverse of U_r diag(lam_r) U_r^T + rho' I, rho' holding the dropped
    variance spread over the d - r other dims."""
    rng = np.random.default_rng(m * 1000 + d)
    rows = rng.normal(0.3, 0.05, (m, d)) * np.linspace(0.2, 2.0, d)
    candidates = rng.normal(0.3, 0.08, (49, d))
    st = stats_from_matrix(rows, eps)
    rank = subspace_rank(st, fraction)
    assert (rank < st.rank) == (fraction < 1)
    fields = leading_subspace(st, rank)
    assert all(np.shares_memory(fields[name], getattr(st, name)) for name in ("basis", "lam"))
    cut = ProfileStats(**fields)
    assert cut.rank == rank
    want = subspace_dense_costs(rows, eps, rank, candidates)
    assert np.allclose(mahalanobis_batch(cut, candidates), want, rtol=1e-9, atol=0)


@PROPERTY
@given(data=strategies.data())
def test_stack_cut_equals_each_landmark_cut_at_the_least_rank(data):
    """Cutting a stack's statistics to subspace_rank equals cutting each
    landmark's statistics alone to the same rank, byte for byte, on both
    factor paths; and that rank is the least one that keeps the fraction
    of every landmark's variance."""
    k = data.draw(strategies.integers(1, 6))
    d = data.draw(strategies.integers(2, 12))
    m = data.draw(strategies.integers(2, d + 4))
    fraction = data.draw(strategies.floats(0.05, 1.0))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    stack = stats_from_matrix(rng.normal(0.3, 0.1, (k, m, d)) * rng.uniform(0.1, 3.0, d))
    rank = subspace_rank(stack, fraction)
    cut = ProfileStats(**leading_subspace(stack, rank))
    for j in range(k):
        one = ProfileStats(**leading_subspace(landmark_stats(stack, j), rank))
        for name in ("mean", "basis", "lam", "rho", "weights"):
            got, want = np.asarray(getattr(cut, name))[j], np.asarray(getattr(one, name))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (j, name)
    lam = np.sort(stack.lam)[:, ::-1]
    total = lam.sum(axis=-1)
    kept = np.concatenate([np.zeros((k, 1)), np.cumsum(lam, axis=-1)], axis=1)
    target = fraction * total - 1e-12 * total
    assert 1 <= rank <= stack.rank
    assert (kept[:, rank] >= target).all() and (kept[:, rank - 1] < target).any()


# ------------------------------------------------------------------ costs

def test_mahalanobis_hand_case():
    st = ProfileStats(np.zeros(2), np.diag([2.0, 0.5]), eps=0.0)
    cost = mahalanobis_cost(st, Profile(np.array([1.0, 1.0])))
    assert cost == pytest.approx(2.5, abs=1e-9)


def test_mahalanobis_batch_matches_scalar():
    rng = np.random.default_rng(4)
    st = stats_from_matrix(rng.normal(0, 1, (30, 5)))
    rows = rng.normal(0, 1, (12, 5))
    batch = mahalanobis_batch(st, rows)
    singles = [mahalanobis_cost(st, Profile(r)) for r in rows]
    assert np.allclose(batch, singles, atol=1e-12)


def test_mahalanobis_dimension_check():
    st = ProfileStats(np.zeros(2), np.eye(2), eps=1e-3)
    with pytest.raises(DimensionMismatchError):
        mahalanobis_cost(st, Profile(np.zeros(3)))
    with pytest.raises(DimensionMismatchError):
        mahalanobis_batch(st, np.zeros((4, 3)))


@pytest.mark.parametrize("m,d", [(6, 25), (40, 9), (12, 3)])
@pytest.mark.parametrize("c", [1, 2, 36, 49])
def test_stacked_mahalanobis_equals_indexed_calls(m, d, c):
    """Rows whose owner gives every landmark c of them, the stacked matmul's
    case, cost each landmark's block byte for byte what its statistics
    alone give, with a residual outside the basis (m - 1 < d) and without
    one."""
    rng = np.random.default_rng(100 * m + d + c)
    k = 5
    st = stats_from_matrix(rng.normal(0.3, 0.1, (k, m, d)))
    assert (st.rank < st.dim) == (m - 1 < d)
    rows = rng.normal(0.3, 0.1, (k * c, d))
    owner = np.repeat(np.arange(k), c)
    got = mahalanobis_batch(st, rows, owner)
    assert got.shape == (k * c,)
    want = np.concatenate([mahalanobis_batch(landmark_stats(st, j), rows[j * c:(j + 1) * c])
                           for j in range(k)])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatchError):
        mahalanobis_batch(st, rows.reshape(k, c, d), owner)
    with pytest.raises(DimensionMismatchError):
        mahalanobis_batch(st, np.zeros((k * c, d + 1)), owner)


# Counts from one row to a full 7x7 grid, and a landmark with no rows.
OWNER_COUNTS = [3, 49, 0, 1, 36, 17]


@pytest.mark.parametrize("m,d", [(30, 225), (240, 225), (12, 3)],
                         ids=["rank-below-d", "full-rank", "eigh-small"])
def test_owner_mahalanobis_equals_indexed_calls(m, d):
    """Rows scored with sorted owner indices, in unequal counts, give each
    landmark's costs from its statistics alone, its block zero-padded to the
    largest (padded_block_scores), concatenated, byte for byte. 30 samples
    of 225 dims give rank 29 with a residual term (fit-256's coarsest level
    before the 7x7 default); 240 give full rank (train-240's)."""
    rng = np.random.default_rng(m + d)
    k = len(OWNER_COUNTS)
    st = stats_from_matrix(rng.uniform(0.0, 0.05, (k, m, d)))
    assert (st.rank < st.dim) == (m <= d)
    owner = np.repeat(np.arange(k), OWNER_COUNTS)
    rows = rng.uniform(0.0, 0.05, (len(owner), d))
    got = mahalanobis_batch(st, rows, owner)
    want = padded_block_scores(mahalanobis_batch, landmark_stats, st, rows, OWNER_COUNTS)
    assert got.shape == (len(owner),)
    assert got.tobytes() == want.tobytes()
    assert mahalanobis_batch(st, rows[:0], owner[:0]).shape == (0,)


@pytest.mark.parametrize("owner", [[0, 2, 1, 2], [0, 1, 1, 3], [-1, 0, 1, 2], [0, 1, 2],
                                   [0, 0, 1, 1, 2], [0.0, 1.0, 1.0, 2.0],
                                   [False, True, True, True]],
                         ids=["unsorted", "past-k", "negative", "short", "long", "float", "bool"])
def test_owner_mahalanobis_rejects_bad_owners(owner):
    st = stats_from_matrix(np.random.default_rng(3).normal(0.3, 0.1, (3, 5, 4)))
    with pytest.raises(DimensionMismatchError, match="owner"):
        mahalanobis_batch(st, np.zeros((4, 4)), np.array(owner))


@pytest.mark.parametrize("owner", [[], np.zeros(0), np.zeros(0, np.int32), np.zeros(0, bool)],
                         ids=["list", "float", "int32", "bool"])
def test_empty_owner_of_any_dtype_gets_no_costs(owner):
    st = stats_from_matrix(np.random.default_rng(3).normal(0.3, 0.1, (3, 5, 4)))
    assert mahalanobis_batch(st, np.zeros((0, 4)), owner).shape == (0,)


def test_owner_mahalanobis_needs_a_stack_and_rows_of_its_dim():
    rng = np.random.default_rng(4)
    stack = stats_from_matrix(rng.normal(0.3, 0.1, (3, 5, 4)))
    owner = np.array([0, 1, 1, 2])
    for st, rows in ((stats_from_matrix(rng.normal(0.3, 0.1, (5, 4))), np.zeros((4, 4))),
                     (stack, np.zeros((4, 5))), (stack, np.zeros((1, 4, 4)))):
        with pytest.raises(DimensionMismatchError, match="owner"):
            mahalanobis_batch(st, rows, owner)


@pytest.mark.parametrize("case", ARITY_CASES)
def test_mahalanobis_takes_only_its_two_forms(case):
    """Only one landmark's statistics with (m, d) rows, or stacked ones with
    (m, d) rows and an owner array, are scored; every other call raises
    DimensionMismatchError, never a bare numpy error."""
    stack = stats_from_matrix(np.random.default_rng(5).normal(0.3, 0.1, (3, 5, 4)))
    st, rows, owner = arity_call(case, stack, landmark_stats(stack, 1), 4)
    with pytest.raises(DimensionMismatchError, match="owner indices for a stacked model only"):
        mahalanobis_batch(st, rows, owner)


@PROPERTY
@pytest.mark.parametrize("equal", [True, False], ids=["stacked-matmul", "matmul-per-block"])
@given(data=strategies.data())
def test_owner_costs_equal_each_block_by_its_own_statistics(equal, data):
    """Every landmark's block of an owner-form call costs, byte for byte,
    what the landmark's statistics alone give its rows zero-padded to the
    largest block (padded_block_scores; no padding when the counts are
    equal), for statistics of rank below d and of rank d. Each product is
    one stacked matmul."""
    counts = data.draw(owner_counts(equal))
    d = data.draw(strategies.integers(2, 12))
    full_rank = data.draw(strategies.booleans())
    m = d + 1 + data.draw(strategies.integers(0, 3)) if full_rank else data.draw(
        strategies.integers(2, d))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    stack = stats_from_matrix(rng.normal(0.3, 0.1, (len(counts), m, d)))
    assert (stack.rank == d) == full_rank
    rows = rng.normal(0.3, 0.1, (sum(counts), d))
    with matmul_operands() as products:
        got = mahalanobis_batch(stack, rows, np.repeat(np.arange(len(counts)), counts))
    assert products == owner_products(counts, (d, stack.rank))
    assert got.shape == (len(rows),)
    want = padded_block_scores(mahalanobis_batch, landmark_stats, stack, rows, counts)
    assert got.tobytes() == want.tobytes()


def float32_stats(stats, fraction=None):
    """stats cut to the least rank that keeps `fraction` of every landmark's
    variance (None keeps every pair), with the mean and basis rounded to
    float32 as training stores them."""
    rank = stats.rank if fraction is None else subspace_rank(stats, fraction)
    cut = leading_subspace(stats, rank)
    return ProfileStats(cut["mean"].astype(np.float32), basis=cut["basis"].astype(np.float32),
                        lam=cut["lam"], rho=cut["rho"])


def window_rows(rng, shape):
    """Positive rows that sum to 1, as sum-normalized gradient windows do."""
    rows = rng.uniform(0.5, 1.5, shape) ** 3
    return rows / rows.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("counts", [[4, 4, 4, 4, 4], [3, 49, 0, 1, 36]],
                         ids=["equal-counts", "unequal-counts"])
@pytest.mark.parametrize("m,d,fraction", [(30, 225, 0.975), (240, 225, 0.975), (12, 9, 0.975),
                                          (40, 49, 0.975), (12, 9, None)],
                         ids=["fit-256-level-2", "train-240-level-2", "level-0", "level-1",
                              "level-0-uncut"])
def test_float32_costs_match_the_float64_factor_oracle(counts, m, d, fraction):
    """Float32 means and bases, scored with their float32 projection, cost
    what the float64 quadratic form of the same values upcast gives, to a
    relative 1e-3. float32 keeps about 7 digits, and the residual term, a
    difference of two sums of squares over rho, magnifies their rounding by
    up to |delta|^2 / (rho * cost): these draws reach 1.4e-4 at level 0,
    where the one dim outside the basis has the smallest rho, and stay under
    1e-6 at 49 and 225 dims. Uncut statistics of rows that are not
    normalized span every dim and have no residual term. A wrong mean,
    basis, weight or owner moves a cost in its first digits."""
    rng = np.random.default_rng(m + d)
    shape = (len(counts), m, d)
    samples = window_rows(rng, shape) if fraction else rng.normal(0.3, 0.1, shape)
    st = float32_stats(stats_from_matrix(samples), fraction)
    assert (st.rank < d) == bool(fraction)
    owner = np.repeat(np.arange(len(counts)), counts)
    rows = window_rows(rng, (len(owner), d))
    bounds = np.cumsum([0] + counts)
    want = np.concatenate([factor_costs(st.mean[j], st.basis[j], st.lam[j], st.rho[j], rows[a:b])
                           for j, (a, b) in enumerate(zip(bounds, bounds[1:]))])
    np.testing.assert_allclose(mahalanobis_batch(st, rows, owner), want, rtol=1e-3, atol=0)


@PROPERTY
@pytest.mark.parametrize("equal", [True, False], ids=["stacked-matmul", "matmul-per-block"])
@given(data=strategies.data())
def test_float32_owner_costs_equal_each_block_alone_and_keep_the_basis(equal, data):
    """With a float32 mean and basis, every landmark's block of an
    owner-form call costs, byte for byte, what its statistics alone give
    its rows zero-padded to the largest block (padded_block_scores). The
    projection multiplies float32 deltas by the stack's own float32 basis,
    or a view of it, so the basis is never cast or copied; the costs are
    float64."""
    counts = data.draw(owner_counts(equal))
    d = data.draw(strategies.integers(2, 12))
    m = data.draw(strategies.integers(2, d + 4))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    stack = float32_stats(stats_from_matrix(rng.normal(0.3, 0.1, (len(counts), m, d))), 0.975)
    rows = rng.normal(0.3, 0.1, (sum(counts), d))
    calls, real = [], np.matmul

    def recording(a, b, *args, **kwargs):
        calls.append((np.shape(a), a.dtype, b.dtype, np.shares_memory(b, stack.basis)))
        return real(a, b, *args, **kwargs)

    np.matmul = recording
    try:
        got = mahalanobis_batch(stack, rows, np.repeat(np.arange(len(counts)), counts))
    finally:
        np.matmul = real
    products = owner_products(counts, (d, stack.rank))
    assert [shape for shape, *_ in calls] == products
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    half = len(products) // 2
    assert all(call[1:] == (f32, f32, True) for call in calls[:half])
    assert all(call[1:] == (f64, f64, False) for call in calls[half:])
    assert got.dtype == f64 and got.shape == (len(rows),)
    for j in range(len(counts)):
        alone = landmark_stats(stack, j)
        assert alone.basis.dtype == f32 and np.shares_memory(alone.basis, stack.basis)
    want = padded_block_scores(mahalanobis_batch, landmark_stats, stack, rows, counts)
    assert got.tobytes() == want.tobytes()


# mahalanobis_batch is the library's one owner-form scorer; the ids keep its name.
@pytest.mark.parametrize("scorer", ["mahalanobis_batch"])
@pytest.mark.parametrize("counts", [[5, 5, 5, 5], [3, 5, 0, 5]], ids=["equal", "unequal"])
def test_equal_counts_score_a_view_and_unequal_ones_one_padded_stack(scorer, counts, monkeypatch):
    """An owner-form call of mahalanobis_batch stacks its deltas once
    (owner_blocks) and makes one (k, c, a) product per operand. With equal
    counts the stack is a view of the deltas it was given, with no padded
    copy; with unequal ones it is one new stack, every block zero-padded to
    the largest count."""
    rng = np.random.default_rng(17)
    k, d = len(counts), 9
    owner = np.repeat(np.arange(k), counts)
    rows = rng.normal(0.3, 0.1, (len(owner), d))
    stacks = []

    def recording(given, bounds):
        blocks, at = real(given, bounds)
        stacks.append((np.shares_memory(blocks, given), at is None, blocks.shape))
        return blocks, at

    real = profiles.owner_blocks
    monkeypatch.setattr(profiles, "owner_blocks", recording)
    model = stats_from_matrix(rng.normal(0.3, 0.1, (k, 6, d)))
    widths = (d, model.rank)
    with matmul_operands() as products:
        mahalanobis_batch(model, rows, owner)
    assert products == [(k, max(counts), a) for a in widths]
    equal = len(set(counts)) == 1
    assert stacks == [(equal, equal, (k, max(counts), d))]


def test_edge_weighting_factors():
    rng = np.random.default_rng(5)
    st = stats_from_matrix(rng.normal(0, 1, (30, 4)))
    for _ in range(20):
        g = Profile(rng.normal(0, 1, 4))
        f1 = mahalanobis_cost(st, g)
        assert edge_weighted_cost(st, g, True, c=2.0) == pytest.approx(f1, rel=1e-12)
        assert edge_weighted_cost(st, g, False, c=2.0) == pytest.approx(2 * f1, rel=1e-12)
        assert edge_weighted_cost(st, g, True, c=3.0) == pytest.approx(2 * f1, rel=1e-12)


def test_edge_weighting_requires_c_above_one():
    """edge_weighted_cost takes FitConfig's rule for c: finite and above 1."""
    st = ProfileStats(np.zeros(2), np.eye(2), eps=1e-3)
    for c in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ShapeArityError, match="edge weight constant"):
            edge_weighted_cost(st, Profile(np.ones(2)), True, c=c)
