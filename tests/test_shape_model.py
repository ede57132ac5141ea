import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmfit import search
from asmfit.errors import AsmFitError, DegenerateShapeError, InsufficientDataError, ShapeArityError
from asmfit.profiles import retained_rank
from asmfit.shape_model import (
    Shape,
    SimilarityTransform,
    _as_complex,
    _similarity,
    build_shape_model,
    clamp_params,
    fit_params,
    gpa_align,
    synthesize,
)
from asmfit.synthetic import generate_face_dataset

from conftest import planted, random_shape_points
import reference_shape_model
from reference_shape_model import centroid_size, inverse


def square():
    return Shape(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def random_shapes(rng, count, n, spread=20.0, wobble=1.5):
    base = random_shape_points(rng, n, spread)
    return [Shape(base + rng.normal(0.0, wobble, (n, 2))) for _ in range(count)]


def similarity(source, target) -> SimilarityTransform:
    """shape_model._similarity mapping source onto target points, with the
    target centred as fit_params centres it."""
    tgt_c = np.add.reduce(target, axis=0) / len(target)
    return SimilarityTransform(*_similarity(source, tgt_c, _as_complex(target - tgt_c)))


# ------------------------------------------------------------------ Shape

def test_shape_validation():
    with pytest.raises(ShapeArityError):
        Shape(np.zeros((2, 2)))
    with pytest.raises(ShapeArityError):
        Shape(np.zeros((4, 3)))
    with pytest.raises(DegenerateShapeError):
        Shape(np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]]))
    with pytest.raises(ShapeArityError):
        Shape.from_vector(np.zeros(7))


def test_shape_vector_round_trip():
    s = square()
    assert np.array_equal(Shape.from_vector(s.as_vector()).points, s.points)
    assert s.as_vector().tolist() == [0, 0, 1, 0, 1, 1, 0, 1]


def test_shape_geometry():
    s = square()
    assert np.allclose(s.centroid(), [0.5, 0.5])
    assert centroid_size(s) == pytest.approx(math.sqrt(2.0))
    assert s.bounding_box() == (0.0, 0.0, 1.0, 1.0)


def test_shape_points_immutable():
    s = square()
    with pytest.raises(ValueError):
        s.points[0, 0] = 5.0


# ------------------------------------------------- SimilarityTransform

def test_transform_apply_inverse_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = SimilarityTransform(rng.uniform(0.2, 3.0), rng.uniform(-np.pi, np.pi),
                                rng.normal(0, 10, 2))
        pts = rng.normal(0, 5, (6, 2))
        assert np.allclose(inverse(t).apply(t.apply(pts)), pts, atol=1e-10)


def test_transform_rejects_bad_scale():
    for scale in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DegenerateShapeError, match=r"^similarity scale must be positive "
                                                       rf"and finite, got {scale}$"):
            SimilarityTransform(scale, 0.0, np.zeros(2))


# ---------------------------------------------------------- procrustes

def test_procrustes_recovers_known_similarity():
    rng = np.random.default_rng(2)
    base = rng.normal(0, 5, (7, 2))
    truth = SimilarityTransform(1.7, 0.6, np.array([3.0, -2.0]))
    fitted = similarity(base, truth.apply(base))
    assert fitted.scale == pytest.approx(1.7, abs=1e-9)
    assert fitted.rotation == pytest.approx(0.6, abs=1e-9)
    assert np.allclose(fitted.translation, [3.0, -2.0], atol=1e-9)
    assert np.allclose(fitted.apply(base), truth.apply(base), atol=1e-9)


def test_procrustes_degenerate_source():
    """_similarity raises on a collapsed source and on a collapsed target."""
    with pytest.raises(DegenerateShapeError, match="source"):
        similarity(np.ones((4, 2)), np.arange(8.0).reshape(4, 2))
    with pytest.raises(DegenerateShapeError, match="target"):
        similarity(np.arange(8.0).reshape(4, 2), np.ones((4, 2)))


# ----------------------------------------------------------------- GPA

def test_gpa_identical_shapes():
    s = square()
    aligned, mean = gpa_align([s, s])
    assert np.allclose(aligned[0].points, aligned[1].points, atol=1e-12)
    assert centroid_size(mean) == pytest.approx(1.0)
    assert np.allclose(mean.centroid(), 0.0, atol=1e-12)


def test_gpa_inverts_known_similarity():
    """A shape beside its image under a similarity aligns onto it. The point
    reflection, a 180-degree turn, is the pair whose mean would vanish if
    the shapes were averaged unaligned."""
    base = Shape(np.array([[0.0, 0.0], [4.0, 1.0], [2.0, 5.0], [-1.0, 3.0]]))
    for t in (SimilarityTransform(2.0, np.pi / 2, np.array([10.0, -4.0])),
              SimilarityTransform(1.0, np.pi, np.zeros(2))):  # the point reflection
        aligned, mean = gpa_align([base, Shape(t.apply(base.points))])
        assert np.allclose(aligned[0].points, aligned[1].points, atol=1e-9)
        assert centroid_size(mean) == pytest.approx(1.0)


def test_gpa_single_shape():
    s = square()
    aligned, mean = gpa_align([s])
    assert len(aligned) == 1
    assert np.allclose(aligned[0].points, mean.points, atol=1e-12)
    assert centroid_size(mean) == pytest.approx(1.0)


def test_gpa_common_similarity_invariance():
    # pre-rotating/scaling/shifting every input identically must not change
    # the aligned outputs
    rng = np.random.default_rng(3)
    for _ in range(10):
        shapes = random_shapes(rng, 6, 7)
        t = SimilarityTransform(rng.uniform(0.3, 2.5), rng.uniform(-np.pi, np.pi),
                                rng.normal(0, 30, 2))
        moved = [Shape(t.apply(s.points)) for s in shapes]
        aligned_a, mean_a = gpa_align(shapes)
        aligned_b, mean_b = gpa_align(moved)
        assert np.allclose(mean_a.points, mean_b.points, atol=1e-6)
        for a, b in zip(aligned_a, aligned_b):
            assert np.allclose(a.points, b.points, atol=1e-6)


def test_gpa_errors():
    """Each error of the list form, of the same type from the array form;
    a collapsed shape before the first of another landmark count is
    reported first, one after it is not."""
    triangle = Shape(np.zeros((3, 2)) + np.arange(3)[:, None])
    collapsed = Shape(np.ones((4, 2)))
    cases = [([], ShapeArityError), ([square(), triangle], ShapeArityError),
             ([collapsed, square()], DegenerateShapeError),
             ([square(), collapsed, triangle], DegenerateShapeError),
             ([square(), triangle, collapsed], ShapeArityError),
             ([triangle, triangle, square(), collapsed], ShapeArityError)]
    for shapes, error in cases:
        for align in (gpa_align, reference_shape_model.gpa_align):
            with pytest.raises(error):
                align(shapes)


def gpa_outcome(align, shapes):
    """The aligned shapes' and the mean's bytes, or the error type raised."""
    try:
        aligned, mean = align(shapes)
    except AsmFitError as exc:
        return type(exc)
    return [s.points.tobytes() for s in aligned], mean.points.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 70), count=st.integers(1, 40),
       wobble=st.sampled_from([0.0, 1e-13, 0.3, 1.5, 8.0]), log_scale=st.floats(-13.0, 8.0),
       moved=st.booleans(), duplicates=st.integers(0, 3),
       fault=st.sampled_from(["none", "collapsed", "arity"]))
def test_gpa_align_equals_list_oracle(seed, n, count, wobble, log_scale, moved, duplicates,
                                      fault):
    """The array form returns the list oracle's aligned shapes and mean bit
    for bit, or raises its error type: one or two shapes, duplicated shapes,
    shapes each under its own random similarity, shapes at every scale down
    to collapse, and a collapsed shape or one of another landmark count
    planted among them."""
    rng = np.random.default_rng(seed)
    shapes = [Shape(s.points * 10.0**log_scale) for s in random_shapes(rng, count, n,
                                                                         wobble=wobble)]
    if moved:
        shapes = [Shape(SimilarityTransform(rng.uniform(0.1, 10.0), rng.uniform(-np.pi, np.pi),
                                            rng.normal(0.0, 100.0, 2)).apply(s.points))
                  for s in shapes]
    shapes += [shapes[i] for i in rng.integers(0, count, duplicates)]
    if fault != "none":
        planted_shape = (Shape(np.ones((n, 2))) if fault == "collapsed"
                         else Shape(random_shape_points(rng, n + 1)))
        shapes.insert(int(rng.integers(0, len(shapes) + 1)), planted_shape)
    want = gpa_outcome(reference_shape_model.gpa_align, shapes)
    assert gpa_outcome(gpa_align, shapes) == want


@pytest.mark.parametrize("count,size,seed", [(30, 256, 201), (30, 256, 7), (240, 128, 101),
                                             (50, 96, 3)])
def test_gpa_align_equals_list_oracle_on_face_datasets(count, size, seed):
    """The training shapes of the synthetic face sets the benchmark and the
    acceptance criteria train on align to the oracle's bytes."""
    shapes = [sample.shape for sample in generate_face_dataset(count, size, seed=seed)]
    got = gpa_outcome(gpa_align, shapes)
    assert got == gpa_outcome(reference_shape_model.gpa_align, shapes)
    assert len(got[0]) == count


# ----------------------------------------------------------------- PCA

def test_model_rank_one():
    mean = random_shape_points(np.random.default_rng(4), 5)
    v = np.random.default_rng(5).normal(0, 1, 10)
    shapes = [Shape.from_vector(mean.ravel() + k * v) for k in (-1.0, 0.0, 1.0)]
    model = build_shape_model(shapes, variance_fraction=0.975)
    assert model.num_modes == 1
    cos = abs(model.modes[:, 0] @ v / np.linalg.norm(v))
    assert cos == pytest.approx(1.0, abs=1e-9)
    assert model.eigenvalues[0] == pytest.approx(v @ v, rel=1e-9)


def test_model_retention_arithmetic():
    # spectrum {9, 0.5, 0.5}: cumulative fractions 0.90 and 0.95 both fall
    # short of 0.975, so all three modes stay
    rng = np.random.default_rng(6)
    base = random_shape_points(rng, 3).ravel()
    basis = np.linalg.qr(rng.normal(0, 1, (6, 3)))[0]
    signs = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)
    lams = np.array([9.0, 0.5, 0.5])
    coeffs = (np.sqrt(lams * 3 / 4)[:, None] * signs).T  # sample covariance diag(lams)
    shapes = [Shape.from_vector(base + basis @ c) for c in coeffs]
    model = build_shape_model(shapes, variance_fraction=0.975)
    assert model.num_modes == 3
    assert np.allclose(np.sort(model.eigenvalues), [0.5, 0.5, 9.0], atol=1e-9)


def test_model_identical_shapes_zero_modes():
    s = square()
    model = build_shape_model([s, s, s])
    assert model.num_modes == 0
    assert np.array_equal(synthesize(model, np.empty(0)).points, model.mean_shape.points)


def test_model_orthonormal_modes():
    rng = np.random.default_rng(7)
    model = build_shape_model(random_shapes(rng, 12, 6))
    p = model.modes
    assert np.allclose(p.T @ p, np.eye(model.num_modes), atol=1e-9)


def test_full_variance_reconstruction():
    rng = np.random.default_rng(8)
    aligned, _ = gpa_align(random_shapes(rng, 10, 5))
    model = build_shape_model(aligned, variance_fraction=1.0)
    mean = model.mean_shape.as_vector()
    for s in aligned:
        b = model.modes.T @ (s.as_vector() - mean)  # independent projection
        assert np.allclose(mean + model.modes @ b, s.as_vector(), atol=1e-9)


def test_model_requires_two_shapes():
    with pytest.raises(InsufficientDataError):
        build_shape_model([square()])


# ----------------------------------------------------- synthesize/clamp

def test_synthesize_basis_cases():
    rng = np.random.default_rng(9)
    model = build_shape_model(random_shapes(rng, 8, 5))
    assert np.array_equal(synthesize(model, np.zeros(model.num_modes)).points,
                          model.mean_shape.points)
    t = 2.5
    b = np.zeros(model.num_modes)
    b[0] = t
    expected = model.mean_shape.as_vector() + t * model.modes[:, 0]
    assert np.allclose(synthesize(model, b).as_vector(), expected, atol=1e-12)
    with pytest.raises(ShapeArityError):
        synthesize(model, np.zeros(model.num_modes + 1))


def test_clamp_limits_and_idempotence():
    rng = np.random.default_rng(10)
    model = build_shape_model(random_shapes(rng, 8, 5))
    lim = 3.0 * np.sqrt(model.eigenvalues)
    over = 4.0 * np.sqrt(model.eigenvalues)
    assert np.array_equal(clamp_params(model, over), lim)
    assert np.array_equal(clamp_params(model, -5.0 * np.sqrt(model.eigenvalues)), -lim)
    inside = 0.5 * np.sqrt(model.eigenvalues)
    assert np.array_equal(clamp_params(model, inside), inside)
    wild = rng.normal(0, 5, model.num_modes) * np.sqrt(model.eigenvalues)
    once = clamp_params(model, wild)
    assert np.array_equal(clamp_params(model, once), once)


# ------------------------------------------------------------ fit_params

def test_fit_params_mean_fixed_point():
    rng = np.random.default_rng(11)
    model = build_shape_model(random_shapes(rng, 8, 5))
    res = fit_params(model, model.mean_shape)
    assert res.transform.scale == pytest.approx(1.0, abs=1e-9)
    assert res.transform.rotation == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.transform.translation, 0.0, atol=1e-9)
    assert np.allclose(res.params, 0.0, atol=1e-9)
    assert res.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_params_round_trip():
    # alignment first: modes of an unaligned set can overlap the similarity
    # tangent directions, making (T, b) non-unique and recovery ill-posed
    rng = np.random.default_rng(12)
    aligned, _ = gpa_align(random_shapes(rng, 10, 6))
    model = build_shape_model(aligned)
    for _ in range(5):
        b0 = rng.uniform(-1, 1, model.num_modes) * 2.5 * np.sqrt(model.eigenvalues)
        t0 = SimilarityTransform(rng.uniform(0.5, 2.0), rng.uniform(-2.5, 2.5),
                                 rng.normal(0, 40, 2))
        target = Shape(t0.apply(synthesize(model, b0).points))
        res = fit_params(model, target)
        assert np.allclose(res.params, b0, atol=1e-3)
        assert res.residual < 1e-6


def test_fit_params_orthogonal_residual():
    rng = np.random.default_rng(13)
    aligned, _ = gpa_align(random_shapes(rng, 8, 6))
    model = build_shape_model(aligned, variance_fraction=0.9)
    mean = model.mean_shape.as_vector()
    n = model.n
    # directions a similarity can absorb: translations, scale, rotation
    tx = np.tile([1.0, 0.0], n)
    ty = np.tile([0.0, 1.0], n)
    rot = np.column_stack([-model.mean_shape.points[:, 1],
                           model.mean_shape.points[:, 0]]).ravel()
    span = np.column_stack([model.modes, tx, ty, mean, rot])
    w = rng.normal(0, 1, 2 * n)
    w -= np.linalg.qr(span)[0] @ (np.linalg.qr(span)[0].T @ w)  # brute-force projection
    target = Shape.from_vector(mean + w)
    res = fit_params(model, target)
    assert np.allclose(res.params, 0.0, atol=1e-6)
    assert res.residual == pytest.approx(w @ w, rel=1e-6)


def test_fit_params_residual_monotone_in_iterations():
    rng = np.random.default_rng(14)
    model = build_shape_model(random_shapes(rng, 10, 6))
    target = Shape(random_shape_points(rng, 6, spread=25.0))
    residuals = [fit_params(model, target, tolerance=0.0, max_iters=k).residual
                 for k in range(1, 9)]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-12


def test_fit_params_errors():
    rng = np.random.default_rng(15)
    model = build_shape_model(random_shapes(rng, 8, 5))
    with pytest.raises(ShapeArityError):
        fit_params(model, square())
    with pytest.raises(DegenerateShapeError):
        fit_params(model, Shape(np.full((5, 2), 3.0)))


# ------------------------------------------------- fit_params vs oracle

def fit_outcome(fit, model, target, **kwargs):
    """The fit's transform, coefficients, residual and posed points as
    bytes, or the type of the error it raised. Floating-point warnings are
    off, as numpy has them by default, so a non-finite target reaches the
    fit's own checks."""
    try:
        with np.errstate(all="ignore"):
            pf = fit(model, target, **kwargs)
    except AsmFitError as exc:
        return type(exc)
    t = pf.transform
    return (np.array([t.scale, t.rotation, pf.residual]).tobytes() + t.translation.tobytes()
            + pf.params.tobytes() + pf.points.tobytes())


# model: a posed model shape, with coefficients out to twice the clamp and
# noise; random: unrelated points; collapsed: one point repeated; tiny: the
# model's mean scaled by 1e-13; nonfinite: a planted nan or inf; overflow:
# coordinates near the float limit, whose centroid overflows.
TARGET_KINDS = ("model", "random", "collapsed", "tiny", "nonfinite", "overflow")


def oracle_target(rng, model, kind, scale, rotation):
    n = model.n
    if kind == "model":
        b0 = rng.uniform(-2.0, 2.0, model.num_modes) * model.mode_limits()
        pose = SimilarityTransform(scale, rotation, rng.normal(0.0, 50.0, 2))
        pts = pose.apply(synthesize(model, b0).points) + rng.normal(0.0, 0.05 * scale, (n, 2))
    elif kind == "random":
        pts = random_shape_points(rng, n) * scale
    elif kind == "collapsed":
        pts = np.tile(rng.normal(0.0, 50.0, 2), (n, 1))
    elif kind == "tiny":
        pts = model.mean_shape.points * 1e-13
    elif kind == "overflow":
        pts = random_shape_points(rng, n) * 1e306
    else:
        shape = Shape(random_shape_points(rng, n))
        pts = shape.points.copy()
        pts[rng.integers(n), rng.integers(2)] = rng.choice([np.nan, np.inf, -np.inf])
        return planted(shape, points=pts)
    return Shape(pts)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), count=st.integers(2, 10),
       wobble=st.sampled_from([0.0, 0.3, 1.5, 4.0]), aligned=st.booleans(),
       kind=st.sampled_from(TARGET_KINDS), log_scale=st.floats(-3.0, 6.0),
       rotation=st.floats(-np.pi, np.pi), tolerance=st.sampled_from([0.0, 1e-6, 1e-2]),
       max_iters=st.integers(0, 60))
def test_fit_params_equals_object_loop_oracle(seed, n, count, wobble, aligned, kind, log_scale,
                                              rotation, tolerance, max_iters):
    """The array loop returns the oracle's ParamFit bit for bit, or raises the
    error type the oracle raises. A wobble of 0 stands for a model of zero modes."""
    rng = np.random.default_rng(seed)
    shapes = random_shapes(rng, count, n, wobble=wobble)
    if aligned:
        shapes, _ = gpa_align(shapes)
    model = build_shape_model(shapes, variance_fraction=rng.uniform(0.5, 1.0))
    if not wobble:
        model = dataclasses.replace(model, modes=np.empty((2 * n, 0)), eigenvalues=np.empty(0))
    target = oracle_target(rng, model, kind, 10.0**log_scale, rotation)
    want = fit_outcome(reference_shape_model.fit_params, model, target,
                       tolerance=tolerance, max_iters=max_iters)
    got = fit_outcome(fit_params, model, target, tolerance=tolerance, max_iters=max_iters)
    assert got == want


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), log_scale=st.floats(-14.0, 6.0),
       collapse=st.sampled_from(["none", "source", "target"]))
def test_procrustes_fit_equals_oracle(seed, n, log_scale, collapse):
    """_similarity, the library's one Procrustes solve, gives the oracle
    procrustes_fit's transform bit for bit, or raises the error type the
    oracle raises, for point sets at every scale."""
    rng = np.random.default_rng(seed)
    src = random_shape_points(rng, n) * 10.0**log_scale
    tgt = random_shape_points(rng, n) * rng.uniform(0.01, 100.0)
    if collapse == "source":
        src[:] = src[0]
    elif collapse == "target":
        tgt[:] = tgt[0]
    outcomes = []
    for fit in (similarity, reference_shape_model.procrustes_fit):
        try:
            t = fit(src, tgt)
        except AsmFitError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(np.array([t.scale, t.rotation]).tobytes() + t.translation.tobytes())
    assert outcomes[0] == outcomes[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), count=st.integers(2, 10),
       wobble=st.sampled_from([0.0, 0.3, 1.5, 4.0]), kind=st.sampled_from(TARGET_KINDS),
       log_scale=st.floats(-3.0, 6.0), rotation=st.floats(-np.pi, np.pi))
def test_regularize_equals_synthesize_and_pose_oracle(seed, n, count, wobble, kind, log_scale,
                                                      rotation):
    """fit's regularization, the posed points of search's fit_params as a
    Shape, is the shape the oracle synthesizes from the fit's coefficients
    and poses again, bit for bit, or raises its error type."""
    rng = np.random.default_rng(seed)
    model = build_shape_model(random_shapes(rng, count, n, wobble=wobble))
    if not wobble:
        model = dataclasses.replace(model, modes=np.empty((2 * n, 0)), eigenvalues=np.empty(0))
    target = oracle_target(rng, model, kind, 10.0**log_scale, rotation)
    outcomes = []
    for regularize in (lambda model, shape: Shape(search.fit_params(model, shape).points),
                       reference_shape_model.regularize):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(regularize(model, target).points.tobytes())
        except AsmFitError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


# fit_params's message for each error target: each check has its own words.
# The tiny target is not collapsed, but its similarity scale rounds to zero.
FIT_PARAMS_MESSAGES = {
    "collapsed": r"^target shape collapsed to a point$",
    "tiny": r"^no similarity maps the model shape onto the target$",
    "nonfinite": r"^similarity scale must be positive and finite, got nan$",
    "overflow": r"^similarity scale must be positive and finite, got nan$",
}


@pytest.mark.parametrize("kind,error", [("collapsed", DegenerateShapeError),
                                        ("tiny", DegenerateShapeError),
                                        ("nonfinite", DegenerateShapeError),
                                        ("overflow", DegenerateShapeError)])
def test_fit_params_oracle_targets_reach_each_error(kind, error):
    """The property above meets every error the loop raises on a target, from
    both forms; fit_params raises each in the words of its own check."""
    rng = np.random.default_rng(16)
    model = build_shape_model(random_shapes(rng, 8, 6))
    for _ in range(5):
        target = oracle_target(rng, model, kind, 1.0, 0.0)
        for fit in (fit_params, reference_shape_model.fit_params):
            assert fit_outcome(fit, model, target) is error
        with np.errstate(all="ignore"), pytest.raises(error, match=FIT_PARAMS_MESSAGES[kind]):
            fit_params(model, target)


def test_fit_params_rejects_a_non_finite_posed_shape_as_the_oracle_does():
    rng = np.random.default_rng(17)
    model = build_shape_model(random_shapes(rng, 8, 6))
    modes = model.modes.copy()
    modes[0, 0] = np.nan
    broken = planted(model, modes=modes)
    target = Shape(random_shape_points(rng, 6))
    for fit in (fit_params, reference_shape_model.fit_params):
        with pytest.raises(DegenerateShapeError):
            fit(broken, target)
    with pytest.raises(DegenerateShapeError,
                       match=r"^the posed model shape has non-finite coordinates$"):
        fit_params(broken, target)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), r=st.integers(0, 12),
       zeros=st.integers(0, 4), fraction=st.sampled_from([1e-9, 0.5, 0.9, 0.975, 1.0]),
       spread=st.floats(-20.0, 3.0))
def test_retained_rank_equals_the_shape_models_count(seed, rows, r, zeros, fraction, spread):
    """retained_rank, which build_shape_model and the 2-D profile cut share,
    gives per row of descending eigenvalues the count the shape model's own
    search gave, also past eigenvalues at the 1e-12 floor and on zero rows."""
    rng = np.random.default_rng(seed)
    lam = np.sort(10.0 ** rng.uniform(spread, 3.0, (rows, r)), axis=-1)[:, ::-1]
    lam[:, max(r - zeros, 0):] = 0.0
    if rows > 1:
        lam[0] = 0.0  # a zero row beside the others
    want = [reference_shape_model.retained_count(row, fraction) for row in lam]
    assert retained_rank(lam, fraction).tolist() == want
    assert [int(retained_rank(row, fraction)) for row in lam] == want
