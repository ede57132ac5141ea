import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies

from asmfit.errors import MAX_RADIUS, ClassBalanceError, DimensionMismatchError, ShapeArityError
from asmfit.profiles import (Profile, homogeneous_rows, normalize_derivatives, normalize_windows,
                             windows_batch)
from asmfit.svm import (
    LandmarkTrainingSet,
    LinearSvmModel,
    SvmTrainConfig,
    _negative_picks,
    _ring_offsets,
    _seed_for,
    build_landmark_training_set,
    decision_values,
    negative_ring,
    train_linear_svm,
    training_accuracy,
)
from asmfit.training import TrainConfig
from conftest import ARITY_CASES, PROPERTY, arity_call, matmul_operands, owner_counts, owner_products
from reference_svm import (
    build_landmark_training_set_reference,
    kkt_residual,
    landmark_svm,
    predict,
    svm_objective,
    train_linear_svm_reference,
)


def two_point_set():
    return LandmarkTrainingSet(np.array([[0.0, 0.0], [2.0, 0.0]]),
                               np.array([-1.0, 1.0]), 0, 0)


def separable_set(seed, n=100, d=5, gap=0.5):
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 1, d)
    w /= np.linalg.norm(w)
    b = rng.normal(0, 0.5)
    rows = []
    while len(rows) < n:
        x = rng.normal(0, 2, d)
        if abs(x @ w + b) >= gap:
            rows.append(x)
    rows = np.array(rows)
    return LandmarkTrainingSet(rows, np.sign(rows @ w + b), 0, 0)


# ------------------------------------------------------------- containers

def test_model_validation():
    with pytest.raises(ShapeArityError):
        LinearSvmModel(np.array([1.0, np.nan]), 0.0)
    with pytest.raises(ShapeArityError):
        LinearSvmModel(np.ones(2), float("inf"))
    assert LinearSvmModel(np.ones(4), 0.5).weights.shape == (4,)
    assert LinearSvmModel(np.ones((3, 4)), np.zeros(3)).weights.shape == (3, 4)
    with pytest.raises(DimensionMismatchError):
        LinearSvmModel(np.ones((3, 4)), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        LinearSvmModel(np.ones(4), np.zeros(1))
    with pytest.raises(ShapeArityError):
        LinearSvmModel(np.ones((3, 4)), np.array([0.0, np.inf, 0.0]))


def test_stacked_model_reads_landmark_rows():
    """Landmark j of a stack decides exactly as a model of row j alone."""
    rng = np.random.default_rng(9)
    weights, biases = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3)
    stacked = LinearSvmModel(weights, biases)
    rows = rng.normal(0, 1, (6, 4))
    for j in range(3):
        single = LinearSvmModel(weights[j], float(biases[j]))
        assert (decision_values(stacked, rows, np.full(6, j)).tobytes()
                == decision_values(single, rows).tobytes())
    with pytest.raises(DimensionMismatchError, match="owner"):
        decision_values(stacked, rows)


def test_train_config_validation():
    for c_penalty in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ShapeArityError, match="c_penalty"):
            SvmTrainConfig(c_penalty=c_penalty)
    with pytest.raises(ShapeArityError):
        SvmTrainConfig(epochs=0)
    # batch_size is a constant that perfbench's step counter reads, not a setting.
    assert SvmTrainConfig().batch_size == SvmTrainConfig.batch_size == 32
    with pytest.raises(TypeError, match="batch_size"):
        SvmTrainConfig(batch_size=32)
    with pytest.raises(ShapeArityError, match="seed must be non-negative"):
        SvmTrainConfig(seed=-1)


@pytest.mark.parametrize("seed", [1, 7])
def test_svm_seed_is_not_a_setting(seed):
    """The trainer draws no random numbers, so its config holds no seed: the
    constructor takes seed=0, as criterion 7 passes it, and refuses any
    other value."""
    assert [f.name for f in dataclasses.fields(SvmTrainConfig)] == ["c_penalty", "epochs"]
    assert SvmTrainConfig(seed=0) == SvmTrainConfig()
    assert SvmTrainConfig(c_penalty=2.0, epochs=5, seed=0) == SvmTrainConfig(2.0, 5)
    with pytest.raises(ShapeArityError, match=f"seed {seed} is unused"):
        SvmTrainConfig(seed=seed)


def test_training_set_validation():
    with pytest.raises(ShapeArityError):
        LandmarkTrainingSet(np.zeros((2, 3)), np.array([1.0, 2.0]), 0, 0)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(np.zeros((2, 3)), np.array([1.0]), 0, 0)
    ts = two_point_set()
    assert ts.count == 2


# ------------------------------------------------------- training windows

def training_set(dataset, landmarks, level, **settings):
    """build_landmark_training_set with TrainConfig's ring, 5x5 windows and
    seed 0, in place of the settings not given."""
    defaults = dict(negatives_per_positive=TrainConfig.negatives_per_positive,
                    offset_range=TrainConfig.offset_range, seed=0, size=5)
    return build_landmark_training_set(dataset, landmarks, level, **(defaults | settings))


def grid_magnitude():
    rng = np.random.default_rng(6)
    return rng.uniform(1.0, 9.0, (40, 40))


@pytest.mark.parametrize("seed", [-5, True, 1.0, None], ids=["negative", "bool", "float", "none"])
def test_training_set_checks_its_seeds(seed):
    """The negative-window seed follows check_seed, as TrainConfig.seed
    does, so a bad one raises ShapeArityError before any window is drawn,
    not a bare error from default_rng (which would take True as 1 and None
    as fresh entropy)."""
    dataset = [(grid_magnitude(), np.array([[20.0, 20.0], [10.0, 30.0]]))]
    with pytest.raises(ShapeArityError, match="seed must be"):
        training_set(dataset, [0, 1], 0, seed=seed)
    assert training_set(dataset, [0, 1], 0, seed=7).features.shape == (2, 5, 25)


def test_training_set_composition():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0], [10.0, 30.0]])
    ts = training_set([(mag, pts)] * 3, [0], level=0, seed=1)
    assert ts.count == 15 and ts.landmarks == (0,)
    assert ts.labels.tolist() == [[1.0, -1.0, -1.0, -1.0, -1.0] * 3]
    assert ts.features.shape == (1, 15, 25)
    positive = normalize_windows(windows_batch(mag, pts[:1], 5), "sum")[0]
    assert np.array_equal(ts.features[0, 0], positive)
    assert np.array_equal(ts.features[0, 5], positive)


def test_training_set_deterministic():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0]])
    a = training_set([(mag, pts)] * 4, [0], 0, seed=9)
    b = training_set([(mag, pts)] * 4, [0], 0, seed=9)
    assert np.array_equal(a.features, b.features)
    c = training_set([(mag, pts)] * 4, [0], 0, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_training_set_ring_capacity():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0]])
    # Chebyshev ring [1, 1] holds exactly 8 offsets
    ts = training_set([(mag, pts)], [0], 0, negatives_per_positive=8, offset_range=(1, 1))
    assert ts.count == 9
    # numpy integers are integers
    ts = training_set([(mag, pts)], [0], 0, offset_range=(np.int64(2), 8),
                      negatives_per_positive=np.int32(4), size=np.int64(5))
    assert ts.features.shape == (1, 5, 25)
    for bad in (dict(negatives_per_positive=9, offset_range=(1, 1)),
                dict(negatives_per_positive=-1), dict(offset_range=(0, 4)),
                dict(offset_range=(4, 2))):
        with pytest.raises(ShapeArityError):
            training_set([(mag, pts)], [0], 0, **bad)
    # Both radii are in [1, MAX_RADIUS], so a ring that would fill memory is
    # refused at construction, before it is built.
    widest = TrainConfig(offset_range=(1, MAX_RADIUS), negatives_per_positive=4)
    assert widest.offset_range == (1, MAX_RADIUS)
    message = rf"^offset_range\[[01]\] must be in \[1, {MAX_RADIUS}\]"
    for ring in ((0, 4), (1, MAX_RADIUS + 1), (MAX_RADIUS + 1, MAX_RADIUS + 1), (1, 1000000)):
        with pytest.raises(ShapeArityError, match=message):
            TrainConfig(offset_range=ring)


@pytest.mark.parametrize("bad", [
    dict(offset_range=(2.7, 8.9)), dict(offset_range=(2, 8.0)), dict(offset_range=(True, 8)),
    dict(offset_range=(np.float64(2.0), 8)), dict(offset_range=[2, 4, 8]), dict(offset_range=5),
    dict(negatives_per_positive=4.0), dict(negatives_per_positive=True), dict(size=5.0),
    dict(size="5"),
], ids=lambda bad: f"{next(iter(bad))}={next(iter(bad.values()))!r}")
def test_training_set_rejects_non_integer_settings(bad):
    """A non-integer ring, negative count or window size is an error, never
    truncated: (2.7, 8.9) used to train as (2, 8)."""
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0]])
    with pytest.raises(ShapeArityError, match="integer"):
        training_set([(mag, pts)], [0], 0, **bad)


def test_training_set_empty_dataset():
    ts = training_set([], [0, 1], 0)
    assert ts.count == 0 and ts.features.shape == (2, 0, 25)
    # Without images there are no points to index, so only an id's sign is checked.
    assert training_set([], [7], 3).features.shape == (1, 0, 25)
    with pytest.raises(ShapeArityError, match=r"^landmarks\[0\] must be >= 0, got -1"):
        training_set([], [-1], 0)
    with pytest.raises(ClassBalanceError):
        train_linear_svm(ts, SvmTrainConfig())


def oracle_dataset():
    """Three 40x36 images. Their points lie inside, on the last column or
    row, half a pixel past it (rounding outside the image) and at negative
    coordinates."""
    rng = np.random.default_rng(12)
    points = np.array([
        [20.0, 18.0], [39.0, 10.0], [12.0, 35.0], [39.0, 35.0],
        [39.5, 20.0], [15.0, 35.5], [-0.5, 4.0], [-1.5, -3.0],
    ])
    return [(rng.uniform(0.5, 9.0, (36, 40)), points) for _ in range(3)]


@pytest.mark.parametrize("size", [3, 5, 15])
@pytest.mark.parametrize("negatives, ring", [(0, (2, 8)), (4, (2, 8)), (8, (1, 1))],
                         ids=["no-negatives", "four", "full-ring"])
@pytest.mark.parametrize("landmarks", [[4], list(range(8))], ids=["one", "eight"])
def test_stacked_training_set_equals_per_landmark_oracle(size, negatives, ring, landmarks):
    dataset = oracle_dataset()
    ts = build_landmark_training_set(dataset, landmarks, 2, negatives_per_positive=negatives,
                                     offset_range=ring, seed=5, size=size)
    assert ts.landmarks == tuple(landmarks) and ts.level == 2
    assert ts.features.shape == (len(landmarks), 3 * (1 + negatives), size * size)
    for i, j in enumerate(landmarks):
        ref = build_landmark_training_set_reference(dataset, j, 2, negatives, ring,
                                                    _seed_for(5, 2, j), size)
        assert np.array_equal(ts.features[i], ref.features)
        assert np.array_equal(ts.labels[i], ref.labels)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("seed", [0, 3])
def test_one_seed_gives_each_landmark_its_own_generator(seed, level):
    """One master seed seeds landmark j at a level with _seed_for(seed,
    level, j), so each stacked landmark gets the per-landmark oracle's
    windows, whatever its stack, and the windows change with the seed and
    the level."""
    dataset = oracle_dataset()
    landmarks = [6, 1, 4, 3]
    ts = build_landmark_training_set(dataset, landmarks, level, negatives_per_positive=4,
                                     offset_range=(2, 8), seed=seed, size=5)
    for i, j in enumerate(landmarks):
        ref = build_landmark_training_set_reference(dataset, j, level, 4, (2, 8),
                                                    _seed_for(seed, level, j), 5)
        assert np.array_equal(ts.features[i], ref.features)
        alone = build_landmark_training_set(dataset, [j], level, negatives_per_positive=4,
                                            offset_range=(2, 8), seed=seed, size=5)
        assert np.array_equal(alone.features[0], ref.features)
    for other_seed, other_level in ((seed + 1, level), (seed, 1 - level)):
        other = build_landmark_training_set(dataset, landmarks, other_level,
                                            negatives_per_positive=4, offset_range=(2, 8),
                                            seed=other_seed, size=5)
        assert not np.array_equal(ts.features, other.features)


@pytest.mark.parametrize("seed", [10**13, 2**62], ids=["1e13", "2^62"])
def test_numpy_integer_seed_gives_the_windows_of_its_value(seed):
    """A numpy integer master seed seeds each landmark as the Python int of
    its value does: 10**13 * 1_000_003 would wrap in int64, and 2**62 would
    wrap negative, which default_rng refuses mid-training."""
    dataset = oracle_dataset()
    for level in (0, 1):
        assert _seed_for(np.int64(seed), level, 3) == _seed_for(seed, level, 3)
        assert type(_seed_for(np.int64(seed), np.int64(level), np.int64(3))) is int
        want = training_set(dataset, [6, 1, 3], level, seed=seed)
        got = training_set(dataset, [6, 1, 3], level, seed=np.int64(seed))
        assert got.features.tobytes() == want.features.tobytes()


@pytest.mark.parametrize("bad, match", [
    (dict(landmarks=[5]), r"landmarks\[0\] must be >= 0 and < 2, got 5"),
    (dict(landmarks=[1, 2]), r"landmarks\[1\] must be >= 0 and < 2, got 2"),
    (dict(landmarks=[-1]), r"landmarks\[0\] must be >= 0 and < 2, got -1"),
    (dict(landmarks=[0.5]), r"landmarks\[0\] must be an integer"),
    (dict(landmarks=[True]), r"landmarks\[0\] must be an integer"),
    (dict(level=-1), r"level must be >= 0, got -1"),
    (dict(level=0.5), r"level must be an integer"),
    (dict(level=True), r"level must be an integer"),
], ids=["id-past-n", "second-id-past-n", "negative-id", "float-id", "bool-id", "negative-level",
        "float-level", "bool-level"])
def test_training_set_refuses_bad_landmark_ids_and_levels(bad, match):
    """A landmark id outside [0, n) of the dataset's n points, or a level
    below 0, raises ShapeArityError before any window is drawn: not a bare
    IndexError from the gather, nor default_rng's ValueError on the
    negative seed _seed_for would give it."""
    dataset = [(grid_magnitude(), np.array([[20.0, 20.0], [10.0, 30.0]]))]
    args = dict(landmarks=[0, 1], level=0) | bad
    with pytest.raises(ShapeArityError, match=f"^{match}"):
        training_set(dataset, args["landmarks"], args["level"])


def negative_offsets(ts, dataset, landmark, ring, negatives, size):
    """Per image, the ring offsets whose windows are the image's negative rows
    of a one-landmark training set, each row matched byte for byte."""
    per_image = 1 + negatives
    found = []
    for i, (magnitude, points) in enumerate(dataset):
        centers = points[landmark] + ring
        windows = normalize_windows(windows_batch(magnitude, centers, size), "sum")
        where = {row.tobytes(): index for index, row in enumerate(windows)}
        rows = ts.features[0, i * per_image + 1:(i + 1) * per_image]
        found.append([where[row.tobytes()] for row in rows])
    return found


@pytest.mark.parametrize("negatives, ring", [(4, (2, 8)), (12, (1, 2)), (8, (1, 1))],
                         ids=["default", "half-ring", "full-ring"])
def test_each_image_gets_distinct_ring_offsets(negatives, ring):
    """Each image's negative windows sit at distinct offsets of the ring;
    the whole ring (8 of 8 at (1, 1)) gives each image a permutation of it."""
    rng = np.random.default_rng(21)
    dataset = [(rng.uniform(1.0, 9.0, (40, 40)), np.array([[20.0, 19.0], [15.0, 22.0]]))
               for _ in range(12)]
    offsets = _ring_offsets(*ring)
    ts = training_set(dataset, [1], 0, negatives_per_positive=negatives, offset_range=ring,
                      seed=3, size=3)
    found = negative_offsets(ts, dataset, 1, offsets, negatives, 3)
    for row in found:
        assert len(set(row)) == negatives
    if negatives == len(offsets):
        assert all(sorted(row) == list(range(len(offsets))) for row in found)
    picks = _negative_picks([np.random.default_rng(_seed_for(3, 0, 1))], 12, len(offsets),
                            negatives)
    assert picks.tolist() == [found]


def test_adding_an_image_leaves_the_earlier_images_rows_equal():
    """Each landmark's draw is row-major over the images, so an image's
    negatives do not depend on the images after it."""
    dataset = oracle_dataset()
    landmarks = [6, 1, 4]
    rows = 1 + TrainConfig.negatives_per_positive
    whole = training_set(dataset, landmarks, 1, seed=2)
    for images in (1, 2):
        head = training_set(dataset[:images], landmarks, 1, seed=2)
        assert head.features.tobytes() == whole.features[:, :images * rows].tobytes()
    picks = _negative_picks([np.random.default_rng(s) for s in (4, 5)], 300, 280, 4)
    assert np.array_equal(_negative_picks([np.random.default_rng(s) for s in (4, 5)], 299,
                                          280, 4), picks[:, :299])


def test_negative_offsets_are_uniform_over_the_ring():
    """Over 20,000 images at TrainConfig's ring (280 offsets, 4 negatives)
    each offset is drawn 20,000 * 4 / 280 times on average; the per-offset
    counts' chi-square statistic (279 degrees of freedom) stays under 357.7,
    its 0.999 quantile. Every slot's draw counts, so a rule that favoured
    the slots' tops, or any other offset, would push it far above."""
    ring = negative_ring(TrainConfig.offset_range, TrainConfig.negatives_per_positive)
    negatives = TrainConfig.negatives_per_positive
    picks = _negative_picks([np.random.default_rng(_seed_for(0, 0, 0))], 20_000, len(ring),
                            negatives)[0]
    assert all(len(set(row)) == negatives for row in picks.tolist())
    counts = np.bincount(picks.ravel(), minlength=len(ring))
    expected = picks.size / len(ring)
    assert ((counts - expected) ** 2 / expected).sum() < 357.7


# ---------------------------------------------------------------- trainer

@pytest.mark.parametrize("c_penalty", [2e-309, 1e-320])
def test_config_rejects_a_c_penalty_whose_newton_ridge_is_not_finite(c_penalty):
    """The trainer adds the ridge 0.5 / c_penalty to its Newton systems. A
    positive c_penalty for which that ridge overflows would train all-zero
    weights; the config refuses it, before any training set is built."""
    assert 0.5 / c_penalty == math.inf
    with pytest.raises(ShapeArityError, match=r"c_penalty must be positive and finite, and its "
                                              r"Newton ridge 0\.5 / c_penalty finite, got "):
        SvmTrainConfig(c_penalty=c_penalty)


@pytest.mark.parametrize("c_penalty", [1e308, 1.7976931348623157e308])
def test_trainer_fits_the_largest_c_penalties_with_finite_weights(c_penalty):
    """The ridge of the largest finite c_penalty is tiny but positive, and
    the trainer solves with it, stacked or not, with every warning an error.
    On problems that are not separable it gives the weights of C = 1e12 to
    within 1e-9 of their size."""
    feats, labels = stacked_problem(2, 40, seed=3)
    config = SvmTrainConfig(c_penalty=c_penalty)
    assert 0 < config.ridge == 0.5 / c_penalty < math.inf
    for train_set in (LandmarkTrainingSet(feats, labels, (0, 1), 0),
                      LandmarkTrainingSet(feats[0], labels[0], 0, 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_linear_svm(train_set, config)
        near = train_linear_svm(train_set, SvmTrainConfig(c_penalty=1e12))
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
        np.testing.assert_allclose(model.weights, near.weights, rtol=1e-9)
        np.testing.assert_allclose(model.bias, near.bias, rtol=1e-9)


@pytest.mark.parametrize("c_penalty", [1e14, 1e16, 1e308], ids=["1e+14", "1e+16", "1e+308"])
def test_trainer_takes_the_least_norm_solution_when_the_ridge_rounds_away(c_penalty):
    """A feature column twice over leaves the Newton system singular, or
    nearly so, once the ridge 0.5 / C is at most eps times the system's
    trace; LU then gives weights that depend on the BLAS kernel (up to
    thousands on some). The trainer takes such a system's least-norm
    solution, with every warning an error, so the two copies share the
    weight of the single column evenly, and the other weights and the bias
    are those of the problem without the copy."""
    feats, labels = stacked_problem(2, 40, seed=3)
    twice = np.concatenate([feats, feats[..., :1]], axis=-1)
    config = SvmTrainConfig(c_penalty=c_penalty)
    single = train_linear_svm(LandmarkTrainingSet(feats, labels, (0, 1), 0), config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_linear_svm(LandmarkTrainingSet(twice, labels, (0, 1), 0), config)
    np.testing.assert_allclose(model.weights[:, 0], model.weights[:, -1], rtol=1e-12)
    np.testing.assert_allclose(2 * model.weights[:, 0], single.weights[:, 0], rtol=1e-9)
    np.testing.assert_allclose(model.weights[:, 1:-1], single.weights[:, 1:], rtol=1e-9)
    np.testing.assert_allclose(model.bias, single.bias, rtol=1e-9)


def test_two_point_analytic_solution():
    model = train_linear_svm(two_point_set(),
                             SvmTrainConfig(c_penalty=100.0, epochs=10000, seed=0))
    boundary = -model.bias / model.weights[0]
    assert abs(boundary - 1.0) <= 0.05
    assert abs(np.linalg.norm(model.weights) - 1.0) <= 0.05
    assert abs(model.weights[1]) < 0.05


def test_separable_sets_reach_full_accuracy():
    for seed in (0, 1, 2):
        ts = separable_set(seed)
        model = train_linear_svm(ts, SvmTrainConfig(c_penalty=10.0, epochs=300, seed=0))
        preds = np.where(decision_values(model, ts.features) >= 0, 1.0, -1.0)
        assert (preds == ts.labels).all()


def test_trainer_beats_zero_model_objective():
    ts = separable_set(3)
    model = train_linear_svm(ts, SvmTrainConfig(c_penalty=10.0, epochs=300, seed=0))
    zero = LinearSvmModel(np.zeros(ts.features.shape[1]), 0.0)
    assert svm_objective(model, ts, 10.0) < svm_objective(zero, ts, 10.0)


def test_trainer_deterministic_per_seed(monkeypatch):
    """The trainer draws no random numbers, so it takes no seed: it makes no
    generator, and every run on the same rows gives the same bytes."""
    feats, labels = stacked_problem(3, 70, seed=4)
    ts = LandmarkTrainingSet(feats, labels, (0, 1, 2), 0)
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("made a generator"))
    a = train_linear_svm(ts, SvmTrainConfig())
    for config in (SvmTrainConfig(), SvmTrainConfig(seed=0)):
        b = train_linear_svm(ts, config)
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()


def test_trainer_rejects_single_class():
    ts = LandmarkTrainingSet(np.ones((3, 2)), np.ones(3), 0, 0)
    with pytest.raises(ClassBalanceError):
        train_linear_svm(ts, SvmTrainConfig())


# ------------------------------------------------------------- prediction

def test_predict_labels_and_tie():
    """The oracle labels as the search gates: decision >= 0 is +1."""
    model = LinearSvmModel(np.array([1.0]), 0.0)
    assert predict(model, np.array([3.0])) == (1, 3.0)
    assert predict(model, np.array([-2.0])) == (-1, -2.0)
    assert predict(model, np.array([0.0]))[0] == 1  # ties go positive
    accepted = decision_values(model, np.array([[3.0], [-2.0], [0.0]])) >= 0
    assert accepted.tolist() == [True, False, True]


def test_predict_accepts_profiles():
    model = LinearSvmModel(np.array([2.0, -1.0]), 0.5)
    label, value = predict(model, Profile(np.array([1.0, 1.0])))
    assert (label, value) == (1, 1.5)
    with pytest.raises(DimensionMismatchError):
        predict(model, np.zeros(3))


def test_decision_values_match_predict():
    rng = np.random.default_rng(8)
    model = LinearSvmModel(rng.normal(0, 1, 4), 0.3)
    rows = rng.normal(0, 1, (10, 4))
    vals = decision_values(model, rows)
    assert np.allclose(vals, [predict(model, r)[1] for r in rows], atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        decision_values(model, np.zeros((2, 5)))


@pytest.mark.parametrize("c", [1, 2, 36, 49])
def test_stacked_decision_values_equal_indexed_calls(c):
    """Rows whose owner gives every landmark c of them, the stacked matmul's
    case, get each landmark's values from its classifier alone byte for
    byte."""
    rng = np.random.default_rng(c)
    k, d = 6, 25
    model = LinearSvmModel(rng.normal(0, 1, (k, d)), rng.normal(0, 1, k))
    rows = rng.normal(0, 1, (k * c, d))
    owner = np.repeat(np.arange(k), c)
    got = decision_values(model, rows, owner)
    assert got.shape == (k * c,)
    want = np.concatenate([decision_values(landmark_svm(model, j), rows[j * c:(j + 1) * c])
                           for j in range(k)])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatchError):
        decision_values(model, rows.reshape(k, c, d), owner)
    with pytest.raises(DimensionMismatchError):
        decision_values(model, np.zeros((k * c, d + 1)), owner)


def test_owner_decision_values_equal_indexed_calls():
    """Rows scored with sorted owner indices, in unequal counts, give each
    landmark's values from its classifier alone, concatenated, byte for
    byte; counts run from none to a full 7x7 grid."""
    rng = np.random.default_rng(12)
    counts = [3, 49, 0, 1, 36, 17]
    k, d = len(counts), 49
    model = LinearSvmModel(rng.normal(0, 1, (k, d)), rng.normal(0, 1, k))
    owner = np.repeat(np.arange(k), counts)
    rows = rng.uniform(0.0, 0.05, (len(owner), d))
    bounds = np.cumsum([0] + counts)
    want = np.concatenate([decision_values(landmark_svm(model, j), rows[a:b])
                           for j, (a, b) in enumerate(zip(bounds, bounds[1:]))])
    got = decision_values(model, rows, owner)
    assert got.shape == (len(owner),)
    assert got.tobytes() == want.tobytes()
    assert decision_values(model, rows[:0], owner[:0]).shape == (0,)


@pytest.mark.parametrize("owner", [[0, 2, 1, 2], [0, 1, 1, 3], [-1, 0, 1, 2], [0, 1, 2],
                                   [0, 0, 1, 1, 2], [0.0, 1.0, 1.0, 2.0]],
                         ids=["unsorted", "past-k", "negative", "short", "long", "float"])
def test_owner_decision_values_reject_bad_owners(owner):
    model = LinearSvmModel(np.ones((3, 4)), np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="owner"):
        decision_values(model, np.zeros((4, 4)), np.array(owner))
    with pytest.raises(DimensionMismatchError, match="owner"):
        decision_values(LinearSvmModel(np.ones(4), 0.0), np.zeros((4, 4)), np.array([0, 0, 0, 0]))


@pytest.mark.parametrize("owner", [[], np.zeros(0), np.zeros(0, np.int32), np.zeros(0, bool)],
                         ids=["list", "float", "int32", "bool"])
def test_empty_owner_of_any_dtype_gets_no_values(owner):
    model = LinearSvmModel(np.ones((3, 4)), np.zeros(3))
    assert decision_values(model, np.zeros((0, 4)), owner).shape == (0,)


@pytest.mark.parametrize("case", ARITY_CASES)
def test_decision_values_take_only_their_two_forms(case):
    """Only one landmark's classifier with (m, d) rows, or a stacked model
    with (m, d) rows and an owner array, scores; every other call raises
    DimensionMismatchError, never a bare numpy error."""
    rng = np.random.default_rng(7)
    stack = LinearSvmModel(rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3))
    model, rows, owner = arity_call(case, stack, landmark_svm(stack, 1), 4)
    with pytest.raises(DimensionMismatchError, match="owner indices for a stacked model only"):
        decision_values(model, rows, owner)


@PROPERTY
@pytest.mark.parametrize("equal", [True, False], ids=["stacked-matmul", "matmul-per-block"])
@given(data=strategies.data())
def test_owner_values_equal_each_block_by_its_own_classifier(equal, data):
    """Every landmark's block of an owner-form call gets, byte for byte, the
    values the landmark's classifier alone gives its rows, through either
    branch of owner_matmul."""
    counts = data.draw(owner_counts(equal))
    d = data.draw(strategies.integers(1, 30))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    model = LinearSvmModel(rng.normal(0, 1, (len(counts), d)), rng.normal(0, 1, len(counts)))
    rows = rng.normal(0, 1, (sum(counts), d))
    with matmul_operands() as products:
        got = decision_values(model, rows, np.repeat(np.arange(len(counts)), counts))
    assert products == owner_products(counts, (d,))
    assert got.shape == (len(rows),)
    bounds = np.cumsum([0] + counts)
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        assert got[a:b].tobytes() == decision_values(landmark_svm(model, j), rows[a:b]).tobytes()


@PROPERTY
@pytest.mark.parametrize("stacked", [True, False], ids=["owner-form", "single-model"])
@pytest.mark.parametrize("absolute", [False, True], ids=["windows", "profiles"])
@given(data=strategies.data())
def test_raw_row_decisions_have_the_sign_of_normalized_ones(stacked, absolute, data):
    """Raw rows scored with their sums (homogeneous_rows) decide as their
    normalized rows do: gradient windows (non-negative, sum-normalized) and
    derivative profiles (signed, abs-sum-normalized), in the owner form and
    the single-model form. The signs agree wherever the normalized rows'
    decision is clear of rounding, |value| > 1e-9; a flat row, zero or
    summing to under 1e-12, gets its normalized row's decision (the uniform
    vector's, or the bias for a profile) byte for byte."""
    counts = data.draw(owner_counts(data.draw(strategies.booleans()))) if stacked else [
        data.draw(strategies.integers(0, 40))]
    d = data.draw(strategies.sampled_from([3, 7, 9, 15, 49, 225]))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1)))
    k, m = len(counts), sum(counts)
    rows = rng.normal(0.0, 20.0, (m, d)) if absolute else rng.uniform(0.0, 9.0, (m, d))
    kind = rng.integers(0, 5, m)  # 0: zero row, 1: sums to under 1e-12, 2-4: drawn
    rows[kind == 0] = 0.0
    rows[kind == 1] *= 1e-16 / d
    weights, biases = rng.normal(0.0, 1.0, (k, d)) / np.sqrt(d), rng.normal(0.0, 0.2, k)
    if stacked:
        model, owner = LinearSvmModel(weights, biases), np.repeat(np.arange(k), counts)
    else:
        model, owner = LinearSvmModel(weights[0], float(biases[0])), None
    normalized = (normalize_derivatives(rows.copy()) if absolute
                  else normalize_windows(rows, "sum"))
    want = decision_values(model, normalized, owner)
    gated, sums = homogeneous_rows(rows, absolute=absolute)
    got = decision_values(model, gated, owner, sums)
    assert got.shape == want.shape == (m,)
    clear = np.abs(want) > 1e-9
    assert np.array_equal(got[clear] >= 0, want[clear] >= 0)
    flat = kind < 2
    assert got[flat].tobytes() == want[flat].tobytes()
    assert (sums > 0).all() and np.array_equal(sums[flat], np.ones(np.count_nonzero(flat)))


def test_decision_values_check_their_sums():
    """sums must hold one positive value per row."""
    model = LinearSvmModel(np.ones((2, 3)), np.zeros(2))
    rows, owner = np.ones((4, 3)), np.array([0, 0, 1, 1])
    with pytest.raises(DimensionMismatchError, match="one per row"):
        decision_values(model, rows, owner, np.ones(3))
    for sums in ([1.0, 0.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0], [1.0, np.nan, 1.0, 1.0]):
        with pytest.raises(ShapeArityError, match="sums must be positive"):
            decision_values(model, rows, owner, np.array(sums))


def test_objective_hand_case():
    model = LinearSvmModel(np.array([1.0, 0.0]), -1.0)
    assert svm_objective(model, two_point_set(), 100.0) == pytest.approx(1.0)


# ------------------------------------------------- stacked trainer vs oracle

def stacked_problem(k, m, d=5, seed=0):
    """k noisy, not separable problems of m rows each, both classes present."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(0.0, 1.0, (k, m, d))
    w = rng.normal(0.0, 1.0, (k, d))
    labels = np.sign(np.einsum("kmd,kd->km", feats, w) + rng.normal(0.0, 0.7, (k, m)))
    labels[:, :2] = (1.0, -1.0)
    return feats, labels


# How a stack's landmarks share the trainer's batched steps: all k hold the
# same rows, so they finish together and every step is a full batch; they
# hold different rows, so they finish at different iterations and the last
# steps run on part of the stack, its finished landmarks held fixed; or
# every landmark has fewer rows (20) than unknowns (25 + bias), so every
# solve takes the push-through form.
BATCH_CASES = {"full-batches": (64, 5, True), "partial-last-batch": (70, 5, False),
               "batch-exceeds-rows": (20, 25, False)}


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_stacked_trainer_matches_per_landmark_oracle(k, case):
    """Each landmark of a stack gets the bytes it gets trained alone, and
    the dense oracle's optimum to rounding, with the same signs on its
    rows."""
    m, d, same = BATCH_CASES[case]
    feats, labels = stacked_problem(1 if same else k, m, d, seed=k * 100 + m)
    feats, labels = np.resize(feats, (k, m, d)), np.resize(labels, (k, m))
    config = SvmTrainConfig(c_penalty=2.0)
    model = train_linear_svm(LandmarkTrainingSet(feats, labels, tuple(range(10, 10 + k)), 1),
                             config)
    assert model.weights.shape == (k, d) and model.bias.shape == (k,)
    for i in range(k):
        alone = train_linear_svm(LandmarkTrainingSet(feats[i], labels[i], 10 + i, 1), config)
        assert model.weights[i].tobytes() == alone.weights.tobytes()
        assert model.bias[i].tobytes() == np.float64(alone.bias).tobytes()
        ref = train_linear_svm_reference(LandmarkTrainingSet(feats[i], labels[i], 10 + i, 1),
                                         c_penalty=2.0)
        np.testing.assert_allclose(model.weights[i], ref.weights, rtol=1e-9, atol=1e-12)
        assert model.bias[i] == pytest.approx(ref.bias, rel=1e-9, abs=1e-12)
        assert np.array_equal(decision_values(landmark_svm(model, i), feats[i]) >= 0,
                              decision_values(ref, feats[i]) >= 0)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_label_signed_trainer_equals_stacked_reference(k, case):
    """Signing the rows by their labels once, z = y*[x, 1], changes nothing:
    the stack reaches the optimum of the oracle, which keeps features and
    labels apart, to rounding, where the KKT conditions hold. The zero last
    dimension, signed -0.0 on every negative row, trains to a zero weight."""
    m, d, same = BATCH_CASES[case]
    feats, labels = stacked_problem(1 if same else k, m, d, seed=k * 100 + m)
    feats = np.concatenate([np.resize(feats, (k, m, d)), np.zeros((k, m, 1))], axis=2)
    stack = LandmarkTrainingSet(feats, np.resize(labels, (k, m)), tuple(range(10, 10 + k)), 1)
    model = train_linear_svm(stack, SvmTrainConfig(c_penalty=2.0))
    ref = train_linear_svm_reference(stack, c_penalty=2.0)
    np.testing.assert_allclose(model.weights, ref.weights, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(model.bias, ref.bias, rtol=1e-9, atol=1e-12)
    assert np.all(model.weights[:, -1] == 0.0)
    assert kkt_residual(model, stack, 2.0).max() < 1e-10


def test_single_landmark_is_a_stack_of_one():
    feats, labels = stacked_problem(1, 70, seed=4)
    config = SvmTrainConfig(epochs=25)
    single = train_linear_svm(LandmarkTrainingSet(feats[0], labels[0], 3, 0), config)
    stacked = train_linear_svm(LandmarkTrainingSet(feats, labels, (3,), 0), config)
    ref = train_linear_svm_reference(LandmarkTrainingSet(feats[0], labels[0], 3, 0))
    assert np.array_equal(single.weights, stacked.weights[0])
    assert single.bias == stacked.bias[0]
    np.testing.assert_allclose(single.weights, ref.weights, rtol=1e-9)


def test_stacked_one_class_landmark_is_named():
    feats, labels = stacked_problem(3, 20)
    labels[1] = 1.0
    stack = LandmarkTrainingSet(feats, labels, (40, 42, 44), 2)
    with pytest.raises(ClassBalanceError, match="landmark 42 level 2"):
        train_linear_svm(stack, SvmTrainConfig(epochs=2))


def test_stack_validation_and_accessors():
    feats, labels = stacked_problem(3, 10)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats, labels[:, :9], (0, 1, 2), 0)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats, labels, (0, 1), 0)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats[..., None], labels, (0, 1, 2), 0)
    stack = LandmarkTrainingSet(feats, labels, (5, 6, 7), 1)
    assert stack.count == 10 and stack.landmarks == (5, 6, 7) and stack.level == 1
    assert np.array_equal(stack.features, feats)
    assert LandmarkTrainingSet(feats[0], labels[0], 5, 1).landmarks == (5,)


def test_training_accuracy_matches_decision_values():
    feats, labels = stacked_problem(3, 40, seed=8)
    stack = LandmarkTrainingSet(feats, labels, (0, 1, 2), 0)
    model = train_linear_svm(stack, SvmTrainConfig(epochs=10))
    expected = [np.mean(np.where(decision_values(landmark_svm(model, i), feats[i]) >= 0,
                                 1.0, -1.0) == labels[i])
                for i in range(3)]
    assert training_accuracy(model, stack).tolist() == expected

