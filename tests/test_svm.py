import numpy as np
import pytest

from asmfit.errors import ClassBalanceError, DimensionMismatchError, ShapeArityError
from asmfit.profiles import Profile, normalize_windows, windows_batch
from asmfit.svm import (
    LandmarkTrainingSet,
    LinearSvmModel,
    SvmTrainConfig,
    build_landmark_training_set,
    decision_values,
    train_linear_svm,
    training_accuracy,
)
from reference_svm import (
    build_landmark_training_set_reference,
    predict,
    svm_objective,
    train_linear_svm_reference,
    train_linear_svm_stacked_reference,
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
    assert LinearSvmModel(np.ones(4), 0.5).dim == 4
    assert LinearSvmModel(np.ones((3, 4)), np.zeros(3)).dim == 4
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
        assert decision_values(stacked, rows, j).tobytes() == decision_values(single, rows).tobytes()
    with pytest.raises(DimensionMismatchError, match="landmark index"):
        decision_values(stacked, rows)


def test_train_config_validation():
    with pytest.raises(ShapeArityError):
        SvmTrainConfig(c_penalty=0.0)
    with pytest.raises(ShapeArityError):
        SvmTrainConfig(epochs=0)
    with pytest.raises(ShapeArityError):
        SvmTrainConfig(batch_size=0)


def test_training_set_validation():
    with pytest.raises(ShapeArityError):
        LandmarkTrainingSet(np.zeros((2, 3)), np.array([1.0, 2.0]), 0, 0)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(np.zeros((2, 3)), np.array([1.0]), 0, 0)
    ts = two_point_set()
    assert ts.count == 2


# ------------------------------------------------------- training windows

def grid_magnitude():
    rng = np.random.default_rng(6)
    return rng.uniform(1.0, 9.0, (40, 40))


def test_training_set_composition():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0], [10.0, 30.0]])
    ts = build_landmark_training_set([(mag, pts)] * 3, [0], level=0,
                                     negatives_per_positive=4, seeds=[1], size=5)
    assert ts.count == 15 and ts.landmarks == (0,) and ts.seeds is None
    assert ts.labels.tolist() == [[1.0, -1.0, -1.0, -1.0, -1.0] * 3]
    assert ts.features.shape == (1, 15, 25)
    positive = normalize_windows(windows_batch(mag, pts[:1], 5), "sum")[0]
    assert np.array_equal(ts.features[0, 0], positive)
    assert np.array_equal(ts.features[0, 5], positive)


def test_training_set_deterministic():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0]])
    a = build_landmark_training_set([(mag, pts)] * 4, [0], 0, seeds=[9], size=5)
    b = build_landmark_training_set([(mag, pts)] * 4, [0], 0, seeds=[9], size=5)
    assert np.array_equal(a.features, b.features)
    c = build_landmark_training_set([(mag, pts)] * 4, [0], 0, seeds=[10], size=5)
    assert not np.array_equal(a.features, c.features)


def test_training_set_ring_capacity():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0]])
    # Chebyshev ring [1, 1] holds exactly 8 offsets
    ts = build_landmark_training_set([(mag, pts)], [0], 0, negatives_per_positive=8,
                                     offset_range=(1, 1), size=5)
    assert ts.count == 9
    # numpy integers are integers
    ts = build_landmark_training_set([(mag, pts)], [0], 0, offset_range=(np.int64(2), 8),
                                     negatives_per_positive=np.int32(4), size=np.int64(5))
    assert ts.features.shape == (1, 5, 25)
    for bad in (dict(negatives_per_positive=9, offset_range=(1, 1)),
                dict(negatives_per_positive=-1), dict(offset_range=(0, 4))):
        with pytest.raises(ShapeArityError):
            build_landmark_training_set([(mag, pts)], [0], 0, size=5, **bad)
    with pytest.raises(DimensionMismatchError):
        build_landmark_training_set([(mag, pts)], [0], 0, seeds=[1, 2], size=5)


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
    settings = dict(size=5) | bad
    with pytest.raises(ShapeArityError, match="integer"):
        build_landmark_training_set([(mag, pts)], [0], 0, **settings)


def test_training_set_empty_dataset():
    ts = build_landmark_training_set([], [0, 1], 0, size=5)
    assert ts.count == 0 and ts.features.shape == (2, 0, 25)
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
    seeds = [31 * j + 5 for j in landmarks]
    ts = build_landmark_training_set(dataset, landmarks, 2, negatives_per_positive=negatives,
                                     offset_range=ring, seeds=seeds, size=size)
    assert ts.landmarks == tuple(landmarks) and ts.level == 2
    assert ts.features.shape == (len(landmarks), 3 * (1 + negatives), size * size)
    for i, (j, seed) in enumerate(zip(landmarks, seeds)):
        ref = build_landmark_training_set_reference(dataset, j, 2, negatives, ring, seed, size)
        assert np.array_equal(ts.features[i], ref.features)
        assert np.array_equal(ts.labels[i], ref.labels)


# ---------------------------------------------------------------- trainer

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


def test_trainer_deterministic_per_seed():
    ts = separable_set(4)
    a = train_linear_svm(ts, SvmTrainConfig(seed=7, epochs=50))
    b = train_linear_svm(ts, SvmTrainConfig(seed=7, epochs=50))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    c = train_linear_svm(ts, SvmTrainConfig(seed=8, epochs=50))
    assert not np.array_equal(a.weights, c.weights)


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
    """A (k, c, d) stack of rows against a stacked model, without a landmark
    index, gives each landmark's indexed values byte for byte."""
    rng = np.random.default_rng(c)
    k, d = 6, 25
    model = LinearSvmModel(rng.normal(0, 1, (k, d)), rng.normal(0, 1, k))
    rows = rng.normal(0, 1, (k * c, d))
    got = decision_values(model, rows.reshape(k, c, d))
    assert got.shape == (k, c)
    want = np.concatenate([decision_values(model, rows[j * c:(j + 1) * c], j) for j in range(k)])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatchError):
        decision_values(model, rows[:5 * c].reshape(5, c, d))
    with pytest.raises(DimensionMismatchError):
        decision_values(model, np.zeros((k, c, d + 1)))


def test_owner_decision_values_equal_indexed_calls():
    """Rows scored with sorted owner indices give the indexed calls' values
    concatenated, byte for byte; counts run from none to a full 7x7 grid."""
    rng = np.random.default_rng(12)
    counts = [3, 49, 0, 1, 36, 17]
    k, d = len(counts), 49
    model = LinearSvmModel(rng.normal(0, 1, (k, d)), rng.normal(0, 1, k))
    owner = np.repeat(np.arange(k), counts)
    rows = rng.uniform(0.0, 0.05, (len(owner), d))
    bounds = np.cumsum([0] + counts)
    want = np.concatenate([decision_values(model, rows[a:b], j)
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


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("m, batch", [(64, 32), (70, 32), (20, 32)],
                         ids=["full-batches", "partial-last-batch", "batch-exceeds-rows"])
def test_stacked_trainer_matches_per_landmark_oracle(k, m, batch):
    feats, labels = stacked_problem(k, m, seed=k * 100 + m)
    seeds = [11 * i + 3 for i in range(k)]
    config = SvmTrainConfig(c_penalty=2.0, epochs=25, batch_size=batch, seed=99)
    stack = LandmarkTrainingSet(feats, labels, tuple(range(10, 10 + k)), 1, seeds=seeds)
    model = train_linear_svm(stack, config)
    assert model.weights.shape == (k, 5) and model.bias.shape == (k,)
    for i in range(k):
        ref = train_linear_svm_reference(feats[i], labels[i], c_penalty=2.0, epochs=25,
                                         batch_size=batch, seed=seeds[i])
        np.testing.assert_allclose(model.weights[i], ref.weights, rtol=1e-12)
        assert model.bias[i] == pytest.approx(ref.bias, rel=1e-12)
        assert np.array_equal(decision_values(model, feats[i], i) >= 0,
                              decision_values(ref, feats[i]) >= 0)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("m, batch", [(64, 32), (70, 32), (20, 32)],
                         ids=["full-batches", "partial-last-batch", "batch-exceeds-rows"])
def test_label_signed_trainer_equals_stacked_reference(k, m, batch):
    """Signing the rows by their labels once changes no bit of any iterate.
    The zero last dimension is where a signed-zero difference would show."""
    feats, labels = stacked_problem(k, m, seed=k * 100 + m)
    feats = np.concatenate([feats, np.zeros((k, m, 1))], axis=2)
    config = SvmTrainConfig(c_penalty=2.0, epochs=25, batch_size=batch, seed=99)
    for seeds in ([11 * i + 3 for i in range(k)], None):
        stack = LandmarkTrainingSet(feats, labels, tuple(range(10, 10 + k)), 1, seeds=seeds)
        model = train_linear_svm(stack, config)
        ref = train_linear_svm_stacked_reference(stack, config)
        assert np.array_equal(model.weights, ref.weights) and np.array_equal(model.bias, ref.bias)
        # bytes also tell +0.0 from -0.0
        assert model.weights.tobytes() == ref.weights.tobytes()
        assert model.bias.tobytes() == ref.bias.tobytes()


def test_single_landmark_is_a_stack_of_one():
    feats, labels = stacked_problem(1, 70, seed=4)
    config = SvmTrainConfig(epochs=25, seed=5)
    single = train_linear_svm(LandmarkTrainingSet(feats[0], labels[0], 3, 0), config)
    stacked = train_linear_svm(LandmarkTrainingSet(feats, labels, (3,), 0), config)
    ref = train_linear_svm_reference(feats[0], labels[0], epochs=25, seed=5)
    assert np.array_equal(single.weights, stacked.weights[0])
    assert single.bias == stacked.bias[0]
    np.testing.assert_allclose(single.weights, ref.weights, rtol=1e-12)


def test_stacked_one_class_landmark_is_named():
    feats, labels = stacked_problem(3, 20)
    labels[1] = 1.0
    stack = LandmarkTrainingSet(feats, labels, (40, 42, 44), 2, seeds=(1, 2, 3))
    with pytest.raises(ClassBalanceError, match="landmark 42 level 2"):
        train_linear_svm(stack, SvmTrainConfig(epochs=2))


def test_stack_validation_and_accessors():
    feats, labels = stacked_problem(3, 10)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats, labels[:, :9], (0, 1, 2), 0)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats, labels, (0, 1), 0)
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats, labels, (0, 1, 2), 0, seeds=(1, 2))
    with pytest.raises(DimensionMismatchError):
        LandmarkTrainingSet(feats[..., None], labels, (0, 1, 2), 0)
    stack = LandmarkTrainingSet(feats, labels, (5, 6, 7), 1, seeds=(7, 8, 9))
    assert stack.count == 10 and stack.landmarks == (5, 6, 7)
    assert stack.seeds == (7, 8, 9) and stack.level == 1
    assert np.array_equal(stack.features, feats)
    assert LandmarkTrainingSet(feats[0], labels[0], 5, 1).landmarks == (5,)


def test_training_accuracy_matches_decision_values():
    feats, labels = stacked_problem(3, 40, seed=8)
    stack = LandmarkTrainingSet(feats, labels, (0, 1, 2), 0, seeds=(1, 2, 3))
    model = train_linear_svm(stack, SvmTrainConfig(epochs=10))
    expected = [np.mean(np.where(decision_values(model, feats[i], i) >= 0, 1.0, -1.0) == labels[i])
                for i in range(3)]
    assert training_accuracy(model, stack).tolist() == expected
