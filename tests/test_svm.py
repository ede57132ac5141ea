import math

import numpy as np
import pytest
from hypothesis import given, strategies

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
    seed 0 for every landmark, in place of the settings not given."""
    defaults = dict(negatives_per_positive=TrainConfig.negatives_per_positive,
                    offset_range=TrainConfig.offset_range, seeds=[0] * len(landmarks), size=5)
    return build_landmark_training_set(dataset, landmarks, level, **(defaults | settings))


def grid_magnitude():
    rng = np.random.default_rng(6)
    return rng.uniform(1.0, 9.0, (40, 40))


@pytest.mark.parametrize("seed", [-5, True, 1.0, None], ids=["negative", "bool", "float", "none"])
def test_training_set_checks_its_seeds(seed):
    """Each landmark's negative-window seed follows check_seed, as
    SvmTrainConfig.seed does, so a bad one raises ShapeArityError before any
    window is drawn, not a bare error from default_rng (which would take
    True as 1 and None as fresh entropy)."""
    dataset = [(grid_magnitude(), np.array([[20.0, 20.0], [10.0, 30.0]]))]
    with pytest.raises(ShapeArityError, match=r"seeds\[1\]"):
        training_set(dataset, [0, 1], 0, seeds=[0, seed])
    assert training_set(dataset, [0, 1], 0, seeds=[0, 7]).features.shape == (2, 5, 25)


def test_training_set_composition():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0], [10.0, 30.0]])
    ts = training_set([(mag, pts)] * 3, [0], level=0, seeds=[1])
    assert ts.count == 15 and ts.landmarks == (0,)
    assert ts.labels.tolist() == [[1.0, -1.0, -1.0, -1.0, -1.0] * 3]
    assert ts.features.shape == (1, 15, 25)
    positive = normalize_windows(windows_batch(mag, pts[:1], 5), "sum")[0]
    assert np.array_equal(ts.features[0, 0], positive)
    assert np.array_equal(ts.features[0, 5], positive)


def test_training_set_deterministic():
    mag = grid_magnitude()
    pts = np.array([[20.0, 20.0]])
    a = training_set([(mag, pts)] * 4, [0], 0, seeds=[9])
    b = training_set([(mag, pts)] * 4, [0], 0, seeds=[9])
    assert np.array_equal(a.features, b.features)
    c = training_set([(mag, pts)] * 4, [0], 0, seeds=[10])
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
                dict(negatives_per_positive=-1), dict(offset_range=(0, 4))):
        with pytest.raises(ShapeArityError):
            training_set([(mag, pts)], [0], 0, **bad)
    with pytest.raises(DimensionMismatchError):
        training_set([(mag, pts)], [0], 0, seeds=[1, 2])


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

@pytest.mark.parametrize("c_penalty,lam", [(1e308, 0.0), (1e-320, math.inf)])
def test_trainer_rejects_a_c_penalty_whose_regularization_is_not_finite(c_penalty, lam):
    """1/(C*m) of 0 divided by zero in the first step, and of inf turned the
    weights NaN; both are refused before the first step, stacked or not.
    RuntimeWarnings are errors here, so none may be raised either."""
    feats, labels = stacked_problem(2, 40, seed=3)
    assert 1.0 / (c_penalty * 40) == lam
    config = SvmTrainConfig(c_penalty=c_penalty, epochs=2)
    for train_set in (LandmarkTrainingSet(feats, labels, (0, 1), 0),
                      LandmarkTrainingSet(feats[0], labels[0], 0, 0)):
        with pytest.raises(ShapeArityError, match="positive and finite"):
            train_linear_svm(train_set, config)


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
    """The trainer draws no random numbers: it makes no generator, and every
    seed gives the same bytes."""
    feats, labels = stacked_problem(3, 70, seed=4)
    ts = LandmarkTrainingSet(feats, labels, (0, 1, 2), 0)
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("made a generator"))
    a = train_linear_svm(ts, SvmTrainConfig(seed=7))
    for seed in (7, 8, 0):
        b = train_linear_svm(ts, SvmTrainConfig(seed=seed))
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
    config = SvmTrainConfig(epochs=25, seed=5)
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

