import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmfit import svm, training
from asmfit.dataset_io import AnnotatedSample, save_bundle
from asmfit.errors import InsufficientDataError, ShapeArityError
from asmfit.imaging import GrayImage, build_pyramid, equalize_histogram, sobel_gradients
from asmfit.profiles import ProfileStats, leading_subspace, stats_from_matrix, subspace_rank
from asmfit.scheme import DEFAULT_SCHEME, ContourGroup, LandmarkScheme
from asmfit.search import FitConfig
from asmfit.shape_model import Shape
from asmfit.synthetic import generate_face_dataset
from asmfit.svm import (
    LinearSvmModel,
    SvmTrainConfig,
    _ring_offsets,
    _seed_for,
    build_landmark_training_set,
    decision_values,
)
from asmfit.training import TrainConfig, _fold, train_bundle
from conftest import PROPERTY
from reference_profiles import level_window_stats
from reference_svm import (
    build_landmark_training_set_reference,
    kkt_residual,
    landmark_svm,
    train_linear_svm_reference,
)


def standardized(rows):
    """(rows standardized per dimension, mean, std); constant dimensions get unit std."""
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (rows - mean) / std, mean, std


def folded(model, mean, std):
    """A model of standardized rows rewritten to score raw rows."""
    weights = model.weights / std
    return LinearSvmModel(weights, model.bias - float(weights @ mean))


def test_bundle_covers_every_level_and_landmark(trained):
    bundle, _, _ = trained
    n = DEFAULT_SCHEME.total
    levels = bundle.fit_defaults.levels
    assert [lv.window_side for lv in bundle.levels] == [7, 7, 7]
    assert [lv.classic_length for lv in bundle.levels] == [15, 15, 15]
    assert all(lv.asm.mean.shape[0] == lv.classic.mean.shape[0] == n for lv in bundle.levels)
    assert len(bundle.levels) == levels
    assert all(lv.svms.weights.shape[0] == n and lv.svms.bias.shape == (n,)
               for lv in bundle.levels)
    assert bundle.shape_model.num_modes > 0
    # 1-D statistics keep every pair: 6 faces give rank 5 of 15 dims.
    assert [lv.classic.rank for lv in bundle.levels] == [5, 5, 5]


def test_summary_window_accounting(trained):
    """The window counts asmfit train prints come from train_meta and the
    scheme; they are the rows each level's stack holds: one positive per
    image and landmark, negatives_per_positive (default 4) negatives each."""
    bundle, _, faces = trained
    n = DEFAULT_SCHEME.total
    meta = bundle.train_meta
    images = 6
    assert (meta["samples"], meta["negatives_per_positive"]) == (images, 4)
    for level, size in enumerate(lv.window_side for lv in bundle.levels):
        dataset = [(sobel_gradients(equalize_histogram(build_pyramid(s.image, 3)[level]))
                    .magnitude, s.shape.points / 2.0**level) for s in faces[:images]]
        stack = build_landmark_training_set(
            dataset, range(n), level, negatives_per_positive=meta["negatives_per_positive"],
            offset_range=(meta["offset_min"], meta["offset_max"]), seed=meta["seed"], size=size)
        assert stack.labels.shape == (n, images * 5)
        assert int((stack.labels == 1).sum()) == meta["samples"] * n == images * n
        assert int((stack.labels == -1).sum()) == images * n * 4


def test_stats_match_configured_dims(trained_3_7_15):
    bundle, _, _ = trained_3_7_15
    for level, size in enumerate((3, 7, 15)):
        assert bundle.levels[level].asm.dim == size * size
        assert bundle.levels[level].svms.weights.shape == (68, size * size)
    for level in range(3):
        assert bundle.levels[level].classic.dim == 15


def test_training_is_seed_deterministic(faces96):
    kwargs = dict(svm_config=SvmTrainConfig(epochs=5), seed=3)
    a, _ = train_bundle(faces96[:3], DEFAULT_SCHEME, **kwargs)
    b, _ = train_bundle(faces96[:3], DEFAULT_SCHEME, **kwargs)
    assert np.array_equal(a.levels[0].svms.weights[0], b.levels[0].svms.weights[0])
    assert np.array_equal(a.levels[0].asm.mean[5], b.levels[0].asm.mean[5])
    c, _ = train_bundle(faces96[:3], DEFAULT_SCHEME,
                        svm_config=SvmTrainConfig(epochs=5), seed=4)
    assert not np.array_equal(a.levels[0].svms.weights[0], c.levels[0].svms.weights[0])


@pytest.mark.parametrize("c_penalty", [1e308, 1.7976931348623157e308])
def test_the_largest_c_penalties_train_a_finite_bundle(faces96, trained, c_penalty):
    """On 6 faces at 96x96 the ridge of these c_penalty values rounds away
    and leaves Newton systems singular; training still gives a bundle,
    with every warning an error (the SVM models hold finite values only),
    and the 3x3 SVMs classify their training rows as well as the shared
    bundle's, trained at C = 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, accuracy = train_bundle(faces96[:6], DEFAULT_SCHEME,
                                   svm_config=SvmTrainConfig(c_penalty=c_penalty, epochs=30))
    _, usual, _ = trained
    assert accuracy.mean(axis=1)[0] >= usual.mean(axis=1)[0]
    assert (accuracy[1:] == 1.0).all()


def test_training_requires_two_samples(faces96):
    with pytest.raises(InsufficientDataError):
        train_bundle(faces96[:1], DEFAULT_SCHEME)


PROFILE_LENGTH_CASES = {
    "non-integers": ((3.9, 7.2, "15"), r"^profile_lengths\[0\] must be an integer, got 3\.9$"),
    "bool": ((3, True, 15), r"^profile_lengths\[1\] must be an integer, got True$"),
    "even": ((3, 8, 15), r"^profile_lengths\[1\] must be odd and >= 3, got 8$"),
    "one-short": ((3, 7), "profile_lengths needs one entry per level, got 2 for 3"),
}


@pytest.mark.parametrize("case", PROFILE_LENGTH_CASES)
def test_mistyped_profile_lengths_fail_before_training(faces96, monkeypatch, case):
    """profile_lengths needs one odd integer >= 3 per level."""
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    monkeypatch.setattr("asmfit.training.build_pyramid", started)
    lengths, message = PROFILE_LENGTH_CASES[case]
    with pytest.raises(ShapeArityError, match=message):
        train_bundle(faces96[:3], DEFAULT_SCHEME, profile_lengths=lengths)
    # the patch is live: well-formed lengths reach it
    with pytest.raises(AssertionError, match="training started"):
        train_bundle(faces96[:3], DEFAULT_SCHEME, profile_lengths=(3, 5, 9))


def test_mismatched_scheme_fails_before_training(faces96, monkeypatch):
    """A scheme that does not cover the samples' landmarks fails before GPA,
    the shape model or any image pyramid."""
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    scheme = LandmarkScheme((ContourGroup("jaw", 5, False),))
    with pytest.raises(ShapeArityError, match=r"^scheme covers 5 landmarks, shape has 68$"):
        train_bundle(faces96[:3], scheme)
    # the patch is live: the covering scheme reaches it
    with pytest.raises(AssertionError, match="training started"):
        train_bundle(faces96[:3], DEFAULT_SCHEME)


def test_four_levels_build_with_four_profile_lengths():
    config = TrainConfig(fit_config=FitConfig(levels=4), profile_lengths=(3, 7, 15, 15))
    assert config.profile_lengths == (3, 7, 15, 15)


def test_four_levels_without_profile_lengths_train_7x7_windows(faces96):
    """Left out, profile_lengths gives each of any number of levels a 7x7 window."""
    bundle, _ = train_bundle(faces96[:3], DEFAULT_SCHEME, fit_config=FitConfig(levels=4),
                             svm_config=SvmTrainConfig(epochs=2))
    assert [lv.window_side for lv in bundle.levels] == [7, 7, 7, 7]


@pytest.mark.parametrize("settings", [
    {"seed": -1}, {"eps": -1.0}, {"eps": float("nan")}, {"eps": float("inf")},
    {"variance_fraction": 2.0}, {"variance_fraction": -1}, {"variance_fraction": 0},
    {"clamp_alpha": -3}, {"clamp_alpha": 0}, {"clamp_alpha": float("inf")},
    {"fit_config": {"levels": 2}}, {"svm_config": FitConfig()}, {"profile_lengths": 5},
])
def test_out_of_range_settings_fail_before_training(faces96, monkeypatch, settings):
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    monkeypatch.setattr("asmfit.training.build_pyramid", started)
    with pytest.raises(ShapeArityError, match=next(iter(settings))):
        train_bundle(faces96[:3], DEFAULT_SCHEME, **settings)
    with pytest.raises(AssertionError, match="training started"):
        train_bundle(faces96[:3], DEFAULT_SCHEME)


def test_train_meta_records_settings(trained):
    bundle, _, _ = trained
    meta = bundle.train_meta
    assert meta["samples"] == 6
    assert meta["epochs"] == 30
    assert meta["negatives_per_positive"] == 4
    assert bundle.shape_model.variance_fraction == 0.975
    assert bundle.shape_model.clamp_alpha == 3.0


def level_training_set(samples, landmark, level, seed, levels=3):
    """One landmark's raw training set, built from the surfaces train_bundle uses."""
    dataset = []
    for sample in samples:
        raw = build_pyramid(sample.image, levels)[level]
        dataset.append((sobel_gradients(equalize_histogram(raw)).magnitude,
                        sample.shape.points / 2.0**level))
    return build_landmark_training_set_reference(
        dataset, landmark, level, seed=_seed_for(seed, level, landmark),
        size=(3, 7, 15)[level],
    )


def test_border_landmark_trains_with_clamped_windows(faces96):
    # Landmark 5 on the right border of two 96-pixel images rounds to
    # column 48 of the 48-pixel level-1 image and to 24 at level 2, one
    # pixel past the last column. Its windows there are clamped, so it
    # keeps every image's rows, as its stack neighbours do.
    samples = []
    for i, sample in enumerate(faces96[:4]):
        pts = sample.shape.points.copy()
        if i < 2:
            pts[5, 0] = 95.0
        samples.append(AnnotatedSample(sample.name, sample.image, Shape(pts)))
    bundle, _ = train_bundle(samples, DEFAULT_SCHEME, profile_lengths=(3, 7, 15), seed=2)
    for level, landmark in [(1, 5), (1, 4), (2, 5), (0, 5)]:
        ts = level_training_set(samples, landmark, level, seed=2)
        assert ts.count == 20
        rows, mean, std = standardized(ts.features)
        ref = folded(train_linear_svm_reference(dataclasses.replace(ts, features=rows)),
                     mean, std)
        model = bundle.levels[level].svms
        np.testing.assert_allclose(model.weights[landmark], ref.weights, rtol=1e-9)
        assert model.bias[landmark] == pytest.approx(ref.bias, rel=1e-9)


def test_every_stack_trains_to_its_optimum(faces96, monkeypatch):
    """Every stack of a training ends at the optimum of the squared-hinge
    objective: each landmark's gradient w - 2C * Z_A^T (1 - Z_A w), with A
    the active set its own w defines, vanishes to rounding."""
    trained = []
    train = training.train_linear_svm

    def recorded(stack, config):
        model = train(stack, config)
        trained.append((stack, model, config.c_penalty))
        return model

    monkeypatch.setattr(training, "train_linear_svm", recorded)
    train_bundle(faces96, DEFAULT_SCHEME, svm_config=SvmTrainConfig(c_penalty=2.0),
                 profile_lengths=(3, 7, 15))
    assert [stack.level for stack, _, _ in trained] == [0] + [1] * 2 + [2] * 9
    for stack, model, c_penalty in trained:
        assert c_penalty == 2.0 and stack.count == 8 * 5
        assert kkt_residual(model, stack, c_penalty).max() < 1e-10, stack.landmarks


def test_one_training_set_call_per_stack_and_one_window_call_per_image(faces96, monkeypatch):
    runs = []
    calls = {"svm.windows_batch": 0, "svm.normalize_windows": 0,
             "training.windows_batch": 0, "training.normalize_windows": 0}
    build = training.build_landmark_training_set

    def counted_build(dataset, landmarks, level, *args, **kwargs):
        runs.append((level, list(landmarks)))
        return build(dataset, landmarks, level, *args, **kwargs)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "build_landmark_training_set", counted_build)
    for name in calls:
        module, attr = name.split(".")
        target = {"svm": svm, "training": training}[module]
        monkeypatch.setattr(target, attr, counted(name, getattr(target, attr)))
    train_bundle(faces96[:3], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=1),
                 profile_lengths=(3, 7, 15))
    # 68 landmarks of 3x3, 7x7 and 15x15 windows: 1 stack of 68, 2 of 34,
    # then 5 of 8 and 4 of 7
    assert [(level, len(run)) for level, run in runs] == (
        [(0, 68), (1, 34), (1, 34)] + [(2, 8)] * 5 + [(2, 7)] * 4
    )
    for level in range(3):
        covered = [j for lv, run in runs if lv == level for j in run]
        assert covered == list(range(DEFAULT_SCHEME.total))
    # One window call per image and one normalization per stack, all in the
    # stacks: the profile statistics gather no window of their own.
    assert calls == {"svm.windows_batch": 12 * 3, "svm.normalize_windows": 12,
                     "training.windows_batch": 0, "training.normalize_windows": 0}


def test_stack_plan_leaves_bundle_bytes_unchanged(faces96, monkeypatch, tmp_path):
    """One-landmark stacks, the default plan and one stack of all 68
    landmarks at every level save to the same bytes."""
    stack_counts = {}
    for name, width in [("single", 1), ("default", training._SVM_WIDTH),
                        ("all", DEFAULT_SCHEME.total * (15**2 + 1))]:
        monkeypatch.setattr(training, "_SVM_WIDTH", width)
        stack_counts[name] = [len(training._svm_stacks(DEFAULT_SCHEME.total, size))
                              for size in (3, 7, 15)]
        bundle, _ = train_bundle(faces96[:6], DEFAULT_SCHEME, profile_lengths=(3, 7, 15),
                                 svm_config=SvmTrainConfig(epochs=3), seed=1)
        save_bundle(bundle, tmp_path / f"{name}.asmb")
    assert stack_counts == {"single": [68] * 3, "default": [1, 2, 9], "all": [1, 1, 1]}
    data = (tmp_path / "default.asmb").read_bytes()
    assert (tmp_path / "single.asmb").read_bytes() == data
    assert (tmp_path / "all.asmb").read_bytes() == data


@PROPERTY
@given(images=st.integers(1, 19).map(lambda half: 2 * half + 1), d=st.sampled_from([9, 49, 225]),
       k=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
def test_stacked_statistics_and_fold_equal_per_landmark_calls(images, d, k, seed):
    """A stack of k landmarks' positive windows gives each landmark the
    statistics of its own call, and a stacked SVM folds to each landmark's
    own fold, byte for byte; the own calls take copies, so their rows start
    on fresh allocations. With an odd image count and an odd window dim,
    every other landmark's rows in a stack start 8 bytes off a 16-byte
    boundary. With images <= d the statistics take the SVD path, otherwise
    the covariance."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 0.05, (k, images, d))
    stack = stats_from_matrix(rows)
    model = LinearSvmModel(rng.normal(0.0, 1.0, (k, d)), rng.normal(0.0, 1.0, k))
    mean = rng.uniform(0.0, 0.05, (k, d))
    std = rng.uniform(0.01, 0.05, (k, d))
    weights, biases = _fold(model, mean, std)
    for j in range(k):
        want = stats_from_matrix(rows[j].copy())
        for name in ("mean", "basis", "lam", "rho"):
            assert getattr(stack, name)[j].tobytes() == np.asarray(getattr(want, name)).tobytes()
        w, b = _fold(LinearSvmModel(model.weights[j].copy(), model.bias[j]), mean[j].copy(),
                     std[j].copy())
        assert weights[j].tobytes() == w.tobytes()
        assert biases[j].tobytes() == np.float64(b).tobytes()


def test_one_class_landmark_names_landmark_and_level(faces96, monkeypatch):
    """Without negatives every landmark would have one class; training
    refuses that before any work. A one-class stack that reaches the SVM
    trainer is named by landmark and level (test_stacked_one_class_landmark_is_named)."""
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    monkeypatch.setattr("asmfit.training.build_pyramid", started)
    with pytest.raises(ShapeArityError, match="negatives_per_positive must be at least 1, got 0"):
        train_bundle(faces96[:3], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=2),
                     negatives_per_positive=0)


def test_svm_config_seed_must_keep_its_default(faces96, monkeypatch):
    """A non-zero SVM seed is refused when the config is built, so no
    training can start from one; seed=0 is the only value it takes."""
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    with pytest.raises(ShapeArityError, match="seed 5 is unused"):
        train_bundle(faces96[:3], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=2, seed=5))
    # the default seed, given or not, reaches training
    with pytest.raises(AssertionError, match="training started"):
        train_bundle(faces96[:3], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=2, seed=0))


@pytest.mark.parametrize("width", [training._SVM_WIDTH, 1])
def test_profile_stats_equal_separate_pass_oracle(monkeypatch, width):
    """Each level's 2-D statistics, joined from the SVM stacks' positive
    windows and cut to the level's subspace rank, equal one pass over all
    landmarks' windows cut the same way, byte for byte, for the default
    stack plan and for one-landmark stacks: the mean and basis as the
    oracle's rounded to float32, as training stores them, and lam and rho
    as its float64. With 12 faces, level 0 (d = 9) takes the covariance
    path, cut from 9 to 7 pairs, and levels 1 and 2 (d = 49, 225) the SVD
    path, where some landmark needs all 11 pairs."""
    monkeypatch.setattr(training, "_SVM_WIDTH", width)
    faces = generate_face_dataset(12, size=96, seed=9)
    bundle, _ = train_bundle(faces, DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=1),
                             profile_lengths=(3, 7, 15), seed=1)
    assert [lv.asm.rank for lv in bundle.levels] == [7, 11, 11]
    fraction = bundle.shape_model.variance_fraction
    for level, size in enumerate(lv.window_side for lv in bundle.levels):
        ref = level_window_stats(faces, level, size, eps=bundle.train_meta["eps"])
        ref = ProfileStats(**leading_subspace(ref, subspace_rank(ref, fraction)))
        for name, dtype in (("mean", np.float32), ("basis", np.float32),
                            ("lam", np.float64), ("rho", np.float64)):
            got, want = getattr(bundle.levels[level].asm, name), getattr(ref, name).astype(dtype)
            assert got.dtype == dtype and got.shape == want.shape, (level, name)
            assert got.tobytes() == want.tobytes(), (level, name)


def test_summary_accuracy_matches_per_landmark_oracle(trained_3_7_15):
    """Training returns what it measured and the bundle does not hold: each
    landmark's SVM accuracy on its own training rows, per level, equal to
    the accuracy of its folded SVM on its raw rows."""
    bundle, accuracy, faces = trained_3_7_15
    assert accuracy.shape == (bundle.fit_defaults.levels, DEFAULT_SCHEME.total)
    for level in range(bundle.fit_defaults.levels):
        for landmark in range(DEFAULT_SCHEME.total):
            ts = level_training_set(faces[:6], landmark, level, seed=0)
            decision = decision_values(landmark_svm(bundle.levels[level].svms, landmark),
                                       ts.features)
            want = np.mean(np.where(decision >= 0, 1.0, -1.0) == ts.labels)
            assert accuracy[level, landmark] == want, (level, landmark)
    assert accuracy[-1].min() > 0.5


def test_constant_window_dimension_gets_unit_std(faces96):
    # Landmark 0 is moved onto its nearest pixel, so its level-0 3x3 windows
    # are centered on the point and on the ring offsets the training set
    # draws (the same generator, replayed here). Every image gets a flat 3x3
    # patch around the top-left pixel of each of those windows: the Sobel
    # magnitude there is exactly zero, so the first dimension of every
    # sum-normalized row is 0, while the image noise keeps the rest of each
    # window nonzero and no window flat.
    rng = np.random.default_rng(_seed_for(4, 0, 0))
    ring = _ring_offsets(2, 8)
    samples = []
    for sample in faces96[:6]:
        pts = sample.shape.points.copy()
        pts[0] = np.rint(pts[0])
        picks = ring[rng.choice(len(ring), size=8, replace=False)]
        pixels = sample.image.pixels.copy()
        for x, y in (pts[0] + np.vstack([(0, 0), picks]) - 1).astype(int):
            pixels[y - 1:y + 2, x - 1:x + 2] = 100.0
        samples.append(AnnotatedSample(sample.name, GrayImage(pixels), Shape(pts)))
    bundle, _ = train_bundle(samples, DEFAULT_SCHEME, negatives_per_positive=8,
                             profile_lengths=(3, 7, 15), seed=4)
    dataset = [(sobel_gradients(equalize_histogram(s.image)).magnitude, s.shape.points)
               for s in samples]
    ts = build_landmark_training_set_reference(dataset, 0, 0, negatives_per_positive=8,
                                               seed=_seed_for(4, 0, 0), size=3)
    constant = ts.features.std(axis=0) == 0.0
    assert constant[0] and not constant.all()
    assert np.all(ts.features[:, 0] == 0.0)
    rows, mean, std = standardized(ts.features)
    assert np.all(std[constant] == 1.0)
    ref = train_linear_svm_reference(dataclasses.replace(ts, features=rows))
    want = folded(ref, mean, std)
    model = bundle.levels[0].svms
    assert np.all(model.weights[0, constant] == 0.0)
    np.testing.assert_allclose(model.weights[0], want.weights, rtol=1e-9)
    assert model.bias[0] == pytest.approx(want.bias, rel=1e-9)
    raw = decision_values(landmark_svm(model, 0), ts.features)
    scaled = decision_values(ref, rows)
    assert np.array_equal(raw >= 0, scaled >= 0)
    np.testing.assert_allclose(raw, scaled, rtol=1e-9, atol=1e-12)


def test_train_config_declares_settings_and_fills_in_defaults():
    """TrainConfig declares train_bundle's ten settings with their defaults,
    and stores the configs' defaults, the default window sides of its levels
    and the reals as floats; train_bundle takes no other keyword."""
    assert [(f.name, f.default) for f in dataclasses.fields(TrainConfig)] == [
        ("fit_config", None), ("svm_config", None), ("variance_fraction", 0.975),
        ("clamp_alpha", 3.0), ("profile_lengths", None), ("classic_length", 15),
        ("negatives_per_positive", 4), ("offset_range", (2, 8)), ("eps", 1e-3), ("seed", 0)]
    config = TrainConfig(fit_config=FitConfig(levels=2), variance_fraction=1, clamp_alpha=3)
    assert vars(config) == {
        "fit_config": FitConfig(levels=2), "svm_config": SvmTrainConfig(),
        "variance_fraction": 1.0, "clamp_alpha": 3.0,
        "profile_lengths": (training._WINDOW_SIDE,) * 2,
        "classic_length": 15, "negatives_per_positive": 4, "offset_range": (2, 8),
        "eps": 1e-3, "seed": 0}
    assert type(config.variance_fraction) is float and type(config.clamp_alpha) is float
    assert TrainConfig(**vars(config)) == config
    with pytest.raises(TypeError, match="profile_length"):
        train_bundle([], DEFAULT_SCHEME, profile_length=(3, 7, 15))
