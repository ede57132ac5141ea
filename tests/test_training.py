import numpy as np
import pytest

from asmfit.dataset_io import AnnotatedSample
from asmfit.errors import ClassBalanceError, InsufficientDataError, ShapeArityError
from asmfit.imaging import GrayImage, build_pyramid, equalize_histogram, sobel_gradients
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.search import FitConfig
from asmfit.shape_model import Shape
from asmfit.svm import (
    LinearSvmModel,
    SvmTrainConfig,
    _ring_offsets,
    build_landmark_training_set,
    decision_values,
)
from asmfit.training import _seed_for, train_bundle
from reference_svm import train_linear_svm_reference


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
    bundle, summary, _ = trained
    n = DEFAULT_SCHEME.total
    levels = bundle.fit_defaults.levels
    assert bundle.asm_profiles.sizes == (3, 7, 15)
    assert bundle.classic_profiles.sizes == (15, 15, 15)
    assert bundle.asm_profiles.n_landmarks == n
    assert len(bundle.svms) == levels
    assert all(model.weights.shape[0] == n and model.bias.shape == (n,) for model in bundle.svms)
    assert summary.retained_modes == bundle.shape_model.num_modes > 0


def test_summary_window_accounting(trained):
    bundle, summary, faces = trained
    n = DEFAULT_SCHEME.total
    images = 6
    for level, (pos, neg) in enumerate(zip(summary.level_positives,
                                           summary.level_negatives)):
        skipped_here = images * n - pos
        assert 0 <= skipped_here <= summary.skipped
        assert neg == pos * 4  # negatives_per_positive default


def test_stats_match_configured_dims(trained):
    bundle, _, _ = trained
    for level, size in enumerate(bundle.asm_profiles.sizes):
        assert bundle.asm_profiles.stats[level].dim == size * size
        assert bundle.svms[level].dim == size * size
    for level in range(3):
        assert bundle.classic_profiles.stats[level].dim == 15


def test_training_is_seed_deterministic(faces96):
    kwargs = dict(svm_config=SvmTrainConfig(epochs=5), seed=3)
    a, _ = train_bundle(faces96[:3], DEFAULT_SCHEME, **kwargs)
    b, _ = train_bundle(faces96[:3], DEFAULT_SCHEME, **kwargs)
    assert np.array_equal(a.svms[0].weights[0], b.svms[0].weights[0])
    assert np.array_equal(a.asm_profiles.stats[0].mean[5],
                          b.asm_profiles.stats[0].mean[5])
    c, _ = train_bundle(faces96[:3], DEFAULT_SCHEME,
                        svm_config=SvmTrainConfig(epochs=5), seed=4)
    assert not np.array_equal(a.svms[0].weights[0], c.svms[0].weights[0])


def test_training_requires_two_samples(faces96):
    with pytest.raises(InsufficientDataError):
        train_bundle(faces96[:1], DEFAULT_SCHEME)


def test_classic_fit_config_fails_before_training(faces96, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    monkeypatch.setattr("asmfit.training.build_pyramid", started)
    with pytest.raises(ShapeArityError, match="asm_svm"):
        train_bundle(faces96[:3], DEFAULT_SCHEME, fit_config=FitConfig(mode="classic"))
    # the patch is live: an asm_svm training reaches it
    with pytest.raises(AssertionError, match="training started"):
        train_bundle(faces96[:3], DEFAULT_SCHEME)


def test_train_meta_records_settings(trained):
    bundle, _, _ = trained
    meta = bundle.train_meta
    assert meta["samples"] == 6
    assert meta["epochs"] == 30
    assert meta["negatives_per_positive"] == 4
    assert meta["variance_fraction"] == 0.975
    assert meta["clamp_alpha"] == 3.0


def level_training_set(samples, landmark, level, seed, levels=3):
    """One landmark's raw training set, built from the surfaces train_bundle uses."""
    dataset = []
    for sample in samples:
        raw = build_pyramid(sample.image, levels).levels[level]
        dataset.append((sobel_gradients(equalize_histogram(raw)).magnitude,
                        sample.shape.points / 2.0**level))
    cfg = FitConfig()
    return build_landmark_training_set(
        dataset, landmark, level, seed=_seed_for(seed, level, landmark, 0),
        size=cfg.profile_lengths[level],
    )


def test_skipped_landmark_trains_in_its_own_stack(faces96):
    # Landmark 5 on the right border of two 96-pixel images rounds to
    # column 48 of the 48-pixel level-1 image and to 24 at level 2, so it
    # is skipped there and has fewer rows than its chunk neighbours.
    samples = []
    for i, sample in enumerate(faces96[:4]):
        pts = sample.shape.points.copy()
        if i < 2:
            pts[5, 0] = 95.0
        samples.append(AnnotatedSample(sample.name, sample.image, Shape(pts)))
    svm_config = SvmTrainConfig(epochs=5)
    bundle, summary = train_bundle(samples, DEFAULT_SCHEME, svm_config=svm_config, seed=2)
    assert summary.skipped == 4
    for level, landmark, rows in [(1, 5, 10), (1, 4, 20), (2, 5, 10), (0, 5, 20)]:
        ts = level_training_set(samples, landmark, level, seed=2)
        assert ts.count == rows
        rows, mean, std = standardized(ts.features)
        ref = folded(train_linear_svm_reference(
            rows, ts.labels, epochs=5, seed=_seed_for(2, level, landmark, 1),
        ), mean, std)
        model = bundle.svms[level]
        np.testing.assert_allclose(model.weights[landmark], ref.weights, rtol=1e-12)
        assert model.bias[landmark] == pytest.approx(ref.bias, rel=1e-12)


def test_one_class_landmark_names_landmark_and_level(faces96):
    with pytest.raises(ClassBalanceError, match="landmark 0 level 0"):
        train_bundle(faces96[:3], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=2),
                     negatives_per_positive=0)


def test_summary_accuracy_matches_per_landmark_oracle(trained):
    bundle, summary, faces = trained
    for level in range(bundle.fit_defaults.levels):
        accuracy = []
        for landmark in range(DEFAULT_SCHEME.total):
            ts = level_training_set(faces[:6], landmark, level, seed=0)
            decision = decision_values(bundle.svms[level], ts.features, landmark)
            accuracy.append(np.mean(np.where(decision >= 0, 1.0, -1.0) == ts.labels))
        assert summary.level_accuracy_mean[level] == pytest.approx(np.mean(accuracy), rel=1e-12)
        assert summary.level_accuracy_min[level] == min(accuracy)
    assert summary.level_accuracy_min[-1] > 0.5


def test_constant_window_dimension_gets_unit_std(faces96):
    # Landmark 0 is moved onto its nearest pixel, so its level-0 3x3 windows
    # are centered on the point and on the ring offsets the training set
    # draws (the same generator, replayed here). Every image gets a flat 3x3
    # patch around the top-left pixel of each of those windows: the Sobel
    # magnitude there is exactly zero, so the first dimension of every
    # sum-normalized row is 0, while the image noise keeps the rest of each
    # window nonzero and no window flat.
    rng = np.random.default_rng(_seed_for(4, 0, 0, 0))
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
    bundle, _ = train_bundle(samples, DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=5),
                             negatives_per_positive=8, seed=4)
    dataset = [(sobel_gradients(equalize_histogram(s.image)).magnitude, s.shape.points)
               for s in samples]
    ts = build_landmark_training_set(dataset, 0, 0, negatives_per_positive=8,
                                     seed=_seed_for(4, 0, 0, 0), size=3)
    constant = ts.features.std(axis=0) == 0.0
    assert constant[0] and not constant.all()
    assert np.all(ts.features[:, 0] == 0.0)
    rows, mean, std = standardized(ts.features)
    assert np.all(std[constant] == 1.0)
    ref = train_linear_svm_reference(rows, ts.labels, epochs=5, seed=_seed_for(4, 0, 0, 1))
    want = folded(ref, mean, std)
    model = bundle.svms[0]
    assert np.all(model.weights[0, constant] == 0.0)
    np.testing.assert_allclose(model.weights[0], want.weights, rtol=1e-12)
    assert model.bias[0] == pytest.approx(want.bias, rel=1e-12)
    raw = decision_values(model, ts.features, 0)
    scaled = decision_values(ref, rows)
    assert np.array_equal(raw >= 0, scaled >= 0)
    np.testing.assert_allclose(raw, scaled, rtol=1e-9, atol=1e-12)
