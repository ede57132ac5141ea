"""Scalar SVM forms used as independent oracles in tests.

train_linear_svm_reference solves the library trainer's objective,
0.5*|w|^2 + C * sum(max(0, 1 - y*(x.w + b))^2), one landmark at a time in
a plain loop: dense Newton steps on the features and labels as given, with
the inactive rows masked out of the full (d+1) x (d+1) system. Each step is
halved until the objective does not rise, and the loop stops when a full
step keeps the active set. The objective is strictly convex, so the
library's stacked trainer must reach the same weights to rounding.

build_landmark_training_set_reference gathers one landmark's windows at a
time, each image's positive and negatives with their own windows_batch
call, as the library did before it gathered a whole stack image by image.
negative_picks_reference gives its negatives: one (images, negatives) draw
from the landmark's generator, then Floyd's rule image by image in plain
Python, where the library runs it over every image and landmark at once.

predict scores one profile at a time, the form the library's row-matrix
decision_values replaces. svm_objective is the primal objective of one
landmark's model, and kkt_residual the size of its gradient at a trained
model, one value per landmark. landmark_svm gives one landmark's classifier
out of a stacked model, which the library scores with one owner index per
row.
"""

import numpy as np

from asmfit.errors import DimensionMismatchError
from asmfit.profiles import normalize_windows, windows_batch
from asmfit.svm import (
    LandmarkTrainingSet,
    LinearSvmModel,
    _ring_offsets,
    decision_values,
)


def landmark_svm(model: LinearSvmModel, j) -> LinearSvmModel:
    """Landmark j's unstacked classifier; its weights are a view of row j of
    the stack, so they keep the alignment the stacked scorer reads them with."""
    return LinearSvmModel(model.weights[j], model.bias[j])


def predict(model: LinearSvmModel, values) -> tuple:
    """(label, decision value) of one profile; decision >= 0 classifies +1."""
    g = np.asarray(getattr(values, "values", values), dtype=float).ravel()
    if g.size != model.weights.shape[-1]:
        raise DimensionMismatchError(f"profile dim {g.size} vs SVM dim {model.weights.shape[-1]}")
    decision = float(g @ model.weights + model.bias)
    return (1 if decision >= 0 else -1), decision


def train_linear_svm_reference(train_set: LandmarkTrainingSet,
                               c_penalty: float = 1.0) -> LinearSvmModel:
    """The minimizer of the squared-hinge objective for each landmark of a
    training set, one or stacked, as a model of the same form."""
    features = train_set.features.reshape(-1, train_set.count, train_set.features.shape[-1])
    labels = train_set.labels.reshape(len(features), -1)
    weights = []
    for x, y in zip(features, labels):
        x = np.hstack([x, np.ones((len(y), 1))])

        def objective(w):
            return 0.5 * w @ w + c_penalty * np.sum(np.maximum(0.0, 1.0 - y * (x @ w)) ** 2)

        w = np.zeros(x.shape[1])
        for _ in range(1000):
            active = (y * (x @ w) < 1.0).astype(float)
            hessian = np.eye(len(w)) + 2.0 * c_penalty * (x.T * active) @ x
            target = np.linalg.solve(hessian, 2.0 * c_penalty * x.T @ (active * y))
            step = 1.0
            while objective(w + step * (target - w)) > objective(w) and step > 1e-12:
                step /= 2
            w = w + step * (target - w)
            if step == 1.0 and np.array_equal(y * (x @ w) < 1.0, active == 1.0):
                break
        else:
            raise AssertionError("no repeated active set in 1000 iterations")
        weights.append(w)
    w = np.array(weights).reshape(train_set.features.shape[:-2] + (-1,))
    return LinearSvmModel(w[..., :-1], w[..., -1])


def negative_picks_reference(rng, images, ring_size, negatives):
    """Per image, a list of distinct ring indices by Floyd's sampling: slot t
    of one (images, negatives) draw lies in [0, top], top = ring_size -
    negatives + t, and gives way to top when an earlier slot holds it."""
    tops = np.arange(ring_size - negatives, ring_size)
    picks = []
    for row in rng.integers(0, tops + 1, size=(images, negatives)).tolist():
        chosen = []
        for top, value in zip(tops.tolist(), row):
            chosen.append(top if value in chosen else value)
        picks.append(chosen)
    return picks


def build_landmark_training_set_reference(dataset, landmark, level, negatives_per_positive=4,
                                          offset_range=(2, 8), seed=0, size=15):
    """One landmark's training set: per image, the positive window at the
    point, then negatives at distinct ring offsets drawn from one generator;
    windows crossing the border are clamped."""
    ring = _ring_offsets(*offset_range)
    picks = negative_picks_reference(np.random.default_rng(seed), len(dataset), len(ring),
                                     negatives_per_positive)
    rows = [np.empty((0, size * size))]
    labels = []
    for (magnitude, points), pick in zip(dataset, picks):
        center = np.asarray(points, dtype=float)[landmark]
        centers = np.vstack([center[None, :], center[None, :] + ring[pick]])
        rows.append(normalize_windows(windows_batch(magnitude, centers, size), "sum"))
        labels.extend([1.0] + [-1.0] * negatives_per_positive)
    return LandmarkTrainingSet(np.vstack(rows), np.array(labels), landmark, level)


def svm_objective(model: LinearSvmModel, train_set: LandmarkTrainingSet, c_penalty: float) -> float:
    """Primal objective 0.5*|w|^2 + C * sum(max(0, 1 - y*f(x))^2) of one landmark's model."""
    f = decision_values(model, train_set.features)
    hinge = np.maximum(0.0, 1.0 - train_set.labels * f)
    return 0.5 * float(model.weights @ model.weights + model.bias**2) + c_penalty * float(
        (hinge**2).sum())


def kkt_residual(model: LinearSvmModel, train_set: LandmarkTrainingSet, c_penalty: float):
    """Per landmark, the largest entry of the objective's gradient
    w - 2C * Z_A^T (1 - Z_A w), relative to the largest weight, where z =
    y*[x, 1] and A = {z.w < 1} is the active set that w itself defines."""
    k, m, d = len(train_set.landmarks), train_set.count, train_set.features.shape[-1]
    y = train_set.labels.reshape(k, m, 1)
    z = np.concatenate([train_set.features.reshape(k, m, d), np.ones((k, m, 1))], axis=2) * y
    w = np.concatenate([model.weights.reshape(k, d), np.reshape(model.bias, (k, 1))], axis=1)
    slack = np.maximum(0.0, 1.0 - np.einsum("kmd,kd->km", z, w))
    grad = w - 2.0 * c_penalty * np.einsum("km,kmd->kd", slack, z)
    return np.abs(grad).max(axis=1) / np.abs(w).max(axis=1)
