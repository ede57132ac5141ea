"""Scalar SVM forms used as independent oracles in tests.

train_linear_svm_reference is the trainer as it was before landmarks were
stacked: one Python loop of seeded mini-batch subgradient steps per
landmark, selecting the margin violators of each batch by boolean
compaction. The library's stacked trainer must reproduce it to rounding
for every landmark of a stack.

build_landmark_training_set_reference gathers one landmark's windows at a
time, each image's positive and negatives with their own windows_batch
call, as the library did before it gathered a whole stack image by image.

predict scores one profile at a time, the form the library's row-matrix
decision_values replaces.
"""

import numpy as np

from asmfit.errors import ClassBalanceError, DimensionMismatchError
from asmfit.profiles import normalize_windows, windows_batch
from asmfit.svm import LandmarkTrainingSet, LinearSvmModel, _ring_offsets


def predict(model: LinearSvmModel, values) -> tuple:
    """(label, decision value) of one profile; decision >= 0 classifies +1."""
    g = np.asarray(getattr(values, "values", values), dtype=float).ravel()
    if g.size != model.dim:
        raise DimensionMismatchError(f"profile dim {g.size} vs SVM dim {model.dim}")
    decision = float(g @ model.weights + model.bias)
    return (1 if decision >= 0 else -1), decision


def train_linear_svm_reference(features, labels, c_penalty=1.0, epochs=200,
                               batch_size=32, seed=0, landmark=0, level=0):
    y = np.asarray(labels, dtype=float)
    if y.size == 0 or np.all(y == y[0]):
        raise ClassBalanceError(
            f"landmark {landmark} level {level}: training set must contain both classes"
        )
    x = np.hstack([np.asarray(features, dtype=float), np.ones((y.size, 1))])
    m, d = x.shape
    lam = 1.0 / (c_penalty * m)
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    t = 0
    batch = min(batch_size, m)
    avg = np.zeros(d)
    averaged = 0
    for epoch in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, batch):
            idx = order[start:start + batch]
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[idx] * (x[idx] @ w)
            viol = margin < 1.0
            grad = lam * w - (y[idx][viol] @ x[idx][viol]) / idx.size
            w = w - eta * grad
        if epoch >= epochs // 2:
            avg += w
            averaged += 1
    w = avg / averaged
    return LinearSvmModel(w[:-1], float(w[-1]))


def build_landmark_training_set_reference(dataset, landmark, level, negatives_per_positive=4,
                                          offset_range=(2, 8), seed=0, size=15):
    """One landmark's training set: per image, the positive window at the
    point, then negatives at distinct ring offsets drawn from one generator;
    windows crossing the border are clamped."""
    ring = _ring_offsets(*offset_range)
    rng = np.random.default_rng(seed)
    rows = [np.empty((0, size * size))]
    labels = []
    for magnitude, points in dataset:
        center = np.asarray(points, dtype=float)[landmark]
        pick = rng.choice(len(ring), size=negatives_per_positive, replace=False)
        centers = np.vstack([center[None, :], center[None, :] + ring[pick]])
        rows.append(normalize_windows(windows_batch(magnitude, centers, size), "sum"))
        labels.extend([1.0] + [-1.0] * negatives_per_positive)
    return LandmarkTrainingSet(np.vstack(rows), np.array(labels), landmark, level)
