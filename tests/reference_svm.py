"""Scalar SVM forms used as independent oracles in tests.

train_linear_svm_reference is the trainer as it was before landmarks were
stacked: one Python loop of seeded mini-batch subgradient steps per
landmark, selecting the margin violators of each batch by boolean
compaction. The library's stacked trainer must reproduce it to rounding
for every landmark of a stack.

train_linear_svm_stacked_reference is the stacked trainer as it was before
its rows were signed by their labels: each step gathers the rows and the
labels, multiplies the margins by the labels and selects violators with
np.where. The library's trainer must reproduce it bit for bit.

build_landmark_training_set_reference gathers one landmark's windows at a
time, each image's positive and negatives with their own windows_batch
call, as the library did before it gathered a whole stack image by image.

predict scores one profile at a time, the form the library's row-matrix
decision_values replaces. svm_objective is the primal objective of one
landmark's model. landmark_svm gives one landmark's classifier out of a
stacked model, which the library scores with one owner index per row.
"""

import numpy as np

from asmfit.errors import ClassBalanceError, DimensionMismatchError
from asmfit.profiles import normalize_windows, windows_batch
from asmfit.svm import (
    LandmarkTrainingSet,
    LinearSvmModel,
    SvmTrainConfig,
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


def train_linear_svm_stacked_reference(train_set: LandmarkTrainingSet, config: SvmTrainConfig):
    """Seeded stochastic subgradient descent on the hinge objective.

    Works on bias-augmented features with regularization 1/(C*m), stepping
    eta_t = 1/(lambda*t); the returned model averages the epoch-final
    iterates of the last half of epochs for stability.

    A stack of k landmarks runs as one loop: every landmark keeps its own
    generator and permutation order, and each step gathers the k batches
    at once. Returns one LinearSvmModel, stacked for a stack.
    """
    k, m, d = len(train_set.landmarks), train_set.count, train_set.features.shape[-1]
    y = train_set.labels.reshape(k, m)
    for landmark, row in zip(train_set.landmarks, y):
        if row.size == 0 or np.all(row == row[0]):
            raise ClassBalanceError(
                f"landmark {landmark} level {train_set.level}: "
                "training set must contain both classes"
            )
    x = np.concatenate(
        [train_set.features.reshape(k, m, d), np.ones((k, m, 1))], axis=2
    ).reshape(k * m, d + 1)
    y = y.ravel()
    seeds = train_set.seeds if train_set.seeds is not None else (config.seed,) * k
    rngs = [np.random.default_rng(seed) for seed in seeds]
    first_row = np.arange(k)[:, None] * m
    lam = 1.0 / (config.c_penalty * m)
    w = np.zeros((k, d + 1))
    t = 0
    batch = min(config.batch_size, m)
    avg = np.zeros((k, d + 1))
    averaged = 0
    for epoch in range(config.epochs):
        order = np.stack([rng.permutation(m) for rng in rngs]) + first_row
        for start in range(0, m, batch):
            idx = order[:, start:start + batch]
            t += 1
            eta = 1.0 / (lam * t)
            xb = x.take(idx, axis=0)
            yb = y.take(idx)
            margin = yb * np.matmul(xb, w[:, :, None])[:, :, 0]
            coef = np.where(margin < 1.0, yb, 0.0)
            grad = lam * w - np.matmul(coef[:, None, :], xb)[:, 0, :] / idx.shape[1]
            w = w - eta * grad
        if epoch >= config.epochs // 2:
            avg += w
            averaged += 1
    w = (avg / averaged).reshape(train_set.features.shape[:-2] + (d + 1,))
    return LinearSvmModel(w[..., :-1], w[..., -1])


def svm_objective(model: LinearSvmModel, train_set: LandmarkTrainingSet, c_penalty: float) -> float:
    """Primal objective 0.5*|w|^2 + C * sum hinge(1 - y*f(x))."""
    f = decision_values(model, train_set.features)
    hinge = np.maximum(0.0, 1.0 - train_set.labels * f)
    return 0.5 * float(model.weights @ model.weights + model.bias**2) + c_penalty * float(hinge.sum())
