"""Linear soft-margin SVM over gradient windows, one per landmark, trained in stacks.

Training solves 0.5*|w|^2 + C * sum(squared hinge) on the bias-augmented
problem (LIBLINEAR's L2-loss SVM, `-s 2`) exactly, by Newton steps that draw
no random numbers. Prediction is a plain signed hyperplane test; ties
classify +1 so boundary candidates stay in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ClassBalanceError, DimensionMismatchError, ShapeArityError
from .profiles import (check_numbers, normalize_windows, owner_bounds, owner_matmul, readonly,
                       windows_batch)


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    """Hyperplane weights (d,) and bias of one landmark's classifier, or
    weights (k, d) and biases (k,) of k stacked landmarks; landmark j's
    classifier is row j."""

    weights: np.ndarray
    bias: float | np.ndarray

    def __post_init__(self):
        w = readonly(self.weights)
        b = readonly(self.bias)
        if w.ndim not in (1, 2) or b.shape != w.shape[:-1]:
            raise DimensionMismatchError(f"SVM weights {w.shape} do not pair with biases {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ShapeArityError("SVM parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b if b.ndim else float(b))


def check_seed(name: str, seed) -> None:
    """Raise ShapeArityError unless seed is an integer >= 0, as default_rng takes."""
    check_numbers({name: seed}, integers=(name,))
    if seed < 0:
        raise ShapeArityError(f"{name} must be non-negative, got {seed}")


@dataclass(frozen=True)
class SvmTrainConfig:
    c_penalty: float = 1.0
    epochs: int = 200  # the cap on Newton iterations
    seed: int = 0  # changes nothing: the trainer draws no random numbers
    batch_size: ClassVar[int] = 32  # not a setting; perfbench's SGD step counter reads it

    def __post_init__(self):
        reals = check_numbers(vars(self), integers=("epochs",), reals=("c_penalty",))
        check_seed("seed", self.seed)
        object.__setattr__(self, "c_penalty", reals["c_penalty"])
        if not 0 < self.c_penalty < math.inf:
            raise ShapeArityError(f"c_penalty must be positive and finite, got {self.c_penalty}")
        if self.epochs < 1:
            raise ShapeArityError("epochs must be >= 1")


@dataclass(frozen=True, eq=False)
class LandmarkTrainingSet:
    """Feature rows and +/-1 labels at one pyramid level.

    One landmark has (m, d) features, (m,) labels and an int landmark id.
    A stack of k landmarks with equal row counts has (k, m, d) features,
    (k, m) labels and a tuple of k landmark ids.
    """

    features: np.ndarray
    labels: np.ndarray
    landmark: int | tuple
    level: int

    def __post_init__(self):
        # Read-only float arrays are kept as given, so a stack is not copied twice.
        feats = readonly(self.features)
        labels = readonly(self.labels)
        if feats.ndim == 2:
            labels = labels.ravel()
        if feats.ndim not in (2, 3) or labels.shape != feats.shape[:-1]:
            raise DimensionMismatchError(
                f"features {feats.shape} do not pair with labels {labels.shape}"
            )
        if labels.size and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ShapeArityError("labels must be +1 or -1")
        if feats.ndim == 3 and len(self.landmark) != len(feats):
            raise DimensionMismatchError(f"{len(self.landmark)} ids for a stack of {len(feats)}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        """Rows per landmark."""
        return self.labels.shape[-1]

    @property
    def landmarks(self) -> tuple:
        """Landmark ids, one per stacked landmark."""
        return tuple(self.landmark) if self.features.ndim == 3 else (self.landmark,)


def _ring_offsets(d_min: int, d_max: int) -> np.ndarray:
    """Integer (dx, dy) offsets with Chebyshev norm in [d_min, d_max], row-major."""
    span = np.arange(-d_max, d_max + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    cheb = np.maximum(np.abs(dx), np.abs(dy))
    keep = (cheb >= d_min) & (cheb <= d_max)
    return np.column_stack([dx[keep], dy[keep]])


def negative_ring(offset_range, negatives_per_positive) -> np.ndarray:
    """The ring offsets of offset_range, a pair of integers 1 <= d_min <= d_max,
    that negative windows are drawn from; raises ShapeArityError unless the
    pair and negatives_per_positive are integers and the ring holds that
    many distinct offsets."""
    if not (isinstance(offset_range, (tuple, list)) and len(offset_range) == 2):
        raise ShapeArityError(f"offset_range must be a pair of integers, got {offset_range!r}")
    d_min, d_max = offset_range
    check_numbers({"offset_range[0]": d_min, "offset_range[1]": d_max,
                   "negatives_per_positive": negatives_per_positive},
                  integers=("offset_range[0]", "offset_range[1]", "negatives_per_positive"))
    if d_min < 1 or d_max < d_min:
        raise ShapeArityError(f"offset range must satisfy 1 <= d_min <= d_max, got {offset_range}")
    ring = _ring_offsets(d_min, d_max)
    if not 0 <= negatives_per_positive <= len(ring):
        raise ShapeArityError(
            f"ring [{d_min}, {d_max}] holds {len(ring)} offsets, "
            f"cannot draw {negatives_per_positive} without replacement"
        )
    return ring


def build_landmark_training_set(
    dataset, landmarks, level: int, *, negatives_per_positive: int, offset_range, seeds, size: int
) -> LandmarkTrainingSet:
    """Positive/negative sum-normalized gradient windows for a stack of landmarks at one level.

    `dataset` is a sequence of (gradient magnitude array, level-scaled
    (n, 2) landmark positions) pairs. Each image contributes, per landmark,
    one positive window at the annotated point followed by
    negatives_per_positive windows at distinct random offsets whose
    Chebyshev distance lies in offset_range. Landmark landmarks[i] draws
    its offsets from its own generator, seeded seeds[i], image after
    image. Windows that cross the border are clamped. Returns one stack
    with (k, images * (1 + negatives_per_positive), d) features. A seed that
    check_seed rejects, a non-integer size or a ring that negative_ring
    rejects raises ShapeArityError.
    """
    check_numbers({"size": size}, integers=("size",))
    ring = negative_ring(offset_range, negatives_per_positive)
    landmarks = list(landmarks)
    k = len(landmarks)
    if len(seeds) != k:
        raise DimensionMismatchError(f"{len(seeds)} seeds for a stack of {k}")
    for i, seed in enumerate(seeds):
        check_seed(f"seeds[{i}]", seed)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    per_image = 1 + negatives_per_positive
    rows = np.empty((k, len(dataset) * per_image, size * size))
    for i, (magnitude, points) in enumerate(dataset):
        # (k, per_image, 2): each landmark's point, then its negatives' centers.
        centers = np.repeat(np.asarray(points, dtype=float)[landmarks, None], per_image, axis=1)
        for center, rng in zip(centers, rngs):
            center[1:] += ring[rng.choice(len(ring), size=negatives_per_positive, replace=False)]
        wins = windows_batch(magnitude, centers.reshape(k * per_image, 2), size)
        rows[:, i * per_image:(i + 1) * per_image] = wins.reshape(k, per_image, size * size)
    normalize_windows(rows, "sum", out=rows)
    rows.setflags(write=False)
    labels = np.tile([1.0] + [-1.0] * negatives_per_positive, (k, len(dataset)))
    return LandmarkTrainingSet(rows, labels, tuple(landmarks), level)


def train_linear_svm(train_set: LandmarkTrainingSet, config: SvmTrainConfig):
    """The exact minimizer of 0.5*|w|^2 + C * sum(max(0, 1 - y*(x.w + b))^2)
    by the modified finite Newton method (Keerthi & DeCoste, JMLR 2005).

    On rows signed by their labels, z = y*[x, 1], each iteration solves the
    quadratic of the active rows A = {z.w < 1}: (I/(2C) + Z_A^T Z_A) w' =
    Z_A^T 1, or w' = Z_A^T (I/(2C) + Z_A Z_A^T)^-1 1 when A has fewer rows
    than w has entries. A landmark is done when the full step keeps A, which
    makes w' the optimum; otherwise the step is halved (down to 2^-52) until
    the objective does not rise. config.epochs caps the iterations. A stack
    steps together, but each landmark solves on its own rows (z itself while
    all are active), so it gets the bytes it gets alone.

    Returns one LinearSvmModel, stacked for a stack. A c_penalty for which
    1/(C*m) overflows or underflows raises ShapeArityError.
    """
    k, m, d = len(train_set.landmarks), train_set.count, train_set.features.shape[-1]
    y = train_set.labels.reshape(k, m)
    for landmark, row in zip(train_set.landmarks, y):
        if row.size == 0 or np.all(row == row[0]):
            raise ClassBalanceError(
                f"landmark {landmark} level {train_set.level}: "
                "training set must contain both classes"
            )
    lam = 1.0 / (config.c_penalty * m)
    if not 0 < lam < math.inf:
        raise ShapeArityError(f"c_penalty {config.c_penalty} over {m} rows gives the "
                              f"regularization 1/(C*m) = {lam}; it must be positive and finite")
    ridge = 0.5 / config.c_penalty  # the objective over C is ridge*|w|^2 + sum of squares
    z = np.empty((k, m, d + 1))
    np.multiply(train_set.features.reshape(k, m, d), y[:, :, None], out=z[:, :, :d])
    z[:, :, d] = y
    w, margins, loss = np.zeros((k, d + 1)), np.zeros((k, m)), np.full(k, float(m))
    pending = np.ones(k, dtype=bool)
    for _ in range(config.epochs):
        active = margins < 1.0
        counts = active.sum(axis=1)
        target = w.copy()
        for j in np.flatnonzero(pending):
            rows = z[j] if counts[j] == m else z[j, active[j]]
            wide = counts[j] < d + 1  # fewer rows than unknowns: the push-through form
            system = rows @ rows.T if wide else rows.T @ rows
            system.flat[::len(system) + 1] += ridge
            target[j] = (rows.T @ np.linalg.solve(system, np.ones(counts[j])) if wide
                         else np.linalg.solve(system, rows.sum(axis=0)))
        full = np.matmul(z, target[:, :, None])[:, :, 0]
        done = pending & ((full < 1.0) == active).all(axis=1)
        step = np.ones((k, 1))  # a full step is target itself; finished landmarks keep their bytes
        while True:
            trial = np.where(step < 1.0, w + step * (target - w), target)
            trial_margins = np.where(step < 1.0, margins + step * (full - margins), full)
            trial_loss = (ridge * (trial * trial).sum(axis=1)
                          + (np.maximum(0.0, 1.0 - trial_margins) ** 2).sum(axis=1))
            rising = pending & ~done & (trial_loss > loss) & (step[:, 0] > 2.0**-52)
            if not rising.any():
                break
            step[rising] /= 2
        w, margins, loss = trial, trial_margins, trial_loss
        pending &= ~done
        if not pending.any():
            break
    w = w.reshape(train_set.features.shape[:-2] + (d + 1,))
    return LinearSvmModel(w[..., :-1], w[..., -1])


def training_accuracy(model: LinearSvmModel, train_set: LandmarkTrainingSet) -> np.ndarray:
    """Fraction of each landmark's training rows classified right, shape (k,),
    for a stack and its stacked model."""
    k, m, d = train_set.features.shape
    decision = decision_values(model, train_set.features.reshape(k * m, d),
                               np.repeat(np.arange(k), m)).reshape(k, m)
    return np.mean(np.where(decision >= 0, 1.0, -1.0) == train_set.labels, axis=1)


def decision_values(model: LinearSvmModel, rows: np.ndarray, owner=None) -> np.ndarray:
    """Decision values of an (m, d) feature matrix, (m,).

    One landmark's classifier scores every row. A stacked model needs
    owner, an (m,) array of sorted landmark indices (see
    profiles.owner_bounds), and scores row i by classifier owner[i]: each
    landmark's product runs on its own block of rows (profiles.owner_matmul)
    and the biases are added once over all rows, so every block has the
    bytes of its landmark's classifier alone.
    """
    rows = np.asarray(rows, dtype=float)
    checked = owner_bounds(rows, model.weights, owner)
    if checked is None:
        return rows @ model.weights + model.bias
    owner, bounds = checked
    out = owner_matmul(rows, model.weights, bounds)
    out += np.take(model.bias, owner)
    return out
