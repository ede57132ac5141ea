"""Linear soft-margin SVM over gradient windows, trained per landmark.

Training minimizes 0.5*|w|^2 + C * sum(hinge) by seeded stochastic
subgradient descent on the bias-augmented problem, averaging the iterates
of the final half of epochs. Prediction is a plain signed hyperplane test;
ties classify +1 so boundary candidates stay in play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassBalanceError, DimensionMismatchError, ShapeArityError
from .profiles import normalize_windows, windows_batch

RING_MIN_DEFAULT = 2
RING_MAX_DEFAULT = 8


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ShapeArityError("SVM parameters must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SvmTrainConfig:
    c_penalty: float = 1.0
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.c_penalty <= 0:
            raise ShapeArityError(f"c_penalty must be positive, got {self.c_penalty}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ShapeArityError("epochs and batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class LandmarkTrainingSet:
    """Feature rows and +/-1 labels at one pyramid level.

    One landmark has (m, d) features, (m,) labels and an int landmark id.
    A stack of k landmarks with equal row counts has (k, m, d) features,
    (k, m) labels and a tuple of k landmark ids. seeds, when given, holds
    one SGD seed per landmark in place of SvmTrainConfig.seed.
    """

    features: np.ndarray
    labels: np.ndarray
    landmark: int | tuple
    level: int
    skipped: int = 0
    seeds: tuple | None = None

    def __post_init__(self):
        # Read-only float arrays are kept as given, so a stack is not copied twice.
        feats = np.asarray(self.features, dtype=float)
        if feats.flags.writeable:
            feats = feats.copy()
        labels = np.array(self.labels, dtype=float)
        if feats.ndim == 2:
            labels = labels.ravel()
        if feats.ndim not in (2, 3) or labels.shape != feats.shape[:-1]:
            raise DimensionMismatchError(
                f"features {feats.shape} do not pair with labels {labels.shape}"
            )
        if labels.size and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ShapeArityError("labels must be +1 or -1")
        k = feats.shape[0] if feats.ndim == 3 else 1
        if feats.ndim == 3 and len(self.landmark) != k:
            raise DimensionMismatchError(f"{len(self.landmark)} landmark ids for a stack of {k}")
        if self.seeds is not None and len(self.seeds) != k:
            raise DimensionMismatchError(f"{len(self.seeds)} seeds for a stack of {k}")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def stack(cls, sets, seeds) -> "LandmarkTrainingSet":
        """One stack of single-landmark sets sharing a level and a row count,
        with one SGD seed per set."""
        features = np.stack([s.features for s in sets])
        features.setflags(write=False)
        return cls(
            features,
            np.stack([s.labels for s in sets]),
            tuple(s.landmark for s in sets),
            sets[0].level,
            sum(s.skipped for s in sets),
            tuple(seeds),
        )

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


def build_landmark_training_set(
    dataset,
    landmark: int,
    level: int,
    negatives_per_positive: int = 4,
    offset_range=(RING_MIN_DEFAULT, RING_MAX_DEFAULT),
    seed: int = 0,
    size: int = 15,
) -> LandmarkTrainingSet:
    """Positive/negative sum-normalized gradient windows for one landmark at one level.

    `dataset` is a sequence of (gradient magnitude array, level-scaled
    (n, 2) landmark positions) pairs. Each image contributes one positive
    window at the annotated point and negatives_per_positive windows at
    distinct random offsets whose Chebyshev distance lies in offset_range.
    Annotated points falling outside the image at this level are skipped
    and counted.
    """
    d_min, d_max = int(offset_range[0]), int(offset_range[1])
    if d_min < 1 or d_max < d_min:
        raise ShapeArityError(f"offset range must satisfy 1 <= d_min <= d_max, got {offset_range}")
    ring = _ring_offsets(d_min, d_max)
    if negatives_per_positive > len(ring):
        raise ShapeArityError(
            f"ring [{d_min}, {d_max}] holds {len(ring)} offsets, "
            f"cannot draw {negatives_per_positive} without replacement"
        )
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    skipped = 0
    for magnitude, points in dataset:
        center = np.asarray(points, dtype=float)[landmark]
        h, w = magnitude.shape
        cx, cy = np.rint(center)
        if not (0 <= cx < w and 0 <= cy < h):
            skipped += 1
            continue
        pick = rng.choice(len(ring), size=negatives_per_positive, replace=False)
        centers = np.vstack([center[None, :], center[None, :] + ring[pick]])
        wins = normalize_windows(windows_batch(magnitude, centers, size), "sum")
        rows.append(wins)
        labels.extend([1.0] + [-1.0] * negatives_per_positive)
    if not rows:
        return LandmarkTrainingSet(
            np.empty((0, size * size)), np.empty(0), landmark, level, skipped
        )
    return LandmarkTrainingSet(np.vstack(rows), np.array(labels), landmark, level, skipped)


def train_linear_svm(train_set: LandmarkTrainingSet, config: SvmTrainConfig):
    """Seeded stochastic subgradient descent on the hinge objective.

    Works on bias-augmented features with regularization 1/(C*m), stepping
    eta_t = 1/(lambda*t); the returned model averages the epoch-final
    iterates of the last half of epochs for stability.

    A stack of k landmarks runs as one loop: every landmark keeps its own
    generator and permutation order, and each step gathers the k batches
    at once. Returns one LinearSvmModel, or a tuple of k for a stack.
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
    w = avg / averaged
    models = tuple(LinearSvmModel(row[:-1], float(row[-1])) for row in w)
    return models if train_set.features.ndim == 3 else models[0]


def training_accuracy(models, train_set: LandmarkTrainingSet) -> np.ndarray:
    """Fraction of each landmark's training rows classified right, shape (k,)."""
    weights = np.stack([model.weights for model in models])
    bias = np.array([model.bias for model in models])
    feats = train_set.features.reshape(len(models), train_set.count, -1)
    decision = np.matmul(feats, weights[:, :, None])[:, :, 0] + bias[:, None]
    labels = train_set.labels.reshape(decision.shape)
    return np.mean(np.where(decision >= 0, 1.0, -1.0) == labels, axis=1)


def decision_values(model: LinearSvmModel, rows: np.ndarray) -> np.ndarray:
    """Decision values for an (m, d) feature matrix."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] != model.dim:
        raise DimensionMismatchError(f"profile dim {rows.shape[-1]} vs SVM dim {model.dim}")
    return rows @ model.weights + model.bias


def svm_objective(model: LinearSvmModel, train_set: LandmarkTrainingSet, c_penalty: float) -> float:
    """Primal objective 0.5*|w|^2 + C * sum hinge(1 - y*f(x))."""
    f = decision_values(model, train_set.features)
    hinge = np.maximum(0.0, 1.0 - train_set.labels * f)
    return 0.5 * float(model.weights @ model.weights + model.bias**2) + c_penalty * float(hinge.sum())
