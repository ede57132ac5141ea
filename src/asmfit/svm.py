"""Linear soft-margin SVM over gradient windows, one per landmark, trained in stacks.

Training minimizes 0.5*|w|^2 + C * sum(hinge) by seeded stochastic
subgradient descent on the bias-augmented problem, averaging the iterates
of the final half of epochs. Prediction is a plain signed hyperplane test;
ties classify +1 so boundary candidates stay in play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassBalanceError, DimensionMismatchError, ShapeArityError
from .profiles import check_numbers, normalize_windows, owner_bounds, readonly, windows_batch

RING_MIN_DEFAULT = 2
RING_MAX_DEFAULT = 8


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

    @property
    def dim(self) -> int:
        return self.weights.shape[-1]


@dataclass(frozen=True)
class SvmTrainConfig:
    c_penalty: float = 1.0
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        reals = check_numbers(vars(self), integers=("epochs", "batch_size", "seed"),
                              reals=("c_penalty",))
        object.__setattr__(self, "c_penalty", reals["c_penalty"])
        if not self.c_penalty > 0:
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
    seeds: tuple | None = None

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
        k = feats.shape[0] if feats.ndim == 3 else 1
        if feats.ndim == 3 and len(self.landmark) != k:
            raise DimensionMismatchError(f"{len(self.landmark)} landmark ids for a stack of {k}")
        if self.seeds is not None and len(self.seeds) != k:
            raise DimensionMismatchError(f"{len(self.seeds)} seeds for a stack of {k}")
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
    dataset,
    landmarks,
    level: int,
    negatives_per_positive: int = 4,
    offset_range=(RING_MIN_DEFAULT, RING_MAX_DEFAULT),
    seeds=None,
    size: int = 15,
) -> LandmarkTrainingSet:
    """Positive/negative sum-normalized gradient windows for a stack of landmarks at one level.

    `dataset` is a sequence of (gradient magnitude array, level-scaled
    (n, 2) landmark positions) pairs. Each image contributes, per landmark,
    one positive window at the annotated point followed by
    negatives_per_positive windows at distinct random offsets whose
    Chebyshev distance lies in offset_range. Landmark landmarks[i] draws
    its offsets from its own generator, seeded seeds[i] (0 when seeds is
    None), image after image. Windows that cross the border are clamped.
    Returns one stack with (k, images * (1 + negatives_per_positive), d)
    features; its SGD seeds are left unset. A non-integer size or a ring
    that negative_ring rejects raises ShapeArityError.
    """
    check_numbers({"size": size}, integers=("size",))
    ring = negative_ring(offset_range, negatives_per_positive)
    landmarks = list(landmarks)
    k = len(landmarks)
    seeds = (0,) * k if seeds is None else tuple(seeds)
    if len(seeds) != k:
        raise DimensionMismatchError(f"{len(seeds)} seeds for a stack of {k}")
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
    """Seeded stochastic subgradient descent on the hinge objective.

    Works on bias-augmented features with regularization 1/(C*m), stepping
    eta_t = 1/(lambda*t); the returned model averages the epoch-final
    iterates of the last half of epochs for stability.

    A stack of k landmarks runs as one loop: every landmark keeps its own
    generator and permutation order, and each step gathers the k batches
    at once. The rows are signed by their labels once, z = y*[x, 1], so a
    step's margins are z_b @ w and its subgradient sum is the violation
    mask @ z_b; multiplying by +/-1 is exact, so the iterates are those of
    the plain y*(x_b @ w) form bit for bit. Returns one LinearSvmModel,
    stacked for a stack.
    """
    k, m, d = len(train_set.landmarks), train_set.count, train_set.features.shape[-1]
    y = train_set.labels.reshape(k, m)
    for landmark, row in zip(train_set.landmarks, y):
        if row.size == 0 or np.all(row == row[0]):
            raise ClassBalanceError(
                f"landmark {landmark} level {train_set.level}: "
                "training set must contain both classes"
            )
    z = np.empty((k, m, d + 1))
    np.multiply(train_set.features.reshape(k, m, d), y[:, :, None], out=z[:, :, :d])
    z[:, :, d] = y
    z = z.reshape(k * m, d + 1)
    seeds = train_set.seeds if train_set.seeds is not None else (config.seed,) * k
    rngs = [np.random.default_rng(seed) for seed in seeds]
    first_row = np.arange(k)[:, None] * m
    lam = 1.0 / (config.c_penalty * m)
    w = np.zeros((k, d + 1))
    t = 0
    batch = min(config.batch_size, m)
    mask = np.empty((k, batch))
    avg = np.zeros((k, d + 1))
    averaged = 0
    for epoch in range(config.epochs):
        order = np.stack([rng.permutation(m) for rng in rngs]) + first_row
        for start in range(0, m, batch):
            idx = order[:, start:start + batch]
            t += 1
            eta = 1.0 / (lam * t)
            zb = z.take(idx, axis=0)
            viol = np.less(np.matmul(zb, w[:, :, None])[:, :, 0], 1.0,
                           out=mask[:, :idx.shape[1]])
            grad = lam * w - np.matmul(viol[:, None, :], zb)[:, 0, :] / idx.shape[1]
            w = w - eta * grad
        if epoch >= config.epochs // 2:
            avg += w
            averaged += 1
    w = (avg / averaged).reshape(train_set.features.shape[:-2] + (d + 1,))
    return LinearSvmModel(w[..., :-1], w[..., -1])


def training_accuracy(model: LinearSvmModel, train_set: LandmarkTrainingSet) -> np.ndarray:
    """Fraction of each landmark's training rows classified right, shape (k,)."""
    k = len(train_set.landmarks)
    weights = model.weights.reshape(k, -1)
    feats = train_set.features.reshape(k, train_set.count, -1)
    decision = np.matmul(feats, weights[:, :, None])[:, :, 0] + np.reshape(model.bias, (k, 1))
    labels = train_set.labels.reshape(decision.shape)
    return np.mean(np.where(decision >= 0, 1.0, -1.0) == labels, axis=1)


def decision_values(model: LinearSvmModel, rows: np.ndarray, landmark=None) -> np.ndarray:
    """Decision values for an (m, d) feature matrix; for a stacked model,
    landmark names the row of the stack to use.

    Two forms score several landmarks in one call with the bytes of the
    indexed form. Without a landmark index, a (k, c, d) stack of rows
    against a stacked model of k landmarks gives each landmark's c values,
    (k, c); the stacked matmul makes the indexed form's matrix-vector
    product once per landmark. With landmark an (m,) array of sorted owner
    indices (see profiles.owner_bounds), row i is scored by classifier
    landmark[i], (m,): each landmark's product runs on its own block of
    rows, and the biases are added once over all rows.
    """
    rows = np.asarray(rows, dtype=float)
    weights, bias = model.weights, model.bias
    if np.ndim(landmark) == 1:
        if weights.ndim != 2 or rows.ndim != 2 or rows.shape[1] != weights.shape[1]:
            raise DimensionMismatchError(f"rows {rows.shape} vs SVM weights {weights.shape} "
                                         "(owner indices need a stacked model and (m, d) rows)")
        bounds = owner_bounds(landmark, len(rows), len(weights))
        out = np.empty(len(rows))
        for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
            np.matmul(rows[a:b], weights[j], out=out[a:b])
        out += bias[landmark]
        return out
    if landmark is not None:
        weights, bias = weights[landmark], bias[landmark]
    if rows.ndim == 3 and weights.ndim == 2:
        if weights.shape != rows.shape[::2]:
            raise DimensionMismatchError(f"rows {rows.shape} vs SVM weights {weights.shape}")
        return np.matmul(rows, weights[:, :, None])[:, :, 0] + bias[:, None]
    if weights.shape != rows.shape[-1:]:
        raise DimensionMismatchError(f"profile dim {rows.shape[-1]} vs SVM weights {weights.shape} "
                                     "(a stacked SVM needs a landmark index)")
    return rows @ weights + bias
