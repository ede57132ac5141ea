"""Linear soft-margin SVM over gradient windows, one per landmark, trained in stacks.

Training solves 0.5*|w|^2 + C * sum(squared hinge) on the bias-augmented
problem (LIBLINEAR's L2-loss SVM, `-s 2`) exactly, by Newton steps that draw
no random numbers. Prediction is a plain signed hyperplane test; ties
classify +1 so boundary candidates stay in play.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import ClassVar

import numpy as np

from .errors import (ClassBalanceError, DimensionMismatchError, ShapeArityError, check_index,
                     check_integer, check_numbers, check_radius, check_seed, readonly)
from .profiles import normalize_windows, owner_bounds, owner_matmul, windows_batch


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


@dataclass(frozen=True)
class SvmTrainConfig:
    c_penalty: float = 1.0
    epochs: int = 200  # the cap on Newton iterations
    seed: InitVar[int] = 0  # not a setting: the trainer draws no random numbers, so only 0
    batch_size: ClassVar[int] = 32  # not a setting; perfbench's SGD step counter reads it

    def __post_init__(self, seed):
        reals = check_numbers(vars(self), integers=("epochs",), reals=("c_penalty",))
        check_seed("seed", seed)
        if seed != 0:
            raise ShapeArityError(f"seed {seed} is unused: the SVM trainer draws no random "
                                  "numbers, so it must be 0")
        object.__setattr__(self, "c_penalty", reals["c_penalty"])
        if not (0 < self.c_penalty < math.inf and self.ridge < math.inf):
            raise ShapeArityError(f"c_penalty must be positive and finite, and its Newton ridge "
                                  f"0.5 / c_penalty finite, got {self.c_penalty}")
        if self.epochs < 1:
            raise ShapeArityError("epochs must be >= 1")

    @property
    def ridge(self) -> float:
        """The ridge the trainer adds: its objective over C is ridge*|w|^2 + sum of squares."""
        return 0.5 / self.c_penalty


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
    """The ring offsets of offset_range, a pair of radii d_min <= d_max,
    that negative windows are drawn from; raises ShapeArityError unless
    check_radius accepts both radii, negatives_per_positive is an integer
    and the ring holds that many distinct offsets."""
    if not (isinstance(offset_range, (tuple, list)) and len(offset_range) == 2):
        raise ShapeArityError(f"offset_range must be a pair of integers, got {offset_range!r}")
    d_min, d_max = offset_range
    check_radius("offset_range[0]", d_min)
    check_radius("offset_range[1]", d_max)
    check_integer("negatives_per_positive", negatives_per_positive)
    if d_max < d_min:
        raise ShapeArityError(f"offset range must satisfy d_min <= d_max, got {offset_range}")
    ring = _ring_offsets(d_min, d_max)
    if not 0 <= negatives_per_positive <= len(ring):
        raise ShapeArityError(
            f"ring [{d_min}, {d_max}] holds {len(ring)} offsets, "
            f"cannot draw {negatives_per_positive} without replacement"
        )
    return ring


def _seed_for(master: int, level: int, landmark: int) -> int:
    """A landmark's generator seed at a level, computed in Python ints, so a
    numpy integer gives the seed of its value rather than wrapping."""
    return int(master) * 1_000_003 + int(level) * 1_000 + int(landmark)


def _negative_picks(rngs, images: int, ring_size: int, negatives: int) -> np.ndarray:
    """(k, images, negatives) indices into a ring of ring_size offsets, one
    draw from each of the k generators; each (k, image) row is a uniform set
    of distinct indices.

    Floyd's sampling without replacement (Bentley & Floyd, CACM 1987) for
    every image at once: slot t draws from [0, tops[t]], where tops[t] is
    ring_size - negatives + t, and keeps its draw unless an earlier slot of
    its row holds it; then it takes tops[t], which no earlier slot can
    hold. Each draw is row-major, so an image's row does not depend on the
    images after it.
    """
    tops = np.arange(ring_size - negatives, ring_size)
    picks = np.empty((len(rngs), images, negatives), dtype=np.int64)
    for row, rng in zip(picks, rngs):
        row[...] = rng.integers(0, tops + 1, size=(images, negatives))
    for t in range(1, negatives):
        taken = (picks[..., :t] == picks[..., t, None]).any(axis=-1)
        picks[..., t] = np.where(taken, tops[t], picks[..., t])
    return picks


def build_landmark_training_set(
    dataset, landmarks, level: int, *, negatives_per_positive: int, offset_range, seed, size: int
) -> LandmarkTrainingSet:
    """Positive/negative sum-normalized gradient windows for a stack of landmarks at one level.

    `dataset` is a sequence of (gradient magnitude array, level-scaled
    (n, 2) landmark positions) pairs. Each image contributes, per landmark,
    one positive window at the annotated point followed by
    negatives_per_positive windows at distinct random offsets whose
    Chebyshev distance lies in offset_range. Landmark j draws the offsets
    of every image at once from its own generator, seeded _seed_for(seed,
    level, j), whatever its stack (see _negative_picks). Windows that cross
    the border are clamped. Returns one stack with (k, images * (1 +
    negatives_per_positive), d) features. A landmark id that is not an
    integer in [0, n), a level that is not an integer >= 0, a seed that
    check_seed rejects, a non-integer size or a ring that negative_ring
    rejects raises ShapeArityError.
    """
    check_numbers({"size": size}, integers=("size",))
    ring = negative_ring(offset_range, negatives_per_positive)
    check_seed("seed", seed)
    check_index("level", level)
    landmarks = list(landmarks)
    n = min((len(points) for _, points in dataset), default=None)
    for i, j in enumerate(landmarks):
        check_index(f"landmarks[{i}]", j, n)
    k = len(landmarks)
    rngs = [np.random.default_rng(_seed_for(seed, level, j)) for j in landmarks]
    per_image = 1 + negatives_per_positive
    # (k, images, negatives, 2): each landmark's negative offsets in every image.
    offsets = ring[_negative_picks(rngs, len(dataset), len(ring), negatives_per_positive)]
    rows = np.empty((k, len(dataset) * per_image, size * size))
    for i, (magnitude, points) in enumerate(dataset):
        # (k, per_image, 2): each landmark's point, then its negatives' centers.
        centers = np.repeat(np.asarray(points, dtype=float)[landmarks, None], per_image, axis=1)
        centers[:, 1:] += offsets[:, i]
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
    all are active), so it gets the bytes it gets alone. A system whose ridge
    is at most eps times its trace (it rounds away) takes its least-norm solution.

    Returns one LinearSvmModel, stacked for a stack.
    """
    k, m, d = len(train_set.landmarks), train_set.count, train_set.features.shape[-1]
    y = train_set.labels.reshape(k, m)
    for landmark, row in zip(train_set.landmarks, y):
        if row.size == 0 or np.all(row == row[0]):
            raise ClassBalanceError(
                f"landmark {landmark} level {train_set.level}: "
                "training set must contain both classes"
            )
    ridge = config.ridge
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
            lost = ridge <= np.finfo(float).eps * np.trace(system)  # both forms' trace is |rows|^2
            system.flat[::len(system) + 1] += ridge
            rhs = np.ones(counts[j]) if wide else rows.sum(axis=0)
            # A lost ridge may leave the system singular: lstsq gives its least-norm solution.
            solved = np.linalg.lstsq(system, rhs)[0] if lost else np.linalg.solve(system, rhs)
            target[j] = rows.T @ solved if wide else solved
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
    for a stack and its stacked model; one stacked matmul, as in owner_matmul."""
    decision = np.matmul(train_set.features, model.weights[:, :, None])[:, :, 0]
    decision += model.bias[:, None]
    return np.mean(np.where(decision >= 0, 1.0, -1.0) == train_set.labels, axis=1)


def decision_values(model: LinearSvmModel, rows: np.ndarray, owner=None, sums=None) -> np.ndarray:
    """Decision values of an (m, d) feature matrix, (m,).

    One landmark's classifier scores every row. A stacked model needs
    owner, an (m,) array of sorted landmark indices (see
    profiles.owner_bounds), and scores row i by classifier owner[i]: each
    landmark's product runs on its own block of rows (profiles.owner_matmul)
    and the biases are added once over all rows, so every block has the
    bytes of its landmark's classifier alone.

    sums, (m,) and positive, scores rows that are not yet normalized: row i
    gets w.rows[i] + b*sums[i], which is sums[i] times the decision of
    rows[i] / sums[i] and so has its sign (see profiles.homogeneous_rows).
    """
    rows = np.asarray(rows, dtype=float)
    checked = owner_bounds(rows, model.weights, owner)
    bias = model.bias if checked is None else np.take(model.bias, checked[0])
    if sums is not None:
        sums = np.asarray(sums, dtype=float)
        if sums.shape != rows.shape[:1]:
            raise DimensionMismatchError(f"sums {sums.shape} for rows {rows.shape}; need one per row")
        if not (sums > 0).all():
            raise ShapeArityError("sums must be positive: a flat row is scored normalized, with sum 1")
        bias = bias * sums
    if checked is None:
        return rows @ model.weights + bias
    out = owner_matmul(rows, model.weights, checked[1])
    out += bias
    return out
