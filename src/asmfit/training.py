"""End-to-end model training: shape model, profile statistics, SVMs.

Consumes annotated samples, produces a ModelBundle holding both feature
pipelines (1-D derivative profiles for the classic baseline, 2-D gradient
windows plus per-landmark SVMs for the gated search). SGD runs on
standardized windows; each SVM is stored folded back onto raw windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset_io import ModelBundle
from .errors import InsufficientDataError, ShapeArityError
from .imaging import build_pyramid, equalize_histogram, sobel_gradients
from .profiles import (
    ProfileModel,
    landmark_normals,
    normalize_windows,
    profiles_1d_batch,
    stats_from_matrix,
    windows_batch,
)
from .scheme import LandmarkScheme
from .search import FitConfig
from .shape_model import Shape, build_shape_model, gpa_align
from .svm import (
    LandmarkTrainingSet,
    LinearSvmModel,
    SvmTrainConfig,
    build_landmark_training_set,
    train_linear_svm,
    training_accuracy,
)

# Landmarks whose SVMs train in one stacked SGD loop. Larger stacks save
# Python steps but their rows no longer stay in cache: at the 15x15 level
# a stack of all 68 landmarks of 240 images holds 147 MB and runs slower.
_SVM_GROUP = 8


@dataclass(frozen=True)
class TrainingSummary:
    """Training counts; per level, SVM accuracy on its own training rows
    as the mean and the minimum over landmarks."""

    retained_modes: int
    level_positives: tuple
    level_negatives: tuple
    skipped: int
    level_accuracy_mean: tuple
    level_accuracy_min: tuple


def _seed_for(master: int, level: int, landmark: int, salt: int) -> int:
    return master * 1_000_003 + salt * 500_000 + level * 1_000 + landmark


def _standardize(rows: np.ndarray):
    """(standardized rows, mean, std) per landmark and dimension of a (k, m, d)
    stack. Constant dimensions carry no signal; unit std leaves them at zero."""
    mean = rows.mean(axis=1)
    std = rows.std(axis=1)
    std = np.where(std < 1e-12, 1.0, std)
    rows = (rows - mean[:, None, :]) / std[:, None, :]
    rows.setflags(write=False)  # a training set takes read-only rows without a copy
    return rows, mean, std


def _fold(model: LinearSvmModel, mean: np.ndarray, std: np.ndarray):
    """(weights, biases) of a stacked model trained on standardized rows,
    rewritten for raw rows: w' = w / std and b' = b - w'.mean."""
    weights = model.weights / std
    # One dot per landmark: a stacked sum would round differently.
    return weights, model.bias - np.array([w @ m for w, m in zip(weights, mean)])


def train_bundle(
    samples,
    scheme: LandmarkScheme,
    fit_config: FitConfig = None,
    svm_config: SvmTrainConfig = None,
    variance_fraction: float = 0.975,
    clamp_alpha: float = 3.0,
    classic_length: int = 15,
    negatives_per_positive: int = 4,
    offset_range=(2, 8),
    eps: float = 1e-3,
    seed: int = 0,
):
    """Train every model component from annotated samples.

    Returns (ModelBundle, TrainingSummary). Deterministic for a fixed seed:
    all randomness (negative-window placement, SVM batch order) is derived
    from it.
    """
    if fit_config is None:
        fit_config = FitConfig()
    if fit_config.mode != "asm_svm":
        raise ShapeArityError(
            f"fit_config names mode {fit_config.mode!r}; bundles are trained for asm_svm"
        )
    if len(samples) < 2:
        raise InsufficientDataError(f"need at least 2 training samples, got {len(samples)}")
    if svm_config is None:
        svm_config = SvmTrainConfig()
    levels = fit_config.levels
    sizes = fit_config.profile_lengths

    aligned, _ = gpa_align([s.shape for s in samples])
    shape_model = build_shape_model(aligned, variance_fraction, clamp_alpha)

    # Per level: the raw image (classic 1-D sampling surface), the Sobel
    # magnitude after histogram equalization (2-D window surface), and the
    # annotation scaled into level coordinates.
    level_raw = [[] for _ in range(levels)]
    level_mag = [[] for _ in range(levels)]
    level_pts = [[] for _ in range(levels)]
    for sample in samples:
        pyramid = build_pyramid(sample.image, levels)
        for lv in range(levels):
            raw = pyramid.levels[lv]
            grad = sobel_gradients(equalize_histogram(raw))
            level_raw[lv].append(raw)
            level_mag[lv].append(grad.magnitude)
            level_pts[lv].append(sample.shape.points / 2.0**lv)

    n = scheme.total
    classic_stats = []
    asm_stats = []
    svms = []
    level_pos = []
    level_neg = []
    level_acc_mean = []
    level_acc_min = []
    skipped_total = 0
    for lv in range(levels):
        one_d_rows = []
        windows = []
        for raw, pts in zip(level_raw[lv], level_pts[lv]):
            shape_lv = Shape(pts)
            normals = landmark_normals(shape_lv, scheme)
            one_d_rows.append(profiles_1d_batch(raw, pts, normals, classic_length))
        for mag, pts in zip(level_mag[lv], level_pts[lv]):
            wins = windows_batch(mag, pts, sizes[lv])
            windows.append(normalize_windows(wins, "sum"))
        # (n, images, d): each landmark's rows in one contiguous block.
        one_d_rows = np.stack(one_d_rows, axis=1)
        windows = np.stack(windows, axis=1)
        classic_stats.append(stats_from_matrix(one_d_rows, eps))
        asm_stats.append(stats_from_matrix(windows, eps))

        # The SVM stacks below take about as much memory as these arrays.
        del one_d_rows, windows

        dataset_lv = list(zip(level_mag[lv], level_pts[lv]))
        weights = np.empty((n, sizes[lv] ** 2))
        biases = np.empty(n)
        accuracy = []
        pos = neg = 0
        for first in range(0, n, _SVM_GROUP):
            # Landmarks skipped on some images have fewer rows, so stacks
            # form among the chunk's landmarks of equal row count.
            by_count = {}
            for j in range(first, min(first + _SVM_GROUP, n)):
                ts = build_landmark_training_set(
                    dataset_lv, j, lv,
                    negatives_per_positive=negatives_per_positive,
                    offset_range=offset_range,
                    seed=_seed_for(seed, lv, j, 0),
                    size=sizes[lv],
                )
                skipped_total += ts.skipped
                pos += int(np.sum(ts.labels == 1))
                neg += int(np.sum(ts.labels == -1))
                by_count.setdefault(ts.count, []).append(ts)
            for sets in by_count.values():
                stack = LandmarkTrainingSet.stack(
                    sets, seeds=[_seed_for(seed, lv, s.landmark, 1) for s in sets]
                )
                sets.clear()  # the stack now holds the only copy of these rows
                rows, mean, std = _standardize(stack.features)
                stack = replace(stack, features=rows)
                model = train_linear_svm(stack, svm_config)
                accuracy.extend(training_accuracy(model, stack))
                landmarks = list(stack.landmarks)
                weights[landmarks], biases[landmarks] = _fold(model, mean, std)
        svms.append(LinearSvmModel(weights, biases))
        level_pos.append(pos)
        level_neg.append(neg)
        level_acc_mean.append(float(np.mean(accuracy)))
        level_acc_min.append(float(np.min(accuracy)))

    bundle = ModelBundle(
        scheme=scheme,
        shape_model=shape_model,
        classic_profiles=ProfileModel("one_d", (classic_length,) * levels, tuple(classic_stats)),
        asm_profiles=ProfileModel("two_d", sizes, tuple(asm_stats)),
        svms=tuple(svms),
        fit_defaults=fit_config,
        train_meta={
            "seed": seed,
            "samples": len(samples),
            "c_penalty": svm_config.c_penalty,
            "epochs": svm_config.epochs,
            "batch_size": svm_config.batch_size,
            "negatives_per_positive": negatives_per_positive,
            "offset_min": int(offset_range[0]),
            "offset_max": int(offset_range[1]),
            "classic_length": classic_length,
            "variance_fraction": variance_fraction,
            "clamp_alpha": clamp_alpha,
            "eps": eps,
        },
    )
    summary = TrainingSummary(
        retained_modes=shape_model.num_modes,
        level_positives=tuple(level_pos),
        level_negatives=tuple(level_neg),
        skipped=skipped_total,
        level_accuracy_mean=tuple(level_acc_mean),
        level_accuracy_min=tuple(level_acc_min),
    )
    return bundle, summary
