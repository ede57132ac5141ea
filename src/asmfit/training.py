"""End-to-end model training: shape model, profile statistics, SVMs.

Consumes annotated samples, produces a ModelBundle holding both feature
pipelines (1-D derivative profiles for the classic baseline, 2-D gradient
windows plus per-landmark SVMs for the gated search). Training runs one
pass per pyramid level; there the SVM stacks gather every window once,
and their positive windows are the samples of the 2-D profile statistics.
SGD runs on standardized windows; each SVM is stored folded back onto raw
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset_io import ModelBundle
from .errors import InsufficientDataError, ShapeArityError
from .imaging import build_pyramid, equalize_histogram, sobel_gradients
from .profiles import (
    ProfileModel,
    ProfileStats,
    check_numbers,
    integer_sizes,
    landmark_normals,
    profiles_1d_batch,
    stats_from_matrix,
)
# The SVM stacks gather the windows; perfbench/tracing.py:WRAPS wraps these names here.
from .profiles import normalize_windows, windows_batch  # noqa: F401
from .scheme import LandmarkScheme
from .search import FitConfig
from .shape_model import Shape, build_shape_model, gpa_align
from .svm import (
    LinearSvmModel,
    SvmTrainConfig,
    build_landmark_training_set,
    negative_ring,
    train_linear_svm,
    training_accuracy,
)

# Bound, in floats per training row, on the total row width of the landmark
# SVMs that train in one stacked SGD loop: 8 landmarks of 15x15 windows
# plus bias. A level's landmarks split into the fewest stacks of equal size
# under it, so 68 landmarks train in 1 stack at 3x3, 2 of 34 at 7x7 and 9
# of 7 or 8 at 15x15. Every stack costs the same number of Python steps;
# wider stacks no longer stay in cache (all 68 landmarks of 240 images at
# 15x15 hold 147 MB and run slower).
_SVM_WIDTH = 8 * (15**2 + 1)


@dataclass(frozen=True)
class TrainingSummary:
    """Training counts; per level, SVM accuracy on its own training rows
    as the mean and the minimum over landmarks."""

    retained_modes: int
    level_positives: tuple
    level_negatives: tuple
    level_accuracy_mean: tuple
    level_accuracy_min: tuple


def _seed_for(master: int, level: int, landmark: int, salt: int) -> int:
    return master * 1_000_003 + salt * 500_000 + level * 1_000 + landmark


def _svm_stacks(n: int, size: int) -> list:
    """Landmarks 0..n-1 split in order into the fewest stacks of equal size
    (one more landmark in the first ones) whose rows of size*size features
    plus bias fit in _SVM_WIDTH floats; always at least one landmark."""
    per_stack = max(1, _SVM_WIDTH // (size * size + 1))
    return [run.tolist() for run in np.array_split(np.arange(n), -(-n // per_stack))]


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
    return weights, model.bias - (weights * mean).sum(axis=-1)


def _joined(parts) -> ProfileStats:
    """The statistics of consecutive landmark stacks as one stack."""
    mean, basis, lam, rho = (np.concatenate([getattr(part, name) for part in parts])
                             for name in ("mean", "basis", "lam", "rho"))
    basis.setflags(write=False)  # owned here, so kept without a copy
    return ProfileStats(mean, basis=basis, lam=lam, rho=rho)


def check_train_settings(
    fit_config: FitConfig = None,
    svm_config: SvmTrainConfig = None,
    variance_fraction: float = 0.975,
    clamp_alpha: float = 3.0,
    profile_lengths: tuple = None,
    classic_length: int = 15,
    negatives_per_positive: int = 4,
    offset_range=(2, 8),
    eps: float = 1e-3,
    seed: int = 0,
) -> dict:
    """train_bundle's settings, checked before any image is read.

    Takes train_bundle's keyword arguments with the same defaults. Returns
    fit_config and svm_config with their defaults filled in, the asm window
    sides of every level as "sizes", and variance_fraction, clamp_alpha and
    eps as floats. Raises ShapeArityError as train_bundle documents.
    """
    if fit_config is None:
        fit_config = FitConfig()
    levels = fit_config.levels
    sizes = integer_sizes("profile_lengths",
                          (3, 7, 15)[:levels] if profile_lengths is None else profile_lengths)
    if len(sizes) != levels:
        raise ShapeArityError(f"profile_lengths needs one entry per level, got {len(sizes)} "
                              f"for {levels}")
    integer_sizes("classic_length", (classic_length,))
    negative_ring(offset_range, negatives_per_positive)
    if negatives_per_positive < 1:
        raise ShapeArityError(
            f"negatives_per_positive must be at least 1, got {negatives_per_positive}"
        )
    reals = check_numbers(
        {"seed": seed, "variance_fraction": variance_fraction, "clamp_alpha": clamp_alpha,
         "eps": eps},
        integers=("seed",), reals=("variance_fraction", "clamp_alpha", "eps"),
    )
    if svm_config is None:
        svm_config = SvmTrainConfig()
    if svm_config.seed != SvmTrainConfig.seed:
        raise ShapeArityError(
            f"svm_config.seed {svm_config.seed} is unused: every SVM's seed derives from "
            f"train_bundle's seed, so it must stay {SvmTrainConfig.seed}"
        )
    return {"fit_config": fit_config, "svm_config": svm_config, "sizes": sizes, **reals}


def train_bundle(
    samples,
    scheme: LandmarkScheme,
    fit_config: FitConfig = None,
    svm_config: SvmTrainConfig = None,
    variance_fraction: float = 0.975,
    clamp_alpha: float = 3.0,
    profile_lengths: tuple = None,
    classic_length: int = 15,
    negatives_per_positive: int = 4,
    offset_range=(2, 8),
    eps: float = 1e-3,
    seed: int = 0,
):
    """Train every model component from annotated samples.

    profile_lengths holds the asm window side of each of fit_config.levels
    pyramid levels, finest first; None takes the first `levels` of
    (3, 7, 15). The bundle stores fit_config as its fit defaults.

    Returns (ModelBundle, TrainingSummary). Deterministic for a fixed seed:
    all randomness (negative-window placement, SVM batch order) is derived
    from it, so svm_config.seed must keep its default. Mistyped settings,
    fewer than one negative per positive and any other svm_config.seed
    raise ShapeArityError before any work (check_train_settings).
    """
    fit_config, svm_config, sizes, variance_fraction, clamp_alpha, eps = check_train_settings(
        fit_config, svm_config, variance_fraction, clamp_alpha, profile_lengths, classic_length,
        negatives_per_positive, offset_range, eps, seed,
    ).values()
    if len(samples) < 2:
        raise InsufficientDataError(f"need at least 2 training samples, got {len(samples)}")
    levels = fit_config.levels

    aligned, _ = gpa_align([s.shape for s in samples])
    shape_model = build_shape_model(aligned, variance_fraction, clamp_alpha)

    n = scheme.total
    # Per sample and level: the raw image (1-D sampling surface) and its Sobel
    # magnitude after histogram equalization (2-D window surface), kept to the
    # end. Freed level by level they leave a smaller heap, and bundle loads in
    # the same process then page-fault (30 faces at 256x256: ~30% slower).
    surfaces = [[(raw, sobel_gradients(equalize_histogram(raw)).magnitude)
                 for raw in build_pyramid(sample.image, levels).levels] for sample in samples]
    classic_stats = []
    asm_stats = []
    svms = []
    level_acc_mean = []
    level_acc_min = []
    for lv in range(levels):
        points = [sample.shape.points / 2.0**lv for sample in samples]
        # (n, images, d): each landmark's rows in one contiguous block.
        one_d_rows = [profiles_1d_batch(surface[lv][0], pts,
                                        landmark_normals(Shape(pts), scheme), classic_length)
                      for surface, pts in zip(surfaces, points)]
        classic_stats.append(stats_from_matrix(np.stack(one_d_rows, axis=1), eps))
        dataset_lv = [(surface[lv][1], pts) for surface, pts in zip(surfaces, points)]
        weights = np.empty((n, sizes[lv] ** 2))
        biases = np.empty(n)
        stats = []
        accuracy = []
        for run in _svm_stacks(n, sizes[lv]):
            stack = build_landmark_training_set(
                dataset_lv, run, lv,
                negatives_per_positive=negatives_per_positive,
                offset_range=offset_range,
                seeds=[_seed_for(seed, lv, j, 0) for j in run],
                size=sizes[lv],
            )
            # Each image's first row per landmark is the positive window.
            stats.append(stats_from_matrix(stack.features[:, ::1 + negatives_per_positive], eps))
            rows, mean, std = _standardize(stack.features)
            stack = replace(stack, features=rows, seeds=tuple(_seed_for(seed, lv, j, 1) for j in run))
            model = train_linear_svm(stack, svm_config)
            accuracy.extend(training_accuracy(model, stack))
            weights[run], biases[run] = _fold(model, mean, std)
        asm_stats.append(_joined(stats))
        svms.append(LinearSvmModel(weights, biases))
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
        level_positives=(len(samples) * n,) * levels,
        level_negatives=(len(samples) * n * negatives_per_positive,) * levels,
        level_accuracy_mean=tuple(level_acc_mean),
        level_accuracy_min=tuple(level_acc_min),
    )
    return bundle, summary
