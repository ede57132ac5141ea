"""End-to-end model training: shape model, profile statistics, SVMs.

Consumes annotated samples, produces a ModelBundle holding both feature
pipelines (1-D derivative profiles for the classic baseline, 2-D gradient
windows plus per-landmark SVMs for the gated search). Training runs one
pass per pyramid level; there the SVM stacks gather every window once,
and their positive windows are the samples of the 2-D profile statistics.
The SVMs train on standardized windows, each stored folded back onto raw
windows. A level's 2-D statistics keep the leading subspace that holds
variance_fraction of every landmark's variance, and fold the rest into the
ridge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset_io import ModelBundle
from .errors import (InsufficientDataError, ShapeArityError, check_numbers, check_odd_size,
                     check_scheme_covers, check_seed, check_shape_limits, integer_sizes)
from .imaging import build_pyramid, equalize_histogram, sobel_gradients
from .profiles import (
    DEFAULT_EPS,
    ProfileModel,
    ProfileStats,
    landmark_normals,
    leading_subspace,
    profiles_1d_batch,
    stats_from_matrix,
    subspace_rank,
)
# The SVM stacks gather the windows; perfbench/tracing.py:WRAPS wraps these names here.
from .profiles import normalize_windows, windows_batch  # noqa: F401
from .scheme import LandmarkScheme
from .search import FitConfig
from .shape_model import (DEFAULT_CLAMP_ALPHA, DEFAULT_VARIANCE_FRACTION, Shape,
                          build_shape_model, gpa_align)
from .svm import (
    LinearSvmModel,
    SvmTrainConfig,
    build_landmark_training_set,
    negative_ring,
    train_linear_svm,
    training_accuracy,
)

# Bound, in floats per training row, on the total row width of the landmark
# SVMs that train as one stack: 8 landmarks of 15x15 windows plus bias. A
# level's landmarks split into the fewest stacks of equal size under it, so
# 68 landmarks train in 1 stack at 3x3, 2 of 34 at 7x7 and 9 of 7 or 8 at
# 15x15. A stack's signed rows copy its windows, so wider stacks hold more
# and train little faster: 240 faces at 128x128 (1 BLAS thread, 2-core Xeon
# VM) took 4.9/4.7/4.6/4.4 s and peaked at 243/261/371/712 MB with stacks
# of 4/8/17/68 landmarks at 15x15.
_SVM_WIDTH = 8 * (15**2 + 1)


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


def _joined(parts, fraction: float) -> ProfileStats:
    """The statistics of consecutive landmark stacks as one stack, cut to
    the least rank that keeps `fraction` of every landmark's variance, with
    the mean and basis stored as float32. The cut and the ridge's share of
    the dropped variance are taken in float64, so lam and rho keep their
    float64 bytes. Each stack is cut as a view, so the join is the only
    copy, and it rounds to float32 as it copies."""
    rank = max(subspace_rank(part, fraction) for part in parts)
    cut = [leading_subspace(part, rank) for part in parts]
    mean, basis, lam, rho = (np.concatenate([fields[name] for fields in cut], dtype=dtype)
                             for name, dtype in (("mean", np.float32), ("basis", np.float32),
                                                 ("lam", float), ("rho", float)))
    mean.setflags(write=False)  # owned here, so kept without a copy
    basis.setflags(write=False)
    return ProfileStats(mean, basis=basis, lam=lam, rho=rho)


@dataclass(frozen=True)
class TrainConfig:
    """train_bundle's settings, checked when built, before any image is read.

    profile_lengths holds the asm window side of each of fit_config.levels
    pyramid levels, finest first; None takes the first `levels` of (3, 7, 15).
    Stores None configs as their defaults, profile_lengths and offset_range
    as tuples and the reals as floats; a mistyped or out-of-range setting
    raises ShapeArityError.
    """

    fit_config: FitConfig = None
    svm_config: SvmTrainConfig = None
    variance_fraction: float = DEFAULT_VARIANCE_FRACTION
    clamp_alpha: float = DEFAULT_CLAMP_ALPHA
    profile_lengths: tuple = None
    classic_length: int = 15
    negatives_per_positive: int = 4
    offset_range: tuple = (2, 8)
    eps: float = DEFAULT_EPS
    seed: int = 0

    def __post_init__(self):
        fit_config = FitConfig() if self.fit_config is None else self.fit_config
        svm_config = SvmTrainConfig() if self.svm_config is None else self.svm_config
        if not (isinstance(fit_config, FitConfig) and isinstance(svm_config, SvmTrainConfig)):
            raise ShapeArityError("fit_config must be a FitConfig and svm_config an SvmTrainConfig")
        levels, default = fit_config.levels, (3, 7, 15)
        if self.profile_lengths is None and levels > len(default):
            raise ShapeArityError(f"the default profile_lengths {default} covers {len(default)} "
                                  f"levels; give profile_lengths for {levels}")
        sizes = integer_sizes("profile_lengths", default[:levels]
                              if self.profile_lengths is None else self.profile_lengths)
        if len(sizes) != levels:
            raise ShapeArityError(f"profile_lengths needs one entry per level, got {len(sizes)} "
                                  f"for {levels}")
        check_odd_size("classic_length", self.classic_length)
        negative_ring(self.offset_range, self.negatives_per_positive)
        if self.negatives_per_positive < 1:
            raise ShapeArityError(
                f"negatives_per_positive must be at least 1, got {self.negatives_per_positive}"
            )
        check_seed("seed", self.seed)
        reals = check_numbers(vars(self), reals=("variance_fraction", "clamp_alpha", "eps"))
        check_shape_limits(reals["variance_fraction"], reals["clamp_alpha"])
        if not 0 <= reals["eps"] < np.inf:
            raise ShapeArityError(f"eps must be finite and non-negative, got {self.eps}")
        filled = {"fit_config": fit_config, "svm_config": svm_config, "profile_lengths": sizes,
                  "offset_range": tuple(self.offset_range)}
        for name, value in {**filled, **reals}.items():
            object.__setattr__(self, name, value)


def train_bundle(samples, scheme: LandmarkScheme, **settings):
    """Train every model component from annotated samples.

    settings are TrainConfig's fields, which checks them before any work;
    the bundle stores its fit_config as the fit defaults.

    Returns (ModelBundle, accuracy), accuracy the read-only (levels, landmarks)
    array of each SVM's accuracy on its own training rows. Deterministic for
    a fixed seed.
    """
    config = TrainConfig(**settings)
    if len(samples) < 2:
        raise InsufficientDataError(f"need at least 2 training samples, got {len(samples)}")
    check_scheme_covers(scheme, samples[0].shape)
    levels = config.fit_config.levels

    aligned, _ = gpa_align([s.shape for s in samples])
    shape_model = build_shape_model(aligned, config.variance_fraction, config.clamp_alpha)

    n = scheme.total
    # Per sample and level: the raw image (1-D sampling surface) and its Sobel
    # magnitude after histogram equalization (2-D window surface), kept to the
    # end. Freed level by level they leave a smaller heap, and bundle loads in
    # the same process then page-fault (30 faces at 256x256: ~30% slower).
    surfaces = [[(raw, sobel_gradients(equalize_histogram(raw)).magnitude)
                 for raw in build_pyramid(sample.image, levels)] for sample in samples]
    classic_stats = []
    asm_stats = []
    svms = []
    accuracy = np.empty((levels, n))
    for lv in range(levels):
        points = [sample.shape.points / 2.0**lv for sample in samples]
        size = config.profile_lengths[lv]
        # (n, images, d): each landmark's rows in one contiguous block.
        one_d_rows = [profiles_1d_batch(surface[lv][0], pts, landmark_normals(Shape(pts), scheme),
                                        config.classic_length)
                      for surface, pts in zip(surfaces, points)]
        classic_stats.append(stats_from_matrix(np.stack(one_d_rows, axis=1), config.eps))
        dataset_lv = [(surface[lv][1], pts) for surface, pts in zip(surfaces, points)]
        weights = np.empty((n, size**2))
        biases = np.empty(n)
        stats = []
        for run in _svm_stacks(n, size):
            stack = build_landmark_training_set(
                dataset_lv, run, lv,
                negatives_per_positive=config.negatives_per_positive,
                offset_range=config.offset_range,
                seed=config.seed,
                size=size,
            )
            # Each image's first row per landmark is the positive window.
            stats.append(stats_from_matrix(stack.features[:, ::1 + config.negatives_per_positive],
                                           config.eps))
            rows, mean, std = _standardize(stack.features)
            stack = replace(stack, features=rows)
            model = train_linear_svm(stack, config.svm_config)
            accuracy[lv, run] = training_accuracy(model, stack)
            weights[run], biases[run] = _fold(model, mean, std)
        asm_stats.append(_joined(stats, config.variance_fraction))
        svms.append(LinearSvmModel(weights, biases))
    accuracy.setflags(write=False)

    bundle = ModelBundle(
        scheme=scheme,
        shape_model=shape_model,
        classic_profiles=ProfileModel("one_d", (config.classic_length,) * levels,
                                      tuple(classic_stats)),
        asm_profiles=ProfileModel("two_d", config.profile_lengths, tuple(asm_stats)),
        svms=tuple(svms),
        fit_defaults=config.fit_config,
        train_meta={
            "seed": config.seed,
            "samples": len(samples),
            "c_penalty": config.svm_config.c_penalty,
            "epochs": config.svm_config.epochs,
            "negatives_per_positive": config.negatives_per_positive,
            "offset_min": int(config.offset_range[0]),
            "offset_max": int(config.offset_range[1]),
            "classic_length": config.classic_length,
            "variance_fraction": config.variance_fraction,
            "clamp_alpha": config.clamp_alpha,
            "eps": config.eps,
        },
    )
    return bundle, accuracy
