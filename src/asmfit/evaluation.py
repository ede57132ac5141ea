"""Landmark-error evaluation and plain-text reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeArityError, readonly
from .scheme import LandmarkScheme
from .shape_model import Shape

# Published full-scale results for the two modes, quoted in report footers
# for context (caltech: classic 14.021 / gated 10.548; imm: 11.751 / 7.176).
REFERENCE_FOOTER = (
    "reference_values: caltech classic=14.021 asm_svm=10.548; "
    "imm classic=11.751 asm_svm=7.176"
)


@dataclass(frozen=True, eq=False)
class EvalReport:
    method: str
    metric: str
    n_images: int
    n_landmarks: int
    per_image: np.ndarray
    e_ave: float
    group_errors: tuple
    image_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "per_image", readonly(self.per_image))


def _distances(fitted: Shape, truth: Shape, metric: str) -> np.ndarray:
    diff = fitted.points - truth.points
    if metric == "euclidean":
        return np.linalg.norm(diff, axis=1)
    if metric == "abs-coord":
        return np.abs(diff).sum(axis=1)
    raise ShapeArityError(f"unknown metric {metric!r}, expected euclidean or abs-coord")


def evaluate(
    fitted,
    truth,
    scheme: LandmarkScheme = None,
    metric: str = "euclidean",
    method: str = "",
    image_names=None,
) -> EvalReport:
    """Mean landmark error: average over images of per-image mean distance.

    Per-group means use the scheme when given (and matching); otherwise a
    single "all" group is reported. image_names, when given, names each
    fitted shape; another count of names raises ShapeArityError.
    """
    if len(fitted) != len(truth):
        raise ShapeArityError(f"{len(fitted)} fitted shapes vs {len(truth)} truth shapes")
    if not fitted:
        raise ShapeArityError("nothing to evaluate")
    k = truth[0].n
    for f, t in zip(fitted, truth):
        if f.n != k or t.n != k:
            raise ShapeArityError("landmark counts differ across shapes")
    dists = np.stack([_distances(f, t, metric) for f, t in zip(fitted, truth)])
    per_image = dists.mean(axis=1)
    if scheme is not None and scheme.total == k:
        groups = tuple((name, float(dists[:, sl].mean())) for name, sl in scheme.group_slices())
    else:
        groups = (("all", float(dists.mean())),)
    names = tuple(image_names) if image_names is not None else tuple(
        f"image_{i:03d}" for i in range(len(fitted))
    )
    if len(names) != len(fitted):
        raise ShapeArityError(f"{len(names)} image names for {len(fitted)} fitted shapes")
    return EvalReport(
        method=method,
        metric=metric,
        n_images=len(fitted),
        n_landmarks=k,
        per_image=per_image,
        e_ave=float(per_image.mean()),
        group_errors=groups,
        image_names=names,
    )


def format_report(report: EvalReport) -> str:
    """Diffable text report: key/value lines, then a TSV group table."""
    lines = [
        f"method: {report.method}",
        f"metric: {report.metric}",
        f"images: {report.n_images}",
        f"landmarks: {report.n_landmarks}",
        f"E_ave: {report.e_ave:.6f}",
        "per_image:",
    ]
    for name, err in zip(report.image_names, report.per_image):
        lines.append(f"\t{name}\t{err:.6f}")
    lines.append("group\tmean_error")
    for name, err in report.group_errors:
        lines.append(f"{name}\t{err:.6f}")
    lines.append(REFERENCE_FOOTER)
    return "\n".join(lines) + "\n"
