"""Exception types raised by the toolkit, and the argument rules that raise them.

Each argument rule that more than one module applies lives here, once. The
check_* rules, check_scheme_covers among them, raise ShapeArityError, except
check_scale (DegenerateShapeError) and check_canny_thresholds on reals out of
range (ThresholdError); readonly is the one way a value type keeps an array.
"""

import numbers

import numpy as np


class AsmFitError(Exception):
    """Base class for all toolkit errors."""


class ShapeArityError(AsmFitError):
    """Landmark or parameter count does not match what an operation expects."""


class DegenerateShapeError(AsmFitError):
    """Shape has no usable geometry (zero centroid size, non-finite coordinates)."""


class ImageSizeError(AsmFitError):
    """Image is too small for the requested operation."""


class ThresholdError(ShapeArityError):
    """Invalid hysteresis threshold pair."""


class InsufficientDataError(AsmFitError):
    """Too few samples to estimate the requested statistics."""


class DimensionMismatchError(AsmFitError):
    """Vector or matrix dimensions disagree."""


class ClassBalanceError(AsmFitError):
    """Classifier training set lacks one of the two classes."""


class PointsParseError(AsmFitError):
    """Malformed landmark points file."""


class PgmDecodeError(AsmFitError):
    """Malformed or unsupported PGM image payload."""


class BundleVersionError(AsmFitError):
    """Model bundle was written with an unsupported format version."""


class BundleCorruptionError(AsmFitError):
    """Model bundle failed an integrity check."""


class SplitError(AsmFitError):
    """Invalid train/test partition request."""


class BoxError(AsmFitError):
    """Degenerate initialization box."""


class InitializationError(AsmFitError):
    """Initial shape unusable for fitting (e.g. entirely outside the image)."""


class DatasetError(AsmFitError):
    """Problem assembling a training dataset (pairing, bounds, scheme mismatch)."""


def check_integer(name: str, value) -> None:
    """Raise ShapeArityError unless value is an integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ShapeArityError(f"{name} must be an integer, got {value!r}")


def check_numbers(values: dict, integers=(), reals=()) -> dict:
    """Raise ShapeArityError unless values[name] is an integer for each name in integers
    and a real number for each in reals; returns the reals as floats, in the order named."""
    for name in integers:
        check_integer(name, values[name])
    floats = {}
    for name in reals:
        if isinstance(values[name], bool) or not isinstance(values[name], numbers.Real):
            raise ShapeArityError(f"{name} must be a real number, got {values[name]!r}")
        try:
            floats[name] = float(values[name])
        except OverflowError:
            raise ShapeArityError(f"{name} is too large for a float") from None
    return floats


def check_odd_size(name: str, size) -> None:
    """Raise ShapeArityError unless size, a profile length or window side, is odd and >= 3."""
    check_integer(name, size)
    if size < 3 or size % 2 == 0:
        raise ShapeArityError(f"{name} must be odd and >= 3, got {size}")


def integer_sizes(name: str, values) -> tuple:
    """values as a tuple of odd integers >= 3, or ShapeArityError naming the first bad name[i]."""
    try:
        sizes = tuple(values)
    except TypeError:
        raise ShapeArityError(f"{name} must be a sequence of integers, got {values!r}") from None
    for i, size in enumerate(sizes):
        check_odd_size(f"{name}[{i}]", size)
    return tuple(int(v) for v in sizes)


def check_levels(levels) -> None:
    """Raise ShapeArityError unless levels, a pyramid's level count, is an integer >= 1."""
    check_integer("levels", levels)
    if levels < 1:
        raise ShapeArityError(f"need at least 1 level, got {levels}")


# Largest Chebyshev radius of a search or of a negative ring. A 68-landmark
# level-2 pass of 15x15 windows gathers 68 * (2r + 1)^2 * 225 floats, about
# 133 MB at 16, so a setting that would ask for terabytes is refused up front.
MAX_RADIUS = 16


def check_radius(name: str, radius) -> None:
    """Raise ShapeArityError unless radius, a Chebyshev radius, is an integer in [1, MAX_RADIUS]."""
    check_integer(name, radius)
    if not 1 <= radius <= MAX_RADIUS:
        raise ShapeArityError(f"{name} must be in [1, {MAX_RADIUS}], got {radius}")


def check_seed(name: str, seed) -> None:
    """Raise ShapeArityError unless seed is an integer >= 0, as default_rng takes."""
    check_integer(name, seed)
    if seed < 0:
        raise ShapeArityError(f"{name} must be non-negative, got {seed}")


def check_index(name: str, index, count=None) -> None:
    """Raise ShapeArityError unless index is an integer >= 0 and, when count is given, < count."""
    check_integer(name, index)
    if index < 0 or (count is not None and index >= count):
        below = "" if count is None else f" and < {count}"
        raise ShapeArityError(f"{name} must be >= 0{below}, got {index}")


def check_edge_weight(c) -> None:
    """Raise ShapeArityError unless the edge weight constant is finite and exceeds 1."""
    check_numbers(locals(), reals=("c",))
    if not 1 < c < np.inf:
        raise ShapeArityError(f"edge weight constant must exceed 1 and be finite, got {c}")


def check_canny_thresholds(canny_low, canny_high) -> None:
    """Raise ThresholdError unless 0 <= canny_low <= canny_high < inf; inf marks no edge."""
    check_numbers(locals(), reals=("canny_low", "canny_high"))
    if not 0 <= canny_low <= canny_high < np.inf:
        raise ThresholdError(f"canny_low must be in [0, canny_high] and canny_high finite, "
                             f"got low={canny_low} high={canny_high}")


def check_scheme_covers(scheme, shape) -> None:
    """Raise ShapeArityError unless the landmark scheme covers exactly the shape's landmarks."""
    if scheme.total != shape.n:
        raise ShapeArityError(f"scheme covers {scheme.total} landmarks, shape has {shape.n}")


def check_shape_limits(variance_fraction, clamp_alpha) -> None:
    """Raise ShapeArityError unless 0 < variance_fraction <= 1 and 0 < clamp_alpha < inf."""
    check_numbers(locals(), reals=("variance_fraction", "clamp_alpha"))
    if not 0 < variance_fraction <= 1:
        raise ShapeArityError(f"variance_fraction must be in (0, 1], got {variance_fraction}")
    if not 0 < clamp_alpha < np.inf:
        raise ShapeArityError(f"clamp_alpha must be positive and finite, got {clamp_alpha}")


def check_scale(scale: float) -> None:
    """Raise DegenerateShapeError unless a similarity scale is positive and finite."""
    if not 0 < scale < np.inf:
        raise DegenerateShapeError(f"similarity scale must be positive and finite, got {scale}")


def readonly(values, dtype=float) -> np.ndarray:
    """values as a read-only C-ordered array of dtype, float64 unless given: one that
    already is, such as a decoded bundle array, as it is, and any other as a frozen copy."""
    arr = np.asarray(values, dtype=dtype, order="C")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr
