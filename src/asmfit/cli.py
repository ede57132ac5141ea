"""Command-line surface: train, fit, eval."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataset_io import (
    load_annotated,
    load_bundle,
    load_image,
    save_bundle,
    save_ppm,
    write_points_file,
)
from .errors import AsmFitError, BoxError, DatasetError, ShapeArityError
from .evaluation import evaluate, format_report
from .imaging import GrayImage, build_pyramid
from .scheme import DEFAULT_SCHEME, LandmarkScheme
from .search import FitConfig, config_for_mode, fit, init_shape_from_box
from .svm import SvmTrainConfig
from .training import TrainConfig, train_bundle

# Config keys passed unchanged to FitConfig and to train_bundle (TrainConfig);
# the config's classic_profile_length is TrainConfig's classic_length.
_FIT_KEYS = ("levels", "search_radius", "max_iters_per_level", "convergence", "c",
             "canny_low", "canny_high")
_TRAIN_KEYS = ("profile_lengths", "variance_fraction", "clamp_alpha", "eps",
               "negatives_per_positive", "offset_range", "seed")
_CONFIG_KEYS = {"scheme", "svm", "classic_profile_length", *_FIT_KEYS, *_TRAIN_KEYS}
_SVM_KEYS = {"c_penalty", "epochs"}

MARKER_COLOR = (255, 0, 0)
# The nine pixels of a landmark marker, relative to its rounded position.
_MARKER_OFFSETS = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), axis=-1).reshape(9, 2)
GROUP_PALETTE = (
    (0, 200, 0), (0, 128, 255), (255, 200, 0), (200, 0, 200),
    (0, 220, 220), (255, 128, 0), (128, 128, 255), (0, 80, 160),
)


def load_train_settings(path):
    """The scheme and train_bundle's keyword arguments from a JSON file of
    training settings (no file when path is None); absent keys take the
    constructors' defaults.

    A file that is not a JSON object of known keys with usable values
    raises DatasetError naming the file, before any training image is read.
    """
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DatasetError(f"{path}: not a JSON training config: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("svm", {}), dict):
        raise DatasetError(f"{path}: the training config and its svm entry must be JSON objects")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise DatasetError(f"{path}: unknown config keys: {sorted(unknown)}")
    svm_unknown = set(raw.get("svm", {})) - _SVM_KEYS
    if svm_unknown:
        raise DatasetError(f"{path}: unknown svm config keys: {sorted(svm_unknown)}")
    settings = {key: raw[key] for key in _TRAIN_KEYS if key in raw}
    if "classic_profile_length" in raw:
        settings["classic_length"] = raw["classic_profile_length"]
    try:
        scheme = LandmarkScheme.from_jsonable(raw["scheme"]) if "scheme" in raw else DEFAULT_SCHEME
        settings["fit_config"] = FitConfig(**{key: raw[key] for key in _FIT_KEYS if key in raw})
        settings["svm_config"] = SvmTrainConfig(**raw.get("svm", {}))
        TrainConfig(**settings)
    except (AsmFitError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: bad training config value: {exc}") from exc
    return {"scheme": scheme, **settings}


def cmd_train(args) -> int:
    settings = load_train_settings(args.config)
    scheme = settings.pop("scheme")
    samples = load_annotated(args.images, args.points, scheme)
    bundle, summary = train_bundle(samples, scheme, **settings)
    save_bundle(bundle, args.out)
    print(f"modes: {summary.retained_modes}, profile ranks per level: "
          f"{' '.join(map(str, summary.level_profile_ranks))}")
    for lv, (pos, neg) in enumerate(zip(summary.level_positives, summary.level_negatives)):
        print(f"level {lv}: {pos} positive, {neg} negative windows")
    for lv, (mean, low) in enumerate(zip(summary.level_accuracy_mean, summary.level_accuracy_min)):
        print(f"level {lv}: SVM training accuracy mean {mean:.3f}, min {low:.3f}")
    return 0


def _parse_box(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise BoxError(f"box must be x,y,w,h, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise BoxError(f"non-numeric box component in {text!r}") from None


def render_overlay(image: GrayImage, shape, scheme) -> np.ndarray:
    """Gray image as RGB with contour segments and red 3x3 landmark markers.

    Each segment a -> b is sampled at max(2, ceil(2 |b - a|)) evenly spaced
    points, rounded half to even; groups draw in scheme order, so a later
    group covers an earlier one, and the markers cover both. A scheme that
    does not cover the shape's landmarks raises ShapeArityError.
    """
    if scheme.total != shape.n:
        raise ShapeArityError(f"scheme covers {scheme.total} landmarks, shape has {shape.n}")
    rgb = np.repeat(
        np.clip(np.rint(image.pixels), 0, 255).astype(np.uint8)[:, :, None], 3, axis=2
    )
    for gi, (group, (_, sl)) in enumerate(zip(scheme.groups, scheme.group_slices())):
        a = shape.points[sl]
        b = np.roll(a, -1, axis=0)
        if not group.closed:
            a, b = a[:-1], b[:-1]
        delta = b - a
        # vecdot rounds like np.linalg.norm of one segment, so the counts match it.
        steps = np.maximum(2, np.ceil(np.sqrt(np.vecdot(delta, delta)) * 2)).astype(int)
        t = np.concatenate([np.linspace(0.0, 1.0, n) for n in steps])
        seg = np.repeat(np.arange(len(a)), steps)
        _paint(rgb, a[seg] + t[:, None] * delta[seg], GROUP_PALETTE[gi % len(GROUP_PALETTE)])
    _paint(rgb, (np.rint(shape.points)[:, None, :] + _MARKER_OFFSETS).reshape(-1, 2),
           MARKER_COLOR)
    return rgb


def _paint(rgb: np.ndarray, xy: np.ndarray, color) -> None:
    """Set the pixel at every rounded (x, y) row of xy that lies inside rgb."""
    h, w = rgb.shape[:2]
    px = np.rint(xy)
    inside = (px[:, 0] >= 0) & (px[:, 0] < w) & (px[:, 1] >= 0) & (px[:, 1] < h)
    px = px[inside].astype(np.intp)
    rgb[px[:, 1], px[:, 0]] = color


def cmd_fit(args) -> int:
    bundle = load_bundle(args.model)
    image = load_image(args.image)
    box = _parse_box(args.box)
    config = config_for_mode(bundle, args.mode)
    pyramid = build_pyramid(image, config.levels)
    init = init_shape_from_box(bundle.shape_model, box)
    result = fit(pyramid, bundle, init, config)
    write_points_file(result.shape, args.out)
    if args.overlay:
        save_ppm(render_overlay(image, result.shape, bundle.scheme), args.overlay)
    iters = ", ".join(f"level {lv}: {n}" for lv, n in enumerate(result.iterations))
    print(f"fit iterations: {iters}")
    print(f"wrote {args.out}")
    return 0


def truth_box(shape, inflate: float):
    """Ground-truth bounding box inflated by `inflate`, center kept."""
    x0, y0, x1, y1 = shape.bounding_box()
    w, h = x1 - x0, y1 - y0
    pad_x, pad_y = w * inflate / 2, h * inflate / 2
    return (x0 - pad_x, y0 - pad_y, w * (1 + inflate), h * (1 + inflate))


def cmd_eval(args) -> int:
    bundle = load_bundle(args.model)
    samples = load_annotated(args.images, args.points, bundle.scheme)
    config = config_for_mode(bundle, args.mode)
    fitted = []
    for sample in samples:
        pyramid = build_pyramid(sample.image, config.levels)
        init = init_shape_from_box(bundle.shape_model, truth_box(sample.shape, args.box_inflate))
        fitted.append(fit(pyramid, bundle, init, config).shape)
    report = evaluate(
        fitted,
        [s.shape for s in samples],
        scheme=bundle.scheme,
        metric=args.metric,
        method=args.mode,
        image_names=[s.name for s in samples],
    )
    Path(args.report).write_text(format_report(report))
    print(f"method: {args.mode}")
    print(f"E_ave: {report.e_ave:.6f}")
    print(f"wrote {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmfit",
        description="Statistical shape-model face alignment: train, fit, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model bundle from annotated images")
    p_train.add_argument("--images", required=True, help="directory of .pgm images")
    p_train.add_argument("--points", required=True, help="directory of .pts annotations")
    p_train.add_argument("--config", default=None, help="JSON training settings")
    p_train.add_argument("--out", required=True, help="output bundle path")
    p_train.set_defaults(func=cmd_train)

    p_fit = sub.add_parser("fit", help="fit landmarks to one image")
    p_fit.add_argument("--model", required=True, help="trained bundle")
    p_fit.add_argument("--image", required=True, help="input .pgm image")
    p_fit.add_argument("--box", required=True, help="face box as x,y,w,h")
    p_fit.add_argument("--out", required=True, help="output .pts path")
    p_fit.add_argument("--overlay", default=None, help="optional overlay .ppm path")
    p_fit.add_argument("--mode", choices=("classic", "asm_svm"), default="asm_svm")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="fit a test set and report mean landmark error")
    p_eval.add_argument("--model", required=True, help="trained bundle")
    p_eval.add_argument("--images", required=True, help="directory of .pgm images")
    p_eval.add_argument("--points", required=True, help="directory of .pts annotations")
    p_eval.add_argument("--mode", choices=("classic", "asm_svm"), required=True)
    p_eval.add_argument("--report", required=True, help="output report path")
    p_eval.add_argument("--box-inflate", type=float, default=0.10,
                        help="fractional bounding-box inflation (default 0.10)")
    p_eval.add_argument("--metric", choices=("euclidean", "abs-coord"), default="euclidean")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AsmFitError, OSError) as exc:
        print(f"asmfit {args.command}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
