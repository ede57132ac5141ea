"""Command-line surface: train, fit, eval."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
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
from .errors import AsmFitError, DatasetError, check_scheme_covers
from .evaluation import evaluate, format_report
from .imaging import GrayImage, build_pyramid, marks, paint, segment_points
from .scheme import DEFAULT_SCHEME, LandmarkScheme
from .search import FitConfig, config_for_mode, fit, init_shape_from_box
from .svm import SvmTrainConfig
from .training import TrainConfig, train_bundle

# Config keys passed unchanged to FitConfig (the fit command sets its mode),
# to train_bundle (TrainConfig) and, under "svm", to SvmTrainConfig; the
# config's classic_profile_length is TrainConfig's classic_length.
_FIT_KEYS = [f.name for f in fields(FitConfig) if f.name != "mode"]
_TRAIN_KEYS = [f.name for f in fields(TrainConfig)
               if f.name not in ("fit_config", "svm_config", "classic_length")]
_CONFIG_KEYS = {"scheme", "svm", "classic_profile_length", *_FIT_KEYS, *_TRAIN_KEYS}
_SVM_KEYS = {f.name for f in fields(SvmTrainConfig)}

MARKER_COLOR = (255, 0, 0)
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
    bundle, accuracy = train_bundle(samples, scheme, **settings)
    save_bundle(bundle, args.out)
    print(f"modes: {bundle.shape_model.num_modes}, profile ranks per level: "
          f"{' '.join(str(stats.rank) for stats in bundle.asm_profiles.stats)}")
    positives = bundle.train_meta["samples"] * scheme.total
    negatives = positives * bundle.train_meta["negatives_per_positive"]
    for lv in range(len(bundle.svms)):
        print(f"level {lv}: {positives} positive, {negatives} negative windows")
    for lv, row in enumerate(accuracy):
        print(f"level {lv}: SVM training accuracy mean {row.mean():.3f}, min {row.min():.3f}")
    return 0


def render_overlay(image: GrayImage, shape, scheme) -> np.ndarray:
    """Gray image as RGB with contour segments and red 3x3 landmark markers.

    Each segment a -> b is sampled at max(2, ceil(2 |b - a|)) evenly spaced
    points, rounded half to even; groups draw in scheme order, so a later
    group covers an earlier one, and the markers cover both. A scheme that
    does not cover the shape's landmarks raises ShapeArityError.
    """
    check_scheme_covers(scheme, shape)
    rgb = np.repeat(
        np.clip(np.rint(image.pixels), 0, 255).astype(np.uint8)[:, :, None], 3, axis=2
    )
    for gi, (group, (_, sl)) in enumerate(zip(scheme.groups, scheme.group_slices())):
        a = shape.points[sl]
        b = np.roll(a, -1, axis=0)
        if not group.closed:
            a, b = a[:-1], b[:-1]
        paint(rgb, segment_points(a, b), GROUP_PALETTE[gi % len(GROUP_PALETTE)])
    paint(rgb, marks(shape.points), MARKER_COLOR)
    return rgb


def _fit_from_box(bundle, image: GrayImage, box, config):
    """The fit of image from the mean shape stretched over box; a malformed
    box raises BoxError before the pyramid is built."""
    init = init_shape_from_box(bundle.shape_model, box)
    return fit(build_pyramid(image, config.levels), bundle, init, config)


def cmd_fit(args) -> int:
    bundle = load_bundle(args.model)
    image = load_image(args.image)
    config = config_for_mode(bundle, args.mode)
    result = _fit_from_box(bundle, image, args.box.split(","), config)
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
    fitted = [_fit_from_box(bundle, s.image, truth_box(s.shape, args.box_inflate), config).shape
              for s in samples]
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
    except MemoryError as exc:  # a setting too large for this host, e.g. a huge search radius
        print(f"asmfit {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
