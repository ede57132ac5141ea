"""The accuracy suite: held-out faces under four conditions, both modes and
three ablations of the asm_svm pipeline, per window-side set and train seed.

    python tests/suite.py

prints one row per (window sides, train seed, condition) cell: the model
and grid floors, then E_ave px / failed faces for classic, asm_svm and the
ablations, and the choice between the two candidate default sides.

The data is the 100-face split: generate_face_dataset(130, 256, seed=1),
split 30/100 with seed 2. Every fit starts from the truth box inflated by
0.10. A face fails when its mean landmark error exceeds 4 px. The
ablations search the asm_svm level contexts with fields dropped: "no gate"
without the SVMs, "no Canny" without the edge maps, "neither" without
both. The model floor is the E_ave of fit_params of the truth shapes, the
grid floor that of the truth rounded to integers.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: asmfit lives in the repo's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asmfit import search  # noqa: E402
from asmfit.cli import truth_box  # noqa: E402
from asmfit.dataset_io import split_dataset  # noqa: E402
from asmfit.imaging import GrayImage, build_pyramid  # noqa: E402
from asmfit.scheme import DEFAULT_SCHEME  # noqa: E402
from asmfit.shape_model import Shape, fit_params  # noqa: E402
from asmfit.synthetic import generate_face_dataset  # noqa: E402
from asmfit.training import train_bundle  # noqa: E402

SIDES = ((3, 7, 15), (7, 7, 11), (7, 7, 7))
TRAIN_SEEDS = (0, 1)
CONDITIONS = ("clean", "clutter", "noise", "occlusion")
# Pipeline -> (mode, context fields dropped).
PIPELINES = {
    "classic": ("classic", {}),
    "asm_svm": ("asm_svm", {}),
    "no gate": ("asm_svm", {"svms": None}),
    "no Canny": ("asm_svm", {"edge_map": None}),
    "neither": ("asm_svm", {"svms": None, "edge_map": None}),
}
BOX_INFLATE = 0.10
FAIL_PX = 4.0
# The default sides are (7, 7, 7) unless (7, 7, 11) beats them by more than
# WIN_PX E_ave in at least half of the (condition, train seed) cells, or
# fails on at least FEWER_FAILS fewer faces in any one cell.
WIN_PX = 0.02
FEWER_FAILS = 2


def split():
    """(train, test) samples of the 100-face split."""
    return split_dataset(generate_face_dataset(130, 256, seed=1), 30, seed=2)


def clutter(pixels: list) -> list:
    """25 discs per image, drawn in image order from one default_rng(5):
    per disc cx, cy uniform over the image, radius uniform(4, 20) and grey
    uniform(0, 255), painting every pixel within the radius."""
    rng = np.random.default_rng(5)
    out = []
    for px in pixels:
        px = px.copy()
        h, w = px.shape
        ys, xs = np.ogrid[:h, :w]
        for _ in range(25):
            cx, cy = rng.uniform(0, w), rng.uniform(0, h)
            r, grey = rng.uniform(4, 20), rng.uniform(0, 255)
            px[(xs - cx) ** 2 + (ys - cy) ** 2 <= r**2] = grey
        out.append(px)
    return out


def noise(pixels: list) -> list:
    """Gaussian noise of sigma 20 from one default_rng(9), image after image,
    clipped to [0, 255]."""
    rng = np.random.default_rng(9)
    return [np.clip(px + rng.normal(0, 20, px.shape), 0, 255) for px in pixels]


def occlusion(pixels: list, truths: list) -> list:
    """One square per image, 0.35 of the truth box's width on a side, all
    draws from one default_rng(6): its center uniform over the truth box,
    then its grey uniform(0, 255), then normal(0, 5) for each covered pixel;
    clipped to [0, 255]."""
    rng = np.random.default_rng(6)
    out = []
    for px, truth in zip(pixels, truths):
        px = px.copy()
        x0, y0, x1, y1 = truth.bounding_box()
        cx, cy = rng.uniform(x0, x1), rng.uniform(y0, y1)
        grey = rng.uniform(0, 255)
        half = 0.35 * (x1 - x0) / 2
        h, w = px.shape
        ys, xs = np.ogrid[:h, :w]
        covered = (np.abs(xs - cx) <= half) & (np.abs(ys - cy) <= half)
        px[covered] = grey + rng.normal(0, 5, np.count_nonzero(covered))
        out.append(np.clip(px, 0, 255))
    return out


def condition_images(test, condition: str) -> list:
    """The test faces' GrayImages under `condition`."""
    pixels = [s.image.pixels for s in test]
    if condition == "clutter":
        pixels = clutter(pixels)
    elif condition == "noise":
        pixels = noise(pixels)
    elif condition == "occlusion":
        pixels = occlusion(pixels, [s.shape for s in test])
    elif condition != "clean":
        raise KeyError(condition)
    return [GrayImage(px) for px in pixels]


def fit_pipeline(contexts: list, bundle, init: Shape, config) -> Shape:
    """search.fit's level loop on the given level contexts, finest first."""
    shape = Shape(init.points / 2.0 ** (len(contexts) - 1))
    for level in range(len(contexts) - 1, -1, -1):
        shape, *_ = search.fit_level(contexts[level], shape, bundle.shape_model, config)
        if level > 0:
            shape = Shape(shape.points * 2.0)
    return shape


def fit_image(bundle, image: GrayImage, truth: Shape, pipelines) -> dict:
    """Pipeline name -> fitted shape of one image, each mode's level contexts
    built once and shared by its ablations."""
    init = search.init_shape_from_box(bundle.shape_model, truth_box(truth, BOX_INFLATE))
    pyramid = build_pyramid(image, bundle.fit_defaults.levels)
    configs, contexts, fitted = {}, {}, {}
    for name in pipelines:
        mode, dropped = PIPELINES[name]
        if mode not in configs:
            configs[mode] = search.config_for_mode(bundle, mode)
            contexts[mode] = [search.build_level_context(bundle, level_image, level, configs[mode])
                              for level, level_image in enumerate(pyramid)]
        fitted[name] = fit_pipeline([replace(ctx, **dropped) for ctx in contexts[mode]],
                                    bundle, init, configs[mode])
    return fitted


def errors(fitted: list, truths: list) -> np.ndarray:
    """Each face's mean landmark error, px."""
    return np.array([np.linalg.norm(f.points - t.points, axis=1).mean()
                     for f, t in zip(fitted, truths)])


def floors(bundle, truths: list) -> tuple:
    """(model floor, grid floor): E_ave of fit_params of the truth shapes and
    of the truth rounded to integers."""
    def floor(targets):
        fitted = [Shape(fit_params(bundle.shape_model, Shape(t)).points) for t in targets]
        return float(errors(fitted, truths).mean())

    return floor([t.points for t in truths]), floor([np.rint(t.points) for t in truths])


def run_cell(bundle, test, condition: str, pipelines=tuple(PIPELINES)) -> dict:
    """Pipeline name -> (E_ave px, failed faces) on the test faces under
    `condition`."""
    truths = [s.shape for s in test]
    per_image = [fit_image(bundle, image, truth, pipelines)
                 for image, truth in zip(condition_images(test, condition), truths)]
    out = {}
    for name in pipelines:
        err = errors([fits[name] for fits in per_image], truths)
        out[name] = (float(err.mean()), int(np.count_nonzero(err > FAIL_PX)))
    return out


def choose_sides(results: dict) -> tuple:
    """The default window sides that the asm_svm cells of (7, 7, 7) and
    (7, 7, 11) support; results maps (sides, seed, condition) to run_cell's dict."""
    small, large = (7, 7, 7), (7, 7, 11)
    cells = [(seed, condition) for seed in TRAIN_SEEDS for condition in CONDITIONS]
    pairs = [(results[(small, *cell)]["asm_svm"], results[(large, *cell)]["asm_svm"])
             for cell in cells]
    better = sum(s_err - l_err > WIN_PX for (s_err, _), (l_err, _) in pairs)
    fewer = any(s_fail - l_fail >= FEWER_FAILS for (_, s_fail), (_, l_fail) in pairs)
    return large if 2 * better >= len(cells) or fewer else small


def main() -> int:
    train, test = split()
    results = {}
    header = ["sides", "seed", "condition", "model floor", "grid floor", *PIPELINES]
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for sides in SIDES:
        for seed in TRAIN_SEEDS:
            bundle, _ = train_bundle(train, DEFAULT_SCHEME, profile_lengths=sides, seed=seed)
            floor = floors(bundle, [s.shape for s in test])
            for condition in CONDITIONS:
                cell = results[sides, seed, condition] = run_cell(bundle, test, condition)
                row = [str(sides), str(seed), condition, *(f"{v:.3f}" for v in floor),
                       *(f"{e:.3f}/{f}" for e, f in cell.values())]
                print("| " + " | ".join(row) + " |", flush=True)
    print(f"\ndefault sides: {choose_sides(results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
