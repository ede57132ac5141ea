"""A slice of the accuracy suite (tests/suite.py) pinned at the default
window sides: train seed 0, clean and clutter, both modes and the asm_svm
search without its SVM gate and Canny edges ("neither")."""

import pytest

import suite
from asmfit import search
from asmfit.cli import truth_box
from asmfit.imaging import build_pyramid
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.training import train_bundle

# E_ave px (3 decimals) and failed faces of 100, equal on an AVX-512 Xeon's
# default OpenBLAS kernel, on the Haswell, Sandybridge and Prescott kernels
# and with numpy's AVX-512 loops off.
PINNED = {
    "clean": {"classic": (0.773, 0), "asm_svm": (0.532, 0), "neither": (0.536, 0)},
    "clutter": {"classic": (1.564, 2)},
}
# Under clutter the asm_svm and "neither" fits move with the BLAS kernel that
# trains and fits them. asm_svm read 1.152 px / 1 failure on the default
# kernel and Sandybridge, 1.151 / 1 on Prescott and 1.141 / 2 on Haswell;
# "neither" 1.152 / 2 on the first three and 1.135 / 1 on Haswell. So they
# are pinned to CLUTTER_PX of the default kernel's E_ave, with at most 2
# failures, and asm_svm is not pinned below "neither": it is 0.0002 px below
# on the default kernel and 0.006 px above on Haswell.
CLUTTER = {"asm_svm": 1.152, "neither": 1.152}
CLUTTER_PX = 0.02


@pytest.fixture(scope="module")
def suite_model():
    """(bundle at the default sides and train seed 0, the 100 test faces)."""
    train, test = suite.split()
    bundle, _ = train_bundle(train, DEFAULT_SCHEME, seed=0)
    return bundle, test


@pytest.fixture(scope="module")
def cells(suite_model):
    bundle, test = suite_model
    return {condition: suite.run_cell(bundle, test, condition, ("classic", *CLUTTER))
            for condition in PINNED}


def test_suite_slice_at_the_default_sides(cells):
    got = {condition: {name: (round(cells[condition][name][0], 3), cells[condition][name][1])
                       for name in pinned} for condition, pinned in PINNED.items()}
    assert got == PINNED
    for name, e_ave in CLUTTER.items():
        got_e_ave, fails = cells["clutter"][name]
        assert abs(got_e_ave - e_ave) <= CLUTTER_PX and fails <= 2, name


def test_asm_svm_beats_classic_under_clutter(cells):
    assert cells["clutter"]["asm_svm"][0] < cells["clutter"]["classic"][0]


def test_model_and_grid_floors(suite_model):
    bundle, test = suite_model
    model, grid = suite.floors(bundle, [s.shape for s in test])
    assert (round(model, 3), round(grid, 3)) == (0.182, 0.246)


def test_suite_level_loop_fits_as_fit(suite_model):
    """Without dropped fields, the suite's level loop on shared contexts
    gives search.fit's points, byte for byte, in both modes."""
    bundle, test = suite_model
    for sample in test[:3]:
        fitted = suite.fit_image(bundle, sample.image, sample.shape, ("classic", "asm_svm"))
        init = search.init_shape_from_box(bundle.shape_model,
                                          truth_box(sample.shape, suite.BOX_INFLATE))
        for mode in ("classic", "asm_svm"):
            config = search.config_for_mode(bundle, mode)
            want = search.fit(build_pyramid(sample.image, config.levels), bundle, init, config)
            assert fitted[mode].points.tobytes() == want.shape.points.tobytes(), mode


@pytest.mark.parametrize("wins, fewer, sides", [
    (0, 0, (7, 7, 7)), (3, 0, (7, 7, 7)), (4, 0, (7, 7, 11)), (0, 1, (7, 7, 7)),
    (0, 2, (7, 7, 11)),
])
def test_choose_sides_follows_the_decision_rule(wins, fewer, sides):
    """(7, 7, 11) is chosen when it beats (7, 7, 7) by more than 0.02 px in
    at least half of the 8 cells, or fails on 2 fewer faces in one cell."""
    results = {}
    cells = [(seed, condition) for seed in suite.TRAIN_SEEDS for condition in suite.CONDITIONS]
    for i, cell in enumerate(cells):
        small = (1.0, 3 if i == 0 else 0)
        large = (1.0 - (0.021 if i < wins else 0.019), 3 - fewer if i == 0 else 0)
        results[((7, 7, 7), *cell)] = {"asm_svm": small}
        results[((7, 7, 11), *cell)] = {"asm_svm": large}
    assert suite.choose_sides(results) == sides
