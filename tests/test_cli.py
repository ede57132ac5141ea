import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_SCHEMES, reseal, with_fit_default
from reference_profiles import single_contour_scheme
import reference_cli
from asmfit import cli
from asmfit.cli import (
    GROUP_PALETTE,
    MARKER_COLOR,
    load_train_settings,
    main,
    render_overlay,
    truth_box,
)
from asmfit.dataset_io import (BUNDLE_MAGIC, BUNDLE_VERSION, load_bundle, load_points_file,
                               save_bundle)
from asmfit.errors import MAX_RADIUS, DatasetError, ShapeArityError
from asmfit.imaging import GrayImage, build_pyramid
from asmfit.scheme import DEFAULT_SCHEME, ContourGroup, LandmarkScheme
from asmfit.search import FitConfig
from asmfit.shape_model import Shape
from asmfit.profiles import normalize_windows, windows_batch
from asmfit.svm import SvmTrainConfig, decision_values
from asmfit.training import TrainConfig, train_bundle
from asmfit.synthetic import write_dataset


@pytest.fixture(scope="module")
def cli_env(faces96, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    images = root / "images"
    points = root / "points"
    images.mkdir()
    points.mkdir()
    write_dataset(faces96[:6], images, points)
    config = root / "config.json"
    config.write_text(json.dumps({"svm": {"epochs": 30}}))
    bundle = root / "model.asmb"
    rc = main(["train", "--images", str(images), "--points", str(points),
               "--config", str(config), "--out", str(bundle)])
    assert rc == 0
    return {"root": root, "images": images, "points": points,
            "config": config, "bundle": bundle, "samples": faces96[:6]}


def box_arg(shape, inflate=0.10):
    return ",".join(f"{v:.3f}" for v in truth_box(shape, inflate))


# ------------------------------------------------------------------ train

def test_train_output_and_determinism(cli_env, capsys):
    second = cli_env["root"] / "model2.asmb"
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(cli_env["config"]), "--out", str(second)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "modes: " in out
    assert "level 0: " in out and "positive" in out
    assert second.read_bytes() == cli_env["bundle"].read_bytes()


def test_train_prints_profile_ranks_beside_modes(cli_env, tmp_path, capsys):
    """The first line gives the shape modes and the rank each level's 2-D
    profile statistics keep, as the bundle holds them."""
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(cli_env["config"]), "--out", str(tmp_path / "m.asmb")])
    first = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    modes, ranks = first.split(", ")
    bundle = load_bundle(tmp_path / "m.asmb")
    assert modes == f"modes: {bundle.shape_model.num_modes}"
    assert ranks.split(": ") == ["profile ranks per level",
                                 " ".join(str(lv.asm.rank) for lv in bundle.levels)]


@pytest.mark.parametrize("extra, negatives, levels", [({}, 1632, 3),
                                                      ({"negatives_per_positive": 2,
                                                        "levels": 2}, 816, 2)])
def test_train_prints_window_counts_per_level(cli_env, tmp_path, capsys, extra, negatives,
                                              levels):
    """Every level trains on one positive window per image and landmark and
    negatives_per_positive (default 4) negatives per positive: 6 faces of
    68 landmarks give 408 positives."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"svm": {"epochs": 30}, **extra}))
    rc = main(["train", "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--config", str(config), "--out", str(tmp_path / "m.asmb")])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "windows" in ln]
    assert rc == 0
    assert lines == [f"level {lv}: 408 positive, {negatives} negative windows"
                     for lv in range(levels)]


def test_train_prints_svm_accuracy_per_level(cli_env, tmp_path, capsys, monkeypatch):
    """Training indexes the pyramid as a tuple that starts with the input
    image and returns a read-only (levels, landmarks) accuracy array;
    asmfit train prints each level's row mean and minimum."""
    pyramids, results = [], []

    def recorded_pyramid(image, levels):
        pyramids.append((image, build_pyramid(image, levels)))
        return pyramids[-1][1]

    def recorded_train(*args, **kwargs):
        results.append(train_bundle(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("asmfit.training.build_pyramid", recorded_pyramid)
    monkeypatch.setattr(cli, "train_bundle", recorded_train)
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(cli_env["config"]), "--out", str(tmp_path / "m.asmb")])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "SVM training accuracy" in ln]
    assert rc == 0
    assert len(pyramids) == 6
    for image, pyramid in pyramids:
        assert type(pyramid) is tuple and len(pyramid) == 3 and pyramid[0] is image
    (_, accuracy), = results
    assert accuracy.shape == (3, 68) and not accuracy.flags.writeable
    assert [ln.split(":")[0] for ln in lines] == ["level 0", "level 1", "level 2"]
    assert lines == [f"level {lv}: SVM training accuracy mean {row.mean():.3f}, min {row.min():.3f}"
                     for lv, row in enumerate(accuracy)]
    for line in lines:
        mean, low = (float(part.split()[-1]) for part in line.split(","))
        assert 0.0 <= low <= mean <= 1.0


@pytest.mark.parametrize("command", ["train", "fit"])
def test_out_of_memory_exits_2_in_one_line(cli_env, tmp_path, capsys, monkeypatch, command):
    """A setting too large for memory (a huge offset_range or search_radius)
    ends in one line naming the command and exit 2, and writes nothing. The
    allocation is refused by a stand-in, so no test asks for a huge array."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                          "(2000001, 2000001) and data type int64")

    outputs = [tmp_path / "m.asmb", tmp_path / "o.pts", tmp_path / "o.ppm"]
    if command == "train":
        monkeypatch.setattr("asmfit.svm._ring_offsets", refuse)
        args = ["--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
                "--config", str(cli_env["config"]), "--out", str(outputs[0])]
    else:
        monkeypatch.setattr("asmfit.search._candidate_grid", refuse)
        sample = cli_env["samples"][0]
        args = ["--model", str(cli_env["bundle"]),
                "--image", str(cli_env["images"] / f"{sample.name}.pgm"),
                "--box", box_arg(sample.shape), "--out", str(outputs[1]),
                "--overlay", str(outputs[2])]
    rc = main([command] + args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"asmfit {command}: out of memory: Unable to allocate 29.1 TiB for an array "
                   "with shape (2000001, 2000001) and data type int64\n")
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_utf8_points_file_fails_in_one_line(cli_env, tmp_path, capsys, command):
    images, points = tmp_path / "images", tmp_path / "points"
    images.mkdir()
    points.mkdir()
    for name in ("face_000", "face_001"):
        (images / f"{name}.pgm").write_bytes((cli_env["images"] / f"{name}.pgm").read_bytes())
        (points / f"{name}.pts").write_bytes((cli_env["points"] / f"{name}.pts").read_bytes())
    bad = points / "face_001.pts"
    bad.write_bytes(bad.read_bytes().replace(b"{", b"{\xff\xfe", 1))
    args = {"train": ["--out", str(tmp_path / "m.asmb")],
            "eval": ["--model", str(cli_env["bundle"]), "--mode", "classic",
                     "--report", str(tmp_path / "r.txt")]}[command]
    rc = main([command, "--images", str(images), "--points", str(points)] + args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"asmfit {command}: face_001.pts: not UTF-8 text")
    assert err.count("\n") == 1


def test_train_rejects_unknown_config_keys(cli_env, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"typo_key": 1}))
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(bad), "--out", str(tmp_path / "x.asmb")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown config keys" in err
    assert err.count("\n") == 1  # single-line diagnostic

    bad.write_text(json.dumps({"svm": {"learning_rate": 0.1}}))
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(bad), "--out", str(tmp_path / "x.asmb")])
    assert rc == 2
    assert "unknown svm config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"svm": ', '{"levels": "three"}', '{"levels": null}',
                                  '[1, 2]', '{"svm": 5}', '{"levels": 1e400}', '{"q": 5}',
                                  '{"canny_low": 200, "canny_high": 100}',
                                  '{"svm": {"c_penalty": 1e309, "epochs": 2}, "levels": 2}'])
def test_malformed_train_config_fails_in_one_line(cli_env, tmp_path, capsys, monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("training started on a malformed config")

    monkeypatch.setattr(cli, "train_bundle", refuse)
    bad = tmp_path / "malformed.json"
    bad.write_text(text)
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(bad), "--out", str(tmp_path / "x.asmb")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"asmfit train: {bad}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.asmb").exists()


@pytest.mark.parametrize("raw", [{"classic_length": 9}, {"mode": "classic"}, {"fit_config": {}},
                                 {"svm_config": {}}, {"svm": {"seed": 0}}])
def test_config_keys_are_the_settings_less_the_derived_ones(tmp_path, raw):
    """The config's keys are FitConfig's, TrainConfig's and SvmTrainConfig's
    fields, less the ones the file names otherwise or not at all: the fit
    mode, the nested configs, classic_length (classic_profile_length in the
    file) and the SVM seed, which is not a setting."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    with pytest.raises(DatasetError, match="unknown"):
        load_train_settings(config)


def test_train_settings_defaults():
    settings = load_train_settings(None)
    assert settings["fit_config"] == FitConfig()
    assert settings["svm_config"].epochs == 200
    assert settings["scheme"].total == 68
    # train_bundle's own defaults apply to every key the config leaves out
    assert set(settings) == {"scheme", "fit_config", "svm_config"}


def test_train_settings_pass_values_through(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"levels": 2, "classic_profile_length": 9, "seed": 5,
                                  "offset_range": [1, 3], "eps": 0.01, "svm": {"epochs": 7},
                                  "profile_lengths": [3, 5]}))
    settings = load_train_settings(config)
    assert settings["fit_config"] == FitConfig(levels=2)
    assert settings["svm_config"] == SvmTrainConfig(epochs=7)
    assert {k: settings[k] for k in ("classic_length", "seed", "offset_range", "eps",
                                     "profile_lengths")} == {
        "classic_length": 9, "seed": 5, "offset_range": [1, 3], "eps": 0.01,
        "profile_lengths": [3, 5]}


def test_readme_config_block_gives_the_defaults(tmp_path):
    """README's JSON config block loads, and every key it shows is at its default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    config = tmp_path / "readme.json"
    config.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    settings = load_train_settings(config)
    assert settings.pop("scheme") == DEFAULT_SCHEME
    assert TrainConfig(**settings) == TrainConfig()


def test_readme_bundle_sample_runs_on_a_trained_bundle(cli_env):
    """README's Python sample of a level's stacked models runs as written,
    with `bundle` a trained bundle, and computes what its comments say."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [sample] = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]
                if "bundle.levels" in block.split("```", 1)[0]]
    bundle = load_bundle(cli_env["bundle"])
    names = {"bundle": bundle}
    exec(compile(sample, "README.md", "exec"), names)
    level = bundle.levels[names["level"]]
    assert names["svm"] is level.svms and names["stats"] is level.asm
    assert names["accepted"].shape == names["costs"].shape == (1,)
    assert names["some"].shape == (3,)
    # The gate of landmark j's raw grid decides as its SVM on the normalized windows.
    gate = names["gate"]
    assert gate.shape == (len(level.svms.bias), 7, 7)
    a, b = np.mgrid[:7, :7]
    centers = np.stack([20 + b.ravel(), 30 + a.ravel()], axis=1)
    windows = windows_batch(names["magnitude"], centers, level.window_side)
    normalized = decision_values(names["one"], normalize_windows(windows, "sum"))
    clear = np.abs(normalized) > 1e-9
    assert clear.any() and np.array_equal(gate[names["j"]].ravel()[clear], normalized[clear] >= 0)


def test_overflowing_c_penalty_fails_training_in_one_line(cli_env, tmp_path, capsys,
                                                          monkeypatch):
    """A positive, finite c_penalty whose Newton ridge 0.5 / c_penalty
    overflows is refused with the config, before any image is read, in one
    line and without a bundle."""
    def read(*args, **kwargs):
        raise AssertionError("an image was read")

    monkeypatch.setattr(cli, "load_annotated", read)
    config = tmp_path / "c.json"
    config.write_text('{"svm": {"c_penalty": 2e-309, "epochs": 2}, "levels": 2}')
    out = tmp_path / "m.asmb"
    rc = main(["train", "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"asmfit train: {config}: bad training config value: c_penalty must be "
                   "positive and finite, and its Newton ridge 0.5 / c_penalty finite, "
                   "got 2e-309\n")
    assert not out.exists()


@pytest.mark.parametrize("case", MALFORMED_SCHEMES)
def test_malformed_scheme_fails_training_in_one_line(cli_env, tmp_path, capsys, monkeypatch,
                                                     case):
    """A config scheme of another form exits 2 with one line that names the
    scheme, before any image is read, and writes no bundle."""
    def read(*args, **kwargs):
        raise AssertionError("an image was read")

    monkeypatch.setattr(cli, "load_annotated", read)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scheme": MALFORMED_SCHEMES[case]}))
    out = tmp_path / "m.asmb"
    rc = main(["train", "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"asmfit train: {config}: bad training config value: scheme ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_integral_real_settings_train_the_same_bundle(cli_env, tmp_path):
    # Real-valued settings written as JSON integers are the floats they stand for.
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"c": 2, "clamp_alpha": 3, "canny_low": 50,
                                  "svm": {"epochs": 30, "c_penalty": 1}}))
    out = tmp_path / "m.asmb"
    rc = main(["train", "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == cli_env["bundle"].read_bytes()


@pytest.mark.parametrize("config", [
    {"search_radius": 3.7}, {"levels": 2.9}, {"levels": True}, {"max_iters_per_level": 2.5},
    {"classic_profile_length": 7.5}, {"classic_profile_length": 8},
    {"svm": {"epochs": 20.9}}, {"svm": {"batch_size": 32}}, {"svm": {"epochs": True}},
    {"svm": {"c_penalty": "1"}}, {"negatives_per_positive": 4.5}, {"seed": 1.5},
    {"offset_range": [2, 8.5]}, {"offset_range": [2, 4, 8]}, {"offset_range": 5},
    {"variance_fraction": "0.9"}, {"clamp_alpha": None}, {"eps": [0.001]}, {"eps": 10**400},
    {"c": 10**400}, {"negatives_per_positive": 0}, {"profile_lengths": [3, 7.5, 15]},
    {"seed": -1}, {"eps": -1}, {"eps": float("nan")}, {"variance_fraction": 2.0},
    {"variance_fraction": -1}, {"clamp_alpha": -3}, {"clamp_alpha": 0},
    {"c": float("inf")}, {"convergence": True}, {"svm": {"c_penalty": True}},
    {"variance_fraction": True}, {"canny_low": False}, {"search_radius": MAX_RADIUS + 1},
    {"offset_range": [1, MAX_RADIUS + 1]}, {"offset_range": [MAX_RADIUS + 1, MAX_RADIUS + 1]},
])
def test_mistyped_train_setting_fails_before_training(cli_env, tmp_path, capsys, monkeypatch,
                                                      config):
    def started(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("asmfit.training.gpa_align", started)
    monkeypatch.setattr("asmfit.training.build_pyramid", started)
    bad = tmp_path / "bad.json"
    args = ["train", "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
            "--config", str(bad), "--out", str(tmp_path / "x.asmb")]
    bad.write_text(json.dumps(config))
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("asmfit train: ") and err.count("\n") == 1
    assert not (tmp_path / "x.asmb").exists()
    # the patch is live: a well-typed config reaches it
    bad.write_text(json.dumps({"svm": {"epochs": 20}}))
    with pytest.raises(AssertionError, match="training started"):
        main(args)


def test_four_levels_without_profile_lengths_train_7x7_windows(cli_env, tmp_path, capsys):
    config = tmp_path / "levels.json"
    config.write_text(json.dumps({"levels": 4, "svm": {"epochs": 2}}))
    out = tmp_path / "x.asmb"
    rc = main(["train", "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert [lv.window_side for lv in load_bundle(out).levels] == [7, 7, 7, 7]


def test_train_config_is_checked_before_any_image_is_read(cli_env, tmp_path, capsys):
    """A mistyped profile_lengths names the config even when the images
    cannot be read; with a well-typed config the unreadable image is
    what fails."""
    images = tmp_path / "images"
    images.mkdir()
    for pts in cli_env["points"].glob("*.pts"):
        (images / f"{pts.stem}.pgm").write_bytes(b"not an image")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"profile_lengths": [3, 7.5, 15]}))
    args = ["train", "--images", str(images), "--points", str(cli_env["points"]),
            "--out", str(tmp_path / "x.asmb")]
    assert main(args + ["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"asmfit train: {bad}: bad training config value: profile_lengths")
    assert err.count("\n") == 1
    assert main(args) == 2
    assert ".pgm" in capsys.readouterr().err
    assert not (tmp_path / "x.asmb").exists()


# -------------------------------------------------------------------- fit

def test_fit_writes_points_and_overlay(cli_env, tmp_path, capsys):
    sample = cli_env["samples"][0]
    out_pts = tmp_path / "fit.pts"
    overlay = tmp_path / "fit.ppm"
    rc = main(["fit", "--model", str(cli_env["bundle"]),
               "--image", str(cli_env["images"] / f"{sample.name}.pgm"),
               "--box", box_arg(sample.shape),
               "--out", str(out_pts), "--overlay", str(overlay)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fit iterations: level 0:" in out
    assert f"wrote {out_pts}" in out
    fitted = load_points_file(out_pts)
    assert fitted.n == 68
    err = np.linalg.norm(fitted.points - sample.shape.points, axis=1).mean()
    assert err < 2.0
    data = overlay.read_bytes()
    assert data.startswith(b"P6\n96 96\n255\n")
    rgb = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(96, 96, 3)
    assert (rgb == np.array(MARKER_COLOR, dtype=np.uint8)).all(axis=2).any()


def test_fit_classic_mode(cli_env, tmp_path):
    sample = cli_env["samples"][1]
    out_pts = tmp_path / "classic.pts"
    rc = main(["fit", "--model", str(cli_env["bundle"]),
               "--image", str(cli_env["images"] / f"{sample.name}.pgm"),
               "--box", box_arg(sample.shape), "--mode", "classic",
               "--out", str(out_pts)])
    assert rc == 0
    assert load_points_file(out_pts).n == 68


def test_fit_bad_box_arguments(cli_env, tmp_path, capsys):
    image = str(cli_env["images"] / "face_000.pgm")
    base = ["fit", "--model", str(cli_env["bundle"]), "--image", image,
            "--out", str(tmp_path / "o.pts")]
    for box in ("1,2,3", "1,2,3,4,5", "1,2,three,4"):
        rc = main(base + ["--box", box])
        assert rc == 2
        assert capsys.readouterr().err == ("asmfit fit: box must be four real numbers x, y, "
                                           f"width, height, got {box.split(',')}\n")
    rc = main(base + ["--box=-500,-500,20,20"])
    assert rc == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["10,10,inf,20", "10,nan,20,20", "10,10,1e-9,1e-9",
                                 "10,10,20,1e400"])
def test_fit_rejects_non_finite_or_sub_pixel_box(cli_env, tmp_path, capsys, box):
    out = tmp_path / "o.pts"
    rc = main(["fit", "--model", str(cli_env["bundle"]),
               "--image", str(cli_env["images"] / "face_000.pgm"), f"--box={box}",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("asmfit fit: ") and "box" in err and err.count("\n") == 1
    assert not out.exists()


def test_fit_box_mostly_off_the_image_fails_in_one_line(cli_env, tmp_path, capsys):
    sample = cli_env["samples"][0]
    x, y, w, h = truth_box(sample.shape, 0.10)
    out = tmp_path / "o.pts"
    rc = main(["fit", "--model", str(cli_env["bundle"]),
               "--image", str(cli_env["images"] / f"{sample.name}.pgm"),
               f"--box={-0.75 * w:.3f},{y:.3f},{w:.3f},{h:.3f}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("asmfit fit: ") and "outside" in err and err.count("\n") == 1
    assert not out.exists()


def test_fit_missing_model_is_diagnosed(cli_env, tmp_path, capsys):
    rc = main(["fit", "--model", str(tmp_path / "nope.asmb"),
               "--image", str(cli_env["images"] / "face_000.pgm"),
               "--box", "10,10,50,50", "--out", str(tmp_path / "o.pts")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("asmfit fit: ")


def _undecodable_key(body):
    return body.replace(b"groups", b"gr\xffups", 1)


def _previous_version(body):
    struct.pack_into("<I", body, len(BUNDLE_MAGIC), 1)
    return body


def _version_before(body):
    """The version before the current one, which this build no longer reads."""
    struct.pack_into("<I", body, len(BUNDLE_MAGIC), BUNDLE_VERSION - 1)
    return body


@pytest.mark.parametrize("damage, expect", [
    (_undecodable_key, "is not UTF-8"),
    (_previous_version, "bundle version 1"),
    (_version_before,
     f"bundle version {BUNDLE_VERSION - 1}, this build reads {BUNDLE_VERSION}; retrain the model"),
])
def test_fit_rejects_unreadable_bundle_in_one_line(cli_env, tmp_path, capsys, damage, expect):
    model = tmp_path / "damaged.asmb"
    model.write_bytes(reseal(damage(bytearray(cli_env["bundle"].read_bytes()[:-4]))))
    rc = main(["fit", "--model", str(model),
               "--image", str(cli_env["images"] / "face_000.pgm"),
               "--box", "10,10,50,50", "--out", str(tmp_path / "o.pts")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("asmfit fit: damaged.asmb: ")
    assert expect in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, value", [("search_radius", 3.0), ("max_iters_per_level", 20.0),
                                         ("canny_low", "x")])
def test_fit_rejects_mistyped_fit_defaults_in_one_line(cli_env, tmp_path, capsys, name, value):
    model = tmp_path / "mistyped.asmb"
    save_bundle(with_fit_default(load_bundle(cli_env["bundle"]), name, value), model)
    rc = main(["fit", "--model", str(model),
               "--image", str(cli_env["images"] / "face_000.pgm"),
               "--box", "10,10,50,50", "--out", str(tmp_path / "o.pts")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"asmfit fit: mistyped.asmb: malformed bundle field: {name} must be")
    assert err.count("\n") == 1
    assert not (tmp_path / "o.pts").exists()


def test_fit_rejects_unknown_mode(cli_env, tmp_path):
    with pytest.raises(SystemExit):
        main(["fit", "--model", str(cli_env["bundle"]),
              "--image", str(cli_env["images"] / "face_000.pgm"),
              "--box", "10,10,50,50", "--out", str(tmp_path / "o.pts"),
              "--mode", "hybrid"])


# ------------------------------------------------------------------- eval

def test_eval_writes_report(cli_env, tmp_path, capsys):
    report = tmp_path / "report.txt"
    rc = main(["eval", "--model", str(cli_env["bundle"]),
               "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--mode", "asm_svm", "--report", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "method: asm_svm" in out
    assert "E_ave: " in out
    text = report.read_text()
    assert "method: asm_svm" in text
    assert "metric: euclidean" in text
    assert "images: 6" in text
    assert "\tface_000\t" in text
    assert "face_boundary\t" in text
    assert "mouth\t" in text


def test_eval_metric_flag(cli_env, tmp_path):
    report = tmp_path / "l1.txt"
    rc = main(["eval", "--model", str(cli_env["bundle"]),
               "--images", str(cli_env["images"]), "--points", str(cli_env["points"]),
               "--mode", "classic", "--report", str(report),
               "--metric", "abs-coord", "--box-inflate", "0.2"])
    assert rc == 0
    assert "metric: abs-coord" in report.read_text()


# ------------------------------------------------------------------ units

def test_truth_box_hand_case():
    shape = Shape(np.array([[10.0, 20.0], [30.0, 60.0], [20.0, 40.0]]))
    assert truth_box(shape, 0.10) == pytest.approx((9.0, 18.0, 22.0, 44.0))
    assert truth_box(shape, 0.0) == pytest.approx((10.0, 20.0, 20.0, 40.0))


def test_render_overlay_marks_landmarks():
    image = GrayImage(np.full((20, 20), 100.0))
    shape = Shape(np.array([[5.0, 5.0], [14.0, 5.0], [14.0, 14.0]]))
    rgb = render_overlay(image, shape, single_contour_scheme(3))
    assert rgb.shape == (20, 20, 3)
    marker = np.array(MARKER_COLOR, dtype=np.uint8)
    for x, y in shape.points:
        assert (rgb[int(y), int(x)] == marker).all()
    # the contour between landmarks carries the first palette color
    assert (rgb[5, 9] == np.array(GROUP_PALETTE[0], dtype=np.uint8)).all()
    # untouched background stays gray
    assert (rgb[0, 0] == 100).all()


@pytest.mark.parametrize("n,scheme", [(3, DEFAULT_SCHEME), (68, single_contour_scheme(3)),
                                      (70, DEFAULT_SCHEME), (67, DEFAULT_SCHEME)])
def test_render_overlay_rejects_scheme_of_other_arity(n, scheme):
    image = GrayImage(np.full((20, 20), 100.0))
    shape = Shape(np.random.default_rng(n).uniform(0.0, 19.0, (n, 2)))
    with pytest.raises(ShapeArityError, match=f"covers {scheme.total} landmarks, shape has {n}"):
        render_overlay(image, shape, scheme)


def test_render_overlay_markers_stay_3x3_off_the_image():
    """A landmark left of or above the image paints at most its own 3x3 block."""
    image = GrayImage(np.full((20, 20), 100.0))
    shape = Shape(np.array([[-5.0, 10.0], [10.0, -6.0], [-1.0, 15.0]]))
    rgb = render_overlay(image, shape, single_contour_scheme(3, closed=False))
    red = (rgb == np.array(MARKER_COLOR, dtype=np.uint8)).all(axis=2)
    assert np.argwhere(red).tolist() == [[14, 0], [15, 0], [16, 0]]


# Coordinates on the integer grid, exactly half-way between two pixels, in
# and near a small image, and far outside it.
OVERLAY_COORD = st.one_of(
    st.integers(-3, 27).map(float),
    st.integers(-7, 55).map(lambda v: v / 2.0),
    st.floats(-5.0, 30.0, allow_nan=False),
    st.floats(-300.0, 300.0, allow_nan=False),
)


@st.composite
def overlay_cases(draw):
    """(image, shape, scheme): open and closed groups of 2-5 landmarks, drawn
    from a small pool of points so that landmarks repeat and some segments
    have zero length."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    groups = draw(st.lists(st.tuples(st.integers(2, 5), st.booleans()), min_size=1, max_size=9))
    groups[0] = (max(groups[0][0], 3), groups[0][1])
    scheme = LandmarkScheme(tuple(ContourGroup(f"g{i}", count, closed)
                                  for i, (count, closed) in enumerate(groups)))
    pool = draw(st.lists(st.tuples(OVERLAY_COORD, OVERLAY_COORD), min_size=1, max_size=scheme.total))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=scheme.total,
                          max_size=scheme.total))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 255.0, (h, w))
    return GrayImage(pixels), Shape(np.array([pool[i] for i in picks])), scheme


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=overlay_cases())
def test_render_overlay_equals_per_pixel_oracle(case):
    image, shape, scheme = case
    got = render_overlay(image, shape, scheme)
    want = reference_cli.render_overlay(image, shape, scheme)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_render_overlay_equals_oracle_in_default_scheme():
    """68 landmarks in DEFAULT_SCHEME's seven groups, half-pixel and border
    positions and a repeated landmark included, draw as the per-pixel oracle."""
    rng = np.random.default_rng(3)
    image = GrayImage(rng.uniform(0.0, 255.0, (96, 96)))
    pts = rng.uniform(-4.0, 100.0, (68, 2))
    pts[::4] = np.rint(pts[::4]) + 0.5
    pts[1::4] = np.rint(pts[1::4])
    pts[5] = pts[4]
    shape = Shape(pts)
    got = render_overlay(image, shape, DEFAULT_SCHEME)
    assert got.tobytes() == reference_cli.render_overlay(image, shape, DEFAULT_SCHEME).tobytes()
