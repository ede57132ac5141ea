import json
import struct

import numpy as np
import pytest

from conftest import reseal, with_fit_default
from asmfit import cli
from asmfit.cli import (
    GROUP_PALETTE,
    MARKER_COLOR,
    _parse_box,
    load_train_settings,
    main,
    render_overlay,
    truth_box,
)
from asmfit.dataset_io import BUNDLE_MAGIC, load_bundle, load_points_file, save_bundle
from asmfit.errors import BoxError
from asmfit.imaging import GrayImage
from asmfit.scheme import single_contour_scheme
from asmfit.shape_model import Shape
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


def test_train_prints_svm_accuracy_per_level(cli_env, tmp_path, capsys):
    rc = main(["train", "--images", str(cli_env["images"]),
               "--points", str(cli_env["points"]),
               "--config", str(cli_env["config"]), "--out", str(tmp_path / "m.asmb")])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "SVM training accuracy" in ln]
    assert rc == 0
    assert [ln.split(":")[0] for ln in lines] == ["level 0", "level 1", "level 2"]
    for line in lines:
        mean, low = (float(part.split()[-1]) for part in line.split(","))
        assert 0.0 <= low <= mean <= 1.0


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
                                  '{"profile_lengths": [3, 7.5, 15]}',
                                  '{"canny_low": 200, "canny_high": 100}'])
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


def test_train_settings_defaults():
    settings = load_train_settings(None)
    assert settings["fit_config"].levels == 3
    assert settings["fit_config"].profile_lengths == (3, 7, 15)
    assert settings["svm_config"].epochs == 200
    assert settings["scheme"].total == 68
    assert settings["seed"] == 0


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
    rc = main(base + ["--box", "1,2,3"])
    assert rc == 2
    assert "box" in capsys.readouterr().err
    rc = main(base + ["--box", "1,2,three,4"])
    assert rc == 2
    capsys.readouterr()
    rc = main(base + ["--box=-500,-500,20,20"])
    assert rc == 2
    assert "outside" in capsys.readouterr().err


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


@pytest.mark.parametrize("damage, expect", [
    (_undecodable_key, "is not UTF-8"),
    (_previous_version, "bundle version 1"),
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

def test_parse_box():
    assert _parse_box("1,2.5,3,4") == (1.0, 2.5, 3.0, 4.0)
    with pytest.raises(BoxError):
        _parse_box("1,2,3,4,5")
    with pytest.raises(BoxError):
        _parse_box("a,b,c,d")


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
