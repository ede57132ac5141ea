import numpy as np
import pytest

from asmfit.errors import ShapeArityError
from asmfit.evaluation import REFERENCE_FOOTER, evaluate, format_report
from asmfit.scheme import ContourGroup, LandmarkScheme
from asmfit.shape_model import Shape


def shifted(shape, dx, dy):
    return Shape(shape.points + (dx, dy))


def base_shape(n=5, seed=0):
    return Shape(np.random.default_rng(seed).uniform(0, 50, (n, 2)))


def test_metric_hand_values():
    truth = base_shape()
    fitted = shifted(truth, 3.0, 4.0)
    rep = evaluate([fitted], [truth])
    assert rep.e_ave == pytest.approx(5.0)
    assert rep.per_image.tolist() == pytest.approx([5.0])
    rep_l1 = evaluate([fitted], [truth], metric="abs-coord")
    assert rep_l1.e_ave == pytest.approx(7.0)


def test_e_ave_averages_per_image_means():
    truth = [base_shape(seed=1), base_shape(seed=2)]
    fitted = [shifted(truth[0], 3.0, 4.0), shifted(truth[1], 0.0, 2.0)]
    rep = evaluate(fitted, truth)
    assert rep.per_image.tolist() == pytest.approx([5.0, 2.0])
    assert rep.e_ave == pytest.approx(3.5)
    assert rep.n_images == 2
    assert rep.n_landmarks == 5


def test_group_errors_follow_scheme():
    scheme = LandmarkScheme((ContourGroup("jaw", 2, False), ContourGroup("lip", 3, True)))
    truth = base_shape(5, seed=3)
    pts = truth.points.copy()
    pts[:2] += (1.0, 0.0)
    pts[2:] += (2.0, 0.0)
    rep = evaluate([Shape(pts)], [truth], scheme=scheme)
    assert rep.group_errors == (("jaw", pytest.approx(1.0)), ("lip", pytest.approx(2.0)))
    assert rep.e_ave == pytest.approx(1.6)


def test_group_fallback_when_scheme_mismatches():
    scheme = LandmarkScheme((ContourGroup("jaw", 4, False),))
    truth = base_shape(5, seed=4)
    rep = evaluate([shifted(truth, 1.0, 0.0)], [truth], scheme=scheme)
    assert rep.group_errors == (("all", pytest.approx(1.0)),)


def test_evaluate_validation():
    truth = base_shape()
    with pytest.raises(ShapeArityError):
        evaluate([truth], [truth, truth])
    with pytest.raises(ShapeArityError):
        evaluate([], [])
    with pytest.raises(ShapeArityError):
        evaluate([base_shape(4)], [truth])
    with pytest.raises(ShapeArityError):
        evaluate([truth], [truth], metric="chebyshev")


def test_image_names():
    truth = [base_shape(seed=5), base_shape(seed=6)]
    rep = evaluate(truth, truth, image_names=("a", "b"))
    assert rep.image_names == ("a", "b")
    rep_default = evaluate(truth, truth)
    assert rep_default.image_names == ("image_000", "image_001")


def test_image_names_must_name_every_image():
    truth = [base_shape(seed=5), base_shape(seed=6), base_shape(seed=7)]
    for names in [("a",), ("a", "b", "c", "d"), ()]:
        with pytest.raises(ShapeArityError, match=f"{len(names)} image names for 3"):
            evaluate(truth, truth, image_names=names)
    assert evaluate(truth, truth, image_names=iter("abc")).image_names == ("a", "b", "c")


def test_format_report_layout():
    truth = base_shape(seed=7)
    rep = evaluate([shifted(truth, 3.0, 4.0)], [truth],
                   method="asm_svm", image_names=("face_000",))
    text = format_report(rep)
    lines = text.splitlines()
    assert lines[0] == "method: asm_svm"
    assert lines[1] == "metric: euclidean"
    assert "images: 1" in lines
    assert "landmarks: 5" in lines
    assert "E_ave: 5.000000" in lines
    assert "\tface_000\t5.000000" in lines
    assert "group\tmean_error" in lines
    assert "all\t5.000000" in lines
    assert lines[-1] == REFERENCE_FOOTER
    assert text.endswith("\n")
