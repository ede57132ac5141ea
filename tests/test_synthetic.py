import numpy as np
import pytest

import reference_synthetic
from asmfit.dataset_io import load_annotated, load_image, save_pgm
from asmfit.scheme import DEFAULT_SCHEME
from asmfit.synthetic import generate_face, generate_face_dataset, write_dataset


def test_dataset_is_deterministic():
    a = generate_face_dataset(3, size=96, seed=11)
    b = generate_face_dataset(3, size=96, seed=11)
    for sa, sb in zip(a, b):
        assert sa.name == sb.name
        assert np.array_equal(sa.image.pixels, sb.image.pixels)
        assert np.array_equal(sa.shape.points, sb.shape.points)
    c = generate_face_dataset(3, size=96, seed=12)
    assert not np.array_equal(a[0].image.pixels, c[0].image.pixels)


def test_dataset_naming_and_counts():
    samples = generate_face_dataset(4, size=96, seed=0)
    assert [s.name for s in samples] == ["face_000", "face_001", "face_002", "face_003"]
    for s in samples:
        assert s.shape.n == DEFAULT_SCHEME.total == 68
        assert s.image.pixels.shape == (96, 96)


def test_faces_are_quantized_and_in_range():
    image, _ = generate_face(np.random.default_rng(3), size=96)
    px = image.pixels
    assert np.array_equal(px, np.rint(px))
    assert px.min() >= 0 and px.max() <= 255


def test_pixels_survive_pgm_round_trip(tmp_path):
    # quantized at generation time, so disk and memory views agree exactly
    image, _ = generate_face(np.random.default_rng(4), size=96)
    path = tmp_path / "face.pgm"
    save_pgm(image, path)
    assert np.array_equal(load_image(path).pixels, image.pixels)


def test_landmarks_sit_on_rendered_geometry():
    image, shape = generate_face(np.random.default_rng(5), size=128, noise_sigma=0.0)
    boundary = shape.points[:15]
    # first boundary landmark is the rightmost point of the face ellipse
    assert boundary[0, 0] == boundary[:, 0].max()
    cx = boundary[:, 0].mean()
    inside = image.pixels[int(round(cx)) - 20, int(round(cx))]
    assert inside != 200.0  # face fill differs from background


def test_write_dataset_round_trip(tmp_path):
    samples = generate_face_dataset(2, size=96, seed=6)
    images = tmp_path / "images"
    points = tmp_path / "points"
    images.mkdir()
    points.mkdir()
    write_dataset(samples, images, points)
    loaded = load_annotated(images, points, DEFAULT_SCHEME)
    assert [s.name for s in loaded] == [s.name for s in samples]
    for got, want in zip(loaded, samples):
        assert np.array_equal(got.image.pixels, want.image.pixels)
        assert np.array_equal(got.shape.points, want.shape.points)


# The criterion-8 data, a mid-size set and a small one.
@pytest.mark.parametrize("count,size,seed", [(40, 256, 7), (20, 128, 1), (10, 33, 2)])
def test_dataset_equals_feature_by_feature_oracle(count, size, seed):
    got = generate_face_dataset(count, size=size, seed=seed)
    want = reference_synthetic.generate_face_dataset(count, size=size, seed=seed)
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert g.name == w.name
        assert g.image.pixels.tobytes() == w.image.pixels.tobytes()
        assert g.shape.points.tobytes() == w.shape.points.tobytes()


def test_clipped_nose_stroke_equals_oracle():
    """In a 3x3 face the stroke's 3x3 blocks around the rounded nose
    landmarks reach past the border and are clipped there. Such a face has
    landmarks off the image, so it is drawn by generate_face, not as a
    dataset sample."""
    nose = dict(DEFAULT_SCHEME.group_slices())["nose"]
    rng, oracle_rng = np.random.default_rng(0), np.random.default_rng(0)
    for _ in range(10):
        image, shape = generate_face(rng, size=3)
        want_image, want_shape = reference_synthetic.generate_face(oracle_rng, size=3)
        px = np.rint(shape.points[nose])
        assert (px - 1).min() < 0 or (px + 1).max() > 2
        assert image.pixels.tobytes() == want_image.pixels.tobytes()
        assert shape.points.tobytes() == want_shape.points.tobytes()
