import pytest

from asmfit.errors import ShapeArityError
from asmfit.scheme import (
    DEFAULT_SCHEME,
    ContourGroup,
    LandmarkScheme,
    single_contour_scheme,
)


def test_group_needs_two_points():
    with pytest.raises(ShapeArityError):
        ContourGroup("lonely", 1, True)


def test_scheme_needs_groups():
    with pytest.raises(ShapeArityError):
        LandmarkScheme(())


def test_total_and_group_of():
    scheme = LandmarkScheme((ContourGroup("a", 3, False), ContourGroup("b", 4, True)))
    assert scheme.total == 7
    group, start = scheme.group_of(0)
    assert (group.name, start) == ("a", 0)
    group, start = scheme.group_of(5)
    assert (group.name, start) == ("b", 3)
    with pytest.raises(ShapeArityError):
        scheme.group_of(7)
    with pytest.raises(ShapeArityError):
        scheme.group_of(-1)


def test_closed_contour_wraps():
    scheme = single_contour_scheme(4, closed=True)
    assert scheme.neighbors(0) == (3, 1)
    assert scheme.neighbors(3) == (2, 0)


def test_open_contour_endpoints():
    scheme = single_contour_scheme(4, closed=False)
    assert scheme.neighbors(0) == (None, 1)
    assert scheme.neighbors(3) == (2, None)
    assert scheme.neighbors(2) == (1, 3)


def test_neighbors_stay_inside_group():
    # landmark 15 opens the second group; its neighbors must not reach
    # back into the face boundary
    prev, nxt = DEFAULT_SCHEME.neighbors(15)
    assert prev == 22 and nxt == 16
    prev, nxt = DEFAULT_SCHEME.neighbors(14)
    assert prev == 13 and nxt is None


@pytest.mark.parametrize("scheme", [
    DEFAULT_SCHEME,
    single_contour_scheme(5),
    single_contour_scheme(5, closed=False),
    LandmarkScheme((ContourGroup("a", 2, False), ContourGroup("b", 2, True),
                    ContourGroup("c", 3, False))),
])
def test_chord_ends_match_neighbors(scheme):
    prev, nxt = scheme.chord_ends
    for i in range(scheme.total):
        before, after = scheme.neighbors(i)
        assert prev[i] == (i if before is None else before)
        assert nxt[i] == (i if after is None else after)
    assert not prev.flags.writeable and not nxt.flags.writeable


def test_group_slices_tile_the_index_range():
    slices = DEFAULT_SCHEME.group_slices()
    pos = 0
    for _, sl in slices:
        assert sl.start == pos
        pos = sl.stop
    assert pos == DEFAULT_SCHEME.total == 68
    assert [name for name, _ in slices] == [
        "face_boundary", "right_eyebrow", "left_eyebrow", "left_eye",
        "right_eye", "nose", "mouth",
    ]


def test_jsonable_round_trip():
    spec_list = DEFAULT_SCHEME.to_jsonable()
    rebuilt = LandmarkScheme.from_jsonable(spec_list)
    assert rebuilt.to_jsonable() == spec_list
    assert rebuilt.total == DEFAULT_SCHEME.total


def test_from_jsonable_rejects_bad_topology():
    with pytest.raises(ShapeArityError):
        LandmarkScheme.from_jsonable([["a", 3, "looped"]])
