import json
import re

import numpy as np
import pytest

from asmfit.cli import load_train_settings
from asmfit.errors import DatasetError, ShapeArityError
from asmfit.scheme import DEFAULT_SCHEME, ContourGroup, LandmarkScheme

from conftest import MALFORMED_SCHEMES
from reference_profiles import group_of, neighbors, single_contour_scheme


def test_group_needs_two_points():
    with pytest.raises(ShapeArityError):
        ContourGroup("lonely", 1, True)


def test_scheme_needs_groups():
    with pytest.raises(ShapeArityError):
        LandmarkScheme(())


def test_total_and_group_of():
    scheme = LandmarkScheme((ContourGroup("a", 3, False), ContourGroup("b", 4, True)))
    assert scheme.total == 7
    group, start = group_of(scheme, 0)
    assert (group.name, start) == ("a", 0)
    group, start = group_of(scheme, 5)
    assert (group.name, start) == ("b", 3)


def test_closed_contour_wraps():
    prev, nxt = single_contour_scheme(4, closed=True).chord_ends
    assert (prev[0], nxt[0]) == (3, 1)
    assert (prev[3], nxt[3]) == (2, 0)


def test_open_contour_endpoints():
    # an open end is its own neighbor on the missing side
    prev, nxt = single_contour_scheme(4, closed=False).chord_ends
    assert (prev[0], nxt[0]) == (0, 1)
    assert (prev[3], nxt[3]) == (2, 3)
    assert (prev[2], nxt[2]) == (1, 3)


def test_neighbors_stay_inside_group():
    # landmark 15 opens the second group; its chord must not reach back
    # into the face boundary, whose open end is landmark 14
    prev, nxt = DEFAULT_SCHEME.chord_ends
    assert (prev[15], nxt[15]) == (22, 16)
    assert (prev[14], nxt[14]) == (13, 14)


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
        before, after = neighbors(scheme, i)
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


@pytest.mark.parametrize("entry", [["a", 12.7, "closed"], ["b", "9", "open"], [3, 4, "open"],
                                   ["c", 12.0, "open"], ["d", True, "open"], [None, 4, "open"]])
def test_from_jsonable_rejects_mistyped_group(entry):
    """A count must be an integer and a name a string: neither is coerced."""
    with pytest.raises(ShapeArityError, match="must be"):
        LandmarkScheme.from_jsonable([["ok", 5, "open"], entry])


@pytest.mark.parametrize("case", MALFORMED_SCHEMES)
def test_from_jsonable_names_a_scheme_or_entry_of_another_form(case):
    """A scheme that is not a list, or an entry that is not a 3-item list,
    raises ShapeArityError naming it, never a bare TypeError or ValueError."""
    spec = MALFORMED_SCHEMES[case]
    want = (r"^scheme entry 1 must be a \[name, count, topology\] list, got "
            if case.endswith("entry") else
            r"^scheme must be a list of \[name, count, topology\] entries, got ")
    with pytest.raises(ShapeArityError, match=want + re.escape(repr(
            spec[1] if case.endswith("entry") else spec)) + "$"):
        LandmarkScheme.from_jsonable(spec)
    # tuples, as Python would spell a spec or an entry, are not the JSON form either
    with pytest.raises(ShapeArityError, match="scheme must be a list"):
        LandmarkScheme.from_jsonable((["face", 5, "open"],))
    with pytest.raises(ShapeArityError, match="scheme entry 0 must be"):
        LandmarkScheme.from_jsonable([("face", 5, "open")])


def test_group_accepts_numpy_integer_count():
    assert LandmarkScheme((ContourGroup("a", np.int64(3), False),)).total == 3


def test_train_config_with_mistyped_scheme_is_a_dataset_error(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scheme": [["a", 12.7, "closed"], ["b", 9, "open"]]}))
    with pytest.raises(DatasetError, match="count must be an integer, got 12.7"):
        load_train_settings(config)
