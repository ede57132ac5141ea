"""Landmark scheme: named contour groups with open/closed topology.

The scheme fixes landmark order and tells profile extraction which
neighbors define each landmark's contour tangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ShapeArityError, check_integer, readonly


@dataclass(frozen=True)
class ContourGroup:
    name: str
    count: int
    closed: bool

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ShapeArityError(f"group name must be a string, got {self.name!r}")
        check_integer(f"group {self.name!r} count", self.count)
        if self.count < 2:
            raise ShapeArityError(f"group {self.name!r} needs at least 2 points, got {self.count}")


@dataclass(frozen=True, eq=False)
class LandmarkScheme:
    groups: tuple

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise ShapeArityError("scheme needs at least one contour group")
        object.__setattr__(self, "groups", groups)
        ends = tuple(accumulate(g.count for g in groups))
        object.__setattr__(self, "_starts", (0,) + ends[:-1])
        object.__setattr__(self, "_total", ends[-1])

    @property
    def total(self) -> int:
        return self._total

    @cached_property
    def chord_ends(self):
        """(prev, next) index arrays of every landmark's tangent chord.

        The ends are the landmark's neighbors along its contour. Closed
        contours wrap around; an open-contour endpoint's missing side is
        the landmark itself, so its chord is its single adjacent segment.
        """
        index = np.arange(self._total)
        prev, nxt = index - 1, index + 1
        for g, start in zip(self.groups, self._starts):
            last = start + g.count - 1
            prev[start], nxt[last] = (last, start) if g.closed else (start, last)
        return readonly(prev, np.intp), readonly(nxt, np.intp)

    def group_slices(self):
        """(name, slice) per group, in scheme order."""
        return [(g.name, slice(s, s + g.count)) for g, s in zip(self.groups, self._starts)]

    def to_jsonable(self):
        return [[g.name, g.count, "closed" if g.closed else "open"] for g in self.groups]

    @classmethod
    def from_jsonable(cls, spec_list) -> "LandmarkScheme":
        """The scheme of to_jsonable's [name, count, topology] lists; other forms raise."""
        if not isinstance(spec_list, list):
            raise ShapeArityError(f"scheme must be a list of [name, count, topology] entries, "
                                  f"got {spec_list!r:.80}")
        groups = []
        for i, entry in enumerate(spec_list):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ShapeArityError(f"scheme entry {i} must be a [name, count, topology] list, "
                                      f"got {entry!r:.80}")
            name, count, topo = entry
            if topo not in ("open", "closed"):
                raise ShapeArityError(f"group topology must be open or closed, got {topo!r}")
            groups.append(ContourGroup(name, count, topo == "closed"))
        return cls(tuple(groups))


DEFAULT_SCHEME = LandmarkScheme((
    ContourGroup("face_boundary", 15, False),
    ContourGroup("right_eyebrow", 8, True),
    ContourGroup("left_eyebrow", 8, True),
    ContourGroup("left_eye", 8, True),
    ContourGroup("right_eye", 8, True),
    ContourGroup("nose", 9, False),
    ContourGroup("mouth", 12, True),
))
