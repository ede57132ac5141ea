"""The landmark and PGM readers with hand-moved cursors, used as oracles for
asmfit.dataset_io.

`load_points_file` pulls each next non-blank line through a closure that
advances a shared index; a line number past the last line is the count of
lines. `load_image` scans header tokens byte by byte: whitespace is what
bytes.isspace() accepts, a '#' at a token start runs to the next LF, and
the payload starts one byte after the maxval token. The library must give
the same array, or the same exception type and message, for every input.
"""

from pathlib import Path

import numpy as np

from asmfit.errors import PgmDecodeError, PointsParseError
from asmfit.imaging import GrayImage
from asmfit.shape_model import Shape


def load_points_file(path):
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise PointsParseError(f"{path.name}: not UTF-8 text at byte {exc.start}") from None
    idx = 0

    def fail(msg, lineno):
        raise PointsParseError(f"{path.name}:{lineno}: {msg}")

    def next_content():
        nonlocal idx
        while idx < len(lines):
            stripped = lines[idx].strip()
            idx += 1
            if stripped:
                return stripped, idx
        return None, idx

    header, ln = next_content()
    if header is None or header.replace(" ", "") != "version:1":
        fail(f"expected 'version: 1', got {header!r}", ln)
    counts, ln = next_content()
    if counts is None or not counts.startswith("n_points:"):
        fail(f"expected 'n_points: <k>', got {counts!r}", ln)
    try:
        declared = int(counts.split(":", 1)[1].strip())
    except ValueError:
        fail(f"non-integer point count in {counts!r}", ln)
    brace, ln = next_content()
    if brace != "{":
        fail(f"expected '{{', got {brace!r}", ln)
    pts = []
    while True:
        row, ln = next_content()
        if row is None:
            fail("missing closing '}'", ln)
        if row == "}":
            break
        parts = row.split()
        if len(parts) != 2:
            fail(f"expected 'x y', got {row!r}", ln)
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            fail(f"non-numeric coordinate in {row!r}", ln)
    if len(pts) != declared:
        raise PointsParseError(
            f"{path.name}: header declares {declared} points but body has {len(pts)}"
        )
    return Shape(np.array(pts))


def pgm_tokens(data):
    pos = 0
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos].decode("ascii", "replace"), pos


def load_image(path):
    path = Path(path)
    data = path.read_bytes()
    tokens = pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic != "P5":
            raise PgmDecodeError(f"{path.name}: expected P5 magic, got {magic!r}")
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
    except StopIteration:
        raise PgmDecodeError(f"{path.name}: truncated header") from None
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError:
        raise PgmDecodeError(f"{path.name}: non-numeric header field") from None
    if maxval != 255:
        raise PgmDecodeError(f"{path.name}: only 8-bit images supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise PgmDecodeError(f"{path.name}: bad dimensions {width}x{height}")
    payload = data[end + 1: end + 1 + width * height]
    if len(payload) < width * height:
        raise PgmDecodeError(
            f"{path.name}: payload holds {len(payload)} bytes, need {width * height}"
        )
    return GrayImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width).astype(float))
