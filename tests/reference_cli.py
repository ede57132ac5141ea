"""The overlay drawn pixel by pixel, used as an oracle for cli.render_overlay.

Same conventions as the library: every contour segment a -> b of a group
(closed groups add last -> first) is sampled at max(2, ceil(2 |b - a|))
points of np.linspace(0, 1, steps), each rounded half to even with Python's
round; groups draw in scheme order with their palette color, and 3x3 red
markers around the rounded landmarks draw last. Every pixel is set on its
own, and only when it lies inside the image.
"""

import numpy as np

from asmfit.cli import GROUP_PALETTE, MARKER_COLOR


def render_overlay(image, shape, scheme):
    """(h, w, 3) uint8 overlay of shape on the gray image."""
    rgb = np.repeat(
        np.clip(np.rint(image.pixels), 0, 255).astype(np.uint8)[:, :, None], 3, axis=2
    )
    h, w = image.pixels.shape

    def put(cx, cy, color):
        if 0 <= cx < w and 0 <= cy < h:
            rgb[cy, cx] = color

    def draw_segment(a, b, color):
        steps = max(2, int(np.ceil(np.linalg.norm(b - a) * 2)))
        for t in np.linspace(0.0, 1.0, steps):
            x, y = a + t * (b - a)
            put(int(round(x)), int(round(y)), color)

    for gi, (group, (_, sl)) in enumerate(zip(scheme.groups, scheme.group_slices())):
        pts = shape.points[sl]
        color = GROUP_PALETTE[gi % len(GROUP_PALETTE)]
        pairs = list(zip(pts[:-1], pts[1:]))
        if group.closed:
            pairs.append((pts[-1], pts[0]))
        for a, b in pairs:
            draw_segment(a, b, color)
    for x, y in shape.points:
        cx, cy = int(round(x)), int(round(y))
        for py in range(cy - 1, cy + 2):
            for px in range(cx - 1, cx + 2):
                put(px, py, MARKER_COLOR)
    return rgb
