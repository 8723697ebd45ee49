"""Reference forms of the NCC gap fill.

The library densifies every track in one walk over the frames in
ascending order, fetching each frame once and scoring each gap segment's
search windows as one stack.  The version here is the earlier
track-by-track, frame-by-frame loop: it fetches a frame for every segment
that reads it and scores each window alone, at that window's own sample
range, where the library scores a gap's windows as one stack at the
widest range among them.  It clips, crops and builds its entries itself,
through public ``core`` and ``frames`` calls only, so a fault in the
library's own helpers shows as a difference.  It serves as a
differential-test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import replace

from icevision_kit import frames
from icevision_kit.core import (NCC_MARGIN_PX, BoundingBox, Source, iou, lerp_box, pixel_rect,
                                search_area)
from icevision_kit.tracking import Track


def inside(rect, width, height):
    """The part of ``rect`` (x0, y0, x1, y1) that lies inside a width x height frame."""
    x0, y0, x1, y1 = rect
    return max(x0, 0), max(y0, 0), min(x1, width), min(y1, height)


def densify_ncc(track: Track, frame_images, *, margin: float = NCC_MARGIN_PX) -> Track:
    """:func:`icevision_kit.tracking.densify_ncc`, one track and one gap frame at a time."""
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    detected = [e for e in track.entries if e.source is Source.DETECTED]
    entries = detected[:1]
    for start, end in zip(detected, detected[1:]):
        span = end.frame_index - start.frame_index
        gap_frames = range(start.frame_index + 1, end.frame_index)
        if gap_frames:
            key_image = frame_images[start.frame_index]
            width, height = key_image.width, key_image.height
            rect = pixel_rect(start.box)
            x0, y0, x1, y1 = inside(rect, width, height)
            # clipped when the frame edge cut the template; an empty one inside is only degenerate
            clipped = not (0 <= rect[0] and rect[2] <= width and 0 <= rect[1] and rect[3] <= height)
            template = None
            if x1 > x0 and y1 > y0 and (x1 - x0) * (y1 - y0) >= 2:
                template = frames.gray_window(key_image, x0, y0, x1, y1)
            # how far clipping moved the template's centre from its rect's
            dx = (x0 + x1) / 2.0 - (rect[0] + rect[2]) / 2.0
            dy = (y0 + y1) / 2.0 - (rect[1] + rect[3]) / 2.0
            sx0, sy0, sx1, sy1 = inside(pixel_rect(search_area(start.box, end.box, margin=margin)),
                                        width, height)

        for frame in gap_frames:
            linear_box = lerp_box(start.box, end.box, (frame - start.frame_index) / span)
            box, degenerate = linear_box, True
            if template is not None:
                search = frames.gray_window(frame_images[frame], sx0, sy0, sx1, sy1)
                th, tw = template.samples.shape
                cx, cy = linear_box.center
                preferred = (cx + dx - tw / 2.0 - sx0, cy + dy - th / 2.0 - sy0)
                placed = frames.best_placement(frames.ncc_surfaces(template, [search])[0], preferred)
                if placed is not None:
                    degenerate = False
                    mx = sx0 + placed[0] + tw / 2.0 - dx
                    my = sy0 + placed[1] + th / 2.0 - dy
                    w, h = linear_box.width, linear_box.height
                    box = BoundingBox(mx - w / 2.0, my - h / 2.0, mx + w / 2.0, my + h / 2.0)
            entries.append(replace(start, frame_index=frame, box=box, source=Source.INTERPOLATED,
                                   ncc_degenerate=degenerate, template_clipped=clipped))
        entries.append(end)
    return Track(id=track.id, entries=entries)


def centre_errors(tracks: list[Track], dense) -> list[float]:
    """The distance, in pixels, from the centre of each interpolated entry of
    ``tracks`` to the centre of the sign of ``dense`` (frame -> ground-truth
    signs, as ``GeneratedScenario.dense``) that its box overlaps best."""
    errors = []
    for track in tracks:
        for entry in track.entries:
            if entry.source is Source.INTERPOLATED:
                truth = max(dense[entry.frame_index], key=lambda sign: iou(entry.box, sign.box))
                (x, y), (tx, ty) = entry.box.center, truth.box.center
                errors.append(math.hypot(x - tx, y - ty))
    return errors
