"""Reference forms of the NCC gap fill.

The library densifies every track in one walk over the frames in
ascending order, fetching each frame once and scoring each gap segment's
search windows as one stack.  The version here is the earlier
track-by-track, frame-by-frame loop: it fetches a frame for every segment
that reads it and scores one window at a time, preparing the template
again whenever a gap frame declares a wider sample range.  It serves as a
differential-test oracle only.
"""

from __future__ import annotations

import math

from icevision_kit import frames
from icevision_kit.core import NCC_MARGIN_PX, BoundingBox, lerp_box, pixel_rect, search_area
from icevision_kit.tracking import Track, _clip_rect, _crop_clipped, _densify


def densify_ncc(track: Track, frame_images, *, margin: float = NCC_MARGIN_PX) -> Track:
    """:func:`icevision_kit.tracking.densify_ncc`, one track and one gap frame at a time."""
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")

    def fill(start, end):
        span = end.frame_index - start.frame_index
        gap_frames = range(start.frame_index + 1, end.frame_index)
        if not gap_frames:
            return

        key_image = frame_images[start.frame_index]
        template, clipped = _crop_clipped(key_image, pixel_rect(start.box))
        search_box = search_area(start.box, end.box, margin=margin)
        sx0, sy0, sx1, sy1 = _clip_rect(pixel_rect(search_box), key_image.width, key_image.height)

        scorer = None
        for frame in gap_frames:
            linear_box = lerp_box(start.box, end.box, (frame - start.frame_index) / span)
            box, degenerate = linear_box, True
            if template is not None and template.samples.size >= 2:
                search = frames.gray_window(frame_images[frame], sx0, sy0, sx1, sy1)
                th, tw = template.samples.shape
                cx, cy = linear_box.center
                preferred = (cx - tw / 2.0 - sx0, cy - th / 2.0 - sy0)
                if scorer is None or search.max_value > scorer.max_value:
                    scorer = frames.NccTemplate(template, search)
                match = frames.ncc_match(scorer, search, preferred_offset=preferred)
                if not match.degenerate:
                    degenerate = False
                    mx = sx0 + match.offset_x + tw / 2.0
                    my = sy0 + match.offset_y + th / 2.0
                    w, h = linear_box.width, linear_box.height
                    box = BoundingBox(mx - w / 2.0, my - h / 2.0, mx + w / 2.0, my + h / 2.0)
            yield box, degenerate, clipped

    return _densify(track, fill)
