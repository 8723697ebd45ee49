"""IoU tracking over sparse keyframes plus gap interpolation.

The detector runs only on keyframes (every third frame by default); the
tracker chains keyframe detections into tracks by box overlap and the
densify operations fill the in-between frames, either by plain linear
interpolation or by template matching against the actual frame content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import (BoundingBox, Detection, Source, greedy_match, iou, lerp_box, pixel_rect,
                   search_area)
from . import frames as frames_mod


@dataclass
class Track:
    """A time-ordered chain of boxes believed to be one physical sign."""

    id: int
    entries: list[Detection]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"track id {self.id} is negative")
        # densifying and refining both start from the detector's keyframes
        if not any(e.source is Source.DETECTED for e in self.entries):
            raise ValueError(f"track {self.id} has no detected entry")
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.frame_index <= prev.frame_index:
                raise ValueError(
                    f"track {self.id} frame indices not strictly increasing "
                    f"({prev.frame_index} -> {cur.frame_index})"
                )

    def detected_entries(self) -> list[Detection]:
        return [e for e in self.entries if e.source is Source.DETECTED]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker settings.  ``keyframe_stride`` is the keyframe grid the mock
    detector reports on; :func:`run_tracker` does not read it."""

    iou_threshold: float = 0.1
    keyframe_stride: int = 3
    max_missed_keyframes: int = 0
    min_track_length: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in [0, 1], got {self.iou_threshold}")
        if self.keyframe_stride < 1:
            raise ValueError(f"keyframe_stride must be positive, got {self.keyframe_stride}")
        if self.max_missed_keyframes < 0:
            raise ValueError(f"max_missed_keyframes must be >= 0, got {self.max_missed_keyframes}")
        if self.min_track_length < 1:
            raise ValueError(f"min_track_length must be positive, got {self.min_track_length}")


def run_tracker(
    keyframe_detections: dict[int, list[Detection]], cfg: TrackerConfig | None = None
) -> list[Track]:
    """Chain keyframe detections into tracks, keyframes in ascending order;
    returns, by id, every track at least ``min_track_length`` entries long.

    Association is :func:`core.greedy_match` over the IoU of each track's
    last box against the keyframe's detections (ties to the older track,
    then the earlier detection); pairs below the threshold stay
    unassigned.  Unassigned detections start new tracks; a track left
    unmatched for more than ``max_missed_keyframes`` consecutive
    keyframes is finished.  A detection with another source is stored as
    a DETECTED copy without NCC flags.
    """
    cfg = cfg or TrackerConfig()
    tracks: list[Track] = []
    active: list[tuple[Track, int]] = []  # (track, consecutive misses), oldest first
    for frame_index in sorted(keyframe_detections):
        detections = keyframe_detections[frame_index]
        for det in detections:
            if det.frame_index != frame_index:
                raise ValueError(
                    f"detection for frame {det.frame_index} filed under keyframe {frame_index}"
                )
        detections = [
            det if det.source is Source.DETECTED
            else Detection(det.frame_index, det.box, det.class_distribution,
                           det.associated_data, det.temporary)
            for det in detections
        ]

        candidates = []
        for t_idx, (track, _) in enumerate(active):
            last_box = track.entries[-1].box
            for d_idx, det in enumerate(detections):
                overlap = iou(last_box, det.box)
                if overlap >= cfg.iou_threshold:
                    candidates.append((overlap, t_idx, d_idx))
        track_match = greedy_match(candidates)
        det_match = {d_idx for d_idx, _ in track_match.values()}

        still_active = []
        for t_idx, (track, misses) in enumerate(active):
            if t_idx in track_match:
                track.entries.append(detections[track_match[t_idx][0]])
                still_active.append((track, 0))
            elif misses < cfg.max_missed_keyframes:
                still_active.append((track, misses + 1))
        for d_idx, det in enumerate(detections):
            if d_idx not in det_match:
                track = Track(id=len(tracks), entries=[det])
                tracks.append(track)
                still_active.append((track, 0))
        active = still_active
    return [t for t in tracks if len(t.entries) >= cfg.min_track_length]


def _densify(track: Track, fill: Callable[[Detection, Detection], Iterator[tuple]]) -> Track:
    """The keyframe-gap loop of both densify functions: ``fill(start, end)``
    yields ``(box, ncc_degenerate, template_clipped)`` per frame strictly
    between two detected entries, each built into an interpolated copy of ``start``."""
    detected = track.detected_entries()
    entries = [detected[0]]
    for start, end in zip(detected, detected[1:]):
        gap_frames = range(start.frame_index + 1, end.frame_index)
        # built directly: dataclasses.replace costs a fields() walk per entry
        entries += [Detection(frame, box, start.class_distribution, start.associated_data,
                              start.temporary, Source.INTERPOLATED, degenerate, clipped)
                    for frame, (box, degenerate, clipped) in zip(gap_frames, fill(start, end))]
        entries.append(end)
    return Track(id=track.id, entries=entries)


def densify_linear(track: Track) -> Track:
    """Fill every integer frame between consecutive detected entries with a
    linearly interpolated box.

    Interpolated entries copy the earlier keyframe's class distribution
    and metadata.  No extrapolation happens before the first or after the
    last detected frame.
    """
    return _densify(track, _linear_fill)


def _linear_fill(start: Detection, end: Detection) -> Iterator[tuple[BoundingBox, bool, bool]]:
    span = end.frame_index - start.frame_index
    for frame in range(start.frame_index + 1, end.frame_index):
        t = (frame - start.frame_index) / span
        yield lerp_box(start.box, end.box, t), start.ncc_degenerate, start.template_clipped


def densify_ncc(track: Track, frame_images, *, margin: float = 20.0) -> Track:
    """Fill gap frames by template matching instead of pure interpolation.

    Box sizes are linearly interpolated, but each in-between position is
    the peak of the normalized cross-correlation of the earlier keyframe's
    box content over a search area spanning both keyframe boxes plus
    ``margin`` pixels.  Score ties prefer the placement closest to the
    linear-interpolation position.  Degenerate correlation (flat template
    or flat search area) falls back to the linear position and flags the
    entry; a template partially outside the frame is clipped and flagged.

    ``frame_images`` maps frame index to a :class:`frames.GrayImage` or
    a :class:`frames.CfaImage` (any ``__getitem__`` provider works, e.g. a
    plain dict).  Only the template and search windows are read, through
    :func:`frames.gray_window`, so a mosaic's green plane is interpolated
    over those windows alone.  ``margin`` must be finite and ``>= 0``.
    """
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")

    def fill(start: Detection, end: Detection) -> Iterator[tuple[BoundingBox, bool, bool]]:
        span = end.frame_index - start.frame_index
        gap_frames = range(start.frame_index + 1, end.frame_index)
        if not gap_frames:
            return

        key_image = frame_images[start.frame_index]
        template, clipped = _crop_clipped(key_image, pixel_rect(start.box))
        search_box = search_area(start.box, end.box, margin=margin)
        sx0, sy0, sx1, sy1 = _clip_rect(pixel_rect(search_box), key_image.width, key_image.height)

        scorer = None  # the template's spectrum, shared by the segment's frames
        for frame in gap_frames:
            t = (frame - start.frame_index) / span
            linear_box = lerp_box(start.box, end.box, t)
            width, height = linear_box.width, linear_box.height
            box = linear_box
            degenerate = True
            # a margin >= 0 keeps the clipped template inside the clipped search area
            if template is not None and template.samples.size >= 2:
                search = frames_mod.gray_window(frame_images[frame], sx0, sy0, sx1, sy1)
                th, tw = template.samples.shape
                cx, cy = linear_box.center
                preferred = (cx - tw / 2.0 - sx0, cy - th / 2.0 - sy0)
                if scorer is None or search.max_value > scorer.max_value:
                    scorer = frames_mod.NccTemplate(template, search)
                match = frames_mod.ncc_match(scorer, search, preferred_offset=preferred)
                if not match.degenerate:
                    degenerate = False
                    mx = sx0 + match.offset_x + tw / 2.0
                    my = sy0 + match.offset_y + th / 2.0
                    box = BoundingBox(
                        mx - width / 2.0, my - height / 2.0,
                        mx + width / 2.0, my + height / 2.0,
                    )
            yield box, degenerate, clipped

    return _densify(track, fill)


def _clip_rect(rect: tuple[int, int, int, int], width: int, height: int):
    x0, y0, x1, y1 = rect
    return (max(0, x0), max(0, y0), min(width, x1), min(height, y1))


def _crop_clipped(image, rect: tuple[int, int, int, int]):
    """Crop a rect that may extend outside the frame; reports clipping."""
    x0, y0, x1, y1 = _clip_rect(rect, image.width, image.height)
    clipped = (x0, y0, x1, y1) != rect
    if x1 <= x0 or y1 <= y0:
        return None, True
    return frames_mod.gray_window(image, x0, y0, x1, y1), clipped


def tracks_to_detections(tracks: list[Track]) -> list[Detection]:
    """Flatten track entries into frame-ordered detections (stable within
    a frame)."""
    return sorted((entry for track in tracks for entry in track.entries),
                  key=lambda d: d.frame_index)
