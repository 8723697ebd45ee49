"""IoU tracking over sparse keyframes plus gap interpolation.

The detector runs only on keyframes (every third frame by default); the
tracker chains keyframe detections into tracks by box overlap and the
densify operations fill the in-between frames, either by plain linear
interpolation or by template matching against the actual frame content.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .core import BoundingBox, Detection, Source, iou, lerp_box
from . import frames as frames_mod


class TrackState(enum.Enum):
    ACTIVE = "active"
    FINISHED = "finished"


@dataclass
class Track:
    """A time-ordered chain of boxes believed to be one physical sign."""

    id: int
    entries: list[Detection]
    state: TrackState = TrackState.ACTIVE
    missed_keyframes: int = 0

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("track must have at least one entry")
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.frame_index <= prev.frame_index:
                raise ValueError(
                    f"track {self.id} frame indices not strictly increasing "
                    f"({prev.frame_index} -> {cur.frame_index})"
                )

    @property
    def last_frame(self) -> int:
        return self.entries[-1].frame_index

    @property
    def last_box(self) -> BoundingBox:
        return self.entries[-1].box

    def detected_entries(self) -> list[Detection]:
        return [e for e in self.entries if e.source is Source.DETECTED]


@dataclass(frozen=True)
class TrackerConfig:
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


class IouTracker:
    """Stateful keyframe-by-keyframe IoU tracker.

    Association is global greedy by descending IoU of a track's last box
    against the new detections, each side used at most once; pairs below
    the threshold stay unassigned.  Unassigned detections start new
    tracks; a track left unmatched for more than ``max_missed_keyframes``
    consecutive keyframes is finished.  Tracks hold the detections they
    were given; one with another source is stored as a DETECTED copy
    without NCC flags.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.active: list[Track] = []
        self.finished: list[Track] = []
        self._next_id = 0

    def step(self, frame_index: int, detections: list[Detection]) -> list[Track]:
        """Consume one keyframe's detections; returns tracks finished now."""
        for det in detections:
            if det.frame_index != frame_index:
                raise ValueError(
                    f"detection for frame {det.frame_index} fed to tracker step {frame_index}"
                )
        detections = [
            det if det.source is Source.DETECTED
            else replace(det, source=Source.DETECTED, ncc_degenerate=False, template_clipped=False)
            for det in detections
        ]
        for track in self.active:
            if frame_index <= track.last_frame:
                raise ValueError(
                    f"keyframe {frame_index} not after track {track.id} "
                    f"last frame {track.last_frame}"
                )

        candidates = []
        for t_idx, track in enumerate(self.active):
            for d_idx, det in enumerate(detections):
                overlap = iou(track.last_box, det.box)
                if overlap >= self.cfg.iou_threshold:
                    candidates.append((overlap, t_idx, d_idx))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

        track_match: dict[int, int] = {}
        det_match: set[int] = set()
        for overlap, t_idx, d_idx in candidates:
            if t_idx in track_match or d_idx in det_match:
                continue
            track_match[t_idx] = d_idx
            det_match.add(d_idx)

        still_active: list[Track] = []
        newly_finished: list[Track] = []
        for t_idx, track in enumerate(self.active):
            if t_idx in track_match:
                track.entries.append(detections[track_match[t_idx]])
                track.missed_keyframes = 0
                still_active.append(track)
            else:
                track.missed_keyframes += 1
                if track.missed_keyframes > self.cfg.max_missed_keyframes:
                    track.state = TrackState.FINISHED
                    track.missed_keyframes = 0
                    newly_finished.append(track)
                else:
                    still_active.append(track)

        for d_idx, det in enumerate(detections):
            if d_idx in det_match:
                continue
            still_active.append(Track(id=self._next_id, entries=[det]))
            self._next_id += 1

        self.active = still_active
        self.finished.extend(newly_finished)
        return newly_finished

    def finish_all(self) -> list[Track]:
        """Close every remaining track and return the full track list by id."""
        for track in self.active:
            track.state = TrackState.FINISHED
            track.missed_keyframes = 0
        self.finished.extend(self.active)
        self.active = []
        self.finished.sort(key=lambda t: t.id)
        return self.finished


def run_tracker(
    keyframe_detections: dict[int, list[Detection]], cfg: TrackerConfig | None = None
) -> list[Track]:
    """Track all keyframes in ascending frame order and return every track
    at least ``min_track_length`` entries long."""
    cfg = cfg or TrackerConfig()
    tracker = IouTracker(cfg)
    for frame_index in sorted(keyframe_detections):
        tracker.step(frame_index, keyframe_detections[frame_index])
    tracks = tracker.finish_all()
    return [t for t in tracks if len(t.entries) >= cfg.min_track_length]


def _densify(track: Track, fill: Callable[[Detection, Detection], Iterator[Detection]]) -> Track:
    """The keyframe-gap loop of both densify functions: ``fill(start, end)``
    yields the entries strictly between two consecutive detected entries."""
    detected = track.detected_entries()
    if not detected:
        raise ValueError(f"track {track.id} has no detected entries to interpolate between")
    entries = [detected[0]]
    for start, end in zip(detected, detected[1:]):
        entries.extend(fill(start, end))
        entries.append(end)
    return Track(id=track.id, entries=entries, state=track.state)


def densify_linear(track: Track) -> Track:
    """Fill every integer frame between consecutive detected entries with a
    linearly interpolated box.

    Interpolated entries copy the earlier keyframe's class distribution
    and metadata.  No extrapolation happens before the first or after the
    last detected frame.
    """
    return _densify(track, _linear_fill)


def _linear_fill(start: Detection, end: Detection) -> Iterator[Detection]:
    span = end.frame_index - start.frame_index
    for frame in range(start.frame_index + 1, end.frame_index):
        t = (frame - start.frame_index) / span
        box = lerp_box(start.box, end.box, t)
        yield replace(start, frame_index=frame, box=box, source=Source.INTERPOLATED)


def _int_rect(box: BoundingBox) -> tuple[int, int, int, int]:
    # round-half-up to integer pixel bounds
    return (
        math.floor(box.x_min + 0.5),
        math.floor(box.y_min + 0.5),
        math.floor(box.x_max + 0.5),
        math.floor(box.y_max + 0.5),
    )


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
    over those windows alone.
    """

    def fill(start: Detection, end: Detection) -> Iterator[Detection]:
        span = end.frame_index - start.frame_index
        gap_frames = range(start.frame_index + 1, end.frame_index)
        if not gap_frames:
            return

        key_image = frame_images[start.frame_index]
        template, clipped = _crop_clipped(key_image, _int_rect(start.box))
        search_box = frames_mod.search_area(start.box, end.box, margin=margin)
        sx0, sy0, sx1, sy1 = _clip_rect(_int_rect(search_box), key_image.width, key_image.height)

        searchable = sx1 > sx0 and sy1 > sy0
        for frame in gap_frames:
            t = (frame - start.frame_index) / span
            linear_box = lerp_box(start.box, end.box, t)
            width, height = linear_box.width, linear_box.height
            box = linear_box
            degenerate = True
            if searchable and template is not None and template.samples.size >= 2:
                image = frame_images[frame]
                search = frames_mod.gray_window(image, sx0, sy0, sx1, sy1)
                th, tw = template.samples.shape
                if search.height >= th and search.width >= tw:
                    cx, cy = linear_box.center
                    preferred = (cx - tw / 2.0 - sx0, cy - th / 2.0 - sy0)
                    match = frames_mod.ncc_match(template, search, preferred_offset=preferred)
                    if not match.degenerate:
                        degenerate = False
                        mx = sx0 + match.offset_x + tw / 2.0
                        my = sy0 + match.offset_y + th / 2.0
                        box = BoundingBox(
                            mx - width / 2.0, my - height / 2.0,
                            mx + width / 2.0, my + height / 2.0,
                        )
            yield replace(
                start,
                frame_index=frame,
                box=box,
                source=Source.INTERPOLATED,
                ncc_degenerate=degenerate,
                template_clipped=clipped,
            )

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
