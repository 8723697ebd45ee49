"""IoU tracking over sparse keyframes plus gap interpolation.

The detector runs only on keyframes (every third frame by default); the
tracker chains keyframe detections into tracks by box overlap and the
densify operations fill the in-between frames, either by plain linear
interpolation or by template matching against the actual frame content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import (NCC_MARGIN_PX, BoundingBox, Detection, Source, greedy_match, index_value, iou,
                   lerp_box, pixel_rect, search_area)
from . import frames as frames_mod


@dataclass(frozen=True)
class Track:
    """A time-ordered chain of boxes believed to be one physical sign;
    checked once, when built, and frozen (``entries`` is a tuple)."""

    id: int
    entries: tuple[Detection, ...]

    def __post_init__(self) -> None:
        if type(self.id) is not int or self.id < 0:
            object.__setattr__(self, "id", index_value(self.id, "track id"))
        object.__setattr__(self, "entries", tuple(self.entries))
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
    chains: list[list[Detection]] = []  # each track's entries, built into a Track at the end
    active: list[tuple[list[Detection], int]] = []  # (chain, consecutive misses), oldest first
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
        for t_idx, (chain, _) in enumerate(active):
            last_box = chain[-1].box
            for d_idx, det in enumerate(detections):
                overlap = iou(last_box, det.box)
                if overlap >= cfg.iou_threshold:
                    candidates.append((overlap, t_idx, d_idx))
        track_match = greedy_match(candidates)
        det_match = {d_idx for d_idx, _ in track_match.values()}

        still_active = []
        for t_idx, (chain, misses) in enumerate(active):
            if t_idx in track_match:
                chain.append(detections[track_match[t_idx][0]])
                still_active.append((chain, 0))
            elif misses < cfg.max_missed_keyframes:
                still_active.append((chain, misses + 1))
        for d_idx, det in enumerate(detections):
            if d_idx not in det_match:
                chains.append([det])
                still_active.append((chains[-1], 0))
        active = still_active
    return [Track(id=track_id, entries=chain) for track_id, chain in enumerate(chains)
            if len(chain) >= cfg.min_track_length]


def _densify(track: Track, fills: Iterable[list[tuple]]) -> Track:
    """The keyframe-gap loop of both densify functions: ``fills`` holds, for
    each pair of consecutive detected entries in order, ``(box,
    ncc_degenerate, template_clipped)`` per frame strictly between them,
    each built into an interpolated copy of the earlier entry."""
    detected = track.detected_entries()
    entries = [detected[0]]
    for start, end, fill in zip(detected, detected[1:], fills):
        gap_frames = range(start.frame_index + 1, end.frame_index)
        # built directly: dataclasses.replace costs a fields() walk per entry
        entries += [Detection(frame, box, start.class_distribution, start.associated_data,
                              start.temporary, Source.INTERPOLATED, degenerate, clipped)
                    for frame, (box, degenerate, clipped) in zip(gap_frames, fill)]
        entries.append(end)
    return Track(id=track.id, entries=entries)


def _linear_boxes(start: Detection, end: Detection) -> list[BoundingBox]:
    """The linearly interpolated box of each frame strictly between two entries."""
    span = end.frame_index - start.frame_index
    return [lerp_box(start.box, end.box, (frame - start.frame_index) / span)
            for frame in range(start.frame_index + 1, end.frame_index)]


def densify_linear(track: Track) -> Track:
    """Fill every integer frame between consecutive detected entries with a
    linearly interpolated box.

    Interpolated entries copy the earlier keyframe's class distribution,
    metadata and NCC flags.  No extrapolation happens before the first or
    after the last detected frame.
    """
    detected = track.detected_entries()
    return _densify(track, ([(box, start.ncc_degenerate, start.template_clipped)
                             for box in _linear_boxes(start, end)]
                            for start, end in zip(detected, detected[1:])))


def densify_ncc(track: Track, frame_images, *, margin: float = NCC_MARGIN_PX) -> Track:
    """Fill gap frames by template matching instead of pure interpolation.

    Box sizes are linearly interpolated, but each in-between position is
    the peak of the normalized cross-correlation of the earlier keyframe's
    box content over a search area spanning both keyframe boxes plus
    ``margin`` pixels.  A gap's search windows are scored in one
    :func:`frames.ncc_surfaces` call, and :func:`frames.best_placement`
    picks each peak: score ties prefer the placement closest to the
    linear-interpolation position.  A surface with no placement of nonzero
    variance (flat template or flat search area) has none, so its entry
    keeps the linear position and is flagged.  A template partially
    outside the frame is clipped and flagged, and the box keeps its offset
    from the clipped template, so a sign that stays still at the frame
    edge keeps its keyframe box.

    ``frame_images`` maps frame index to a :class:`frames.GrayImage` or
    a :class:`frames.CfaImage` (any ``__getitem__`` provider works, e.g. a
    plain dict).  Only the template and search windows are read, through
    :func:`frames.gray_window`, so a mosaic's green plane is interpolated
    over those windows alone.  ``margin`` must be finite and ``>= 0``.
    This is :func:`densify_ncc_tracks` over the one track.
    """
    return densify_ncc_tracks([track], frame_images, margin=margin)[0]


class _Segment:
    """One keyframe gap of the NCC walk.  Its start keyframe gives the
    template and the clipped search rectangle; each gap frame then gives a
    search window, and the last one scores them all in one
    :func:`frames.ncc_surfaces` call into ``fill``:
    ``(box, ncc_degenerate, template_clipped)`` per gap frame."""

    def __init__(self, start: Detection, end: Detection):
        self.start, self.end = start, end
        self.frames = range(start.frame_index + 1, end.frame_index)
        self.template = None  # usable once read: a crop of at least two pixels
        self.clipped = False  # whether the frame edge cut the template
        self.shift = (0.0, 0.0)  # the template's centre minus its unclipped rect's
        self.search = (0, 0, 0, 0)  # the search rectangle, clipped to the frame
        self.windows: list = []
        self.fill: list[tuple[BoundingBox, bool, bool]] = []

    def read_keyframe(self, image, margin: float) -> None:
        rect = pixel_rect(self.start.box)
        x0, y0, x1, y1 = crop = _clip_rect(rect, image.width, image.height)
        self.clipped = crop != rect
        search_box = search_area(self.start.box, self.end.box, margin=margin)
        self.search = _clip_rect(pixel_rect(search_box), image.width, image.height)
        if x1 > x0 and y1 > y0 and (x1 - x0) * (y1 - y0) >= 2:
            self.template = frames_mod.gray_window(image, *crop)
            self.shift = ((x0 + x1 - rect[0] - rect[2]) / 2.0, (y0 + y1 - rect[1] - rect[3]) / 2.0)
        else:
            self.fill = [(box, True, self.clipped) for box in _linear_boxes(self.start, self.end)]

    def read_gap_frame(self, image) -> None:
        # a margin >= 0 keeps the clipped template inside the clipped search area
        self.windows.append(frames_mod.gray_window(image, *self.search))
        if len(self.windows) == len(self.frames):
            self._score()

    def _score(self) -> None:
        """Score the template over all the windows in one
        :func:`frames.ncc_surfaces` call, and place it in each by
        :func:`frames.best_placement`.  The preferred placement centres the
        template at the linear box's centre plus ``shift``, and a placed box
        is centred at the placed template's centre minus ``shift``: a
        template the frame edge clipped keeps its offset from the box."""
        surfaces = frames_mod.ncc_surfaces(self.template, self.windows)
        th, tw = self.template.samples.shape
        sx0, sy0 = self.search[:2]
        dx, dy = self.shift
        for linear_box, surface in zip(_linear_boxes(self.start, self.end), surfaces):
            cx, cy = linear_box.center
            placed = frames_mod.best_placement(
                surface, (cx + dx - tw / 2.0 - sx0, cy + dy - th / 2.0 - sy0))
            box = linear_box  # a degenerate surface keeps the linear position
            if placed is not None:
                mx = sx0 + placed[0] + tw / 2.0 - dx
                my = sy0 + placed[1] + th / 2.0 - dy
                width, height = linear_box.width, linear_box.height
                box = BoundingBox(mx - width / 2.0, my - height / 2.0, mx + width / 2.0, my + height / 2.0)
            self.fill.append((box, placed is None, self.clipped))
        self.windows = []


def densify_ncc_tracks(tracks: list[Track], frame_images, *,
                       margin: float = NCC_MARGIN_PX) -> list[Track]:
    """:func:`densify_ncc` of each track, in input order, by one walk over
    every track's gap segments in ascending frame order.

    Each frame is fetched from ``frame_images`` once, and only when some
    segment needs it: the start keyframe of a segment with gap frames,
    and the gap frames of a segment whose template is usable.  A frame's
    windows are cut for every segment that needs them and the frame is
    dropped before the next is fetched, so one decoded frame is held at a
    time; a segment is scored once it has all of its windows.  A provider
    error therefore names the lowest frame that raised it.
    """
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    segments = []  # per track, its segments in order
    starting: dict[int, list[_Segment]] = {}  # frame -> segments it is the start keyframe of
    spanning: dict[int, list[_Segment]] = {}  # frame -> segments it is a gap frame of
    for track in tracks:
        detected = track.detected_entries()
        segments.append([_Segment(start, end) for start, end in zip(detected, detected[1:])])
        for segment in segments[-1]:
            if segment.frames:
                starting.setdefault(segment.start.frame_index, []).append(segment)
                for frame in segment.frames:
                    spanning.setdefault(frame, []).append(segment)

    for frame in sorted(starting.keys() | spanning.keys()):
        opening = starting.get(frame, [])
        reading = [segment for segment in spanning.get(frame, []) if segment.template is not None]
        if not (opening or reading):
            continue
        image = frame_images[frame]
        for segment in opening:
            segment.read_keyframe(image, margin)
        for segment in reading:
            segment.read_gap_frame(image)
        del image  # so the next fetch does not hold two frames

    return [_densify(track, [segment.fill for segment in track_segments])
            for track, track_segments in zip(tracks, segments)]


def _clip_rect(rect: tuple[int, int, int, int], width: int, height: int):
    x0, y0, x1, y1 = rect
    return (max(0, x0), max(0, y0), min(width, x1), min(height, y1))


def tracks_to_detections(tracks: list[Track]) -> list[Detection]:
    """Flatten track entries into frame-ordered detections (stable within
    a frame)."""
    return sorted((entry for track in tracks for entry in track.entries),
                  key=lambda d: d.frame_index)
