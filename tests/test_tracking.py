"""IoU tracker association, track lifecycle, and gap densification."""

import math
import random
import re
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import tracking_oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from icevision_kit import frames, tracking
from icevision_kit.core import BoundingBox, Detection, Source, iou, pixel_rect, search_area
from icevision_kit.frames import GrayImage
from icevision_kit.taxonomy import parse_code
from icevision_kit.tracking import (
    Track,
    TrackerConfig,
    densify_linear,
    densify_ncc,
    run_tracker,
    tracks_to_detections,
)


def det(frame, box, code="3.24", prob=1.0):
    return Detection(
        frame_index=frame,
        box=BoundingBox(*box),
        class_distribution={parse_code(code): prob},
    )


def make_track(*entries, track_id=0):
    """Track from (frame, box, code) tuples, all detected."""
    return Track(
        id=track_id,
        entries=[
            Detection(
                frame_index=frame,
                box=BoundingBox(*box),
                class_distribution={parse_code(code): 1.0},
                source=Source.DETECTED,
            )
            for frame, box, code in entries
        ],
    )


class TestTrackRules:
    def test_empty_track_rejected(self):
        with pytest.raises(ValueError, match="track 3 has no detected entry"):
            Track(3, [])

    def test_interpolated_entries_alone_rejected(self):
        track = make_track((0, (0, 0, 30, 30), "3.24"), (3, (3, 0, 33, 30), "3.24"), track_id=3)
        gaps = [e for e in densify_linear(track).entries if e.source is Source.INTERPOLATED]
        assert len(gaps) == 2
        with pytest.raises(ValueError, match="track 3 has no detected entry"):
            Track(3, gaps)

    @pytest.mark.parametrize("frames, step", [((3, 0), "3 -> 0"), ((0, 4, 4), "4 -> 4")])
    def test_frames_must_strictly_increase(self, frames, step):
        entries = [(f, (0, 0, 30, 30), "3.24") for f in frames]
        with pytest.raises(ValueError,
                           match=f"^track 7 frame indices not strictly increasing \\({step}\\)$"):
            make_track(*entries, track_id=7)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="track id must be a non-negative integer, got -1"):
            make_track((0, (0, 0, 30, 30), "3.24"), track_id=-1)

    @pytest.mark.parametrize("track_id", [1.5, np.float64(2.0), "3"])
    def test_non_integer_id_rejected(self, track_id):
        message = f"track id must be a non-negative integer, got {track_id!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_track((0, (0, 0, 30, 30), "3.24"), track_id=track_id)

    def test_frozen_with_tuple_entries(self):
        track = make_track((0, (0, 0, 30, 30), "3.24"), (3, (3, 0, 33, 30), "3.24"))
        assert type(track.entries) is tuple and len(track.entries) == 2
        with pytest.raises(FrozenInstanceError):
            track.entries = track.entries[:1]
        with pytest.raises(FrozenInstanceError):
            track.id = 1

    def test_tracker_builds_frozen_tracks(self):
        tracks = run_tracker({0: [det(0, (0, 0, 30, 30))], 3: [det(3, (3, 0, 33, 30))]})
        assert [type(t.entries) for t in tracks] == [tuple]
        assert [e.frame_index for e in tracks[0].entries] == [0, 3]


class TestAssociation:
    def test_overlapping_detection_continues_track(self):
        # iou((0,0,50,50),(2,2,52,52)) = 2304/2696
        assert iou(
            BoundingBox(0, 0, 50, 50), BoundingBox(2, 2, 52, 52)
        ) == pytest.approx(2304 / 2696, abs=1e-12)
        tracks = run_tracker({0: [det(0, (0, 0, 50, 50))], 3: [det(3, (2, 2, 52, 52))]})
        assert len(tracks) == 1
        assert [e.frame_index for e in tracks[0].entries] == [0, 3]

    def test_non_overlapping_detection_starts_new_track(self):
        tracks = run_tracker(
            {0: [det(0, (0, 0, 50, 50))], 3: [det(3, (1000, 1000, 1050, 1050))]}
        )
        assert len(tracks) == 2

    def test_higher_iou_track_wins_conflict(self):
        d = det(6, (0, 0, 50, 50))
        near = det(0, (1, 1, 51, 51))
        far = det(0, (20, 20, 70, 70))
        tracks = run_tracker({0: [far, near], 6: [d]})
        winner = next(t for t in tracks if len(t.entries) == 2)
        assert winner.entries[0].box == near.box

    def test_threshold_boundary_inclusive(self):
        # iou((0,0,10,10),(0,8.1...,10,18...)) tuned well below; instead use
        # horizontally slid boxes: iou = (10-dx)/(10+dx) = 0.1 at dx = 90/11
        dx = 90 / 11
        a = det(0, (0, 0, 10, 10))
        b = det(3, (dx, 0, 10 + dx, 10))
        assert iou(a.box, b.box) == pytest.approx(0.1, abs=1e-12)
        tracks = run_tracker({0: [a], 3: [b]})
        assert len(tracks) == 1

    def test_unreachable_threshold_gives_singletons(self):
        cfg = TrackerConfig(iou_threshold=1.0)
        boxes = {f: [det(f, (0.001 * f, 0, 10 + 0.001 * f, 10))] for f in (0, 3, 6)}
        tracks = run_tracker(boxes, cfg)
        assert len(tracks) == 3

    def test_wrong_frame_detection_rejected(self):
        with pytest.raises(ValueError):
            run_tracker({0: [det(3, (0, 0, 10, 10))]})

    def test_entries_are_the_callers_detections(self):
        first, second = det(0, (0, 0, 50, 50)), det(3, (2, 2, 52, 52))
        (track,) = run_tracker({0: [first], 3: [second]})
        assert track.entries[0] is first and track.entries[1] is second

    def test_detection_fed_as_interpolated_enters_as_detected(self):
        fed = replace(det(0, (0, 0, 50, 50)), source=Source.INTERPOLATED, ncc_degenerate=True)
        (track,) = run_tracker({0: [fed]})
        (entry,) = track.entries
        assert entry.source is Source.DETECTED
        assert entry == replace(fed, source=Source.DETECTED, ncc_degenerate=False)


class TestLifecycle:
    def test_missed_keyframe_finishes_track_by_default(self):
        frames = {
            0: [det(0, (0, 0, 50, 50))],
            3: [],
            6: [det(6, (0, 0, 50, 50))],
        }
        tracks = run_tracker(frames)
        assert len(tracks) == 2  # the miss at frame 3 killed track 0

    def test_max_missed_keyframes_bridges_gap(self):
        frames = {
            0: [det(0, (0, 0, 50, 50))],
            3: [],
            6: [det(6, (0, 0, 50, 50))],
        }
        tracks = run_tracker(frames, TrackerConfig(max_missed_keyframes=1))
        assert len(tracks) == 1
        assert [e.frame_index for e in tracks[0].entries] == [0, 6]

    def test_min_track_length_filters(self):
        frames = {
            0: [det(0, (0, 0, 50, 50)), det(0, (500, 500, 550, 550))],
            3: [det(3, (0, 0, 50, 50))],
        }
        tracks = run_tracker(frames, TrackerConfig(min_track_length=2))
        assert len(tracks) == 1

    def test_translating_box_single_track(self):
        frames = {}
        for k in range(10):
            f = 3 * k
            x = 2.0 * f
            frames[f] = [det(f, (x, 0, x + 50, 50))]
        tracks = run_tracker(frames)
        assert len(tracks) == 1
        assert len(tracks[0].entries) == 10

    def test_empty_input(self):
        assert run_tracker({}) == []

    def test_two_static_far_boxes_two_tracks(self):
        frames = {
            f: [det(f, (0, 0, 50, 50)), det(f, (500, 500, 550, 550))]
            for f in (0, 3, 6)
        }
        tracks = run_tracker(frames)
        assert len(tracks) == 2
        assert all(len(t.entries) == 3 for t in tracks)

    def test_ids_in_start_order(self):
        tracks = run_tracker({0: [det(0, (0, 0, 10, 10)), det(0, (50, 50, 60, 60))]})
        assert [t.id for t in tracks] == [0, 1]


class TestPartition:
    def test_every_detection_in_exactly_one_track(self):
        rng = random.Random(99)
        for _ in range(30):
            frames = {}
            live = []
            for k in range(rng.randrange(2, 8)):
                f = 3 * k
                dets = []
                for _ in range(rng.randrange(0, 5)):
                    x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                    dets.append(det(f, (x, y, x + rng.uniform(10, 60), y + rng.uniform(10, 60))))
                frames[f] = dets
                live.extend(dets)
            tracks = run_tracker(frames)
            tracked = [e for t in tracks for e in t.entries]
            assert len(tracked) == len(live)
            # each original detection box appears exactly once
            got = sorted((e.frame_index, e.box.x_min, e.box.y_min) for e in tracked)
            want = sorted((d.frame_index, d.box.x_min, d.box.y_min) for d in live)
            assert got == want


class TestDensifyLinear:
    def test_interpolates_interior_frames(self):
        track = make_track((0, (0, 0, 30, 30), "3.24"), (3, (30, 30, 60, 60), "3.24"))
        dense = densify_linear(track)
        assert [e.frame_index for e in dense.entries] == [0, 1, 2, 3]
        b1, b2 = dense.entries[1].box, dense.entries[2].box
        assert (b1.x_min, b1.y_min, b1.x_max, b1.y_max) == pytest.approx((10, 10, 40, 40))
        assert (b2.x_min, b2.y_min, b2.x_max, b2.y_max) == pytest.approx((20, 20, 50, 50))

    def test_sources_and_distribution_copy(self):
        track = make_track((0, (0, 0, 30, 30), "3.24"), (3, (30, 30, 60, 60), "5.19.1"))
        dense = densify_linear(track)
        assert dense.entries[1].source is Source.INTERPOLATED
        assert dense.entries[1].class_distribution == {parse_code("3.24"): 1.0}
        assert dense.entries[0].source is Source.DETECTED

    def test_gap_entries_copy_the_earlier_keyframes_ncc_flags(self):
        start = replace(det(0, (0, 0, 30, 30)), ncc_degenerate=True)
        middle = replace(det(3, (30, 30, 60, 60)), template_clipped=True)
        end = det(5, (40, 40, 70, 70))
        dense = densify_linear(Track(id=0, entries=[start, middle, end]))
        flags = [(e.ncc_degenerate, e.template_clipped) for e in dense.entries]
        assert flags == [(True, False)] * 3 + [(False, True)] * 2 + [(False, False)]

    def test_single_entry_unchanged(self):
        track = run_tracker({0: [det(0, (0, 0, 30, 30))]})[0]
        dense = densify_linear(track)
        assert [e.frame_index for e in dense.entries] == [0]

    def test_static_box_copies(self):
        track = run_tracker({0: [det(0, (5, 5, 25, 25))], 3: [det(3, (5, 5, 25, 25))]})[0]
        dense = densify_linear(track)
        assert all(e.box == BoundingBox(5, 5, 25, 25) for e in dense.entries)

    def test_keyframe_subsample_round_trip(self):
        track = run_tracker(
            {0: [det(0, (0, 0, 30, 30))], 3: [det(3, (12, 0, 42, 30))], 6: [det(6, (24, 0, 54, 30))]}
        )[0]
        dense = densify_linear(track)
        keyed = tuple(e for e in dense.entries if e.source is Source.DETECTED)
        assert keyed == track.entries

    def test_no_extrapolation(self):
        track = run_tracker({3: [det(3, (0, 0, 30, 30))], 6: [det(6, (3, 0, 33, 30))]})[0]
        dense = densify_linear(track)
        assert dense.entries[0].frame_index == 3
        assert dense.entries[-1].frame_index == 6


def _flat_images(frames, w=200, h=120, value=50):
    img = GrayImage(samples=np.full((h, w), value, dtype=np.uint8))
    return {f: img for f in frames}


def _render_patch(frames_and_pos, w=200, h=120, patch_seed=7, pw=20, ph=20, bg=30):
    """Images with one textured patch at given integer positions."""
    rng = np.random.Generator(np.random.PCG64(patch_seed))
    patch = rng.integers(0, 256, size=(ph, pw), dtype=np.uint8)
    out = {}
    for frame, (x, y) in frames_and_pos.items():
        canvas = np.full((h, w), bg, dtype=np.uint8)
        canvas[y : y + ph, x : x + pw] = patch
        out[frame] = GrayImage(samples=canvas)
    return out


# a patch that jitters off the straight line between its keyframe boxes at
# frames 0 and 5, which overlap (IoU 1/3), so the tracker chains them
JITTER = {f: (x, y) for f, x, y in zip(range(6), (10, 15, 13, 19, 17, 20), (40, 42, 39, 41, 43, 40))}


def _jitter_track():
    """The one track over JITTER's keyframes, and the rendered frames."""
    tracks = run_tracker(
        {0: [det(0, (10, 40, 30, 60))], 5: [det(5, (20, 40, 40, 60))]},
        TrackerConfig(keyframe_stride=5),
    )
    assert len(tracks) == 1 and len(tracks[0].entries) == 2
    return tracks[0], _render_patch(JITTER)


@st.composite
def boxes(draw):
    coords = st.floats(-100.0, 300.0)
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return BoundingBox(x0, y0, x1, y1)


class TestNccWindow:
    """densify_ncc slides the clipped template over the clipped search area
    without checking that it fits: a margin >= 0 guarantees it."""

    @settings(max_examples=500, deadline=None)
    @given(boxes(), boxes(), st.floats(0.0, 50.0), st.integers(1, 200), st.integers(1, 200))
    def test_clipped_template_lies_inside_clipped_search_area(self, start, end, margin,
                                                              width, height):
        tx0, ty0, tx1, ty1 = tracking._clip_rect(pixel_rect(start), width, height)
        if tx1 > tx0 and ty1 > ty0:
            search = pixel_rect(search_area(start, end, margin=margin))
            sx0, sy0, sx1, sy1 = tracking._clip_rect(search, width, height)
            assert sx0 <= tx0 and sy0 <= ty0 and tx1 <= sx1 and ty1 <= sy1

    @pytest.mark.parametrize("margin", [-1.0, math.inf, math.nan])
    def test_negative_or_non_finite_margin_rejected(self, margin):
        track, images = _jitter_track()
        with pytest.raises(ValueError, match="margin"):
            densify_ncc(track, images, margin=margin)

    def test_zero_margin_accepted(self):
        track, images = _jitter_track()
        dense = densify_ncc(track, images, margin=0.0)
        assert [e.frame_index for e in dense.entries] == list(range(6))


class TestDensifyNcc:
    def test_recovers_translation_exactly(self):
        track, images = _jitter_track()
        dense = densify_ncc(track, images)
        interp = [e for e in dense.entries if e.source is Source.INTERPOLATED]
        assert [e.frame_index for e in interp] == [1, 2, 3, 4]
        for entry in dense.entries:
            x, y = JITTER[entry.frame_index]
            assert entry.box == BoundingBox(x, y, x + 20, y + 20)
        assert not any(e.ncc_degenerate or e.template_clipped for e in interp)
        # the straight line misses the patch on these frames
        linear = densify_linear(track)
        assert all(got.box != want.box for got, want in zip(interp, linear.entries[1:5]))

    def test_zero_motion_keeps_keyframe_box(self):
        positions = {f: (60, 30) for f in range(4)}
        images = _render_patch(positions)
        track = run_tracker(
            {0: [det(0, (60, 30, 80, 50))], 3: [det(3, (60, 30, 80, 50))]}
        )[0]
        dense = densify_ncc(track, images)
        for entry in dense.entries:
            assert entry.box == BoundingBox(60, 30, 80, 50)

    def test_flat_frames_fall_back_to_linear(self):
        images = _flat_images(range(4))
        track = run_tracker(
            {0: [det(0, (10, 10, 30, 30))], 3: [det(3, (22, 10, 42, 30))]}
        )[0]
        dense = densify_ncc(track, images)
        linear = densify_linear(track)
        for got, want in zip(dense.entries, linear.entries):
            assert got.box == want.box
            if got.source is Source.INTERPOLATED:
                assert got.ncc_degenerate

    def test_template_outside_frame_clipped_and_flagged(self):
        positions = {f: (0, 40) for f in range(4)}
        images = _render_patch(positions)
        track = run_tracker(
            {0: [det(0, (-5, 40, 15, 60))], 3: [det(3, (-5, 40, 15, 60))]}
        )[0]
        dense = densify_ncc(track, images)
        interp = [e for e in dense.entries if e.source is Source.INTERPOLATED]
        assert interp and all(e.template_clipped for e in interp)

    def test_empty_template_inside_the_frame_is_degenerate_not_clipped(self):
        # x 50.6...51.1 rounds to the empty pixel columns 51...51, all inside the 200x120 frame
        images = _render_patch({f: (50, 40) for f in range(4)})
        track = make_track((0, (50.6, 40, 51.1, 60), "3.24"), (3, (50.6, 40, 51.1, 60), "3.24"))
        for dense in (densify_ncc(track, images), tracking_oracles.densify_ncc(track, images)):
            interp = [e for e in dense.entries if e.source is Source.INTERPOLATED]
            assert [e.frame_index for e in interp] == [1, 2]
            assert all(e.ncc_degenerate and not e.template_clipped for e in interp)

    @pytest.mark.parametrize("patch, box", [
        ((0, 40), (-8, 40, 20, 60)),       # left edge
        ((180, 40), (180, 40, 208, 60)),   # right edge
        ((60, 0), (60, -8, 80, 20)),       # top edge
        ((60, 100), (60, 100, 80, 128)),   # bottom edge
    ])
    def test_static_patch_clipped_at_an_edge_keeps_its_box(self, patch, box):
        # the frame cuts 8 pixels off the box: the template is the patch, and
        # the box keeps its place around it instead of following its centre
        images = _render_patch({f: patch for f in range(4)})
        track = make_track((0, box, "3.24"), (3, box, "3.24"))
        dense = densify_ncc(track, images)
        interp = [e for e in dense.entries if e.source is Source.INTERPOLATED]
        assert [e.frame_index for e in interp] == [1, 2]
        for entry in interp:
            assert entry.box == BoundingBox(*box)
            assert entry.template_clipped and not entry.ncc_degenerate

    def test_detected_entries_never_altered(self):
        track, images = _jitter_track()
        dense = densify_ncc(track, images)
        assert len(dense.entries) == 6
        assert tuple(e for e in dense.entries if e.source is Source.DETECTED) == track.entries

    @staticmethod
    def count_template_spectra(monkeypatch) -> list:
        real, calls = frames._template_spectra, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(frames, "_template_spectra", counting)
        return calls

    def test_template_spectrum_once_per_segment(self, monkeypatch):
        # two segments of four gap frames each: one template spectrum apiece
        positions = {f: (10 + 2 * f, 40) for f in range(11)}
        images = _render_patch(positions)
        track = run_tracker(
            {f: [det(f, (10 + 2 * f, 40, 30 + 2 * f, 60))] for f in (0, 5, 10)},
            TrackerConfig(keyframe_stride=5),
        )[0]
        calls = self.count_template_spectra(monkeypatch)
        dense = densify_ncc(track, images)
        assert len(calls) == 2
        for entry in dense.entries:
            assert entry.box.x_min == pytest.approx(positions[entry.frame_index][0], abs=1e-9)

    def test_segment_prepares_once_for_its_widest_sample_range(self, monkeypatch):
        # NCC reads samples, not the declared range: the segment's template is
        # prepared once, for the widest range a gap frame declares, and every
        # box stays the same
        positions = {f: (10 + 4 * f, 40) for f in range(6)}
        images = _render_patch(positions)
        wide = {f: GrayImage(samples=img.samples.astype(np.uint16), max_value=255 if f < 3 else 4095)
                for f, img in images.items()}
        track = make_track((0, (10, 40, 30, 60), "3.24"), (5, (30, 40, 50, 60), "3.24"))
        calls = self.count_template_spectra(monkeypatch)
        dense = densify_ncc(track, wide)
        assert [args[2] for args in calls] == [4095]
        assert dense == densify_ncc(track, images)
        for entry in dense.entries:
            assert entry.box.x_min == pytest.approx(positions[entry.frame_index][0], abs=1e-9)


@st.composite
def ncc_scenes(draw):
    """Frames of one size, gray or mosaic, each declaring 255 or 4095, textured
    over few levels (ties) or flat, and tracks over them that overlap in
    time, with boxes past the frame edge, thinner than two pixels or wholly
    outside it, and keyframes next to each other (segments with no gap)."""
    count, width, height = draw(st.integers(2, 8)), draw(st.integers(8, 32)), draw(st.integers(8, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mosaic = draw(st.booleans())
    images = {}
    for frame in range(count):
        levels = draw(st.sampled_from([1, 3, 256]))  # 1: a flat frame
        samples = rng.integers(0, levels, size=(height, width)).astype(np.uint16)
        max_value = draw(st.sampled_from([255, 4095]))
        images[frame] = (frames.CfaImage(samples, max_value=max_value) if mosaic
                         else GrayImage(samples, max_value=max_value))

    def box():
        x0, y0 = draw(st.floats(-12.0, width + 4.0)), draw(st.floats(-12.0, height + 4.0))
        return (x0, y0, x0 + draw(st.floats(0.5, 14.0)), y0 + draw(st.floats(0.5, 14.0)))

    tracks = []
    for track_id in range(draw(st.integers(1, 4))):
        keyframes = sorted(draw(st.sets(st.integers(0, count - 1), min_size=1, max_size=4)))
        tracks.append(Track(track_id, [det(frame, box()) for frame in keyframes]))
    return tracks, images


class CountingFrames:
    """Frame provider that records each fetch; with ``one_held`` it also checks,
    at each one, that no frame it handed out before is still alive."""

    def __init__(self, images, one_held=False):
        self.images, self.fetched, self.alive, self.one_held = images, [], [], one_held

    def __getitem__(self, frame):
        assert not (self.one_held and any(ref() for ref in self.alive)), "an earlier frame is held"
        self.fetched.append(frame)
        # new samples, so their lifetime is this fetch's; a view of them keeps them alive
        image = replace(self.images[frame], samples=self.images[frame].samples.copy())
        self.alive.append(weakref.ref(image.samples))
        return image


class TestNccWalk:
    """densify_ncc_tracks against the track-by-track, frame-by-frame loop."""

    @settings(max_examples=300, deadline=None)
    @given(ncc_scenes(), st.sampled_from([0.0, 3.0, 20.0]))
    def test_equals_the_per_frame_loop_entry_for_entry(self, scene, margin):
        tracks, images = scene
        oracle_frames = CountingFrames(images)
        want = [tracking_oracles.densify_ncc(t, oracle_frames, margin=margin) for t in tracks]
        walk_frames = CountingFrames(images, one_held=True)
        assert tracking.densify_ncc_tracks(tracks, walk_frames, margin=margin) == want
        # every frame the loop reads, once, in ascending order
        assert walk_frames.fetched == sorted(set(oracle_frames.fetched))
        assert [densify_ncc(t, images, margin=margin) for t in tracks] == want

    def test_fetches_each_needed_frame_once(self):
        # two tracks over frames 0-10 and 5-10, a third over 2-8 whose template
        # lies outside the frame, and a gapless segment at frames 10-11
        positions = {f: (10 + 2 * f, 40) for f in range(12)}
        images = _render_patch(positions)
        tracks = [
            make_track((0, (10, 40, 30, 60), "3.24"), (5, (20, 40, 40, 60), "3.24"),
                       (10, (30, 40, 50, 60), "3.24"), (11, (32, 40, 52, 60), "3.24")),
            make_track((5, (20, 40, 40, 60), "3.24"), (10, (30, 40, 50, 60), "3.24"), track_id=1),
            make_track((2, (-40, 40, -20, 60), "3.24"), (8, (-38, 40, -18, 60), "3.24"), track_id=2),
        ]
        provider = CountingFrames(images, one_held=True)
        dense = tracking.densify_ncc_tracks(tracks, provider)
        # frames 10 and 11 start no segment with a gap (an end keyframe is never
        # read), frame 2 gives track 2's unusable template, its gap frames 3-7
        # are read for the others only
        assert provider.fetched == list(range(10))
        assert dense == [tracking_oracles.densify_ncc(t, images) for t in tracks]
        assert all(e.ncc_degenerate and e.template_clipped
                   for e in dense[2].entries if e.source is Source.INTERPOLATED)

    def test_error_names_the_lowest_frame_it_needs(self):
        # the per-track order reaches frame 8 of track 0 before frame 4 of track 1
        images = _render_patch({f: (10 + 2 * f, 40) for f in range(10) if f not in (4, 8)})
        tracks = [
            make_track((5, (20, 40, 40, 60), "3.24"), (9, (28, 40, 48, 60), "3.24")),
            make_track((3, (16, 40, 36, 60), "3.24"), (6, (22, 40, 42, 60), "3.24"), track_id=1),
        ]
        with pytest.raises(KeyError, match="8"):
            tracking_oracles.densify_ncc(tracks[0], images)
        with pytest.raises(KeyError, match="4"):
            tracking.densify_ncc_tracks(tracks, images)

    def test_empty_track_list(self):
        assert tracking.densify_ncc_tracks([], {}) == []


class TestTracksToDetections:
    def test_flattens_sorted_with_source(self):
        track = make_track((0, (0, 0, 30, 30), "3.24"), (3, (30, 30, 60, 60), "3.24"))
        dense = densify_linear(track)
        out = tracks_to_detections([dense])
        assert [d.frame_index for d in out] == [0, 1, 2, 3]
        assert out[1].source is Source.INTERPOLATED
        assert out[0].source is Source.DETECTED

    def test_frame_order_across_tracks_keeps_track_order_within_a_frame(self):
        first = densify_linear(make_track((0, (0, 0, 30, 30), "3.24"), (3, (3, 0, 33, 30), "3.24")))
        second = densify_linear(
            make_track((1, (90, 0, 120, 30), "5.19.1"), (4, (93, 0, 123, 30), "5.19.1"), track_id=1)
        )
        out = tracks_to_detections([first, second])
        assert [(d.frame_index, d.box.x_min >= 90) for d in out] == [
            (0, False), (1, False), (1, True), (2, False), (2, True), (3, False), (3, True), (4, True)
        ]
        # the entries themselves, not copies
        assert out[0] is first.entries[0] and out[-1] is second.entries[-1]
