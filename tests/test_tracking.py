"""IoU tracker association, track lifecycle, and gap densification."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
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

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="track id -1 is negative"):
            make_track((0, (0, 0, 30, 30), "3.24"), track_id=-1)


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
        keyed = [e for e in dense.entries if e.source is Source.DETECTED]
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

    def test_detected_entries_never_altered(self):
        track, images = _jitter_track()
        dense = densify_ncc(track, images)
        assert len(dense.entries) == 6
        assert [e for e in dense.entries if e.source is Source.DETECTED] == track.entries

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

    def test_gap_frame_with_a_wider_sample_range_prepares_again(self, monkeypatch):
        # NCC reads samples, not the declared range: a gap frame declaring a
        # wider one prepares the template again and every box stays the same
        positions = {f: (10 + 4 * f, 40) for f in range(6)}
        images = _render_patch(positions)
        wide = {f: GrayImage(samples=img.samples.astype(np.uint16), max_value=255 if f < 3 else 4095)
                for f, img in images.items()}
        track = make_track((0, (10, 40, 30, 60), "3.24"), (5, (30, 40, 50, 60), "3.24"))
        calls = self.count_template_spectra(monkeypatch)
        dense = densify_ncc(track, wide)
        assert [args[2] for args in calls] == [255, 4095]
        assert dense == densify_ncc(track, images)
        for entry in dense.entries:
            assert entry.box.x_min == pytest.approx(positions[entry.frame_index][0], abs=1e-9)


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
