"""Track refinement: averaging, hierarchical selection, grid search."""

import dataclasses
import itertools
import math
from unittest import mock

import pytest
import refinement_oracles as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icevision_kit import refinement, scoring
from icevision_kit.core import BoundingBox, Detection, FrameAnnotations, GroundTruthSign, Source
from icevision_kit.refinement import (
    LevelThresholds,
    format_thresholds,
    grid_search_thresholds,
    parse_thresholds,
    refine_tracks,
    vote_associated_data,
)
from icevision_kit.scoring import ScoringConfig, score_dataset
from icevision_kit.taxonomy import parse_code
from icevision_kit.tracking import Track


def entry(frame, dist, box=(0, 0, 20, 20), source=Source.DETECTED, data=None, temporary=None):
    return Detection(
        frame_index=frame,
        box=BoundingBox(*box),
        class_distribution={parse_code(c): p for c, p in dist.items()},
        source=source,
        associated_data=data,
        temporary=temporary,
    )


def track(*entries, track_id=0):
    return Track(id=track_id, entries=list(entries))


THR = LevelThresholds(0.5, 0.5, 0.5)


class TestAverage:
    """The per-track mean that the array summaries reproduce, on the oracle."""

    def test_arithmetic_mean(self):
        t = track(entry(0, {"3.24": 0.8}), entry(3, {"3.24": 0.6}))
        assert oracle.average_track_distribution(t) == {parse_code("3.24"): pytest.approx(0.7)}

    def test_absent_code_counts_as_zero(self):
        t = track(entry(0, {"3.24": 1.0}), entry(3, {"5.19.1": 1.0}))
        avg = oracle.average_track_distribution(t)
        assert avg[parse_code("3.24")] == pytest.approx(0.5)
        assert avg[parse_code("5.19.1")] == pytest.approx(0.5)

    def test_single_entry_identity(self):
        t = track(entry(0, {"3.24": 0.9}))
        assert oracle.average_track_distribution(t) == {parse_code("3.24"): 0.9}

    def test_interpolated_entries_excluded(self):
        t = track(
            entry(0, {"3.24": 1.0}),
            entry(1, {"5.19.1": 1.0}, source=Source.INTERPOLATED),
            entry(3, {"3.24": 0.5}),
        )
        assert oracle.average_track_distribution(t) == {parse_code("3.24"): pytest.approx(0.75)}

    def test_no_detected_entries_rejected(self):
        with pytest.raises(ValueError, match="track 0 has no detected entry"):
            track(entry(0, {"3.24": 1.0}, source=Source.INTERPOLATED))


def select(dist, thr):
    """(class, probability) that refine_tracks stamps on a one-entry track
    with this distribution; None when it drops the track."""
    one = Detection(frame_index=0, box=BoundingBox(0, 0, 20, 20), class_distribution=dist)
    refined = refine_tracks([track(one)], thr)
    if not refined:
        return None
    ((code, prob),) = refined[0].class_distribution.items()
    return code, prob


class TestHierarchicalSelect:
    """Class selection with taxonomy fallback, through ``refine_tracks``."""

    def test_specific_acceptance(self):
        assert select({parse_code("3.24.1"): 0.9}, THR) == (
            parse_code("3.24.1"),
            0.9,
        )

    def test_level2_fallback_sums_mass(self):
        dist = {parse_code("3.24.1"): 0.3, parse_code("3.24.2"): 0.3}
        code, prob = select(dist, THR)
        assert code == parse_code("3.24")
        assert prob == pytest.approx(0.6)

    def test_top_level_fallback(self):
        dist = {parse_code("3.24.1"): 0.3, parse_code("3.25.2"): 0.3}
        code, prob = select(dist, THR)
        assert code == parse_code("3")
        assert prob == pytest.approx(0.6)

    def test_all_levels_fail(self):
        dist = {parse_code("3.24.1"): 0.1, parse_code("5.19.1"): 0.1}
        assert select(dist, THR) is None

    def test_thresholds_inclusive(self):
        assert select({parse_code("3.24.1"): 0.5}, THR) == (
            parse_code("3.24.1"),
            0.5,
        )

    def test_tie_broken_by_canonical_order(self):
        dist = {parse_code("3.25"): 0.5, parse_code("3.24"): 0.5}
        assert select(dist, THR)[0] == parse_code("3.24")

    def test_reported_probability_is_exact_descendant_sum(self):
        dist = {
            parse_code("3.24.1"): 0.2,
            parse_code("3.24.2"): 0.25,
            parse_code("3.25.1"): 0.1,
        }
        code, prob = select(dist, LevelThresholds(0.9, 0.45, 0.9))
        assert code == parse_code("3.24")
        assert prob == 0.2 + 0.25

    def test_scaling_keeps_argmax(self):
        dist = {parse_code("3.24.1"): 0.3, parse_code("3.24.2"): 0.2, parse_code("5.19.1"): 0.25}
        zero = LevelThresholds(0.0, 0.0, 0.0)
        base = select(dist, zero)[0]
        for c in (0.5, 0.1):
            scaled = {k: v * c for k, v in dist.items()}
            assert select(scaled, zero)[0] == base


class TestVotes:
    def test_majority(self):
        t = track(
            entry(0, {"3.24": 1.0}, data="40"),
            entry(3, {"3.24": 1.0}, data="40"),
            entry(6, {"3.24": 1.0}, data="60"),
        )
        assert vote_associated_data(t) == "40"

    def test_no_data(self):
        t = track(entry(0, {"3.24": 1.0}))
        assert vote_associated_data(t) is None

    def test_tie_prefers_earliest(self):
        t = track(
            entry(0, {"3.24": 1.0}, data="40"),
            entry(3, {"3.24": 1.0}, data="60"),
        )
        assert vote_associated_data(t) == "40"


class TestRefineTracks:
    def test_accepted_track_emits_every_entry(self):
        t = track(*(entry(f, {"3.24": 0.9}) for f in range(5)))
        out = refine_tracks([t], THR)
        assert len(out) == 5
        assert all(d.code == parse_code("3.24") for d in out)
        assert all(d.confidence == pytest.approx(0.9) for d in out)
        # one dict per track, so the writers format it once
        assert len({id(d.class_distribution) for d in out}) == 1

    def test_rejected_track_emits_nothing(self):
        t = track(entry(0, {"3.24.1": 0.1}), entry(3, {"5.19.1": 0.1}))
        assert refine_tracks([t], THR) == []

    def test_flickering_argmax_recovered_by_average(self):
        # per-frame argmax flips A,B,A but the average favors A
        a, b = "3.24.1", "3.24.2"
        t = track(
            entry(0, {a: 0.6, b: 0.4}),
            entry(3, {a: 0.4, b: 0.6}),
            entry(6, {a: 0.65, b: 0.35}),
        )
        out = refine_tracks([t], LevelThresholds(0.5, 0.5, 0.5))
        assert len(out) == 3
        assert all(d.code == parse_code(a) for d in out)

    def test_output_count_is_sum_of_accepted_lengths(self):
        good = track(*(entry(f, {"3.24": 0.9}) for f in (0, 1, 2, 3)), track_id=0)
        bad = track(entry(0, {"3.24": 0.01}), track_id=1)
        out = refine_tracks([good, bad], THR)
        assert len(out) == 4

    def test_votes_propagate(self):
        t = track(
            entry(0, {"3.24": 1.0}, data="40", temporary=True),
            entry(3, {"3.24": 1.0}, data="40", temporary=True),
            entry(6, {"3.24": 1.0}, data="60", temporary=False),
        )
        out = refine_tracks([t], THR)
        assert all(d.associated_data == "40" for d in out)
        assert all(d.temporary is True for d in out)

    def test_superclass_fallback_emits_pooled_confidence(self):
        t = track(entry(0, {"3.24.1": 0.3, "3.24.2": 0.3}))
        out = refine_tracks([t], THR)
        assert out[0].code == parse_code("3.24")
        assert out[0].confidence == pytest.approx(0.6)


def _validation_fixture():
    """Two tracks: one clean sign, one low-confidence noise track that
    scores negative unless a high specific threshold drops it."""
    sign_code = "3.24"
    clean = track(
        *(entry(f, {sign_code: 0.95}, box=(100, 100, 160, 160)) for f in (0, 1, 2)),
        track_id=0,
    )
    noise = track(
        *(entry(f, {"5.19.1": 0.4}, box=(400, 400, 460, 460)) for f in (0, 1, 2)),
        track_id=1,
    )
    annotations = [
        FrameAnnotations(
            frame_index=f,
            signs=(
                GroundTruthSign(
                    frame_index=f,
                    box=BoundingBox(100, 100, 160, 160),
                    code=parse_code(sign_code),
                ),
            ),
        )
        for f in (0, 1, 2)
    ]
    return [clean, noise], annotations


class TestGridSearch:
    def test_singleton_grid_echoes(self):
        tracks, anns = _validation_fixture()
        thr, score = grid_search_thresholds(
            tracks, anns, ([0.5], [0.5], [0.5]), ScoringConfig.offline()
        )
        assert thr == LevelThresholds(0.5, 0.5, 0.5)

    def test_high_threshold_drops_noise_track(self):
        tracks, anns = _validation_fixture()
        cfg = ScoringConfig.offline()

        def score_at(triple):
            refined = refine_tracks(tracks, LevelThresholds(*triple))
            grouped = {}
            for d in refined:
                grouped.setdefault(d.frame_index, []).append(d)
            return score_dataset(grouped, anns, cfg).total

        # the noise track (prob 0.4) passes at 0.1 and becomes 3 FPs
        assert score_at((0.9, 0.9, 0.9)) > score_at((0.1, 0.9, 0.9))

    def test_result_matches_exhaustive_enumeration(self):
        tracks, anns = _validation_fixture()
        cfg = ScoringConfig.offline()
        grid = ([0.1, 0.3, 0.6, 0.9], [0.2, 0.5, 0.8, 0.95], [0.1, 0.4, 0.7, 1.0])
        thr, best = grid_search_thresholds(tracks, anns, grid, cfg)

        def score_at(triple):
            refined = refine_tracks(tracks, LevelThresholds(*triple))
            grouped = {}
            for d in refined:
                grouped.setdefault(d.frame_index, []).append(d)
            return score_dataset(grouped, anns, cfg).total

        scored = {
            triple: score_at(triple) for triple in itertools.product(*grid)
        }
        expected_best = max(scored.values())
        winners = sorted(t for t, s in scored.items() if s == expected_best)
        assert best == expected_best
        assert (thr.thr_specific, thr.thr_level2, thr.thr_top) == winners[0]

    def test_empty_grid_rejected(self):
        tracks, anns = _validation_fixture()
        with pytest.raises(ValueError):
            grid_search_thresholds(tracks, anns, ([], [0.5], [0.5]), ScoringConfig.offline())

    def test_empty_track_list_scores_nothing(self):
        _, anns = _validation_fixture()
        grid = ([0.5, 0.1], [0.5], [0.5])
        thr, score = grid_search_thresholds([], anns, grid, ScoringConfig.offline())
        assert (thr, score) == (LevelThresholds(0.1, 0.5, 0.5), 0.0)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("dim", range(3))
    def test_out_of_range_grid_value_rejected(self, dim, bad):
        tracks, anns = _validation_fixture()
        grid = [[0.5], [0.5], [0.5]]
        grid[dim] = [0.5, bad]
        with pytest.raises(ValueError):
            grid_search_thresholds(tracks, anns, tuple(grid), ScoringConfig.offline())

    def test_memoized_score_checked_against_fresh_refinement(self, monkeypatch):
        # a selection scored on the wrong detections must not be returned
        tracks, anns = _validation_fixture()
        real = refinement.score_dataset
        calls = []

        def skewed(detections, annotations, cfg):
            # score_dataset runs once, for the fresh refinement, which disagrees here
            calls.append(None)
            report = real(detections, annotations, cfg)
            if len(calls) == 1:
                report = dataclasses.replace(report, total=report.total + 1.0)
            return report

        monkeypatch.setattr(refinement, "score_dataset", skewed)
        with pytest.raises(RuntimeError, match="refined afresh"):
            grid_search_thresholds(tracks, anns, ([0.5], [0.5], [0.5]), ScoringConfig.offline())


# ---------------------------------------------------------------------------
# Differential tests against the per-track, per-triple oracles

CODES = ("3.24.1", "3.24.2", "3.25.1", "3.25", "3", "5.19.1", "5.19.2", "5.20")
BOXES = ((0, 0, 20, 20), (2, 0, 22, 20), (40, 40, 70, 70), (0, 30, 40, 60))
PROBS = (0.0, 0.125, 0.2, 0.25, 0.3, 0.375, 0.5, 0.6, 0.75, 1.0)
FRAMES = 6


@st.composite
def distributions(draw):
    codes = draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=3, unique=True))
    dist, left = {}, 1.0
    for code in codes:
        prob = draw(st.sampled_from([p for p in PROBS if p <= left]))
        dist[code], left = prob, left - prob
    return dist


@st.composite
def drawn_tracks(draw, track_id):
    frames = draw(st.lists(st.integers(0, FRAMES - 1), min_size=1, max_size=4, unique=True))
    detected = draw(st.integers(0, len(frames) - 1))
    return track(
        *(
            entry(
                frame,
                draw(distributions()),
                box=draw(st.sampled_from(BOXES)),
                source=Source.DETECTED if i == detected else draw(st.sampled_from(list(Source))),
                data=draw(st.sampled_from([None, "40", "60"])),
                temporary=draw(st.sampled_from([None, True, False])),
            )
            for i, frame in enumerate(sorted(frames))
        ),
        track_id=track_id,
    )


@st.composite
def validation_sets(draw):
    count = draw(st.integers(0, 5))
    validation = [draw(drawn_tracks(i)) for i in range(count)]
    annotations = []
    for frame in range(FRAMES):
        if draw(st.sampled_from(["listed", "absent"])) == "absent":
            continue
        signs = tuple(
            GroundTruthSign(frame, BoundingBox(*draw(st.sampled_from(BOXES))), parse_code(c))
            for c in draw(st.lists(st.sampled_from(CODES), max_size=2))
        )
        annotations.append(FrameAnnotations(frame, signs))
    # the tracks' own level probabilities are the breakpoints of the search
    cuts = {p for t in validation for p in oracle.level_probs(t)}
    near = {math.nextafter(p, x) for p in cuts for x in (0.0, 2.0)}
    # -0.0 equals 0.0 but prints apart, so a tie between them must go to the first
    values = [-0.0] + sorted(v for v in cuts | near | {0.0, 0.5, 1.0} if 0.0 <= v <= 1.0)
    grid = tuple(draw(st.lists(st.sampled_from(values), min_size=1, max_size=4)) for _ in range(3))
    return validation, annotations, grid


class TestMatchesOracles:
    @settings(max_examples=200, deadline=None)
    @given(validation_sets(), st.sampled_from([ScoringConfig.offline(), ScoringConfig.online()]))
    @example(([], [FrameAnnotations(0)], ([0.0], [1.0], [0.5])), ScoringConfig.offline())
    @example(([], [], ([0.5, -0.0, 0.0], [0.0, -0.0], [1.0])), ScoringConfig.offline())
    def test_grid_search_matches_exhaustive_oracle(self, case, cfg):
        validation, annotations, grid = case
        got = grid_search_thresholds(validation, annotations, grid, cfg)
        assert repr(got) == repr(oracle.grid_search_thresholds(validation, annotations, grid, cfg))

    @settings(max_examples=200, deadline=None)
    @given(validation_sets())
    def test_refine_tracks_matches_oracle(self, case):
        validation, _, grid = case
        for triple in itertools.product(*grid):
            thr = LevelThresholds(*triple)
            assert refine_tracks(validation, thr) == oracle.refine_tracks(validation, thr)

    @pytest.mark.parametrize(
        "dists, sign, grid, want",
        [
            # a specific threshold equal to the sign's track probability accepts it
            ([{"5.19.1": 0.5}, {"3.24.1": 0.25}], "5.19.1", ([0.25, 0.5, 0.75], [1.0], [1.0]), 0.5),
            # so does a level-2 threshold equal to its pooled probability
            (
                [{"5.19.1": 0.25, "5.19.2": 0.375}, {"3.24.1": 0.25, "3.24.2": 0.25}],
                "5.19",
                ([1.0], [0.5, 0.625, 0.75], [1.0]),
                0.625,
            ),
        ],
    )
    def test_breakpoint_grids(self, dists, sign, grid, want):
        # the sign's track is a true positive, the other one a false positive
        validation = [
            track(*(entry(f, d) for f in (0, 2)), track_id=i) for i, d in enumerate(dists)
        ]
        annotations = [
            FrameAnnotations(f, (GroundTruthSign(f, BoundingBox(0, 0, 20, 20), parse_code(sign)),))
            for f in (0, 2)
        ]
        cfg = ScoringConfig.offline()
        thr, score = grid_search_thresholds(validation, annotations, grid, cfg)
        assert (thr, score) == oracle.grid_search_thresholds(validation, annotations, grid, cfg)
        assert want in (thr.thr_specific, thr.thr_level2) and score > 0


# boxes that overlap no sign box above, so tracks on them are false positives
FP_BOXES = ((100, 100, 130, 130), (200, 0, 230, 30), (150, 60, 190, 90))


@st.composite
def continuous_sets(draw):
    """Up to ten tracks sharing up to six annotated frames, with continuous
    probabilities, many false positive boxes and a grid of the tracks' own
    level probabilities (repeats included): neighbouring grid values then
    select levels that differ in one track."""
    frames = draw(st.integers(1, 6))
    validation = []
    for track_id in range(draw(st.integers(1, 10))):
        entries = []
        for i, frame in enumerate(sorted(draw(
            st.lists(st.integers(0, frames - 1), min_size=1, max_size=frames, unique=True)
        ))):
            codes = draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=3, unique=True))
            weights = [draw(st.floats(0.01, 1.0)) for _ in codes]
            mass = draw(st.floats(0.05, 0.99)) / sum(weights)
            entries.append(entry(
                frame, {code: w * mass for code, w in zip(codes, weights)},
                box=draw(st.sampled_from(BOXES + FP_BOXES)),
                source=Source.DETECTED if i == 0 else draw(st.sampled_from(list(Source))),
                data=draw(st.sampled_from([None, "40"])),
                temporary=draw(st.sampled_from([None, False])),
            ))
        validation.append(track(*entries, track_id=track_id))
    annotations = [
        FrameAnnotations(frame, tuple(
            GroundTruthSign(frame, BoundingBox(*draw(st.sampled_from(BOXES))), parse_code(c))
            for c in draw(st.lists(st.sampled_from(CODES), max_size=2))
        ))
        for frame in range(frames) if frame == 0 or draw(st.booleans())
    ]
    cuts = sorted({p for t in validation for p in oracle.level_probs(t) if 0.0 <= p <= 1.0})
    grid = []
    for _ in range(3):
        values = draw(st.lists(st.sampled_from(cuts + [0.0, 1.0]), min_size=1, max_size=4))
        grid.append(values + values[:1] if draw(st.booleans()) else values)
    return validation, annotations, tuple(grid)


def accepted_levels(validation, thr):
    """Each track's accepted level under ``thr`` (None for none), from the oracle."""
    thresholds = (thr.thr_specific, thr.thr_level2, thr.thr_top)
    return [
        next((level for level in range(3) if probs[level] >= thresholds[level]), None)
        for probs in map(oracle.level_probs, validation)
    ]


class TestGridSearchCost:
    @settings(max_examples=150, deadline=None)
    @given(continuous_sets(), st.sampled_from([ScoringConfig.offline(), ScoringConfig.online()]))
    def test_matches_exhaustive_oracle_on_continuous_probabilities(self, case, cfg):
        validation, annotations, grid = case
        got = grid_search_thresholds(validation, annotations, grid, cfg)
        want = oracle.grid_search_thresholds(validation, annotations, grid, cfg)
        assert got[0] == want[0]
        assert got[1] == want[1] and repr(got[1]) == repr(want[1])

    @settings(max_examples=100, deadline=None)
    @given(continuous_sets())
    def test_match_frame_runs_once_per_frame_and_levels(self, case):
        validation, annotations, grid = case
        frame_tracks = {
            a.frame_index: [i for i, t in enumerate(validation)
                            if any(e.frame_index == a.frame_index for e in t.entries)]
            for a in annotations
        }
        keys = set()
        for triple in itertools.product(*grid):
            levels = accepted_levels(validation, LevelThresholds(*triple))
            keys |= {(frame, tuple(levels[i] for i in members))
                     for frame, members in frame_tracks.items() if members}
        calls = []

        def counting(detections, annotations, cfg):
            calls.append(annotations.frame_index)
            return scoring.match_frame(detections, annotations, cfg)

        with mock.patch.object(refinement, "match_frame", counting):
            grid_search_thresholds(validation, annotations, grid, ScoringConfig.offline())
        assert sorted(calls) == sorted(frame for frame, _ in keys)

    def test_frame_points_add_left_to_right(self):
        # six frames whose TP points sum to other bits when added right to left
        cfg = ScoringConfig.online()
        validation = [track(*(entry(f, {"3.24": 0.9}) for f in range(6)))]
        annotations = [
            FrameAnnotations(f, (GroundTruthSign(f, BoundingBox(d, 0, 20 + d, 20), parse_code("3.24")),))
            for f, d in ((f, 0.731 * (f + 1) % 4.5) for f in range(6))
        ]
        report = score_dataset(
            {f: refine_tracks(validation, THR)[f : f + 1] for f in range(6)}, annotations, cfg
        )
        backwards = 0.0
        for frame in reversed(report.frames):
            backwards += frame.tp_points
        assert backwards != report.tp_points
        _, score = grid_search_thresholds(validation, annotations, ([0.5], [0.5], [0.5]), cfg)
        assert repr(score) == repr(report.total)

    def test_duplicate_annotations_rejected_before_any_frame_is_matched(self, monkeypatch):
        tracks, anns = _validation_fixture()
        monkeypatch.setattr(refinement, "match_frame", None)
        with pytest.raises(ValueError, match="duplicate annotations for frame 1"):
            grid_search_thresholds(tracks, anns + [anns[1]], ([0.5], [0.5], [0.5]),
                                   ScoringConfig.offline())

    def test_wrongly_matched_frame_caught_by_fresh_refinement(self, monkeypatch):
        # the search's frame scores are wrong; the from-scratch check is not
        tracks, anns = _validation_fixture()

        def skewed(detections, annotations, cfg):
            result = scoring.match_frame(detections, annotations, cfg)
            return dataclasses.replace(result, false_positives=())

        monkeypatch.setattr(refinement, "match_frame", skewed)
        with pytest.raises(RuntimeError, match="refined afresh"):
            grid_search_thresholds(tracks, anns, ([0.1], [0.5], [0.5]), ScoringConfig.offline())


# codes that pool three and more ways: 3.24 beside its own children, and all
# of 3.24.x, 3.25.1 and 3 into 3
SUMMARY_CODES = ("3.24", "3.24.1", "3.24.2", "3.24.3", "3.25.1", "3", "5.19.1", "5.19.2", "5.20")
# dyadic values tie at every level; the others add to other bits in another order
SUMMARY_PROBS = st.one_of(st.sampled_from([0.0, 0.0625, 0.125, 0.25]), st.floats(0.0, 0.25))


@st.composite
def summary_sets(draw):
    """Up to six tracks whose entries draw their distributions, up to four
    codes each, from a few dicts, so that entries and tracks share them."""
    shared = [
        {parse_code(c): draw(SUMMARY_PROBS)
         for c in draw(st.lists(st.sampled_from(SUMMARY_CODES), min_size=1, max_size=4, unique=True))}
        for _ in range(draw(st.integers(1, 4)))
    ]
    tracks = []
    for track_id in range(draw(st.integers(0, 6))):
        frames = sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)))
        detected = draw(st.sampled_from(frames))
        tracks.append(track(*(
            Detection(
                frame, BoundingBox(0, 0, 20, 20), draw(st.sampled_from(shared)),
                associated_data=draw(st.sampled_from([None, "40", "60"])),
                temporary=draw(st.sampled_from([None, True, False])),
                source=Source.DETECTED if frame == detected else draw(st.sampled_from(list(Source))),
            )
            for frame in frames
        ), track_id=track_id))
    return tracks


class TestSummaries:
    """The one-pass summary of all tracks against the per-track dict oracle."""

    @settings(max_examples=300, deadline=None)
    @given(summary_sets())
    @example([])
    # a pool whose three terms add to other bits in canonical order: 0.6, not 0.6000000000000001
    @example([track(entry(0, {"3.24.3": 0.3, "3.24.2": 0.2, "3.24.1": 0.1}))])
    def test_matches_per_track_oracle(self, tracks):
        codes, probs, data, temporary = refinement._summarize(tracks)
        assert probs.shape == (len(tracks), 3)
        got = [(c, repr(tuple(p)), d, t) for c, p, d, t in zip(codes, probs.tolist(), data, temporary)]
        want = [(c, repr(p), d, t) for c, p, d, t in map(oracle.summarize, tracks)]
        assert got == want

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_refinement_and_search_summarize_all_tracks_in_one_call(self, count, monkeypatch):
        tracks = [track(*(entry(f, {"3.24.1": 0.6, "3.24.2": 0.3}) for f in (0, 1, 2)), track_id=i)
                  for i in range(count)]
        _, anns = _validation_fixture()
        real, calls = refinement._summarize, []

        def counting(arg):
            calls.append(len(arg))
            return real(arg)

        monkeypatch.setattr(refinement, "_summarize", counting)
        refine_tracks(tracks, THR)
        assert calls == [count]
        calls.clear()
        grid_search_thresholds(tracks, anns, ([0.5, 0.7], [0.5], [0.5]), ScoringConfig.offline())
        assert calls == [count, count]  # the search, then its from-scratch check

    def test_track_without_detected_entry_rejected(self):
        # refine_tracks and grid_search_thresholds never see such a track
        with pytest.raises(ValueError, match="track 7 has no detected entry"):
            track(entry(4, {"3.24": 0.9}, source=Source.INTERPOLATED), track_id=7)

    @settings(max_examples=50, deadline=None)
    @given(summary_sets())
    def test_refined_probabilities_are_python_floats(self, tracks):
        for d in refine_tracks(tracks, LevelThresholds(0.0, 0.0, 0.0)):
            assert type(d.confidence) is float
            assert all(type(p) is float for p in d.class_distribution.values())


class TestThresholdRecord:
    def test_round_trip(self):
        thr = LevelThresholds(0.25, 0.5, 0.75)
        assert parse_thresholds(format_thresholds(thr)) == thr

    def test_bad_field_count(self):
        with pytest.raises(ValueError):
            parse_thresholds("0.5 0.5\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LevelThresholds(1.5, 0.5, 0.5)
