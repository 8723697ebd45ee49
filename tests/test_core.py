"""Geometry primitives and the shared detection/ground-truth types."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
import core_oracles
from core_oracles import check_distribution
from hypothesis import example, given
from hypothesis import strategies as st

from icevision_kit.core import (
    BoundingBox,
    Detection,
    Distribution,
    FrameAnnotations,
    GroundTruthSign,
    Source,
    area,
    best_class,
    greedy_match,
    iou,
    lerp_box,
)
from icevision_kit.datastore import FORMAT_VERSION, read_detections, read_tracks
from icevision_kit.frames import GrayImage
from icevision_kit.refinement import LevelThresholds, refine_tracks
from icevision_kit.taxonomy import parse_code
from icevision_kit.tracking import Track, densify_linear, densify_ncc

finite_coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def boxes():
    return st.tuples(finite_coord, finite_coord, finite_coord, finite_coord).map(
        lambda t: BoundingBox(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


def exact_iou(a: BoundingBox, b: BoundingBox) -> Fraction:
    """Independent IoU oracle in exact rational arithmetic."""
    ax0, ay0, ax1, ay1 = (Fraction(v) for v in (a.x_min, a.y_min, a.x_max, a.y_max))
    bx0, by0, bx1, by1 = (Fraction(v) for v in (b.x_min, b.y_min, b.x_max, b.y_max))
    iw = max(Fraction(0), min(ax1, bx1) - max(ax0, bx0))
    ih = max(Fraction(0), min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return Fraction(0) if union <= 0 else inter / union


class TestBoundingBox:
    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 10, 10, 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0, 10, 10)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("inf"), 10)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_every_coordinate_must_be_finite(self, position, bad):
        coords = [0.0, 0.0, 10.0, 10.0]
        coords[position] = bad
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(*coords)

    def test_degenerate_allowed(self):
        box = BoundingBox(5, 5, 5, 9)
        assert box.width == 0

    def test_accessors(self):
        box = BoundingBox(0, 10, 30, 50)
        assert box.width == 30
        assert box.height == 40
        assert box.center == (15, 30)


class TestArea:
    def test_square(self):
        assert area(BoundingBox(0, 0, 10, 10)) == 100

    def test_degenerate(self):
        assert area(BoundingBox(5, 5, 5, 9)) == 0

    def test_below_ignore_bound(self):
        assert area(BoundingBox(0, 0, 9, 9)) == 81


class TestIou:
    def test_identical(self):
        box = BoundingBox(0, 0, 10, 10)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        value = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10))
        assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate_pair_zero(self):
        a = BoundingBox(0, 0, 0, 10)
        assert iou(a, a) == 0.0

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        ab, ba = iou(a, b), iou(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    @given(boxes(), boxes())
    @example(BoundingBox(0, 0, 1e-170, 1e-170), BoundingBox(0, 0, 1e-170, 1e-170))
    @example(BoundingBox(0, 0, 2e-170, 1e-170), BoundingBox(1e-170, 0, 3e-170, 1e-170))
    @example(BoundingBox(0, 0, 1e200, 1e200), BoundingBox(0, 0, 1e200, 1e200))
    @example(BoundingBox(0, 0, 2e200, 1e200), BoundingBox(1e200, 0, 3e200, 1e200))
    @example(BoundingBox(0, 0, 1.3e154, 1.3e154), BoundingBox(0, 0, 1.3e154, 1.3e154))
    def test_matches_exact_rational_oracle(self, a, b):
        expected = float(exact_iou(a, b))
        assert iou(a, b) == pytest.approx(expected, abs=1e-9)

    @given(boxes(), finite_coord, finite_coord)
    def test_translation_invariant(self, a, dx, dy):
        b = BoundingBox(a.x_min + 10, a.y_min + 5, a.x_max + 10, a.y_max + 5)
        a2 = BoundingBox(a.x_min + dx, a.y_min + dy, a.x_max + dx, a.y_max + dy)
        b2 = BoundingBox(b.x_min + dx, b.y_min + dy, b.x_max + dx, b.y_max + dy)
        assert iou(a, b) == pytest.approx(iou(a2, b2), abs=1e-9)


def candidate_lists():
    """Distinct (a, b) pairs with overlaps drawn to tie often."""
    overlaps = st.one_of(st.sampled_from([0.1, 0.5, 1.0]), st.floats(0.0, 1.0))
    pairs = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), overlaps,
                            max_size=20)
    return pairs.map(lambda d: [(overlap, a, b) for (a, b), overlap in d.items()])


class TestGreedyMatch:
    def test_ties_go_to_smaller_a_then_smaller_b(self):
        candidates = [(0.5, 1, 0), (0.5, 0, 1), (0.5, 0, 0), (0.5, 1, 1)]
        assert greedy_match(candidates) == {0: (0, 0.5), 1: (1, 0.5)}

    def test_higher_overlap_wins_over_order(self):
        candidates = [(0.4, 0, 0), (0.9, 1, 0), (0.3, 0, 1)]
        assert greedy_match(candidates) == {1: (0, 0.9), 0: (1, 0.3)}

    def test_empty(self):
        assert greedy_match([]) == {}

    @given(candidate_lists())
    def test_matches_one_best_free_candidate_at_a_time(self, candidates):
        assert greedy_match(candidates) == core_oracles.greedy_match(candidates)

    @given(candidate_lists(), st.randoms(use_true_random=False))
    def test_candidate_order_does_not_matter(self, candidates, rnd):
        shuffled = list(candidates)
        rnd.shuffle(shuffled)
        assert greedy_match(shuffled) == greedy_match(candidates)


class TestLerpBox:
    def test_endpoints(self):
        a = BoundingBox(0, 0, 30, 30)
        b = BoundingBox(30, 30, 60, 60)
        assert lerp_box(a, b, 0.0) == a
        assert lerp_box(a, b, 1.0) == b

    def test_one_third(self):
        a = BoundingBox(0, 0, 30, 30)
        b = BoundingBox(30, 30, 60, 60)
        mid = lerp_box(a, b, 1 / 3)
        for got, want in zip(
            (mid.x_min, mid.y_min, mid.x_max, mid.y_max), (10, 10, 40, 40)
        ):
            assert got == pytest.approx(want, abs=1e-12)

    def test_constant(self):
        a = BoundingBox(1, 2, 3, 4)
        assert lerp_box(a, a, 0.7) == a

    def test_t_out_of_range(self):
        a = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            lerp_box(a, a, -0.1)
        with pytest.raises(ValueError):
            lerp_box(a, a, 1.1)


class TestBestClass:
    def test_plain_argmax(self):
        dist = {parse_code("3.24"): 0.7, parse_code("5.19.1"): 0.3}
        assert best_class(dist) == (parse_code("3.24"), 0.7)

    def test_tie_prefers_canonical_order(self):
        dist = {parse_code("3.25"): 0.5, parse_code("3.24"): 0.5}
        assert best_class(dist)[0] == parse_code("3.24")

    def test_tie_prefers_shorter_prefix(self):
        dist = {parse_code("3.24"): 0.5, parse_code("3"): 0.5}
        assert best_class(dist)[0] == parse_code("3")


class TestDetection:
    def test_confidence_derived(self):
        det = Detection(
            frame_index=0,
            box=BoundingBox(0, 0, 10, 10),
            class_distribution={parse_code("3.24"): 0.8},
        )
        assert det.confidence == 0.8
        assert det.code == parse_code("3.24")
        assert det.source is Source.DETECTED

    def test_confidence_is_the_maximum_not_an_argument(self):
        dist = {parse_code("3.24"): 0.25, parse_code("3.25"): 0.5}
        with pytest.raises(TypeError, match="confidence"):
            Detection(frame_index=0, box=BoundingBox(0, 0, 10, 10), class_distribution=dist,
                      confidence=0.5)
        det = Detection(frame_index=0, box=BoundingBox(0, 0, 10, 10), class_distribution=dist)
        assert det.confidence == 0.5

    def test_distribution_sum_capped(self):
        with pytest.raises(ValueError):
            Detection(
                frame_index=0,
                box=BoundingBox(0, 0, 10, 10),
                class_distribution={parse_code("3.24"): 0.7, parse_code("3.25"): 0.5},
            )

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Detection(
                frame_index=0,
                box=BoundingBox(0, 0, 10, 10),
                class_distribution={parse_code("3.24"): -0.1},
            )

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            Detection(
                frame_index=-1,
                box=BoundingBox(0, 0, 10, 10),
                class_distribution={parse_code("3.24"): 1.0},
            )

    def test_empty_distribution_rejected(self):
        # so refinement never sees a track whose average is empty
        with pytest.raises(ValueError):
            Detection(frame_index=0, box=BoundingBox(0, 0, 10, 10), class_distribution={})


CODES = [parse_code(c) for c in ("1", "3.24", "3.25", "5.19.1", "5.19.2")]
# every non-finite, signed, boundary and out-of-range kind a probability can take
PROBS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, -1e-300, 1.0 + 2e-16, math.nan, math.inf, -math.inf, 0, 1]),
)


@st.composite
def near_one(draw):
    """Two or three ClassCode probabilities summing to 1 +- a few slacks."""
    codes = draw(st.lists(st.sampled_from(CODES), min_size=2, max_size=3, unique=True))
    head = [draw(st.floats(0.0, 1.0 / len(codes))) for _ in codes[1:]]
    last = 1.0 - sum(head) + draw(st.sampled_from([-2e-9, -1e-9, 0.0, 5e-10, 1e-9, 1.5e-9, 3e-9]))
    return dict(zip(codes, [*head, last]))


def distribution_inputs():
    keys = st.one_of(st.sampled_from(CODES), st.sampled_from(["3.24", 3, None, (3, 24)]))
    return st.one_of(
        st.dictionaries(keys, PROBS, max_size=4),
        st.dictionaries(st.sampled_from(CODES), PROBS, max_size=4),
        near_one(),
    )


def outcome(check, dist):
    try:
        check(dist)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestDistribution:
    @given(dist=distribution_inputs())
    @example(dist={})
    @example(dist={CODES[1]: 0.5, "3.25": 0.5})
    @example(dist={CODES[1]: math.nan})
    @example(dist={CODES[1]: 0.6, CODES[2]: 0.4 + 1e-9})
    @example(dist={CODES[1]: 0.6, CODES[2]: 0.4 + 2e-9})
    def test_raises_exactly_as_the_per_detection_check(self, dist):
        expected = outcome(check_distribution, dist)
        assert outcome(Distribution, dist) == expected
        if expected is None:
            assert list(Distribution(dist).items()) == list(dist.items())

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__(CODES[2], 0.1),
        lambda d: d.__delitem__(CODES[1]),
        lambda d: d.__ior__({CODES[2]: 0.1}),
        lambda d: d.clear(),
        lambda d: d.pop(CODES[1]),
        lambda d: d.popitem(),
        lambda d: d.setdefault(CODES[2], 0.1),
        lambda d: d.update({CODES[2]: 0.1}),
    ])
    def test_read_only(self, mutate):
        dist = Distribution({CODES[1]: 0.5})
        with pytest.raises(TypeError, match="read-only"):
            mutate(dist)
        assert dist == {CODES[1]: 0.5}

    def test_a_plain_mapping(self):
        dist = Distribution({CODES[1]: 0.5, CODES[0]: 0.25})
        assert isinstance(dist, dict) and dist == {CODES[1]: 0.5, CODES[0]: 0.25}
        assert list(dist) == [CODES[1], CODES[0]] and dist[CODES[0]] == 0.25
        assert {**dist, CODES[2]: 0.1} == {CODES[1]: 0.5, CODES[0]: 0.25, CODES[2]: 0.1}

    def test_detection_keeps_a_distribution_and_converts_a_dict(self):
        box = BoundingBox(0, 0, 10, 10)
        dist = Distribution({CODES[1]: 0.5})
        a, b = (Detection(frame_index=f, box=box, class_distribution=dist) for f in (0, 1))
        assert a.class_distribution is dist and b.class_distribution is dist
        plain = {CODES[1]: 0.5}
        c = Detection(frame_index=0, box=box, class_distribution=plain)
        assert type(c.class_distribution) is Distribution and c.class_distribution == plain
        assert c == a

    @pytest.mark.parametrize("round_trip", [
        lambda det: pickle.loads(pickle.dumps(det)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_detection_pickles_and_copies(self, round_trip):
        det = Detection(frame_index=3, box=BoundingBox(0, 0, 10, 10),
                        class_distribution={CODES[1]: 0.5, CODES[3]: 0.25},
                        associated_data="40", source=Source.INTERPOLATED)
        again = round_trip(det)
        assert again == det
        assert type(again.class_distribution) is Distribution
        assert list(again.class_distribution.items()) == list(det.class_distribution.items())


@pytest.fixture
def checks(monkeypatch):
    """The distributions checked (built) while the fixture is active."""
    built = []
    init = Distribution.__init__

    def counted(self, items=()):
        init(self, items)
        built.append(self)

    monkeypatch.setattr(Distribution, "__init__", counted)
    return built


class TestCheckedOnce:
    TOKENS = ["3.24:0.5,5.19.1:0.25", "2.4", "3.24:0.5,5.19.1:0.25", "2.4", "1:0.9", "2.4:1.0"]

    def test_reading_checks_each_distinct_token_once(self, tmp_path, checks):
        det_lines = "".join(f"{i} {t} 1 1 2 2\n" for i, t in enumerate(self.TOKENS))
        track_lines = "".join(f"0 {i} detected 1 1 2 2 {t} - - -\n"
                              for i, t in enumerate(self.TOKENS))
        (tmp_path / "d.txt").write_text(f"{FORMAT_VERSION} detections\n{det_lines}")
        (tmp_path / "t.txt").write_text(f"{FORMAT_VERSION} tracks\n{track_lines}")
        read_detections(tmp_path / "d.txt")
        assert len(checks) == len(set(self.TOKENS))
        checks.clear()
        read_tracks(tmp_path / "t.txt")
        assert len(checks) == len(set(self.TOKENS))

    @staticmethod
    def tracks(count):
        dist = Distribution({CODES[1]: 0.75, CODES[2]: 0.25})
        return [Track(id=k, entries=[
            Detection(frame_index=f, box=BoundingBox(10 + f, 10, 30 + f, 30), class_distribution=dist)
            for f in (0, 4, 8)]) for k in range(count)]

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_refining_checks_one_per_track(self, checks, count):
        tracks = self.tracks(count)
        checks.clear()
        refined = refine_tracks(tracks, LevelThresholds(0.0, 0.0, 0.0))
        assert len(refined) == 3 * count and len(checks) == count

    def test_densifying_checks_none(self, checks):
        tracks = self.tracks(2)
        rng = np.random.default_rng(3)
        images = {f: GrayImage(samples=rng.integers(0, 256, (60, 60), dtype=np.uint8), max_value=255)
                  for f in range(9)}
        checks.clear()
        dense = [densify_linear(t) for t in tracks] + [densify_ncc(t, images) for t in tracks]
        assert all(len(t.entries) == 9 for t in dense) and checks == []


class TestFrameAnnotations:
    def test_signs_must_share_frame(self):
        sign = GroundTruthSign(
            frame_index=3, box=BoundingBox(0, 0, 10, 10), code=parse_code("3.24")
        )
        with pytest.raises(ValueError):
            FrameAnnotations(frame_index=4, signs=(sign,))

    def test_annotated_empty_is_distinct(self):
        empty = FrameAnnotations(frame_index=0, signs=())
        assert empty.frame_index == 0 and not empty.signs
