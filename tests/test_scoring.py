"""Competition metric: formula exactness, matching, duplicates, ignores."""

import collections
import dataclasses
import itertools
import math
import random

import pytest
import scoring_oracles
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icevision_kit import scoring
from icevision_kit.core import BoundingBox, Detection, FrameAnnotations, GroundTruthSign, iou
from icevision_kit.scoring import (
    FpReason,
    MatchResult,
    ScoreReport,
    ScoringConfig,
    Stage,
    TruePositive,
    format_report,
    k_multiplier,
    match_frame,
    max_attainable_score,
    report_records,
    score_dataset,
    tp_base_score,
)
from icevision_kit.taxonomy import parse_code

ONLINE = ScoringConfig.online()
OFFLINE = ScoringConfig.offline()


def det(frame, box, code="3.24", prob=1.0, data=None, temporary=None, extra=None):
    dist = {parse_code(code): prob}
    if extra:
        dist.update({parse_code(c): p for c, p in extra.items()})
    return Detection(
        frame_index=frame,
        box=BoundingBox(*box),
        class_distribution=dist,
        associated_data=data,
        temporary=temporary,
    )


def gt(frame, box, code="3.24", data=None, temporary=False):
    return GroundTruthSign(
        frame_index=frame,
        box=BoundingBox(*box),
        code=parse_code(code),
        associated_data=data,
        temporary=temporary,
    )


BOXES = st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
                  st.integers(0, 40), st.integers(0, 40), st.integers(4, 30), st.integers(4, 30))
CODES = st.sampled_from(["3.24", "3.24.1", "3.25", "5.19.1", "5.19.2"])


@st.composite
def scored_sets(draw):
    """Detections and annotations on frames 0-5 with overlapping boxes,
    superclass codes, ignore-zone signs (under 100 px^2), float
    probabilities and every k-rule input; some detected frames are not
    annotated."""
    anns = [
        FrameAnnotations(f, tuple(
            gt(f, box, code, data, temporary)
            for box, code, data, temporary in draw(st.lists(
                st.tuples(BOXES, CODES, st.sampled_from([None, "40"]), st.booleans()),
                max_size=3))
        ))
        for f in draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
    ]
    dets = {
        f: [det(f, box, code, prob, data, temporary)
            for box, code, prob, data, temporary in draw(st.lists(st.tuples(
                BOXES, CODES, st.floats(0.0, 1.0), st.sampled_from([None, "40", "50"]),
                st.sampled_from([None, False, True])), max_size=4))]
        for f in range(6)
    }
    return dets, anns


class TestBaseScore:
    def test_online_threshold_is_zero(self):
        assert tp_base_score(0.5, ONLINE) == 0.0

    def test_online_above_full_is_one(self):
        for value in (0.851, 0.9, 1.0):
            assert tp_base_score(value, ONLINE) == 1.0

    def test_online_formula_value(self):
        assert tp_base_score(0.675, ONLINE) == pytest.approx(0.5 ** 0.25, abs=1e-12)

    def test_offline_threshold_is_zero(self):
        assert tp_base_score(0.3, OFFLINE) == 0.0

    def test_offline_formula_value(self):
        assert tp_base_score(0.575, OFFLINE) == pytest.approx(0.5 ** 0.25, abs=1e-12)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            tp_base_score(0.49, ONLINE)
        with pytest.raises(ValueError):
            tp_base_score(0.29, OFFLINE)

    def test_matches_log_domain_oracle(self):
        # independent evaluation via exp(ln(x)/4)
        for cfg, thr, div in ((ONLINE, 0.5, 0.35), (OFFLINE, 0.3, 0.55)):
            for i in range(1, 40):
                value = thr + div * i / 40.0
                ratio = (value - thr) / (thr + div - thr)
                expected = math.exp(math.log(ratio) / 4.0) if ratio > 0 else 0.0
                assert tp_base_score(value, cfg) == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_continuous_at_full(self):
        prev = -1.0
        for i in range(0, 101):
            value = 0.5 + (1.0 - 0.5) * i / 100.0
            score = tp_base_score(value, ONLINE)
            assert score >= prev
            prev = score
        assert tp_base_score(0.85, ONLINE) == pytest.approx(1.0, abs=1e-12)
        assert tp_base_score(0.8500001, ONLINE) == 1.0


K_NAMES = ("k1_exact", "k1_superclass", "k2_match", "k2_mismatch", "k2_absent",
           "k3_match", "k3_mismatch", "k3_absent")


def set_k_values(monkeypatch, *values):
    """Patch the eight ``ScoringConfig`` k constants, in ``K_NAMES`` order."""
    assert len(values) == len(K_NAMES)
    for name, value in zip(K_NAMES, values):
        monkeypatch.setattr(ScoringConfig, name, value)


class TestScoringConfig:
    def test_fixed_rules_and_stage_thresholds(self):
        for cfg, threshold in ((ONLINE, 0.5), (OFFLINE, 0.3)):
            rules = (cfg.iou_threshold, cfg.full_score_iou, cfg.formula_exponent,
                     cfg.fp_penalty, cfg.min_area_px)
            assert rules == (threshold, 0.85, 0.25, 2.0, 100.0)

    def test_only_stage_is_settable(self):
        assert [f.name for f in dataclasses.fields(ScoringConfig)] == ["stage"]
        with pytest.raises(TypeError):
            ScoringConfig(Stage.ONLINE, iou_threshold=0.4)
        with pytest.raises(TypeError):  # the k values are constants, not a table
            ScoringConfig(Stage.OFFLINE, None)
        with pytest.raises(TypeError):
            ScoringConfig.offline(None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ONLINE.iou_threshold = 0.4
        assert ScoringConfig.offline().iou_threshold == 0.3

    def test_k_values_are_the_placeholders(self):
        assert [getattr(OFFLINE, name) for name in K_NAMES] == [
            0.3, 0.0, 0.4, -0.5, 0.0, 0.3, -0.5, 0.0]


class TestKMultiplier:
    @pytest.mark.parametrize("k_value", [None, -1.0, 2.0])
    def test_online_applies_no_k_terms_whatever_the_k_values(self, monkeypatch, k_value):
        if k_value is not None:
            set_k_values(monkeypatch, *[k_value] * 8)
        g = gt(0, (0, 0, 10, 10), data="40", temporary=True)
        for data, temporary in ((None, None), ("40", True), ("60", False)):
            d = det(0, (0, 0, 10, 10), data=data, temporary=temporary)
            assert k_multiplier(d, g, ONLINE) == 1.0

    @pytest.mark.parametrize("stage", list(Stage))
    @pytest.mark.parametrize("pred, truth", [("3.24", "5.19.1"), ("3.24", "3"), ("3.2", "3.24")])
    def test_class_that_does_not_match_is_refused(self, stage, pred, truth):
        with pytest.raises(ValueError,
                           match=f"^detection class {pred} does not match ground truth {truth}$"):
            k_multiplier(det(0, (0, 0, 10, 10), code=pred), gt(0, (0, 0, 10, 10), code=truth),
                         ScoringConfig(stage))

    def test_exact_match_all_fields(self):
        d = det(0, (0, 0, 10, 10), data="40", temporary=True)
        g = gt(0, (0, 0, 10, 10), data="40", temporary=True)
        assert k_multiplier(d, g, OFFLINE) == pytest.approx(1 + 0.3 + 0.4 + 0.3)

    def test_zero_rules_give_identity(self, monkeypatch):
        set_k_values(monkeypatch, 0, 0, 0, 0, 0, 0, 0, 0)
        d = det(0, (0, 0, 10, 10), data="x", temporary=True)
        g = gt(0, (0, 0, 10, 10), data="y", temporary=False)
        assert k_multiplier(d, g, OFFLINE) == 1.0

    def test_negative_sum_clamped_to_zero(self, monkeypatch):
        set_k_values(monkeypatch, -0.4, 0.0, 0.0, -0.5, -0.3, 0.0, -0.5, -0.5)
        d = det(0, (0, 0, 10, 10))
        g = gt(0, (0, 0, 10, 10))
        # 1 - 0.4 - 0.3 - 0.5 = -0.2 -> clamped
        assert k_multiplier(d, g, OFFLINE) == 0.0

    def test_superclass_term(self):
        d = det(0, (0, 0, 10, 10), code="3.24")
        g = gt(0, (0, 0, 10, 10), code="3.24.1")
        assert k_multiplier(d, g, OFFLINE) == pytest.approx(1 + 0.0 + 0.0 + 0.0)

    def test_data_mismatch_penalty(self):
        d = det(0, (0, 0, 10, 10), data="40")
        g = gt(0, (0, 0, 10, 10), data="60")
        assert k_multiplier(d, g, OFFLINE) == pytest.approx(1 + 0.3 - 0.5 + 0.0)

    def test_data_comparison_trims_and_casefolds(self):
        d = det(0, (0, 0, 10, 10), data="  Stop ")
        g = gt(0, (0, 0, 10, 10), data="stop")
        assert k_multiplier(d, g, OFFLINE) == pytest.approx(1 + 0.3 + 0.4 + 0.0)

    def test_temporary_mismatch_penalty(self):
        d = det(0, (0, 0, 10, 10), temporary=False)
        g = gt(0, (0, 0, 10, 10), temporary=True)
        assert k_multiplier(d, g, OFFLINE) == pytest.approx(1 + 0.3 + 0.0 - 0.5)

    def test_absent_terms_are_neutral(self):
        d = det(0, (0, 0, 10, 10))
        g = gt(0, (0, 0, 10, 10), data="40", temporary=True)
        assert k_multiplier(d, g, OFFLINE) == pytest.approx(1 + 0.3 + 0.0 + 0.0)

    def test_online_has_no_k_terms(self):
        d = det(0, (0, 0, 10, 10), data="40", temporary=True)
        g = gt(0, (0, 0, 10, 10), data="40", temporary=True)
        assert k_multiplier(d, g, ONLINE) == 1.0


@st.composite
def ceiling_sets(draw):
    """Annotations on up to 30 frames of up to 6 signs each: real boxes,
    some under the 100 px^2 ignore bound, every code level, associated
    data absent or present (in any case and spacing), either temporary
    flag."""
    real = st.floats(0.0, 50.0, allow_nan=False)
    boxes = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), real, real, real, real)
    signs = st.tuples(boxes, st.sampled_from(["3", "3.24", "3.24.1", "5.19.1", "8.2.1"]),
                      st.sampled_from([None, "40", " Stop ", ""]), st.booleans())
    return [FrameAnnotations(f, tuple(gt(f, *sign) for sign in draw(st.lists(signs, max_size=6))))
            for f in draw(st.lists(st.integers(0, 1000), unique=True, max_size=30))]


def detection_variants(sign, stage):
    """Every detection of ``sign``'s box whose class the stage accepts for
    it (the sign's, or offline also a superclass of it), with associated
    data and temporary flag each absent, matching or mismatching."""
    lowest = 1 if stage is Stage.OFFLINE else sign.code.level
    codes = [sign.code.prefix(level) for level in range(lowest, sign.code.level + 1)]
    data = (None, sign.associated_data, f"not {sign.associated_data}")
    for code, text, temporary in itertools.product(codes, data,
                                                   (None, sign.temporary, not sign.temporary)):
        yield Detection(sign.frame_index, sign.box, {code: 1.0}, text, temporary)


class TestMaxAttainable:
    @settings(max_examples=200, deadline=None)
    @given(ceiling_sets(), st.sampled_from(list(Stage)))
    @example([FrameAnnotations(0, (gt(0, (0, 0, 10, 10), data="40", temporary=True),
                                   gt(0, (0, 0, 9, 9)), gt(0, (20, 0, 30, 10), "3.24.1")))],
             Stage.OFFLINE)
    def test_equals_the_k_formula(self, annotations, stage):
        cfg = ScoringConfig(stage)
        assert (repr(max_attainable_score(annotations, cfg))
                == repr(scoring_oracles.max_attainable_score(annotations, cfg)))

    @pytest.mark.parametrize("stage", list(Stage))
    def test_no_detection_variant_beats_the_perfect_one(self, stage):
        cfg = ScoringConfig(stage)
        signs = [gt(0, (0, 0, 10, 10), code, data, temporary)
                 for code in ("3", "3.24", "3.24.1") for data in (None, "40")
                 for temporary in (False, True)]
        for sign in signs:
            ceiling = max_attainable_score([FrameAnnotations(0, (sign,))], cfg)
            variants = list(detection_variants(sign, stage))
            assert len(variants) == 9 * (sign.code.level if stage is Stage.OFFLINE else 1)
            assert max(k_multiplier(d, sign, cfg) for d in variants) == ceiling

    def test_a_negative_k_sum_adds_nothing(self, monkeypatch):
        set_k_values(monkeypatch, -0.4, 0.0, 0.0, -0.5, -0.3, -0.5, -0.5, -0.5)
        annotations = [FrameAnnotations(0, (gt(0, (0, 0, 10, 10)),
                                            gt(0, (0, 0, 10, 10), data="40")))]
        # 1 - 0.4 - 0.3 - 0.5 = -0.2 and 1 - 0.4 + 0 - 0.5 = 0.1
        assert max_attainable_score(annotations, OFFLINE) == pytest.approx(0.1, abs=1e-12)
        assert max_attainable_score(annotations, ONLINE) == 2.0


class TestMatchFrame:
    def test_duplicate_lower_iou_is_fp(self):
        g = gt(0, (0, 0, 100, 100))
        d1 = det(0, (0, 0, 100, 100))
        d2 = det(0, (10, 10, 110, 110))  # iou = 8100/11900
        assert iou(d2.box, g.box) == pytest.approx(8100 / 11900, abs=1e-12)
        result = match_frame([d1, d2], FrameAnnotations(frame_index=0, signs=(g,)), ONLINE)
        assert len(result.true_positives) == 1
        assert result.true_positives[0].detection is d1
        assert result.true_positives[0].score == 1.0
        assert [f.reason for f in result.false_positives] == [FpReason.DUPLICATE]
        assert result.tp_points - 2.0 * len(result.false_positives) == -1.0

    def test_tp_points_add_left_to_right(self):
        # compensated summation (math.fsum, or sum() from Python 3.12) gives 0.6
        tps = tuple(
            TruePositive(det(0, (0, 0, 10, 10)), gt(0, (0, 0, 10, 10)), 1.0, score)
            for score in (0.1, 0.2, 0.3)
        )
        result = MatchResult(0, tps, (), (), ())
        assert repr(result.tp_points) == "0.6000000000000001"

    def test_tiny_gt_ignores_overlapping_detection(self):
        g = gt(0, (0, 0, 9, 9))  # 81 px² < 100
        d = det(0, (0, 0, 9, 9))
        result = match_frame([d], FrameAnnotations(frame_index=0, signs=(g,)), ONLINE)
        assert not result.true_positives
        assert not result.false_positives
        assert [x for x in result.ignored] == [d]

    def test_empty_frame(self):
        result = match_frame([], FrameAnnotations(frame_index=0, signs=()), ONLINE)
        assert not result.true_positives and not result.false_positives
        assert not result.ignored and not result.missed

    def test_wrong_class_is_fp_and_gt_missed(self):
        g = gt(0, (0, 0, 100, 100), code="3.24")
        d = det(0, (0, 0, 100, 100), code="5.19.1")
        result = match_frame([d], FrameAnnotations(frame_index=0, signs=(g,)), ONLINE)
        assert [f.reason for f in result.false_positives] == [FpReason.WRONG_CLASS]
        assert list(result.missed) == [g]

    def test_online_rejects_superclass(self):
        g = gt(0, (0, 0, 100, 100), code="3.24.1")
        d = det(0, (0, 0, 100, 100), code="3.24")
        result = match_frame([d], FrameAnnotations(frame_index=0, signs=(g,)), ONLINE)
        assert not result.true_positives

    def test_offline_accepts_superclass(self):
        g = gt(0, (0, 0, 100, 100), code="3.24.1")
        d = det(0, (0, 0, 100, 100), code="3.24")
        result = match_frame([d], FrameAnnotations(frame_index=0, signs=(g,)), OFFLINE)
        assert len(result.true_positives) == 1
        # superclass multiplier: 1 + 0 + 0 + 0
        assert result.true_positives[0].score == pytest.approx(1.0)

    def test_below_threshold_is_unmatched_fp(self):
        g = gt(0, (0, 0, 100, 100))
        d = det(0, (200, 200, 300, 300))
        result = match_frame([d], FrameAnnotations(frame_index=0, signs=(g,)), ONLINE)
        assert [f.reason for f in result.false_positives] == [FpReason.UNMATCHED]

    def test_threshold_boundary_inclusive(self):
        g = gt(0, (0, 0, 100, 100))
        # iou exactly 0.5: det (0,0,100,50) -> inter 5000, union 10000
        d = det(0, (0, 0, 100, 50))
        result = match_frame([d], FrameAnnotations(frame_index=0, signs=(g,)), ONLINE)
        assert len(result.true_positives) == 1
        assert result.true_positives[0].score == 0.0

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_frame([det(1, (0, 0, 10, 10))], FrameAnnotations(frame_index=0), ONLINE)

    def test_partition_invariant(self):
        g1 = gt(0, (0, 0, 100, 100))
        g2 = gt(0, (500, 0, 600, 100), code="5.19.1")
        dets = [
            det(0, (0, 0, 100, 100)),
            det(0, (10, 10, 110, 110)),
            det(0, (200, 200, 220, 220)),
            det(0, (500, 0, 600, 100), code="5.19.1"),
        ]
        result = match_frame(dets, FrameAnnotations(frame_index=0, signs=(g1, g2)), ONLINE)
        accounted = (
            [t.detection for t in result.true_positives]
            + [f.detection for f in result.false_positives]
            + list(result.ignored)
        )
        assert sorted(map(id, accounted)) == sorted(map(id, dets))
        for tp in result.true_positives:
            assert tp.iou >= ONLINE.iou_threshold


def brute_force_match(dets, signs, cfg):
    """Oracle: best one-to-one assignment by (TP count, then total IoU).

    Considers only pairs that satisfy the same class/threshold/area rules
    as the greedy matcher.
    """
    scoreable = [s for s in signs if (s.box.x_max - s.box.x_min) * (s.box.y_max - s.box.y_min) >= cfg.min_area_px]

    def acceptable(d, s):
        if iou(d.box, s.box) < cfg.iou_threshold:
            return False
        if d.code == s.code:
            return True
        return cfg.stage is Stage.OFFLINE and d.code.is_superclass_of(s.code)

    best = (0, 0.0)
    best_pairs = []
    det_indices = range(len(dets))
    for count in range(min(len(dets), len(scoreable)), -1, -1):
        for det_subset in itertools.combinations(det_indices, count):
            for gt_perm in itertools.permutations(range(len(scoreable)), count):
                pairs = list(zip(det_subset, gt_perm))
                if not all(acceptable(dets[d], scoreable[g]) for d, g in pairs):
                    continue
                total = sum(iou(dets[d].box, scoreable[g].box) for d, g in pairs)
                if (count, total) > best:
                    best = (count, total)
                    best_pairs = pairs
        if best[0] == count and count > 0:
            break  # larger counts already explored (descending loop)
    return best, best_pairs


def random_frame(rng):
    frame_dets, frame_gts = [], []
    codes = ["3.24", "5.19.1", "5.19.2", "1.1", "2.4"]
    for _ in range(rng.randrange(0, 7)):
        x, y = rng.uniform(0, 400), rng.uniform(0, 400)
        w, h = rng.uniform(5, 80), rng.uniform(5, 80)
        frame_gts.append(gt(0, (x, y, x + w, y + h), code=rng.choice(codes)))
    for _ in range(rng.randrange(0, 7)):
        if frame_gts and rng.random() < 0.7:
            base = rng.choice(frame_gts).box
            dx, dy = rng.uniform(-15, 15), rng.uniform(-15, 15)
            box = (base.x_min + dx, base.y_min + dy, base.x_max + dx, base.y_max + dy)
        else:
            x, y = rng.uniform(0, 400), rng.uniform(0, 400)
            box = (x, y, x + rng.uniform(5, 80), y + rng.uniform(5, 80))
        frame_dets.append(det(0, box, code=rng.choice(codes)))
    return frame_dets, frame_gts


class TestMatchingOracle:
    def test_greedy_agrees_with_brute_force(self):
        rng = random.Random(20260826)
        frames = 1000
        agreements = 0
        disagreements = []
        for i in range(frames):
            dets, gts_ = random_frame(rng)
            result = match_frame(
                dets, FrameAnnotations(frame_index=0, signs=tuple(gts_)), ONLINE
            )
            (best_count, _), _ = brute_force_match(dets, gts_, ONLINE)
            if len(result.true_positives) == best_count:
                agreements += 1
            else:
                disagreements.append((i, dets, gts_, len(result.true_positives), best_count))
        if disagreements:
            for case in disagreements[:5]:
                print("greedy/brute-force disagreement:", case)
        assert agreements / frames >= 0.99


class TestScoreDataset:
    def test_single_perfect_detection(self):
        anns = [FrameAnnotations(frame_index=0, signs=(gt(0, (0, 0, 100, 100)),))]
        dets = {0: [det(0, (0, 0, 100, 100))]}
        report = score_dataset(dets, anns, ONLINE)
        assert report.total == 1.0

    def test_fp_on_annotated_empty_frame(self):
        anns = [FrameAnnotations(frame_index=0, signs=())]
        dets = {0: [det(0, (i * 50, 0, i * 50 + 30, 30)) for i in range(3)]}
        report = score_dataset(dets, anns, ONLINE)
        assert report.total == -6.0

    def test_unannotated_frames_discarded(self):
        anns = [FrameAnnotations(frame_index=0, signs=())]
        dets = {5: [det(5, (0, 0, 30, 30))], 9: [det(9, (0, 0, 30, 30))]}
        report = score_dataset(dets, anns, ONLINE)
        assert report.total == 0.0

    def test_total_identity(self):
        anns = [
            FrameAnnotations(frame_index=0, signs=(gt(0, (0, 0, 100, 100)),)),
            FrameAnnotations(frame_index=30, signs=()),
        ]
        dets = {
            0: [det(0, (2, 0, 100, 100)), det(0, (300, 300, 340, 340))],
            30: [det(30, (0, 0, 30, 30))],
        }
        report = score_dataset(dets, anns, ONLINE)
        assert report.total == report.tp_points - 2.0 * report.fp_count
        assert report.fp_count == 2

    def test_duplicate_frame_annotations_rejected(self):
        anns = [FrameAnnotations(frame_index=0), FrameAnnotations(frame_index=0)]
        with pytest.raises(ValueError):
            score_dataset({}, anns, ONLINE)

    def test_per_class_breakdown_sums_to_total_tp(self):
        anns = [
            FrameAnnotations(
                frame_index=0,
                signs=(gt(0, (0, 0, 100, 100)), gt(0, (200, 0, 300, 100), code="5.19.1")),
            )
        ]
        dets = {
            0: [det(0, (0, 0, 100, 100)), det(0, (200, 0, 300, 100), code="5.19.1")]
        }
        report = score_dataset(dets, anns, OFFLINE)
        assert sum(c.tp_points for c in report.per_class.values()) == pytest.approx(
            report.tp_points
        )

    def test_fp_removal_never_decreases_total(self):
        anns = [FrameAnnotations(frame_index=0, signs=(gt(0, (0, 0, 100, 100)),))]
        with_fp = {0: [det(0, (0, 0, 100, 100)), det(0, (400, 400, 440, 440))]}
        without_fp = {0: [det(0, (0, 0, 100, 100))]}
        assert (
            score_dataset(without_fp, anns, ONLINE).total
            >= score_dataset(with_fp, anns, ONLINE).total
        )

    @staticmethod
    def mixed_frames():
        """Frame 0 has a true positive and a false positive of every reason,
        frame 5 is annotated empty with one detection, frame 9 has a missed
        sign; frame 7 is not annotated."""
        anns = [
            FrameAnnotations(9, (gt(9, (0, 0, 100, 100)),)),
            FrameAnnotations(0, (gt(0, (0, 0, 100, 100)),)),
            FrameAnnotations(5),
        ]
        dets = {
            0: [det(0, (0, 0, 100, 100)), det(0, (2, 0, 100, 100)),
                det(0, (0, 0, 100, 100), code="5.19.1"), det(0, (400, 400, 440, 440))],
            5: [det(5, (0, 0, 30, 30))],
            7: [det(7, (0, 0, 30, 30))],
        }
        return anns, dets

    def test_frames_are_the_match_results(self):
        anns, dets = self.mixed_frames()
        report = score_dataset(dets, anns, ONLINE)
        assert [result.frame_index for result in report.frames] == [0, 5, 9]
        for result in report.frames:
            anno = next(a for a in anns if a.frame_index == result.frame_index)
            assert result == match_frame(dets.get(anno.frame_index, []), anno, ONLINE)

    def test_fp_reasons_add_up_to_the_fp_count(self):
        anns, dets = self.mixed_frames()
        report = score_dataset(dets, anns, ONLINE)
        tallies = [collections.Counter(fp.reason for fp in result.false_positives)
                   for result in report.frames]
        for tally, result in zip(tallies, report.frames):
            assert sum(tally.values()) == len(result.false_positives)
        assert sum(len(result.false_positives) for result in report.frames) == report.fp_count
        assert tallies == [
            {FpReason.DUPLICATE: 1, FpReason.WRONG_CLASS: 1, FpReason.UNMATCHED: 1},
            {FpReason.UNMATCHED: 1},
            {},
        ]
        assert report.fp_count == 4

    def test_iou_taken_once_per_detection_and_sign(self, monkeypatch):
        anns, dets = self.mixed_frames()
        pairs = []

        def counting(a, b):
            pairs.append((a, b))
            return iou(a, b)

        monkeypatch.setattr(scoring, "iou", counting)
        match_frame(dets[0], anns[1], ONLINE)
        assert sorted(map(repr, pairs)) == sorted(
            repr((d.box, g.box)) for d in dets[0] for g in anns[1].signs)

    def test_report_has_only_its_frames(self):
        assert [f.name for f in dataclasses.fields(ScoreReport)] == ["frames"]

    @settings(max_examples=200, deadline=None)
    @given(scored_sets(), st.sampled_from([ONLINE, OFFLINE]))
    # six frames whose TP points sum to other bits when added right to left
    @example(({f: [det(f, (0, 0, 20, 20))] for f in range(6)},
              [FrameAnnotations(f, (gt(f, (d, 0, 20 + d, 20)),))
               for f, d in enumerate(0.731 * (g + 1) % 4.5 for g in range(6))]), ONLINE)
    def test_totals_and_per_class_are_a_fold_over_frames(self, case, cfg):
        dets, anns = case
        report = score_dataset(dets, anns, cfg)
        total, tp_points, fp_count, per_class = scoring_oracles.tally(report.frames)
        assert (report.total, report.tp_points, report.fp_count) == (total, tp_points, fp_count)
        assert list(report.per_class.items()) == list(per_class.items())

    def test_report_renders(self):
        anns = [FrameAnnotations(frame_index=0, signs=(gt(0, (0, 0, 100, 100)),))]
        dets = {0: [det(0, (0, 0, 100, 100))]}
        report = score_dataset(dets, anns, ONLINE)
        table = format_report(report)
        records = report_records(report)
        assert "total" in table
        assert records.splitlines()[0] == "icevision-kit/v1 score"
        assert any(line.startswith("0 ") for line in records.splitlines()[1:])
