"""Synthetic benchmark harness: scenarios, mock detector, scoring oracle."""

import math
import re

import numpy as np
import pytest

from icevision_kit import core
from icevision_kit.core import BoundingBox, FrameAnnotations
from icevision_kit.datastore import DatastoreError
from icevision_kit.harness import (
    BUDGET_FPS,
    FP_PER_FRAME_MAX,
    BenchmarkReport,
    GeneratedScenario,
    NoiseModel,
    PipelineConfig,
    ScenarioSpec,
    SyntheticRenderer,
    SyntheticScenario,
    SyntheticSign,
    annotation_frames,
    benchmark_records,
    dense_truth,
    format_benchmark,
    generate_scenario,
    group_by_frame,
    max_attainable_score,
    mock_detector,
    parse_scenario,
    run_benchmark,
)
from icevision_kit.scoring import ScoringConfig
from icevision_kit.taxonomy import parse_code
from icevision_kit.tracking import TrackerConfig


def sign(code="3.24", entry=0, exit=29, x=100.0, y=100.0, w=40.0, h=40.0, vx=0.0, vy=0.0, **kw):
    return SyntheticSign(
        code=parse_code(code), entry_frame=entry, exit_frame=exit,
        x=x, y=y, width=w, height=h, vx=vx, vy=vy, **kw,
    )


def truth_for_scenario(scenario: SyntheticScenario, seed: int) -> GeneratedScenario:
    """Sparse annotations and dense truth for a hand-built scenario, the
    annotated frames drawn from a PCG64 stream seeded with ``seed``."""
    frames = annotation_frames(scenario.frame_count, np.random.Generator(np.random.PCG64(seed)))
    dense = dense_truth(scenario)
    return GeneratedScenario(scenario, [FrameAnnotations(f, tuple(dense[f])) for f in frames], dense)


class TestNoiseModel:
    def test_defaults_are_noiseless(self):
        noise = NoiseModel()
        assert noise.drop_probability == 0.0 and noise.fp_per_frame == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_probability": 1.5},
            {"drop_probability": -0.1},
            {"fp_per_frame": -1.0},
            {"position_jitter_px": -2.0},
            {"class_confusion": 1.01},
            # above the false-positive cap, and more than numpy's uniform draw accepts
            {"fp_per_frame": 1e19},
            {"position_jitter_px": 1e308},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)

    def test_false_positive_rate_is_capped(self):
        assert NoiseModel(fp_per_frame=FP_PER_FRAME_MAX).fp_per_frame == FP_PER_FRAME_MAX == 100.0
        with pytest.raises(ValueError, match=r"^fp_per_frame must be in \[0, 100\.0\], got 100\.00000000000001$"):
            NoiseModel(fp_per_frame=math.nextafter(FP_PER_FRAME_MAX, math.inf))


class TestSyntheticSign:
    def test_box_at_linear_motion(self):
        s = sign(entry=10, exit=20, x=100, y=50, vx=2.0, vy=-1.0)
        assert s.box_at(10) == BoundingBox(100, 50, 140, 90)
        assert s.box_at(15) == BoundingBox(110, 45, 150, 85)

    def test_box_at_outside_lifetime(self):
        s = sign(entry=10, exit=20)
        with pytest.raises(ValueError):
            s.box_at(9)
        with pytest.raises(ValueError):
            s.box_at(21)

    def test_bad_lifetime(self):
        with pytest.raises(ValueError):
            sign(entry=5, exit=4)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            sign(w=0.0)


class TestScenario:
    def test_sign_must_stay_inside(self):
        # moves right 2 px/frame for 30 frames from x=1200: exits a 1280 frame
        with pytest.raises(ValueError):
            SyntheticScenario(frame_count=40, signs=(sign(x=1200.0, vx=2.0),))

    def test_sign_must_end_before_last_frame(self):
        with pytest.raises(ValueError):
            SyntheticScenario(frame_count=20, signs=(sign(exit=25),))

    @pytest.mark.parametrize("cls", [SyntheticScenario, ScenarioSpec])
    @pytest.mark.parametrize("size", [{"frame_count": 0}, {"frame_count": -1},
                                      {"frame_count": 40, "width": 0},
                                      {"frame_count": 40, "height": -768}])
    def test_size_must_be_positive(self, cls, size):
        with pytest.raises(ValueError, match="^frame_count, width, and height must be positive$"):
            cls(**size)

    def test_spec_sign_count_must_not_be_negative(self):
        with pytest.raises(ValueError, match="^sign_count must be >= 0, got -1$"):
            ScenarioSpec(frame_count=40, sign_count=-1)

    def test_valid(self):
        sc = SyntheticScenario(frame_count=40, signs=(sign(),))
        assert sc.signs[0].code == parse_code("3.24")

    def test_dense_truth_spans_lifetime(self):
        sc = SyntheticScenario(frame_count=40, signs=(sign(entry=5, exit=10),))
        dense = dense_truth(sc)
        assert sorted(f for f, gts in dense.items() if gts) == list(range(5, 11))


class TestParseScenario:
    def test_full(self):
        spec = parse_scenario("frame_count = 300\nwidth=640\nheight=480\nsign_count=3\n")
        assert spec == ScenarioSpec(frame_count=300, width=640, height=480, sign_count=3)

    def test_defaults_and_comments(self):
        spec = parse_scenario("# demo\nframe_count = 100\n")
        assert spec.width == 1280 and spec.height == 768 and spec.sign_count == 8

    def test_missing_frame_count(self):
        with pytest.raises(ValueError):
            parse_scenario("width=640\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_scenario("frame_count=10\nfps=30\n")

    def test_non_integer(self):
        with pytest.raises(ValueError):
            parse_scenario("frame_count=ten\n")

    @pytest.mark.parametrize("value", ["\u0663\u0660", "3_0", "+30", "-30", "30.0"])
    def test_integers_are_ascii_decimal(self, value):
        # int() reads all but the last as 30 or -30
        with pytest.raises(DatastoreError, match=f"^s.cfg:2: bad value for frame_count: {re.escape(repr(value))}$") as err:
            parse_scenario(f"width = 640\nframe_count = {value}\n", "s.cfg")
        assert str(err.value).startswith("s.cfg:2:")

    def test_repeated_key_names_line(self):
        with pytest.raises(DatastoreError, match="^s.cfg:3: repeated key 'width'$") as err:
            parse_scenario("frame_count = 10\nwidth = 640\nwidth = 320\n", "s.cfg")
        assert str(err.value).startswith("s.cfg:3:")


class TestScenarioSpec:
    @pytest.mark.parametrize("width, height", [(30, 640), (640, 59)])
    def test_frame_must_hold_the_largest_sign(self, width, height):
        with pytest.raises(ValueError, match="60 px"):
            ScenarioSpec(frame_count=10, width=width, height=height, sign_count=1)

    def test_small_frame_without_signs_is_fine(self):
        generate_scenario(ScenarioSpec(frame_count=10, width=30, height=30, sign_count=0), seed=0)

    def test_smallest_frame_generates(self):
        for seed in range(20):
            generate_scenario(ScenarioSpec(frame_count=40, width=60, height=60, sign_count=5), seed)


class TestAnnotationFrames:
    def test_starts_at_zero_with_bounded_steps(self):
        rng = np.random.Generator(np.random.PCG64(5))
        frames = annotation_frames(500, rng)
        assert frames[0] == 0
        steps = np.diff(frames)
        assert steps.min() >= 25 and steps.max() <= 35
        assert frames[-1] < 500

    def test_deterministic(self):
        a = annotation_frames(1000, np.random.Generator(np.random.PCG64(9)))
        b = annotation_frames(1000, np.random.Generator(np.random.PCG64(9)))
        assert a == b

    def test_short_sequence_only_frame_zero(self):
        frames = annotation_frames(10, np.random.Generator(np.random.PCG64(0)))
        assert frames == (0,)


class TestGenerateScenario:
    def test_deterministic(self):
        spec = ScenarioSpec(frame_count=200, sign_count=5)
        a = generate_scenario(spec, seed=42)
        b = generate_scenario(spec, seed=42)
        assert a.scenario == b.scenario
        assert a.annotations == b.annotations

    def test_seed_changes_output(self):
        spec = ScenarioSpec(frame_count=200, sign_count=5)
        assert generate_scenario(spec, 1).scenario != generate_scenario(spec, 2).scenario

    def test_zero_signs(self):
        out = generate_scenario(ScenarioSpec(frame_count=50, sign_count=0), seed=0)
        assert out.scenario.signs == ()
        assert all(ann.signs == () for ann in out.annotations)

    def test_annotations_match_annotated_frames(self):
        out = generate_scenario(ScenarioSpec(frame_count=300, sign_count=4), seed=7)
        steps = np.diff([ann.frame_index for ann in out.annotations])
        assert out.annotations[0].frame_index == 0 and steps.min() >= 25 and steps.max() <= 35
        for ann in out.annotations:
            dense = out.dense[ann.frame_index]
            assert list(ann.signs) == dense

    def test_annotations_share_the_dense_truth(self):
        # ground truth is built once: an annotated frame holds its dense signs
        gen = generate_scenario(ScenarioSpec(frame_count=300, sign_count=6), seed=11)
        assert any(ann.signs for ann in gen.annotations)
        for ann in gen.annotations:
            assert all(a is b for a, b in zip(ann.signs, gen.dense[ann.frame_index], strict=True))

    def test_signs_stay_in_bounds(self):
        out = generate_scenario(ScenarioSpec(frame_count=400, sign_count=20), seed=3)
        for s in out.scenario.signs:
            for f in (s.entry_frame, s.exit_frame):
                box = s.box_at(f)
                assert box.x_min >= 0 and box.y_min >= 0
                assert box.x_max <= out.scenario.width
                assert box.y_max <= out.scenario.height


class TestMockDetector:
    @staticmethod
    def scenario():
        return SyntheticScenario(
            frame_count=30,
            signs=(
                sign(code="3.24", x=100, y=100, associated_data="40", temporary=True),
                sign(code="5.19.1", x=400, y=200),
            ),
        )

    def test_zero_noise_reproduces_truth(self):
        sc = self.scenario()
        dets = mock_detector(dense_truth(sc), NoiseModel(), 3, sc)
        assert sorted(dets) == list(range(0, 30, 3))
        for frame, rows in dets.items():
            truth = dense_truth(sc)[frame]
            assert len(rows) == len(truth)
            for det, gt in zip(rows, truth):
                assert det.box == gt.box
                assert det.class_distribution == {gt.code: 1.0}
                assert det.associated_data == gt.associated_data
                assert det.temporary == gt.temporary

    def test_drop_everything(self):
        sc = self.scenario()
        dets = mock_detector(dense_truth(sc), NoiseModel(drop_probability=1.0), 3, sc)
        assert all(rows == [] for rows in dets.values())

    def test_deterministic(self):
        sc = self.scenario()
        noise = NoiseModel(drop_probability=0.3, fp_per_frame=0.5, position_jitter_px=2.0,
                           class_confusion=0.2, seed=11)
        a = mock_detector(dense_truth(sc), noise, 3, sc)
        b = mock_detector(dense_truth(sc), noise, 3, sc)
        assert a == b

    def test_jitter_translates_whole_box(self):
        sc = self.scenario()
        dets = mock_detector(dense_truth(sc), NoiseModel(position_jitter_px=3.0, seed=2), 3, sc)
        for frame, rows in dets.items():
            for det, gt in zip(rows, dense_truth(sc)[frame]):
                assert det.box.x_max - det.box.x_min == pytest.approx(gt.box.x_max - gt.box.x_min)
                assert det.box.y_max - det.box.y_min == pytest.approx(gt.box.y_max - gt.box.y_min)
                assert abs(det.box.x_min - gt.box.x_min) <= 3.0
                assert abs(det.box.y_min - gt.box.y_min) <= 3.0

    def test_confusion_spreads_to_one_sibling(self):
        sc = self.scenario()
        dets = mock_detector(dense_truth(sc), NoiseModel(class_confusion=0.3, seed=4), 3, sc)
        for frame, rows in dets.items():
            for det, gt in zip(rows, dense_truth(sc)[frame]):
                assert det.class_distribution[gt.code] == pytest.approx(0.7)
                others = {c: p for c, p in det.class_distribution.items() if c != gt.code}
                assert len(others) == 1
                (other_code, other_p), = others.items()
                assert other_p == pytest.approx(0.3)
                assert other_code.prefix(other_code.level - 1) == gt.code.prefix(gt.code.level - 1)

    def test_false_positives_poisson(self):
        sc = SyntheticScenario(frame_count=30, signs=())
        dets = mock_detector(dense_truth(sc), NoiseModel(fp_per_frame=2.0, seed=8), 1, sc)
        counts = [len(rows) for rows in dets.values()]
        assert sum(counts) > 0
        mean = sum(counts) / len(counts)
        assert 1.0 < mean < 3.0

    def test_bad_stride(self):
        sc = self.scenario()
        with pytest.raises(ValueError):
            mock_detector(dense_truth(sc), NoiseModel(), 0, sc)


class TestMaxAttainable:
    def test_offline_hand_check(self):
        sc = SyntheticScenario(
            frame_count=5,
            signs=(
                sign(code="3.24", exit=4, associated_data="40"),   # 1 + .3 + .4 + .3 = 2.0
                sign(code="5.19.1", exit=4, x=300),                # 1 + .3 + 0 + .3 = 1.6
            ),
        )
        gen = truth_for_scenario(sc, seed=0)  # annotated frame 0 only (5 frames)
        assert [a.frame_index for a in gen.annotations] == [0]
        total = max_attainable_score(gen.annotations, ScoringConfig.offline())
        assert total == pytest.approx(2.0 + 1.6)

    def test_online_counts_one_per_sign(self):
        sc = SyntheticScenario(frame_count=5, signs=(sign(exit=4), sign(exit=4, x=300)))
        gen = truth_for_scenario(sc, seed=0)
        assert max_attainable_score(gen.annotations, ScoringConfig.online()) == pytest.approx(2.0)

    @pytest.mark.parametrize("k_value", [None, -1.0, 2.0])
    def test_online_counts_one_per_sign_whatever_the_k_values(self, monkeypatch, k_value):
        if k_value is not None:
            for name in ("k1_exact", "k1_superclass", "k2_match", "k2_mismatch", "k2_absent",
                         "k3_match", "k3_mismatch", "k3_absent"):
                monkeypatch.setattr(ScoringConfig, name, k_value)
        sc = SyntheticScenario(frame_count=5, signs=(sign(exit=4, associated_data="40"),
                                                     sign(exit=4, x=300)))
        gen = truth_for_scenario(sc, seed=0)
        assert max_attainable_score(gen.annotations, ScoringConfig.online()) == 2.0

    def test_ignore_zone_excluded(self):
        sc = SyntheticScenario(
            frame_count=5, signs=(sign(exit=4, w=9.0, h=9.0),)  # 81 px^2 < 100
        )
        gen = truth_for_scenario(sc, seed=0)
        assert max_attainable_score(gen.annotations, ScoringConfig.offline()) == 0.0



class TestBenchmark:
    def test_zero_noise_stride_one_hits_max(self):
        sc = SyntheticScenario(
            frame_count=60,
            signs=(
                sign(code="3.24", exit=59, x=100, y=100, associated_data="40"),
                sign(code="5.19.1", exit=59, x=600, y=300, temporary=True),
            ),
        )
        gen = truth_for_scenario(sc, seed=1)
        pipeline = PipelineConfig(tracker=TrackerConfig(keyframe_stride=1))
        report = run_benchmark(gen, NoiseModel(), pipeline)
        assert report.raw_score == pytest.approx(report.max_attainable, abs=1e-9)
        assert report.refined_score == pytest.approx(report.max_attainable, abs=1e-9)
        assert report.max_attainable > 0

    def test_noise_hurts_raw_score(self):
        gen = generate_scenario(ScenarioSpec(frame_count=150, sign_count=6), seed=5)
        clean = run_benchmark(gen, NoiseModel(), PipelineConfig())
        noisy = run_benchmark(gen, NoiseModel(fp_per_frame=3.0, seed=3), PipelineConfig())
        assert noisy.raw_score < clean.raw_score

    def test_report_properties(self):
        report = BenchmarkReport(
            frame_count=100, raw_score=1.0, refined_score=2.0,
            max_attainable=3.0, elapsed_seconds=2.0,
        )
        assert report.frames_per_second == pytest.approx(50.0)
        assert report.meets_budget
        slow = BenchmarkReport(
            frame_count=10, raw_score=0.0, refined_score=0.0,
            max_attainable=0.0, elapsed_seconds=10.0,
        )
        assert not slow.meets_budget

    def test_records_format(self):
        report = BenchmarkReport(
            frame_count=100, raw_score=1.0, refined_score=2.0,
            max_attainable=3.0, elapsed_seconds=2.0,
        )
        records = benchmark_records(report)
        assert records.startswith("icevision-kit/v1 bench\n")
        assert "refined_score=2.000000" in records
        assert "meets_budget=true" in records
        human = format_benchmark(report)
        assert "frames per second" in human

    def test_budget_is_the_competitions_100k_frames_in_5_hours(self):
        report = BenchmarkReport(
            frame_count=100, raw_score=1.0, refined_score=2.0,
            max_attainable=3.0, elapsed_seconds=2.0,
        )
        assert BUDGET_FPS == 100000.0 / (5 * 3600.0)
        assert "throughput budget     5.56 fps (met)\n" in format_benchmark(report)
        assert "budget_fps=5.555556\n" in benchmark_records(report)


class TestGroupByFrame:
    def test_groups_preserving_order(self):
        from icevision_kit.core import Detection

        dets = [
            Detection(frame_index=1, box=BoundingBox(0, 0, 10, 10),
                      class_distribution={parse_code("3.24"): 1.0}),
            Detection(frame_index=0, box=BoundingBox(0, 0, 10, 10),
                      class_distribution={parse_code("3.24"): 1.0}),
            Detection(frame_index=1, box=BoundingBox(5, 5, 15, 15),
                      class_distribution={parse_code("3.24"): 1.0}),
        ]
        grouped = group_by_frame(dets)
        assert sorted(grouped) == [0, 1]
        assert grouped[1] == [dets[0], dets[2]]

    def test_is_the_core_one(self):
        assert group_by_frame is core.group_by_frame


class TestRenderer:
    @staticmethod
    def scenario():
        return SyntheticScenario(
            frame_count=20,
            width=320,
            height=240,
            signs=(sign(code="3.24", entry=0, exit=19, x=50.0, y=60.0, w=24.0, h=16.0, vx=4.0),),
        )

    def test_deterministic(self):
        sc = self.scenario()
        a, b = SyntheticRenderer(sc, texture_seed=1), SyntheticRenderer(sc, texture_seed=1)
        assert np.array_equal(a[5].samples, b[5].samples)

    def test_texture_moves_with_sign(self):
        sc = self.scenario()
        r = SyntheticRenderer(sc, texture_seed=1)
        f0, f1 = r[0], r[1]
        # the pasted texture block is identical, displaced by vx = 4
        assert np.array_equal(f0.samples[60:76, 50:74], f1.samples[60:76, 54:78])

    def test_background_elsewhere(self):
        r = SyntheticRenderer(self.scenario(), texture_seed=1, background=96)
        assert np.all(r[0].samples[:50, :40] == 96)

    def test_flat_mode_constant(self):
        r = SyntheticRenderer(self.scenario(), textured=False, background=80)
        assert np.all(r[3].samples == 80)

    def test_out_of_range_frame(self):
        r = SyntheticRenderer(self.scenario(), texture_seed=1)
        with pytest.raises(KeyError):
            r[20]

    def test_texture_survives_scenario_reuse(self):
        sc = self.scenario()
        r = SyntheticRenderer(sc, texture_seed=2)
        assert np.array_equal(r[0].samples, r[0].samples)
