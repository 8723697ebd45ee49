"""Synthetic scenarios, a noisy mock detector, and end-to-end benchmarks.

The real detector is a neural network outside this toolkit's scope; the
harness replaces it with constant-velocity synthetic signs, a noise model
(drops, jitter, class confusion, false positives), and optional rendered
frames, so scoring, tracking, interpolation, and refinement can all be
exercised and timed deterministically at desk scale.

All randomness flows from explicit integer seeds through numpy's PCG64
generator; identical inputs and seed give identical outputs on every
platform.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (BoundingBox, Detection, FrameAnnotations, GroundTruthSign, group_by_frame,
                   pixel_rect)
from .datastore import FORMAT_VERSION, DatastoreError, parse_index, parse_key_values
from .frames import GrayImage, sample_dtype
from .refinement import LevelThresholds, refine_tracks
from .scoring import ScoringConfig, max_attainable_score, score_dataset
from .taxonomy import ClassCode, Taxonomy
from .tracking import TrackerConfig, densify_linear, run_tracker

ANNOTATION_STEP_RANGE = (25, 35)
SIGN_SIZE_RANGE = (20, 60)
# the mock detector builds one Detection per false positive, so its mean
# rate per frame is capped where a run still ends; the jitter's uniform
# range 2*j must stay finite
FP_PER_FRAME_MAX = 100.0
JITTER_MAX = sys.float_info.max / 2
# the competition's throughput rule: 100k frames in 5 h
BUDGET_FPS = 100000.0 / (5 * 3600.0)


def _rng(seed: int) -> np.random.Generator:
    # PCG64 by name: the reproducibility contract pins the algorithm,
    # not just the seed.
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class NoiseModel:
    """Imperfections applied to ground truth to fake a detector.

    ``fp_per_frame`` is the mean number of false positives drawn per frame,
    at most ``FP_PER_FRAME_MAX`` (100).
    """

    drop_probability: float = 0.0
    fp_per_frame: float = 0.0
    position_jitter_px: float = 0.0
    class_confusion: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(f"drop_probability must be in [0, 1], got {self.drop_probability}")
        if not 0.0 <= self.fp_per_frame <= FP_PER_FRAME_MAX:
            raise ValueError(f"fp_per_frame must be in [0, {FP_PER_FRAME_MAX!r}], "
                             f"got {self.fp_per_frame}")
        if not 0.0 <= self.position_jitter_px <= JITTER_MAX:
            raise ValueError(f"position_jitter_px must be in [0, {JITTER_MAX!r}], "
                             f"got {self.position_jitter_px}")
        if not 0.0 <= self.class_confusion <= 1.0:
            raise ValueError(f"class_confusion must be in [0, 1], got {self.class_confusion}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SyntheticSign:
    """One sign moving at constant velocity through part of the sequence."""

    code: ClassCode
    entry_frame: int
    exit_frame: int
    x: float
    y: float
    width: float
    height: float
    vx: float = 0.0
    vy: float = 0.0
    associated_data: str | None = None
    temporary: bool = False

    def __post_init__(self) -> None:
        if self.entry_frame < 0 or self.exit_frame < self.entry_frame:
            raise ValueError(
                f"sign lifetime [{self.entry_frame}, {self.exit_frame}] is invalid"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"sign size {self.width}x{self.height} must be positive")

    def box_at(self, frame_index: int) -> BoundingBox:
        if not self.entry_frame <= frame_index <= self.exit_frame:
            raise ValueError(
                f"frame {frame_index} outside sign lifetime "
                f"[{self.entry_frame}, {self.exit_frame}]"
            )
        dt = frame_index - self.entry_frame
        x = self.x + self.vx * dt
        y = self.y + self.vy * dt
        return BoundingBox(x, y, x + self.width, y + self.height)


@dataclass(frozen=True)
class SyntheticScenario:
    """Frame geometry plus the signs living inside it."""

    frame_count: int
    width: int = 1280
    height: int = 768
    signs: tuple[SyntheticSign, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signs", tuple(self.signs))
        if self.frame_count <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("frame_count, width, and height must be positive")
        for sign in self.signs:
            if sign.exit_frame >= self.frame_count:
                raise ValueError(
                    f"sign exits at frame {sign.exit_frame}, scenario has {self.frame_count}"
                )
            # linear motion: per-axis extremes are at the lifetime endpoints
            for frame in (sign.entry_frame, sign.exit_frame):
                box = sign.box_at(frame)
                if box.x_min < 0 or box.y_min < 0 or box.x_max > self.width or box.y_max > self.height:
                    raise ValueError(
                        f"sign box {box} outside {self.width}x{self.height} at frame {frame}"
                    )


@dataclass(frozen=True)
class ScenarioSpec:
    """Knobs for random scenario generation (the key=value file)."""

    frame_count: int
    width: int = 1280
    height: int = 768
    sign_count: int = 8

    def __post_init__(self) -> None:
        if self.frame_count <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("frame_count, width, and height must be positive")
        if self.sign_count < 0:
            raise ValueError(f"sign_count must be >= 0, got {self.sign_count}")
        largest = SIGN_SIZE_RANGE[1]
        if self.sign_count and min(self.width, self.height) < largest:
            raise ValueError(f"width and height must be >= {largest} px, the largest sign "
                             f"side, when sign_count > 0; got {self.width}x{self.height}")


def parse_scenario(text: str, path="<scenario>") -> ScenarioSpec:
    """Parse a key=value scenario spec (frame_count, width, height, sign_count)."""
    keys = ("frame_count", "width", "height", "sign_count")
    values = parse_key_values(text, path, dict.fromkeys(keys, parse_index))
    if "frame_count" not in values:
        raise DatastoreError(path, None, "scenario spec must set frame_count")
    try:
        return ScenarioSpec(**values)
    except ValueError as exc:
        raise DatastoreError(path, None, str(exc)) from None


@dataclass(frozen=True)
class GeneratedScenario:
    """A scenario plus its derived ground truth."""

    scenario: SyntheticScenario
    annotations: list[FrameAnnotations]
    dense: dict[int, list[GroundTruthSign]]


def dense_truth(scenario: SyntheticScenario) -> dict[int, list[GroundTruthSign]]:
    """Ground truth boxes for every frame of the scenario."""
    return {
        frame: [
            GroundTruthSign(
                frame_index=frame,
                box=sign.box_at(frame),
                code=sign.code,
                associated_data=sign.associated_data,
                temporary=sign.temporary,
            )
            for sign in scenario.signs
            if sign.entry_frame <= frame <= sign.exit_frame
        ]
        for frame in range(scenario.frame_count)
    }


def annotation_frames(frame_count: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Frame 0 plus random steps in [25, 35], competition style."""
    lo, hi = ANNOTATION_STEP_RANGE
    frames = [0]
    while True:
        nxt = frames[-1] + int(rng.integers(lo, hi + 1))
        if nxt >= frame_count:
            break
        frames.append(nxt)
    return tuple(frames)


def dense_annotations(scenario: SyntheticScenario) -> list[FrameAnnotations]:
    """Every frame annotated — the oracle view the competition never had."""
    return [FrameAnnotations(frame, tuple(signs)) for frame, signs in dense_truth(scenario).items()]


def _random_signs(spec: ScenarioSpec, rng: np.random.Generator) -> tuple[SyntheticSign, ...]:
    leaves = Taxonomy.bundled().leaves
    signs = []
    for _ in range(spec.sign_count):
        lo, hi = SIGN_SIZE_RANGE
        width = float(rng.integers(lo, hi + 1))
        height = float(rng.integers(lo, hi + 1))
        x = float(rng.uniform(0.0, spec.width - width))
        y = float(rng.uniform(0.0, spec.height - height))
        vx = float(rng.uniform(-2.0, 2.0))
        vy = float(rng.uniform(-2.0, 2.0))
        entry = int(rng.integers(0, max(1, spec.frame_count - 30)))
        duration = int(rng.integers(30, 121))
        # shrink the lifetime so the box never leaves the frame
        limit = float(duration)
        if vx > 0:
            limit = min(limit, (spec.width - width - x) / vx)
        elif vx < 0:
            limit = min(limit, x / -vx)
        if vy > 0:
            limit = min(limit, (spec.height - height - y) / vy)
        elif vy < 0:
            limit = min(limit, y / -vy)
        exit_frame = min(spec.frame_count - 1, entry + max(0, int(limit)))
        code = leaves[int(rng.integers(0, len(leaves)))]
        data = str(int(rng.choice((20, 40, 60, 80)))) if rng.random() < 0.3 else None
        temporary = bool(rng.random() < 0.15)
        signs.append(
            SyntheticSign(
                code=code,
                entry_frame=entry,
                exit_frame=exit_frame,
                x=x,
                y=y,
                width=width,
                height=height,
                vx=vx,
                vy=vy,
                associated_data=data,
                temporary=temporary,
            )
        )
    return tuple(signs)


def generate_scenario(spec: ScenarioSpec, seed: int) -> GeneratedScenario:
    """Random signs plus competition-style sparse annotations.

    Deterministic for (spec, seed): signs are drawn first, then the
    annotated-frame steps, all from one seeded PCG64 stream.
    """
    rng = _rng(seed)
    signs = _random_signs(spec, rng)
    scenario = SyntheticScenario(
        frame_count=spec.frame_count, width=spec.width, height=spec.height, signs=signs
    )
    frames = annotation_frames(scenario.frame_count, rng)
    dense = dense_truth(scenario)
    return GeneratedScenario(
        scenario=scenario,
        annotations=[FrameAnnotations(frame, tuple(dense[frame])) for frame in frames],
        dense=dense,
    )


# --------------------------------------------------------------------------
# Mock detector


def mock_detector(
    dense: dict[int, list[GroundTruthSign]],
    noise: NoiseModel,
    keyframe_stride: int,
    scenario: SyntheticScenario,
) -> dict[int, list[Detection]]:
    """Degrade dense truth into per-keyframe detections.

    Per sign per keyframe: dropped with ``drop_probability``, otherwise
    the box is shifted by a uniform per-axis jitter and ``class_confusion``
    probability mass moves from the true class to one random taxonomy
    sibling (redrawn each keyframe — this is what makes per-frame argmax
    flicker).  False positives arrive Poisson-distributed at uniform
    positions with uniform leaf classes.
    """
    if keyframe_stride < 1:
        raise ValueError(f"keyframe_stride must be positive, got {keyframe_stride}")
    taxonomy = Taxonomy.bundled()
    leaves = taxonomy.leaves
    rng = _rng(noise.seed)
    out: dict[int, list[Detection]] = {}
    for frame in range(0, scenario.frame_count, keyframe_stride):
        detections: list[Detection] = []
        for sign in dense.get(frame, ()):
            if rng.random() < noise.drop_probability:
                continue
            j = noise.position_jitter_px
            dx = float(rng.uniform(-j, j)) if j > 0 else 0.0
            dy = float(rng.uniform(-j, j)) if j > 0 else 0.0
            box = BoundingBox(
                sign.box.x_min + dx, sign.box.y_min + dy,
                sign.box.x_max + dx, sign.box.y_max + dy,
            )
            dist = {sign.code: 1.0}
            if noise.class_confusion > 0.0:
                siblings = taxonomy.siblings(sign.code)
                if siblings:
                    sibling = siblings[int(rng.integers(0, len(siblings)))]
                    dist = {
                        sign.code: 1.0 - noise.class_confusion,
                        sibling: noise.class_confusion,
                    }
            detections.append(
                Detection(
                    frame_index=frame,
                    box=box,
                    class_distribution=dist,
                    associated_data=sign.associated_data,
                    temporary=sign.temporary,
                )
            )
        for _ in range(int(rng.poisson(noise.fp_per_frame))):
            w = float(rng.uniform(12.0, 60.0))
            h = float(rng.uniform(12.0, 60.0))
            x = float(rng.uniform(0.0, scenario.width - w))
            y = float(rng.uniform(0.0, scenario.height - h))
            code = leaves[int(rng.integers(0, len(leaves)))]
            detections.append(
                Detection(
                    frame_index=frame,
                    box=BoundingBox(x, y, x + w, y + h),
                    class_distribution={code: 1.0},
                )
            )
        out[frame] = detections
    return out


# --------------------------------------------------------------------------
# Benchmark


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the post-processing pipeline under benchmark needs."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig.offline)


@dataclass(frozen=True)
class BenchmarkReport:
    frame_count: int
    raw_score: float
    refined_score: float
    max_attainable: float
    elapsed_seconds: float

    @property
    def frames_per_second(self) -> float:
        return self.frame_count / max(self.elapsed_seconds, 1e-9)

    @property
    def meets_budget(self) -> bool:
        return self.frames_per_second >= BUDGET_FPS


def run_benchmark(
    generated: GeneratedScenario,
    noise: NoiseModel,
    pipeline: PipelineConfig | None = None,
) -> BenchmarkReport:
    """Score raw keyframe detections and the refined pipeline, timing the
    latter: track, densify_linear, refine (default thresholds) and score,
    no image I/O."""
    pipeline = pipeline or PipelineConfig()
    detections = mock_detector(
        generated.dense, noise, pipeline.tracker.keyframe_stride, generated.scenario
    )
    raw_report = score_dataset(detections, generated.annotations, pipeline.scoring)

    start = time.perf_counter()
    tracks = run_tracker(detections, pipeline.tracker)
    refined = refine_tracks([densify_linear(track) for track in tracks], LevelThresholds())
    refined_report = score_dataset(group_by_frame(refined), generated.annotations, pipeline.scoring)
    elapsed = time.perf_counter() - start

    return BenchmarkReport(
        frame_count=generated.scenario.frame_count,
        raw_score=raw_report.total,
        refined_score=refined_report.total,
        max_attainable=max_attainable_score(generated.annotations, pipeline.scoring),
        elapsed_seconds=elapsed,
    )


def format_benchmark(report: BenchmarkReport) -> str:
    lines = [
        f"frames                {report.frame_count}",
        f"raw score             {report.raw_score:.6f}",
        f"refined score         {report.refined_score:.6f}",
        f"max attainable        {report.max_attainable:.6f}",
        f"pipeline seconds      {report.elapsed_seconds:.3f}",
        f"frames per second     {report.frames_per_second:.1f}",
        f"throughput budget     {BUDGET_FPS:.2f} fps "
        f"({'met' if report.meets_budget else 'MISSED'})",
    ]
    return "\n".join(lines) + "\n"


def benchmark_records(report: BenchmarkReport) -> str:
    """Machine-readable key=value dump of a benchmark report."""
    lines = [
        f"{FORMAT_VERSION} bench",
        f"frames={report.frame_count}",
        f"raw_score={report.raw_score:.6f}",
        f"refined_score={report.refined_score:.6f}",
        f"max_attainable={report.max_attainable:.6f}",
        f"elapsed_seconds={report.elapsed_seconds:.6f}",
        f"frames_per_second={report.frames_per_second:.6f}",
        f"budget_fps={BUDGET_FPS:.6f}",
        f"meets_budget={'true' if report.meets_budget else 'false'}",
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Rendering for NCC tests


class SyntheticRenderer:
    """Render scenario frames: flat background, one fixed random texture
    per sign pasted at its (rounded) position.  Indexable by frame, so it
    plugs straight into NCC densification."""

    def __init__(
        self,
        scenario: SyntheticScenario,
        texture_seed: int = 0,
        background: int = 96,
        max_value: int = 255,
        textured: bool = True,
    ):
        self.scenario = scenario
        self.background = background
        self.max_value = max_value
        seqs = np.random.SeedSequence(texture_seed).spawn(len(scenario.signs))
        self._textures: list[np.ndarray] = []
        for sign, seq in zip(scenario.signs, seqs):
            h = max(1, int(round(sign.height)))
            w = max(1, int(round(sign.width)))
            if textured:
                tex = np.random.Generator(np.random.PCG64(seq)).integers(
                    0, max_value + 1, size=(h, w), dtype=np.uint16
                )
                tex = tex.astype(sample_dtype(max_value))
            else:
                tex = np.full((h, w), background, dtype=sample_dtype(max_value))
            self._textures.append(tex)

    def __getitem__(self, frame_index: int) -> GrayImage:
        if not 0 <= frame_index < self.scenario.frame_count:
            raise KeyError(frame_index)
        shape = (self.scenario.height, self.scenario.width)
        canvas = np.full(shape, self.background, dtype=sample_dtype(self.max_value))
        for sign, tex in zip(self.scenario.signs, self._textures):
            if not sign.entry_frame <= frame_index <= sign.exit_frame:
                continue
            x0, y0, _, _ = pixel_rect(sign.box_at(frame_index))
            th, tw = tex.shape
            cx0, cy0 = max(0, x0), max(0, y0)
            cx1 = min(self.scenario.width, x0 + tw)
            cy1 = min(self.scenario.height, y0 + th)
            if cx1 <= cx0 or cy1 <= cy0:
                continue
            canvas[cy0:cy1, cx0:cx1] = tex[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0]
        return GrayImage(samples=canvas, max_value=self.max_value)
