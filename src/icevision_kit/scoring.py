"""The competition scoring metric: matching, per-detection points, penalties.

Two stages share one engine.  Online: IoU >= 0.5, exact class required,
base score ((IoU - 0.5)/0.35)^0.25, capped at 1 above IoU 0.85.  Offline:
IoU >= 0.3, superclass codes accepted, base score ((IoU - 0.3)/0.55)^0.25
multiplied by (1 + k1 + k2 + k3) with the k terms configured per rule and
the multiplier clamped below at zero.  Every false positive costs a flat
penalty (2 points) and ground-truth boxes under 100 px^2 are
ignore zones: detections landing on them earn and cost nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .core import Detection, FrameAnnotations, GroundTruthSign, area, greedy_match, iou
from .taxonomy import ClassCode


class Stage(enum.Enum):
    ONLINE = "online"
    OFFLINE = "offline"


_STAGE_IOU_THRESHOLD = {Stage.ONLINE: 0.5, Stage.OFFLINE: 0.3}


@dataclass(frozen=True)
class KCoefficients:
    """Offline-stage score adjustments for class, associated data, temporary.

    Defaults are placeholders, not competition values: the engine treats
    them purely as configuration.
    """

    k1_exact: float = 0.3
    k1_superclass: float = 0.0
    k2_match: float = 0.4
    k2_mismatch: float = -0.5
    k2_absent: float = 0.0
    k3_match: float = 0.3
    k3_mismatch: float = -0.5
    k3_absent: float = 0.0


@dataclass(frozen=True)
class ScoringConfig:
    """A stage and the k table that only the offline stage applies.  The
    other rules are the competition's constants (see the module
    docstring); ``iou_threshold`` follows the stage."""

    stage: Stage
    k_rules: KCoefficients = KCoefficients()

    full_score_iou = 0.85
    formula_exponent = 0.25
    fp_penalty = 2.0
    min_area_px = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "iou_threshold", _STAGE_IOU_THRESHOLD[self.stage])

    @classmethod
    def online(cls) -> ScoringConfig:
        return cls(Stage.ONLINE)

    @classmethod
    def offline(cls, k_rules: KCoefficients = KCoefficients()) -> ScoringConfig:
        return cls(Stage.OFFLINE, k_rules)


class FpReason(enum.Enum):
    UNMATCHED = "unmatched"
    DUPLICATE = "duplicate"
    WRONG_CLASS = "wrong_class"


@dataclass(frozen=True)
class TruePositive:
    detection: Detection
    ground_truth: GroundTruthSign
    iou: float
    score: float


@dataclass(frozen=True)
class FalsePositive:
    detection: Detection
    reason: FpReason


@dataclass(frozen=True)
class MatchResult:
    """Per-frame matching outcome.

    ``true_positives``, ``false_positives`` and ``ignored`` partition the
    frame's detections; true-positive ground truths plus ``missed``
    partition its signs (ignore-zone signs count as neither scored nor
    penalized, but appear in ``missed`` when unmatched).
    """

    frame_index: int
    true_positives: tuple[TruePositive, ...]
    false_positives: tuple[FalsePositive, ...]
    ignored: tuple[Detection, ...]
    missed: tuple[GroundTruthSign, ...]

    @property
    def tp_points(self) -> float:
        # left to right: from Python 3.12 on, sum() of floats is compensated
        total = 0.0
        for tp in self.true_positives:
            total += tp.score
        return total


def tp_base_score(value: float, cfg: ScoringConfig) -> float:
    """Base score in [0, 1] for a matched detection with the given IoU."""
    low, full = cfg.iou_threshold, cfg.full_score_iou
    if value < low:
        raise ValueError(f"IoU {value} below matching threshold {low}")
    if value > full:
        return 1.0
    return ((value - low) / (full - low)) ** cfg.formula_exponent


def _class_acceptable(pred: ClassCode, gt: ClassCode, cfg: ScoringConfig) -> bool:
    if pred == gt:
        return True
    return cfg.stage is Stage.OFFLINE and pred.is_superclass_of(gt)


def _text_matches(a: str, b: str) -> bool:
    # associated data is compared after trimming and case-folding
    return a.strip().casefold() == b.strip().casefold()


def k_multiplier(det: Detection, gt: GroundTruthSign, cfg: ScoringConfig) -> float:
    """The (1 + k1 + k2 + k3) factor, clamped below at 0.

    The online stage always returns 1, whatever k table it holds.  The
    detection's class must already be an exact or superclass match for
    the sign.
    """
    pred = det.code
    if not _class_acceptable(pred, gt.code, cfg):
        raise ValueError(f"detection class {pred} does not match ground truth {gt.code}")
    if cfg.stage is Stage.ONLINE:
        return 1.0
    k = cfg.k_rules
    k1 = k.k1_exact if pred == gt.code else k.k1_superclass
    if det.associated_data is None:
        k2 = k.k2_absent
    elif gt.associated_data is not None and _text_matches(det.associated_data, gt.associated_data):
        k2 = k.k2_match
    else:
        k2 = k.k2_mismatch
    if det.temporary is None:
        k3 = k.k3_absent
    elif det.temporary == gt.temporary:
        k3 = k.k3_match
    else:
        k3 = k.k3_mismatch
    return max(0.0, 1.0 + k1 + k2 + k3)


def match_frame(
    detections: list[Detection], annotations: FrameAnnotations, cfg: ScoringConfig
) -> MatchResult:
    """Greedily match one frame's detections against its ground truth.

    Candidate (detection, sign) pairs need IoU >= threshold and an
    acceptable class; :func:`core.greedy_match` takes them, ties to the
    earlier detection and then the earlier sign.  A leftover detection
    whose best overlap lies on an ignore-zone sign (area below the minimum)
    is ignored; a leftover that was itself a candidate lost its signs to
    better detections and is the duplicate rule's false positive.
    """
    for det in detections:
        if det.frame_index != annotations.frame_index:
            raise ValueError(
                f"detection on frame {det.frame_index} scored against frame "
                f"{annotations.frame_index}"
            )
    signs = annotations.signs
    threshold, min_area = cfg.iou_threshold, cfg.min_area_px
    scoreable = [area(gt.box) >= min_area for gt in signs]

    candidates = []
    for d_idx, det in enumerate(detections):
        pred = det.code
        for g_idx, gt in enumerate(signs):
            if not scoreable[g_idx]:
                continue
            if not _class_acceptable(pred, gt.code, cfg):
                continue
            overlap = iou(det.box, gt.box)
            if overlap >= threshold:
                candidates.append((overlap, d_idx, g_idx))
    det_match = greedy_match(candidates)
    gt_match = {g_idx for g_idx, _ in det_match.values()}
    had_candidate = {d_idx for _, d_idx, _ in candidates}

    true_positives = []
    for d_idx, (g_idx, overlap) in sorted(det_match.items()):
        det, gt = detections[d_idx], signs[g_idx]
        score = tp_base_score(overlap, cfg) * k_multiplier(det, gt, cfg)
        true_positives.append(TruePositive(det, gt, overlap, score))

    false_positives = []
    ignored = []
    for d_idx, det in enumerate(detections):
        if d_idx in det_match:
            continue
        best_ignored = 0.0
        best_scoreable = 0.0
        for g_idx, gt in enumerate(signs):
            overlap = iou(det.box, gt.box)
            if scoreable[g_idx]:
                best_scoreable = max(best_scoreable, overlap)
            else:
                best_ignored = max(best_ignored, overlap)
        if best_ignored >= threshold and best_ignored >= best_scoreable:
            ignored.append(det)
        elif d_idx in had_candidate:
            false_positives.append(FalsePositive(det, FpReason.DUPLICATE))
        elif best_scoreable >= threshold:
            false_positives.append(FalsePositive(det, FpReason.WRONG_CLASS))
        else:
            false_positives.append(FalsePositive(det, FpReason.UNMATCHED))

    missed = tuple(gt for g_idx, gt in enumerate(signs) if g_idx not in gt_match)
    return MatchResult(
        frame_index=annotations.frame_index,
        true_positives=tuple(true_positives),
        false_positives=tuple(false_positives),
        ignored=tuple(ignored),
        missed=missed,
    )


@dataclass(frozen=True)
class FrameScore:
    frame_index: int
    tp_points: float
    fp_count: int
    ignored: int
    missed: int


@dataclass(frozen=True)
class ClassScore:
    tp_count: int = 0
    tp_points: float = 0.0
    missed: int = 0
    fp_count: int = 0


@dataclass(frozen=True)
class ScoreReport:
    """Dataset-level totals with per-frame and per-class breakdowns.

    ``total`` is exactly ``tp_points - fp_penalty * fp_count``.
    """

    total: float
    tp_points: float
    fp_count: int
    fp_penalty: float
    frames: tuple[FrameScore, ...] = field(default_factory=tuple)
    per_class: dict[ClassCode, ClassScore] = field(default_factory=dict)


def scored_frames(annotations: list[FrameAnnotations]) -> list[FrameAnnotations]:
    """The frames a score reads, every listed frame, in frame order.  A
    frame given twice is an error."""
    seen: set[int] = set()
    for anno in annotations:
        if anno.frame_index in seen:
            raise ValueError(f"duplicate annotations for frame {anno.frame_index}")
        seen.add(anno.frame_index)
    return sorted(annotations, key=lambda a: a.frame_index)


def score_dataset(
    detections: dict[int, list[Detection]],
    annotations: list[FrameAnnotations],
    cfg: ScoringConfig,
) -> ScoreReport:
    """Score a detection set against sparse annotations.

    Only listed frames contribute; detections on any other frame are
    silently discarded, per the sparse-annotation rule.
    """
    frames = []
    tp_points = 0.0
    fp_count = 0
    per_class: dict[ClassCode, ClassScore] = {}

    def bump(code: ClassCode, **delta) -> None:
        current = per_class.get(code, ClassScore())
        per_class[code] = replace(
            current, **{k: getattr(current, k) + v for k, v in delta.items()}
        )

    for anno in scored_frames(annotations):
        result = match_frame(detections.get(anno.frame_index, []), anno, cfg)
        frame_tp = result.tp_points
        tp_points += frame_tp
        fp_count += len(result.false_positives)
        frames.append(
            FrameScore(
                frame_index=anno.frame_index,
                tp_points=frame_tp,
                fp_count=len(result.false_positives),
                ignored=len(result.ignored),
                missed=len(result.missed),
            )
        )
        for tp in result.true_positives:
            bump(tp.ground_truth.code, tp_count=1, tp_points=tp.score)
        for gt in result.missed:
            bump(gt.code, missed=1)
        for fp in result.false_positives:
            bump(fp.detection.code, fp_count=1)

    return ScoreReport(
        total=tp_points - cfg.fp_penalty * fp_count,
        tp_points=tp_points,
        fp_count=fp_count,
        fp_penalty=cfg.fp_penalty,
        frames=tuple(frames),
        per_class=per_class,
    )


def format_report(report: ScoreReport) -> str:
    """Human-readable summary table for a score report."""
    lines = [
        f"{'frame':>8}  {'tp_points':>10}  {'fp':>4}  {'ignored':>7}  {'missed':>6}",
    ]
    for fs in report.frames:
        lines.append(
            f"{fs.frame_index:>8}  {fs.tp_points:>10.6f}  {fs.fp_count:>4}"
            f"  {fs.ignored:>7}  {fs.missed:>6}"
        )
    lines.append("")
    if report.per_class:
        lines.append(f"{'class':>8}  {'tp':>4}  {'tp_points':>10}  {'missed':>6}  {'fp':>4}")
        for code in sorted(report.per_class):
            cs = report.per_class[code]
            lines.append(
                f"{str(code):>8}  {cs.tp_count:>4}  {cs.tp_points:>10.6f}"
                f"  {cs.missed:>6}  {cs.fp_count:>4}"
            )
        lines.append("")
    lines.append(
        f"tp_points {report.tp_points:.6f}  false_positives {report.fp_count}"
        f"  penalty {report.fp_penalty:.6f}"
    )
    lines.append(f"total {report.total:.6f}")
    return "\n".join(lines)


def report_records(report: ScoreReport) -> str:
    """Machine-readable per-frame records (one line per annotated frame)."""
    lines = ["icevision-kit/v1 score"]
    for fs in report.frames:
        lines.append(
            f"{fs.frame_index} {fs.tp_points:.6f} {fs.fp_count} {fs.ignored} {fs.missed}"
        )
    lines.append(f"# total {report.total:.6f}")
    return "\n".join(lines) + "\n"
