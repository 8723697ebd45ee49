"""The competition scoring metric: matching, per-detection points, penalties.

Two stages share one engine.  Online: IoU >= 0.5, exact class required,
base score ((IoU - 0.5)/0.35)^0.25, capped at 1 above IoU 0.85.  Offline:
IoU >= 0.3, superclass codes accepted, base score ((IoU - 0.3)/0.55)^0.25
multiplied by (1 + k1 + k2 + k3), clamped below at zero, for class,
associated data and temporary flag.  Every false positive costs a flat
penalty (2 points) and ground-truth boxes under 100 px^2 are
ignore zones: detections landing on them earn and cost nothing.  Each
rule is a :class:`ScoringConfig` constant; only the stage is chosen.
"""

from __future__ import annotations

import collections
import enum
import functools
from dataclasses import dataclass

from .core import Detection, FrameAnnotations, GroundTruthSign, area, greedy_match, iou
from .datastore import FORMAT_VERSION
from .taxonomy import ClassCode


class Stage(enum.Enum):
    ONLINE = "online"
    OFFLINE = "offline"


@dataclass(frozen=True)
class ScoringConfig:
    """A stage.  The other rules are the competition's constants (see the
    module docstring); ``iou_threshold`` follows the stage, and only the
    offline stage applies the k terms, whose values are placeholders."""

    stage: Stage

    full_score_iou = 0.85
    formula_exponent = 0.25
    fp_penalty = 2.0
    min_area_px = 100.0
    # k1 by class, k2 by associated data, k3 by temporary flag
    k1_exact = 0.3
    k1_superclass = 0.0
    k2_match = 0.4
    k2_mismatch = -0.5
    k2_absent = 0.0
    k3_match = 0.3
    k3_mismatch = -0.5
    k3_absent = 0.0

    @property
    def iou_threshold(self) -> float:
        return 0.5 if self.stage is Stage.ONLINE else 0.3

    @classmethod
    def online(cls) -> ScoringConfig:
        return cls(Stage.ONLINE)

    @classmethod
    def offline(cls) -> ScoringConfig:
        return cls(Stage.OFFLINE)


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

    The online stage always returns 1.  The detection's class must
    already be an exact or superclass match for the sign.
    """
    pred = det.code
    if not _class_acceptable(pred, gt.code, cfg):
        raise ValueError(f"detection class {pred} does not match ground truth {gt.code}")
    if cfg.stage is Stage.ONLINE:
        return 1.0
    k1 = cfg.k1_exact if pred == gt.code else cfg.k1_superclass
    if det.associated_data is None:
        k2 = cfg.k2_absent
    elif gt.associated_data is not None and _text_matches(det.associated_data, gt.associated_data):
        k2 = cfg.k2_match
    else:
        k2 = cfg.k2_mismatch
    if det.temporary is None:
        k3 = cfg.k3_absent
    elif det.temporary == gt.temporary:
        k3 = cfg.k3_match
    else:
        k3 = cfg.k3_mismatch
    return max(0.0, 1.0 + k1 + k2 + k3)


def max_attainable_score(annotations: list[FrameAnnotations], cfg: ScoringConfig) -> float:
    """Upper bound on the dataset score: per sign outside the ignore zones,
    the score of its own perfect detection (its box, class, associated data
    and temporary flag), added left to right."""
    total = 0.0
    for anno in annotations:
        for gt in anno.signs:
            if area(gt.box) >= cfg.min_area_px:
                perfect = Detection(gt.frame_index, gt.box, {gt.code: 1.0}, gt.associated_data,
                                    gt.temporary)
                total += tp_base_score(1.0, cfg) * k_multiplier(perfect, gt, cfg)
    return total


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
    overlaps = [[iou(det.box, gt.box) for gt in signs] for det in detections]

    candidates = [
        (overlap, d_idx, g_idx)
        for d_idx, (det, row) in enumerate(zip(detections, overlaps))
        for g_idx, (gt, overlap) in enumerate(zip(signs, row))
        if scoreable[g_idx] and overlap >= threshold and _class_acceptable(det.code, gt.code, cfg)
    ]
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
    for d_idx, (det, row) in enumerate(zip(detections, overlaps)):
        if d_idx in det_match:
            continue
        best_ignored = max((o for o, s in zip(row, scoreable) if not s), default=0.0)
        best_scoreable = max((o for o, s in zip(row, scoreable) if s), default=0.0)
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
class ClassScore:
    tp_count: int
    tp_points: float
    missed: int
    fp_count: int


@dataclass(frozen=True)
class ScoreReport:
    """Each scored frame's :class:`MatchResult`, in frame order.  The
    totals and the per-class table are derived from them, once per report.

    ``total`` is exactly ``tp_points - ScoringConfig.fp_penalty * fp_count``.
    """

    frames: tuple[MatchResult, ...]

    @functools.cached_property
    def _totals(self) -> tuple[float, float, int]:
        return dataset_total((f.tp_points, len(f.false_positives)) for f in self.frames)

    @property
    def total(self) -> float:
        return self._totals[0]

    @property
    def tp_points(self) -> float:
        return self._totals[1]

    @property
    def fp_count(self) -> int:
        return self._totals[2]

    @functools.cached_property
    def per_class(self) -> dict[ClassCode, ClassScore]:
        """TP count and points by sign class, misses by sign class, false
        positives by detected class."""
        rows = collections.defaultdict(lambda: [0, 0.0, 0, 0])  # as ClassScore's fields
        for result in self.frames:
            for tp in result.true_positives:
                row = rows[tp.ground_truth.code]
                row[0] += 1
                row[1] += tp.score
            for gt in result.missed:
                rows[gt.code][2] += 1
            for fp in result.false_positives:
                rows[fp.detection.code][3] += 1
        return {code: ClassScore(*row) for code, row in rows.items()}


def scored_frames(annotations: list[FrameAnnotations]) -> list[FrameAnnotations]:
    """The frames a score reads, every listed frame, in frame order.  A
    frame given twice is an error."""
    seen: set[int] = set()
    for anno in annotations:
        if anno.frame_index in seen:
            raise ValueError(f"duplicate annotations for frame {anno.frame_index}")
        seen.add(anno.frame_index)
    return sorted(annotations, key=lambda a: a.frame_index)


def dataset_total(frame_totals) -> tuple[float, float, int]:
    """``(total, tp_points, fp_count)`` of per-frame ``(tp_points,
    fp_count)`` pairs, added left to right, less the flat penalty per
    false positive."""
    tp_points, fp_count = 0.0, 0
    for points, count in frame_totals:
        tp_points += points
        fp_count += count
    return tp_points - ScoringConfig.fp_penalty * fp_count, tp_points, fp_count


def score_dataset(
    detections: dict[int, list[Detection]],
    annotations: list[FrameAnnotations],
    cfg: ScoringConfig,
) -> ScoreReport:
    """Score a detection set against sparse annotations.

    Only listed frames contribute; detections on any other frame are
    silently discarded, per the sparse-annotation rule.
    """
    return ScoreReport(tuple(
        match_frame(detections.get(anno.frame_index, []), anno, cfg)
        for anno in scored_frames(annotations)
    ))


def format_report(report: ScoreReport) -> str:
    """Human-readable summary table for a score report."""
    lines = [
        f"{'frame':>8}  {'tp_points':>10}  {'fp':>4}  {'ignored':>7}  {'missed':>6}",
    ]
    for fs in report.frames:
        lines.append(
            f"{fs.frame_index:>8}  {fs.tp_points:>10.6f}  {len(fs.false_positives):>4}"
            f"  {len(fs.ignored):>7}  {len(fs.missed):>6}"
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
        f"  penalty {ScoringConfig.fp_penalty:.6f}"
    )
    lines.append(f"total {report.total:.6f}")
    return "\n".join(lines)


def report_records(report: ScoreReport) -> str:
    """Machine-readable per-frame records (one line per annotated frame)."""
    lines = [f"{FORMAT_VERSION} score"]
    for fs in report.frames:
        lines.append(f"{fs.frame_index} {fs.tp_points:.6f} {len(fs.false_positives)}"
                     f" {len(fs.ignored)} {len(fs.missed)}")
    lines.append(f"# total {report.total:.6f}")
    return "\n".join(lines) + "\n"
