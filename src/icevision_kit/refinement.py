"""Track refinement: average per-track class probabilities, pick one class
with hierarchical fallback, and stamp it on every entry of the track.

Per-frame classifications flicker; averaging over a whole track and then
assigning the winner track-wide trades those flickers for one consistent
label.  When no specific class clears its threshold, probability mass is
pooled upward (3.24.x -> 3.24 -> 3) and re-tested with per-level
thresholds, which a grid search tunes against a validation set.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .core import ClassDistribution, Detection, FrameAnnotations, best_class, group_by_frame
from .scoring import ScoringConfig, score_dataset
from .taxonomy import ClassCode
from .tracking import Track


@dataclass(frozen=True)
class LevelThresholds:
    """Acceptance threshold per taxonomy level, most specific first."""

    thr_specific: float = 0.5
    thr_level2: float = 0.5
    thr_top: float = 0.5

    def __post_init__(self) -> None:
        for name in ("thr_specific", "thr_level2", "thr_top"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def average_track_distribution(track: Track) -> ClassDistribution:
    """Arithmetic mean of the detected entries' distributions.

    Interpolated entries are copies of a neighboring keyframe and would
    double-weight it, so only detector output participates.  A code absent
    from an entry counts as probability 0 for that entry.
    """
    detected = track.detected_entries()
    if not detected:
        raise ValueError(f"track {track.id} has no detected entries to average")
    totals: dict[ClassCode, float] = {}
    for entry in detected:
        for code, prob in entry.class_distribution.items():
            totals[code] = totals.get(code, 0.0) + prob
    n = len(detected)
    return {code: total / n for code, total in totals.items()}


def _pool_to_level(dist: ClassDistribution, level: int) -> ClassDistribution:
    """Sum probability mass by each code's ancestor at ``level`` (codes
    already at or above that level pool to themselves)."""
    pooled: dict[ClassCode, float] = {}
    for code, prob in dist.items():
        key = code.prefix(min(code.level, level))
        pooled[key] = pooled.get(key, 0.0) + prob
    return pooled


def hierarchical_select(
    dist: ClassDistribution, thr: LevelThresholds
) -> tuple[ClassCode, float] | None:
    """Pick a class, falling back to coarser taxonomy levels.

    The most probable specific code wins if it reaches ``thr_specific``;
    otherwise mass is summed per 2nd-level category and tested against
    ``thr_level2``, then per top-level category against ``thr_top``.
    Thresholds are inclusive.  Ties favor the canonically first code.
    Returns None when every level fails.
    """
    if not dist:
        return None
    for pooled, threshold in (
        (dist, thr.thr_specific),
        (_pool_to_level(dist, 2), thr.thr_level2),
        (_pool_to_level(dist, 1), thr.thr_top),
    ):
        code, prob = best_class(pooled)
        if prob >= threshold:
            return code, prob
    return None


def _majority(values: list):
    """Most frequent non-None value, None when there is none; ties go to
    the value seen earliest."""
    present = [v for v in values if v is not None]
    return Counter(present).most_common(1)[0][0] if present else None


def vote_associated_data(track: Track) -> str | None:
    """Majority vote over entries carrying associated data; ties go to the
    value seen earliest in the track."""
    return _majority([e.associated_data for e in track.entries])


def refine_tracks(tracks: list[Track], thr: LevelThresholds) -> list[Detection]:
    """Run the average/select/assign pipeline over densified tracks.

    Each surviving track contributes one detection per entry, all carrying
    the selected class with the (possibly pooled) probability as
    confidence.  Tracks failing every threshold emit nothing — with a flat
    false-positive penalty, low-confidence boxes are a losing bet.
    """
    detections: list[Detection] = []
    for track in tracks:
        selection = hierarchical_select(average_track_distribution(track), thr)
        if selection is None:
            continue
        code, prob = selection
        # pooled sibling mass is mathematically <= 1; shave float carry
        prob = min(prob, 1.0)
        data = vote_associated_data(track)
        temporary = _majority([e.temporary for e in track.entries])
        for entry in track.entries:
            detections.append(
                Detection(
                    frame_index=entry.frame_index,
                    box=entry.box,
                    class_distribution={code: prob},
                    confidence=prob,
                    associated_data=data,
                    temporary=temporary,
                    source=entry.source,
                )
            )
    detections.sort(key=lambda d: d.frame_index)
    return detections


def grid_search_thresholds(
    validation_tracks: list[Track],
    annotations: list[FrameAnnotations],
    grid: tuple[list[float], list[float], list[float]],
    scoring_cfg: ScoringConfig,
) -> tuple[LevelThresholds, float]:
    """Exhaustively score every threshold triple on a validation set.

    Returns the best triple and its score; ties prefer the lexicographically
    smallest (thr_specific, thr_level2, thr_top).  The winning score is
    recomputed from scratch at the end so caching bugs cannot leak in.
    """
    specific_grid, level2_grid, top_grid = grid
    if not specific_grid or not level2_grid or not top_grid:
        raise ValueError("every grid dimension needs at least one candidate value")

    def evaluate(thr: LevelThresholds) -> float:
        refined = refine_tracks(validation_tracks, thr)
        report = score_dataset(group_by_frame(refined), annotations, scoring_cfg)
        return report.total

    best_thr: LevelThresholds | None = None
    best_score = float("-inf")
    for a, b, c in itertools.product(
        sorted(specific_grid), sorted(level2_grid), sorted(top_grid)
    ):
        thr = LevelThresholds(a, b, c)
        score = evaluate(thr)
        if score > best_score:
            best_thr, best_score = thr, score
    assert best_thr is not None
    return best_thr, evaluate(best_thr)


def format_thresholds(thr: LevelThresholds) -> str:
    """Serialize as the 3-field config record used by the CLI."""
    return f"{thr.thr_specific:.6f} {thr.thr_level2:.6f} {thr.thr_top:.6f}\n"


def parse_thresholds(text: str) -> LevelThresholds:
    fields = text.split()
    if len(fields) != 3:
        raise ValueError(f"threshold record needs 3 fields, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ValueError(f"non-numeric threshold in {text!r}") from None
    return LevelThresholds(*values)
