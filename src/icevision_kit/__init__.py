"""icevision-kit: competition-exact traffic-sign scoring plus the
non-neural post-processing that won with it — IoU tracking, track
refinement with hierarchical class fallback, keyframe interpolation
(linear and NCC), raw Bayer frame ingestion, and a synthetic benchmark
harness.
"""

from .core import (
    BoundingBox,
    ClassDistribution,
    Detection,
    FrameAnnotations,
    GroundTruthSign,
    Source,
    area,
    best_class,
    iou,
    lerp_box,
)
from .refinement import (
    LevelThresholds,
    grid_search_thresholds,
    refine_tracks,
)
from .scoring import (
    KCoefficients,
    MatchResult,
    ScoreReport,
    ScoringConfig,
    Stage,
    match_frame,
    score_dataset,
    tp_base_score,
)
from .taxonomy import ClassCode, Taxonomy, parse_code
from .tracking import (
    Track,
    TrackerConfig,
    densify_linear,
    densify_ncc,
    run_tracker,
    tracks_to_detections,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ClassCode",
    "ClassDistribution",
    "Detection",
    "FrameAnnotations",
    "GroundTruthSign",
    "KCoefficients",
    "LevelThresholds",
    "MatchResult",
    "ScoreReport",
    "ScoringConfig",
    "Source",
    "Stage",
    "Taxonomy",
    "Track",
    "TrackerConfig",
    "area",
    "best_class",
    "densify_linear",
    "densify_ncc",
    "grid_search_thresholds",
    "iou",
    "lerp_box",
    "match_frame",
    "parse_code",
    "refine_tracks",
    "run_tracker",
    "score_dataset",
    "tp_base_score",
    "tracks_to_detections",
]
