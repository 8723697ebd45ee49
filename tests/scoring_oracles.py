"""Oracle for ``scoring``: the eager tally ``score_dataset`` kept before a
report's totals and per-class table were derived from its frames, one
frozen ``ClassScore`` rebuilt per event and every sum taken left to
right."""

from __future__ import annotations

import dataclasses

from icevision_kit.scoring import ClassScore

FP_PENALTY = 2.0


def tally(frames) -> tuple[float, float, int, dict]:
    """``(total, tp_points, fp_count, per_class)`` of a report's match
    results: each frame's points added left to right, then the frames."""
    per_class: dict = {}

    def bump(code, **delta) -> None:
        current = per_class.get(code, ClassScore(0, 0.0, 0, 0))
        per_class[code] = dataclasses.replace(
            current, **{k: getattr(current, k) + v for k, v in delta.items()}
        )

    tp_points, fp_count = 0.0, 0
    for result in frames:
        frame_points = 0.0
        for tp in result.true_positives:
            frame_points += tp.score
            bump(tp.ground_truth.code, tp_count=1, tp_points=tp.score)
        for gt in result.missed:
            bump(gt.code, missed=1)
        for fp in result.false_positives:
            bump(fp.detection.code, fp_count=1)
        tp_points += frame_points
        fp_count += len(result.false_positives)
    return tp_points - FP_PENALTY * fp_count, tp_points, fp_count, per_class
