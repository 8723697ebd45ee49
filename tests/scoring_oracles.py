"""Oracles for ``scoring``: the eager tally ``score_dataset`` kept before a
report's totals and per-class table were derived from its frames, one
frozen ``ClassScore`` rebuilt per event and every sum taken left to
right; and the score ceiling as the k formula it was written as before
it became the score of each sign's perfect detection."""

from __future__ import annotations

import dataclasses

from icevision_kit.core import area
from icevision_kit.scoring import ClassScore, Stage

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


def max_attainable_score(annotations, cfg) -> float:
    """Per sign at least ``cfg.min_area_px`` in area, added left to right:
    1 online; offline, ``1 + k1 + k2 + k3`` clamped at 0, each k the best
    its rule offers (a sign without associated data cannot be matched on
    it)."""
    total = 0.0
    for ann in annotations:
        for sign in ann.signs:
            if area(sign.box) < cfg.min_area_px:
                continue
            if cfg.stage is Stage.ONLINE:
                total += 1.0
                continue
            k1 = max(cfg.k1_exact, cfg.k1_superclass)
            if sign.associated_data is None:
                k2 = max(cfg.k2_absent, cfg.k2_mismatch)
            else:
                k2 = max(cfg.k2_match, cfg.k2_absent, cfg.k2_mismatch)
            k3 = max(cfg.k3_match, cfg.k3_absent, cfg.k3_mismatch)
            total += max(0.0, 1.0 + k1 + k2 + k3)
    return total
