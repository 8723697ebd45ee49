"""Oracles for ``core``: the distribution check exactly as
``Detection.__post_init__`` ran it for every detection built, before the
check moved into the distribution type and ran once per distribution; the
box check exactly as ``BoundingBox.__post_init__`` ran it, before one
chained comparison passed the good boxes; and the greedy assignment taken
one best free candidate at a time."""

from __future__ import annotations

import math

from icevision_kit.taxonomy import ClassCode

PROB_SUM_SLACK = 1e-9


def check_distribution(dist) -> None:
    """Raise what a detection with ``dist`` raised; return None otherwise."""
    if not dist:
        raise ValueError("class distribution must not be empty")
    total = 0.0
    for code, prob in dist.items():
        if not isinstance(code, ClassCode):
            raise TypeError(f"distribution keys must be ClassCode, got {code!r}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability for {code} out of [0, 1]: {prob}")
        total += prob
    if total > 1.0 + PROB_SUM_SLACK:
        raise ValueError(f"distribution probabilities sum to {total} > 1")


def check_box(x0, y0, x1, y1) -> None:
    """Raise what a box with these coordinates raised; return None otherwise."""
    isfinite = math.isfinite
    if not (isfinite(x0) and isfinite(y0) and isfinite(x1) and isfinite(y1)):
        raise ValueError(f"box coordinates must be finite, got {(x0, y0, x1, y1)}")
    if x0 > x1 or y0 > y1:
        raise ValueError(f"box min corner must not exceed max corner, got {(x0, y0, x1, y1)}")


def greedy_match(candidates) -> dict:
    """``{a: (b, overlap)}`` built by repeatedly taking the best remaining
    ``(overlap, a, b)`` candidate (largest overlap, then smaller ``a``,
    then smaller ``b``) whose ``a`` and ``b`` are both still free."""
    matched: dict = {}
    while True:
        taken = {b for b, _ in matched.values()}
        free = [c for c in candidates if c[1] not in matched and c[2] not in taken]
        if not free:
            return matched
        overlap, a, b = max(free, key=lambda c: (c[0], -c[1], -c[2]))
        matched[a] = (b, overlap)
