"""Reference implementations of track refinement and threshold tuning.

The library summarizes all tracks in one array pass and scores each
distinct selection of taxonomy levels once; the versions here summarize
and refine track by track with dicts, pooling lazily, and score every
threshold triple from scratch.  They serve as differential-test oracles
only.
"""

from __future__ import annotations

import itertools

from icevision_kit.core import Detection, best_class, group_by_frame
from icevision_kit.refinement import LevelThresholds, vote_associated_data
from icevision_kit.scoring import score_dataset


def average_track_distribution(track):
    """Arithmetic mean of the detected entries' distributions.

    Interpolated entries are copies of a neighboring keyframe and would
    double-weight it, so only detector output participates.  A code absent
    from an entry counts as probability 0 for that entry.
    """
    detected = track.detected_entries()
    if not detected:
        raise ValueError(f"track {track.id} has no detected entries to average")
    totals = {}
    for entry in detected:
        for code, prob in entry.class_distribution.items():
            totals[code] = totals.get(code, 0.0) + prob
    n = len(detected)
    return {code: total / n for code, total in totals.items()}


def pool_to_level(dist, level):
    pooled = {}
    for code, prob in dist.items():
        key = code.prefix(min(code.level, level))
        pooled[key] = pooled.get(key, 0.0) + prob
    return pooled


def hierarchical_select(dist, thr):
    if not dist:
        return None
    for pooled, threshold in (
        (dist, thr.thr_specific),
        (pool_to_level(dist, 2), thr.thr_level2),
        (pool_to_level(dist, 1), thr.thr_top),
    ):
        code, prob = best_class(pooled)
        if prob >= threshold:
            return code, prob
    return None


def _majority(values):
    counts = {}
    for v in values:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    return max(counts, key=counts.get) if counts else None


def summarize(track):
    """(best code per level, its probability per level, associated-data
    vote, temporary vote), levels specific first: the track's averaged
    dict, pooled code by code in the dict's order."""
    dist = average_track_distribution(track)
    bests = [best_class(pooled) for pooled in (dist, pool_to_level(dist, 2), pool_to_level(dist, 1))]
    codes, probs = zip(*bests)
    return codes, probs, vote_associated_data(track), _majority([e.temporary for e in track.entries])


def level_probs(track):
    """The track's best probability at the specific, 2nd and top level."""
    return list(summarize(track)[1])


def refine_tracks(tracks, thr):
    detections = []
    for track in tracks:
        selection = hierarchical_select(average_track_distribution(track), thr)
        if selection is None:
            continue
        code, prob = selection
        prob = min(prob, 1.0)
        data = vote_associated_data(track)
        temporary = _majority([e.temporary for e in track.entries])
        for entry in track.entries:
            detections.append(
                Detection(
                    frame_index=entry.frame_index,
                    box=entry.box,
                    class_distribution={code: prob},
                    associated_data=data,
                    temporary=temporary,
                    source=entry.source,
                )
            )
    detections.sort(key=lambda d: d.frame_index)
    return detections


def grid_search_thresholds(tracks, annotations, grid, cfg):
    """Every triple refined and scored from scratch; the first maximal
    triple in sorted order wins."""
    best_thr, best_score = None, float("-inf")
    for triple in itertools.product(*(sorted(values) for values in grid)):
        thr = LevelThresholds(*triple)
        score = score_dataset(group_by_frame(refine_tracks(tracks, thr)), annotations, cfg).total
        if score > best_score:
            best_thr, best_score = thr, score
    return best_thr, best_score
