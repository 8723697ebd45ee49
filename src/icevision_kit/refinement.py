"""Track refinement: average per-track class probabilities, pick one class
with hierarchical fallback, and stamp it on every entry of the track.

Per-frame classifications flicker; averaging over a whole track and then
assigning the winner track-wide trades those flickers for one consistent
label.  When no specific class clears its threshold, probability mass is
pooled upward (3.24.x -> 3.24 -> 3) and re-tested with per-level
thresholds, which a grid search tunes against a validation set.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Iterator

import numpy as np

from .core import Detection, Distribution, FrameAnnotations, group_by_frame
from .datastore import real_value
from .scoring import ScoringConfig, dataset_total, match_frame, score_dataset, scored_frames
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


def _majority(values: list):
    """Most frequent non-None value, None when there is none; ties go to
    the value seen earliest."""
    present = [v for v in values if v is not None]
    return Counter(present).most_common(1)[0][0] if present else None


def vote_associated_data(track: Track) -> str | None:
    """Majority vote over entries carrying associated data; ties go to the
    value seen earliest in the track."""
    return _majority([e.associated_data for e in track.entries])


def _best_per_track(pairs: np.ndarray, values: np.ndarray, width: int, count: int):
    """Each track's highest value and its column among the rows ``(track *
    width + column, value)``; ties go to the smaller column."""
    rows, cols = np.divmod(pairs, width)
    order = np.lexsort((cols, -values, rows))
    first = order[np.searchsorted(rows[order], np.arange(count))]
    return cols[first], values[first]


def _summarize(tracks: list[Track]) -> tuple[list[tuple[ClassCode, ...]], np.ndarray, list, list]:
    """Per track: the most probable code at the specific, 2nd and top level,
    the (tracks x 3) array of their probabilities, and the associated-data
    and temporary votes.

    A track's distribution is the mean over its detected entries (an
    interpolated entry copies a keyframe and would double-weight it), a
    code absent from an entry counting as 0.  One walk over all tracks'
    entries collects a (track, code, probability) row per distribution
    item of a detected entry.  A mean adds its rows in entry order and a
    pool adds the means in the order the track first saw each code, the
    order of a dict built entry by entry, so every value has the bits of
    a per-track dict mean pooled code by code.
    """
    dists: list[Distribution] = []
    counts: list[int] = []
    for track in tracks:
        detected = track.detected_entries()
        counts.append(len(detected))
        dists += [entry.class_distribution for entry in detected]
    rows = np.repeat(np.repeat(np.arange(len(tracks)), counts), [len(d) for d in dists])
    items = [code for dist in dists for code in dist]
    values = [prob for dist in dists for prob in dist.values()]
    # items grouped by code object first, so each distinct object is hashed once
    _, seen, which = np.unique(np.fromiter(map(id, items), np.uintp, len(items)),
                               return_index=True, return_inverse=True)
    leaves = [items[k] for k in seen.tolist()]
    # a column per code and per ancestor it pools to, numbered in canonical
    # order, so the smaller column wins a tie as in core.best_class
    code_of = sorted(set(leaves).union(code.prefix(min(code.level, level))
                                       for code in leaves for level in (2, 1)),
                     key=lambda code: code.segments)
    number = {code.segments: k for k, code in enumerate(code_of)}
    # each column's ancestor column at level 2 and at level 1
    up = np.array([[number[code.segments[:level]] for level in (2, 1)] for code in code_of],
                  dtype=np.intp).reshape(-1, 2)
    width = len(code_of)
    cols = np.array([number[code.segments] for code in leaves], dtype=np.intp)[which]
    pairs, first, inverse = np.unique(rows * width + cols, return_index=True, return_inverse=True)
    # bincount adds in input order: entry order within each (track, code)
    means = np.bincount(inverse, weights=values) / np.array(counts, dtype=float)[pairs // width]
    order = np.argsort(first, kind="stable")  # each track's codes in first-appearance order
    pairs, means = pairs[order], means[order]
    bests = [_best_per_track(pairs, means, width, len(tracks))]
    for ancestor in up.T:
        pooled, inverse = np.unique(pairs - pairs % width + ancestor[pairs % width],
                                    return_inverse=True)
        pooled_means = np.bincount(inverse, weights=means)
        bests.append(_best_per_track(pooled, pooled_means, width, len(tracks)))
    best_cols, probs = (np.stack(level_bests, axis=1) for level_bests in zip(*bests))
    codes = [(code_of[a], code_of[b], code_of[c]) for a, b, c in best_cols.tolist()]
    temporary = [_majority([e.temporary for e in track.entries]) for track in tracks]
    return codes, probs, [vote_associated_data(track) for track in tracks], temporary


def _assign(entries: list[Detection], code: ClassCode, prob: float,
            associated_data: str | None, temporary: bool | None) -> list[Detection]:
    """One detection per entry, carrying ``code`` at probability ``prob``."""
    # pooled sibling mass is mathematically <= 1; shave float carry
    prob = min(prob, 1.0)
    dist = Distribution({code: prob})  # one per track: checked and formatted once
    return [Detection(entry.frame_index, entry.box, dist, associated_data, temporary,
                      entry.source) for entry in entries]


_NO_LEVEL = 3  # a track no level accepts


def refine_tracks(tracks: list[Track], thr: LevelThresholds) -> list[Detection]:
    """Run the average/select/assign pipeline over densified tracks.

    Each surviving track contributes one detection per entry, all carrying
    the selected class with the (possibly pooled) probability as
    confidence.  Tracks failing every threshold emit nothing — with a flat
    false-positive penalty, low-confidence boxes are a losing bet.
    """
    codes, probs, data, temporary = _summarize(tracks)
    # the first level, most specific first, whose probability reaches its threshold
    accepted = probs >= np.array(astuple(thr))
    levels = np.where(accepted.any(axis=1), accepted.argmax(axis=1), _NO_LEVEL).tolist()
    detections: list[Detection] = []
    for i, (level, values) in enumerate(zip(levels, probs.tolist())):
        if level != _NO_LEVEL:
            detections += _assign(tracks[i].entries, codes[i][level], values[level],
                                  data[i], temporary[i])
    detections.sort(key=lambda d: d.frame_index)
    return detections


def _selections(ranks: np.ndarray, runs: list) -> Iterator[tuple[tuple, np.ndarray]]:
    """(value triple, each track's accepted level) for every key triple of
    ``runs``, in lexicographic order."""
    tops = [np.where(ranks[:, 2] >= kc, 2, _NO_LEVEL).astype(np.uint8) for kc, _ in runs[2]]
    for ka, a in runs[0]:
        specific = ranks[:, 0] >= ka
        for kb, b in runs[1]:
            upper = np.where(specific, 0, np.where(ranks[:, 1] >= kb, 1, _NO_LEVEL))
            undecided, upper = upper == _NO_LEVEL, upper.astype(np.uint8)
            for (_, c), top in zip(runs[2], tops):
                yield (a, b, c), np.where(undecided, top, upper)


def grid_search_thresholds(
    validation_tracks: list[Track],
    annotations: list[FrameAnnotations],
    grid: tuple[list[float], list[float], list[float]],
    scoring_cfg: ScoringConfig,
) -> tuple[LevelThresholds, float]:
    """Score every threshold triple on a validation set.

    Returns the best triple and its score; ties prefer the lexicographically
    smallest (thr_specific, thr_level2, thr_top).  A threshold maps to the
    count of distinct track probabilities at its level below it, and two
    triples with equal counts select the same levels for every track, so
    each distinct selection is scored once.  An annotated frame is matched
    once per distinct levels of the tracks on it, and a new selection
    rescores only the frames of the tracks whose level changed.  The
    winning score is recomputed from scratch at the end and must match, so
    caching bugs cannot leak in.
    """
    if not all(grid):
        raise ValueError("every grid dimension needs at least one candidate value")
    for name, values in zip(("thr_specific", "thr_level2", "thr_top"), grid):
        for value in values:
            LevelThresholds(**{name: value})
    codes, probs, data, temporary = _summarize(validation_tracks)
    # a threshold's rank: the count of distinct track probabilities below it
    cuts = [np.unique(probs[:, level]) for level in range(3)]
    ranks = np.stack([np.searchsorted(c, probs[:, level]) for level, c in enumerate(cuts)], axis=1)
    # (count, first sorted value with that count) per level, in ascending order:
    # the first maximal count triple then names the first maximal value triple
    runs = [
        sorted({int(np.searchsorted(c, v)): v for v in reversed(sorted(values))}.items())
        for c, values in zip(cuts, grid)
    ]
    frames = scored_frames(annotations)
    position = {a.frame_index: j for j, a in enumerate(frames)}
    members: list[list[tuple[int, Detection]]] = [[] for _ in frames]
    frames_of: list[list[int]] = [[] for _ in validation_tracks]
    for i, track in enumerate(validation_tracks):
        for entry in track.entries:
            if entry.frame_index in position:
                members[position[entry.frame_index]].append((i, entry))
                frames_of[i].append(position[entry.frame_index])
    on_frame = [np.array([i for i, _ in m], dtype=np.intp) for m in members]
    values = probs.tolist()  # Python floats reach the detections and the score

    @functools.cache
    def frame_score(j: int, levels: bytes) -> tuple[float, int]:
        # refine_tracks order: the frame's tracks in input order
        detections = [_assign([entry], codes[i][level], values[i][level], data[i], temporary[i])[0]
                      for (i, entry), level in zip(members[j], levels) if level != _NO_LEVEL]
        result = match_frame(detections, frames[j], scoring_cfg)
        return result.tp_points, len(result.false_positives)

    # a frame without detections scores nothing; no track starts at a level
    results, scored = [(0.0, 0)] * len(frames), np.full(len(codes), 4, dtype=np.uint8)
    scores: dict[bytes, float] = {}
    best_triple, best_score = (), float("-inf")
    for triple, selection in _selections(ranks, runs):
        key = selection.tobytes()
        if key not in scores:
            changed = np.flatnonzero(selection != scored).tolist()
            for j in {j for i in changed for j in frames_of[i]}:
                results[j] = frame_score(j, selection[on_frame[j]].tobytes())
            scored = selection
            scores[key] = dataset_total(results, scoring_cfg)[0]
        if scores[key] > best_score:
            best_triple, best_score = triple, scores[key]
    best_thr = LevelThresholds(*best_triple)
    fresh = refine_tracks(validation_tracks, best_thr)
    check = score_dataset(group_by_frame(fresh), annotations, scoring_cfg).total
    if check != best_score:
        raise RuntimeError(f"grid search scored {best_thr} as {best_score}, refined afresh {check}")
    return best_thr, best_score


def format_thresholds(thr: LevelThresholds) -> str:
    """Serialize as the 3-field config record used by the CLI."""
    return f"{thr.thr_specific:.6f} {thr.thr_level2:.6f} {thr.thr_top:.6f}\n"


def parse_thresholds(text: str) -> LevelThresholds:
    fields = text.split()
    if len(fields) != 3:
        raise ValueError(f"threshold record needs 3 fields, got {len(fields)}")
    return LevelThresholds(*(real_value(f) for f in fields))
