"""Reference record-file codec for annotations, detections and tracks.

The library parses and formats each distinct distribution once per file,
formats a box in one operation, and reads records column by column; the
versions here format every coordinate on its own and parse every line
afresh, as the codec first did.  ``read_detections`` and ``read_tracks``
read valid files only; ``read_annotations_by_line``,
``read_detections_by_line`` and ``read_tracks_by_line`` are strict
readers that check and build one record per line, fields left to right,
and name the ``file:line`` and message of the first bad record.  They
state their own rules for optional text, flags, boxes, sources and NCC
flags, so a difference from the library shows a fault in one of two
statements of a rule.  All serve as differential-test oracles.
"""

from __future__ import annotations

import functools
from pathlib import Path

from icevision_kit.core import BoundingBox, Detection, FrameAnnotations, GroundTruthSign, Source
from icevision_kit.datastore import (
    FORMAT_VERSION,
    DatastoreError,
    _parse_distribution,
    _record_lines,
    parse_index,
    real_value,
)
from icevision_kit.taxonomy import ClassCode
from icevision_kit.tracking import Track


def format_real(value: float) -> str:
    return f"{value:.6f}"


def format_box(box: BoundingBox) -> tuple[str, str, str, str]:
    return (
        format_real(box.x_min), format_real(box.y_min),
        format_real(box.x_max), format_real(box.y_max),
    )


def format_distribution(dist) -> str:
    items = sorted(dist.items(), key=lambda item: item[0].segments)
    return ",".join(f"{code}:{format_real(prob)}" for code, prob in items)


def _flag_text(value: bool | None) -> str:
    return "-" if value is None else ("true" if value else "false")


def write_detections(detections: dict[int, list[Detection]], path) -> None:
    lines = [f"{FORMAT_VERSION} detections\n"]
    for frame in sorted(detections):
        for det in detections[frame]:
            fields = [str(frame), format_distribution(det.class_distribution), *format_box(det.box)]
            if det.associated_data is not None or det.temporary is not None:
                fields.append("-" if det.associated_data is None else det.associated_data)
            if det.temporary is not None:
                fields.append(_flag_text(det.temporary))
            lines.append(" ".join(fields) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_tracks(tracks: list[Track], path) -> None:
    lines = [f"{FORMAT_VERSION} tracks\n"]
    for track in sorted(tracks, key=lambda t: t.id):
        for entry in track.entries:
            flags = [f for f in ("ncc_degenerate", "template_clipped") if getattr(entry, f)]
            fields = (
                str(track.id), str(entry.frame_index), entry.source.value,
                *format_box(entry.box), format_distribution(entry.class_distribution),
                "-" if entry.associated_data is None else entry.associated_data,
                _flag_text(entry.temporary), ",".join(flags) or "-",
            )
            lines.append(" ".join(fields) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def parse_distribution(token: str) -> dict[ClassCode, float]:
    if ":" not in token:
        return {ClassCode.parse(token): 1.0}
    pairs = (pair.split(":") for pair in token.split(","))
    return {ClassCode.parse(code): float(prob) for code, prob in pairs}


def _records(path, kind: str):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"{FORMAT_VERSION} {kind}"
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() and not line.startswith("#"):
            yield lineno, line.split()


def read_detections(path) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    for _, fields in _records(path, "detections"):
        frame = int(fields[0])
        out.setdefault(frame, []).append(
            Detection(
                frame_index=frame,
                box=BoundingBox(*(float(t) for t in fields[2:6])),
                class_distribution=parse_distribution(fields[1]),
                associated_data=opt_text(fields[6]) if len(fields) >= 7 else None,
                temporary=opt_flag(fields[7]) if len(fields) == 8 else None,
            )
        )
    return out


def read_tracks(path) -> list[Track]:
    entries: dict[int, list[Detection]] = {}
    for _, fields in _records(path, "tracks"):
        flags = fields[10].split(",")
        entries.setdefault(int(fields[0]), []).append(
            Detection(
                frame_index=int(fields[1]),
                box=BoundingBox(*(float(t) for t in fields[3:7])),
                class_distribution=parse_distribution(fields[7]),
                associated_data=opt_text(fields[8]),
                temporary=opt_flag(fields[9]),
                source=Source(fields[2]),
                ncc_degenerate="ncc_degenerate" in flags,
                template_clipped="template_clipped" in flags,
            )
        )
    return [Track(id=track_id, entries=entries[track_id]) for track_id in sorted(entries)]


def _open_records(path, kind: str):
    """(lineno, fields) of a record file's data lines."""
    for lineno, line in enumerate(_record_lines(path, kind)[1:], start=2):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def opt_text(token: str) -> str | None:
    return None if token == "-" else token


def flag(token: str) -> bool:
    if token not in ("true", "false"):
        raise ValueError(f"expected true/false, got {token!r}")
    return token == "true"


def opt_flag(token: str) -> bool | None:
    return None if token == "-" else flag(token)


def parse_box(tokens: list[str]) -> BoundingBox:
    coords = []
    for token in tokens:
        try:
            coords.append(real_value(token))
        except ValueError:
            raise ValueError(f"box coordinate is not a number: {token!r}") from None
    try:
        return BoundingBox(*coords)
    except ValueError as exc:
        raise ValueError(f"bad box: {exc}") from None


def parse_code(token: str) -> ClassCode:
    try:
        return ClassCode.parse(token)
    except ValueError as exc:
        raise ValueError(f"bad class code: {exc}") from None


SOURCES = {"detected": Source.DETECTED, "interpolated": Source.INTERPOLATED}
NCC_FLAGS = {"ncc_degenerate", "template_clipped"}


def read_annotations_by_line(path) -> list[FrameAnnotations]:
    signs: dict[int, list[GroundTruthSign]] = {}
    seen = set()
    for lineno, fields in _open_records(path, "annotations"):
        try:
            if len(fields) == 1:
                signs.setdefault(parse_index(fields[0], "frame index"), [])
                continue
            if len(fields) != 8:
                raise ValueError(f"annotation record needs 1 or 8 fields, got {len(fields)}")
            frame = parse_index(fields[0], "frame index")
            code = parse_code(fields[1])
            box = parse_box(fields[2:6])
            key = (frame, (box.x_min, box.y_min, box.x_max, box.y_max), code.segments)
            if key in seen:
                raise ValueError(f"duplicate annotation for frame {frame}, {code}")
            seen.add(key)
            sign = GroundTruthSign(frame_index=frame, box=box, code=code,
                                   associated_data=opt_text(fields[6]), temporary=flag(fields[7]))
        except ValueError as exc:
            raise DatastoreError(path, lineno, str(exc)) from None
        signs.setdefault(frame, []).append(sign)
    return [FrameAnnotations(frame_index=frame, signs=tuple(signs[frame])) for frame in sorted(signs)]


def read_detections_by_line(path) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    distribution = functools.cache(_parse_distribution)  # a bad token fails on each line
    for lineno, fields in _open_records(path, "detections"):
        try:
            if len(fields) not in (6, 7, 8):
                raise ValueError(f"detection record needs 6-8 fields, got {len(fields)}")
            det = Detection(
                frame_index=parse_index(fields[0], "frame index"),
                class_distribution=distribution(fields[1]),
                box=parse_box(fields[2:6]),
                associated_data=opt_text(fields[6]) if len(fields) >= 7 else None,
                temporary=opt_flag(fields[7]) if len(fields) == 8 else None,
            )
        except ValueError as exc:
            raise DatastoreError(path, lineno, str(exc)) from None
        out.setdefault(det.frame_index, []).append(det)
    return out


def read_tracks_by_line(path) -> list[Track]:
    entries: dict[int, list[Detection]] = {}
    first_lines: dict[int, int] = {}
    distribution = functools.cache(_parse_distribution)  # a bad token fails on each line
    for lineno, fields in _open_records(path, "tracks"):
        try:
            if len(fields) != 11:
                raise ValueError(f"track record needs 11 fields, got {len(fields)}")
            track_id = parse_index(fields[0], "track id")
            frame = parse_index(fields[1], "frame index")
            if fields[2] not in SOURCES:
                raise ValueError(f"unknown source {fields[2]!r}")
            box = parse_box(fields[3:7])
            dist = distribution(fields[7])
            temporary = opt_flag(fields[9])
            flags = set() if fields[10] == "-" else set(fields[10].split(","))
            unknown = flags - NCC_FLAGS
            if unknown:
                raise ValueError(f"unknown flags {sorted(unknown)}")
            earlier = entries.setdefault(track_id, [])
            if earlier and frame <= earlier[-1].frame_index:
                raise ValueError(f"track {track_id} frame indices not strictly "
                                 f"increasing ({earlier[-1].frame_index} -> {frame})")
        except ValueError as exc:
            raise DatastoreError(path, lineno, str(exc)) from None
        earlier.append(Detection(
            frame_index=frame,
            box=box,
            class_distribution=dist,
            associated_data=opt_text(fields[8]),
            temporary=temporary,
            source=SOURCES[fields[2]],
            ncc_degenerate="ncc_degenerate" in flags,
            template_clipped="template_clipped" in flags,
        ))
        first_lines.setdefault(track_id, lineno)
    tracks = []
    for track_id in sorted(entries):
        try:
            tracks.append(Track(id=track_id, entries=entries[track_id]))
        except ValueError as exc:
            raise DatastoreError(path, first_lines[track_id], str(exc)) from None
    return tracks
