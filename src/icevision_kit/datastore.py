"""On-disk formats for annotations, detections, tracks, manifests, and the
``key = value`` settings files (scenario specs, conversion sidecars).

Record files are whitespace-separated text with a one-line versioned
header (``icevision-kit/v1 <kind>``).  Readers are strict: malformed input
is rejected with the file and line number, never repaired.  Writers are
atomic (unique temp file, then rename) and byte-deterministic, and every
writer's output re-reads to the value that was written: a value that
would re-read as another is a ``ValueError`` and nothing is written.
Two equal detection records on one frame are still written; the reader
rejects them.
"""

from __future__ import annotations

import errno
import io
import numbers
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from .core import (
    BoundingBox,
    Detection,
    Distribution,
    FrameAnnotations,
    GroundTruthSign,
    Source,
)
from .frames import BayerPattern, CfaImage, GrayImage, read_pnm
from .taxonomy import ClassCode, MalformedCode, is_ascii_digits
from .tracking import Track

FORMAT_VERSION = "icevision-kit/v1"


class DatastoreError(ValueError):
    """File-level ingestion failure; message carries file and line."""

    def __init__(self, path, lineno: int | None, message: str):
        location = str(path) if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.lineno = lineno


class MalformedRecord(DatastoreError):
    pass


class InvalidDistribution(DatastoreError):
    pass


def _format_real(value: float) -> str:
    return f"{value:.6f}"


def _format_box(box: BoundingBox) -> str:
    # the bytes of four _format_real calls joined by spaces, in one operation
    return "%.6f %.6f %.6f %.6f" % (box.x_min, box.y_min, box.x_max, box.y_max)


def _parse_real(token: str, path, lineno: int, what: str) -> float:
    try:
        return real_value(token)
    except ValueError:
        raise MalformedRecord(path, lineno, f"{what} is not a number: {token!r}") from None


def _parse_frame(token: str, path, lineno: int) -> int:
    if not is_ascii_digits(token):
        raise MalformedRecord(path, lineno, f"frame index is not a non-negative integer: {token!r}")
    return int(token)


def _parse_box(tokens: list[str], path, lineno: int, plain: bool) -> BoundingBox:
    try:
        coords = [float(t) for t in tokens] if plain else [real_value(t) for t in tokens]
    except ValueError:  # again token by token, to name the bad one
        coords = [_parse_real(t, path, lineno, "box coordinate") for t in tokens]
    try:
        return BoundingBox(*coords)
    except ValueError as exc:
        raise MalformedRecord(path, lineno, f"bad box: {exc}") from None


def _parse_flag(token: str, path, lineno: int) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise MalformedRecord(path, lineno, f"expected true/false, got {token!r}")


def _parse_opt_flag(token: str, path, lineno: int) -> bool | None:
    return None if token == "-" else _parse_flag(token, path, lineno)


def _parse_code(token: str, path, lineno: int) -> ClassCode:
    try:
        return ClassCode.parse(token)
    except MalformedCode as exc:
        raise MalformedRecord(path, lineno, f"bad class code: {exc}") from None


def _parse_distribution(token: str, path, lineno: int) -> Distribution:
    dist: dict[ClassCode, float] = {}
    if ":" not in token:
        return Distribution({_parse_code(token, path, lineno): 1.0})
    for pair in token.split(","):
        code_s, sep, prob_s = pair.partition(":")
        if not sep:
            raise MalformedRecord(path, lineno, f"distribution entry missing ':': {pair!r}")
        code = _parse_code(code_s, path, lineno)
        prob = _parse_real(prob_s, path, lineno, "probability")
        if code in dist:
            raise InvalidDistribution(path, lineno, f"repeated code {code} in distribution")
        dist[code] = prob
    try:
        return Distribution(dist)
    except ValueError as exc:
        raise InvalidDistribution(path, lineno, str(exc)) from None


def _format_distribution(dist: Distribution) -> str:
    items = sorted(dist.items(), key=lambda item: item[0].segments)
    return ",".join(f"{code}:{_format_real(prob)}" for code, prob in items)


def _memo_by_token(parse: Callable[[str, object, int], object]) -> Callable:
    """``parse(token, path, lineno)`` run once per distinct token of one file
    read.  Only results are kept, so a bad token raises on its own line."""
    memo: dict[str, object] = {}

    def cached(token: str, path, lineno: int):
        value = memo.get(token)
        if value is None:
            value = memo[token] = parse(token, path, lineno)
        return value

    return cached


def _memo_by_object(fmt: Callable[[object], str]) -> Callable:
    """``fmt(value)`` run once per distinct object of one file write; each
    entry holds its object, so no other object can take its ``id``."""
    memo: dict[int, tuple[object, str]] = {}

    def cached(value) -> str:
        hit = memo.get(id(value))
        if hit is None:
            hit = memo[id(value)] = (value, fmt(value))
        return hit[1]

    return cached


def _distribution_and_key(token: str, path, lineno: int) -> tuple[Distribution, tuple]:
    """A detection's distribution and its part of the duplicate-record key."""
    dist = _parse_distribution(token, path, lineno)
    return dist, tuple(sorted((c.segments, p) for c, p in dist.items()))


def _opt_text(token: str) -> str | None:
    return None if token == "-" else token


def _text_or_dash(value: str | None) -> str:
    if value is None:
        return "-"
    if value == "-" or value.split() != [value]:  # would re-read as None or as other fields
        raise ValueError(f"text field {value!r} must be non-empty, not '-' and hold no whitespace")
    return value


def _flag_text(value: bool) -> str:
    return "true" if value else "false"


def _sorted_unique(values: list, key: Callable, what: str) -> list:
    """``values`` sorted by ``key``; two with one key would re-read as one
    value, so they are a ``ValueError`` naming the key."""
    ordered = sorted(values, key=key)
    for a, b in zip(ordered, ordered[1:]):
        if key(a) == key(b):
            raise ValueError(f"two {what} {key(a)} would re-read as one")
    return ordered


def read_text(path) -> str:
    """A file's contents as UTF-8 text; undecodable bytes are a
    :class:`MalformedRecord` naming their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(path, lineno, f"not UTF-8 text: {exc.reason}") from None


def _body_lines(path, kind: str) -> Iterator[tuple[int, str]]:
    """(lineno, stripped line) for the non-blank lines of a record file
    after validating its ``icevision-kit/v1 <kind>`` header."""
    # the same universal-newline split as iterating a file opened as text
    lines = io.StringIO(read_text(path), newline=None).readlines()
    if not lines:
        raise MalformedRecord(path, 1, "empty file, expected header")
    if lines[0].split() != [FORMAT_VERSION, kind]:
        raise MalformedRecord(
            path, 1, f"expected header '{FORMAT_VERSION} {kind}', got {lines[0].strip()!r}"
        )
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line:
            yield lineno, line


def _open_records(path, kind: str) -> Iterator[tuple[int, list[str], bool]]:
    """Generator over (lineno, fields, plain) of a record file's data lines;
    ``plain`` lines are ASCII with no ``_``, so ``float`` reads their reals
    as :func:`real_value` does."""
    for lineno, line in _body_lines(path, kind):
        if not line.startswith("#"):
            yield lineno, line.split(), line.isascii() and "_" not in line


def atomic_write_bytes(path, data: bytes | bytearray | memoryview) -> None:
    """Write any bytes-like ``data`` so readers never observe a half-written
    file: a uniquely named temp file beside the target (mode as a plain
    ``open`` gives) is renamed over it, so concurrent writers each land a
    complete file.  On any failure the temp file is removed and the target
    is left as it was; an ``OSError`` names the target, not the temp file."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# --------------------------------------------------------------------------
# Annotations


def read_annotations(path) -> list[FrameAnnotations]:
    """Load ground truth; only frames present in the file are annotated.

    Record: ``frame code x_min y_min x_max y_max data temporary`` with
    data ``-`` when absent.  A line holding just a frame number marks an
    annotated-but-empty frame.
    """
    signs: dict[int, list[GroundTruthSign]] = {}
    seen: set[tuple[int, tuple[float, float, float, float], tuple[int, ...]]] = set()
    for lineno, fields, plain in _open_records(path, "annotations"):
        if len(fields) == 1:
            frame = _parse_frame(fields[0], path, lineno)
            signs.setdefault(frame, [])
            continue
        if len(fields) != 8:
            raise MalformedRecord(
                path, lineno, f"annotation record needs 1 or 8 fields, got {len(fields)}"
            )
        frame = _parse_frame(fields[0], path, lineno)
        code = _parse_code(fields[1], path, lineno)
        box = _parse_box(fields[2:6], path, lineno, plain)
        key = (frame, (box.x_min, box.y_min, box.x_max, box.y_max), code.segments)
        if key in seen:
            raise MalformedRecord(path, lineno, f"duplicate annotation for frame {frame}, {code}")
        seen.add(key)
        signs.setdefault(frame, []).append(
            GroundTruthSign(
                frame_index=frame,
                box=box,
                code=code,
                associated_data=_opt_text(fields[6]),
                temporary=_parse_flag(fields[7], path, lineno),
            )
        )
    return [
        FrameAnnotations(frame_index=frame, signs=tuple(signs[frame]))
        for frame in sorted(signs)
    ]


def write_annotations(annotations: list[FrameAnnotations], path) -> None:
    lines = [f"{FORMAT_VERSION} annotations\n"]
    for ann in _sorted_unique(annotations, lambda a: a.frame_index, "annotations for frame"):
        if not ann.signs:
            lines.append(f"{ann.frame_index}\n")
        for sign in ann.signs:
            lines.append(f"{ann.frame_index} {sign.code} {_format_box(sign.box)} "
                         f"{_text_or_dash(sign.associated_data)} {_flag_text(sign.temporary)}\n")
    atomic_write_text(path, "".join(lines))


# --------------------------------------------------------------------------
# Detections


def read_detections(path) -> dict[int, list[Detection]]:
    """Load detector output grouped by frame.

    Record: ``frame dist x_min y_min x_max y_max [data] [temporary]``
    where dist is ``code:prob[,code:prob...]`` or a bare code meaning
    probability 1.
    """
    out: dict[int, list[Detection]] = {}
    seen: set[tuple] = set()
    distribution = _memo_by_token(_distribution_and_key)
    for lineno, fields, plain in _open_records(path, "detections"):
        if len(fields) not in (6, 7, 8):
            raise MalformedRecord(
                path, lineno, f"detection record needs 6-8 fields, got {len(fields)}"
            )
        frame = _parse_frame(fields[0], path, lineno)
        dist, dist_key = distribution(fields[1], path, lineno)
        box = _parse_box(fields[2:6], path, lineno, plain)
        data = _opt_text(fields[6]) if len(fields) >= 7 else None
        temporary = _parse_opt_flag(fields[7], path, lineno) if len(fields) == 8 else None
        key = (frame, (box.x_min, box.y_min, box.x_max, box.y_max), dist_key, data, temporary)
        if key in seen:
            raise MalformedRecord(path, lineno, f"duplicate detection record on frame {frame}")
        seen.add(key)
        det = Detection(frame_index=frame, box=box, class_distribution=dist,
                        associated_data=data, temporary=temporary)
        out.setdefault(frame, []).append(det)
    return out


def write_detections(detections: dict[int, list[Detection]], path) -> None:
    lines = [f"{FORMAT_VERSION} detections\n"]
    distribution = _memo_by_object(_format_distribution)
    for frame in sorted(detections):
        for det in detections[frame]:
            if det.frame_index != frame:
                raise ValueError(f"detection on frame {det.frame_index} listed under frame {frame}")
            fields = [str(frame), distribution(det.class_distribution), _format_box(det.box)]
            if det.associated_data is not None or det.temporary is not None:
                fields.append(_text_or_dash(det.associated_data))
            if det.temporary is not None:
                fields.append(_flag_text(det.temporary))
            lines.append(" ".join(fields) + "\n")
    atomic_write_text(path, "".join(lines))


# --------------------------------------------------------------------------
# Tracks


_SOURCE_TEXT = {Source.DETECTED: "detected", Source.INTERPOLATED: "interpolated"}
_TEXT_SOURCE = {v: k for k, v in _SOURCE_TEXT.items()}
_NCC_FLAGS = ("ncc_degenerate", "template_clipped")


def _entry_flags(entry: Detection) -> str:
    if not (entry.ncc_degenerate or entry.template_clipped):
        return "-"
    return ",".join(flag for flag in _NCC_FLAGS if getattr(entry, flag))


def read_tracks(path) -> list[Track]:
    """Load tracks in id order.

    Record: ``track_id frame source x_min y_min x_max y_max dist data
    temporary flags`` (11 fields); flags is a comma list over
    {ncc_degenerate, template_clipped} or ``-``.  Every track needs at
    least one ``detected`` entry.
    """
    entries: dict[int, list[Detection]] = {}
    first_lines: dict[int, int] = {}
    distribution = _memo_by_token(_parse_distribution)
    for lineno, fields, plain in _open_records(path, "tracks"):
        if len(fields) != 11:
            raise MalformedRecord(path, lineno, f"track record needs 11 fields, got {len(fields)}")
        if not is_ascii_digits(fields[0]):
            raise MalformedRecord(path, lineno, f"track id is not a non-negative integer: {fields[0]!r}")
        track_id = int(fields[0])
        frame = _parse_frame(fields[1], path, lineno)
        if fields[2] not in _TEXT_SOURCE:
            raise MalformedRecord(path, lineno, f"unknown source {fields[2]!r}")
        box = _parse_box(fields[3:7], path, lineno, plain)
        dist = distribution(fields[7], path, lineno)
        temporary = _parse_opt_flag(fields[9], path, lineno)
        flags_field = fields[10]
        flags = set() if flags_field == "-" else set(flags_field.split(","))
        unknown = flags - set(_NCC_FLAGS)
        if unknown:
            raise MalformedRecord(path, lineno, f"unknown flags {sorted(unknown)}")
        entry = Detection(
            frame_index=frame,
            box=box,
            class_distribution=dist,
            associated_data=_opt_text(fields[8]),
            temporary=temporary,
            source=_TEXT_SOURCE[fields[2]],
            ncc_degenerate="ncc_degenerate" in flags,
            template_clipped="template_clipped" in flags,
        )
        earlier = entries.setdefault(track_id, [])
        if earlier and frame <= earlier[-1].frame_index:
            raise MalformedRecord(path, lineno, f"track {track_id} frame indices not strictly "
                                  f"increasing ({earlier[-1].frame_index} -> {frame})")
        earlier.append(entry)
        first_lines.setdefault(track_id, lineno)
    tracks = []
    for track_id in sorted(entries):
        try:
            tracks.append(Track(id=track_id, entries=entries[track_id]))
        except ValueError as exc:
            raise MalformedRecord(path, first_lines[track_id], str(exc)) from None
    return tracks


def write_tracks(tracks: list[Track], path) -> None:
    lines = [f"{FORMAT_VERSION} tracks\n"]
    distribution = _memo_by_object(_format_distribution)
    for track in _sorted_unique(tracks, lambda t: t.id, "tracks with id"):
        for entry in track.entries:
            temporary = "-" if entry.temporary is None else _flag_text(entry.temporary)
            lines.append(
                f"{track.id} {entry.frame_index} {_SOURCE_TEXT[entry.source]} "
                f"{_format_box(entry.box)} {distribution(entry.class_distribution)} "
                f"{_text_or_dash(entry.associated_data)} {temporary} {_entry_flags(entry)}\n"
            )
    atomic_write_text(path, "".join(lines))


# --------------------------------------------------------------------------
# Sequence manifests


@dataclass(frozen=True)
class SequenceManifest:
    """Binds a sequence's frame indices to image files on disk."""

    sequence_id: str
    frames: tuple[tuple[int, str], ...]
    annotation_paths: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple((_frame_number(i), str(p)) for i, p in self.frames))
        object.__setattr__(self, "annotation_paths", tuple(self.annotation_paths))
        if not self.sequence_id:
            raise ValueError("sequence id must be non-empty")
        last = None
        for index, frame_path in self.frames:
            if last is not None and index <= last:
                raise ValueError(f"frame indices not strictly increasing at {index}")
            if not frame_path:
                raise ValueError(f"empty path for frame {index}")
            last = index
        if any(not p for p in self.annotation_paths):
            raise ValueError("empty annotation path")


def _frame_number(index) -> int:
    if not isinstance(index, numbers.Integral) or index < 0:
        raise ValueError(f"frame index must be a non-negative integer, got {index!r}")
    return int(index)


def read_manifest(path) -> SequenceManifest:
    """Parse ``frame_index<TAB>path`` lines plus ``# sequence:`` and
    ``# annotation:`` directives."""
    sequence_id = None
    frames: list[tuple[int, str]] = []
    annotation_paths: list[str] = []
    for lineno, line in _body_lines(path, "manifest"):
        if line.startswith("#"):
            name, sep, value = line[1:].strip().partition(":")
            if not sep or name not in ("sequence", "annotation"):
                continue  # a comment
            value = value.strip()
            if not value:
                raise MalformedRecord(path, lineno, f"empty '# {name}:' directive")
            if name == "annotation":
                annotation_paths.append(value)
            elif sequence_id is not None:
                raise MalformedRecord(path, lineno, "repeated '# sequence:' directive")
            else:
                sequence_id = value
            continue
        index_s, sep, frame_path = line.partition("\t")
        if not sep:
            raise MalformedRecord(path, lineno, "expected frame_index<TAB>path")
        index = _parse_frame(index_s.strip(), path, lineno)
        if frames and index <= frames[-1][0]:
            raise MalformedRecord(path, lineno, f"frame indices not strictly increasing at {index}")
        frames.append((index, frame_path.strip()))
    if sequence_id is None:
        raise MalformedRecord(path, None, "missing '# sequence: <id>' directive")
    # every rule SequenceManifest checks is checked above at its line
    return SequenceManifest(sequence_id, tuple(frames), tuple(annotation_paths))


def _line_text(value: str) -> str:
    # a manifest line re-reads split at "\n" and "\r" and stripped
    if value != value.strip() or "\n" in value or "\r" in value:
        raise ValueError(f"manifest value {value!r} must hold no line break "
                         "and no leading or trailing whitespace")
    return value


def format_manifest(manifest: SequenceManifest) -> str:
    """The manifest file's text; ``ValueError`` on a value it would not re-read."""
    lines = [f"{FORMAT_VERSION} manifest\n", f"# sequence: {_line_text(manifest.sequence_id)}\n"]
    for ann_path in manifest.annotation_paths:
        lines.append(f"# annotation: {_line_text(ann_path)}\n")
    for index, frame_path in manifest.frames:
        lines.append(f"{index}\t{_line_text(frame_path)}\n")
    return "".join(lines)


def write_manifest(manifest: SequenceManifest, path) -> None:
    atomic_write_text(path, format_manifest(manifest))


class ManifestFrameSource:
    """Frame loader indexed by frame number, for NCC interpolation.

    Each access reads and decodes the frame's PGM; nothing is cached.
    Every frame must have the size of the first one decoded.
    With a ``pattern`` the frame stays the decoded mosaic
    (:class:`CfaImage`), validated over the whole frame like any other;
    readers take the gray signal of just the windows they need with
    :func:`frames.gray_window`.
    """

    def __init__(
        self,
        manifest: SequenceManifest,
        root: str | os.PathLike = ".",
        pattern: BayerPattern | None = None,
    ):
        self._paths = {index: frame_path for index, frame_path in manifest.frames}
        self._root = Path(root)
        self._pattern = pattern
        self._first: tuple[int, int, Path] | None = None  # width, height, path

    def __getitem__(self, frame_index: int) -> GrayImage | CfaImage:
        path = self._root / self._paths[frame_index]
        try:
            image = read_pnm(path.read_bytes(), self._pattern)
        except ValueError as exc:
            raise DatastoreError(path, None, str(exc)) from None
        if self._first is None:
            self._first = (image.width, image.height, path)
        elif (image.width, image.height) != self._first[:2]:
            width, height, first = self._first
            raise DatastoreError(path, None, f"frame is {image.width}x{image.height}, "
                                 f"but {first} is {width}x{height}")
        return image


# --------------------------------------------------------------------------
# key = value settings files


def parse_key_values(text: str, path, readers: dict[str, Callable[[str], object]]) -> dict:
    """Parse ``key = value`` lines (``#`` starts a comment) with one reader
    per allowed key.  An unknown or repeated key, a line without ``=``, or
    a value its reader rejects (ValueError, KeyError) is a
    :class:`MalformedRecord` naming ``path`` and the line."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise MalformedRecord(path, lineno, f"expected key = value, got {line!r}")
        if key not in readers:
            raise MalformedRecord(path, lineno, f"unknown key {key!r}")
        if key in values:
            raise MalformedRecord(path, lineno, f"repeated key {key!r}")
        try:
            values[key] = readers[key](value)
        except (ValueError, KeyError):
            raise MalformedRecord(path, lineno, f"bad value for {key}: {value!r}") from None
    return values


def decimal_value(text: str, least: int = 0) -> int:
    """An integer setting of at least ``least``, in ASCII decimal digits
    (``int`` would also read "٣٠", "3_20" and "+7")."""
    if not (is_ascii_digits(text) and int(text) >= least):
        raise ValueError(f"expected a decimal integer >= {least}, got {text!r}")
    return int(text)


def real_value(text: str) -> float:
    """A real in ASCII with no ``_`` (``float`` also reads "٠.٥" and "0.5_0")."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected an ASCII decimal number, got {text!r}")
    return float(text)


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


@dataclass(frozen=True)
class SidecarConfig:
    """Per-sequence conversion settings the PNM header cannot carry."""

    pattern: BayerPattern = BayerPattern.RGGB
    equalize: bool = False
    crop_keep: int | None = None


def parse_sidecar(text: str, path="<sidecar>") -> SidecarConfig:
    """Parse a sidecar file (keys: pattern, equalize, crop_keep)."""
    readers = {"pattern": lambda v: BayerPattern(v.upper()),
               "equalize": lambda v: _BOOLEANS[v.lower()],
               "crop_keep": lambda v: decimal_value(v, least=1)}
    return SidecarConfig(**parse_key_values(text, path, readers))
