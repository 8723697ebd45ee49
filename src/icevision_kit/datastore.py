"""On-disk formats for annotations, detections, tracks, manifests, and the
``key = value`` scenario specs.

Record files are whitespace-separated text with a one-line versioned
header (``icevision-kit/v1 <kind>``).  Readers are strict: malformed input
is rejected, never repaired; the token parsers raise plain ``ValueError``,
and a reader reports it as the error of the file and line it came from.
Each record field has one rule, a token parser.  The detections and
tracks readers run each rule over a whole column, in field order, and
report the first bad record's leftmost bad field after at most one
re-read per check (see :func:`_read_records`).
Writers are atomic (unique temp file, then rename) and byte-deterministic.
Reals are written with six decimals; every other field re-reads to the
value that was written: a value that would re-read as another is a
``ValueError`` and nothing is written.
Equal detection records on one frame read as separate detections, which
the scorer charges as duplicates.
"""

from __future__ import annotations

import errno
import functools
import io
import itertools
import operator
import os
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .core import (
    BoundingBox,
    Detection,
    Distribution,
    FrameAnnotations,
    GroundTruthSign,
    Source,
    group_by_frame,
    index_value,
)
from .frames import BayerPattern, CfaImage, GrayImage, read_pnm
from .taxonomy import ClassCode, is_ascii_digits
from .tracking import Track

FORMAT_VERSION = "icevision-kit/v1"


class DatastoreError(ValueError):
    """A bad input file: the message starts with ``file:line`` (``file``
    when no line is at fault).  The package's one exception class; a bad
    value elsewhere is a plain ``ValueError``."""

    def __init__(self, path, lineno: int | None, message: str):
        location = str(path) if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _format_real(value: float) -> str:
    return f"{value:.6f}"


def _format_box(box: BoundingBox) -> str:
    # the bytes of four _format_real calls joined by spaces, in one operation
    return "%.6f %.6f %.6f %.6f" % (box.x_min, box.y_min, box.x_max, box.y_max)


def _parse_real(token: str, what: str) -> float:
    try:
        return real_value(token)
    except ValueError:
        raise ValueError(f"{what} is not a number: {token!r}") from None


def parse_index(token: str, what: str = "value") -> int:
    """A non-negative integer in ASCII decimal digits (``int`` would also
    read "٣٠", "3_20" and "+7")."""
    if not is_ascii_digits(token):
        raise ValueError(f"{what} is not a non-negative integer: {token!r}")
    return int(token)


_coordinate = functools.partial(_parse_real, what="box coordinate")
_frame_index = functools.partial(parse_index, what="frame index")


def _box(x_min: float, y_min: float, x_max: float, y_max: float) -> BoundingBox:
    try:
        return BoundingBox(x_min, y_min, x_max, y_max)
    except ValueError as exc:
        raise ValueError(f"bad box: {exc}") from None


def _parse_flag(token: str) -> bool:
    if token != "true" and token != "false":
        raise ValueError(f"expected true/false, got {token!r}")
    return token == "true"


def _parse_opt_flag(token: str) -> bool | None:
    return None if token == "-" else _parse_flag(token)


def _parse_code(token: str) -> ClassCode:
    try:
        return ClassCode.parse(token)
    except ValueError as exc:
        raise ValueError(f"bad class code: {exc}") from None


def _parse_distribution(token: str) -> Distribution:
    dist: dict[ClassCode, float] = {}
    if ":" not in token:
        return Distribution({_parse_code(token): 1.0})
    for pair in token.split(","):
        code_s, sep, prob_s = pair.partition(":")
        if not sep:
            raise ValueError(f"distribution entry missing ':': {pair!r}")
        code = _parse_code(code_s)
        prob = _parse_real(prob_s, "probability")
        if code in dist:
            raise ValueError(f"repeated code {code} in distribution")
        dist[code] = prob
    return Distribution(dist)


def _format_distribution(dist: Distribution) -> str:
    items = sorted(dist.items(), key=lambda item: item[0].segments)
    return ",".join(f"{code}:{_format_real(prob)}" for code, prob in items)


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


_DASH_NONE = {"-": None}  # _DASH_NONE.get(token, token): optional text, "-" when absent
_OPT_FLAGS = {"-": None, "true": True, "false": False}  # what _parse_opt_flag reads
_opt_flags = functools.partial(map, _OPT_FLAGS.__getitem__)


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
    :class:`DatastoreError` naming their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes split lines at \r\n, \r and \n, as _record_lines does; the bad byte ends no line
        lineno = len(data[: exc.start + 1].splitlines())
        raise DatastoreError(path, lineno, f"not UTF-8 text: {exc.reason}") from None


def _record_lines(path, kind: str) -> list[str]:
    """A record file's lines after validating its ``icevision-kit/v1 <kind>``
    header (line 1)."""
    # the same universal-newline split as iterating a file opened as text
    lines = io.StringIO(read_text(path), newline=None).readlines()
    if not lines:
        raise DatastoreError(path, 1, "empty file, expected header")
    if lines[0].split() != [FORMAT_VERSION, kind]:
        raise DatastoreError(
            path, 1, f"expected header '{FORMAT_VERSION} {kind}', got {lines[0].strip()!r}"
        )
    return lines


def _read_records(path, kind: str, read: Callable[[list[list[str]]], object]):
    """(line numbers, ``read(rows)``) for the fields of a record file's
    data lines (neither blank nor a ``#`` comment).  ``read`` fails with
    ``ValueError(message, i)``, ``i`` the first record its failing check
    rejects; the records before ``i`` are then read again until a read
    passes.  A re-read fails on a strictly later check, if at all, so there
    is at most one per check, and the error is the first bad record's
    leftmost bad field, at its line."""
    lines = _record_lines(path, kind)
    records = [(lineno, fields) for lineno, fields in enumerate(map(str.split, lines[1:]), start=2)
               if fields and fields[0][0] != "#"]
    linenos, rows = map(list, zip(*records)) if records else ([], [])
    fault = None
    while True:
        try:
            result = read(rows)
            break
        except ValueError as exc:
            message, index = exc.args
            fault, rows = (linenos[index], message), rows[:index]
    if fault:
        raise DatastoreError(path, *fault)
    return linenos, result


def _columns(rows: list[list[str]], counts: tuple[int, ...], needs: str) -> list[tuple[str, ...]]:
    """The fields of ``rows`` by column, padded with ``-`` (read as absent)
    to ``max(counts)``; the first row with another field count fails."""
    if not set(map(len, rows)).issubset(counts):
        i = next(i for i, row in enumerate(rows) if len(row) not in counts)
        raise ValueError(f"{needs}, got {len(rows[i])}", i)
    columns = list(itertools.zip_longest(*rows, fillvalue="-"))
    return columns + [("-",) * len(rows)] * (max(counts) - len(columns))


def _column(rule: Callable, *columns, quick: Callable | None = None) -> list:
    """``rule`` over the records' tokens in ``columns``, as ``quick(*columns)``
    (the rule in C-level calls) when given; on a failure, ``rule`` words a
    ``ValueError(message, i)`` for the first record ``i`` it rejects."""
    try:
        return list(quick(*columns) if quick else map(rule, *columns))
    except (ValueError, KeyError):
        for i, tokens in enumerate(zip(*columns)):
            try:
                rule(*tokens)
            except ValueError as exc:
                raise ValueError(str(exc), i) from None
        raise  # the quick form rejected a column its rule accepts


def _digits(tokens: tuple[str, ...]) -> Iterator[int]:
    """:func:`parse_index` over a column: one ASCII-digit test, then ``int``."""
    if tokens and not is_ascii_digits("".join(tokens)):
        raise ValueError("not an index")
    return map(int, tokens)


def _floats(tokens: tuple[str, ...]) -> Iterator[float]:
    """:func:`real_value` over a column: ``float`` once the column is ASCII with no ``_``."""
    text = "".join(tokens)
    if not text.isascii() or "_" in text:
        raise ValueError("not ASCII, or holds '_'")
    return map(float, tokens)


def _boxes(coords: list[tuple[str, ...]]) -> list[BoundingBox]:
    """The boxes of four coordinate columns, each checked as a column in turn."""
    reals = [_column(_coordinate, column, quick=_floats) for column in coords]
    return _column(_box, *reals, quick=functools.partial(map, BoundingBox))


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
    annotated-but-empty frame.  Two signs alike in frame, code and box are rejected.
    """
    _, signs = _read_records(path, "annotations", _annotation_signs)
    return [FrameAnnotations(frame, tuple(signs[frame])) for frame in sorted(signs)]


def _annotation_signs(rows: list[list[str]]) -> dict[int, list[GroundTruthSign]]:
    signs: dict[int, list[GroundTruthSign]] = {}
    seen: set[tuple[int, tuple[float, float, float, float], tuple[int, ...]]] = set()
    for i, fields in enumerate(rows):
        try:
            if len(fields) not in (1, 8):
                raise ValueError(f"annotation record needs 1 or 8 fields, got {len(fields)}")
            frame = _frame_index(fields[0])
            frame_signs = signs.setdefault(frame, [])  # a 1-field record: annotated, maybe empty
            if len(fields) == 1:
                continue
            code = _parse_code(fields[1])
            box = _box(*map(_coordinate, fields[2:6]))
            key = (frame, (box.x_min, box.y_min, box.x_max, box.y_max), code.segments)
            if key in seen:
                raise ValueError(f"duplicate annotation for frame {frame}, {code}")
            seen.add(key)
            frame_signs.append(GroundTruthSign(
                frame, box, code, _DASH_NONE.get(fields[6], fields[6]), _parse_flag(fields[7])))
        except ValueError as exc:
            raise ValueError(str(exc), i) from None
    return signs


def write_annotations(annotations: list[FrameAnnotations], path) -> None:
    lines = [f"{FORMAT_VERSION} annotations\n"]
    for ann in _sorted_unique(annotations, lambda a: a.frame_index, "annotations for frame"):
        if not ann.signs:
            lines.append(f"{ann.frame_index}\n")
        keys = set()
        for sign in ann.signs:
            box = _format_box(sign.box)
            key = (sign.code, *map(float, box.split()))  # the reader's key: code, re-read box
            if key in keys:
                raise ValueError(f"duplicate annotation for frame {ann.frame_index}, {sign.code}")
            keys.add(key)
            lines.append(f"{ann.frame_index} {sign.code} {box} "
                         f"{_text_or_dash(sign.associated_data)} {_flag_text(sign.temporary)}\n")
    atomic_write_text(path, "".join(lines))


# --------------------------------------------------------------------------
# Detections


def read_detections(path) -> dict[int, list[Detection]]:
    """Load detector output grouped by frame.

    Record: ``frame dist x_min y_min x_max y_max [data] [temporary]``
    where dist is ``code:prob[,code:prob...]`` or a bare code meaning
    probability 1.  Read column by column, each column checked in field
    order by its field's one rule; a bad file is reported at the first bad
    record's line with its leftmost bad field's message, after at most
    one re-read per check (see :func:`_read_records`).
    """
    return group_by_frame(_read_records(path, "detections", _detection_columns)[1])


def _detection_columns(rows: list[list[str]]) -> list[Detection]:
    frames, dists, *coords, data, temporary = _columns(
        rows, (6, 7, 8), "detection record needs 6-8 fields")
    frames = _column(_frame_index, frames, quick=_digits)
    # each distinct token is parsed once; a bad one fails on each line
    dists = _column(functools.cache(_parse_distribution), dists)
    boxes = _boxes(coords)
    temporary = _column(_parse_opt_flag, temporary, quick=_opt_flags)
    return list(map(Detection, frames, boxes, dists, map(_DASH_NONE.get, data, data), temporary))


def write_detections(detections: dict[int, list[Detection]], path) -> None:
    lines = [f"{FORMAT_VERSION} detections\n"]
    distribution = _memo_by_object(_format_distribution)
    for frame in sorted(detections):
        for det in detections[frame]:
            if det.frame_index != frame:
                raise ValueError(f"detection on frame {det.frame_index} listed under frame {frame}")
            fields = [str(det.frame_index), distribution(det.class_distribution),
                      _format_box(det.box)]
            if det.associated_data is not None or det.temporary is not None:
                fields.append(_text_or_dash(det.associated_data))
            if det.temporary is not None:
                fields.append(_flag_text(det.temporary))
            lines.append(" ".join(fields) + "\n")
    atomic_write_text(path, "".join(lines))


# --------------------------------------------------------------------------
# Tracks


_SOURCE_TEXT = {source: source.value for source in Source}  # a dict reads faster than .value
_TEXT_SOURCE = {v: k for k, v in _SOURCE_TEXT.items()}  # what _parse_source reads
_sources = functools.partial(map, _TEXT_SOURCE.__getitem__)
_NCC_FLAGS = ("ncc_degenerate", "template_clipped")


def _entry_flags(entry: Detection) -> str:
    if not (entry.ncc_degenerate or entry.template_clipped):
        return "-"
    return ",".join(flag for flag in _NCC_FLAGS if getattr(entry, flag))


def _entry_flag_values(token: str) -> tuple[bool, bool]:
    """(ncc_degenerate, template_clipped) of a flags field."""
    flags = set() if token == "-" else set(token.split(","))
    unknown = flags - set(_NCC_FLAGS)
    if unknown:
        raise ValueError(f"unknown flags {sorted(unknown)}")
    return "ncc_degenerate" in flags, "template_clipped" in flags


def _parse_source(token: str) -> Source:
    try:
        return Source(token)
    except ValueError:
        raise ValueError(f"unknown source {token!r}") from None


def read_tracks(path) -> list[Track]:
    """Load tracks in id order.

    Record: ``track_id frame source x_min y_min x_max y_max dist data
    temporary flags`` (11 fields); flags is a comma list over
    {ncc_degenerate, template_clipped} or ``-``.  Read column by column,
    as :func:`read_detections` is, then each entry's frame against its
    track's previous one.  Every track needs a ``detected`` entry; once
    every record is good, a track without one is reported at its first line.
    """
    linenos, (ids, order, entries) = _read_records(path, "tracks", _track_columns)
    tracks = []
    for track_id, members in itertools.groupby(order, ids.__getitem__):
        members = list(members)
        try:
            tracks.append(Track(id=track_id, entries=tuple(map(entries.__getitem__, members))))
        except ValueError as exc:
            raise DatastoreError(path, linenos[members[0]], str(exc)) from None
    return tracks


def _track_columns(rows: list[list[str]]) -> tuple[list[int], list[int], list[Detection]]:
    """The records' track ids, their order by id (stable) and their entries."""
    ids, frames, sources, *coords, dists, data, temporary, flags = _columns(
        rows, (11,), "track record needs 11 fields")
    ids = _column(functools.partial(parse_index, what="track id"), ids, quick=_digits)
    frames = _column(_frame_index, frames, quick=_digits)
    sources = _column(_parse_source, sources, quick=_sources)
    boxes = _boxes(coords)
    dists = _column(functools.cache(_parse_distribution), dists)  # as in _detection_columns
    temporary = _column(_parse_opt_flag, temporary, quick=_opt_flags)
    flags = _column(functools.cache(_entry_flag_values), flags)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    keys = list(zip(map(ids.__getitem__, order), map(frames.__getitem__, order)))
    if not all(map(operator.lt, keys, keys[1:])):  # name the first frame out of its track's order
        last: dict[int, int] = {}
        for i, (track_id, frame) in enumerate(zip(ids, frames)):
            if frame <= last.get(track_id, -1):
                raise ValueError(f"track {track_id} frame indices not strictly "
                                 f"increasing ({last[track_id]} -> {frame})", i)
            last[track_id] = frame
    entries = list(map(Detection, frames, boxes, dists, map(_DASH_NONE.get, data, data), temporary,
                       sources, *zip(*flags)))
    return ids, order, entries


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
    """Binds a sequence's frame indices to image files on disk; annotations
    reach each command as a file of their own."""

    sequence_id: str
    frames: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames",
                           tuple((index_value(i, "frame index"), str(p)) for i, p in self.frames))
        if not self.sequence_id:
            raise ValueError("sequence id must be non-empty")
        last = None
        for index, frame_path in self.frames:
            if last is not None and index <= last:
                raise ValueError(f"frame indices not strictly increasing at {index}")
            if not frame_path:
                raise ValueError(f"empty path for frame {index}")
            last = index


def read_manifest(path) -> SequenceManifest:
    """Parse ``frame_index<TAB>path`` lines plus one ``# sequence:`` directive
    (whitespace around the name is ignored); any other ``#`` line, such as
    the ``# annotation:`` line of an older manifest, is a comment."""
    sequence_id = None
    frames: list[tuple[int, str]] = []
    for lineno, raw in enumerate(_record_lines(path, "manifest")[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                name, sep, value = line[1:].partition(":")
                if not sep or name.strip() != "sequence":
                    continue  # a comment
                value = value.strip()
                if not value:
                    raise ValueError("empty '# sequence:' directive")
                if sequence_id is not None:
                    raise ValueError("repeated '# sequence:' directive")
                sequence_id = value
                continue
            index_s, sep, frame_path = line.partition("\t")
            if not sep:
                raise ValueError("expected frame_index<TAB>path")
            index = parse_index(index_s.strip(), "frame index")
            if frames and index <= frames[-1][0]:
                raise ValueError(f"frame indices not strictly increasing at {index}")
        except ValueError as exc:
            raise DatastoreError(path, lineno, str(exc)) from None
        frames.append((index, frame_path.strip()))
    if sequence_id is None:
        raise DatastoreError(path, None, "missing '# sequence: <id>' directive")
    # every rule SequenceManifest checks is checked above at its line
    return SequenceManifest(sequence_id, tuple(frames))


def _line_text(value: str) -> str:
    # a manifest line re-reads split at "\n" and "\r" and stripped
    if value != value.strip() or "\n" in value or "\r" in value:
        raise ValueError(f"manifest value {value!r} must hold no line break "
                         "and no leading or trailing whitespace")
    return value


def write_manifest(manifest: SequenceManifest, path) -> None:
    """``ValueError``, and nothing written, on a value that would not re-read."""
    lines = [f"{FORMAT_VERSION} manifest\n", f"# sequence: {_line_text(manifest.sequence_id)}\n"]
    lines += (f"{index}\t{_line_text(frame_path)}\n" for index, frame_path in manifest.frames)
    atomic_write_text(path, "".join(lines))


class ManifestFrameSource:
    """Frame loader indexed by frame number, for NCC interpolation.

    A frame path is relative to ``root``, and an absolute one is read as it is.
    Each access reads and decodes the frame's PGM; no frame is cached
    (:func:`tracking.densify_ncc_tracks` asks for each frame once, in
    ascending order).  The file is read into one buffer the source keeps
    and reuses, so one source serves one caller at a time.  The file is
    placed at the parity of the previous file's bytes outside its payload
    (its length less the decoded samples' size), so a 16-bit payload
    starts on a 2-byte boundary whenever this file's header has that
    parity; otherwise :func:`frames.read_pnm` casts it misaligned, at about
    twice the cost.  Each fetch parses its header once, in ``read_pnm``.
    The decoded image is a new array and never shares memory with the buffer.
    Every frame must have the size of the first one decoded.
    With a ``pattern`` the frame stays the decoded mosaic
    (:class:`CfaImage`), validated over the whole frame like any other;
    readers take the gray signal of just the windows they need with
    :func:`frames.gray_window`.
    """

    def __init__(
        self,
        manifest: SequenceManifest,
        root: str | os.PathLike,
        pattern: BayerPattern | None = None,
    ):
        self._paths = {index: frame_path for index, frame_path in manifest.frames}
        self._root = Path(root)
        self._pattern = pattern
        self._first: tuple[int, int, Path] | None = None  # width, height, path
        self._buffer = bytearray()
        self._shift = 0  # buffer offset of the next file: the last file's non-payload parity

    def __getitem__(self, frame_index: int) -> GrayImage | CfaImage:
        path = self._root / self._paths[frame_index]
        try:
            # open raises ValueError for a path with a NUL byte: malformed, not missing
            with open(path, "rb") as file:
                size = os.fstat(file.fileno()).st_size
                if len(self._buffer) < self._shift + size:
                    # a new buffer, not a resize: a view of the old one may still be alive
                    self._buffer = bytearray(size + 1)
                view = memoryview(self._buffer)[self._shift : self._shift + size]
                data = view[: file.readinto(view)]  # only the bytes read: none of an earlier frame
            image = read_pnm(data, self._pattern)
        except ValueError as exc:
            raise DatastoreError(path, None, str(exc)) from None
        self._shift = (len(data) - image.samples.nbytes) % 2  # the bytes outside the payload
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
    per allowed key; lines end at ``\\r\\n``, ``\\r`` or ``\\n``, as in a
    record file.  An unknown or repeated key, a line without ``=``, or
    a value its reader rejects with ``ValueError`` is a
    :class:`DatastoreError` naming ``path`` and the line."""
    values: dict = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise DatastoreError(path, lineno, f"expected key = value, got {line!r}")
        if key not in readers:
            raise DatastoreError(path, lineno, f"unknown key {key!r}")
        if key in values:
            raise DatastoreError(path, lineno, f"repeated key {key!r}")
        try:
            values[key] = readers[key](value)
        except ValueError:
            raise DatastoreError(path, lineno, f"bad value for {key}: {value!r}") from None
    return values


def real_value(text: str) -> float:
    """A real in ASCII with no ``_`` (``float`` also reads "٠.٥" and "0.5_0")."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected an ASCII decimal number, got {text!r}")
    return float(text)
