"""Wire formats: annotations, detections, tracks, manifests, settings."""

import dataclasses
import re
import stat
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import datastore_oracles as oracles
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icevision_kit import datastore, frames, harness

from icevision_kit.core import (
    BoundingBox,
    Detection,
    Distribution,
    FrameAnnotations,
    GroundTruthSign,
    Source,
)
from icevision_kit.datastore import (
    FORMAT_VERSION,
    DatastoreError,
    ManifestFrameSource,
    SequenceManifest,
    atomic_write_bytes,
    read_annotations,
    read_detections,
    read_manifest,
    read_tracks,
    write_annotations,
    write_detections,
    write_manifest,
    write_tracks,
)
from icevision_kit.frames import BayerPattern, CfaImage, GrayImage, read_pnm, sample_dtype, write_pnm
from icevision_kit.taxonomy import parse_code
from icevision_kit.tracking import Track


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def q6(value):
    """Quantize to the 6-decimal wire precision."""
    return round(float(value), 6)


class TestAnnotations:
    def test_basic_record(self, tmp_path):
        path = put(
            tmp_path,
            "a.txt",
            f"{FORMAT_VERSION} annotations\n12 3.24 100 100 150 150 40 false\n",
        )
        anns = read_annotations(path)
        assert len(anns) == 1
        ann = anns[0]
        assert ann.frame_index == 12
        (sign,) = ann.signs
        assert sign.code == parse_code("3.24")
        assert sign.box == BoundingBox(100, 100, 150, 150)
        assert sign.associated_data == "40"
        assert sign.temporary is False

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = put(tmp_path, "a.txt", f"{FORMAT_VERSION} annotations\n")
        assert read_annotations(path) == []

    def test_annotated_empty_frame(self, tmp_path):
        path = put(tmp_path, "a.txt", f"{FORMAT_VERSION} annotations\n7\n")
        (ann,) = read_annotations(path)
        assert ann.frame_index == 7 and ann.signs == ()

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = put(
            tmp_path,
            "a.txt",
            f"{FORMAT_VERSION} annotations\n12 3.24 100 100 150\n",
        )
        with pytest.raises(DatastoreError, match="annotation record needs 1 or 8 fields, got 5$") as err:
            read_annotations(path)
        assert err.value.lineno == 2
        assert "a.txt:2" in str(err.value)

    def test_bad_code_fatal_by_default(self, tmp_path):
        path = put(
            tmp_path,
            "a.txt",
            f"{FORMAT_VERSION} annotations\n0 3..24 0 0 10 10 - false\n",
        )
        with pytest.raises(DatastoreError, match=":2: bad class code: non-numeric segment '' in code '3..24'$"):
            read_annotations(path)

    def test_duplicate_rejected(self, tmp_path):
        line = "3 3.24 0.000000 0.000000 10.000000 10.000000 - false\n"
        path = put(tmp_path, "a.txt", f"{FORMAT_VERSION} annotations\n{line}{line}")
        with pytest.raises(DatastoreError, match="duplicate annotation for frame 3, 3.24$") as err:
            read_annotations(path)
        assert err.value.lineno == 3

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = put(
            tmp_path,
            "a.txt",
            f"{FORMAT_VERSION} annotations\n\n# note\n4 3.24 0 0 10 10 - true\n",
        )
        (ann,) = read_annotations(path)
        assert ann.signs[0].temporary is True

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(17)
        annotations = []
        for frame in range(6):
            signs = []
            for _ in range(int(rng.integers(0, 4))):
                x0, y0 = q6(rng.uniform(0, 500)), q6(rng.uniform(0, 500))
                signs.append(
                    GroundTruthSign(
                        frame_index=frame,
                        box=BoundingBox(x0, y0, q6(x0 + rng.uniform(1, 99)), q6(y0 + rng.uniform(1, 99))),
                        code=parse_code(str(rng.choice(["3.24", "5.19.1", "2.4", "7.1.2"]))),
                        associated_data=None if rng.random() < 0.5 else str(rng.integers(10, 99)),
                        temporary=bool(rng.random() < 0.3),
                    )
                )
            annotations.append(FrameAnnotations(frame_index=frame, signs=tuple(signs)))
        path = tmp_path / "rt.txt"
        write_annotations(annotations, path)
        assert read_annotations(path) == annotations

    def test_write_is_deterministic(self, tmp_path):
        ann = [
            FrameAnnotations(
                frame_index=0,
                signs=(
                    GroundTruthSign(
                        frame_index=0, box=BoundingBox(0, 0, 10, 10), code=parse_code("3.24")
                    ),
                ),
            )
        ]
        p1, p2 = tmp_path / "x.txt", tmp_path / "y.txt"
        write_annotations(ann, p1)
        write_annotations(ann, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        write_annotations([], path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestDetections:
    def test_distribution_and_bare_code(self, tmp_path):
        path = put(
            tmp_path,
            "d.txt",
            f"{FORMAT_VERSION} detections\n"
            "0 3.24:0.700000,5.19.1:0.200000 10 10 50 50\n"
            "1 3.24 10 10 50 50\n",
        )
        dets = read_detections(path)
        assert dets[0][0].class_distribution == {
            parse_code("3.24"): 0.7,
            parse_code("5.19.1"): 0.2,
        }
        assert dets[1][0].class_distribution == {parse_code("3.24"): 1.0}

    def test_optional_fields(self, tmp_path):
        path = put(
            tmp_path,
            "d.txt",
            f"{FORMAT_VERSION} detections\n"
            "0 3.24 10 10 50 50 40\n"
            "1 3.24 10 10 50 50 - true\n",
        )
        dets = read_detections(path)
        assert dets[0][0].associated_data == "40" and dets[0][0].temporary is None
        assert dets[1][0].associated_data is None and dets[1][0].temporary is True

    def test_oversum_distribution_rejected(self, tmp_path):
        path = put(
            tmp_path,
            "d.txt",
            f"{FORMAT_VERSION} detections\n0 3.24:0.8,5.19.1:0.4 10 10 50 50\n",
        )
        with pytest.raises(DatastoreError, match=r":2: distribution probabilities sum to 1\.2\d* > 1$") as err:
            read_detections(path)
        assert err.value.lineno == 2

    def test_repeated_code_in_distribution(self, tmp_path):
        path = put(
            tmp_path,
            "d.txt",
            f"{FORMAT_VERSION} detections\n0 3.24:0.3,3.24:0.3 10 10 50 50\n",
        )
        with pytest.raises(DatastoreError, match=":2: repeated code 3.24 in distribution$"):
            read_detections(path)

    def test_header_only_empty(self, tmp_path):
        path = put(tmp_path, "d.txt", f"{FORMAT_VERSION} detections\n")
        assert read_detections(path) == {}

    def test_equal_records_round_trip_as_separate_detections(self, tmp_path):
        # the scorer, not the reader, charges the repeat (as a duplicate)
        det = Detection(0, BoundingBox(10, 10, 50, 50), {parse_code("3.24"): 1.0})
        detections = {0: [det, det]}
        path = tmp_path / "d.txt"
        write_detections(detections, path)
        assert path.read_text().count("0 3.24:1.000000 10.000000 10.000000 50.000000") == 2
        assert read_detections(path) == detections

    def test_near_duplicates_allowed(self, tmp_path):
        path = put(
            tmp_path,
            "d.txt",
            f"{FORMAT_VERSION} detections\n"
            "0 3.24 10 10 50 50\n"
            "0 3.24 10 10 50 50.000001\n"
            "0 3.24:0.5 10 10 50 50\n",
        )
        assert len(read_detections(path)[0]) == 3

    @pytest.mark.parametrize("position", range(4))
    def test_bad_box_coordinate_is_named(self, tmp_path, position):
        coords = ["10", "10", "50", "50"]
        coords[position] = "1O"
        path = put(tmp_path, "d.txt", f"{FORMAT_VERSION} detections\n0 3.24 {' '.join(coords)}\n")
        with pytest.raises(DatastoreError, match="box coordinate is not a number: '1O'") as err:
            read_detections(path)
        assert err.value.lineno == 2

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(23)
        codes = [parse_code(c) for c in ("3.24", "5.19.1", "2.4")]
        detections = {}
        for frame in range(5):
            rows = []
            for _ in range(int(rng.integers(1, 4))):
                probs = rng.dirichlet([1.0] * len(codes)) * 0.98
                dist = {c: q6(p) for c, p in zip(codes, probs) if q6(p) > 0}
                x0, y0 = q6(rng.uniform(0, 500)), q6(rng.uniform(0, 500))
                rows.append(
                    Detection(
                        frame_index=frame,
                        box=BoundingBox(x0, y0, q6(x0 + rng.uniform(5, 80)), q6(y0 + rng.uniform(5, 80))),
                        class_distribution=dist,
                        associated_data=None if rng.random() < 0.5 else "60",
                        temporary=None if rng.random() < 0.5 else bool(rng.random() < 0.5),
                    )
                )
            detections[frame] = rows
        path = tmp_path / "rt.txt"
        write_detections(detections, path)
        assert read_detections(path) == detections


class TestTracks:
    @staticmethod
    def make_track(track_id=0):
        entries = [
            Detection(
                frame_index=f,
                box=BoundingBox(q6(10 + f * 1.5), 10.0, q6(40 + f * 1.5), 40.0),
                class_distribution={parse_code("3.24"): 0.9},
                source=Source.DETECTED if f % 3 == 0 else Source.INTERPOLATED,
                associated_data="40" if f % 2 else None,
                temporary=True if f % 3 == 0 else None,
                ncc_degenerate=(f == 2),
                template_clipped=(f == 4),
            )
            for f in range(6)
        ]
        return Track(id=track_id, entries=entries)

    def test_round_trip(self, tmp_path):
        tracks = [self.make_track(0), self.make_track(3)]
        path = tmp_path / "t.txt"
        write_tracks(tracks, path)
        again = read_tracks(path)
        assert again == tracks

    def test_bad_code_reports_its_line_on_every_read(self, tmp_path):
        # class codes are parsed through a cache; failures are not cached
        path = tmp_path / "t.txt"
        write_tracks([self.make_track(0)], path)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = lines[4].replace("3.24", "3.x")
        path.write_text("".join(lines))
        for _ in range(2):
            with pytest.raises(DatastoreError, match="bad class code: non-numeric segment 'x' in code '3.x'$") as err:
                read_tracks(path)
            assert err.value.lineno == 5 and "3.x" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 detected 1 1 2 2 3.24 - -\n",
        )
        with pytest.raises(DatastoreError, match="track record needs 11 fields, got 10$") as err:
            read_tracks(path)
        assert err.value.lineno == 2

    def test_unknown_source(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 guessed 1 1 2 2 3.24 - - -\n",
        )
        with pytest.raises(DatastoreError, match=":2: unknown source 'guessed'$"):
            read_tracks(path)

    def test_unknown_flag(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 detected 1 1 2 2 3.24 - - wobbly\n",
        )
        with pytest.raises(DatastoreError, match=r":2: unknown flags \['wobbly'\]$"):
            read_tracks(path)

    def test_non_increasing_frames_report_their_line(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n"
            "0 5 detected 1 1 2 2 3.24 - - -\n"
            "1 4 detected 1 1 2 2 3.24 - - -\n"
            "0 3 detected 1 1 2 2 3.24 - - -\n",
        )
        with pytest.raises(DatastoreError, match="track 0 frame indices not strictly") as err:
            read_tracks(path)
        assert err.value.lineno == 4

    def test_flags_survive_round_trip(self, tmp_path):
        path = tmp_path / "t.txt"
        write_tracks([self.make_track()], path)
        (track,) = read_tracks(path)
        assert track.entries[2].ncc_degenerate and not track.entries[2].template_clipped
        assert track.entries[4].template_clipped and not track.entries[4].ncc_degenerate


def write_one_text_field(kind, value, path):
    """Write a one-record file of ``kind`` whose associated data is ``value``."""
    box, code = BoundingBox(1, 1, 2, 2), parse_code("3.24")
    det = Detection(frame_index=0, box=box, class_distribution={code: 1.0}, associated_data=value)
    if kind == "annotations":
        sign = GroundTruthSign(frame_index=0, box=box, code=code, associated_data=value)
        write_annotations([FrameAnnotations(frame_index=0, signs=(sign,))], path)
    elif kind == "detections":
        write_detections({0: [det]}, path)
    else:
        write_tracks([Track(id=0, entries=[det])], path)


def read_one_text_field(kind, path):
    if kind == "annotations":
        return read_annotations(path)[0].signs[0].associated_data
    if kind == "detections":
        return read_detections(path)[0][0].associated_data
    return read_tracks(path)[0].entries[0].associated_data


class TestTextFields:
    """Every writer's output re-reads to the value written, so a text
    field that would not is refused before anything is written."""

    KINDS = ["annotations", "detections", "tracks"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("value", ["-", "", "a b", " x", "x ", "a\tb", "a\nb", "a\u00a0b"])
    def test_unreadable_value_refused(self, tmp_path, kind, value):
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError) as err:
            write_one_text_field(kind, value, path)
        assert repr(value) in str(err.value)
        assert not path.exists()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("value", [None, "40", "x#y", "--", "тест", "a,b:c"])
    def test_readable_value_round_trips(self, tmp_path, kind, value):
        path = tmp_path / "out.txt"
        write_one_text_field(kind, value, path)
        assert read_one_text_field(kind, path) == value


class TestWritersRefuseWhatWouldNotReRead:
    """A value a file would re-read as another value is refused, and
    nothing is written."""

    @staticmethod
    def sign(frame):
        return GroundTruthSign(frame_index=frame, box=BoundingBox(0, 0, 10, 10),
                               code=parse_code("3.24"))

    def test_detection_listed_under_another_frame(self, tmp_path):
        det = Detection(frame_index=5, box=BoundingBox(0, 0, 10, 10),
                        class_distribution={parse_code("3.24"): 1.0})
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match="detection on frame 5 listed under frame 0"):
            write_detections({0: [det]}, path)
        assert list(tmp_path.iterdir()) == []

    def test_two_tracks_with_one_id(self, tmp_path):
        track = TestTracks.make_track(0)
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match="two tracks with id 0"):
            write_tracks([TestTracks.make_track(2), track, Track(0, list(track.entries))], path)
        assert list(tmp_path.iterdir()) == []

    def test_negative_track_id(self):
        # refused when built, so no writer sees it
        with pytest.raises(ValueError, match="track id must be a non-negative integer, got -1"):
            TestTracks.make_track(-1)

    def test_track_with_no_detected_entry(self):
        track = TestTracks.make_track(7)
        with pytest.raises(ValueError, match="track 7 has no detected entry"):
            Track(7, [e for e in track.entries if e.source is not Source.DETECTED])

    @pytest.mark.parametrize("box", [BoundingBox(0, 0, 10, 10), BoundingBox(4e-7, 0, 10, 10),
                                     BoundingBox(-4e-7, 0, 10, 10)])
    def test_two_signs_that_re_read_as_one(self, tmp_path, box):
        # the second box prints as the first ("0.000000" or "-0.000000", both read as 0)
        first, second = self.sign(0), GroundTruthSign(0, box, parse_code("3.24"))
        path = tmp_path / "a.txt"
        with pytest.raises(ValueError, match=re.escape("duplicate annotation for frame 0, 3.24")):
            write_annotations([FrameAnnotations(0, (first, second))], path)
        assert list(tmp_path.iterdir()) == []

    def test_signs_apart_in_code_or_box_are_written(self, tmp_path):
        signs = (self.sign(0), GroundTruthSign(0, BoundingBox(0, 0, 10, 10), parse_code("3.25")),
                 GroundTruthSign(0, BoundingBox(0, 0, 10, 10.000001), parse_code("3.24")))
        path = tmp_path / "a.txt"
        write_annotations([FrameAnnotations(0, signs), FrameAnnotations(1, (self.sign(1),))], path)
        assert read_annotations(path) == [FrameAnnotations(0, signs),
                                          FrameAnnotations(1, (self.sign(1),))]

    def test_annotations_for_a_negative_frame(self, tmp_path):
        with pytest.raises(ValueError, match="frame index must be a non-negative integer, got -1"):
            write_annotations([FrameAnnotations(1), FrameAnnotations(-1)], tmp_path / "a.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("index", [-1, 1.9])
    def test_manifest_frame_that_is_not_a_non_negative_integer(self, tmp_path, index):
        message = f"frame index must be a non-negative integer, got {index!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_manifest(SequenceManifest("s", ((index, "a.pgm"),)), tmp_path / "m.txt")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def write_one(kind, index, path) -> int:
        """Build one value of ``kind`` with ``index`` as its frame index (its
        id for a track), write it to ``path`` and return the index it stores."""
        box, code = BoundingBox(0, 0, 10, 10), parse_code("3.24")
        if kind == "detection":
            det = Detection(index, box, {code: 1.0})
            write_detections({index: [det]}, path)
            return det.frame_index
        if kind == "sign":
            sign = GroundTruthSign(index, box, code)
            write_annotations([FrameAnnotations(sign.frame_index, (sign,))], path)
            return sign.frame_index
        if kind == "annotations":
            annotations = FrameAnnotations(index)
            write_annotations([annotations], path)
            return annotations.frame_index
        if kind == "manifest":
            manifest = SequenceManifest("s", ((index, "a.pgm"),))
            write_manifest(manifest, path)
            return manifest.frames[0][0]
        track = Track(index, [Detection(0, box, {code: 1.0})])
        write_tracks([track], path)
        return track.id

    INDEX_KINDS = ["detection", "sign", "annotations", "manifest", "track"]

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    @pytest.mark.parametrize("index", [-1, 1.5, np.float64(2.0), "3", None])
    def test_index_that_is_not_a_non_negative_integer(self, tmp_path, kind, index):
        # refused when built, with one message for all five types
        what = "track id" if kind == "track" else "frame index"
        message = f"{what} must be a non-negative integer, got {index!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.write_one(kind, index, tmp_path / "out.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    @pytest.mark.parametrize("index", [np.int64(7), np.uint8(7), 7])
    def test_integer_index_is_stored_as_a_plain_int(self, tmp_path, kind, index):
        path = tmp_path / "out.txt"
        stored = self.write_one(kind, index, path)
        assert type(stored) is int and stored == 7
        assert path.read_text().splitlines()[-1].split()[0] == "7"

    @pytest.mark.parametrize("key", [1.0, np.float64(1.0), True, np.int64(1)])
    def test_detection_frame_is_written_from_the_record(self, tmp_path, key):
        # a key equal to the record's frame index passes the listing check;
        # the record's own index is what the file holds
        det = Detection(1, BoundingBox(0, 0, 10, 10), {parse_code("3.24"): 1.0})
        path = tmp_path / "d.txt"
        write_detections({key: [det]}, path)
        assert read_detections(path) == {1: [det]}

    def test_two_annotations_for_one_frame(self, tmp_path):
        annotations = [FrameAnnotations(3, (self.sign(3),)), FrameAnnotations(1),
                       FrameAnnotations(3, (self.sign(3),))]
        path = tmp_path / "a.txt"
        with pytest.raises(ValueError, match="two annotations for frame 3"):
            write_annotations(annotations, path)
        assert list(tmp_path.iterdir()) == []


class TestHeaders:
    def test_missing_header(self, tmp_path):
        path = put(tmp_path, "x.txt", "")
        with pytest.raises(DatastoreError, match="empty file, expected header$") as err:
            read_annotations(path)
        assert err.value.lineno == 1

    def test_wrong_kind(self, tmp_path):
        path = put(tmp_path, "x.txt", f"{FORMAT_VERSION} detections\n")
        with pytest.raises(DatastoreError, match=":1: expected header 'icevision-kit/v1 annotations', "
                           "got 'icevision-kit/v1 detections'$"):
            read_annotations(path)

    def test_wrong_version(self, tmp_path):
        path = put(tmp_path, "x.txt", "icevision-kit/v2 annotations\n")
        with pytest.raises(DatastoreError, match=":1: expected header 'icevision-kit/v1 annotations', "
                           "got 'icevision-kit/v2 annotations'$"):
            read_annotations(path)

    def test_error_is_valueerror(self, tmp_path):
        path = put(tmp_path, "x.txt", "junk\n")
        with pytest.raises(DatastoreError):
            read_detections(path)
        with pytest.raises(ValueError):
            read_detections(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = SequenceManifest(
            sequence_id="2018-02-13_1418_left",
            frames=((0, "frames/000000.pnm"), (3, "frames/000003.pnm")),
        )
        path = tmp_path / "m.txt"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_directives(self, tmp_path):
        path = put(
            tmp_path,
            "m.txt",
            f"{FORMAT_VERSION} manifest\n"
            "# sequence: seq-1\n"
            "# annotation: gt.txt\n"
            "0\tf0.pnm\n"
            "5\tf5.pnm\n",
        )
        assert read_manifest(path) == SequenceManifest("seq-1", ((0, "f0.pnm"), (5, "f5.pnm")))

    def test_fields_are_the_sequence_and_its_frames(self):
        assert [f.name for f in dataclasses.fields(SequenceManifest)] == ["sequence_id", "frames"]

    @pytest.mark.parametrize("line", ["# annotation: gt.txt", "# annotation:", "#annotation :  "])
    def test_annotation_line_of_an_older_manifest_is_a_comment(self, tmp_path, line):
        body = "# sequence: s\n0\tf0.pnm\n2\tf2.pnm\n"
        with_line = put(tmp_path, "with.txt", f"{FORMAT_VERSION} manifest\n{line}\n{body}")
        without = put(tmp_path, "without.txt", f"{FORMAT_VERSION} manifest\n{body}")
        assert read_manifest(with_line) == read_manifest(without) == SequenceManifest(
            "s", ((0, "f0.pnm"), (2, "f2.pnm")))

    def test_missing_sequence_directive(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n0\tf0.pnm\n")
        with pytest.raises(DatastoreError) as err:
            read_manifest(path)
        assert str(err.value) == f"{path}: missing '# sequence: <id>' directive"

    def test_non_increasing_frames(self, tmp_path):
        path = put(
            tmp_path,
            "m.txt",
            f"{FORMAT_VERSION} manifest\n# sequence: s\n5\ta.pnm\n5\tb.pnm\n",
        )
        with pytest.raises(DatastoreError, match="frame indices not strictly increasing at 5$") as err:
            read_manifest(path)
        assert err.value.lineno == 4

    @pytest.mark.parametrize("sequence_id, frame_path", [
        ("a\nb", "f.pgm"),
        ("s\r", "f.pgm"),
        ("s", " f.pgm"),
        ("s", "f.pgm\n"),
    ])
    def test_write_rejects_what_would_not_re_read(self, tmp_path, sequence_id, frame_path):
        manifest = SequenceManifest(sequence_id=sequence_id, frames=((0, frame_path),))
        bad = next(v for v in (sequence_id, frame_path) if v != v.strip()
                   or "\n" in v or "\r" in v)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_manifest(manifest, tmp_path / "m.txt")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_sequence_directive(self, tmp_path):
        path = put(tmp_path, "m.txt",
                   f"{FORMAT_VERSION} manifest\n# sequence: a\n0\tf0.pnm\n# sequence: b\n")
        with pytest.raises(DatastoreError, match="repeated '# sequence:'") as err:
            read_manifest(path)
        assert err.value.lineno == 4

    def test_empty_directive_reports_its_line(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n0\tf0.pnm\n#  sequence:  \n")
        with pytest.raises(DatastoreError) as err:
            read_manifest(path)
        assert str(err.value) == f"{path}:3: empty '# sequence:' directive"
        assert err.value.lineno == 3

    def test_other_comments_are_not_directives(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n# note: x\n# sequences:\n"
                   "# sequence s\n#annotation:a:b\n# sequence:s\n")
        assert read_manifest(path) == SequenceManifest("s", ())

    def test_whitespace_around_directive_name_is_ignored(self, tmp_path):
        path = put(tmp_path, "m.txt",
                   f"{FORMAT_VERSION} manifest\n#sequence :s1\n0\tf0.pnm\n")
        assert read_manifest(path) == SequenceManifest("s1", ((0, "f0.pnm"),))

    def test_spaced_directive_is_repeated_by_the_next(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n# sequence : a\n# sequence: b\n")
        with pytest.raises(DatastoreError) as err:
            read_manifest(path)
        assert str(err.value) == f"{path}:3: repeated '# sequence:' directive"
        assert err.value.lineno == 3

    @pytest.mark.parametrize("sequence_id, frames, message", [
        ("", ((0, "f0.pnm"),), "sequence id must be non-empty"),
        ("s", ((3, "a.pnm"), (2, "b.pnm")), "frame indices not strictly increasing at 2"),
        ("s", ((3, "a.pnm"), (3, "b.pnm")), "frame indices not strictly increasing at 3"),
        ("s", ((0, "f0.pnm"), (1, "")), "empty path for frame 1"),
    ])
    def test_built_manifest_keeps_its_invariant(self, sequence_id, frames, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SequenceManifest(sequence_id, frames)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = put(tmp_path, "m.txt",
                   f"{FORMAT_VERSION} manifest\n\n# sequence: s\n  \n0\tf0.pnm\n\t\n2\tf2.pnm\n")
        assert read_manifest(path) == SequenceManifest("s", ((0, "f0.pnm"), (2, "f2.pnm")))

    def test_missing_tab(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n# sequence: s\n5 a.pnm\n")
        with pytest.raises(DatastoreError, match=":3: expected frame_index<TAB>path$") as err:
            read_manifest(path)
        assert err.value.lineno == 3


class TestManifestFrameSource:
    def test_loads(self, tmp_path):
        samples = np.arange(12, dtype=np.uint8).reshape(3, 4)
        img = GrayImage(samples=samples, max_value=255)
        from icevision_kit.frames import write_pnm

        (tmp_path / "f0.pgm").write_bytes(write_pnm(img))
        manifest = SequenceManifest(sequence_id="s", frames=((0, "f0.pgm"),))
        source = ManifestFrameSource(manifest, root=tmp_path)
        assert np.array_equal(source[0].samples, samples)

    def test_missing_frame_raises(self, tmp_path):
        manifest = SequenceManifest(sequence_id="s", frames=((0, "f0.pgm"),))
        source = ManifestFrameSource(manifest, root=tmp_path)
        with pytest.raises(KeyError):
            source[9]

    def test_path_with_nul_byte_is_malformed(self, tmp_path):
        manifest = SequenceManifest(sequence_id="s", frames=((0, "f\x000.pgm"),))
        source = ManifestFrameSource(manifest, root=tmp_path)
        with pytest.raises(DatastoreError, match="null byte"):
            source[0]

    def test_bayer_frames_become_gray(self, tmp_path):
        # the source keeps the mosaic; its gray signal is the green plane
        from frame_oracles import gray_from_cfa
        from icevision_kit.frames import CfaImage, gray_window, write_pnm

        rng = np.random.default_rng(9)
        mosaic = CfaImage(samples=rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        (tmp_path / "f0.pgm").write_bytes(write_pnm(mosaic))
        manifest = SequenceManifest(sequence_id="s", frames=((0, "f0.pgm"),))
        source = ManifestFrameSource(manifest, root=tmp_path, pattern=BayerPattern.RGGB)
        frame = source[0]
        assert isinstance(frame, CfaImage) and frame.pattern is BayerPattern.RGGB
        assert frame.max_value == mosaic.max_value and np.array_equal(frame.samples, mosaic.samples)
        got = gray_window(frame, 0, 0, frame.width, frame.height).samples
        want = gray_from_cfa(mosaic).samples
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("pattern", [None, BayerPattern.RGGB])
    def test_frame_of_another_size_than_the_first_decoded(self, tmp_path, pattern):
        for name, (width, height) in (("f0.pgm", (8, 6)), ("f1.pgm", (8, 6)), ("f2.pgm", (10, 6))):
            (tmp_path / name).write_bytes(b"P5\n%d %d\n255\n" % (width, height)
                                          + bytes(width * height))
        manifest = SequenceManifest("s", ((0, "f0.pgm"), (1, "f1.pgm"), (2, "f2.pgm")))
        source = ManifestFrameSource(manifest, root=tmp_path, pattern=pattern)
        assert source[1].width == 8 and source[0].width == 8
        with pytest.raises(DatastoreError, match=r"frame is 10x6, but .*f1\.pgm is 8x6") as err:
            source[2]
        assert err.value.path.endswith("f2.pgm")


@st.composite
def frame_files(draw, width, height):
    """One PGM file of a fixed size: header spacing and ``#`` comments (a
    long one included), so the header length and its parity vary; 8- or
    16-bit samples; trailing bytes after the payload."""
    max_value = draw(st.sampled_from([255, 256, 4095, 65535]))
    gap = st.sampled_from([b" ", b"\n", b"  ", b"\r\n", b" # c\n", b"\n#" + b"x" * 5000 + b"\n"])
    header = b"P5" + draw(gap) + b"%d" % width + draw(gap) + b"%d" % height + draw(gap)
    header += b"%d" % max_value + draw(st.sampled_from([b"\n", b"\t", b"# note\n"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, max_value + 1, size=(height, width))
    wire = ">u2" if max_value > 255 else "u1"
    return header + samples.astype(wire).tobytes() + draw(st.binary(max_size=3))


@st.composite
def frame_sequences(draw):
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    files = draw(st.lists(frame_files(width, height), min_size=1, max_size=6))
    fetches = draw(st.lists(st.integers(0, len(files) - 1), min_size=1, max_size=10))
    return files, fetches


def fetch_peak_bytes(source, frame_index):
    """(image, peak bytes allocated while ``source`` fetched it); tracemalloc
    sees numpy's array buffers as well as Python objects."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        image = source[frame_index]
        return image, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestManifestFrameSourceReadPath:
    """One source reads every frame into one reused buffer; each image must
    still equal a fresh decode of the file's bytes, and own its samples."""

    @staticmethod
    def sequence(root, files):
        for index, data in enumerate(files):
            (root / f"f{index}.pgm").write_bytes(data)
        return SequenceManifest("s", tuple((i, f"f{i}.pgm") for i in range(len(files))))

    @settings(max_examples=60, deadline=None)
    @given(case=frame_sequences(), pattern=st.sampled_from([None, BayerPattern.GRBG]))
    def test_equals_a_fresh_decode_of_each_file(self, case, pattern):
        files, fetches = case
        with tempfile.TemporaryDirectory() as tmp:
            source = ManifestFrameSource(self.sequence(Path(tmp), files), root=tmp, pattern=pattern)
            for index in fetches:
                got = source[index]
                want = read_pnm(Path(tmp, f"f{index}.pgm").read_bytes(), pattern)
                assert type(got) is type(want) and got.max_value == want.max_value
                assert got.samples.dtype == want.samples.dtype
                assert np.array_equal(got.samples, want.samples)

    def test_each_fetch_parses_its_header_once(self, tmp_path, monkeypatch):
        samples = np.arange(24, dtype=np.uint16).reshape(4, 6) * 170
        payload = samples.astype(">u2").tobytes()
        # headers of 12, 13, 14 and 12 bytes; the third file has one byte after its payload
        files = [b"P5\n6 4\n4095\n" + payload, b"P5\n6  4\n4095\n" + payload,
                 b"P5\n#\n6 4\n4095\n" + payload + b"\x07", b"P5 6 4\r4095\n" + payload]
        source = ManifestFrameSource(self.sequence(tmp_path, files), root=tmp_path)
        parse, calls = frames._pnm_header, []
        monkeypatch.setattr(frames, "_pnm_header", lambda data: calls.append(1) or parse(data))
        for index in (0, 1, 2, 3, 1, 0):
            calls.clear()
            assert np.array_equal(source[index].samples, samples)
            assert len(calls) == 1

    def test_truncated_frame_after_a_full_one(self, tmp_path):
        header = b"P5\n64 48\n65535\n"  # 15 bytes
        payload = np.arange(64 * 48, dtype=">u2").tobytes()
        source = ManifestFrameSource(self.sequence(tmp_path, [header + payload, header + payload[:100]]),
                                     root=tmp_path)
        source[0]
        with pytest.raises(DatastoreError) as err:
            source[1]
        assert str(err.value) == f"{tmp_path / 'f1.pgm'}: payload has 100 bytes, need {len(payload)}"
        assert np.array_equal(source[0].samples, np.arange(64 * 48).reshape(48, 64))

    @pytest.mark.parametrize("max_value", [255, 4095])
    def test_an_image_never_shares_the_buffer(self, tmp_path, max_value):
        rng = np.random.default_rng(max_value)
        images = [GrayImage(rng.integers(0, max_value + 1, size=(6, 9)).astype(sample_dtype(max_value)),
                            max_value) for _ in range(2)]
        source = ManifestFrameSource(self.sequence(tmp_path, [write_pnm(i) for i in images]),
                                     root=tmp_path)
        first = source[0]
        kept = first.samples.copy()
        second = source[1]
        assert np.array_equal(first.samples, kept) and np.array_equal(second.samples, images[1].samples)
        assert not np.shares_memory(first.samples, second.samples)

    def test_steady_state_fetch_allocates_one_decoded_frame(self, tmp_path):
        rng = np.random.default_rng(26)
        images = [CfaImage(rng.integers(0, 4096, size=(512, 1024)).astype(np.uint16),
                           BayerPattern.RGGB, 4095) for _ in range(2)]
        files = [bytes(write_pnm(i)) for i in images]
        assert files[0].startswith(b"P5\n1024 512\n4095\n")  # 17 bytes: an odd-length header
        source = ManifestFrameSource(self.sequence(tmp_path, files), root=tmp_path,
                                     pattern=BayerPattern.RGGB)
        source[0]
        image, peak = fetch_peak_bytes(source, 1)
        assert np.array_equal(image.samples, images[1].samples)
        assert peak <= 1.25 * image.samples.nbytes + (64 << 10)

    def test_every_fetch_reads_an_aligned_payload(self, tmp_path, monkeypatch):
        samples = np.arange(24, dtype=np.uint16).reshape(4, 6) * 170
        payload = samples.astype(">u2").tobytes()
        # headers of 12, 13, 14 and 17 bytes, each file ending at its payload
        headers = [b"P5\n6 4\n4095\n", b"P5\n6  4\n4095\n", b"P5\n#\n6 4\n4095\n",
                   b"P5\n#odd\n6 4\n4095\n"]
        assert [len(header) for header in headers] == [12, 13, 14, 17]
        manifest = self.sequence(tmp_path, [header + payload for header in headers])
        addresses = []

        def spy(data, pattern=None):
            image = read_pnm(data, pattern)
            start = np.frombuffer(data, np.uint8).ctypes.data  # the address of data[0]
            addresses.append(start + len(data) - image.samples.nbytes)
            return image

        monkeypatch.setattr(datastore, "read_pnm", spy)
        for first in range(len(headers)):  # each file as a fresh source's first fetch
            source = ManifestFrameSource(manifest, root=tmp_path)
            kept = dict(vars(source))
            addresses.clear()
            for index in (first, *range(len(headers)), first):
                assert np.array_equal(source[index].samples, samples)
            assert [address % 2 for address in addresses] == [0] * (len(headers) + 2)
            # the fetches leave no placement state: only the buffer and the first frame change
            changed = {name for name, value in vars(source).items()
                       if name not in kept or value is not kept[name]}
            assert changed == {"_buffer", "_first"}


class TestAtomicWrites:
    def test_bytes_replace(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_concurrent_writers_leave_one_complete_payload(self, tmp_path):
        path = tmp_path / "blob.bin"
        payloads = [bytes([i]) * 100_000 for i in range(6)]
        start = threading.Barrier(len(payloads))
        errors = []

        def write(payload):
            start.wait()
            try:
                for _ in range(5):
                    atomic_write_bytes(path, payload)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_failed_rename_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(datastore.os, "replace", fail)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, "not bytes")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.bin"
        with open(plain, "wb") as fh:
            fh.write(b"x")
        atomic = tmp_path / "atomic.bin"
        atomic_write_bytes(atomic, b"x")
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


class TestTrackDistributions:
    @staticmethod
    def tracks_file(tmp_path, dist):
        return put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 detected 1 1 2 2 3.24:1.0 - - -\n"
            f"0 1 detected 1 1 2 2 {dist} - - -\n",
        )

    @pytest.mark.parametrize("dist", ["3.24:1.5", "3.24:-0.5", "3.24:0.7,3.25:0.7"])
    def test_invalid_distribution_reports_line(self, tmp_path, dist):
        message = {"3.24:1.5": r"probability for 3.24 out of \[0, 1\]: 1.5",
                   "3.24:-0.5": r"probability for 3.24 out of \[0, 1\]: -0.5",
                   "3.24:0.7,3.25:0.7": r"distribution probabilities sum to 1\.4\d* > 1"}[dist]
        with pytest.raises(DatastoreError, match=f":3: {message}$") as err:
            read_tracks(self.tracks_file(tmp_path, dist))
        assert err.value.lineno == 3

    def test_same_check_as_detections(self, tmp_path):
        # the sum slack that read_detections allows is allowed here too
        track = read_tracks(self.tracks_file(tmp_path, "3.24:0.5,3.25:0.5000000001"))[0]
        assert len(track.entries) == 2


class TestTextEncoding:
    def test_undecodable_record_file_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(f"{FORMAT_VERSION} detections\n0 3.24 1 1 2 2\n0 \xff\n".encode("latin-1"))
        with pytest.raises(DatastoreError, match=":3: not UTF-8 text: invalid start byte$") as err:
            read_detections(path)
        assert err.value.lineno == 3

    @pytest.mark.parametrize("line_end", ["\r", "\r\n", "\n"])
    def test_undecodable_byte_line_counts_every_line_end(self, tmp_path, line_end):
        path = tmp_path / "d.txt"
        text = line_end.join([f"{FORMAT_VERSION} detections", "0 3.24 1 1 2 2", "0 \xff", ""])
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DatastoreError, match=":3: not UTF-8 text: invalid start byte$") as err:
            read_detections(path)
        assert err.value.lineno == 3

    def test_undecodable_manifest(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\x80")
        with pytest.raises(DatastoreError, match=":1: not UTF-8 text: invalid start byte$"):
            read_manifest(path)

    def test_empty_manifest_message(self, tmp_path):
        with pytest.raises(DatastoreError, match="empty file"):
            read_manifest(put(tmp_path, "m.txt", ""))


class TestAsciiReals:
    @pytest.mark.parametrize("text, value", [("0.5", 0.5), (".7", 0.7), ("-2", -2.0),
                                             ("1e-3", 1e-3), ("+4.", 4.0)])
    def test_ascii_decimal_read(self, text, value):
        assert datastore.real_value(text) == value

    # Arabic-Indic, fullwidth and underscored numbers, each of which float() reads
    @pytest.mark.parametrize("text", ["\u0660.\u0665", "\uff11", "0.5_0", "3_0", "1_0e2"])
    def test_others_rejected(self, text):
        float(text)
        with pytest.raises(ValueError, match="ASCII decimal"):
            datastore.real_value(text)

    @pytest.mark.parametrize("kind, record, token", [
        ("annotations", "0 3.24 10 10 5_0 50 - false", "5_0"),
        ("annotations", "0 3.24 10 10 50 \u0665\u0660 \u0434 false", "\u0665\u0660"),
        ("detections", "0 3.24 \uff11 10 50 50", "\uff11"),
        ("detections", "0 3.24:0.2,5.19.1:0.5_0 10 10 50 50", "0.5_0"),
        ("tracks", "0 0 detected 10 1_0 50 50 3.24:0.9 - - -", "1_0"),
        ("tracks", "0 0 detected 10 10 50 50 3.24:\u0660.\u0669 - - -", "\u0660.\u0669"),
    ])
    def test_record_real_rejected_at_its_line(self, tmp_path, kind, record, token):
        path = tmp_path / "r.txt"
        path.write_text(f"{FORMAT_VERSION} {kind}\n# note\n{record}\n", encoding="utf-8")
        reader = {"annotations": read_annotations, "detections": read_detections,
                  "tracks": read_tracks}[kind]
        with pytest.raises(DatastoreError, match=re.escape(repr(token))) as err:
            reader(path)
        assert err.value.lineno == 3

    def test_line_with_other_text_still_reads(self, tmp_path):
        # associated data may hold any non-blank text; only the reals are screened
        data = "\u0434\u0430\u043d_\u0662"
        path = put(tmp_path, "d.txt", f"{FORMAT_VERSION} detections\n"
                   f"0 3.24:0.25 10 10 50.5 50 {data}\n0 3.24:0.25 10 10 50.5 50\n")
        first, second = read_detections(path)[0]
        assert first.associated_data == data and first.box == second.box


class TestKeyValueSettings:
    """``parse_key_values``, the one ``key = value`` parser, through the
    scenario spec reader."""

    def test_error_names_file_and_line(self):
        with pytest.raises(DatastoreError, match="^sc.cfg:3: unknown key 'colour'$") as err:
            harness.parse_scenario("frame_count = 3\n\ncolour = red\n", "sc.cfg")
        assert err.value.path == "sc.cfg" and err.value.lineno == 3

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_only_cr_and_lf_end_a_line(self, sep):
        # str.splitlines would also break at these, as a record file does not
        with pytest.raises(DatastoreError, match="^sc.cfg:2: unknown key 'colour'$"):
            harness.parse_scenario(f"frame_count = 3  # few{sep}many\ncolour = red\n", "sc.cfg")
        value = f"3{sep}bogus = 1"
        with pytest.raises(DatastoreError, match=re.escape(
                f"sc.txt:1: bad value for frame_count: {value!r}") + "$"):
            harness.parse_scenario(f"frame_count = {value}", "sc.txt")

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
    def test_line_ends(self, end):
        with pytest.raises(DatastoreError, match="^sc.cfg:3: unknown key 'colour'$"):
            harness.parse_scenario(f"frame_count = 3{end}{end}colour = red{end}", "sc.cfg")

    REJECTED = {
        "width = 640\nwidth = 320\n": "repeated key 'width'",
        "width = many\n": "bad value for width: 'many'",
        # Arabic-Indic "10", which int() reads
        "width = \u0661\u0660\n": "bad value for width: '\u0661\u0660'",
        "width = 1_0\n": "bad value for width: '1_0'",
        "width = +5\n": "bad value for width: '+5'",
        "width = -3\n": "bad value for width: '-3'",
        "width = 1.5\n": "bad value for width: '1.5'",
        "width = 0x10\n": "bad value for width: '0x10'",
        "width =\n": "bad value for width: ''",
        "width\n": "expected key = value, got 'width'",
        "= 640\n": "unknown key ''",
    }

    @pytest.mark.parametrize("text", list(REJECTED))
    def test_rejected(self, text):
        message = f"sc.cfg:{text.count(chr(10))}: {self.REJECTED[text]}"
        with pytest.raises(DatastoreError, match=f"^{re.escape(message)}$") as err:
            harness.parse_scenario(text, "sc.cfg")
        assert err.value.lineno == text.count("\n")

    def test_inline_comment(self):
        spec = harness.parse_scenario("frame_count = 12  # frames kept\n")
        assert spec == harness.ScenarioSpec(frame_count=12)


# --------------------------------------------------------------------------
# The memoized codec against the per-line oracle


CODES = [parse_code(c) for c in ("1", "2.4", "3.24", "3.1", "5.19.1")]
COORDS = st.one_of(
    st.floats(-1e15, 1e15, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 4e-7, -4e-7, 5e-7, 1e15, -1e15, 999999999999999.9]),
)


@st.composite
def boxes(draw):
    x0, x1, y0, y1 = (draw(COORDS) for _ in range(4))
    return BoundingBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


@st.composite
def distributions(draw):
    codes = draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=3, unique=True))
    share = 1.0 / len(codes)
    probs = st.one_of(st.floats(0.0, share), st.sampled_from([0.0, -0.0, 4e-7, share]))
    return {c: draw(probs) for c in codes}


def shared_or_copied(draw, pool):
    """One of the pool's dicts itself, or an equal but distinct copy."""
    dist = pool[draw(st.integers(0, len(pool) - 1))]
    return dict(dist) if draw(st.booleans()) else dist


def entry_fields(draw, pool):
    return dict(
        box=draw(boxes()),
        class_distribution=shared_or_copied(draw, pool),
        associated_data=draw(st.sampled_from([None, "40", "x"])),
        temporary=draw(st.sampled_from([None, True, False])),
    )


@st.composite
def detection_maps(draw):
    pool = draw(st.lists(distributions(), min_size=1, max_size=4))
    frames = draw(st.lists(st.integers(0, 60), max_size=5, unique=True))
    return {
        frame: [Detection(frame_index=frame, **entry_fields(draw, pool))
                for _ in range(draw(st.integers(1, 4)))]
        for frame in frames
    }


@st.composite
def track_lists(draw):
    pool = draw(st.lists(distributions(), min_size=1, max_size=4))
    tracks = []
    for track_id in draw(st.lists(st.integers(0, 99), max_size=4, unique=True)):
        frames = sorted(draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True)))
        entries = [
            Detection(
                frame_index=frame,
                source=Source.DETECTED if i == 0 else draw(st.sampled_from(Source)),
                ncc_degenerate=draw(st.booleans()),
                template_clipped=draw(st.booleans()),
                **entry_fields(draw, pool),
            )
            for i, frame in enumerate(frames)
        ]
        tracks.append(Track(id=track_id, entries=entries))
    return tracks


def bare_codes(path):
    """Rewrite each single-code ``code:1.000000`` token as the bare code."""
    text = path.read_text()
    path.write_text(re.sub(r"(?<= )(\d+(?:\.\d+)*):1\.000000(?= )", r"\1", text))


class TestCodecMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(detections=detection_maps(), bare=st.booleans())
    def test_detections(self, detections, bare):
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp, "ours.txt"), Path(tmp, "oracle.txt")
            write_detections(detections, ours)
            oracles.write_detections(detections, oracle)
            assert ours.read_bytes() == oracle.read_bytes()
            if bare:
                bare_codes(ours)
            got = read_detections(ours)
            assert got == oracles.read_detections(ours)
            # one detection read per one written, equal ones included
            assert {f: len(v) for f, v in got.items()} == {f: len(v) for f, v in detections.items()}

    @settings(max_examples=80, deadline=None)
    @given(tracks=track_lists(), bare=st.booleans())
    @example(tracks=[Track(id=0, entries=[Detection(
        frame_index=0, box=BoundingBox(-0.0, 5e-324, 1e15, 1e15),
        class_distribution={CODES[2]: 1.0})])], bare=True)
    def test_tracks(self, tracks, bare):
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp, "ours.txt"), Path(tmp, "oracle.txt")
            write_tracks(tracks, ours)
            oracles.write_tracks(tracks, oracle)
            assert ours.read_bytes() == oracle.read_bytes()
            if bare:
                bare_codes(ours)
            assert read_tracks(ours) == oracles.read_tracks(ours)


def detection_line(lineno, token):
    return f"{lineno} {token} 1 1 2 2\n"


def track_line(lineno, token):
    return f"0 {lineno} detected 1 1 2 2 {token} - - -\n"


class TestDistributionMemo:
    TOKENS = ["3.24:0.5,5.19.1:0.25", "2.4", "3.24:0.5,5.19.1:0.25", "2.4", "1:0.9",
              "3.24:0.5,5.19.1:0.25", "2.4:1.0"]

    @pytest.mark.parametrize("kind, line, read", [
        ("detections", detection_line, read_detections),
        ("tracks", track_line, read_tracks),
    ])
    def test_one_parse_per_distinct_token(self, tmp_path, monkeypatch, kind, line, read):
        calls = []
        parse = datastore._parse_distribution
        monkeypatch.setattr(datastore, "_parse_distribution",
                            lambda token, *rest: calls.append(token) or parse(token, *rest))
        body = "".join(line(i, token) for i, token in enumerate(self.TOKENS))
        records = read(put(tmp_path, "f.txt", f"{FORMAT_VERSION} {kind}\n{body}"))
        assert sorted(calls) == sorted(set(self.TOKENS))
        entries = records[0].entries if kind == "tracks" else [d for v in records.values() for d in v]
        assert [e.class_distribution for e in entries] == [
            oracles.parse_distribution(t) for t in self.TOKENS
        ]

    def test_one_format_per_distinct_dict(self, tmp_path, monkeypatch):
        calls = []
        fmt = datastore._format_distribution
        monkeypatch.setattr(datastore, "_format_distribution",
                            lambda dist: calls.append(dist) or fmt(dist))
        shared, other = Distribution({CODES[2]: 0.5}), Distribution({CODES[1]: 0.75})
        copy = Distribution(shared)  # equal, but a distinct object
        dists = [shared, other, shared, copy, shared, other]
        entries = [Detection(frame_index=f, box=BoundingBox(f, 0, f + 1, 1), class_distribution=d)
                   for f, d in enumerate(dists)]
        write_tracks([Track(id=0, entries=entries)], tmp_path / "t.txt")
        assert sorted(map(id, calls)) == sorted(map(id, [shared, other, copy]))
        calls.clear()
        write_detections({e.frame_index: [e] for e in entries}, tmp_path / "d.txt")
        assert sorted(map(id, calls)) == sorted(map(id, [shared, other, copy]))
        assert read_detections(tmp_path / "d.txt") == {e.frame_index: [e] for e in entries}

    @pytest.mark.parametrize("kind, line, read", [
        ("detections", detection_line, read_detections),
        ("tracks", track_line, read_tracks),
    ])
    @pytest.mark.parametrize("bad, message, at", [
        ("3.x:0.5", "bad class code: non-numeric segment 'x'", 12),  # first seen on line 12
        ("3.24:0.8,5.19.1:0.4", r"distribution probabilities sum to 1\.2", 6),  # first seen on line 6
    ], ids=["bad_code", "sum_above_1"])
    def test_errors_name_the_line_a_token_is_first_met(self, tmp_path, kind, line, read,
                                                        bad, message, at):
        valid = "3.24:0.5,5.19.1:0.25"
        tokens = {3: valid, 9: valid, at: bad, 12: bad}
        body = "".join(line(n, tokens.get(n, "2.4")) for n in range(2, 13))
        with pytest.raises(DatastoreError, match=f":{at}: {message}") as err:
            read(put(tmp_path, "f.txt", f"{FORMAT_VERSION} {kind}\n{body}"))
        assert err.value.lineno == at


# --------------------------------------------------------------------------
# The column-wise readers against the per-line readers, on broken files


INDEX_TOKENS = ["x", "-1", "٣", "1_0", "+7", "3.0", "0", "3", "7", "60"]
REAL_TOKENS = ["nan", "inf", "-inf", "٣.5", "1_0.5", "abc", "0x10", "1e400", "1e9", "-1e9", "0.5"]
DIST_TOKENS = ["3.x:0.5", "3.24:0.8,5.19.1:0.4", "3.24", "3.24:0.5", "3.24:-0.1", "3.24:0_5",
               "3.24:nan", "3.24:0.5,3.24:0.25", "3.24;0.5"]
OPT_FLAG_TOKENS = ["-", "true", "false", "maybe", "True"]
TRACK_FIELD_TOKENS = [
    INDEX_TOKENS, INDEX_TOKENS, ["guessed", "interpolated", "detected", "Detected"],
    *[REAL_TOKENS] * 4, DIST_TOKENS, ["-", "x", "40"], OPT_FLAG_TOKENS,
    ["-", "wobbly", "ncc_degenerate,", "template_clipped,ncc_degenerate", "ncc_degenerate,wobbly"],
]
DETECTION_FIELD_TOKENS = [INDEX_TOKENS, DIST_TOKENS, *[REAL_TOKENS] * 4, ["-", "x"],
                          OPT_FLAG_TOKENS]
CODE_TOKENS = ["3.x", "3..24", ".", "٣", "0", "3.24", "5.19.1", "2.4"]
ANNOTATION_FIELD_TOKENS = [INDEX_TOKENS, CODE_TOKENS, *[REAL_TOKENS] * 4, ["-", "x", "40"],
                           OPT_FLAG_TOKENS]


def mutate(draw, lines: list[str], field_tokens: list[list[str]]) -> list[str]:
    """``lines`` (data lines) with 1-3 faults drawn at random lines: a
    field replaced, dropped or added, or a track's entries all made
    interpolated."""
    rows = [line.split() for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["replace"] * 6 + ["drop", "add", "undetect"]))
        if kind == "replace":
            field = draw(st.integers(0, min(len(row), len(field_tokens)) - 1))
            row[field] = draw(st.sampled_from(field_tokens[field]))
        elif kind == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        elif kind == "add":
            row.append(draw(st.sampled_from(["-", "true", "extra"])))
        elif field_tokens is TRACK_FIELD_TOKENS and row:
            for other in rows:
                if other[:1] == row[:1] and len(other) > 2:
                    other[2] = "interpolated"
    return [" ".join(row) + "\n" for row in rows]


@st.composite
def broken_files(draw, kind):
    """A valid record file's text with faults, and maybe a non-ASCII
    comment (so the reals are read as real_value reads them) or blank lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f.txt")
        if kind == "tracks":
            tracks = draw(track_lists().filter(lambda ts: any(t.entries for t in ts)))
            write_tracks(tracks, path)
        else:
            detections = draw(detection_maps().filter(bool))
            write_detections(detections, path)
        header, *lines = path.read_text().splitlines(keepends=True)
    fields = TRACK_FIELD_TOKENS if kind == "tracks" else DETECTION_FIELD_TOKENS
    lines = mutate(draw, lines, fields)
    extra = draw(st.sampled_from(["", "# ¿comentario?\n", "\n  \n", "# a_b\n"]))
    lines.insert(draw(st.integers(0, len(lines))), extra)
    return header + "".join(lines)


@st.composite
def annotation_lists(draw):
    annotations = []
    for frame in draw(st.lists(st.integers(0, 60), min_size=1, max_size=4, unique=True)):
        signs = [GroundTruthSign(frame_index=frame, box=draw(boxes()), code=draw(st.sampled_from(CODES)),
                                 associated_data=draw(st.sampled_from([None, "40", "x"])),
                                 temporary=draw(st.booleans()))
                 for _ in range(draw(st.integers(0, 3)))]
        annotations.append(FrameAnnotations(frame_index=frame, signs=tuple(signs)))
    return annotations


@st.composite
def broken_annotation_files(draw):
    """A valid annotations file's text with 1-3 faults at random lines: a
    field replaced, dropped or added, a line repeated (a duplicate sign) or
    a frame marker put in; and maybe a non-ASCII or ``_`` comment or blank
    lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "a.txt")
        try:
            write_annotations(draw(annotation_lists()), path)
        except ValueError:  # two signs that would re-read as one
            assume(False)
        header, *lines = path.read_text().splitlines(keepends=True)
    rows = [line.split() for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace"] * 5 + ["drop", "add", "repeat", "marker"]))
        at = draw(st.integers(0, len(rows)))
        if kind == "marker" or not rows:
            rows.insert(at, [draw(st.sampled_from(INDEX_TOKENS))])
        elif kind == "repeat":
            rows.insert(at, list(draw(st.sampled_from(rows))))
        else:
            row = rows[min(at, len(rows) - 1)]
            if kind == "add" or not row:
                row.append(draw(st.sampled_from(["-", "true", "extra", "3.24"])))
            elif kind == "drop":
                del row[draw(st.integers(0, len(row) - 1))]
            else:
                field = draw(st.integers(0, min(len(row), len(ANNOTATION_FIELD_TOKENS)) - 1))
                row[field] = draw(st.sampled_from(ANNOTATION_FIELD_TOKENS[field]))
    lines = [" ".join(row) + "\n" for row in rows]
    extra = draw(st.sampled_from(["", "# ¿comentario?\n", "\n  \n", "# a_b\n"]))
    lines.insert(draw(st.integers(0, len(lines))), extra)
    return header + "".join(lines)


def outcome(read, path):
    try:
        return read(path)
    except DatastoreError as exc:
        return exc.path, exc.lineno, str(exc)


class TestColumnReadersMatchByLine:
    """Every broken file gives the per-line reader's path, line and message."""

    @settings(max_examples=300, deadline=None)
    @given(text=broken_files("tracks"))
    @example(text=f"{FORMAT_VERSION} tracks\n"
                  "0 5 detected 1 1 2 2 3.24 - - -\n"
                  "0 4 detected 1 1 2 2 3.24 - - -\n"
                  "0 6 guessed 1 1 2 2 3.24 - - -\n")
    @example(text=f"{FORMAT_VERSION} tracks\n"
                  "0 5 detected 1 1 2 2 3.24 - - x\n"
                  "0 6 guessed 1 1 2 2 3.24 - - -\n")
    @example(text=f"{FORMAT_VERSION} tracks\n"
                  "1 5 detected 1 1 2 2 3.24 - - -\n"
                  "0 6 interpolated 1 1 2 2 3.24 - - -\n")
    def test_tracks(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.txt")
            path.write_text(text, encoding="utf-8")
            assert outcome(read_tracks, path) == outcome(oracles.read_tracks_by_line, path)

    @settings(max_examples=300, deadline=None)
    @given(text=broken_files("detections"))
    @example(text=f"{FORMAT_VERSION} detections\n"
                  "0 3.24 1 1 2 2 - true\n"
                  "1 3.24 1 nan 2 2 - maybe\n"
                  "x 3.24 1 1 2 2\n")
    @example(text=f"{FORMAT_VERSION} detections\n"
                  "0 3.24 1 1 2 2 - true extra\n"
                  "0 3.x 1 1 2 2\n")
    def test_detections(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "d.txt")
            path.write_text(text, encoding="utf-8")
            assert outcome(read_detections, path) == outcome(oracles.read_detections_by_line, path)

    @settings(max_examples=300, deadline=None)
    @given(text=broken_annotation_files())
    @example(text=f"{FORMAT_VERSION} annotations\n"
                  "3\n"
                  "3 3.24 1 1 2 2 - maybe\n"
                  "3 3.24 1 1 2 2 - true\n"
                  "x\n")
    @example(text=f"{FORMAT_VERSION} annotations\n"
                  "3 3.24 1 1 2 2 - true\n"
                  "3 3.24 1 1 2 2 40 maybe\n"
                  "3 3.24 1 1 1_0 2 - true\n")
    @example(text=f"{FORMAT_VERSION} annotations\n"
                  "3 3.24 1 1 2 2 - true\n"
                  "4 3.x 1 1 nan 2 - maybe\n")
    def test_annotations(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "a.txt")
            path.write_text(text, encoding="utf-8")
            assert outcome(read_annotations, path) == outcome(oracles.read_annotations_by_line, path)

    @pytest.mark.parametrize("kind, read, oracle", [
        ("tracks", read_tracks, oracles.read_tracks_by_line),
        ("detections", read_detections, oracles.read_detections_by_line),
    ])
    @pytest.mark.parametrize("body", ["", "# only a comment\n", "\n\n"])
    def test_files_without_records(self, tmp_path, kind, read, oracle, body):
        path = put(tmp_path, "f.txt", f"{FORMAT_VERSION} {kind}\n{body}")
        assert read(path) == oracle(path) == ([] if kind == "tracks" else {})


def verdict(read):
    """The values ``read()`` gives, or that it rejected its input."""
    try:
        return repr(list(read()))  # repr: a nan equals a nan, and -0.0 is not 0.0
    except (ValueError, KeyError):
        return "rejected"


TOKENS = st.text(min_size=1, max_size=6).filter(lambda t: t.split() == [t])


class TestQuickFormsMatchTheirRules:
    """Each C-level column form accepts exactly the tokens its rule accepts,
    with equal values; a disagreement would leak a raw ``KeyError`` or
    ``ValueError`` from a reader."""

    FORMS = {
        "index": (datastore._digits, datastore.parse_index, st.one_of(
            st.sampled_from(INDEX_TOKENS + ["\u0663", "+7", "1_0", "\u00b2", "1" * 5000, "007", "٣٠"]),
            st.integers(0, 10**30).map(str), TOKENS)),
        "real": (datastore._floats, datastore.real_value, st.one_of(
            st.sampled_from(REAL_TOKENS + ["+4.", "-0", "Infinity", "nAn", "\u0661", "\uff11", "1e-400"]),
            st.floats().map(repr), TOKENS)),
        "opt_flag": (datastore._opt_flags, datastore._parse_opt_flag, st.one_of(
            st.sampled_from(OPT_FLAG_TOKENS + ["TRUE", "0", "1", "--"]), TOKENS)),
        "source": (datastore._sources, datastore._parse_source, st.one_of(
            st.sampled_from(["detected", "interpolated", "Detected", "DETECTED", "guessed"]), TOKENS)),
    }

    @pytest.mark.parametrize("kind", sorted(FORMS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_verdict_and_values(self, kind, data):
        quick, rule, tokens = self.FORMS[kind]
        column = tuple(data.draw(st.lists(tokens, max_size=5)))
        assert verdict(lambda: quick(column)) == verdict(lambda: map(rule, column))


class TestReReadBound:
    def test_one_read_per_check(self, tmp_path, monkeypatch):
        """The last records break one check each, in reverse field order:
        each read names a record one check to the left, and the flags fault,
        first in the file, is reported."""
        good = [f"{i // 100} {i % 100} detected 1.5 1 2 2 3.24:0.5 - - -\n" for i in range(19_992)]
        faults = ["900 0 detected 1 1 2 2 3.24 - - wobbly\n",  # flags
                  "900 1 detected 1 1 2 2 3.24 - maybe -\n",  # temporary
                  "900 2 detected 1 1 2 2 3.x - - -\n",  # distribution
                  "900 3 detected 1 1 nan 2 3.24 - - -\n",  # box
                  "900 4 guessed 1 1 2 2 3.24 - - -\n",  # source
                  "900 x detected 1 1 2 2 3.24 - - -\n",  # frame
                  "y 6 detected 1 1 2 2 3.24 - - -\n",  # id
                  "900 7 detected 1 1 2 2 3.24 - - - -\n"]  # 12 fields
        path = put(tmp_path, "t.txt", f"{FORMAT_VERSION} tracks\n" + "".join(good + faults))
        calls = []
        read = datastore._track_columns
        monkeypatch.setattr(datastore, "_track_columns",
                            lambda rows: calls.append(len(rows)) or read(rows))
        with pytest.raises(DatastoreError, match=r"unknown flags \['wobbly'\]$") as err:
            read_tracks(path)
        assert err.value.lineno == 1 + len(good) + 1
        assert outcome(oracles.read_tracks_by_line, path) == (str(path), err.value.lineno, str(err.value))
        assert len(calls) <= 10
        assert calls == sorted(calls, reverse=True) and len(set(calls)) == len(calls)
