"""Wire formats: annotations, detections, tracks, manifests, settings."""

import re
import stat
import sys
import tempfile
import threading
from pathlib import Path

import datastore_oracles as oracles
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icevision_kit import datastore

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
    InvalidDistribution,
    MalformedRecord,
    ManifestFrameSource,
    SequenceManifest,
    SidecarConfig,
    atomic_write_bytes,
    parse_sidecar,
    read_annotations,
    read_detections,
    read_manifest,
    read_tracks,
    write_annotations,
    write_detections,
    write_manifest,
    write_tracks,
)
from icevision_kit.frames import BayerPattern, GrayImage
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
        with pytest.raises(MalformedRecord) as err:
            read_annotations(path)
        assert err.value.lineno == 2
        assert "a.txt:2" in str(err.value)

    def test_bad_code_fatal_by_default(self, tmp_path):
        path = put(
            tmp_path,
            "a.txt",
            f"{FORMAT_VERSION} annotations\n0 3..24 0 0 10 10 - false\n",
        )
        with pytest.raises(MalformedRecord):
            read_annotations(path)

    def test_duplicate_rejected(self, tmp_path):
        line = "3 3.24 0.000000 0.000000 10.000000 10.000000 - false\n"
        path = put(tmp_path, "a.txt", f"{FORMAT_VERSION} annotations\n{line}{line}")
        with pytest.raises(MalformedRecord) as err:
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
        with pytest.raises(InvalidDistribution) as err:
            read_detections(path)
        assert err.value.lineno == 2

    def test_repeated_code_in_distribution(self, tmp_path):
        path = put(
            tmp_path,
            "d.txt",
            f"{FORMAT_VERSION} detections\n0 3.24:0.3,3.24:0.3 10 10 50 50\n",
        )
        with pytest.raises(InvalidDistribution):
            read_detections(path)

    def test_header_only_empty(self, tmp_path):
        path = put(tmp_path, "d.txt", f"{FORMAT_VERSION} detections\n")
        assert read_detections(path) == {}

    def test_duplicate_record_rejected(self, tmp_path):
        line = "0 3.24 10.000000 10.000000 50.000000 50.000000\n"
        path = put(tmp_path, "d.txt", f"{FORMAT_VERSION} detections\n{line}{line}")
        with pytest.raises(MalformedRecord):
            read_detections(path)

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
        with pytest.raises(MalformedRecord, match="box coordinate is not a number: '1O'") as err:
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
            with pytest.raises(MalformedRecord) as err:
                read_tracks(path)
            assert err.value.lineno == 5 and "3.x" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 detected 1 1 2 2 3.24 - -\n",
        )
        with pytest.raises(MalformedRecord) as err:
            read_tracks(path)
        assert err.value.lineno == 2

    def test_unknown_source(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 guessed 1 1 2 2 3.24 - - -\n",
        )
        with pytest.raises(MalformedRecord):
            read_tracks(path)

    def test_unknown_flag(self, tmp_path):
        path = put(
            tmp_path,
            "t.txt",
            f"{FORMAT_VERSION} tracks\n0 0 detected 1 1 2 2 3.24 - - wobbly\n",
        )
        with pytest.raises(MalformedRecord):
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
        with pytest.raises(MalformedRecord, match="track 0 frame indices not strictly") as err:
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
        with pytest.raises(ValueError, match="track id -1 is negative"):
            TestTracks.make_track(-1)

    def test_track_with_no_detected_entry(self):
        track = TestTracks.make_track(7)
        with pytest.raises(ValueError, match="track 7 has no detected entry"):
            Track(7, [e for e in track.entries if e.source is not Source.DETECTED])

    def test_annotations_for_a_negative_frame(self, tmp_path):
        with pytest.raises(ValueError, match="frame index must be non-negative, got -1"):
            write_annotations([FrameAnnotations(1), FrameAnnotations(-1)], tmp_path / "a.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("index", [-1, 1.9])
    def test_manifest_frame_that_is_not_a_non_negative_integer(self, tmp_path, index):
        message = f"frame index must be a non-negative integer, got {index!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_manifest(SequenceManifest("s", ((index, "a.pgm"),)), tmp_path / "m.txt")
        assert list(tmp_path.iterdir()) == []

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
        with pytest.raises(MalformedRecord) as err:
            read_annotations(path)
        assert err.value.lineno == 1

    def test_wrong_kind(self, tmp_path):
        path = put(tmp_path, "x.txt", f"{FORMAT_VERSION} detections\n")
        with pytest.raises(MalformedRecord):
            read_annotations(path)

    def test_wrong_version(self, tmp_path):
        path = put(tmp_path, "x.txt", "icevision-kit/v2 annotations\n")
        with pytest.raises(MalformedRecord):
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
            annotation_paths=("ann/a.txt",),
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
        manifest = read_manifest(path)
        assert manifest.sequence_id == "seq-1"
        assert manifest.annotation_paths == ("gt.txt",)
        assert manifest.frames == ((0, "f0.pnm"), (5, "f5.pnm"))

    def test_missing_sequence_directive(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n0\tf0.pnm\n")
        with pytest.raises(MalformedRecord):
            read_manifest(path)

    def test_non_increasing_frames(self, tmp_path):
        path = put(
            tmp_path,
            "m.txt",
            f"{FORMAT_VERSION} manifest\n# sequence: s\n5\ta.pnm\n5\tb.pnm\n",
        )
        with pytest.raises(MalformedRecord) as err:
            read_manifest(path)
        assert err.value.lineno == 4

    @pytest.mark.parametrize("sequence_id, frame_path, annotation_path", [
        ("a\nb", "f.pgm", "gt.txt"),
        ("s\r", "f.pgm", "gt.txt"),
        ("s", " f.pgm", "gt.txt"),
        ("s", "f.pgm\n", "gt.txt"),
        ("s", "f.pgm", "gt.txt "),
        ("s", "f.pgm", "a\rb.txt"),
    ])
    def test_write_rejects_what_would_not_re_read(self, tmp_path, sequence_id, frame_path,
                                                   annotation_path):
        manifest = SequenceManifest(sequence_id=sequence_id, frames=((0, frame_path),),
                                    annotation_paths=(annotation_path,))
        bad = next(v for v in (sequence_id, frame_path, annotation_path) if v != v.strip()
                   or "\n" in v or "\r" in v)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_manifest(manifest, tmp_path / "m.txt")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_sequence_directive(self, tmp_path):
        path = put(tmp_path, "m.txt",
                   f"{FORMAT_VERSION} manifest\n# sequence: a\n0\tf0.pnm\n# sequence: b\n")
        with pytest.raises(MalformedRecord, match="repeated '# sequence:'") as err:
            read_manifest(path)
        assert err.value.lineno == 4

    @pytest.mark.parametrize("directive, before", [("sequence", "0\tf0.pnm"),
                                                   ("annotation", "# sequence: s")])
    def test_empty_directive_reports_its_line(self, tmp_path, directive, before):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n{before}\n#  {directive}:  \n")
        with pytest.raises(MalformedRecord) as err:
            read_manifest(path)
        assert str(err.value) == f"{path}:3: empty '# {directive}:' directive"
        assert err.value.lineno == 3

    def test_other_comments_are_not_directives(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n# note: x\n# sequences:\n"
                   "# sequence : y\n#annotation:a:b\n# sequence:s\n")
        assert read_manifest(path) == SequenceManifest("s", (), ("a:b",))

    def test_missing_tab(self, tmp_path):
        path = put(tmp_path, "m.txt", f"{FORMAT_VERSION} manifest\n# sequence: s\n5 a.pnm\n")
        with pytest.raises(MalformedRecord) as err:
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
        with pytest.raises(InvalidDistribution) as err:
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
        with pytest.raises(MalformedRecord) as err:
            read_detections(path)
        assert err.value.lineno == 3

    def test_undecodable_manifest(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\x80")
        with pytest.raises(MalformedRecord):
            read_manifest(path)

    def test_empty_manifest_message(self, tmp_path):
        with pytest.raises(MalformedRecord, match="empty file"):
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
        with pytest.raises(MalformedRecord, match=re.escape(repr(token))) as err:
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
    def test_error_names_file_and_line(self):
        with pytest.raises(MalformedRecord) as err:
            parse_sidecar("pattern = RGGB\n\ncolour = red\n", "conv.cfg")
        assert err.value.path == "conv.cfg" and err.value.lineno == 3

    @pytest.mark.parametrize(
        "text",
        [
            "equalize = true\nequalize = false\n",  # repeated key
            "equalize = banana\n",
            "crop_keep = many\n",
            "crop_keep = \u0661\u0660\n",  # Arabic-Indic "10", which int() reads
            "crop_keep = 1_0\n",
            "crop_keep = +5\n",
            "crop_keep = 0\n",
            "pattern = XYZW\n",
            "pattern\n",
            "= RGGB\n",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(MalformedRecord) as err:
            parse_sidecar(text, "conv.cfg")
        assert err.value.lineno == text.count("\n")

    @pytest.mark.parametrize("word, value", [("1", True), ("Yes", True), ("on", True),
                                             ("0", False), ("FALSE", False), ("off", False)])
    def test_boolean_spellings(self, word, value):
        assert parse_sidecar(f"equalize = {word}\n").equalize is value

    def test_inline_comment(self):
        cfg = parse_sidecar("crop_keep = 12  # rows kept\n")
        assert cfg == SidecarConfig(crop_keep=12)


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
            try:
                expected = oracles.read_detections(ours)
            except oracles.DuplicateDetection as exc:
                with pytest.raises(MalformedRecord, match="duplicate") as err:
                    read_detections(ours)
                assert err.value.lineno == exc.lineno
            else:
                assert read_detections(ours) == expected

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
    @pytest.mark.parametrize("bad, error, at", [
        ("3.x:0.5", MalformedRecord, 12),  # first seen on line 12
        ("3.24:0.8,5.19.1:0.4", InvalidDistribution, 6),  # sums above 1, first seen on line 6
    ])
    def test_errors_name_the_line_a_token_is_first_met(self, tmp_path, kind, line, read,
                                                        bad, error, at):
        valid = "3.24:0.5,5.19.1:0.25"
        tokens = {3: valid, 9: valid, at: bad, 12: bad}
        body = "".join(line(n, tokens.get(n, "2.4")) for n in range(2, 13))
        with pytest.raises(error) as err:
            read(put(tmp_path, "f.txt", f"{FORMAT_VERSION} {kind}\n{body}"))
        assert err.value.lineno == at
