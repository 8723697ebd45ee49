"""End-to-end CLI behavior: exit codes and parity with library calls."""

import argparse
import dataclasses
import errno
import glob
import inspect
import os
import shlex
from dataclasses import replace
from pathlib import Path

import frame_oracles
import numpy as np
import pytest

from icevision_kit import cli, datastore, frames, harness, refinement, tracking
from icevision_kit.cli import EX_MALFORMED_INPUT, EX_MISSING_INPUT, EX_OK, EX_USAGE, main
from icevision_kit.core import NCC_MARGIN_PX, BoundingBox, Detection
from icevision_kit.datastore import FORMAT_VERSION
from icevision_kit.scoring import FpReason, ScoringConfig, score_dataset
from icevision_kit.taxonomy import parse_code
from icevision_kit.tracking import Track, TrackerConfig


def keyframe_detections():
    """A 40x40 box sliding right 3 px/frame, detected on keyframes 0/3/6."""
    out = {}
    for frame in (0, 3, 6):
        x = 100.0 + 3.0 * frame
        out[frame] = [
            Detection(
                frame_index=frame,
                box=BoundingBox(x, 100.0, x + 40.0, 140.0),
                class_distribution={parse_code("3.24"): 0.9},
            )
        ]
    return out


def write_fixture_files(tmp_path):
    det_path = tmp_path / "dets.txt"
    ann_path = tmp_path / "anns.txt"
    datastore.write_detections(keyframe_detections(), det_path)
    ann_path.write_text(
        f"{FORMAT_VERSION} annotations\n"
        "0 3.24 100 100 140 140 - false\n"
        "3 3.24 109 100 149 140 - false\n"
        "6 3.24 118 100 158 140 - false\n"
    )
    return det_path, ann_path


class TestScore:
    def test_happy_path(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        code = main(["score", "--detections", str(det_path), "--annotations", str(ann_path)])
        assert code == EX_OK
        out = capsys.readouterr().out
        assert out.startswith("total ")
        printed = float(out.split()[1])
        expected = score_dataset(
            datastore.read_detections(det_path),
            datastore.read_annotations(ann_path),
            ScoringConfig.offline(),
        ).total
        assert printed == pytest.approx(expected, abs=1e-6)

    def test_online_stage(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        code = main([
            "score", "--detections", str(det_path), "--annotations", str(ann_path),
            "--stage", "online",
        ])
        assert code == EX_OK
        printed = float(capsys.readouterr().out.split()[1])
        expected = score_dataset(
            datastore.read_detections(det_path),
            datastore.read_annotations(ann_path),
            ScoringConfig.online(),
        ).total
        assert printed == pytest.approx(expected, abs=1e-6)

    def test_output_files(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        report = tmp_path / "report.txt"
        records = tmp_path / "records.txt"
        code = main([
            "score", "--detections", str(det_path), "--annotations", str(ann_path),
            "--output", str(report), "--records", str(records),
        ])
        assert code == EX_OK
        assert "total" in report.read_text()
        assert records.read_text().startswith(f"{FORMAT_VERSION} score\n")

    def test_missing_detections(self, tmp_path, capsys):
        _, ann_path = write_fixture_files(tmp_path)
        code = main(["score", "--detections", str(tmp_path / "nope.txt"),
                     "--annotations", str(ann_path)])
        assert code == EX_MISSING_INPUT
        assert f"No such file or directory: {tmp_path / 'nope.txt'}" in capsys.readouterr().err

    def test_malformed_detections_reports_line(self, tmp_path, capsys):
        det_path = tmp_path / "bad.txt"
        det_path.write_text(f"{FORMAT_VERSION} detections\n0 3.24 10 10\n")
        _, ann_path = write_fixture_files(tmp_path)
        code = main(["score", "--detections", str(det_path), "--annotations", str(ann_path)])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "bad.txt:2" in err

    def test_distribution_entry_without_colon_is_malformed(self, tmp_path, capsys):
        det_path = tmp_path / "bad.txt"
        det_path.write_text(f"{FORMAT_VERSION} detections\n0 3.24:0.5,1.1 1 1 5 5\n")
        _, ann_path = write_fixture_files(tmp_path)
        code = main(["score", "--detections", str(det_path), "--annotations", str(ann_path)])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert err == f"icevision-kit: {det_path}:2: distribution entry missing ':': '1.1'\n"

    def test_unknown_flag(self, tmp_path, capsys):
        code = main(["score", "--wat"])
        assert code == EX_USAGE

    def test_no_command(self, capsys):
        assert main([]) == EX_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EX_OK
        assert "score" in capsys.readouterr().out


class TestTrackInterpRefine:
    def test_chain_matches_library(self, tmp_path, capsys):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        tracks_path = tmp_path / "tracks.txt"
        dense_path = tmp_path / "dense.txt"
        refined_path = tmp_path / "refined.txt"

        assert main(["track", "--detections", str(det_path),
                     "--output", str(tracks_path)]) == EX_OK
        assert main(["interp", "--tracks", str(tracks_path),
                     "--output", str(dense_path)]) == EX_OK
        assert main(["refine", "--tracks", str(dense_path),
                     "--output", str(refined_path)]) == EX_OK

        # identical composition through the library
        tracks = tracking.run_tracker(datastore.read_detections(det_path), tracking.TrackerConfig())
        dense = [tracking.densify_linear(t) for t in tracks]
        refined = refinement.refine_tracks(dense, refinement.LevelThresholds())
        expect_path = tmp_path / "expect.txt"
        datastore.write_detections(harness.group_by_frame(refined), expect_path)
        assert refined_path.read_bytes() == expect_path.read_bytes()

        rows = datastore.read_detections(refined_path)
        assert sorted(rows) == list(range(7))  # densified to every frame

    def test_track_flags_forwarded(self, tmp_path, capsys):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        out = tmp_path / "tracks.txt"
        assert main(["track", "--detections", str(det_path), "--output", str(out),
                     "--min-length", "5"]) == EX_OK
        assert datastore.read_tracks(out) == []  # 3-keyframe track dropped

    def test_interp_detections_format(self, tmp_path, capsys):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        tracks_path = tmp_path / "tracks.txt"
        flat_path = tmp_path / "flat.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        assert main(["interp", "--tracks", str(tracks_path), "--output", str(flat_path),
                     "--format", "detections"]) == EX_OK
        rows = datastore.read_detections(flat_path)
        assert sorted(rows) == list(range(7))

    def test_interp_detections_leave_out_ncc_flags(self, tmp_path, capsys):
        # flat frames make every NCC fill degenerate, so the entries carry a flag
        argv = self.ncc_fixture(tmp_path, range(7), b"P5\n200 160\n255\n" + bytes(200 * 160))
        assert main(argv + ["--format", "detections"]) == EX_OK
        manifest = datastore.read_manifest(tmp_path / "manifest.txt")
        source = datastore.ManifestFrameSource(manifest, root=tmp_path)
        tracks = datastore.read_tracks(tmp_path / "tracks.txt")
        flat = tracking.tracks_to_detections([tracking.densify_ncc(t, source) for t in tracks])
        assert sum(d.ncc_degenerate for d in flat) == 4
        # the file holds exactly the records of the same boxes without flags
        plain = [replace(d, ncc_degenerate=False, template_clipped=False) for d in flat]
        expect = tmp_path / "expect.txt"
        datastore.write_detections(harness.group_by_frame(plain), expect)
        assert (tmp_path / "out.txt").read_bytes() == expect.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--pattern", "RGGB"), ("--margin", "20")])
    def test_interp_ncc_flag_needs_manifest(self, tmp_path, capsys, flag, value):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        capsys.readouterr()
        code = main(["interp", "--tracks", str(tracks_path),
                     "--output", str(tmp_path / "x.txt"), flag, value])
        assert code == EX_USAGE
        captured = capsys.readouterr()
        assert f"error: {flag} requires --manifest" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "x.txt").exists()

    def test_interp_ncc_reads_frames_relative_to_the_manifest(self, tmp_path, capsys,
                                                              monkeypatch):
        # synth writes frame names relative to the render directory that holds the manifest
        spec = TestSynthAndBench.spec_file(tmp_path, frame_count=12, sign_count=2, width=160,
                                           height=120)
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--spec", str(spec), "--annotations", "gt.txt",
                     "--detections", "dets.txt", "--render-dir", "frames"]) == EX_OK
        assert main(["track", "--detections", "dets.txt", "--output", "tracks.txt"]) == EX_OK
        assert main(["interp", "--tracks", "tracks.txt", "--output", "dense.txt",
                     "--manifest", "frames/manifest.txt"]) == EX_OK
        source = datastore.ManifestFrameSource(
            datastore.read_manifest("frames/manifest.txt"), root=tmp_path / "frames")
        tracks = datastore.read_tracks("tracks.txt")
        dense = tracking.densify_ncc_tracks(tracks, source)
        assert sum(len(t.entries) for t in dense) > sum(len(t.entries) for t in tracks)
        datastore.write_tracks(dense, "expect.txt")
        assert (tmp_path / "dense.txt").read_bytes() == (tmp_path / "expect.txt").read_bytes()

    def test_interp_ncc_keeps_an_absolute_frame_path(self, tmp_path, capsys):
        pgm = b"P5\n200 160\n255\n" + bytes(range(200)) * 160
        argv = self.ncc_fixture(tmp_path, range(7), pgm)
        assert main(argv) == EX_OK
        relative = (tmp_path / "out.txt").read_bytes()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        frames_at = tuple((f, str(tmp_path / f"f{f}.pgm")) for f in range(7))
        datastore.write_manifest(datastore.SequenceManifest("s", frames_at),
                                 elsewhere / "manifest.txt")
        argv[argv.index("--manifest") + 1] = str(elsewhere / "manifest.txt")
        assert main(argv) == EX_OK
        assert (tmp_path / "out.txt").read_bytes() == relative

    def test_interp_ncc_flags_without_manifest_are_not_ignored(self, tmp_path, capsys,
                                                               monkeypatch):
        # without --manifest interp fills gaps linearly, which reads none of these
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        monkeypatch.chdir(tmp_path)
        main(["track", "--detections", str(det_path), "--output", "t.txt"])
        capsys.readouterr()
        code = main(["interp", "--tracks", "t.txt", "--output", "o.txt", "--margin", "nan",
                     "--pattern", "RGGB"])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert "requires --manifest" in err and "Traceback" not in err
        assert not (tmp_path / "o.txt").exists()

    @staticmethod
    def ncc_fixture(tmp_path, frame_indices, pgm):
        """Tracks over keyframes 0/3/6 plus a manifest naming ``frame_indices``,
        each frame written as the PGM bytes ``pgm``."""
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        entries = []
        for frame in frame_indices:
            (tmp_path / f"f{frame}.pgm").write_bytes(pgm)
            entries.append((frame, f"f{frame}.pgm"))
        manifest_path = tmp_path / "manifest.txt"
        datastore.write_manifest(
            datastore.SequenceManifest(sequence_id="s", frames=tuple(entries)), manifest_path
        )
        return ["interp", "--tracks", str(tracks_path), "--output", str(tmp_path / "out.txt"),
                "--manifest", str(manifest_path)]

    def test_interp_ncc_sample_above_maxval_is_malformed(self, tmp_path, capsys):
        pgm = b"P5\n200 160\n100\n" + bytes([200]) * (200 * 160)
        argv = self.ncc_fixture(tmp_path, range(7), pgm)
        assert main(argv + ["--pattern", "RGGB"]) == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "f0.pgm" in err and "Traceback" not in err

    def test_interp_ncc_repeated_sequence_directive(self, tmp_path, capsys):
        argv = self.ncc_fixture(tmp_path, range(7), b"P5\n200 160\n255\n" + bytes(200 * 160))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "# sequence: t\n")
        assert main(argv) == EX_MALFORMED_INPUT
        assert "manifest.txt:10: repeated '# sequence:'" in capsys.readouterr().err

    def test_interp_ncc_empty_directive(self, tmp_path, capsys):
        argv = self.ncc_fixture(tmp_path, range(7), b"P5\n200 160\n255\n" + bytes(200 * 160))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "# sequence:\n")
        assert main(argv) == EX_MALFORMED_INPUT
        assert "manifest.txt:10: empty '# sequence:' directive" in capsys.readouterr().err

    def test_interp_ncc_empty_annotation_line_is_a_comment(self, tmp_path, capsys):
        pgm = b"P5\n200 160\n255\n" + bytes(range(200)) * 160
        argv = self.ncc_fixture(tmp_path, range(7), pgm)
        assert main(argv) == EX_OK
        without = (tmp_path / "out.txt").read_bytes()
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "# annotation:\n")
        assert main(argv) == EX_OK
        assert (tmp_path / "out.txt").read_bytes() == without

    def test_interp_ncc_frame_missing_from_manifest(self, tmp_path, capsys):
        pgm = b"P5\n200 160\n255\n" + bytes(200 * 160)
        argv = self.ncc_fixture(tmp_path, (0, 1, 2, 4, 5, 6), pgm)
        assert main(argv) == EX_MISSING_INPUT
        err = capsys.readouterr().err
        assert "frame 3" in err and "manifest.txt" in err

    @staticmethod
    def two_track_fixture(tmp_path, frame_indices, pgm):
        """``ncc_fixture`` over two tracks: track 0 over keyframes 5 and 9,
        track 1 over keyframes 3 and 6; the per-track order reads frames 5-8
        before frames 3-5."""
        argv = TestTrackInterpRefine.ncc_fixture(tmp_path, frame_indices, pgm)
        code = {parse_code("3.24"): 0.9}
        tracks = [Track(0, [Detection(5, BoundingBox(60, 40, 100, 80), code),
                            Detection(9, BoundingBox(72, 40, 112, 80), code)]),
                  Track(1, [Detection(3, BoundingBox(54, 40, 94, 80), code),
                            Detection(6, BoundingBox(63, 40, 103, 80), code)])]
        datastore.write_tracks(tracks, tmp_path / "tracks.txt")
        return argv

    def test_interp_ncc_missing_frame_named_is_the_lowest_needed(self, tmp_path, capsys):
        pgm = b"P5\n200 120\n255\n" + bytes(range(200)) * 120
        argv = self.two_track_fixture(tmp_path, (3, 5, 6, 7, 9), pgm)
        assert main(argv) == EX_MISSING_INPUT
        err = capsys.readouterr().err
        assert "frame 4 " in err and "frame 8" not in err

    @pytest.mark.parametrize("pattern", [[], ["--pattern", "RGGB"]])
    def test_interp_ncc_size_judged_against_the_lowest_frame(self, tmp_path, capsys, pattern):
        argv = self.two_track_fixture(tmp_path, range(10), b"P5\n200 120\n255\n" + bytes(200 * 120))
        (tmp_path / "f3.pgm").write_bytes(b"P5\n160 120\n255\n" + bytes(160 * 120))
        assert main(argv + pattern) == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "f4.pgm: frame is 200x120, but" in err and "f3.pgm is 160x120" in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("pattern", [[], ["--pattern", "RGGB"]])
    def test_interp_ncc_frame_smaller_than_its_keyframe_is_malformed(self, tmp_path, capsys,
                                                                      pattern):
        argv = self.ncc_fixture(tmp_path, range(7), b"P5\n200 120\n255\n" + bytes(200 * 120))
        (tmp_path / "f1.pgm").write_bytes(b"P5\n60 40\n255\n" + bytes(60 * 40))
        assert main(argv + pattern) == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "f1.pgm" in err and "60x40" in err and "200x120" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    @staticmethod
    def tracks_with_probability(tmp_path, prob):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        text = tracks_path.read_text()
        tracks_path.write_text(text.replace("3.24:0.900000", f"3.24:{prob}", 1))
        return tracks_path

    @pytest.mark.parametrize("prob, argv", [
        ("1.5", ["interp", "--format", "detections"]),
        ("-0.5", ["refine"]),
    ])
    def test_probability_out_of_range_is_malformed(self, tmp_path, capsys, prob, argv):
        tracks_path = self.tracks_with_probability(tmp_path, prob)
        code = main(argv + ["--tracks", str(tracks_path), "--output", str(tmp_path / "o.txt")])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{tracks_path}:2:" in err and "Traceback" not in err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["interp"],
        ["refine"],
        ["tune", "--grid-specific", "0.5", "--grid-level2", "0.5", "--grid-top", "0.5"],
    ])
    def test_track_without_detected_entry_is_malformed(self, tmp_path, capsys, argv):
        _, ann_path = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        tracks_path.write_text(
            f"{FORMAT_VERSION} tracks\n"
            "0 0 detected 100 100 140 140 3.24:0.9 - - -\n"
            "# a comment line\n"
            "1 3 interpolated 109 100 149 140 3.24:0.9 - - -\n"
            "1 4 interpolated 110 100 150 140 3.24:0.9 - - -\n"
        )
        out = tmp_path / "o.txt"
        if argv[0] == "tune":
            argv = argv + ["--annotations", str(ann_path)]
        code = main(argv + ["--tracks", str(tracks_path), "--output", str(out)])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{tracks_path}:4: track 1 has no detected entry" in err and "Traceback" not in err
        assert not out.exists()

    def test_track_frames_out_of_order_are_malformed_at_their_line(self, tmp_path, capsys):
        tracks_path = tmp_path / "tracks.txt"
        tracks_path.write_text(
            f"{FORMAT_VERSION} tracks\n"
            "0 5 detected 100 100 140 140 3.24:0.9 - - -\n"
            "0 3 detected 100 100 140 140 3.24:0.9 - - -\n"
        )
        out = tmp_path / "o.txt"
        code = main(["interp", "--tracks", str(tracks_path), "--output", str(out)])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{tracks_path}:3: track 0 frame indices not strictly increasing (5 -> 3)" in err
        assert not out.exists()

    def test_equal_refined_detections_score_as_a_duplicate(self, tmp_path, capsys):
        # two same-box tracks whose averages pick one class refine to two equal records
        det_path, ann_path = tmp_path / "dets.txt", tmp_path / "anns.txt"
        det_path.write_text(f"{FORMAT_VERSION} detections\n"
                            "0 3.24.1:0.6,3.24.2:0.4 10 10 50 50\n"
                            "0 3.24.1:0.6,3.24.3:0.4 10 10 50 50\n")
        ann_path.write_text(f"{FORMAT_VERSION} annotations\n0 3.24.1 10 10 50 50 - false\n")
        tracks_path, refined_path = tmp_path / "tracks.txt", tmp_path / "refined.txt"
        assert main(["track", "--detections", str(det_path),
                     "--output", str(tracks_path)]) == EX_OK
        assert main(["refine", "--tracks", str(tracks_path),
                     "--output", str(refined_path)]) == EX_OK
        capsys.readouterr()
        assert main(["score", "--detections", str(refined_path),
                     "--annotations", str(ann_path)]) == EX_OK
        assert capsys.readouterr().out.splitlines()[0] == "total -0.700000"

        tracks = tracking.run_tracker(datastore.read_detections(det_path), tracking.TrackerConfig())
        refined = refinement.refine_tracks(tracks, refinement.LevelThresholds())
        report = score_dataset(harness.group_by_frame(refined),
                               datastore.read_annotations(ann_path), ScoringConfig.offline())
        assert report.total == pytest.approx(-0.7, abs=1e-12)
        assert [fp.reason for frame in report.frames for fp in frame.false_positives] == [
            FpReason.DUPLICATE
        ]

    def test_refine_wrong_kind_is_malformed(self, tmp_path, capsys):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        code = main(["refine", "--tracks", str(det_path),
                     "--output", str(tmp_path / "out.txt")])
        assert code == EX_MALFORMED_INPUT


class TestBadNumericFlag:
    @staticmethod
    def inputs(tmp_path):
        det_path, _ = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        assert main(["track", "--detections", str(det_path), "--output", str(tracks_path)]) == 0
        pgm = b"P5\n200 160\n255\n" + bytes(range(200)) * 160
        for frame in range(7):
            (tmp_path / f"f{frame}.pgm").write_bytes(pgm)
        manifest = datastore.SequenceManifest(
            sequence_id="s", frames=tuple((f, f"f{f}.pgm") for f in range(7))
        )
        datastore.write_manifest(manifest, tmp_path / "manifest.txt")
        spec = tmp_path / "scenario.cfg"
        spec.write_text("frame_count = 30\nwidth = 320\nheight = 240\nsign_count = 2\n")
        return {
            "track": ["track", "--detections", str(det_path), "--output", str(tmp_path / "o")],
            "synth": ["synth", "--spec", str(spec), "--annotations", str(tmp_path / "a"),
                      "--detections", str(tmp_path / "o")],
            "bench": ["bench", "--spec", str(spec)],
            "convert": ["convert", str(tmp_path / "f0.pgm"), "--output-dir", str(tmp_path / "o")],
            "interp": ["interp", "--tracks", str(tracks_path), "--output", str(tmp_path / "o"),
                       "--manifest", str(tmp_path / "manifest.txt")],
        }

    @pytest.mark.parametrize("command, flag, value", [
        ("track", "--iou-threshold", "1.5"),
        ("track", "--max-missed", "-1"),
        ("track", "--min-length", "0"),
        ("synth", "--drop", "2"),
        ("synth", "--stride", "0"),
        ("synth", "--jitter", "nan"),
        ("synth", "--seed", "-1"),
        ("bench", "--stride", "0"),
        ("bench", "--confusion", "-1"),
        ("bench", "--fp-per-frame", "nan"),
        ("synth", "--fp-per-frame", "1e19"),
        ("synth", "--jitter", "1e308"),
        ("bench", "--fp-per-frame", "1e19"),
        ("synth", "--fp-per-frame", "100.000001"),
        ("bench", "--fp-per-frame", "101"),
        ("bench", "--jitter", "1e308"),
        ("interp", "--margin", "-100"),
        ("interp", "--margin", "inf"),
        ("interp", "--margin", "nan"),
        ("convert", "--crop-keep", "0"),
        ("convert", "--crop-keep", "-3"),
        ("bench", "--budget-fps", "nan"),
        ("bench", "--budget-fps", "0"),
        ("bench", "--budget-fps", "-5"),
        # argparse's int and float read non-ASCII digits and "_"; no file or grid flag does
        ("track", "--max-missed", "\u0663"),
        ("track", "--min-length", "1_0"),
        ("track", "--iou-threshold", "\u0660.\u0665"),
        ("synth", "--stride", "+3"),
        ("synth", "--seed", "\uff17"),
        ("bench", "--drop", "\u0660.\u0665"),
        ("bench", "--fp-per-frame", "1_0"),
        ("bench", "--budget-fps", "1_0"),
        ("interp", "--margin", "\u0660.\u0665"),
        ("interp", "--margin", "2_0"),
        ("convert", "--crop-keep", "\u0663"),
        ("convert", "--jobs", "1_0"),
    ])
    def test_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command, flag, value):
        argv = self.inputs(tmp_path)[command]
        capsys.readouterr()
        assert main(argv + [flag, value]) == EX_USAGE
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_false_positive_rate_above_the_cap_never_reaches_the_mock_detector(
            self, tmp_path, capsys, monkeypatch, command):
        calls = []
        detect = harness.mock_detector
        monkeypatch.setattr(harness, "mock_detector", lambda *args: calls.append(args) or detect(*args))
        argv = self.inputs(tmp_path)[command]
        assert main(argv + ["--fp-per-frame", "100.000001"]) == EX_USAGE
        assert calls == []
        assert main(argv + ["--fp-per-frame", "100"]) == EX_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("command, flag, message", [
        ("synth", "--stride", "--stride: keyframe_stride must be positive, got -1"),
        ("track", "--max-missed", "--max-missed: max_missed_keyframes must be >= 0, got -1"),
        ("convert", "--crop-keep", "--crop-keep must be >= 1, got -1"),
    ])
    def test_ascii_negative_reaches_the_range_check(self, tmp_path, capsys, command, flag, message):
        argv = self.inputs(tmp_path)[command]
        capsys.readouterr()
        assert main(argv + [flag, "-1"]) == EX_USAGE
        assert message in capsys.readouterr().err


class TestConfigFlags:
    """Each config-backed flag sets the field its table names, with the
    field's default."""

    @pytest.mark.parametrize("argv, tables", [
        (["track", "--detections", "d", "--output", "o"], [cli.TRACKER_FLAGS]),
        (["synth", "--spec", "s", "--annotations", "a"], [cli.NOISE_FLAGS, cli.STRIDE_FLAGS]),
        (["bench", "--spec", "s"], [cli.NOISE_FLAGS, cli.STRIDE_FLAGS]),
    ])
    def test_flags_set_real_fields_with_their_defaults(self, argv, tables):
        parser = cli.build_parser()
        defaults = parser.parse_args(argv)
        for cls, flags in tables:
            fields = {f.name: f.default for f in dataclasses.fields(cls)}
            for flag, name in flags.items():
                assert name in fields
                assert getattr(defaults, name) == fields[name]
                assert type(getattr(defaults, name)) is type(fields[name])
                assert getattr(parser.parse_args(argv + [flag, "1"]), name) == 1

    def test_ncc_margin_default_is_the_core_constant(self, tmp_path, capsys, monkeypatch):
        args = cli.build_parser().parse_args(["interp", "--tracks", "t", "--output", "o"])
        assert args.margin is None  # so interp can tell a --margin given without --manifest
        margins = []
        densify = tracking.densify_ncc_tracks
        monkeypatch.setattr(tracking, "densify_ncc_tracks", lambda tracks, source, margin:
                            margins.append(margin) or densify(tracks, source, margin=margin))
        argv = TestTrackInterpRefine.ncc_fixture(tmp_path, range(7),
                                                 b"P5\n200 160\n255\n" + bytes(200 * 160))
        assert main(argv) == EX_OK
        margin = inspect.signature(tracking.densify_ncc).parameters["margin"].default
        assert margins == [margin] == [NCC_MARGIN_PX]


class TestFlagInventory:
    """Every subcommand's settable values, by argparse dest, so a flag added
    or removed is an edit here."""

    DESTS = {
        "score": ["detections", "annotations", "stage", "output", "records"],
        "track": ["detections", "output", "iou_threshold", "max_missed_keyframes",
                  "min_track_length"],
        "interp": ["tracks", "output", "manifest", "pattern", "margin", "out_format"],
        "refine": ["tracks", "output", "thresholds"],
        "tune": ["tracks", "annotations", "grid_specific", "grid_level2", "grid_top", "stage",
                 "output"],
        "convert": ["inputs", "output_dir", "pattern", "equalize", "crop_keep"],
        "synth": ["spec", "seed", "drop_probability", "fp_per_frame", "position_jitter_px",
                  "class_confusion", "keyframe_stride", "annotations", "detections",
                  "render_dir"],
        "bench": ["spec", "seed", "drop_probability", "fp_per_frame", "position_jitter_px",
                  "class_confusion", "keyframe_stride", "stage", "records"],
    }

    def test_each_subcommand_has_exactly_these_flags(self):
        parser = cli.build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {name: [a.dest for a in command._actions if a.dest != "help"]
                 for name, command in sub.choices.items()}
        assert dests == self.DESTS
        assert sum(map(len, dests.values())) == 50


class TestConfigFieldInventory:
    """Every config dataclass's fields, so a knob added to or removed from a
    config is an edit here."""

    FIELDS = {
        "TrackerConfig": ["iou_threshold", "keyframe_stride", "max_missed_keyframes",
                          "min_track_length"],
        "NoiseModel": ["drop_probability", "fp_per_frame", "position_jitter_px",
                       "class_confusion", "seed"],
        "ScenarioSpec": ["frame_count", "width", "height", "sign_count"],
        "ScoringConfig": ["stage"],
        "LevelThresholds": ["thr_specific", "thr_level2", "thr_top"],
        "PipelineConfig": ["tracker", "scoring"],
    }

    def test_each_config_has_exactly_these_fields(self):
        configs = (TrackerConfig, harness.NoiseModel, harness.ScenarioSpec, ScoringConfig,
                   refinement.LevelThresholds, harness.PipelineConfig)
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in configs}
        assert fields == self.FIELDS
        assert sum(map(len, fields.values())) == 19


class TestFlagsThatChangedNothing:
    """``score --jobs``, ``track --stride`` and ``convert --jobs`` were read
    by nothing, ``bench --budget-fps`` set what the competition fixes,
    ``convert --sidecar`` said again what ``convert``'s flags say,
    ``interp --method`` said again whether ``--manifest`` was given, and
    ``interp --root`` said again where the manifest is; all are gone."""

    @pytest.mark.parametrize("command, flag, value", [
        ("score", "--jobs", "2"), ("track", "--stride", "3"), ("bench", "--budget-fps", "5"),
        ("convert", "--sidecar", "f"), ("convert", "--jobs", "2"), ("interp", "--method", "ncc"),
        ("interp", "--method", "linear"), ("interp", "--root", ".")])
    def test_is_an_unrecognized_argument(self, tmp_path, capsys, command, flag, value):
        det_path, ann_path = write_fixture_files(tmp_path)
        spec = tmp_path / "scenario.cfg"
        spec.write_text("frame_count = 30\n")
        frame = tmp_path / "f.pgm"
        frame.write_bytes(frames.write_pnm(frames.CfaImage(np.zeros((4, 4), np.uint8))))
        (tmp_path / "f").write_text("pattern = RGGB\n")
        tracks = tmp_path / "tracks.txt"
        datastore.write_tracks(tracking.run_tracker(keyframe_detections(),
                                                    tracking.TrackerConfig()), tracks)
        argv = {"score": ["score", "--detections", str(det_path), "--annotations", str(ann_path)],
                "track": ["track", "--detections", str(det_path), "--output", str(tmp_path / "o")],
                "bench": ["bench", "--spec", str(spec), "--records", str(tmp_path / "o")],
                "convert": ["convert", str(frame), "--output-dir", str(tmp_path / "o")],
                "interp": ["interp", "--tracks", str(tracks), "--output", str(tmp_path / "o")]}
        assert main(argv[command] + [flag, value]) == EX_USAGE
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and flag in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "o").exists()


class TestNonAsciiDigits:
    @pytest.mark.parametrize("kind, record", [
        ("detections", "\u00b2 3.24 0 0 10 10"),
        ("detections", "\u0663 3.24 0 0 10 10"),
        ("detections", "0 3.\u00b2 0 0 10 10"),
        ("detections", "0 \u0663.1 0 0 10 10"),
        ("tracks", "\u00b2 0 detected 0 0 10 10 3.24:0.9 - - -"),
        ("tracks", "\u0663 0 detected 0 0 10 10 3.24:0.9 - - -"),
    ])
    def test_is_malformed_with_file_and_line(self, tmp_path, capsys, kind, record):
        # str.isdigit accepts "²" (which int() then rejects) and "٣" (read as 3)
        path = tmp_path / "in.txt"
        path.write_text(f"{FORMAT_VERSION} {kind}\n{record}\n", encoding="utf-8")
        command = "track" if kind == "detections" else "refine"
        flag = "--detections" if kind == "detections" else "--tracks"
        code = main([command, flag, str(path), "--output", str(tmp_path / "o")])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, text, lineno", [
        ("synth", "frame_count = \u0663\u0660\n", 1),  # Arabic-Indic "30", which int() reads
        ("bench", "frame_count = 30\nwidth = 3_20\n", 2),
    ])
    def test_settings_integers_are_ascii_decimal(self, tmp_path, capsys, command, text, lineno):
        settings = tmp_path / "settings.cfg"
        settings.write_text(text, encoding="utf-8")
        argv = [command, "--spec", str(settings)]
        argv += ["--annotations", str(tmp_path / "a")] if command == "synth" else []
        assert main(argv) == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{settings}:{lineno}:" in err and "Traceback" not in err


class TestAsciiReals:
    @staticmethod
    def tracks_and_annotations(tmp_path):
        det_path, ann_path = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        assert main(["track", "--detections", str(det_path), "--output", str(tracks_path)]) == 0
        return tracks_path, ann_path

    @pytest.mark.parametrize("data", [
        "\u0660.\u0665 0.5_0 .7\n".encode(),  # Arabic-Indic "0.5", which float() reads
        b"0.5 0.5_0 0.7\n",
        b"0.5 0.5\n",
        b"0.5 \xff 0.7\n",
    ])
    def test_bad_thresholds_file_is_malformed_at_line_one(self, tmp_path, capsys, data):
        tracks_path, _ = self.tracks_and_annotations(tmp_path)
        thr_path = tmp_path / "thr.txt"
        thr_path.write_bytes(data)
        out = tmp_path / "o.txt"
        code = main(["refine", "--tracks", str(tracks_path), "--output", str(out),
                     "--thresholds", str(thr_path)])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{thr_path}:1:" in err and "Traceback" not in err
        assert not out.exists()

    def test_ascii_thresholds_file_applies(self, tmp_path, capsys):
        tracks_path, _ = self.tracks_and_annotations(tmp_path)
        thr_path = tmp_path / "thr.txt"
        thr_path.write_text(".95 9.5e-1 1\n")  # above the track's 0.9 at every level
        out = tmp_path / "o.txt"
        assert main(["refine", "--tracks", str(tracks_path), "--output", str(out),
                     "--thresholds", str(thr_path)]) == EX_OK
        assert datastore.read_detections(out) == {}
        assert capsys.readouterr().out == "tracks 1\ndetections 0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--grid-specific", "\u0660.\u0665"),
        ("--grid-level2", "0.5_0"),
        ("--grid-top", "0.5,\u0661"),
    ])
    def test_grid_values_are_ascii_decimal(self, tmp_path, capsys, flag, value):
        tracks_path, ann_path = self.tracks_and_annotations(tmp_path)
        grid = {"--grid-specific": "0.5", "--grid-level2": "0.5", "--grid-top": "0.5", flag: value}
        code = main(["tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
                     *(part for item in grid.items() for part in item)])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert f"{flag} holds a non-number" in err and "Traceback" not in err

    @pytest.mark.parametrize("record, token", [
        ("0 3.24:0.5_0 1.0 2 30 40", "0.5_0"),
        ("0 3.24:0.5 \u0661.\u0660 2 30 40", "\u0661.\u0660"),  # Arabic-Indic "1.0"
        ("0 3.24:0.5 1.0 2 3_0 40", "3_0"),
        ("0 3.24:\u0660.\u0665 1.0 2 30 40 \u0434\u0430\u043d\u043d\u044b\u0435", "\u0660.\u0665"),
    ])
    def test_record_reals_are_ascii_decimal(self, tmp_path, capsys, record, token):
        path = tmp_path / "dets.txt"
        path.write_text(f"{FORMAT_VERSION} detections\n{record}\n", encoding="utf-8")
        code = main(["track", "--detections", str(path), "--output", str(tmp_path / "o")])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and repr(token) in err and "Traceback" not in err


class TestUnwritableOutput:
    def test_output_directory_is_a_usage_error(self, tmp_path, capsys):
        det_path, _ = write_fixture_files(tmp_path)
        target = tmp_path / "out"
        target.mkdir()
        assert main(["track", "--detections", str(det_path), "--output", str(target)]) == EX_USAGE
        assert f"Is a directory: {target}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("target", ["", "."])
    def test_output_naming_the_working_directory_is_a_usage_error(self, tmp_path, target):
        det_path, _ = write_fixture_files(tmp_path)
        assert main(["track", "--detections", str(det_path), "--output", target]) == EX_USAGE

    def test_missing_output_directory_names_the_target(self, tmp_path, capsys):
        det_path, _ = write_fixture_files(tmp_path)
        target = tmp_path / "nodir" / "tracks.txt"
        code = main(["track", "--detections", str(det_path), "--output", str(target)])
        assert code == EX_MISSING_INPUT
        err = capsys.readouterr().err
        assert str(target) in err and ".tmp" not in err

    def test_output_without_permission_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        det_path, _ = write_fixture_files(tmp_path)
        target = tmp_path / "tracks.txt"

        def refuse(src, dst):
            # what a rename into a directory the user may not write to raises
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(src), str(dst))

        monkeypatch.setattr(datastore.os, "replace", refuse)
        assert main(["track", "--detections", str(det_path), "--output", str(target)]) == EX_USAGE
        err = capsys.readouterr().err
        assert f"Permission denied: {target}" in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["anns.txt", "dets.txt"]


class TestTune:
    def test_singleton_grid(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        thr_path = tmp_path / "thr.txt"
        code = main([
            "tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
            "--grid-specific", "0.5", "--grid-level2", "0.5", "--grid-top", "0.5",
            "--output", str(thr_path),
        ])
        assert code == EX_OK
        out = capsys.readouterr().out
        assert "thresholds" in out and "score" in out
        thr = refinement.parse_thresholds(thr_path.read_text())
        assert thr == refinement.LevelThresholds(0.5, 0.5, 0.5)

    def test_tuned_thresholds_feed_refine(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        thr_path = tmp_path / "thr.txt"
        main(["tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
              "--grid-specific", "0.2,0.8", "--grid-level2", "0.5", "--grid-top", "0.5",
              "--output", str(thr_path)])
        refined_path = tmp_path / "refined.txt"
        assert main(["refine", "--tracks", str(tracks_path), "--output", str(refined_path),
                     "--thresholds", str(thr_path)]) == EX_OK
        assert datastore.read_detections(refined_path)

    def test_bad_grid_value(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        code = main(["tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
                     "--grid-specific", "x", "--grid-level2", "0.5", "--grid-top", "0.5"])
        assert code == EX_USAGE

    @pytest.mark.parametrize("value", [",", " , ", ""])
    def test_grid_without_a_value(self, tmp_path, capsys, value):
        _, ann_path = write_fixture_files(tmp_path)
        code = main(["tune", "--tracks", str(tmp_path / "none.txt"), "--annotations", str(ann_path),
                     "--grid-specific", value, "--grid-level2", "0.5", "--grid-top", "0.5"])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert "--grid-specific needs at least one value" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1", "inf"])
    @pytest.mark.parametrize("flag", ["--grid-specific", "--grid-level2", "--grid-top"])
    def test_grid_value_outside_unit_interval(self, tmp_path, capsys, flag, value):
        det_path, ann_path = write_fixture_files(tmp_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        grid = {"--grid-specific": "0.5", "--grid-level2": "0.5", "--grid-top": "0.5"}
        grid[flag] = f"0.5,{value}"
        code = main(["tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
                     *(part for item in grid.items() for part in item)])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert f"{flag} holds a value outside [0, 1]" in err and "Traceback" not in err


class TestTuneWritesWhatItScored:
    """The search scores each grid value exactly, and the thresholds file
    holds six decimals, so a grid value must read back as itself."""

    @staticmethod
    def one_track_files(tmp_path):
        """A one-entry track at 3.24.1 with probability 0.1234572 and the
        sign it finds."""
        entry = Detection(0, BoundingBox(100.0, 100.0, 140.0, 140.0),
                          {parse_code("3.24.1"): 0.1234572})
        tracks_path, ann_path = tmp_path / "tracks.txt", tmp_path / "anns.txt"
        datastore.write_tracks([Track(0, [entry])], tracks_path)
        ann_path.write_text(f"{FORMAT_VERSION} annotations\n0 3.24.1 100 100 140 140 - false\n")
        return tracks_path, ann_path

    @pytest.mark.parametrize("flag", ["--grid-specific", "--grid-level2", "--grid-top"])
    def test_a_value_with_more_than_six_decimals_is_a_usage_error(self, tmp_path, capsys, flag):
        tracks_path, ann_path = self.one_track_files(tmp_path)
        grid = {"--grid-specific": "0.5", "--grid-level2": "1", "--grid-top": "1"}
        grid[flag] = "0.5,0.1234574"
        thr_path = tmp_path / "thr.txt"
        code = main(["tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
                     *(part for item in grid.items() for part in item),
                     "--output", str(thr_path)])
        assert code == EX_USAGE
        captured = capsys.readouterr()
        assert (f"icevision-kit tune: error: {flag}: 0.1234574 has more than six decimals: "
                "it would be written as 0.123457\n") in captured.err
        assert captured.out == "" and not thr_path.exists()

    def test_a_value_with_more_than_six_decimals_is_refused_before_any_file_is_read(
            self, tmp_path, capsys):
        code = main(["tune", "--tracks", str(tmp_path / "none.txt"),
                     "--annotations", str(tmp_path / "none.txt"),
                     "--grid-specific", "0.1234574", "--grid-level2", "1", "--grid-top", "1"])
        assert code == EX_USAGE

    def test_tuned_score_is_the_score_of_the_written_thresholds(self, tmp_path, capsys):
        tracks_path, ann_path = self.one_track_files(tmp_path)
        thr_path, refined_path = tmp_path / "thr.txt", tmp_path / "refined.txt"
        assert main(["tune", "--tracks", str(tracks_path), "--annotations", str(ann_path),
                     "--grid-specific", "0.123457", "--grid-level2", "1", "--grid-top", "1",
                     "--output", str(thr_path)]) == EX_OK
        assert thr_path.read_text() == "0.123457 1.000000 1.000000\n"
        assert capsys.readouterr().out.splitlines()[1] == "score 1.300000"
        assert main(["refine", "--tracks", str(tracks_path), "--thresholds", str(thr_path),
                     "--output", str(refined_path)]) == EX_OK
        assert main(["score", "--detections", str(refined_path),
                     "--annotations", str(ann_path)]) == EX_OK
        assert capsys.readouterr().out.splitlines()[-1] == "total 1.300000"


class TestOutputsThatNameOnePath:
    """Two outputs of one run that name one path are a usage error naming
    both flags, found before any file is read or written."""

    CASES = {
        "score output and records": (["score", "--detections", "d", "--annotations", "a",
                                      "--output", "same.txt", "--records", "./same.txt"],
                                     "--output and --records"),
        "synth annotations and detections": (["synth", "--spec", "s", "--annotations", "x.txt",
                                              "--detections", "x.txt"],
                                             "--annotations and --detections"),
        "synth annotations and manifest": (["synth", "--spec", "s", "--annotations",
                                            "r/manifest.txt", "--render-dir", "r"],
                                           "--annotations and --render-dir"),
        "synth detections and manifest": (["synth", "--spec", "s", "--annotations", "a.txt",
                                           "--detections", "r/manifest.txt", "--render-dir",
                                           "r/"], "--detections and --render-dir"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_is_a_usage_error_naming_both_flags(self, tmp_path, capsys, monkeypatch, case):
        argv, flags = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EX_USAGE  # the inputs are missing: nothing was read
        captured = capsys.readouterr()
        assert f"icevision-kit {argv[0]}: error: {flags} both write " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_distinct_outputs_are_each_written(self, tmp_path, capsys):
        det_path, ann_path = write_fixture_files(tmp_path)
        report, records = tmp_path / "report.txt", tmp_path / "records.txt"
        assert main(["score", "--detections", str(det_path), "--annotations", str(ann_path),
                     "--output", str(report), "--records", str(records)]) == EX_OK
        assert report.read_text().startswith("   frame")
        assert records.read_text().startswith(f"{FORMAT_VERSION} score\n")


class TestOutputsThatNameOneEntry:
    """Two outputs of one run name one directory entry when their names match
    in one resolved directory, however each path is spelled; the entry's own
    name is not resolved, since a write replaces a symlink there.  Every input
    here is missing, so the error comes before any file is read or written."""

    # each pair's argv, its first output given as ``a`` and its second as ``b``,
    # and the two names the error gives; a render directory writes <dir>/manifest.txt
    PAIRS = {
        "score output, records": (
            lambda a, b: ["score", "--detections", "d", "--annotations", "g",
                          "--output", a("x"), "--records", b("x")], "--output", "--records"),
        "synth annotations, detections": (
            lambda a, b: ["synth", "--spec", "s", "--annotations", a("x"),
                          "--detections", b("x")], "--annotations", "--detections"),
        "synth annotations, manifest": (
            lambda a, b: ["synth", "--spec", "s", "--annotations", a("r/manifest.txt"),
                          "--render-dir", b("r")], "--annotations", "--render-dir"),
        "synth detections, manifest": (
            lambda a, b: ["synth", "--spec", "s", "--annotations", "g", "--detections",
                          a("r/manifest.txt"), "--render-dir", b("r")],
            "--detections", "--render-dir"),
        "synth annotations, render dir": (
            lambda a, b: ["synth", "--spec", "s", "--annotations", a("r"),
                          "--render-dir", b("r")], "--annotations", "--render-dir"),
        "synth detections, render dir": (
            lambda a, b: ["synth", "--spec", "s", "--annotations", "g", "--detections", a("r"),
                          "--render-dir", b("r")], "--detections", "--render-dir"),
        "convert inputs": (
            lambda a, b: ["convert", a("f.pgm"), b("f.pgm"), "--output-dir", "o"], None, None),
    }
    SPELLINGS = ["plain", "dot", "absolute", "up", "link"]

    @staticmethod
    def spell(tmp_path, way: str, path: str) -> str:
        """``path``, relative to the working directory ``tmp_path``, spelled ``way``."""
        return {"plain": path, "dot": f"./{path}", "absolute": str(tmp_path / path),
                "up": f"sub/../{path}", "link": f"link/{path}"}[way]

    @pytest.mark.parametrize("way", SPELLINGS)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_is_a_usage_error_naming_both(self, tmp_path, capsys, monkeypatch, pair, way):
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        # the first output is absolute, or plain when the second is: never one spelling
        first = "plain" if way == "absolute" else "absolute"
        build, first_name, second_name = self.PAIRS[pair]
        argv = build(lambda p: self.spell(tmp_path, first, p),
                     lambda p: self.spell(tmp_path, way, p))
        if first_name is None:  # convert: the two inputs name themselves
            first_name, second_name = argv[1], argv[2]
        assert main(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert f"icevision-kit {argv[0]}: error: {first_name} and {second_name} both write " \
            in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]

    def test_symlinked_file_is_replaced_not_followed(self, tmp_path, capsys, monkeypatch):
        det_path, ann_path = write_fixture_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gt2.txt").write_text("old\n")
        (tmp_path / "link.txt").symlink_to("gt2.txt")
        assert main(["score", "--detections", str(det_path), "--annotations", str(ann_path),
                     "--output", "link.txt", "--records", "gt2.txt"]) == EX_OK
        assert not (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "link.txt").read_text().startswith("   frame")
        assert (tmp_path / "gt2.txt").read_text().startswith(f"{FORMAT_VERSION} score\n")

    @pytest.mark.parametrize("flag, frame_path", [("--annotations", "r/frame_000000.pgm"),
                                                  ("--detections", "./r/frame_000002.pgm")])
    def test_synth_output_at_a_rendered_frame(self, tmp_path, capsys, monkeypatch, flag,
                                              frame_path):
        spec = TestSynthAndBench.spec_file(tmp_path, frame_count=3, sign_count=1, width=320,
                                           height=240)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r").mkdir()
        outputs = {"--annotations": "ann.txt", flag: frame_path}
        argv = ["synth", "--spec", str(spec), "--render-dir", "r"]
        assert main(argv + [arg for item in outputs.items() for arg in item]) == EX_USAGE
        captured = capsys.readouterr()
        assert f"error: {flag} and --render-dir both write r/frame_00000" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "scenario.cfg"]
        assert list((tmp_path / "r").iterdir()) == []

    def test_synth_frame_check_resolves_the_render_dir_once(self, tmp_path, capsys,
                                                            monkeypatch):
        calls = []
        realpath = os.path.realpath
        monkeypatch.setattr(os.path, "realpath", lambda p: calls.append(p) or realpath(p))
        counts = []
        for frame_count in (3, 30):
            spec = TestSynthAndBench.spec_file(tmp_path, frame_count, sign_count=0)
            calls.clear()
            assert main(["synth", "--spec", str(spec), "--annotations", str(tmp_path / "a.txt"),
                         "--render-dir", str(tmp_path / f"r{frame_count}")]) == EX_OK
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4

    def test_synth_render_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        spec = TestSynthAndBench.spec_file(tmp_path, frame_count=3, sign_count=1, width=320,
                                           height=240)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        assert main(["synth", "--spec", str(spec), "--annotations", "a2.txt",
                     "--detections", "d2.txt", "--render-dir", "afile"]) == EX_USAGE
        assert "File exists: afile" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "scenario.cfg"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("flag", ["--annotations", "--detections"])
    def test_synth_output_at_the_render_dir(self, tmp_path, capsys, monkeypatch, flag):
        spec = TestSynthAndBench.spec_file(tmp_path, frame_count=3, sign_count=1, width=320,
                                           height=240)
        monkeypatch.chdir(tmp_path)
        outputs = {"--annotations": "a.txt", flag: "r"}
        argv = ["synth", "--spec", str(spec), "--render-dir", "r"]
        assert main(argv + [arg for item in outputs.items() for arg in item]) == EX_USAGE
        captured = capsys.readouterr()
        assert f"error: {flag} and --render-dir both write r\n" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]


class TestFlagsCheckedBeforeFiles:
    """A misused flag is a usage error even when the files it would act on
    are missing or malformed."""

    MISUSE = {
        "interp without manifest": ["interp", "--output", "o", "--pattern", "RGGB"],
        "interp margin without manifest": ["interp", "--output", "o", "--margin", "20"],
        "interp bad margin": ["interp", "--output", "o", "--manifest", "m", "--margin", "nan"],
        "tune bad grid": ["tune", "--annotations", "a", "--grid-specific", "0.5",
                          "--grid-level2", "0.5", "--grid-top", "2"],
    }

    @pytest.mark.parametrize("tracks", [None, f"{FORMAT_VERSION} tracks\nnot a record\n"],
                             ids=["missing", "malformed"])
    @pytest.mark.parametrize("misuse", MISUSE)
    def test_is_a_usage_error(self, tmp_path, capsys, monkeypatch, misuse, tracks):
        monkeypatch.chdir(tmp_path)
        if tracks is not None:
            (tmp_path / "t").write_text(tracks)
        assert main(self.MISUSE[misuse] + ["--tracks", "t"]) == EX_USAGE
        err = capsys.readouterr().err
        assert "error: --" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if tracks is None else ["t"])


class TestUsageErrorsNameTheSubcommand:
    """A usage error, whether a handler's check or an argument argparse does
    not know, prints the subcommand's usage line and prog, not the top
    level's."""

    @pytest.mark.parametrize("argv", [
        ["interp", "--tracks", "t", "--output", "o", "--root", "."],
        ["convert", "a.pgm", "--output-dir", "o", "--crop-keep", "0"],
        ["track", "--detections", "d", "--output", "o", "--iou-threshold", "2"],
        ["tune", "--tracks", "t", "--annotations", "a", "--grid-specific", "0.5,x",
         "--grid-level2", "0.5", "--grid-top", "0.5"],
        ["convert", "a/f.pgm", "b/f.pgm", "--output-dir", "o"],
        ["convert", "a.pgm", "--output-dir", "o", "--jobs", "2"],
    ])
    def test_usage_line_and_prog_are_the_subcommands(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: icevision-kit {argv[0]} ")
        assert f"\nicevision-kit {argv[0]}: error: " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestNulByteInPath:
    """A path argument holding a NUL byte, input or output, is a usage error
    under the subcommand's usage line that names the argument, before any
    file is read or written."""

    RUNS = {
        "track input": (["track", "--detections", "a\0b", "--output", "o.txt"], "--detections"),
        "track output": (["track", "--detections", "dets.txt", "--output", "o\0.txt"], "--output"),
        "score records": (["score", "--detections", "dets.txt", "--annotations", "anns.txt",
                           "--records", "r\0"], "--records"),
        "synth spec": (["synth", "--spec", "s\0.cfg", "--annotations", "o.txt"], "--spec"),
        "convert input": (["convert", "x\0.pgm", "--output-dir", "rgb"], "inputs"),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_is_a_usage_error_naming_the_argument(self, tmp_path, capsys, monkeypatch, run):
        write_fixture_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv, name = self.RUNS[run]
        assert main(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: icevision-kit {argv[0]} ")
        assert f"\nicevision-kit {argv[0]}: error: {name}: NUL byte in " in captured.err
        assert "\0" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["anns.txt", "dets.txt"]


class TestConvert:
    def test_constant_cfa_to_constant_ppm(self, tmp_path, capsys):
        src = tmp_path / "f0.pgm"
        mosaic = frames.CfaImage(samples=np.full((4, 4), 60, dtype=np.uint8))
        src.write_bytes(frames.write_pnm(mosaic))
        out_dir = tmp_path / "out"
        assert main(["convert", str(src), "--output-dir", str(out_dir)]) == EX_OK
        produced = out_dir / "f0.ppm"
        assert str(produced) in capsys.readouterr().out
        rgb = produced.read_bytes()
        assert rgb.startswith(b"P6\n4 4\n255\n")
        assert set(rgb.split(b"\n", 3)[3]) == {60}

    def test_pipeline_matches_manual_composition(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        samples = rng.integers(0, 256, size=(8, 6), dtype=np.uint8)
        src = tmp_path / "noisy.pgm"
        src.write_bytes(frames.write_pnm(frames.CfaImage(samples=samples)))
        out_dir = tmp_path / "out"
        assert main(["convert", str(src), "--output-dir", str(out_dir),
                     "--pattern", "GRBG", "--equalize", "--crop-keep", "6"]) == EX_OK
        manual = frames.write_ppm(
            frames.equalize_rgb(
                frames.crop_rows(
                    frames.demosaic_bilinear(
                        frames.CfaImage(samples=samples, pattern=frames.BayerPattern.GRBG)
                    ),
                    6,
                )
            )
        )
        assert (out_dir / "noisy.ppm").read_bytes() == manual

    @pytest.mark.parametrize("keep", [4, 5, 7, 256, 257, 300])
    def test_crop_keep_matches_float_oracle(self, tmp_path, capsys, keep):
        # convert demosaics only the kept rows plus one; the bytes must equal
        # the float64 demosaic of the whole frame, cropped afterwards; from
        # keep 256 on, those rows end inside the second band of the demosaic
        rng = np.random.default_rng(keep)
        height = 7 if keep <= 7 else 2 * frames._DEMOSAIC_BAND + 3
        cfa = frames.CfaImage(samples=rng.integers(0, 4096, size=(height, 6)).astype(np.uint16),
                              pattern=frames.BayerPattern.GBRG, max_value=4095)
        src = tmp_path / "raw.pgm"
        src.write_bytes(frames.write_pnm(cfa))
        out_dir = tmp_path / "out"
        assert main(["convert", str(src), "--output-dir", str(out_dir),
                     "--pattern", "GBRG", "--crop-keep", str(keep)]) == EX_OK
        oracle = frames.write_ppm(frames.crop_rows(frame_oracles.demosaic_bilinear(cfa), keep))
        assert (out_dir / "raw.ppm").read_bytes() == oracle

    def test_pattern_defaults_to_rggb(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        src = tmp_path / "f.pgm"
        src.write_bytes(frames.write_pnm(frames.CfaImage(rng.integers(0, 256, (4, 4), np.uint8))))
        outputs = {}
        for pattern in ([], ["--pattern", "RGGB"], ["--pattern", "BGGR"]):
            out_dir = tmp_path / "_".join(["out", *pattern])
            assert main(["convert", str(src), "--output-dir", str(out_dir), *pattern]) == EX_OK
            outputs[tuple(pattern)] = (out_dir / "f.ppm").read_bytes()
        assert outputs[()] == outputs[("--pattern", "RGGB")] != outputs[("--pattern", "BGGR")]

    def test_bad_magic(self, tmp_path, capsys):
        src = tmp_path / "color.ppm"
        src.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        code = main(["convert", str(src), "--output-dir", str(tmp_path / "out")])
        assert code == EX_MALFORMED_INPUT

    @pytest.mark.parametrize("header", [b"P5\n+2 2\n255\n", b"P5\n2 2\n2_55\n"])
    def test_lenient_header_number(self, tmp_path, capsys, header):
        src = tmp_path / "f.pgm"
        src.write_bytes(header + bytes(4))
        code = main(["convert", str(src), "--output-dir", str(tmp_path / "out")])
        assert code == EX_MALFORMED_INPUT
        assert "f.pgm" in capsys.readouterr().err

    def test_comment_after_max_value_runs_to_end_of_file(self, tmp_path, capsys):
        # the comment's line end is the separator; without one, no sample follows
        src = tmp_path / "f.pgm"
        src.write_bytes(b"P5 2 2 255#" + bytes([1, 2, 3, 4]))
        code = main(["convert", str(src), "--output-dir", str(tmp_path / "out")])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "f.pgm" in err and "payload has 0 bytes, need 4" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "f.ppm").exists()

    @pytest.mark.parametrize("names", [("a/f.pgm", "b/f.pgm"), ("f.pgm", "f.pgm"),
                                       ("a/f.pgm", "g.pgm", "b/f.raw")])
    def test_inputs_whose_outputs_collide(self, tmp_path, capsys, names):
        inputs = [tmp_path / name for name in names]
        for i, path in enumerate(inputs):
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(frames.write_pnm(frames.CfaImage(np.full((4, 4), i, np.uint8))))
        out_dir = tmp_path / "out"
        code = main(["convert", *map(str, inputs), "--output-dir", str(out_dir)])
        assert code == EX_USAGE
        captured = capsys.readouterr()
        first, second = str(inputs[0]), str(inputs[-1])
        assert f"{first} and {second} both write {out_dir / 'f.ppm'}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out_dir.exists()

    def test_missing_input(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "ghost.pgm"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EX_MISSING_INPUT


class TestSynthAndBench:
    @staticmethod
    def spec_file(tmp_path, frame_count=90, sign_count=3, width=640, height=480):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            f"frame_count={frame_count}\nwidth={width}\nheight={height}\n"
            f"sign_count={sign_count}\n"
        )
        return path

    def test_synth_writes_annotations_and_detections(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        ann = tmp_path / "ann.txt"
        det = tmp_path / "det.txt"
        code = main(["synth", "--spec", str(spec), "--seed", "4",
                     "--annotations", str(ann), "--detections", str(det)])
        assert code == EX_OK
        annotations = datastore.read_annotations(ann)
        assert annotations and annotations[0].frame_index == 0
        detections = datastore.read_detections(det)
        assert detections and all(f % 3 == 0 for f in detections)

    def test_synth_deterministic(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["synth", "--spec", str(spec), "--seed", "4", "--annotations", str(a)])
        main(["synth", "--spec", str(spec), "--seed", "4", "--annotations", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_synth_render_then_ncc_interp(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, frame_count=30, sign_count=2, width=320, height=240)
        ann = tmp_path / "ann.txt"
        det = tmp_path / "det.txt"
        render = tmp_path / "render"
        assert main(["synth", "--spec", str(spec), "--seed", "6",
                     "--annotations", str(ann), "--detections", str(det),
                     "--render-dir", str(render)]) == EX_OK
        manifest = datastore.read_manifest(render / "manifest.txt")
        assert len(manifest.frames) == 30
        assert all((render / name).exists() for _, name in manifest.frames)

        tracks_path = tmp_path / "tracks.txt"
        dense_path = tmp_path / "dense.txt"
        main(["track", "--detections", str(det), "--output", str(tracks_path)])
        code = main(["interp", "--tracks", str(tracks_path), "--output", str(dense_path),
                     "--manifest", str(render / "manifest.txt")])
        assert code == EX_OK
        assert datastore.read_tracks(dense_path)

    @pytest.mark.parametrize("name", ["a.txt ", " a.txt", "a\nb.txt", "a\rb.txt"])
    def test_synth_manifest_holds_no_annotations_path(self, tmp_path, capsys, monkeypatch,
                                                      name):
        # the annotations reach each command as a file of their own, so any
        # path the file system takes is written, and the manifest never names it
        spec = self.spec_file(tmp_path, frame_count=3, sign_count=2, width=320, height=240)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["synth", "--spec", str(spec), "--annotations", name,
                     "--detections", "det.txt", "--render-dir", "render"]) == EX_OK
        assert datastore.read_annotations(work / name)
        assert (work / "render" / "manifest.txt").read_text() == (
            f"{FORMAT_VERSION} manifest\n# sequence: synth-0\n"
            "0\tframe_000000.pgm\n1\tframe_000001.pgm\n2\tframe_000002.pgm\n")

    def test_bench_runs_and_writes_records(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, frame_count=60)
        records = tmp_path / "bench.txt"
        code = main(["bench", "--spec", str(spec), "--seed", "2",
                     "--records", str(records)])
        assert code == EX_OK
        out = capsys.readouterr().out
        assert "frames per second" in out
        assert records.read_text().startswith("icevision-kit/v1 bench\n")

    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_zero_frame_count_is_malformed(self, tmp_path, capsys, command):
        spec = self.spec_file(tmp_path, frame_count=0)
        argv = [command, "--spec", str(spec)]
        if command == "synth":
            argv += ["--annotations", str(tmp_path / "ann.txt")]
        assert main(argv) == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert err == f"icevision-kit: {spec}: frame_count, width, and height must be positive\n"
        assert not (tmp_path / "ann.txt").exists()

    def test_bench_malformed_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("width=640\n")
        assert main(["bench", "--spec", str(spec)]) == EX_MALFORMED_INPUT

    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_frame_smaller_than_largest_sign_is_malformed(self, tmp_path, capsys, command):
        spec = self.spec_file(tmp_path, frame_count=30, width=30, height=30)
        argv = [command, "--spec", str(spec)]
        if command == "synth":
            argv += ["--annotations", str(tmp_path / "ann.txt")]
        assert main(argv) == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "scenario.cfg" in err and "60 px" in err and "Traceback" not in err

    def test_repeated_spec_key_names_line(self, tmp_path, capsys):
        spec = tmp_path / "scenario.cfg"
        spec.write_text("frame_count = 30\nframe_count = 40\n")
        assert main(["bench", "--spec", str(spec)]) == EX_MALFORMED_INPUT
        assert "scenario.cfg:2:" in capsys.readouterr().err


class TestInputPaths:
    """Each input is opened once, by the code that reads it: a missing input
    exits 2, and one whose path runs through a regular file or a symlink
    loop exits 64, as that path does as an output; the message names it."""

    GRID = ["--grid-specific", "0.5", "--grid-level2", "0.5", "--grid-top", "0.5"]
    # P is the input probed; every other input is valid
    READERS = {
        "score detections": ["score", "--detections", "P", "--annotations", "anns.txt"],
        "score annotations": ["score", "--detections", "dets.txt", "--annotations", "P"],
        "track detections": ["track", "--detections", "P", "--output", "o.txt"],
        "interp tracks": ["interp", "--tracks", "P", "--output", "o.txt"],
        "interp manifest": ["interp", "--tracks", "t.txt", "--output", "o.txt",
                            "--manifest", "P"],
        "refine tracks": ["refine", "--tracks", "P", "--output", "o.txt"],
        "refine thresholds": ["refine", "--tracks", "t.txt", "--output", "o.txt",
                              "--thresholds", "P"],
        "tune tracks": ["tune", "--tracks", "P", "--annotations", "anns.txt", *GRID],
        "tune annotations": ["tune", "--tracks", "t.txt", "--annotations", "P", *GRID],
        "convert input": ["convert", "P", "--output-dir", "rgb"],
        "synth spec": ["synth", "--spec", "P", "--annotations", "o.txt"],
        "bench spec": ["bench", "--spec", "P"],
    }
    PATHS = {
        "missing": ("nope.txt", EX_MISSING_INPUT, "No such file or directory"),
        "through a file": ("afile/x.txt", EX_USAGE, "Not a directory"),
        "through a loop": ("loop/x.txt", EX_USAGE, "Too many levels of symbolic links"),
    }

    @staticmethod
    def workdir(tmp_path, monkeypatch) -> None:
        write_fixture_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["track", "--detections", "dets.txt", "--output", "t.txt"]) == EX_OK
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "loop").symlink_to("loop")

    @pytest.mark.parametrize("kind", PATHS)
    @pytest.mark.parametrize("reader", READERS)
    def test_exit_code_names_the_input(self, tmp_path, capsys, monkeypatch, reader, kind):
        self.workdir(tmp_path, monkeypatch)
        path, code, strerror = self.PATHS[kind]
        capsys.readouterr()
        assert main([path if arg == "P" else arg for arg in self.READERS[reader]]) == code
        captured = capsys.readouterr()
        assert captured.err == f"icevision-kit: {strerror}: {path}\n"
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("kind", ["through a file", "through a loop"])
    def test_the_same_path_as_an_output(self, tmp_path, capsys, monkeypatch, kind):
        self.workdir(tmp_path, monkeypatch)
        path, code, strerror = self.PATHS[kind]
        capsys.readouterr()
        assert main(["track", "--detections", "dets.txt", "--output", path]) == code
        assert capsys.readouterr().err == f"icevision-kit: {strerror}: {path}\n"


class TestReadmeCli:
    """The README's CLI section runs top to bottom in an empty directory."""

    def test_every_command_exits_0(self, tmp_path, capsys, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        spec = section.split("```ini\n", 1)[1].split("```", 1)[0]
        script = section.split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scenario.cfg").write_text(spec)
        commands = [argv for line in script.replace("\\\n", " ").splitlines()
                    if (argv := shlex.split(line, comments=True))]
        assert len(commands) == 10
        for prog, *argv in commands:
            assert prog == "icevision-kit"
            argv = [path for arg in argv for path in (sorted(glob.glob(arg)) if "*" in arg
                                                       else [arg])]
            assert main(argv) == EX_OK, (argv, capsys.readouterr().err)
        assert len(list((tmp_path / "rgb").iterdir())) == 30
