"""End-to-end CLI behavior: exit codes and parity with library calls."""

import errno
import os
from dataclasses import replace

import frame_oracles
import numpy as np
import pytest

from icevision_kit import datastore, frames, harness, refinement, tracking
from icevision_kit.cli import EX_MALFORMED_INPUT, EX_MISSING_INPUT, EX_OK, EX_USAGE, main
from icevision_kit.core import BoundingBox, Detection
from icevision_kit.datastore import FORMAT_VERSION
from icevision_kit.scoring import ScoringConfig, score_dataset
from icevision_kit.taxonomy import parse_code


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
        assert "missing input" in capsys.readouterr().err

    def test_malformed_detections_reports_line(self, tmp_path, capsys):
        det_path = tmp_path / "bad.txt"
        det_path.write_text(f"{FORMAT_VERSION} detections\n0 3.24 10 10\n")
        _, ann_path = write_fixture_files(tmp_path)
        code = main(["score", "--detections", str(det_path), "--annotations", str(ann_path)])
        assert code == EX_MALFORMED_INPUT
        err = capsys.readouterr().err
        assert "bad.txt:2" in err

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

    def test_interp_ncc_needs_manifest(self, tmp_path, capsys):
        det_path = tmp_path / "dets.txt"
        datastore.write_detections(keyframe_detections(), det_path)
        tracks_path = tmp_path / "tracks.txt"
        main(["track", "--detections", str(det_path), "--output", str(tracks_path)])
        code = main(["interp", "--tracks", str(tracks_path),
                     "--output", str(tmp_path / "x.txt"), "--method", "ncc"])
        assert code == EX_USAGE

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
                "--method", "ncc", "--manifest", str(manifest_path), "--root", str(tmp_path)]

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

    def test_interp_ncc_frame_missing_from_manifest(self, tmp_path, capsys):
        pgm = b"P5\n200 160\n255\n" + bytes(200 * 160)
        argv = self.ncc_fixture(tmp_path, (0, 1, 2, 4, 5, 6), pgm)
        assert main(argv) == EX_MISSING_INPUT
        err = capsys.readouterr().err
        assert "frame 3" in err and "manifest.txt" in err

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
                       "--method", "ncc", "--manifest", str(tmp_path / "manifest.txt"),
                       "--root", str(tmp_path)],
        }

    @pytest.mark.parametrize("command, flag, value", [
        ("track", "--stride", "0"),
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
        ("interp", "--margin", "-100"),
        ("interp", "--margin", "inf"),
        ("interp", "--margin", "nan"),
        ("convert", "--crop-keep", "0"),
        ("convert", "--crop-keep", "-3"),
        ("bench", "--budget-fps", "nan"),
        ("bench", "--budget-fps", "0"),
        ("bench", "--budget-fps", "-5"),
    ])
    def test_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command, flag, value):
        argv = self.inputs(tmp_path)[command]
        capsys.readouterr()
        assert main(argv + [flag, value]) == EX_USAGE
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "a").exists()


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
        ("convert", "pattern = RGGB\ncrop_keep = \u0661\u0660\n", 2),
        ("convert", "pattern = RGGB\ncrop_keep = 0\n", 2),
    ])
    def test_settings_integers_are_ascii_decimal(self, tmp_path, capsys, command, text, lineno):
        settings = tmp_path / "settings.cfg"
        settings.write_text(text, encoding="utf-8")
        if command == "convert":
            frame = tmp_path / "f.pgm"
            frame.write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
            argv = ["convert", str(frame), "--output-dir", str(tmp_path / "o"),
                    "--sidecar", str(settings)]
        else:
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

    @pytest.mark.parametrize("keep", [4, 5, 7])
    def test_crop_keep_matches_float_oracle(self, tmp_path, capsys, keep):
        # convert demosaics only the kept rows plus one; the bytes must equal
        # the float64 demosaic of the whole frame, cropped afterwards
        rng = np.random.default_rng(keep)
        cfa = frames.CfaImage(samples=rng.integers(0, 4096, size=(7, 6)).astype(np.uint16),
                              pattern=frames.BayerPattern.GBRG, max_value=4095)
        src = tmp_path / "raw.pgm"
        src.write_bytes(frames.write_pnm(cfa))
        out_dir = tmp_path / "out"
        assert main(["convert", str(src), "--output-dir", str(out_dir),
                     "--pattern", "GBRG", "--crop-keep", str(keep)]) == EX_OK
        oracle = frames.write_ppm(frames.crop_rows(frame_oracles.demosaic_bilinear(cfa), keep))
        assert (out_dir / "raw.ppm").read_bytes() == oracle

    def test_sidecar_settings(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        samples = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        src = tmp_path / "f.pgm"
        src.write_bytes(frames.write_pnm(frames.CfaImage(samples=samples)))
        sidecar = tmp_path / "convert.cfg"
        sidecar.write_text("pattern = BGGR\ncrop_keep = 2\n")
        out_dir = tmp_path / "out"
        assert main(["convert", str(src), "--output-dir", str(out_dir),
                     "--sidecar", str(sidecar)]) == EX_OK
        manual = frames.write_ppm(
            frames.crop_rows(
                frames.demosaic_bilinear(
                    frames.CfaImage(samples=samples, pattern=frames.BayerPattern.BGGR)
                ),
                2,
            )
        )
        assert (out_dir / "f.ppm").read_bytes() == manual

    @pytest.mark.parametrize("text", ["equalize = yes\nequalize = no\n", "equalize = banana\n"])
    def test_bad_sidecar_is_malformed(self, tmp_path, capsys, text):
        src = tmp_path / "f.pgm"
        src.write_bytes(frames.write_pnm(frames.CfaImage(samples=np.zeros((4, 4), np.uint8))))
        sidecar = tmp_path / "convert.cfg"
        sidecar.write_text(text)
        code = main(["convert", str(src), "--output-dir", str(tmp_path / "out"),
                     "--sidecar", str(sidecar)])
        assert code == EX_MALFORMED_INPUT
        assert f"convert.cfg:{text.count(chr(10))}:" in capsys.readouterr().err

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
                     "--method", "ncc", "--manifest", str(render / "manifest.txt"),
                     "--root", str(render)])
        assert code == EX_OK
        assert datastore.read_tracks(dense_path)

    @pytest.mark.parametrize("name", ["a.txt ", " a.txt", "a\nb.txt", "a\rb.txt"])
    def test_synth_annotations_path_the_manifest_cannot_hold(self, tmp_path, capsys,
                                                             monkeypatch, name):
        spec = self.spec_file(tmp_path, frame_count=30, sign_count=2, width=320, height=240)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["synth", "--spec", str(spec), "--annotations", name,
                     "--detections", "det.txt", "--render-dir", "render"]) == EX_USAGE
        err = capsys.readouterr().err
        assert "--annotations" in err and repr(name) in err and "Traceback" not in err
        assert list(work.iterdir()) == []

    def test_bench_runs_and_writes_records(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, frame_count=60)
        records = tmp_path / "bench.txt"
        code = main(["bench", "--spec", str(spec), "--seed", "2",
                     "--records", str(records)])
        assert code == EX_OK
        out = capsys.readouterr().out
        assert "frames per second" in out
        assert records.read_text().startswith("icevision-kit/v1 bench\n")

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
