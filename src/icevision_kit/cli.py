"""Command-line front end.

Every subcommand is a thin composition of library calls; nothing here has
behavior of its own beyond argument handling and exit codes.

Exit codes: 0 success, 2 missing input file or output directory,
3 malformed input, 64 usage error or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import errno
import math
import sys
from pathlib import Path

from . import datastore, frames, harness, refinement, tracking
from .datastore import DatastoreError, MalformedRecord, atomic_write_bytes, atomic_write_text
from .frames import BayerPattern, PnmError
from .refinement import LevelThresholds
from .scoring import ScoringConfig, Stage, format_report, report_records, score_dataset
from .tracking import TrackerConfig

EX_OK = 0
EX_MISSING_INPUT = 2
EX_MALFORMED_INPUT = 3
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _require(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(errno.ENOENT, "missing input", str(p))
    return p


def _grid_values(parser: _Parser, text: str, flag: str) -> list[float]:
    values = [v for v in (part.strip() for part in text.split(",")) if v]
    if not values:
        parser.error(f"{flag} needs at least one value")
    try:
        numbers = [datastore.real_value(v) for v in values]
    except ValueError:
        parser.error(f"{flag} holds a non-number: {text!r}")
    if not all(0.0 <= v <= 1.0 for v in numbers):
        parser.error(f"{flag} holds a value outside [0, 1]: {text!r}")
    return numbers


def _config(parser: _Parser, cls, **fields):
    """``cls`` built from flag values, each keyword a ``(flag, value)`` pair
    for the field it names; a value the class rejects is a usage error
    naming its flag."""
    for name, (flag, value) in fields.items():
        try:
            cls(**{name: value})
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")
    return cls(**{name: value for name, (_, value) in fields.items()})


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=harness.NoiseModel.seed)
    p.add_argument("--stride", type=int, default=TrackerConfig.keyframe_stride)
    p.add_argument("--drop", type=float, default=harness.NoiseModel.drop_probability)
    p.add_argument("--fp-per-frame", type=float, default=harness.NoiseModel.fp_per_frame)
    p.add_argument("--jitter", type=float, default=harness.NoiseModel.position_jitter_px)
    p.add_argument("--confusion", type=float, default=harness.NoiseModel.class_confusion)


def build_parser() -> _Parser:
    parser = _Parser(prog="icevision-kit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score detections against annotations")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--stage", choices=("online", "offline"), default="offline")
    p.add_argument("--output", help="write the human-readable report here")
    p.add_argument("--records", help="write machine-readable per-class records here")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility")

    p = sub.add_parser("track", help="chain keyframe detections into tracks")
    p.add_argument("--detections", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--iou-threshold", type=float, default=TrackerConfig.iou_threshold)
    p.add_argument("--stride", type=int, default=TrackerConfig.keyframe_stride)
    p.add_argument("--max-missed", type=int, default=TrackerConfig.max_missed_keyframes)
    p.add_argument("--min-length", type=int, default=TrackerConfig.min_track_length)

    p = sub.add_parser("interp", help="densify tracks across non-keyframe frames")
    p.add_argument("--tracks", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", choices=("linear", "ncc"), default="linear")
    p.add_argument("--manifest", help="frame manifest (required for --method ncc)")
    p.add_argument("--root", default=".", help="directory frame paths are relative to")
    p.add_argument("--pattern", choices=[b.value for b in BayerPattern],
                   help="treat frames as Bayer mosaics with this layout")
    p.add_argument("--margin", type=float, default=20.0)
    p.add_argument("--format", choices=("tracks", "detections"), default="tracks",
                   dest="out_format", help="output as tracks or flattened detections")

    p = sub.add_parser("refine", help="average, select, and assign track classes")
    p.add_argument("--tracks", required=True)
    p.add_argument("--output", required=True, help="refined detections file")
    p.add_argument("--thresholds", help="threshold file from 'tune'")

    p = sub.add_parser("tune", help="grid-search refinement thresholds")
    p.add_argument("--tracks", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--grid-specific", required=True, help="comma list, e.g. 0.3,0.5,0.7")
    p.add_argument("--grid-level2", required=True)
    p.add_argument("--grid-top", required=True)
    p.add_argument("--stage", choices=("online", "offline"), default="offline")
    p.add_argument("--output", help="write the winning threshold triple here")

    p = sub.add_parser("convert", help="decode Bayer PGM frames to RGB PPM")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--sidecar", help="key=value conversion settings file")
    p.add_argument("--pattern", choices=[b.value for b in BayerPattern], default=None)
    p.add_argument("--equalize", action="store_true")
    p.add_argument("--crop-keep", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility")

    p = sub.add_parser("synth", help="generate a synthetic scenario on disk")
    p.add_argument("--spec", required=True, help="key=value scenario spec file")
    _add_noise_flags(p)
    p.add_argument("--annotations", required=True, help="output annotations path")
    p.add_argument("--detections", help="output mock-detector detections path")
    p.add_argument("--render-dir", help="also render frames as PGM plus a manifest")

    p = sub.add_parser("bench", help="run the end-to-end synthetic benchmark")
    p.add_argument("--spec", required=True)
    _add_noise_flags(p)
    p.add_argument("--stage", choices=("online", "offline"), default="offline")
    p.add_argument("--budget-fps", type=float, default=harness.PipelineConfig.budget_fps)
    p.add_argument("--records", help="write machine-readable results here")

    return parser


def _cmd_score(args) -> int:
    detections = datastore.read_detections(_require(args.detections))
    annotations = datastore.read_annotations(_require(args.annotations))
    report = score_dataset(detections, annotations, ScoringConfig(Stage(args.stage)))
    if args.output:
        atomic_write_text(args.output, format_report(report))
    if args.records:
        atomic_write_text(args.records, report_records(report))
    print(f"total {report.total:.6f}")
    return EX_OK


def _cmd_track(args, parser: _Parser) -> int:
    cfg = _config(
        parser, TrackerConfig,
        iou_threshold=("--iou-threshold", args.iou_threshold),
        keyframe_stride=("--stride", args.stride),
        max_missed_keyframes=("--max-missed", args.max_missed),
        min_track_length=("--min-length", args.min_length),
    )
    detections = datastore.read_detections(_require(args.detections))
    tracks = tracking.run_tracker(detections, cfg)
    datastore.write_tracks(tracks, args.output)
    print(f"tracks {len(tracks)}")
    return EX_OK


def _cmd_interp(args, parser: _Parser) -> int:
    tracks = datastore.read_tracks(_require(args.tracks))
    if args.method == "ncc":
        if not args.manifest:
            parser.error("--method ncc requires --manifest")
        if not 0.0 <= args.margin < math.inf:
            parser.error(f"--margin must be finite and >= 0, got {args.margin}")
        manifest = datastore.read_manifest(_require(args.manifest))
        pattern = BayerPattern(args.pattern) if args.pattern else None
        source = datastore.ManifestFrameSource(manifest, root=args.root, pattern=pattern)
        try:
            dense = [tracking.densify_ncc(t, source, margin=args.margin) for t in tracks]
        except KeyError as exc:
            raise FileNotFoundError(
                errno.ENOENT, "missing input", f"frame {exc.args[0]} in manifest {args.manifest}"
            ) from None
    else:
        dense = [tracking.densify_linear(t) for t in tracks]
    if args.out_format == "detections":
        datastore.write_detections(
            harness.group_by_frame(tracking.tracks_to_detections(dense)), args.output
        )
    else:
        datastore.write_tracks(dense, args.output)
    print(f"tracks {len(dense)}")
    return EX_OK


def _cmd_refine(args) -> int:
    tracks = datastore.read_tracks(_require(args.tracks))
    thresholds = LevelThresholds()
    if args.thresholds:
        text = datastore.read_text(_require(args.thresholds))
        try:
            thresholds = refinement.parse_thresholds(text)
        except ValueError as exc:
            raise MalformedRecord(args.thresholds, 1, str(exc)) from None
    detections = refinement.refine_tracks(tracks, thresholds)
    datastore.write_detections(harness.group_by_frame(detections), args.output)
    print(f"detections {len(detections)}")
    return EX_OK


def _cmd_tune(args, parser: _Parser) -> int:
    tracks = datastore.read_tracks(_require(args.tracks))
    annotations = datastore.read_annotations(_require(args.annotations))
    grid = (
        _grid_values(parser, args.grid_specific, "--grid-specific"),
        _grid_values(parser, args.grid_level2, "--grid-level2"),
        _grid_values(parser, args.grid_top, "--grid-top"),
    )
    best, best_score = refinement.grid_search_thresholds(
        tracks, annotations, grid, ScoringConfig(Stage(args.stage))
    )
    line = refinement.format_thresholds(best)
    if args.output:
        atomic_write_text(args.output, line)
    print(f"thresholds {line.strip()}")
    print(f"score {best_score:.6f}")
    return EX_OK


def _cmd_convert(args, parser: _Parser) -> int:
    if args.crop_keep is not None and args.crop_keep < 1:
        parser.error(f"--crop-keep must be >= 1, got {args.crop_keep}")
    sidecar = datastore.SidecarConfig()
    if args.sidecar:
        sidecar = datastore.parse_sidecar(datastore.read_text(_require(args.sidecar)), args.sidecar)
    pattern = BayerPattern(args.pattern) if args.pattern else sidecar.pattern
    equalize = args.equalize or sidecar.equalize
    crop_keep = args.crop_keep if args.crop_keep is not None else sidecar.crop_keep

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for input_path in args.inputs:
        data = _require(input_path).read_bytes()
        try:
            cfa = frames.read_pnm(data, pattern)
            if crop_keep is not None and 0 < crop_keep < cfa.height:
                # the band's last row interpolates from one row below it, no further
                cfa = frames.crop_rows(cfa, crop_keep + 1)
            rgb = frames.demosaic_bilinear(cfa)
            if crop_keep is not None:
                rgb = frames.crop_rows(rgb, crop_keep)
            if equalize:
                rgb = frames.equalize_rgb(rgb)
        except (PnmError, ValueError) as exc:
            raise DatastoreError(input_path, None, str(exc)) from None
        out_path = out_dir / (Path(input_path).stem + ".ppm")
        atomic_write_bytes(out_path, frames.write_ppm(rgb))
        print(out_path)
    return EX_OK


def _mock_detector_flags(args, parser: _Parser) -> tuple[harness.NoiseModel, TrackerConfig]:
    """The mock detector's noise model and keyframe stride (as a tracker
    config) from the noise flags."""
    noise = _config(
        parser, harness.NoiseModel,
        drop_probability=("--drop", args.drop),
        fp_per_frame=("--fp-per-frame", args.fp_per_frame),
        position_jitter_px=("--jitter", args.jitter),
        class_confusion=("--confusion", args.confusion),
        seed=("--seed", args.seed),
    )
    return noise, _config(parser, TrackerConfig, keyframe_stride=("--stride", args.stride))


def _load_spec(path) -> harness.ScenarioSpec:
    return harness.parse_scenario(datastore.read_text(_require(path)), path)


def _cmd_synth(args, parser: _Parser) -> int:
    noise, tracker = _mock_detector_flags(args, parser)
    spec = _load_spec(args.spec)
    generated = harness.generate_scenario(spec, args.seed)
    if args.render_dir:
        names = [f"frame_{frame:06d}.pgm" for frame in range(generated.scenario.frame_count)]
        # built first, so a path the manifest cannot hold stops the command before any write
        manifest = datastore.SequenceManifest(f"synth-{args.seed}", tuple(enumerate(names)),
                                              (str(args.annotations),))
        try:
            manifest_text = datastore.format_manifest(manifest)
        except ValueError as exc:
            parser.error(f"--annotations: {exc}")
    datastore.write_annotations(generated.annotations, args.annotations)
    if args.detections:
        detections = harness.mock_detector(
            generated.dense, noise, tracker.keyframe_stride, generated.scenario
        )
        datastore.write_detections(detections, args.detections)
    if args.render_dir:
        render_dir = Path(args.render_dir)
        render_dir.mkdir(parents=True, exist_ok=True)
        renderer = harness.SyntheticRenderer(generated.scenario, texture_seed=args.seed)
        for frame, name in enumerate(names):
            atomic_write_bytes(render_dir / name, frames.write_pnm(renderer[frame]))
        atomic_write_text(render_dir / "manifest.txt", manifest_text)
    print(f"frames {generated.scenario.frame_count} "
          f"annotated {len(generated.annotations)}")
    return EX_OK


def _cmd_bench(args, parser: _Parser) -> int:
    if not 0.0 < args.budget_fps < math.inf:
        parser.error(f"--budget-fps must be finite and > 0, got {args.budget_fps}")
    noise, tracker = _mock_detector_flags(args, parser)
    spec = _load_spec(args.spec)
    generated = harness.generate_scenario(spec, args.seed)
    pipeline = harness.PipelineConfig(
        scoring=ScoringConfig(Stage(args.stage)), tracker=tracker, budget_fps=args.budget_fps
    )
    report = harness.run_benchmark(generated, noise, pipeline)
    sys.stdout.write(harness.format_benchmark(report))
    if args.records:
        atomic_write_text(args.records, harness.benchmark_records(report))
    return EX_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "score":
            return _cmd_score(args)
        if args.command == "track":
            return _cmd_track(args, parser)
        if args.command == "interp":
            return _cmd_interp(args, parser)
        if args.command == "refine":
            return _cmd_refine(args)
        if args.command == "tune":
            return _cmd_tune(args, parser)
        if args.command == "convert":
            return _cmd_convert(args, parser)
        if args.command == "synth":
            return _cmd_synth(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        raise AssertionError(f"unhandled command {args.command}")
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        # a missing file, or a path that names a directory or cannot be written
        print(f"icevision-kit: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EX_MISSING_INPUT if isinstance(exc, FileNotFoundError) else EX_USAGE
    except (DatastoreError, PnmError) as exc:
        print(f"icevision-kit: {exc}", file=sys.stderr)
        return EX_MALFORMED_INPUT


if __name__ == "__main__":
    sys.exit(main())
