"""Command-line front end.

Every subcommand is a thin composition of library calls (``convert`` is one
``frames.convert_frame`` per input); the rest is argument handling and exit codes.

Exit codes: 0 success, 2 missing input file or output directory, 3 malformed
input, 64 usage error (under its subcommand's usage line) or unwritable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import math
import os
import sys
from pathlib import Path

from . import datastore, frames, harness, refinement, tracking
from .core import NCC_MARGIN_PX, group_by_frame
from .datastore import DatastoreError, atomic_write_bytes, atomic_write_text
from .frames import BayerPattern
from .refinement import LevelThresholds
from .scoring import ScoringConfig, Stage, format_report, report_records, score_dataset
from .taxonomy import is_ascii_digits
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
    try:  # the search scores each value as the thresholds file will hold it
        list(map(refinement.threshold_text, numbers))
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")
    return numbers


def _distinct_outputs(parser: _Parser, outputs: list[tuple[str, str | Path | None]]) -> None:
    """Two of the ``(name, path)`` outputs that write one directory entry (one
    name in one resolved directory; the name itself is not resolved, since a
    write replaces a symlink there): a usage error naming both."""
    name_of: dict[tuple[str, str], str] = {}
    resolve = functools.cache(os.path.realpath)  # each directory once
    for name, path in outputs:
        if path:
            entry = (resolve(Path(path).parent), Path(path).name)
            if entry in name_of:
                parser.error(f"{name_of[entry]} and {name} both write {path}")
            name_of[entry] = name


# Each flag that sets a config field, as (config class, {flag: field name}),
# one table per config a command builds; the flag takes its type and
# default from the field, and the class checks its value.
TRACKER_FLAGS = (TrackerConfig, {
    "--iou-threshold": "iou_threshold", "--max-missed": "max_missed_keyframes",
    "--min-length": "min_track_length"})
STRIDE_FLAGS = (TrackerConfig, {"--stride": "keyframe_stride"})
NOISE_FLAGS = (harness.NoiseModel, {
    "--seed": "seed", "--drop": "drop_probability", "--fp-per-frame": "fp_per_frame",
    "--jitter": "position_jitter_px", "--confusion": "class_confusion"})


def _integer(text: str) -> int:
    """An ASCII decimal integer, optionally negative, so the command judges
    its sign (``int`` would also read "٣", "1_0" and "+3")."""
    if not is_ascii_digits(text.removeprefix("-")):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def _add_config_flags(p: argparse.ArgumentParser, *tables) -> None:
    for cls, flags in tables:
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for flag, name in flags.items():
            parse = _integer if type(defaults[name]) is int else datastore.real_value
            p.add_argument(flag, dest=name, type=parse, default=defaults[name])


def _config(parser: _Parser, args, table, **given):
    """The table's config class built from its flags' values and ``given``;
    a value the class rejects is a usage error naming its flag."""
    cls, flags = table
    for flag, name in flags.items():
        try:
            cls(**{name: getattr(args, name)})
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")
    return cls(**given, **{name: getattr(args, name) for name in flags.values()})


def _add_stage_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stage", choices=[s.value for s in Stage], default=Stage.OFFLINE.value)


def build_parser() -> _Parser:
    parser = _Parser(prog="icevision-kit", description=__doc__.splitlines()[0])
    # dest names the subcommand in the message a missing one gets
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score detections against annotations")
    p.set_defaults(run=_cmd_score, parser=p)
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    _add_stage_flag(p)
    p.add_argument("--output", help="write the human-readable report here")
    p.add_argument("--records", help="write machine-readable per-class records here")

    p = sub.add_parser("track", help="chain keyframe detections into tracks")
    p.set_defaults(run=_cmd_track, parser=p)
    p.add_argument("--detections", required=True)
    p.add_argument("--output", required=True)
    _add_config_flags(p, TRACKER_FLAGS)

    p = sub.add_parser("interp", help="densify tracks across non-keyframe frames")
    p.set_defaults(run=_cmd_interp, parser=p)
    p.add_argument("--tracks", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", help="fill gaps by NCC on this manifest's frames, their "
                                      "paths relative to its directory (without it, linearly)")
    # the flags only NCC reads default to None, so interp can tell one given without --manifest
    p.add_argument("--pattern", choices=[b.value for b in BayerPattern],
                   help="read the manifest's frames as Bayer mosaics with this layout")
    p.add_argument("--margin", type=datastore.real_value,
                   help=f"NCC search margin in pixels (default: {NCC_MARGIN_PX:g})")
    p.add_argument("--format", choices=("tracks", "detections"), default="tracks",
                   dest="out_format", help="output as tracks or flattened detections")

    p = sub.add_parser("refine", help="average, select, and assign track classes")
    p.set_defaults(run=_cmd_refine, parser=p)
    p.add_argument("--tracks", required=True)
    p.add_argument("--output", required=True, help="refined detections file")
    p.add_argument("--thresholds", help="threshold file from 'tune'")

    p = sub.add_parser("tune", help="grid-search refinement thresholds")
    p.set_defaults(run=_cmd_tune, parser=p)
    p.add_argument("--tracks", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--grid-specific", required=True, help="comma list, e.g. 0.3,0.5,0.7")
    p.add_argument("--grid-level2", required=True)
    p.add_argument("--grid-top", required=True)
    _add_stage_flag(p)
    p.add_argument("--output", help="write the winning threshold triple here")

    p = sub.add_parser("convert", help="decode Bayer PGM frames to RGB PPM")
    p.set_defaults(run=_cmd_convert, parser=p)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--pattern", choices=[b.value for b in BayerPattern],
                   default=BayerPattern.RGGB.value)
    p.add_argument("--equalize", action="store_true")
    p.add_argument("--crop-keep", type=_integer)

    p = sub.add_parser("synth", help="generate a synthetic scenario on disk")
    p.set_defaults(run=_cmd_synth, parser=p)
    p.add_argument("--spec", required=True, help="key=value scenario spec file")
    _add_config_flags(p, NOISE_FLAGS, STRIDE_FLAGS)
    p.add_argument("--annotations", required=True, help="output annotations path")
    p.add_argument("--detections", help="output mock-detector detections path")
    p.add_argument("--render-dir", help="also render frames as PGM plus a manifest")

    p = sub.add_parser("bench", help="run the end-to-end synthetic benchmark")
    p.set_defaults(run=_cmd_bench, parser=p)
    p.add_argument("--spec", required=True)
    _add_config_flags(p, NOISE_FLAGS, STRIDE_FLAGS)
    _add_stage_flag(p)
    p.add_argument("--records", help="write machine-readable results here")

    return parser


def _cmd_score(args, parser: _Parser) -> int:
    _distinct_outputs(parser, [("--output", args.output), ("--records", args.records)])
    detections = datastore.read_detections(args.detections)
    annotations = datastore.read_annotations(args.annotations)
    report = score_dataset(detections, annotations, ScoringConfig(Stage(args.stage)))
    if args.output:
        atomic_write_text(args.output, format_report(report))
    if args.records:
        atomic_write_text(args.records, report_records(report))
    print(f"total {report.total:.6f}")
    return EX_OK


def _cmd_track(args, parser: _Parser) -> int:
    cfg = _config(parser, args, TRACKER_FLAGS)
    detections = datastore.read_detections(args.detections)
    tracks = tracking.run_tracker(detections, cfg)
    datastore.write_tracks(tracks, args.output)
    print(f"tracks {len(tracks)}")
    return EX_OK


def _cmd_interp(args, parser: _Parser) -> int:
    if args.manifest is None:
        for flag in ("--pattern", "--margin"):
            if getattr(args, flag.removeprefix("--")) is not None:
                parser.error(f"{flag} requires --manifest")
    elif args.margin is not None and not 0.0 <= args.margin < math.inf:
        parser.error(f"--margin must be finite and >= 0, got {args.margin}")
    tracks = datastore.read_tracks(args.tracks)
    if args.manifest is None:
        dense = [tracking.densify_linear(t) for t in tracks]
    else:
        manifest = datastore.read_manifest(args.manifest)
        pattern = BayerPattern(args.pattern) if args.pattern else None
        source = datastore.ManifestFrameSource(manifest, Path(args.manifest).parent, pattern)
        margin = NCC_MARGIN_PX if args.margin is None else args.margin
        try:
            dense = tracking.densify_ncc_tracks(tracks, source, margin=margin)
        except KeyError as exc:
            raise FileNotFoundError(
                errno.ENOENT, "missing input", f"frame {exc.args[0]} in manifest {args.manifest}"
            ) from None
    if args.out_format == "detections":
        datastore.write_detections(
            group_by_frame(tracking.tracks_to_detections(dense)), args.output
        )
    else:
        datastore.write_tracks(dense, args.output)
    print(f"tracks {len(dense)}")
    return EX_OK


def _cmd_refine(args, parser: _Parser) -> int:
    tracks = datastore.read_tracks(args.tracks)
    thresholds = LevelThresholds()
    if args.thresholds:
        text = datastore.read_text(args.thresholds)
        try:
            thresholds = refinement.parse_thresholds(text)
        except ValueError as exc:
            raise DatastoreError(args.thresholds, 1, str(exc)) from None
    detections = refinement.refine_tracks(tracks, thresholds)
    datastore.write_detections(group_by_frame(detections), args.output)
    print(f"detections {len(detections)}")
    return EX_OK


def _cmd_tune(args, parser: _Parser) -> int:
    grid = (
        _grid_values(parser, args.grid_specific, "--grid-specific"),
        _grid_values(parser, args.grid_level2, "--grid-level2"),
        _grid_values(parser, args.grid_top, "--grid-top"),
    )
    tracks = datastore.read_tracks(args.tracks)
    annotations = datastore.read_annotations(args.annotations)
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
    out_dir = Path(args.output_dir)
    outputs = [(input_path, out_dir / (Path(input_path).stem + ".ppm"))
               for input_path in args.inputs]
    _distinct_outputs(parser, outputs)

    out_dir.mkdir(parents=True, exist_ok=True)
    for input_path, out_path in outputs:
        try:
            cfa = frames.read_pnm(Path(input_path).read_bytes(), BayerPattern(args.pattern))
            ppm = frames.convert_frame(cfa, args.crop_keep, args.equalize)
        except ValueError as exc:
            raise DatastoreError(input_path, None, str(exc)) from None
        atomic_write_bytes(out_path, ppm)
        print(out_path)
    return EX_OK


def _load_spec(path) -> harness.ScenarioSpec:
    return harness.parse_scenario(datastore.read_text(path), path)


def _cmd_synth(args, parser: _Parser) -> int:
    noise = _config(parser, args, NOISE_FLAGS)
    tracker = _config(parser, args, STRIDE_FLAGS)
    render_dir = Path(args.render_dir) if args.render_dir else None
    outputs = [("--annotations", args.annotations), ("--detections", args.detections),
               ("--render-dir", render_dir),  # the directory, then the manifest in it
               ("--render-dir", render_dir and render_dir / "manifest.txt")]
    _distinct_outputs(parser, outputs)
    spec = _load_spec(args.spec)
    if render_dir:  # the frames are checked once the spec gives their number
        names = [f"frame_{frame:06d}.pgm" for frame in range(spec.frame_count)]
        _distinct_outputs(parser, outputs + [("--render-dir", render_dir / name) for name in names])
        render_dir.mkdir(parents=True, exist_ok=True)
    generated = harness.generate_scenario(spec, args.seed)
    datastore.write_annotations(generated.annotations, args.annotations)
    if args.detections:
        detections = harness.mock_detector(
            generated.dense, noise, tracker.keyframe_stride, generated.scenario
        )
        datastore.write_detections(detections, args.detections)
    if render_dir:
        renderer = harness.SyntheticRenderer(generated.scenario, texture_seed=args.seed)
        for frame, name in enumerate(names):
            atomic_write_bytes(render_dir / name, frames.write_pnm(renderer[frame]))
        datastore.write_manifest(
            datastore.SequenceManifest(f"synth-{args.seed}", tuple(enumerate(names))),
            render_dir / "manifest.txt")
    print(f"frames {generated.scenario.frame_count} "
          f"annotated {len(generated.annotations)}")
    return EX_OK


def _cmd_bench(args, parser: _Parser) -> int:
    noise = _config(parser, args, NOISE_FLAGS)
    pipeline = harness.PipelineConfig(tracker=_config(parser, args, STRIDE_FLAGS),
                                      scoring=ScoringConfig(Stage(args.stage)))
    spec = _load_spec(args.spec)
    generated = harness.generate_scenario(spec, args.seed)
    report = harness.run_benchmark(generated, noise, pipeline)
    sys.stdout.write(harness.format_benchmark(report))
    if args.records:
        atomic_write_text(args.records, harness.benchmark_records(report))
    return EX_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # the subcommand's parser reports them, under its own usage line
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args, args.parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        # a missing file, or a path that names a directory or cannot be written
        print(f"icevision-kit: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EX_MISSING_INPUT if isinstance(exc, FileNotFoundError) else EX_USAGE
    except DatastoreError as exc:
        print(f"icevision-kit: {exc}", file=sys.stderr)
        return EX_MALFORMED_INPUT


if __name__ == "__main__":
    sys.exit(main())
