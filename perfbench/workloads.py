"""The four workloads: set-up, one loop item, and the digest that checks it.

Each workload calls the public functions of icevision_kit the way
``icevision_kit.cli`` does.  A loop item is the unit one iteration of the
closed loop processes (a sequence, a grid search, a frame, a track); an
operation is what ``attempted``/``failed`` count (a sequence, a threshold
triple, a frame, a gap segment).

Inputs come from a pool of sub-seeds whose output digests are recorded in
``golden.json``; the run seed picks which pool entries a run uses, so any
seed gives checkable inputs.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from icevision_kit import datastore, frames, harness, refinement, tracking
from icevision_kit.core import BoundingBox, Detection
from icevision_kit.frames import BayerPattern
from icevision_kit.refinement import LevelThresholds
from icevision_kit.scoring import ScoringConfig, score_dataset
from icevision_kit.taxonomy import Taxonomy
from icevision_kit.tracking import Source, TrackerConfig

from benchlib import ItemResult, PythonKernel, count, digest, file_digest, span


def _stratified(pool: dict, seed: int, k: int) -> list[str]:
    """One pool entry from each of k equal strata ordered by size, so every
    run holds the same amount of work."""
    keys = sorted(pool, key=lambda key: (pool[key]["size"], int(key)))
    rng = random.Random(seed)
    bounds = [round(i * len(keys) / k) for i in range(k + 1)]
    return [rng.choice(keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _banded(pool: dict, seed: int, rel: float) -> str:
    """One pool entry whose size lies within ``rel`` of the pool median."""
    sizes = sorted(entry["size"] for entry in pool.values())
    median = sizes[len(sizes) // 2]
    eligible = sorted(
        (key for key, entry in pool.items() if abs(entry["size"] - median) <= rel * median),
        key=int,
    )
    return random.Random(seed).choice(eligible)


def _track_digest(track: tracking.Track) -> str:
    lines = []
    for e in track.entries:
        ranked = sorted(e.class_distribution.items(), key=lambda kv: kv[0].segments)
        dist = ",".join(f"{c}:{p!r}" for c, p in ranked)
        b = e.box
        lines.append(
            f"{e.frame_index} {b.x_min!r} {b.y_min!r} {b.x_max!r} {b.y_max!r} {dist} "
            f"{e.source.value} {e.associated_data} {e.temporary} {e.ncc_degenerate} {e.template_clipped}"
        )
    return digest(str(track.id), "\n".join(lines))


class StreamKernel:
    """Memory-streaming numpy kernel, for the image workloads."""

    ref_ms = 7.0

    def __init__(self):
        self._stream = np.arange(2_000_000, dtype=np.float64)

    def __call__(self) -> None:
        b = self._stream * 1.5
        b += self._stream
        np.sqrt(b, out=b).sum()


class Workload:
    name = ""
    pool_size = 0
    pool_base = 0
    kernel = PythonKernel  # calibration kernel class (benchlib)
    kernel_reps = 1  # kernel runs timed between two loop items

    def pool_keys(self) -> list[str]:
        return [str(self.pool_base + i) for i in range(self.pool_size)]

    def choose(self, pool: dict, seed: int) -> list[str]:
        raise NotImplementedError

    def setup(self, keys: list[str], workdir: Path, tracer):
        raise NotImplementedError

    def items(self, state) -> list:
        """The loop items of one pass, in order."""
        return state

    def new_pass(self, state) -> None:
        """Called before each pass over the items."""

    def run_item(self, state, item, tracer) -> ItemResult:
        raise NotImplementedError

    def record(self, state) -> dict[str, dict]:
        """Golden entries for every pool key set up in ``state``."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# seq_postproc


SEQ_SPEC = harness.ScenarioSpec(frame_count=90, sign_count=12)
SEQ_STRIDE = 3


def _seq_noise(seed: int) -> harness.NoiseModel:
    return harness.NoiseModel(
        drop_probability=0.05, fp_per_frame=0.5, position_jitter_px=2.0,
        class_confusion=0.3, seed=seed,
    )


@dataclass
class _Sequence:
    key: str
    frame_count: int
    detections_path: Path
    tracks_path: Path
    refined_path: Path
    annotations: list
    max_attainable: float
    detection_count: int


class SeqPostproc(Workload):
    name = "seq_postproc"
    pool_size = 96
    pool_base = 10_000
    strata = 10
    cfg = ScoringConfig.offline()

    def choose(self, pool, seed):
        return _stratified(pool, seed, self.strata)

    def setup(self, keys, workdir, tracer):
        sequences = []
        for key in keys:
            sub = int(key)
            with span(tracer, "harness.generate", key):
                gen = harness.generate_scenario(SEQ_SPEC, sub)
            with span(tracer, "harness.mock_detector", key):
                dets = harness.mock_detector(gen.dense, _seq_noise(sub), SEQ_STRIDE, gen.scenario)
            det_path = workdir / f"seq{key}.detections"
            with span(tracer, "harness.write_inputs", key):
                datastore.write_detections(dets, det_path)
            sequences.append(_Sequence(
                key=key,
                frame_count=gen.scenario.frame_count,
                detections_path=det_path,
                tracks_path=workdir / f"seq{key}.tracks",
                refined_path=workdir / f"seq{key}.refined",
                annotations=gen.annotations,
                max_attainable=harness.max_attainable_score(gen.annotations, self.cfg),
                detection_count=sum(len(v) for v in dets.values()),
            ))
        return sequences

    def run_item(self, state, seq: _Sequence, tracer):
        key = seq.key
        start = time.perf_counter()
        with span(tracer, "datastore.read_detections", key):
            dets = datastore.read_detections(seq.detections_path)
        with span(tracer, "tracking.run_tracker", key):
            tracks = tracking.run_tracker(dets, TrackerConfig(keyframe_stride=SEQ_STRIDE))
        with span(tracer, "tracking.densify_linear", key):
            dense = [tracking.densify_linear(t) for t in tracks]
        with span(tracer, "datastore.write_tracks", key):
            datastore.write_tracks(dense, seq.tracks_path)
        with span(tracer, "datastore.read_tracks", key):
            loaded = datastore.read_tracks(seq.tracks_path)
        with span(tracer, "refinement.refine_tracks", key):
            refined = refinement.refine_tracks(loaded, LevelThresholds())
        with span(tracer, "datastore.write_detections", key):
            datastore.write_detections(harness.group_by_frame(refined), seq.refined_path)
        with span(tracer, "scoring.score_dataset", key):
            report = score_dataset(harness.group_by_frame(refined), seq.annotations, self.cfg)
        elapsed = time.perf_counter() - start

        entries = sum(len(t.entries) for t in dense)
        count(tracer, "datastore.records_read", seq.detection_count + entries)
        count(tracer, "datastore.records_written", entries + len(refined))
        count(tracer, "tracking.tracks_out", len(tracks))
        count(tracer, "tracking.entries_out", entries)
        count(tracer, "refinement.detections_out", len(refined))
        count(tracer, "scoring.frames_scored", len(report.frames))
        count(tracer, "scoring.tp_count", sum(c.tp_count for c in report.per_class.values()))
        count(tracer, "scoring.fp_count", report.fp_count)

        with span(tracer, "bench.verify", key):
            out = digest(
                file_digest(seq.tracks_path), file_digest(seq.refined_path),
                repr(report.total), repr(report.tp_points), str(report.fp_count),
            )
        return ItemResult(
            key=key, elapsed=elapsed, work=seq.frame_count, ops=1, digest=out,
            ok=report.total <= seq.max_attainable, latencies_ms=[elapsed * 1e3],
        )

    def record(self, state):
        return {
            seq.key: {"size": seq.detection_count, "digest": self.run_item(state, seq, None).digest}
            for seq in state
        }


# --------------------------------------------------------------------------
# tune_grid


TUNE_SPEC = harness.ScenarioSpec(frame_count=10_000, sign_count=60)
TUNE_GRID = ([0.6, 0.8, 0.9], [0.6, 0.8, 0.9], [0.6, 0.8, 0.9])


def _tune_noise(seed: int) -> harness.NoiseModel:
    # the noise of the 10k-frame throughput acceptance scenario
    return harness.NoiseModel(
        drop_probability=0.05, fp_per_frame=0.2, position_jitter_px=2.0,
        class_confusion=0.2, seed=seed,
    )


@dataclass
class _Validation:
    key: str
    tracks: list
    annotations: list
    max_attainable: float
    entry_count: int


class TuneGrid(Workload):
    name = "tune_grid"
    kernel_reps = 5
    pool_size = 24
    pool_base = 20_000
    band = 0.03
    cfg = ScoringConfig.offline()

    def choose(self, pool, seed):
        return [_banded(pool, seed, self.band)]

    def setup(self, keys, workdir, tracer):
        sets = []
        for key in keys:
            sub = int(key)
            with span(tracer, "harness.generate", key):
                gen = harness.generate_scenario(TUNE_SPEC, sub)
            with span(tracer, "harness.mock_detector", key):
                dets = harness.mock_detector(gen.dense, _tune_noise(sub), 3, gen.scenario)
            with span(tracer, "harness.build_tracks", key):
                tracks = tracking.run_tracker(dets, TrackerConfig())
                tracks = [tracking.densify_linear(t) for t in tracks]
            sets.append(_Validation(
                key=key, tracks=tracks, annotations=gen.annotations,
                max_attainable=harness.max_attainable_score(gen.annotations, self.cfg),
                entry_count=sum(len(t.entries) for t in tracks),
            ))
        return sets

    def run_item(self, state, val: _Validation, tracer):
        key = val.key
        triples = len(TUNE_GRID[0]) * len(TUNE_GRID[1]) * len(TUNE_GRID[2])
        start = time.perf_counter()
        with span(tracer, "refinement.grid_search", key):
            best, best_score = refinement.grid_search_thresholds(
                val.tracks, val.annotations, TUNE_GRID, self.cfg
            )
        elapsed = time.perf_counter() - start
        count(tracer, "refinement.triples", triples)
        ok = best_score <= val.max_attainable
        if tracer is not None:
            ok = self._replay(val, best, best_score, tracer) and ok
        with span(tracer, "bench.verify", key):
            out = digest(refinement.format_thresholds(best), repr(best_score))
        return ItemResult(
            key=key, elapsed=elapsed, work=triples, ops=triples, digest=out, ok=ok,
            latencies_ms=[elapsed * 1e3 / triples],
        )

    def _replay(self, val, best, best_score, tracer) -> bool:
        """Each triple as refine_tracks then score_dataset, so tune time
        splits by layer; the replay must find the grid search's winner."""
        scores = {}
        for triple in itertools.product(*(sorted(g) for g in TUNE_GRID)):
            with tracer.span("refinement.triple_refine", val.key):
                refined = refinement.refine_tracks(val.tracks, LevelThresholds(*triple))
            with tracer.span("scoring.triple_score", val.key):
                scores[triple] = score_dataset(
                    harness.group_by_frame(refined), val.annotations, self.cfg
                ).total
        top = max(scores.values())
        first = min(t for t, s in scores.items() if s == top)
        return top == best_score and first == (best.thr_specific, best.thr_level2, best.thr_top)

    def record(self, state):
        return {
            val.key: {"size": val.entry_count, "digest": self.run_item(state, val, None).digest}
            for val in state
        }


# --------------------------------------------------------------------------
# raw_convert


RAW_WIDTH, RAW_HEIGHT, RAW_MAX = 2448, 2048, 4095
RAW_CROP_KEEP = 1448
RAW_SPEC = harness.ScenarioSpec(frame_count=1, width=RAW_WIDTH, height=RAW_HEIGHT, sign_count=8)


@dataclass
class _RawFrame:
    key: str
    input_path: Path
    output_path: Path


class RawConvert(Workload):
    name = "raw_convert"
    kernel = StreamKernel
    kernel_reps = 3
    pool_size = 24
    pool_base = 30_000
    frames_per_run = 4

    def choose(self, pool, seed):
        return sorted(random.Random(seed).sample(sorted(pool, key=int), self.frames_per_run), key=int)

    def setup(self, keys, workdir, tracer):
        out = []
        for key in keys:
            sub = int(key)
            with span(tracer, "harness.generate", key):
                gen = harness.generate_scenario(RAW_SPEC, sub)
            with span(tracer, "harness.render", key):
                signs = harness.SyntheticRenderer(
                    gen.scenario, texture_seed=sub, background=900, max_value=RAW_MAX
                )[0].samples
                # sky-to-road gradient plus sensor noise around the rendered signs
                rng = np.random.Generator(np.random.PCG64(sub))
                ramp = np.linspace(-400, 600, RAW_HEIGHT, dtype=np.int32)[:, None]
                noise = rng.integers(-96, 97, size=signs.shape, dtype=np.int32)
                mosaic = np.clip(signs.astype(np.int32) + ramp + noise, 0, RAW_MAX).astype(np.uint16)
                data = frames.write_pnm(frames.CfaImage(mosaic, BayerPattern.RGGB, RAW_MAX))
            path = workdir / f"raw{key}.pgm"
            with span(tracer, "harness.write_inputs", key):
                datastore.atomic_write_bytes(path, data)
            out.append(_RawFrame(key=key, input_path=path, output_path=workdir / f"raw{key}.ppm"))
        return out

    def run_item(self, state, frame: _RawFrame, tracer):
        key = frame.key
        start = time.perf_counter()
        with span(tracer, "bench.read_file", key):
            data = frame.input_path.read_bytes()
        with span(tracer, "frames.read_pnm", key):
            cfa = frames.read_pnm(data, BayerPattern.RGGB)
        with span(tracer, "frames.demosaic", key):
            rgb = frames.demosaic_bilinear(cfa)
        with span(tracer, "frames.crop", key):
            rgb = frames.crop_rows(rgb, RAW_CROP_KEEP)
        with span(tracer, "frames.equalize", key):
            rgb = frames.equalize_rgb(rgb)
        with span(tracer, "frames.write_ppm", key):
            encoded = frames.write_ppm(rgb)
        with span(tracer, "datastore.atomic_write", key):
            datastore.atomic_write_bytes(frame.output_path, encoded)
        elapsed = time.perf_counter() - start
        count(tracer, "frames.bytes_decoded", len(data))
        count(tracer, "datastore.bytes_written", len(encoded))
        with span(tracer, "bench.verify", key):
            out = file_digest(frame.output_path)
        return ItemResult(key=key, elapsed=elapsed, work=1, ops=1, digest=out, latencies_ms=[elapsed * 1e3])

    def record(self, state):
        return {f.key: {"digest": self.run_item(state, f, None).digest} for f in state}


# --------------------------------------------------------------------------
# ncc_interp


NCC_SPEC = harness.ScenarioSpec(frame_count=11, width=1280, height=768, sign_count=9)
NCC_STRIDE = 5
# a detector false positive that sits on flat background at the frame corner:
# its template is clipped by the frame edge and has no variance
GHOST_BOX = BoundingBox(-8.0, -8.0, 24.0, 24.0)


@dataclass
class _NccSequence:
    key: str
    manifest: datastore.SequenceManifest
    root: Path
    tracks: list
    source: object = None


class _FetchProxy:
    """Frame provider handed to densify_ncc in a traced run: times and
    counts each fetch from the ManifestFrameSource behind it."""

    def __init__(self, source, tracer, item):
        self._source, self._tracer, self._item = source, tracer, item

    def __getitem__(self, frame_index):
        with self._tracer.span("datastore.frame_fetch", self._item):
            image = self._source[frame_index]
        self._tracer.count("datastore.frame_fetches")
        return image


class NccInterp(Workload):
    name = "ncc_interp"
    kernel = StreamKernel
    kernel_reps = 3
    pool_size = 24
    pool_base = 40_000
    band = 0.05

    def choose(self, pool, seed):
        return [_banded(pool, seed, self.band)]

    def setup(self, keys, workdir, tracer):
        ghost_code = Taxonomy.bundled().leaves[0]
        out = []
        for key in keys:
            sub = int(key)
            with span(tracer, "harness.generate", key):
                gen = harness.generate_scenario(NCC_SPEC, sub)
            with span(tracer, "harness.mock_detector", key):
                noise = harness.NoiseModel(position_jitter_px=1.0, seed=sub)
                dets = harness.mock_detector(gen.dense, noise, NCC_STRIDE, gen.scenario)
                for frame, frame_dets in dets.items():
                    frame_dets.append(
                        Detection(frame_index=frame, box=GHOST_BOX, class_distribution={ghost_code: 1.0})
                    )
            with span(tracer, "harness.build_tracks", key):
                tracks = tracking.run_tracker(dets, TrackerConfig(keyframe_stride=NCC_STRIDE))
            root = workdir / f"ncc{key}"
            root.mkdir(parents=True, exist_ok=True)
            renderer = harness.SyntheticRenderer(gen.scenario, texture_seed=sub, max_value=4095)
            entries = []
            for frame in range(gen.scenario.frame_count):
                with span(tracer, "harness.render", key):
                    data = frames.write_pnm(renderer[frame])
                name = f"frame_{frame:06d}.pgm"
                with span(tracer, "harness.write_inputs", key):
                    datastore.atomic_write_bytes(root / name, data)
                entries.append((frame, name))
            manifest = datastore.SequenceManifest(sequence_id=f"ncc-{key}", frames=tuple(entries))
            with span(tracer, "harness.write_inputs", key):
                datastore.write_manifest(manifest, root / "manifest.txt")
            out.append(_NccSequence(key=key, manifest=datastore.read_manifest(root / "manifest.txt"),
                                    root=root, tracks=tracks))
        return out

    def items(self, state):
        return [(seq, track) for seq in state for track in seq.tracks]

    def new_pass(self, state):
        # a fresh source per pass, so every pass starts from a cold cache
        for seq in state:
            seq.source = datastore.ManifestFrameSource(
                seq.manifest, root=seq.root, pattern=BayerPattern.RGGB
            )

    def run_item(self, state, item, tracer):
        seq, track = item
        key = f"{seq.key}/{track.id}"
        provider = seq.source if tracer is None else _FetchProxy(seq.source, tracer, key)
        segments = max(0, len(track.detected_entries()) - 1)
        start = time.perf_counter()
        with span(tracer, "tracking.densify_ncc", key):
            dense = tracking.densify_ncc(track, provider)
        elapsed = time.perf_counter() - start
        filled = [e for e in dense.entries if e.source is Source.INTERPOLATED]
        count(tracer, "tracking.ncc_entries", len(filled))
        count(tracer, "tracking.ncc_degenerate", sum(e.ncc_degenerate for e in filled))
        count(tracer, "tracking.ncc_clipped", sum(e.template_clipped for e in filled))
        with span(tracer, "bench.verify", key):
            out = _track_digest(dense)
        return ItemResult(
            key=key, elapsed=elapsed, work=len(filled), ops=segments, digest=out,
            latencies_ms=[elapsed * 1e3 / segments] if segments else [],
        )

    def record(self, state):
        self.new_pass(state)
        golden = {}
        for seq in state:
            results = [self.run_item(state, (seq, t), None) for t in seq.tracks]
            golden[seq.key] = {
                "size": sum(r.work for r in results),
                "tracks": {r.key: r.digest for r in results},
            }
        return golden


WORKLOADS = {w.name: w for w in (SeqPostproc(), TuneGrid(), RawConvert(), NccInterp())}


def expected_digest(golden: dict, workload: Workload, key: str) -> str | None:
    """The recorded digest of a loop item, or None when none was recorded."""
    pool = golden.get(workload.name, {})
    if workload.name == "ncc_interp":
        seq_key = key.split("/", 1)[0]
        return pool.get(seq_key, {}).get("tracks", {}).get(key)
    return pool.get(key, {}).get("digest")
