"""icevision-kit benchmark: four closed-loop, single-caller workloads.

Run from the repository root:

    python3 perfbench/run.py --workload seq_postproc --seed 1 --seconds 10 --trace 0

Prints every metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
spans recorded around each call into the program, plus the tracing
overhead, and writes the spans to ``.perfbench/``.

``--record-golden`` recomputes the output digests of every pool entry
into ``perfbench/golden.json``; do that only when the program's outputs
are meant to change.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one caller, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from benchlib import Metrics, Tracer, percentile, span, supports_percentile, tally  # noqa: E402

# Name, unit and operation of each workload's throughput and latency, as
# the human-readable report prints them.
RATE_NAMES = {
    "seq_postproc": ("postproc_fps", "frames/s", "sequence"),
    "tune_grid": ("tune_triples_per_s", "triples/s", "triple"),
    "raw_convert": ("convert_fps", "frames/s", "frame"),
    "ncc_interp": ("ncc_entries_per_s", "entries/s", "segment"),
}
END_TO_END = ("throughput", "op_ms_p50", "setup_s", "peak_rss_mb")
LAYERS = ("bench", "datastore", "tracking", "refinement", "scoring", "frames")
SETUP_SPANS = ("generate", "mock_detector", "render", "write_inputs", "build_tracks")
# per-item self times, by span name
ITEM_SPANS = (
    "datastore.read_detections", "datastore.write_tracks", "datastore.read_tracks",
    "datastore.write_detections", "datastore.atomic_write", "datastore.frame_fetch",
    "tracking.run_tracker", "tracking.densify_linear",
    "refinement.refine_tracks", "refinement.grid_search",
    "scoring.score_dataset",
    "frames.read_pnm", "frames.demosaic", "frames.crop", "frames.equalize", "frames.write_ppm",
)
# per-item counts, and whether more is better
ITEM_COUNTS = {
    "datastore.records_read": "lower", "datastore.records_written": "lower",
    "datastore.bytes_written": "lower", "datastore.frame_fetches": "lower",
    "tracking.tracks_out": "lower", "tracking.entries_out": "lower",
    "tracking.ncc_entries": "higher", "tracking.ncc_degenerate": "lower",
    "tracking.ncc_clipped": "lower",
    "refinement.detections_out": "lower", "refinement.triples": "higher",
    "scoring.frames_scored": "higher", "scoring.tp_count": "higher", "scoring.fp_count": "lower",
    "frames.bytes_decoded": "lower",
}


def per_layer_names() -> list[str]:
    """Every metric a traced run reports in its JSON line, in order."""
    return (
        [f"harness.{s}_s" for s in SETUP_SPANS]
        + [f"{n}_s" for n in ITEM_SPANS]
        + ["tracking.densify_ncc_self_s", "refinement.triple_refine_ms", "scoring.triple_score_ms"]
        + list(ITEM_COUNTS)
        + [f"self.{layer}_s" for layer in LAYERS]
        + ["trace.coverage", "trace.overhead_ratio"]
    )


def _load_program():
    """Import the program from this checkout's ``src``; None when absent."""
    src = ROOT / "src"
    if not (src / "icevision_kit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def _check_declared() -> None:
    """The metric names printed must be those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", list(END_TO_END)), ("per_layer", per_layer_names())):
        if [m["name"] for m in declared[key]] != names:
            raise SystemExit(f"perfbench: BENCHMARK.json {key} differs from the metrics run.py prints")


# --------------------------------------------------------------------------
# Measurement


class Loop:
    """One workload's closed loop with one caller.  The workload's
    calibration kernel is timed between consecutive steps, and each step
    gets the scale that brings its time to reference speed."""

    def __init__(self, workload, tracer):
        self.workload, self.tracer = workload, tracer
        self.kernel = workload.kernel()
        self.kernel_times: list[float] = []

    def _kernel_ms(self) -> float:
        times = []
        with span(self.tracer, "bench.calibrate"):
            for _ in range(self.workload.kernel_reps):
                start = time.perf_counter()
                self.kernel()
                times.append(time.perf_counter() - start)
        self.kernel_times.append(1e3 * percentile(times, 50))
        return self.kernel_times[-1]

    def _scale(self, before, after) -> float:
        return self.kernel.ref_ms / ((before + after) / 2)

    def set_up(self, keys, workdir):
        """Set up SETUP_REPEATS times: (last state, [(seconds, scale)],
        spans of each repetition)."""
        tracer = self.tracer
        timings, spans = [], []
        state = None
        before = self._kernel_ms()
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            mark = len(tracer.spans) if tracer else 0
            start = time.perf_counter()
            state = self.workload.setup(keys, workdir, tracer)
            elapsed = time.perf_counter() - start
            if tracer:
                spans.append(tracer.spans[mark:])
            after = self._kernel_ms()
            timings.append((elapsed, self._scale(before, after)))
            before = after
        gc.collect()
        return state, timings, spans

    def measure(self, state, seconds: float, tracer=None):
        """Whole passes over the items until ``seconds`` have passed, so
        every input weighs the same and per-item counts repeat exactly.
        Returns the results of each pass and the wall time."""
        items = self.workload.items(state)
        passes = []
        start = time.perf_counter()
        before = self._kernel_ms()
        while not passes or time.perf_counter() - start < seconds:
            self.workload.new_pass(state)
            passes.append([])
            for item in items:
                result = self.workload.run_item(state, item, tracer)
                after = self._kernel_ms()
                result.scale = self._scale(before, after)
                before = after
                passes[-1].append(result)
        return passes, time.perf_counter() - start


def _report_e2e(metrics: Metrics, name: str, passes, prefix="") -> float:
    """Throughput and latency as measured, then at reference speed; returns
    the reference-speed median latency.  The reference-speed throughput is
    the median over passes, so one slow stretch of the machine moves it less."""
    rate_name, rate_unit, op = RATE_NAMES[name]
    results = [r for one_pass in passes for r in one_pass]
    work = sum(r.work for r in results)
    raw_lat = [ms for r in results for ms in r.latencies_ms]
    ref_lat = [ms * r.scale for r in results for ms in r.latencies_ms]
    metrics.add(prefix + rate_name, work / sum(r.elapsed for r in results), rate_unit)
    metrics.add(prefix + f"{op}_ms_p50", percentile(raw_lat, 50), "ms")
    if supports_percentile(len(raw_lat), 90):
        metrics.add(prefix + f"{op}_ms_p90", percentile(raw_lat, 90), "ms")
    metrics.add(prefix + "latency_samples", len(raw_lat), "count")
    if not prefix:
        rates = [sum(r.work for r in p) / sum(r.elapsed * r.scale for r in p) for p in passes]
        metrics.add("throughput", statistics.median(rates), "1/s")
        metrics.add("passes", len(passes), "count")
        metrics.add("op_ms_p50", percentile(ref_lat, 50), "ms")
    return percentile(ref_lat, 50)


def _report_common(metrics: Metrics, loop: Loop, setup_timings, attempted, failed) -> None:
    metrics.add("setup_s", percentile([s * scale for s, scale in setup_timings], 50), "s")
    metrics.add("setup_raw_s", percentile([s for s, _ in setup_timings], 50), "s")
    metrics.add("setup_samples", len(setup_timings), "count")
    metrics.add("kernel_ms_p50", percentile(loop.kernel_times, 50), "ms")
    metrics.add("kernel_ref_ms", loop.kernel.ref_ms, "ms")
    metrics.add("ops_failed_ratio", failed / attempted, "ratio")
    metrics.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")


def _report_layers(metrics: Metrics, tracer: Tracer, mark: int, items: int, setup_spans,
                   wall: float):
    selfs = tracer.self_times(mark)
    for stage in SETUP_SPANS:
        name = f"harness.{stage}"
        per_setup = [sum(s.end - s.start for s in rep if s.name == name) for rep in setup_spans]
        metrics.add(f"{name}_s", percentile(per_setup, 50), "s")
    for name in ITEM_SPANS:
        metrics.add(f"{name}_s", selfs.get(name, 0.0) / items, "s/item")
    metrics.add("tracking.densify_ncc_self_s", selfs.get("tracking.densify_ncc", 0.0) / items, "s/item")
    triples = tracer.counts.get("refinement.triples", 0)
    for name, metric in (("refinement.triple_refine", "refinement.triple_refine_ms"),
                         ("scoring.triple_score", "scoring.triple_score_ms")):
        metrics.add(metric, 1e3 * selfs.get(name, 0.0) / triples if triples else 0.0, "ms")
    for name in ITEM_COUNTS:
        metrics.add(name, tracer.counts.get(name, 0) / items, "count/item")
    for layer in LAYERS:
        total = sum(t for n, t in selfs.items() if n.split(".", 1)[0] == layer)
        metrics.add(f"self.{layer}_s", total / items, "s/item")
    metrics.add("trace.coverage", tracer.top_level_time(mark) / wall, "ratio")


def run(args, wl) -> int:
    workload = wl.WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text())
    keys = workload.choose(golden[workload.name], args.seed)

    def expected(key):
        return wl.expected_digest(golden, workload, key)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT_DIR))
    tracer = Tracer() if args.trace else None
    loop = Loop(workload, tracer)
    metrics = Metrics()
    try:
        state, setup_timings, setup_spans = loop.set_up(keys, workdir)
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace} inputs {','.join(keys)}")
        if not args.trace:
            passes, _ = loop.measure(state, args.seconds)
            attempted, failed = tally([r for p in passes for r in p], expected)
            _report_e2e(metrics, workload.name, passes)
            _report_common(metrics, loop, setup_timings, attempted, failed)
            json_names = END_TO_END
        else:
            # half the time untraced, then the same items traced: the
            # difference between the two halves is the tracing overhead
            plain, _ = loop.measure(state, args.seconds / 2.0)
            mark = len(tracer.spans)
            traced, wall = loop.measure(state, args.seconds / 2.0, tracer)
            attempted, failed = tally([r for p in plain + traced for r in p], expected)
            plain_p50 = _report_e2e(metrics, workload.name, plain)
            traced_p50 = _report_e2e(metrics, workload.name, traced, prefix="traced.")
            _report_common(metrics, loop, setup_timings, attempted, failed)
            _report_layers(metrics, tracer, mark, sum(map(len, traced)), setup_spans, wall)
            metrics.add("trace.overhead_ratio", traced_p50 / plain_p50, "ratio")
            json_names = per_layer_names()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer:
            tracer.dump(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")

    print("\n".join(metrics.lines()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.as_json(json_names),
    }))
    return 0


def record_golden(wl, names) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = wl.WORKLOADS[name]
        entries = {}
        for key in workload.pool_keys():
            workdir = Path(tempfile.mkdtemp(prefix=f"golden-{name}-", dir=OUT_DIR))
            try:
                state = workload.setup([key], workdir, None)
                entries.update(workload.record(state))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} {key} {entries[key].get('size', '-')}", flush=True)
        golden[name] = entries
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(RATE_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record output digests (all workloads, or --workload)")
    args = parser.parse_args(argv)

    wl = _load_program()
    if wl is None:
        print(f"perfbench: no icevision_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(wl, [args.workload] if args.workload else list(RATE_NAMES))
    if args.workload is None:
        parser.error("--workload is required")
    if not GOLDEN.is_file():
        print(f"perfbench: missing {GOLDEN}", file=sys.stderr)
        return 2
    _check_declared()
    return run(args, wl)


if __name__ == "__main__":
    sys.exit(main())
