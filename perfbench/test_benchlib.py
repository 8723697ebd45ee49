"""Tests of the benchmark's own helpers (no program import needed)."""

import json
from pathlib import Path

import pytest

from benchlib import (
    ItemResult,
    Metrics,
    Tracer,
    check_metric_name,
    digest,
    file_digest,
    percentile,
    samples_beyond,
    supports_percentile,
    tally,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7.0], 50) == 7.0
        assert percentile([3, 1, 2], 50) == 2

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 90) == percentile([1, 2, 3, 4, 5], 90) == 5

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_ten_samples_beyond_rule(self):
        # p90 is reportable from 100 samples on, p50 from 20, p99 from 1000
        assert samples_beyond(100, 90) == 10
        assert supports_percentile(100, 90)
        assert not supports_percentile(99, 90)
        assert supports_percentile(20, 50)
        assert not supports_percentile(19, 50)
        assert supports_percentile(1000, 99)
        assert not supports_percentile(999, 99)
        assert not supports_percentile(0, 50)


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "datastore.read_tracks_s", "p90-ms", "9a", "A.b_c-d"])
    def test_accepts(self, name):
        assert check_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "ms:p50", "é", "x" * 65])
    def test_rejects(self, name):
        with pytest.raises(ValueError):
            check_metric_name(name)

    def test_declared_names_follow_the_pattern(self):
        declared = json.loads(BENCHMARK.read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
        names += [w["name"] for w in declared["workloads"]]
        for name in names:
            check_metric_name(name)
        assert len(names) == len(set(names))

    def test_metrics_table_rejects_bad_names_units_and_repeats(self):
        m = Metrics()
        m.add("setup_s", 1.5, "s")
        with pytest.raises(ValueError):
            m.add("setup_s", 2.0, "s")
        with pytest.raises(ValueError):
            m.add("bad name", 1.0, "s")
        with pytest.raises(ValueError):
            m.add("ok", 1.0, "bad unit")
        assert m.as_json(["setup_s"]) == {"setup_s": {"value": 1.5, "unit": "s"}}


class TestDigest:
    def test_one_byte_change_is_detected(self, tmp_path):
        data = bytearray(b"P6\n4 2\n255\n" + bytes(range(24)))
        path = tmp_path / "out.ppm"
        path.write_bytes(bytes(data))
        before = file_digest(path)
        for offset in (0, len(data) // 2, len(data) - 1):
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            assert file_digest(path) != before
        path.write_bytes(bytes(data))
        assert file_digest(path) == before

    def test_part_boundaries_count(self):
        assert digest("ab", "c") != digest("a", "bc")
        assert digest(b"x") == digest("x")

    def test_a_changed_digest_fails_the_item(self):
        recorded = {"a": digest(b"good"), "b": digest(b"good too")}
        results = [
            ItemResult(key="a", elapsed=0.1, work=1, ops=3, digest=digest(b"good")),
            ItemResult(key="b", elapsed=0.1, work=1, ops=2, digest=digest(b"good toO")),
        ]
        assert tally(results, recorded.get) == (5, 2)
        results[1].digest = digest(b"good too")
        assert tally(results, recorded.get) == (5, 0)
        results[0].ok = False  # a broken invariant fails the item too
        assert tally(results, recorded.get) == (5, 3)

    def test_unrecorded_item_fails(self):
        results = [ItemResult(key="z", elapsed=0.1, work=1, ops=1, digest=digest(b"x"))]
        assert tally(results, {}.get) == (1, 1)


class TestTracer:
    def test_self_time_subtracts_children(self):
        tracer = Tracer()
        with tracer.span("tracking.densify_ncc", "7"):
            with tracer.span("datastore.frame_fetch", "7"):
                pass
            with tracer.span("datastore.frame_fetch", "7"):
                pass
        outer, fetch1, fetch2 = tracer.spans
        assert fetch1.parent == fetch2.parent == 0 and outer.parent is None
        assert fetch1.item == "7"
        selfs = tracer.self_times()
        children = (fetch1.end - fetch1.start) + (fetch2.end - fetch2.start)
        assert selfs["tracking.densify_ncc"] == pytest.approx(outer.end - outer.start - children)
        assert selfs["datastore.frame_fetch"] == pytest.approx(children)
        assert tracer.top_level_time() == pytest.approx(outer.end - outer.start)

    def test_self_times_since_a_mark_and_dump(self, tmp_path):
        tracer = Tracer()
        with tracer.span("harness.generate"):
            pass
        mark = len(tracer.spans)
        with tracer.span("scoring.score_dataset", "s1"):
            pass
        tracer.count("scoring.tp_count", 4)
        assert set(tracer.self_times(mark)) == {"scoring.score_dataset"}
        out = tmp_path / "spans.jsonl"
        tracer.dump(out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["name"] for r in rows] == ["harness.generate", "scoring.score_dataset"]
        assert set(rows[1]) == {"id", "name", "start", "end", "parent", "item"}
        assert tracer.counts == {"scoring.tp_count": 4}
