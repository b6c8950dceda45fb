"""Tests for the benchmark's own arithmetic, hooks, generator and design table."""

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Hook, Tracer, hooked  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 0.5
        wrapped_leaf()

    def top():
        clock.now += 3.0
        wrapped_mid()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_mid = tracer.wrap("mid", mid)
    tracer.wrap("top", top)()

    leaf_st, mid_st, top_st = (tracer.stats(n) for n in ("leaf", "mid", "top"))
    assert (leaf_st.calls, leaf_st.total_s, leaf_st.self_s) == (2, 4.0, 4.0)
    assert (mid_st.calls, mid_st.total_s, mid_st.self_s) == (1, 5.5, 1.5)
    assert (top_st.calls, top_st.total_s, top_st.self_s) == (1, 8.5, 3.0)
    # self times partition the root span
    assert leaf_st.self_s + mid_st.self_s + top_st.self_s == top_st.total_s


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            wrapped_boom()
        clock.now += 2.0

    wrapped_boom = tracer.wrap("boom", boom)
    tracer.wrap("outer", outer)()
    assert tracer.stats("boom").calls == 1
    assert tracer.stats("outer").self_s == 2.0


def test_unused_span_reads_zero():
    stats = Tracer().stats("never")
    assert (stats.calls, stats.total_s, stats.self_s) == (0, 0.0, 0.0)


def test_hooks_patch_count_and_restore():
    original = math.hypot
    tracer = Tracer()
    hooks = [
        Hook("math", "hypot", "math.hypot", after=lambda t, out: t.count("len", out)),
        Hook("math", "no_such_function", "math.none"),
        Hook("no_such_module_for_perfbench", "f", "x.f"),
        Hook("math", "hypot.no_such_attr", "math.deep"),
    ]
    with hooked(tracer, hooks) as missing:
        assert math.hypot(3.0, 4.0) == 5.0
        assert math.hypot is not original
    assert math.hypot is original
    assert missing == ["math.no_such_function", "no_such_module_for_perfbench.f",
                       "math.hypot.no_such_attr"]
    assert tracer.stats("math.hypot").calls == 1
    assert tracer.counts["len"] == 5.0


def test_hooks_restored_when_the_block_raises():
    original = math.hypot
    with pytest.raises(RuntimeError):
        with hooked(Tracer(), [Hook("math", "hypot", "math.hypot")]):
            raise RuntimeError("stop")
    assert math.hypot is original


def test_every_vlgraph_hook_target_exists():
    with hooked(Tracer(), layers.hooks()) as missing:
        assert missing == []


def _write(tmp_path, name, seed, shape=workloads.PAPER, count=12):
    path = tmp_path / name
    gen.write_jsonl(str(path), gen.make_records(seed, 0, count, shape))
    return path.read_bytes()


def test_generator_same_seed_same_bytes(tmp_path):
    assert _write(tmp_path, "a.jsonl", 7) == _write(tmp_path, "b.jsonl", 7)
    assert _write(tmp_path, "c.jsonl", 7) != _write(tmp_path, "d.jsonl", 8)


def test_generator_streams_are_independent():
    a = gen.make_records(3, 0, 5, workloads.PAPER)
    b = gen.make_records(3, 1, 5, workloads.PAPER)
    assert a[0]["frames"] != b[0]["frames"]


@pytest.mark.parametrize("shape", [workloads.PAPER, workloads.LONGSEG])
def test_generator_clip_shapes_do_not_depend_on_seed(shape):
    def shapes(seed):
        return Counter(
            (len(r["statement"]), tuple(
                (sum(s["t0"] <= f["t"] < s["t1"] for f in r["frames"]), len(s["tokens"]))
                for s in r["subs"]))
            for r in gen.make_records(seed, 0, 30, shape)
        )

    assert shapes(1) == shapes(2)
    assert {len(lines) for _, lines in shapes(1)} == set(range(shape.lines[0], shape.lines[1] + 1))


def test_generated_clips_read_back_as_one_segment_per_line(tmp_path):
    from vlgraph import graph

    path = tmp_path / "clips.jsonl"
    recs = gen.make_records(5, 0, 8, workloads.LONGSEG)
    gen.write_jsonl(str(path), recs)
    assert graph.validate_dataset(str(path)).n_failures == 0
    header, clips = graph.read_dataset(str(path))
    assert header == {"d_h": 32, "d_s": 32, "d_v": 32}
    for rec, clip in zip(recs, clips):
        seg = graph.segment_clip(clip.frames, clip.subs)
        assert seg.n_segments == len(rec["subs"])
        assert not seg.dropped_lines


def test_benchmark_json_matches_the_design():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.DESIGN)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for moves, on in layers.DESIGN.values():
        assert set(moves) <= end_to_end
        assert set(on) <= set(workloads.WORKLOADS)
