import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgraph import graph as gr
from vlgraph.errors import EmptyInputError, ValidationError
from vlgraph.graph import FrameNode, SubtitleLine, segment_clip
from vlgraph.tensor import ParamStore


def frames_at(*ts):
    return [FrameNode(t=t, feature=np.ones(3)) for t in ts]


def lines(*spans, n_tokens=1):
    return [SubtitleLine(t0=a, t1=b, tokens=np.ones((n_tokens, 2))) for a, b in spans]


def test_direct_containment():
    seg = segment_clip(frames_at(0.5, 1.5, 2.5, 4.0), lines((0, 2), (2, 5)))
    assert seg.n_segments == 2
    assert [len(f) for f in seg.frame_index] == [2, 2]


def test_orphan_joins_nearest_midpoint():
    seg = segment_clip(frames_at(0.5, 1.5, 2.5, 4.0, 6.0), lines((0, 2), (2, 5)))
    # frame at 6.0 is beyond both spans; midpoints are 1.0 and 3.5
    assert seg.frame_index[1][-1] == 4


def test_boundary_frame_uses_half_open_spans():
    seg = segment_clip(frames_at(2.0), lines((0, 2), (2, 5)))
    assert seg.n_segments == 1 and seg.line_index == [1]


def test_orphan_tie_prefers_earlier_segment():
    # midpoints 1.0 and 5.0; a frame at 3.0 is equidistant
    seg = segment_clip(frames_at(0.5, 4.5, 3.0), lines((0, 2), (4, 6)))
    assert 2 in seg.frame_index[0]


def test_empty_inputs_rejected():
    with pytest.raises(EmptyInputError):
        segment_clip([], lines((0, 1)))
    with pytest.raises(EmptyInputError):
        segment_clip(frames_at(0.5), [])


def test_zero_length_span_rejected():
    with pytest.raises(ValidationError):
        SubtitleLine(t0=1.0, t1=1.0, tokens=np.ones((1, 2)))


def test_overlapping_spans_clipped_at_later_start():
    seg = segment_clip(frames_at(0.5, 1.5, 2.5), lines((0, 3), (1, 4)))
    # first span clipped to [0, 1): frame 0.5 in seg 0, rest in seg 1
    assert seg.frame_index == [[0], [1, 2]]


def test_frameless_line_dropped_and_logged(caplog):
    with caplog.at_level("INFO", logger="vlgraph.graph"):
        seg = segment_clip(frames_at(0.5), lines((0, 1), (10, 11)))
    assert seg.n_segments == 1
    assert seg.dropped_lines == [1]
    assert "dropped" in caplog.text


def test_segment_order_follows_start_times():
    seg = segment_clip(frames_at(0.5, 2.5), [
        SubtitleLine(t0=2.0, t1=3.0, tokens=np.ones((1, 2))),
        SubtitleLine(t0=0.0, t1=1.0, tokens=np.ones((2, 2))),
    ])
    assert seg.line_index == [1, 0]
    assert seg.spans[0][0] < seg.spans[1][0]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20),
    st.integers(1, 5),
)
def test_partition_property(frame_ts, n_lines):
    # non-overlapping spans of length 2 at 0,3,6,... with one frame planted
    # inside each so no line drops: every frame lands in exactly one segment
    subs = lines(*[(3.0 * i, 3.0 * i + 2.0) for i in range(n_lines)], n_tokens=2)
    planted = [3.0 * i + 1.0 for i in range(n_lines)]
    fs = frames_at(*(list(frame_ts) + planted))
    seg = segment_clip(fs, subs)
    flat = sorted(i for idxs in seg.frame_index for i in idxs)
    assert flat == list(range(len(fs)))
    n_tokens = sum(subs[i].tokens.shape[0] for i in seg.line_index)
    assert n_tokens == sum(s.tokens.shape[0] for s in subs)


def test_segmentation_deterministic():
    fs = frames_at(0.1, 0.9, 2.2, 5.5, 7.7)
    subs = lines((0, 2), (2, 4), (6, 8))
    a, b = segment_clip(fs, subs), segment_clip(fs, subs)
    assert a.frame_index == b.frame_index and a.line_index == b.line_index


def test_build_clip_graph_projects_to_model_dim():
    rng = np.random.default_rng(0)
    ps = ParamStore()
    ps.add_linear("proj.v", 4, 3, rng)
    ps.add_linear("proj.s", 4, 2, rng)
    g = gr.build_clip_graph(frames_at(0.5, 1.5, 2.5), lines((0, 2), (2, 5), n_tokens=3), ps)
    assert g.n_segments == 2
    assert g.visual[0].shape == (4, 2) and g.visual[1].shape == (4, 1)
    assert all(s.shape == (4, 3) for s in g.text)
    assert all(np.all(np.abs(v.data) < 1.0) for v in g.visual)


# ---------------------------------------------------------------- dataset

HEADER = {"d_v": 3, "d_s": 2, "d_h": 2}


def record(clip_id="c0", label=1, frame_w=3):
    return {
        "clip_id": clip_id,
        "frames": [{"t": 0.5, "f": [0.0] * frame_w}, {"t": 1.5, "f": [0.0] * frame_w}],
        "subs": [{"t0": 0.0, "t1": 2.0, "tokens": [[0.0, 0.0]]}],
        "statement": [[0.1, 0.2]],
        "label": label,
    }


def write(tmp_path, recs, header=HEADER):
    path = tmp_path / "data.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for r in recs:
            fh.write(json.dumps(r) + "\n")
    return str(path)


def test_validate_clean_file(tmp_path):
    rep = gr.validate_dataset(write(tmp_path, [record(), record("c1", 0)]))
    assert rep.n_failures == 0 and len(rep.records) == 2


def test_validate_flags_width_mismatch(tmp_path):
    rep = gr.validate_dataset(write(tmp_path, [record(), record("bad", frame_w=4)]))
    assert rep.n_failures == 1
    bad = [r for r in rep.records if not r.ok][0]
    assert bad.line_no == 3
    assert any("d_v" in p for p in bad.problems)


def test_validate_flags_bad_label_and_times(tmp_path):
    rec = record()
    rec["label"] = 2
    rec["frames"] = [{"t": 2.0, "f": [0.0] * 3}, {"t": 1.0, "f": [0.0] * 3}]
    rep = gr.validate_dataset(write(tmp_path, [rec]))
    problems = rep.records[0].problems
    assert any("label" in p for p in problems)
    assert any("nondecreasing" in p for p in problems)


def test_validate_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyInputError):
        gr.validate_dataset(str(path))


def test_validate_malformed_record_listed_not_fatal(tmp_path):
    path = write(tmp_path, [record()])
    with open(path, "a") as fh:
        fh.write("{not json\n")
    rep = gr.validate_dataset(path)
    assert rep.n_failures == 1
    assert rep.records[-1].line_no == 3


def bad_records():
    no_statement, no_id = record(), record()
    del no_statement["statement"], no_id["clip_id"]
    return {"statement": no_statement, "d_v": record(frame_w=2), "clip_id": no_id,
            "not a JSON object": [record()]}


@pytest.mark.parametrize("problem", ["statement", "d_v", "clip_id", "not a JSON object"])
def test_read_dataset_rejects_bad_record_with_line(tmp_path, problem):
    path = write(tmp_path, [record(), bad_records()[problem]])
    with pytest.raises(ValidationError, match=rf"data\.jsonl:3: .*{problem}"):
        gr.read_dataset(path)


def test_read_dataset_rejects_line_that_is_not_json(tmp_path):
    path = write(tmp_path, [record()])
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValidationError, match=r"data\.jsonl:3: not valid JSON"):
        gr.read_dataset(path)


def test_read_dataset_roundtrip(tmp_path):
    path = write(tmp_path, [record(), record("c1", 0)])
    header, clips = gr.read_dataset(path)
    assert header == HEADER
    assert [c.clip_id for c in clips] == ["c0", "c1"]
    assert clips[0].statement.shape == (2, 1)
    assert clips[1].label == 0
