import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgraph import graph as gr
from vlgraph.errors import EmptyInputError, ValidationError
from vlgraph.graph import FrameNode, SubtitleLine, segment_clip


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


def test_non_finite_timestamps_rejected():
    with pytest.raises(ValidationError, match="not finite"):
        FrameNode(t=float("nan"), feature=np.zeros(2))
    with pytest.raises(ValidationError, match="not finite"):
        SubtitleLine(t0=0.0, t1=float("inf"), tokens=np.ones((1, 2)))


# (call, error type, message fragment) of each input guard of `graph`
GUARDS = {
    "frame-negative-time": (lambda: FrameNode(t=-0.5, feature=np.zeros(2)),
                            ValidationError, "is negative"),
    # `[]` reads as one token of width 0 unless the check counts entries
    "line-tokens-empty-list": (lambda: SubtitleLine(t0=0.0, t1=1.0, tokens=[]),
                               ValidationError, "subtitle line has no tokens"),
    "line-tokens-zero-rows": (lambda: SubtitleLine(t0=0.0, t1=1.0, tokens=np.zeros((0, 2))),
                              ValidationError, "subtitle line has no tokens"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_graph_guards_raise_package_errors(case):
    call, error, fragment = GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


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


def test_line_whose_span_collapses_under_clipping_dropped():
    # both lines start at 0.0, so the first is clipped to [0, 0) and dropped
    seg = segment_clip(frames_at(0.5), lines((0, 1), (0, 2)))
    assert seg.dropped_lines == [0]
    assert seg.line_index == [1] and seg.spans == [(0, 2)]


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
    assert seg.n_segments >= 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.0, 30.0), min_size=1, max_size=12),
    st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(1e-6, 10.0)), min_size=1, max_size=6),
)
def test_any_valid_clip_keeps_a_segment(frame_ts, spans):
    # overlapping, nested and repeated spans, frames anywhere: the last line in
    # start order is never clipped, and every frame joins some span
    subs = lines(*[(t0, t0 + length) for t0, length in spans])
    seg = segment_clip(frames_at(*frame_ts), subs)
    assert seg.n_segments >= 1
    assert sorted(i for idxs in seg.frame_index for i in idxs) == list(range(len(frame_ts)))
    assert all(a < b for a, b in seg.spans)


def test_segmentation_deterministic():
    fs = frames_at(0.1, 0.9, 2.2, 5.5, 7.7)
    subs = lines((0, 2), (2, 4), (6, 8))
    a, b = segment_clip(fs, subs), segment_clip(fs, subs)
    assert a.frame_index == b.frame_index and a.line_index == b.line_index


def test_build_clip_graph_lays_out_raw_features():
    fs = [FrameNode(t=t, feature=np.full(3, t)) for t in (0.5, 1.5, 2.5)]
    # lines out of time order: segments follow time, not the list
    subs = [SubtitleLine(t0=a, t1=b, tokens=np.full((3, 2), a)) for a, b in ((2, 5), (0, 2))]
    g = gr.build_clip_graph(fs, subs)
    assert g.n_segments == 2
    assert g.frames.shape == (3, 3) and g.tokens.shape == (2, 6)
    assert g.frame_sizes == (2, 1) and g.token_sizes == (3, 3)
    assert [v[0].tolist() for v in g.visual] == [[0.5, 1.5], [2.5]]
    assert [t[0].tolist() for t in g.text] == [[0.0] * 3, [2.0] * 3]
    assert all(np.shares_memory(v, g.frames) for v in g.visual)


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


def write_separator_ids(tmp_path):
    """Records whose clip ids hold, raw, the characters besides "\\n" at
    which `str.splitlines` ends a line; JSON allows them inside strings."""
    ids = ["a\u2028b", "c\u2029d", "e\x85f"]
    path = tmp_path / "data.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(HEADER) + "\n")
        for clip_id in ids:
            fh.write(json.dumps(record(clip_id), ensure_ascii=False) + "\n")
    return str(path), ids


def test_read_dataset_keeps_records_with_unicode_line_separators(tmp_path):
    path, ids = write_separator_ids(tmp_path)
    _, clips = gr.read_dataset(path)
    assert [c.clip_id for c in clips] == ids


def test_validate_dataset_numbers_lines_at_newlines_only(tmp_path):
    path, ids = write_separator_ids(tmp_path)
    rep = gr.validate_dataset(path)
    assert rep.n_failures == 0
    assert [(r.line_no, r.clip_id) for r in rep.records] == [(2, ids[0]), (3, ids[1]), (4, ids[2])]


def write_with_line(tmp_path, middle, header=json.dumps(HEADER)):
    """The header, then two valid records with the line `middle` between
    them, as line 3; str lines are written as UTF-8, bytes as they are."""
    path = tmp_path / "data.jsonl"
    with open(path, "wb") as fh:
        for line in (header, json.dumps(record()), middle, json.dumps(record("c1", 0))):
            fh.write((line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n")
    return str(path)


LATIN1_RECORD = json.dumps(record("caf\xe9"), ensure_ascii=False).encode("latin-1")


@pytest.mark.parametrize("line, problem", [
    ("\u3000", "not valid JSON"), ("\x85", "not valid JSON"), ("\u2028", "not valid JSON"),
    ("\xa0", "not valid JSON"), (LATIN1_RECORD, "not valid UTF-8: .*0xe9"),
], ids=["U+3000", "U+0085", "U+2028", "U+00A0", "Latin-1"])
def test_a_line_of_unicode_whitespace_is_a_bad_record(tmp_path, line, problem):
    # `str.strip` empties these lines, but JSON does not count them as
    # whitespace; a line that is not UTF-8 is a bad record of its own
    path = write_with_line(tmp_path, line)
    with pytest.raises(ValidationError, match=r"data\.jsonl:3: " + problem):
        gr.read_dataset(path)
    rep = gr.validate_dataset(path)
    assert rep.n_failures == 1
    assert [(r.line_no, r.ok) for r in rep.records] == [(2, True), (3, False), (4, True)]
    assert re.match(problem, rep.records[1].problems[0])


def test_a_line_of_json_whitespace_is_blank(tmp_path):
    path = write_with_line(tmp_path, " \t\r ")
    _, clips = gr.read_dataset(path)
    assert [c.clip_id for c in clips] == ["c0", "c1"]
    rep = gr.validate_dataset(path)
    assert rep.n_failures == 0 and [r.line_no for r in rep.records] == [2, 4]


def test_validate_malformed_record_listed_not_fatal(tmp_path):
    path = write(tmp_path, [record()])
    with open(path, "a") as fh:
        fh.write("{not json\n")
    rep = gr.validate_dataset(path)
    assert rep.n_failures == 1
    assert rep.records[-1].line_no == 3


def with_field(**fields):
    """A valid record with fields replaced; a key `path.to.field` reaches into
    the record's nested lists and objects (`frames.0.f`)."""
    rec = record()
    for key, value in fields.items():
        *path, leaf = key.split(".")
        owner = rec
        for part in path:
            owner = owner[int(part)] if isinstance(owner, list) else owner[part]
        owner[int(leaf) if isinstance(owner, list) else leaf] = value
    return rec


def bad_records():
    """Problem id -> (record, what the error must say about it)."""
    no_statement, no_id, no_feature = record(), record(), record()
    del no_statement["statement"], no_id["clip_id"], no_feature["frames"][0]["f"]
    return {
        "statement": (no_statement, "statement"),
        "d_v": (record(frame_w=2), "d_v"),
        "clip_id": (no_id, "clip_id"),
        "not a JSON object": ([record()], "not a JSON object"),
        "frame not an object": (with_field(frames=[1]), "frames[0]: not an object"),
        "frames not a list": (with_field(frames={"t": 0}), "frames: not a list"),
        "token not a list": (with_field(**{"subs.0.tokens": [5]}), "subs[0].tokens[0]: not a list"),
        "clause not a list": (with_field(statement=[3]), "statement[0]: not a list"),
        "string timestamp": (with_field(**{"frames.0.t": "0.5"}), "frames[0].t: not a number"),
        "NaN feature": (with_field(**{"frames.1.f.2": float("nan")}), "frames[1].f: not finite numbers"),
        "infinite token": (with_field(**{"subs.0.tokens.0.1": float("inf")}),
                           "subs[0].tokens[0]: not finite numbers"),
        "text feature": (with_field(**{"statement.0.0": "high"}), "statement[0]: not finite numbers"),
        "boolean label": (with_field(label=True), "label: True"),
        "NaN frame time": (with_field(**{"frames.0.t": float("nan")}), "frames[0].t: not finite"),
        "infinite span end": (with_field(**{"subs.0.t1": float("inf")}), "subs[0].t1: not finite"),
        "infinite span start": (with_field(**{"subs.0.t0": float("-inf")}),
                                "subs[0].t0: not finite"),
        "frame without feature": (no_feature, "frames[0].f: missing"),
        "negative frame time": (with_field(**{"frames.0.t": -0.5}), "frames[0].t: negative"),
        "sub not an object": (with_field(subs=[5]), "subs[0]: not an object"),
        "string span start": (with_field(**{"subs.0.t0": "0"}),
                              "subs[0]: span bounds t0, t1 not numbers"),
        "empty span": (with_field(**{"subs.0.t1": 0.0}), "subs[0]: span [0.0, 0.0) not increasing"),
        "tokens not a list": (with_field(**{"subs.0.tokens": "ab"}), "subs[0].tokens: not a list"),
        "no tokens": (with_field(**{"subs.0.tokens": []}), "subs[0].tokens: empty"),
        "number clip_id": (with_field(clip_id=5), "clip_id: 5 is not a string"),
        "list clip_id": (with_field(clip_id=[1, 2]), "clip_id: [1, 2] is not a string"),
        "null clip_id": (with_field(clip_id=None), "clip_id: None is not a string"),
        "float label": (with_field(label=1.0), "label: 1.0 not in {0, 1}"),
        "float zero label": (with_field(label=0.0), "label: 0.0 not in {0, 1}"),
    }


@pytest.mark.parametrize("problem", list(bad_records()))
def test_read_dataset_rejects_bad_record_with_line(tmp_path, problem):
    rec, message = bad_records()[problem]
    path = write(tmp_path, [record(), rec])
    with pytest.raises(ValidationError, match=rf"data\.jsonl:3: .*{re.escape(message)}"):
        gr.read_dataset(path)
    report = gr.validate_dataset(path)
    assert [r.ok for r in report.records] == [True, False]
    assert any(message in p for p in report.records[1].problems)


@pytest.mark.parametrize("header, message", [
    (5, "header is not a JSON object"),
    ([3, 2, 2], "header is not a JSON object"),
    ({**HEADER, "d_v": 0}, "header 'd_v': 0 is not a positive integer"),
    ({**HEADER, "d_s": True}, "header 'd_s': True is not a positive integer"),
    ({**HEADER, "d_h": 2.0}, "header 'd_h': 2.0 is not a positive integer"),
    ({**HEADER, "d_v": "3"}, "header 'd_v': '3' is not a positive integer"),
    ({"d_v": 3, "d_s": 2}, "header missing 'd_h'"),
])
def test_dataset_header_must_declare_positive_widths(tmp_path, header, message):
    path = write(tmp_path, [record()], header=header)
    for read in (gr.read_dataset, gr.validate_dataset):
        with pytest.raises(ValidationError, match=rf"data\.jsonl:1: {re.escape(message)}"):
            read(path)


def test_dataset_header_that_is_not_json_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("{not json\n" + json.dumps(record()) + "\n")
    for read in (gr.read_dataset, gr.validate_dataset):
        with pytest.raises(ValidationError, match=r"data\.jsonl:1: header is not valid JSON"):
            read(str(path))


def test_read_dataset_rejects_line_that_is_not_json(tmp_path):
    path = write(tmp_path, [record()])
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValidationError, match=r"data\.jsonl:3: not valid JSON"):
        gr.read_dataset(path)


def test_integer_over_the_digit_limit_is_a_validation_error(tmp_path):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer over Python's 4,300-digit conversion limit
    path = write(tmp_path, [record()])
    with open(path, "a") as fh:
        fh.write('{"clip_id": "big", "label": ' + "9" * 5000 + "}\n")
        fh.write(json.dumps(record("c2", 0)) + "\n")
    with pytest.raises(ValidationError, match=r"data\.jsonl:3: not valid JSON"):
        gr.read_dataset(path)
    rep = gr.validate_dataset(path)
    assert [(r.line_no, r.ok) for r in rep.records] == [(2, True), (3, False), (4, True)]
    assert rep.n_failures == 1
    header_path = tmp_path / "big_header.jsonl"
    header_path.write_text('{"d_v": ' + "9" * 5000 + "}\n" + json.dumps(record()) + "\n")
    for read in (gr.read_dataset, gr.validate_dataset):
        with pytest.raises(ValidationError, match=r"big_header\.jsonl:1: header is not valid JSON"):
            read(str(header_path))


def test_read_dataset_roundtrip(tmp_path):
    path = write(tmp_path, [record(), record("c1", 0)])
    header, clips = gr.read_dataset(path)
    assert header == HEADER
    assert [c.clip_id for c in clips] == ["c0", "c1"]
    assert clips[0].statement.shape == (2, 1)
    assert clips[1].label == 0


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.removesuffix("\n"),
    lambda text: text + "\n \t\n\r\n\n",
], ids=["CRLF", "no final newline", "trailing blank lines"])
def test_line_endings_and_trailing_blank_lines(tmp_path, edit):
    path = write(tmp_path, [record(), record("c1", 0)])
    _, plain = gr.read_dataset(path)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(edit(text))
    header, clips = gr.read_dataset(path)
    assert header == HEADER
    assert [(c.clip_id, c.label) for c in clips] == [("c0", 1), ("c1", 0)]
    assert all(np.array_equal(a.statement, b.statement) for a, b in zip(clips, plain))
    rep = gr.validate_dataset(path)
    assert rep.n_failures == 0 and [r.line_no for r in rep.records] == [2, 3]


@pytest.mark.parametrize("ending", ["\n", ""], ids=["newline", "no newline"])
def test_header_only_file_has_no_records(tmp_path, ending):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(HEADER) + ending)
    assert gr.read_dataset(str(path)) == (HEADER, [])
    rep = gr.validate_dataset(str(path))
    assert rep.header == HEADER and rep.records == []


def test_header_that_is_not_utf8_rejected(tmp_path):
    header = json.dumps({**HEADER, "name": "caf\xe9"}, ensure_ascii=False).encode("latin-1")
    path = write_with_line(tmp_path, json.dumps(record("c2")), header)
    for read in (gr.read_dataset, gr.validate_dataset):
        with pytest.raises(ValidationError, match=r"data\.jsonl:1: header is not valid UTF-8"):
            read(path)


def test_readers_hold_one_line_beyond_what_they_return(tmp_path):
    # 128 records of about 11 KB make a file of about 1.4 MiB; a reader that
    # holds the whole text, or a list of its lines, peaks a file size higher
    width = 64
    rng = np.random.default_rng(0)

    def rows(n):
        return np.round(rng.standard_normal((n, width)), 5).tolist()

    recs = [{"clip_id": f"c{i}", "label": i % 2, "statement": rows(4),
             "frames": [{"t": 0.5 + j, "f": f} for j, f in enumerate(rows(8))],
             "subs": [{"t0": 0.0, "t1": 8.0, "tokens": rows(8)}]} for i in range(128)]
    path = write(tmp_path, recs, header={"d_v": width, "d_s": width, "d_h": width})
    del recs
    size = os.path.getsize(path)
    assert 2**20 <= size <= 2 * 2**20
    for read in (gr.read_dataset, gr.validate_dataset):
        tracemalloc.start()
        try:
            result = read(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result
        assert peak - held < size / 4, (read.__name__, peak - held, size)
