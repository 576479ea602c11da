import re
import struct

import numpy as np
import pytest

import dyngcn.train
from dyngcn.config import model_preset
from dyngcn.data import (
    DatasetManifest,
    SkeletonSequence,
    SynthSpec,
    format_sequence_text,
    load_manifest,
    load_sequence,
    normalize_coords,
    parse_sequence_text,
    resize_sequence,
    save_manifest,
    save_sequence,
    save_sequence_text,
    synth_generate,
)
from dyngcn.model import build_model
from dyngcn.skeleton import build_layout
from dyngcn.train import load_model_inputs


def random_sequence(rng, t=6, m=2, n=4, d=3, label=1):
    data = rng.standard_normal((t, m, n, d)).astype(np.float32)
    return SkeletonSequence(data, label, "test-layout", "sample-001")


# -- container validation -----------------------------------------------


def test_sequence_validation():
    good = np.zeros((2, 1, 3, 3), dtype=np.float32)
    SkeletonSequence(good, 0, "l", "s")
    with pytest.raises(ValueError, match="T, M, N, D"):
        SkeletonSequence(np.zeros((2, 3, 3)), 0, "l", "s")
    with pytest.raises(ValueError, match="at least one frame"):
        SkeletonSequence(np.zeros((0, 1, 3, 3)), 0, "l", "s")
    with pytest.raises(ValueError, match="person count"):
        SkeletonSequence(np.zeros((2, 3, 3, 3)), 0, "l", "s")
    with pytest.raises(ValueError, match="label"):
        SkeletonSequence(good, -1, "l", "s")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sequence_rejects_non_finite_values_in_memory(value):
    data = np.zeros((4, 2, 3, 3), dtype=np.float32)
    data[2, 1, 0, 2] = value
    data[3, 0, 1, 1] = np.nan
    with pytest.raises(ValueError, match=rf"sequence 's7': non-finite coordinate {value} "
                                         rf"at \(t, m, n, d\) \(2, 1, 0, 2\)"):
        SkeletonSequence(data, 0, "l", "s7")


def test_load_dataset_writes_persons_coords_frames_joints(tmp_path):
    # each file's slot of the loaded array is (M, C, T, N)
    layout = build_layout("ntu25")
    data = np.random.default_rng(0).standard_normal((6, 2, 25, 3)).astype(np.float32)
    save_sequence(tmp_path / "a.skl", SkeletonSequence(data, 0, "ntu25", "a"))
    manifest = DatasetManifest([("a.skl", 0)], ["only"], "ntu25", "train", root=tmp_path)
    x, _ = dyngcn.train.load_dataset(manifest, 6, layout, "joint")
    assert x.shape == (1, 2, 3, 6, 25)
    centred = normalize_coords(data, layout)
    assert x[0, 1, 2, 5, 3] == centred[5, 1, 3, 2]
    assert np.array_equal(x[0], centred.transpose(1, 3, 0, 2))


def test_load_dataset_builds_one_sequence_per_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    entries = []
    for i, (save, persons, frames) in enumerate([(save_sequence, 1, 8), (save_sequence_text, 1, 5),
                                                 (save_sequence, 2, 5)]):
        data = rng.standard_normal((frames, persons, 25, 3)).astype(np.float32)
        rel = save(tmp_path / f"s{i}", SkeletonSequence(data, i % 2, "ntu25", f"s{i}")).name
        entries.append((rel, i % 2))
    manifest = DatasetManifest(entries, ["a", "b"], "ntu25", "train", root=tmp_path)
    built = []
    post_init = SkeletonSequence.__post_init__

    def counted(self):
        built.append(self.sample_id)
        post_init(self)

    monkeypatch.setattr(SkeletonSequence, "__post_init__", counted)
    x, _ = dyngcn.train.load_dataset(manifest, 8, build_layout("ntu25"), "bone")
    assert x.shape == (3, 2, 3, 8, 25)
    assert built == ["s0", "s1", "s2"]


# -- binary format ------------------------------------------------------


def test_binary_round_trip_bit_exact(tmp_path):
    seq = random_sequence(np.random.default_rng(1))
    path = save_sequence(tmp_path / "a.skl", seq)
    back = load_sequence(path)
    assert np.array_equal(back.data, seq.data)
    assert back.data.dtype == np.float32
    assert (back.label, back.layout_name, back.sample_id) == (1, "test-layout", "sample-001")


def test_binary_truncation_reports_offset(tmp_path):
    seq = random_sequence(np.random.default_rng(2))
    path = save_sequence(tmp_path / "a.skl", seq)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="byte .*payload holds"):
        load_sequence(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_binary_non_finite_coordinate_reports_offset(tmp_path, value):
    # save_sequence refuses non-finite data, so poison the written payload
    seq = random_sequence(np.random.default_rng(5))
    path = save_sequence(tmp_path / "a.skl", seq)
    raw = bytearray(path.read_bytes())
    payload = len(raw) - seq.data.nbytes
    for where, bad in (((4, 1, 2, 0), value), ((5, 0, 0, 1), np.nan)):
        at = payload + 4 * np.ravel_multi_index(where, seq.data.shape)
        raw[at : at + 4] = np.float32(bad).astype("<f4").tobytes()
    path.write_bytes(bytes(raw))
    first = np.ravel_multi_index((4, 1, 2, 0), seq.data.shape)
    with pytest.raises(ValueError, match=rf"a\.skl: byte {payload + 4 * first}: "
                                         rf"non-finite coordinate {value}"):
        load_sequence(path)


@pytest.mark.parametrize("what, field", [("layout name", 0), ("sample id", 1)])
def test_binary_string_not_utf8_reports_offset(tmp_path, what, field):
    seq = random_sequence(np.random.default_rng(6))
    path = save_sequence(tmp_path / "a.skl", seq)
    raw = bytearray(path.read_bytes())
    start = 18 + 2                                  # fixed header, layout length
    if field == 1:
        start += len(seq.layout_name.encode()) + 2  # layout bytes, id length
    raw[start + 3] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"a\.skl: byte {start}: {what} is not UTF-8 "
                                         rf"\(.* at byte {start + 3}\)"):
        load_sequence(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "junk.skl"
    # ASCII up to the 0xff at byte offset 5
    path.write_bytes(b"sksq\x01\xff\xfe\x00" + b"\x00" * 30)
    message = (f"{path}: neither binary magic nor readable text: "
               f"byte offset 5: byte 0xff is not UTF-8 text")
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        load_sequence(path)


# -- text format --------------------------------------------------------

GOLDEN_TEXT = """\
# two frames, one person, three joints
format skelseq 1
layout chain3
id golden-01
label 2
shape 2 1 3 3
frame 0 0
0.0 0.0 0.0
1.0 0.5 -1.0
2.0 1.0 0.25
frame 1 0
0.0 0.1 0.0
1.0 0.6 -1.0
2.0 1.1 0.25
"""


def test_golden_text_fixture_parses_exactly():
    seq = parse_sequence_text(GOLDEN_TEXT)
    assert seq.data.shape == (2, 1, 3, 3)
    assert seq.label == 2 and seq.layout_name == "chain3" and seq.sample_id == "golden-01"
    assert np.array_equal(seq.data[0, 0, 1], np.float32([1.0, 0.5, -1.0]))
    assert np.array_equal(seq.data[1, 0, 2], np.float32([2.0, 1.1, 0.25]))


def test_text_round_trip_bit_exact(tmp_path):
    seq = random_sequence(np.random.default_rng(3))
    path = save_sequence_text(tmp_path / "a.skt", seq)
    back = load_sequence(path)
    assert np.array_equal(back.data, seq.data)


def test_text_missing_joint_names_frame():
    broken = GOLDEN_TEXT.replace("2.0 1.0 0.25\n", "")
    with pytest.raises(ValueError, match="frame 0 person 0 has 2 joints"):
        parse_sequence_text(broken)


def test_text_extra_joint_line():
    broken = GOLDEN_TEXT.replace("frame 1 0", "9 9 9\nframe 1 0")
    with pytest.raises(ValueError, match="more than 3 joints"):
        parse_sequence_text(broken)


def test_text_missing_frame_block():
    broken = GOLDEN_TEXT.replace("shape 2 1 3 3", "shape 3 1 3 3")
    with pytest.raises(ValueError, match="missing frame blocks"):
        parse_sequence_text(broken)


@pytest.mark.parametrize("line, message", [
    ("shape 0 1 3 3", "line 6: sequence needs at least one frame"),
    ("shape -1 1 3 3", "line 6: sequence needs at least one frame"),
    ("shape 2 3 3 3", "line 6: person count must be 1..2, got 3"),
    ("shape 2 1 0 3", "line 6: joint count must be positive, got 0"),
    ("shape 2 1 3 0", "line 6: coordinate count must be positive, got 0"),
    ("label -1", "line 5: label must be nonnegative, got -1"),
    ("label x", "line 5: bad label 'x'"),
    ("shape 2 1 x 3", "line 6: bad shape entries ['2', '1', 'x', '3']"),
    ("frame 0 a", "line 7: bad frame indices ['0', 'a']"),
])
def test_text_shape_and_label_errors_are_located(line, message):
    key = line.split()[0]
    old = next(row for row in GOLDEN_TEXT.splitlines() if row.startswith(key))
    with pytest.raises(ValueError, match=rf"^golden\.skt: {re.escape(message)}$"):
        parse_sequence_text(GOLDEN_TEXT.replace(old, line), path="golden.skt")


@pytest.mark.parametrize("old, new, message", [
    ("frame 1 0\n", "frame 0 0\n", "line 11: duplicate frame 0 person 0"),
    ("label 2\n", "", "missing label"),
    ("shape", "layout x\nshape", "line 6: repeated layout record (first on line 3)"),
    ("shape", "id x\nshape", "line 6: repeated id record (first on line 4)"),
    # format may repeat; a second label used to win silently
    ("shape", "format skelseq 1\nlabel 7\nshape", "line 7: repeated label record (first on line 5)"),
], ids=["duplicate-frame", "no-label", "repeated-layout", "repeated-id", "repeated-label"])
def test_text_block_and_header_errors_are_located(old, new, message):
    with pytest.raises(ValueError, match=rf"^golden\.skt: {re.escape(message)}$"):
        parse_sequence_text(GOLDEN_TEXT.replace(old, new), path="golden.skt")


def test_text_missing_frame_blocks_are_counted_not_listed():
    # a header that declares 2 * 10**6 blocks and holds none: only the
    # first four gaps are named
    text = "format skelseq 1\nlabel 0\nshape 1000000 2 25 3\n"
    with pytest.raises(ValueError, match=re.escape(
            "missing frame blocks [(0, 0), (0, 1), (1, 0), (1, 1)] ... "
            "(2000000 of 2000000 missing)")):
        parse_sequence_text(text)


@pytest.mark.parametrize("shape, message", [
    ((1, 3, 1, 1), "byte 12: person count must be 1..2, got 3"),
    ((0, 1, 1, 1), "byte 8: sequence needs at least one frame"),
    ((1, 1, 0, 1), "byte 14: joint count must be positive, got 0"),
    ((1, 1, 1, 0), "byte 16: coordinate count must be positive, got 0"),
])
def test_binary_header_shape_errors_are_located(tmp_path, shape, message):
    # the payload matches the header, so only the shape itself is wrong
    path = tmp_path / "bad.skl"
    path.write_bytes(struct.pack("<4sHHIHHH", b"SKSQ", 1, 0, *shape)
                     + struct.pack("<H", 0) + struct.pack("<H", 0)
                     + bytes(4 * int(np.prod(shape))))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_sequence(path)


def test_text_error_carries_line_number():
    broken = GOLDEN_TEXT.replace("1.0 0.5 -1.0", "1.0 oops -1.0")
    with pytest.raises(ValueError, match="line 9: bad float"):
        parse_sequence_text(broken)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e39"])
def test_text_non_finite_coordinate_reports_line(tmp_path, token):
    broken = GOLDEN_TEXT.replace("1.0 0.6 -1.0", f"1.0 {token} -1.0")
    path = tmp_path / "a.skt"
    path.write_text(broken)
    with pytest.raises(ValueError, match=r"a\.skt: line 13: non-finite coordinate"):
        load_sequence(path)


@pytest.mark.parametrize("save", [save_sequence, save_sequence_text])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_rejects_non_finite_before_writing(tmp_path, save, value):
    seq = random_sequence(np.random.default_rng(6))
    seq.data[3, 1, 2, 1] = value
    seq.data[5, 0, 0, 0] = np.nan
    path = tmp_path / "a.out"
    with pytest.raises(ValueError, match=rf"a\.out: non-finite coordinate {value} at "
                                         rf"\(t, m, n, d\) \(3, 1, 2, 1\)"):
        save(path, seq)
    assert not path.exists()


@pytest.mark.parametrize("field", ["layout name", "sample id"])
@pytest.mark.parametrize("value", ["", "x y", "x#y", "#", "x\ty", "x\u2028y"])
def test_save_text_refuses_a_name_the_reader_cannot_read_back(tmp_path, field, value):
    data = random_sequence(np.random.default_rng(7)).data
    names = {"layout name": "test-layout", "sample id": "sample-001", field: value}
    seq = SkeletonSequence(data, 1, names["layout name"], names["sample id"])
    path = tmp_path / "a.skt"
    with pytest.raises(ValueError, match=rf"a\.skt: {field} {re.escape(repr(value))} is empty "
                                         "or holds whitespace or '#'; nothing written"):
        save_sequence_text(path, seq)
    assert not path.exists()
    # the binary format carries the same name
    assert load_sequence(save_sequence(tmp_path / "a.skl", seq)).data.tobytes() == data.tobytes()


@pytest.mark.parametrize("save", [save_sequence, save_sequence_text])
@pytest.mark.parametrize("field", ["layout name", "sample id"])
def test_save_refuses_a_name_that_is_not_utf8_text(tmp_path, save, field):
    # a lone surrogate, as surrogateescape gives for an undecodable byte
    names = {"layout name": "test-layout", "sample id": "sample-001", field: "s\udcff"}
    seq = SkeletonSequence(random_sequence(np.random.default_rng(8)).data, 1,
                           names["layout name"], names["sample id"])
    path = tmp_path / "a.out"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't "
                                         r"encode character '\\udcff'.*; nothing written$"):
        save(path, seq)
    assert not path.exists()


# (field, (T, M, N, D), label, layout name, sample id) one past what a u16 holds
HEADER_OVERFLOWS = [
    ("label 65536", (1, 1, 1, 1), 65536, "l", "s"),
    ("joint count 65536", (1, 1, 65536, 1), 0, "l", "s"),
    ("coordinate count 65536", (1, 1, 1, 65536), 0, "l", "s"),
    ("layout name's UTF-8 length 65536", (1, 1, 1, 1), 0, "l" * 65536, "s"),
    ("sample id's UTF-8 length 65536", (1, 1, 1, 1), 0, "l", "\u00e9" * 32768),
]


@pytest.mark.parametrize("problem, shape, label, layout_name, sample_id", HEADER_OVERFLOWS,
                         ids=[case[0].split(" 6")[0] for case in HEADER_OVERFLOWS])
def test_save_binary_refuses_what_its_header_cannot_hold(tmp_path, problem, shape, label,
                                                         layout_name, sample_id):
    seq = SkeletonSequence(np.zeros(shape, dtype=np.float32), label, layout_name, sample_id)
    path = tmp_path / "a.skl"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {problem} is above 65535, "
                                         "the most the binary header holds; nothing written$"):
        save_sequence(path, seq)
    assert not path.exists()


def test_save_binary_round_trips_the_largest_header_values(tmp_path):
    seq = SkeletonSequence(np.ones((2, 1, 3, 2), dtype=np.float32), 65535, "l" * 65535,
                           "\u00e9" * 32767 + "s")
    again = load_sequence(save_sequence(tmp_path / "a.skl", seq))
    assert (again.label, again.layout_name, again.sample_id) == (65535, seq.layout_name,
                                                                 seq.sample_id)
    assert again.data.tobytes() == seq.data.tobytes()


def test_format_text_is_parseable_inverse():
    seq = random_sequence(np.random.default_rng(4), t=2, m=1)
    again = parse_sequence_text(format_sequence_text(seq))
    assert np.array_equal(again.data, seq.data)


# -- resize -------------------------------------------------------------


def test_resize_identity_bit_exact():
    data = random_sequence(np.random.default_rng(5)).data
    out = resize_sequence(data, len(data))
    assert out is data


def test_resize_constant_sequence():
    data = np.full((3, 1, 2, 3), 1.25, dtype=np.float32)
    out = resize_sequence(data, 7)
    assert np.array_equal(out, np.full((7, 1, 2, 3), 1.25, dtype=np.float32))


def test_resize_linear_ramp():
    data = np.zeros((3, 1, 1, 1), dtype=np.float32)
    data[:, 0, 0, 0] = [1.0, 2.0, 3.0]
    out = resize_sequence(data, 5)
    assert np.array_equal(out[:, 0, 0, 0], np.float32([1.0, 1.5, 2.0, 2.5, 3.0]))


def test_resize_idempotent():
    data = random_sequence(np.random.default_rng(6), t=9).data
    once = resize_sequence(data, 5)
    twice = resize_sequence(once, 5)
    assert np.array_equal(once, twice)


def test_resize_single_frame_repeats():
    data = np.random.default_rng(7).standard_normal((1, 1, 2, 3)).astype(np.float32)
    data[0, 0, 1, :2] = [-0.0, 0.0]
    out = resize_sequence(data, 4)
    # bitwise, so a -0.0 stays -0.0
    assert out.dtype == np.float32
    assert out.tobytes() == np.repeat(data, 4, axis=0).tobytes()


# -- normalization ------------------------------------------------------


def test_normalize_moves_center_to_origin():
    layout = build_layout("ntu25")
    data = np.random.default_rng(9).standard_normal((4, 2, 25, 3)).astype(np.float32)
    out = normalize_coords(data, layout)
    assert out.shape == data.shape and out.dtype == np.float32
    assert np.array_equal(out[0, 0, layout.center_joint], np.zeros(3, np.float32))


def test_normalize_translation_invariant_and_idempotent():
    layout = build_layout("ntu25")
    data = np.random.default_rng(10).standard_normal((4, 1, 25, 3)).astype(np.float32)
    a = normalize_coords(data, layout)
    b = normalize_coords(data + np.float32([0.5, -2.0, 3.0]), layout)
    assert np.allclose(a, b, atol=1e-6)
    again = normalize_coords(a, layout)
    assert np.array_equal(a, again)
    assert again is not a


def test_normalize_keeps_score_channel():
    layout = build_layout("openpose18")
    data = np.random.default_rng(11).standard_normal((3, 1, 18, 3)).astype(np.float32)
    out = normalize_coords(data, layout)
    assert np.array_equal(out[..., layout.score_channel], data[..., layout.score_channel])
    assert np.array_equal(out[0, 0, layout.center_joint, :2], np.zeros(2, np.float32))


# -- manifests ----------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    seqs = [random_sequence(np.random.default_rng(i), label=i % 2) for i in range(3)]
    entries = []
    for i, seq in enumerate(seqs):
        rel = f"s{i}.skl"
        save_sequence(tmp_path / rel, seq)
        entries.append((rel, seq.label))
    manifest = DatasetManifest(entries, ["a", "b"], "test-layout", "train", root=tmp_path)
    path = save_manifest(tmp_path / "train.manifest", manifest)
    back = load_manifest(path)
    assert back.entries == entries
    assert back.class_names == ["a", "b"]
    assert back.layout_name == "test-layout" and back.split == "train"


def test_manifest_label_out_of_table():
    with pytest.raises(ValueError, match="class table"):
        DatasetManifest([("x.skl", 5)], ["only"], "l", "train")


@pytest.mark.parametrize("classes, line, problem", [
    (["0 walk", "abc run"], 4, "bad class index 'abc'"),
    (["0 walk", "-1 run"], 4, "bad class index '-1'"),
    (["0 walk", "1 run", "0 sit"], 5, "duplicate class index '0'"),
    (["0 walk", "5 run"], 4, r"class index 5 leaves a gap in 0\.\.1"),
    (["2 sit", "0 walk", "1 run", "4 jump"], 6, r"class index 4 leaves a gap in 0\.\.3"),
], ids=["not-integer", "negative", "duplicate", "gap", "gap-out-of-order"])
def test_manifest_bad_class_table_names_line(tmp_path, classes, line, problem):
    header = ["# layout l", "# split t"] + [f"# class {c}" for c in classes]
    path = tmp_path / "m.manifest"
    path.write_text("\n".join(header) + "\n")
    with pytest.raises(ValueError, match=rf"m\.manifest: line {line}: {problem}"):
        load_manifest(path)


@pytest.mark.parametrize("record", ["layout m", "split v"])
def test_manifest_repeated_header_record_is_refused(tmp_path, record):
    # a second record used to win silently
    path = tmp_path / "m.manifest"
    path.write_text(f"# layout l\n# split t\n# class 0 walk\n# {record}\na.skl\t0\n")
    key = record.split()[0]
    first = 1 if key == "layout" else 2
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 4: repeated {key} "
                                         rf"record \(first on line {first}\)$"):
        load_manifest(path)


def test_manifest_class_lines_in_any_order(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("# class 1 run\n# class 0 walk\n")
    assert load_manifest(path).class_names == ["walk", "run"]


@pytest.mark.parametrize("name", ["run fast", "run\tfast", " run", ""])
def test_save_manifest_refuses_class_name_with_whitespace(tmp_path, name):
    manifest = DatasetManifest([("a.skl", 1)], ["walk", name], "l", "train")
    path = tmp_path / "m.manifest"
    with pytest.raises(ValueError, match=r"m\.manifest: class 1 name .* nothing written"):
        save_manifest(path, manifest)
    assert not path.exists()


@pytest.mark.parametrize("layout, split, rel, problem", [
    ("l", "train", "#a.skl", r"entry 1 path '#a\.skl'"),
    ("l", "train", " a.skl", r"entry 1 path ' a\.skl'"),
    ("l", "train", "", r"entry 1 path ''"),
    ("l", "train", "a\tb.skl", r"entry 1 path 'a\\tb\.skl'"),
    ("l", "train", "a\nb.skl", r"entry 1 path 'a\\nb\.skl'"),
    ("l", "train", "a\u2028b.skl", r"entry 1 path 'a\\u2028b\.skl'"),
    ("ntu 25", "train", "a.skl", r"layout name 'ntu 25' holds whitespace"),
    ("l", " train", "a.skl", r"split ' train' holds whitespace"),
], ids=["hash", "leading-space", "empty", "tab", "newline", "line-separator", "layout", "split"])
def test_save_manifest_refuses_what_the_reader_cannot_read_back(tmp_path, layout, split, rel,
                                                                problem):
    manifest = DatasetManifest([("b.skl", 0), (rel, 1)], ["walk", "run"], layout, split)
    path = tmp_path / "m.manifest"
    with pytest.raises(ValueError, match=rf"^.*m\.manifest: {problem}.*; nothing written$"):
        save_manifest(path, manifest)
    assert not path.exists()


@pytest.mark.parametrize("line", ["# class 1 run fast", "# class 1"])
def test_manifest_class_line_with_wrong_token_count_names_line(tmp_path, line):
    path = tmp_path / "m.manifest"
    path.write_text(f"# layout l\n# class 0 walk\n{line}\nb.skl\t1\n")
    with pytest.raises(ValueError, match=r"m\.manifest: line 3: class line takes an index "
                                         r"and one name"):
        load_manifest(path)


@pytest.mark.parametrize("label", ["1", "-1"])
def test_manifest_label_outside_class_table_names_line(tmp_path, label):
    path = tmp_path / "m.manifest"
    path.write_text(f"# layout l\n# class 0 walk\na.skl\t0\nb.skl\t{label}\n")
    with pytest.raises(ValueError, match=rf"m\.manifest: line 4: label {label} outside "
                                         rf"the class table \(1 names\)"):
        load_manifest(path)


def test_manifest_bad_label_names_line(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("# layout l\n# class 0 walk\na.skl\t0\nb.skl\tx\n")
    with pytest.raises(ValueError, match=r"m\.manifest: line 4: bad label 'x'$"):
        load_manifest(path)


def test_manifest_missing_file(tmp_path, monkeypatch):
    # load_manifest only parses; the reader of a manifest for a model refuses
    # the missing file, before any sequence file is read
    (tmp_path / "here.skl").write_bytes(b"")
    (tmp_path / "m.manifest").write_text(
        "# layout ntu25\n# split t\n# class 0 a\nhere.skl\t0\ngone.skl\t0\n")
    assert len(load_manifest(tmp_path / "m.manifest")) == 2
    monkeypatch.setattr(dyngcn.train, "load_sequence", None)
    model = build_model(model_preset("toy"))
    with pytest.raises(FileNotFoundError, match=rf"^{re.escape(str(tmp_path))}/m\.manifest: "
                                                rf"listed file missing: .*/gone\.skl$"):
        load_model_inputs(model, tmp_path / "m.manifest", "joint", "model.layout is", None)


# -- synthetic generator ------------------------------------------------


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SynthSpec(n_classes=5, samples_per_class=12, test_per_class=6,
                     layout="ntu25", frames=32, noise_sigma=0.05, seed=7)
    train, test = synth_generate(out, spec)
    return spec, train, test


def test_synth_counts_and_disjoint_ids(synth_dataset):
    spec, train, test = synth_dataset
    assert len(train) == 5 * 12 and len(test) == 5 * 6
    train_ids = {load_sequence(train.resolve(rel)).sample_id for rel, _ in train.entries}
    test_ids = {load_sequence(test.resolve(rel)).sample_id for rel, _ in test.entries}
    assert not train_ids & test_ids


def test_synth_deterministic(tmp_path):
    spec = SynthSpec(n_classes=2, samples_per_class=2, test_per_class=1,
                     frames=8, noise_sigma=0.03, seed=3)
    a_train, _ = synth_generate(tmp_path / "a", spec)
    b_train, _ = synth_generate(tmp_path / "b", spec)
    for (rel_a, _), (rel_b, _) in zip(a_train.entries, b_train.entries):
        assert a_train.resolve(rel_a).read_bytes() == b_train.resolve(rel_b).read_bytes()


def test_synth_noiseless_within_class_structure(tmp_path):
    spec = SynthSpec(n_classes=3, samples_per_class=3, test_per_class=0,
                     frames=16, noise_sigma=0.0, seed=5)
    train, _ = synth_generate(tmp_path, spec)
    by_class = {}
    for rel, label in train.entries:
        by_class.setdefault(label, []).append(load_sequence(train.resolve(rel)).data)
    for label, group in by_class.items():
        moving = [np.abs(np.diff(d[:, 0], axis=0)).sum(axis=(0, 2)) > 1e-6 for d in group]
        for other in moving[1:]:
            assert np.array_equal(moving[0], other)
        # motionless joints sit at the shared rest pose, identical across samples
        still = ~moving[0]
        for other in group[1:]:
            assert np.array_equal(group[0][:, :, still], other[:, :, still])
        assert not np.array_equal(group[0], group[1])  # phase offsets differ


def test_synth_classes_move_different_joints(tmp_path):
    spec = SynthSpec(n_classes=4, samples_per_class=1, test_per_class=0,
                     frames=16, noise_sigma=0.0, seed=6)
    train, _ = synth_generate(tmp_path, spec)
    signatures = []
    for rel, _ in train.entries:
        d = load_sequence(train.resolve(rel)).data
        signatures.append(tuple(np.abs(np.diff(d[:, 0], axis=0)).sum(axis=(0, 2)) > 1e-6))
    assert len(set(signatures)) == len(signatures)


def test_synth_validation():
    with pytest.raises(ValueError, match="two classes"):
        SynthSpec(n_classes=1)
    with pytest.raises(ValueError, match="noise_sigma"):
        SynthSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="^sample counts must be positive$"):
        SynthSpec(samples_per_class=0)
    with pytest.raises(ValueError, match="^need at least two frames$"):
        SynthSpec(frames=1)
    assert SynthSpec(n_classes=65536).n_classes == 65536  # 65537 is refused in test_cli
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=rf"^noise_sigma={value!r} must be finite$"):
            SynthSpec(noise_sigma=value)


def motion_energy(data):
    # per-joint summed squared frame-to-frame displacement, first person
    diffs = np.diff(data[:, 0].astype(np.float64), axis=0)
    return (diffs ** 2).sum(axis=(0, 2))


def test_nearest_centroid_oracle_on_motion_energy(synth_dataset):
    spec, train, test = synth_dataset
    feats = {"train": [], "test": []}
    labels = {"train": [], "test": []}
    for split, manifest in (("train", train), ("test", test)):
        for rel, label in manifest.entries:
            feats[split].append(motion_energy(load_sequence(manifest.resolve(rel)).data))
            labels[split].append(label)
    x_train = np.array(feats["train"])
    y_train = np.array(labels["train"])
    centroids = np.array([x_train[y_train == c].mean(axis=0) for c in range(spec.n_classes)])
    x_test = np.array(feats["test"])
    pred = np.linalg.norm(x_test[:, None] - centroids[None], axis=2).argmin(axis=1)
    accuracy = (pred == np.array(labels["test"])).mean()
    assert accuracy >= 0.95
