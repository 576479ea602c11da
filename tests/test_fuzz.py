"""Property tests of the readers (binary and text sequences, manifests,
checkpoints, run configs and layouts): round trips and corrupted input."""

import importlib.resources
import json
import re
import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngcn.checkpoint import HEADER_OFFSET, load_checkpoint, read_checkpoint_header, save_checkpoint
from dyngcn.config import RunConfig, model_preset
from dyngcn.data import (
    DatasetManifest,
    SkeletonSequence,
    SynthSpec,
    format_sequence_text,
    load_manifest,
    load_sequence,
    parse_sequence_text,
    save_manifest,
    save_sequence,
)
from dyngcn.modality import MODALITIES
from dyngcn.model import ModelConfig, build_model
from dyngcn.skeleton import BUILTIN_LAYOUTS, parse_layout
from dyngcn.topology import LEARNERS

FUZZ = settings(max_examples=150, deadline=None)

# Short names, including multi-byte UTF-8, so bit flips land in string bytes too.
names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6)


@st.composite
def sequences(draw, strings=names):
    t = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=t * m * n * d, max_size=t * m * n * d))
    data = np.array(values, dtype=np.float32).reshape(t, m, n, d)
    return SkeletonSequence(data, draw(st.integers(0, 65535)), draw(strings), draw(strings))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def fresh(path):
    """``path`` with no file there.  Rewriting a file in place is slow on some
    file systems (ext4 flushes a truncated file when it is closed); writing a
    new one is not."""
    path.unlink(missing_ok=True)
    return path


def string_end(seq):
    """Byte offset just past the sample id: the end of the header and strings."""
    return 18 + 2 + len(seq.layout_name.encode()) + 2 + len(seq.sample_id.encode())


def loads_or_names_file(path):
    try:
        load_sequence(path)
    except ValueError as exc:
        assert str(path) in str(exc)


@FUZZ
@given(seq=sequences())
def test_binary_round_trip_is_bit_exact(work, seq):
    back = load_sequence(save_sequence(fresh(work / "rt.skl"), seq))
    assert back.data.tobytes() == seq.data.tobytes()
    assert (back.label, back.layout_name, back.sample_id) == (
        seq.label, seq.layout_name, seq.sample_id)


@FUZZ
@given(seq=sequences(), data=st.data())
def test_truncated_binary_loads_or_names_file(work, seq, data):
    raw = save_sequence(fresh(work / "cut.skl"), seq).read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    fresh(work / "cut.skl").write_bytes(raw[:cut])
    loads_or_names_file(work / "cut.skl")


@FUZZ
@given(seq=sequences(), data=st.data())
def test_bit_flip_in_header_or_strings_loads_or_names_file(work, seq, data):
    raw = bytearray(save_sequence(fresh(work / "flip.skl"), seq).read_bytes())
    bit = data.draw(st.integers(0, 8 * string_end(seq) - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    fresh(work / "flip.skl").write_bytes(bytes(raw))
    loads_or_names_file(work / "flip.skl")


# -- text sequences and manifests ----------------------------------------

# Strings the text formats carry as one token: no whitespace, no comment marker.
tokens = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)).filter(
    lambda ch: not ch.isspace() and ch != "#"), min_size=1, max_size=6)
small_numbers = st.lists(st.integers(-2, 30), max_size=5)


def record_lines(keywords):
    """Free text, or a record keyword followed by a few small numbers."""
    return st.one_of(st.text(max_size=20), st.builds(
        lambda key, numbers: " ".join([key, *map(str, numbers)]),
        st.sampled_from(keywords), small_numbers))


CORRUPTIONS = ["truncation", "junk line", "digit flip"]


def corrupted(text, kind):
    """``text`` cut short, with one junk line inserted, or with one digit changed."""
    lines = text.splitlines()
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    return {
        "truncation": st.integers(0, len(text)).map(lambda cut: text[:cut]),
        "junk line": st.tuples(st.integers(0, len(lines)), record_lines(
            ["format", "layout", "id", "label", "shape", "frame", "#", "# class", "# layout"]
        )).map(lambda junk: "\n".join(lines[:junk[0]] + [junk[1]] + lines[junk[0]:])),
        "digit flip": st.tuples(st.sampled_from(digits), st.sampled_from("0123456789")).map(
            lambda flip: text[:flip[0]] + flip[1] + text[flip[0] + 1:]),
    }[kind]


@FUZZ
@given(seq=sequences(tokens))
def test_text_sequence_round_trip_is_bit_exact(seq):
    back = parse_sequence_text(format_sequence_text(seq))
    assert back.data.tobytes() == seq.data.tobytes()
    assert (back.label, back.layout_name, back.sample_id) == (
        seq.label, seq.layout_name, seq.sample_id)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@FUZZ
@given(seq=sequences(tokens), data=st.data())
def test_corrupted_text_sequence_parses_or_names_file(kind, seq, data):
    text = data.draw(corrupted(format_sequence_text(seq), kind), label="text")
    try:
        parse_sequence_text(text, path="fuzz.skt")
    except ValueError as exc:
        assert str(exc).startswith("fuzz.skt: "), str(exc)


@st.composite
def manifests(draw):
    classes = draw(st.lists(tokens, min_size=1, max_size=4))
    entries = draw(st.lists(st.tuples(tokens, st.integers(0, len(classes) - 1)), max_size=4))
    return DatasetManifest(entries, classes, draw(tokens), draw(tokens))


@pytest.mark.parametrize("kind", CORRUPTIONS)
@FUZZ
@given(manifest=manifests(), data=st.data())
def test_corrupted_manifest_loads_or_names_file(work, kind, manifest, data):
    text = save_manifest(fresh(work / "fuzz.manifest"), manifest).read_text()
    path = fresh(work / "bad.manifest")
    path.write_text(data.draw(corrupted(text, kind), label="text"))
    try:
        load_manifest(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


# -- checkpoints ----------------------------------------------------------

@pytest.fixture(scope="module")
def stored(work):
    """One small checkpoint and the byte offset where its JSON header ends."""
    model = build_model(model_preset("toy"), seed=3)
    path = save_checkpoint(work / "base.ckpt", model, {"modality": "joint"})
    return path, read_checkpoint_header(path)[2]


def loads_or_names_file_and_offset(path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc) and "byte offset" in str(exc), str(exc)


@FUZZ
@given(topology=st.sampled_from(sorted(LEARNERS)), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_is_bit_exact(work, topology, dtype, seed):
    config = model_preset("toy")
    config.topology = topology
    model = build_model(config, seed=seed, dtype=dtype)
    back, meta = load_checkpoint(save_checkpoint(fresh(work / "rt.ckpt"), model, {"seed": seed}))
    assert meta == {"seed": seed, "modality": "joint"}
    want = dict(model.named_parameters())
    got = dict(back.named_parameters())
    assert list(got) == list(want)
    for name, p in want.items():
        assert got[name].data.dtype == p.data.dtype
        assert got[name].data.tobytes() == p.data.tobytes()
    for (name, a), (name_b, b) in zip(model.named_buffers(), back.named_buffers()):
        assert name == name_b and a.tobytes() == b.tobytes()


@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_loads_or_names_file(work, stored, data):
    raw = stored[0].read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    fresh(work / "cut.ckpt").write_bytes(raw[:cut])
    loads_or_names_file_and_offset(work / "cut.ckpt")


@pytest.mark.parametrize("region", ["fixed header", "JSON header"])
@FUZZ
@given(data=st.data())
def test_bit_flip_in_checkpoint_header_loads_or_names_file(work, stored, region, data):
    path, header_end = stored
    lo, hi = (0, HEADER_OFFSET) if region == "fixed header" else (HEADER_OFFSET, header_end)
    raw = bytearray(path.read_bytes())
    bit = data.draw(st.integers(8 * lo, 8 * hi - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    fresh(work / "flip.ckpt").write_bytes(bytes(raw))
    loads_or_names_file_and_offset(work / "flip.ckpt")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=6)
ABSENT = object()


@FUZZ
@given(modality=st.just(ABSENT) | st.sampled_from(sorted(MODALITIES)) | json_values,
       class_names=st.just(ABSENT) | st.lists(names, max_size=3) | json_values)
def test_checkpoint_meta_loads_or_names_file_and_header(work, stored, modality, class_names):
    header, raw, offset = read_checkpoint_header(stored[0])
    meta = {"modality": modality, "class_names": class_names}
    header["meta"] = {key: value for key, value in meta.items() if value is not ABSENT}
    body = json.dumps(header).encode()
    path = fresh(work / "meta.ckpt")
    path.write_bytes(raw[:4] + struct.pack("<HQ", 1, len(body)) + body + raw[offset:])
    try:
        _, meta = load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: header at byte offset {HEADER_OFFSET}: "), str(exc)
    else:
        assert meta["modality"] in MODALITIES
        assert all(isinstance(name, str) for name in meta.get("class_names", []))


# -- run configs ----------------------------------------------------------

# Config strings that read back: no '#', no line break, no whitespace at an end.
config_strings = names.filter(
    lambda s: "#" not in s and s == s.strip() and len(s.splitlines()) <= 1)
floats = st.floats(allow_nan=False, allow_infinity=False)
sizes = st.integers(1, 2**40)
positive_floats = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def run_configs(draw):
    blocks = draw(st.integers(1, 4))
    topology = draw(st.sampled_from(sorted(LEARNERS)))
    lambda_static = draw(floats)
    if topology == "none" and lambda_static == 0.0:
        lambda_static = 1.0
    model = ModelConfig(
        layout=draw(config_strings), n_classes=draw(sizes), in_channels=draw(sizes),
        frames=draw(sizes),
        channels=tuple(draw(st.lists(sizes, min_size=blocks, max_size=blocks))),
        strides=tuple(draw(st.lists(sizes, min_size=blocks, max_size=blocks))),
        tc_kernel=2 * draw(st.integers(0, 2**20)) + 1, lambda_static=lambda_static,
        aggregate_rate=draw(st.floats(0.0, 1.0, exclude_min=True)),
        aggregate_after=tuple(draw(st.lists(st.integers(1, blocks), max_size=3))),
        topology=topology, learner_final_relu=draw(st.booleans()),
        learn_projection=draw(st.booleans()),
        alpha_degree=draw(positive_floats),
    )
    total_epochs = draw(sizes)
    # a milestone lies in 2..total_epochs - 1, so a run of 1 or 2 epochs has none
    milestones = sorted(draw(st.lists(st.integers(2, total_epochs - 1), max_size=3,
                                      unique=True))) if total_epochs >= 3 else []
    return RunConfig(
        model=model, train_manifest=draw(config_strings), test_manifest=draw(config_strings),
        out_dir=draw(config_strings), modality=draw(st.sampled_from(tuple(MODALITIES))),
        lr=draw(positive_floats), momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
        nesterov=draw(st.booleans()), weight_decay=draw(st.floats(0.0, allow_infinity=False)),
        batch_size=draw(sizes), total_epochs=total_epochs, milestones=tuple(milestones),
        decay=draw(positive_floats),
        seed=draw(st.integers(0, 2**63)),
    )


@FUZZ
@given(config=run_configs(), key=st.sampled_from(["model.layout", "train_manifest",
                                                  "test_manifest", "out_dir"]),
       value=st.text(max_size=8))
def test_config_string_reads_back_or_is_refused(config, key, value):
    try:
        if key == "model.layout":
            changed = replace(config, model=replace(config.model, layout=value))
        else:
            changed = replace(config, **{key: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{key}="), str(exc)
        return
    assert RunConfig.from_text(changed.to_text()) == changed


def parses_or_names_source(text):
    try:
        RunConfig.from_text(text, source="fuzz.cfg")
    except ValueError as exc:
        assert str(exc).startswith("fuzz.cfg: "), str(exc)


@FUZZ
@given(config=run_configs())
def test_run_config_text_round_trip(config):
    text = config.to_text()
    back = RunConfig.from_text(text)
    assert back == config
    assert back.to_text() == text


@FUZZ
@given(config=run_configs(), seed=st.integers(-2**63, -1))
def test_negative_seed_is_refused_naming_the_key(config, seed):
    message = rf"seed={seed} must be non-negative$"
    with pytest.raises(ValueError, match=rf"^{message}"):
        replace(config, seed=seed)
    text = config.to_text()
    assert text.endswith(f"\nseed={config.seed}\n")
    with pytest.raises(ValueError, match=rf"^fuzz\.cfg: {message}"):
        RunConfig.from_text(text.replace(f"\nseed={config.seed}\n", f"\nseed={seed}\n"),
                            source="fuzz.cfg")
    with pytest.raises(ValueError, match=rf"^{message}"):
        SynthSpec(seed=seed)


@FUZZ
@given(config=run_configs(), data=st.data())
def test_truncated_run_config_parses_or_names_source(config, data):
    text = config.to_text()
    parses_or_names_source(text[:data.draw(st.integers(0, len(text)), label="cut")])


@FUZZ
@given(config=run_configs(), data=st.data())
def test_junk_line_in_run_config_parses_or_names_source(config, data):
    lines = config.to_text().splitlines()
    at = data.draw(st.integers(0, len(lines)), label="at")
    lines.insert(at, data.draw(st.text(max_size=20), label="junk"))
    parses_or_names_source("\n".join(lines))


@FUZZ
@given(config=run_configs(), data=st.data())
def test_bad_value_in_run_config_parses_or_names_source(config, data):
    lines = config.to_text().splitlines()
    at = data.draw(st.integers(1, len(lines) - 1), label="at")
    key = lines[at].split("=", 1)[0]
    value = data.draw(st.one_of(st.text(max_size=12), st.integers().map(str),
                                st.floats().map(str), st.sampled_from(["", ",", "1,,2", "-1"])),
                      label="value")
    lines[at] = f"{key}={value}"
    parses_or_names_source("\n".join(lines))


FLOAT_KEYS = ([f"model.{f.name}" for f in fields(ModelConfig) if f.type == "float"]
              + [f.name for f in fields(RunConfig) if f.type == "float"])


@FUZZ
@given(config=run_configs(), key=st.sampled_from(FLOAT_KEYS),
       value=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "-infinity"]))
def test_non_finite_float_is_refused(config, key, value):
    text = re.sub(rf"^{re.escape(key)}=.*$", f"{key}={value}", config.to_text(), flags=re.M)
    with pytest.raises(ValueError, match=rf"^fuzz\.cfg: {re.escape(key)}=-?(nan|inf) must be finite$"):
        RunConfig.from_text(text, source="fuzz.cfg")
    with pytest.raises(ValueError, match=rf"^overrides .*: {re.escape(key)}=-?(nan|inf) must be finite$"):
        config.with_overrides([f"{key}={value}"])


# -- layouts --------------------------------------------------------------

layout_texts = st.sampled_from([
    (importlib.resources.files("dyngcn") / "layouts" / f"{name}.layout").read_text()
    for name in BUILTIN_LAYOUTS])
# Junk lines: free text, or a record keyword with a few small numbers.
junk_lines = st.one_of(
    st.text(max_size=20),
    st.builds(lambda key, numbers: " ".join([key, *map(str, numbers)]),
              st.sampled_from(["name", "joints", "center", "score_channel", "edge", "bone"]),
              st.lists(st.integers(-2, 30), max_size=3)))


def parses_or_refuses(text):
    """Any exception but a ValueError fails the test."""
    try:
        parse_layout(text)
    except ValueError:
        pass


@FUZZ
@given(text=layout_texts, data=st.data())
def test_truncated_layout_parses_or_is_refused(text, data):
    parses_or_refuses(text[:data.draw(st.integers(0, len(text)), label="cut")])


@FUZZ
@given(text=layout_texts, data=st.data())
def test_junk_line_in_layout_parses_or_is_refused(text, data):
    lines = text.splitlines()
    at = data.draw(st.integers(0, len(lines)), label="at")
    lines.insert(at, data.draw(junk_lines, label="junk"))
    parses_or_refuses("\n".join(lines))


@FUZZ
@given(text=layout_texts, data=st.data())
def test_digit_flip_in_layout_parses_or_is_refused(text, data):
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    at = data.draw(st.sampled_from(digits), label="at")
    digit = data.draw(st.sampled_from("0123456789"), label="digit")
    parses_or_refuses(text[:at] + digit + text[at + 1:])
