import importlib.resources
import json
import math
import re
import shutil
import struct
import warnings
import weakref
from dataclasses import make_dataclass

import numpy as np
import pytest

import dyngcn.train
from dyngcn import cli
from dyngcn.checkpoint import load_checkpoint, read_checkpoint_header, save_checkpoint
from dyngcn.config import RunConfig, _key_parsers, model_preset, run_preset
from dyngcn.data import (
    SynthSpec,
    format_sequence_text,
    load_manifest,
    load_sequence,
    save_manifest,
    save_sequence,
    synth_generate,
)
from dyngcn.export import export_topology
from dyngcn.flops import count_model_flops
from dyngcn.model import ModelConfig, build_model
from dyngcn.skeleton import build_layout
from dyngcn.train import (
    EVAL_BATCH_SIZE,
    EpochRecord,
    MetricsLog,
    collect_logits,
    ensemble_checkpoints,
    evaluate_arrays,
    load_checkpoint_inputs,
    load_dataset,
    train,
)


# -- run configuration --------------------------------------------------


def test_ntu_preset_hyperparameters():
    cfg = run_preset("ntu-like")
    assert cfg.lr == 0.1
    assert cfg.milestones == (35, 55)
    assert cfg.total_epochs == 65
    assert cfg.weight_decay == 0.0004
    assert cfg.batch_size == 64
    assert cfg.momentum == 0.9 and cfg.nesterov
    assert cfg.model.channels == (64, 64, 64, 64, 128, 128, 128, 256, 256, 256)


def test_kinetics_preset_shapes():
    cfg = run_preset("kinetics-like")
    assert cfg.model.layout == "openpose18"
    assert cfg.model.frames == 150
    assert cfg.model.n_classes == 400


def test_unknown_presets():
    with pytest.raises(ValueError, match="unknown run preset"):
        run_preset("enormous")
    with pytest.raises(ValueError, match="unknown model preset"):
        model_preset("smoke2")


def test_run_config_text_round_trip():
    cfg = run_preset("smoke")
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg


def test_run_config_parse_errors():
    with pytest.raises(ValueError, match="line 1: unknown key"):
        RunConfig.from_text("warp_speed=9\n")
    with pytest.raises(ValueError, match="model.layout and model.n_classes"):
        RunConfig.from_text("lr=0.1\n")
    with pytest.raises(ValueError, match="line 2: unknown model key"):
        RunConfig.from_text("model.layout=ntu25\nmodel.flux=3\n")


def test_run_config_validation():
    model = ModelConfig(layout="ntu25", n_classes=2)
    with pytest.raises(ValueError, match="milestones"):
        RunConfig(model=model, milestones=(70,), total_epochs=65)
    with pytest.raises(ValueError, match="increasing"):
        RunConfig(model=model, milestones=(55, 35), total_epochs=65)
    with pytest.raises(ValueError, match="modality"):
        RunConfig(model=model, modality="hologram")
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig(model=model, batch_size=0)


def test_config_field_without_a_parser_is_refused():
    odd = make_dataclass("Odd", [("name", "str"), ("sizes", "list")])
    with pytest.raises(TypeError, match=r"Odd\.sizes: no config parser for annotation 'list'"):
        _key_parsers(odd)


def test_with_overrides():
    cfg = run_preset("smoke")
    out = cfg.with_overrides(["lr=0.25", "milestones=2,3", "total_epochs=4",
                              "model.frames=8"])
    assert out.lr == 0.25 and out.milestones == (2, 3)
    assert out.model.frames == 8
    assert cfg.lr == 0.05  # original untouched
    with pytest.raises(ValueError, match="unknown key"):
        cfg.with_overrides(["chaos=1"])


@pytest.mark.parametrize("override, key", [("lr=abc", "lr"),
                                           ("model.channels=8,x", "model.channels"),
                                           ("nesterov=maybe", "nesterov")])
def test_with_overrides_bad_value_names_key(override, key):
    with pytest.raises(ValueError, match=rf"override '{override}': bad value .* for {key}: "):
        run_preset("smoke").with_overrides([override])


def test_run_config_bad_value_names_line_and_key():
    with pytest.raises(ValueError, match=r"line 2: bad value 'x' for model\.frames: "):
        RunConfig.from_text("model.layout=ntu25\nmodel.frames=x\n")


@pytest.mark.parametrize("key, value", [("out_dir", "runs/#3"), ("out_dir", "runs/\nseed=9"),
                                        ("train_manifest", " a.manifest"),
                                        ("test_manifest", "b.manifest\t"),
                                        ("model.layout", "ntu25\x1c"), ("model.layout", "#")])
def test_value_that_would_not_read_back_is_refused(key, value):
    model, kwargs = model_preset("toy"), {key: value}
    if key == "model.layout":
        model, kwargs = ModelConfig(layout=value, n_classes=2), {}
    with pytest.raises(ValueError, match=rf"^{re.escape(key)}=.* would not read back"):
        RunConfig(model=model, **kwargs)


@pytest.mark.parametrize("override", ["out_dir=runs/#3", "model.layout=ntu25\nseed=9"])
def test_override_that_would_not_read_back_is_refused(override):
    key = override.split("=")[0]
    with pytest.raises(ValueError, match=rf"^overrides \[.*\]: {re.escape(key)}=.* would not "):
        run_preset("smoke").with_overrides([override])


def test_values_that_read_back_are_kept():
    cfg = run_preset("smoke").with_overrides(["out_dir=runs/a b=c", "train_manifest="])
    assert cfg.out_dir == "runs/a b=c" and cfg.train_manifest == ""
    assert RunConfig.from_text(cfg.to_text()) == cfg


@pytest.mark.parametrize("line, message", [
    ("model.n_classes=0", "model.n_classes must be at least 1"),
    ("batch_size=0", "batch_size must be at least 1"),
    ("model.topology=graph", "model.topology 'graph' is unknown"),
    ("modality=depth", "unknown modality 'depth'"),
    ("model.channels=", "model.channels schedule (0) and strides schedule"),
    ("model.alpha_degree=0", "model.alpha_degree must be positive"),
    # optimizer settings that would break a run without an error: a
    # negative decay climbs the loss after the first milestone, a zero one
    # stops every update there, and a repeated milestone decays twice
    ("decay=-0.1", "decay must be positive"),
    ("decay=0", "decay must be positive"),
    ("momentum=-0.5", "momentum must be in [0, 1)"),
    ("momentum=1", "momentum must be in [0, 1)"),
    ("momentum=1.5", "momentum must be in [0, 1)"),
    ("weight_decay=-1", "weight_decay must be non-negative"),
    ("milestones=2,2", "milestones must be increasing, got (2, 2)"),
    # the rate decays from epoch m on, so a milestone below 2 leaves lr unused
    ("milestones=1", "milestones must be at least 2, got (1,)"),
    ("milestones=-3,0", "milestones must be at least 2, got (-3, 0)"),
    ("total_epochs=0", "total_epochs must be at least 1"),
    ("lr=0", "lr must be positive"),
])
def test_validation_errors_name_their_source(line, message):
    text = f"model.layout=ntu25\nmodel.n_classes=2\n{line}\n"
    with pytest.raises(ValueError, match=rf"^run\.cfg: {re.escape(message)}"):
        RunConfig.from_text(text, source="run.cfg")
    with pytest.raises(ValueError, match=rf"^overrides \['{re.escape(line)}'\]: "
                                         rf"{re.escape(message)}"):
        run_preset("smoke").with_overrides([line])


# -- metrics log --------------------------------------------------------


def test_metrics_log_round_trip_and_no_wall_time():
    log = MetricsLog()
    log.append(EpochRecord(1, 1.5, 0.4, 0.5, 0.9, 0.1, wall_time=12.5))
    log.append(EpochRecord(2, 1.1, 0.6, 0.7, 1.0, 0.1, wall_time=11.0))
    text = log.format()
    assert "12.5" not in text and "11.0" not in text
    back = MetricsLog.parse(text)
    assert [r.epoch for r in back.records] == [1, 2]
    assert back.records[0].train_loss == 1.5
    assert back.format() == text


def test_metrics_log_requires_increasing_epochs():
    log = MetricsLog()
    log.append(EpochRecord(3, 1.0, 0.5, 0.5, 1.0, 0.1))
    with pytest.raises(ValueError, match="advance"):
        log.append(EpochRecord(3, 1.0, 0.5, 0.5, 1.0, 0.1))


@pytest.mark.parametrize("body, line, message", [
    ("1 1.5 0.4\n", 2, "expected 6 fields (epoch train_loss train_acc top1 top5 lr), got 3"),
    ("1 1.5 0.4 0.5 0.9 0.1 7\n", 2, "expected 6 fields"),
    ("1 1.5 0.4 0.5 high 0.1\n", 2, "bad top5 'high'"),
    ("1.0 1.5 0.4 0.5 0.9 0.1\n", 2, "bad epoch '1.0'"),
    ("2 1.5 0.4 0.5 0.9 0.1\n\n2 1.1 0.6 0.7 1.0 0.1\n", 4, "epoch 2 does not advance past 2"),
], ids=["too-few-fields", "too-many-fields", "bad-float", "bad-epoch", "epoch-repeats"])
def test_metrics_log_errors_name_file_and_line(tmp_path, body, line, message):
    path = tmp_path / "metrics.txt"
    path.write_text(MetricsLog.HEADER + "\n" + body)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: "
                                         rf"{re.escape(message)}"):
        MetricsLog.load(path)
    with pytest.raises(ValueError, match=rf"^<metrics>: line {line}: "):
        MetricsLog.parse(path.read_text())


@pytest.mark.parametrize("kind", ["manifest", "run config", "metrics log", "layout"])
def test_text_file_that_is_not_utf8_names_file_and_byte_offset(tmp_path, capsys, kind):
    # "é" is two bytes, so the bad byte's offset is 8 in bytes but 6 in characters
    path = tmp_path / "file.txt"
    path.write_bytes("# \u00e9t\u00e9\n".encode() + b"\xff\n")
    load = {"manifest": load_manifest, "run config": RunConfig.load,
            "metrics log": MetricsLog.load, "layout": build_layout}[kind]
    message = f"{path}: byte offset 8: byte 0xff is not UTF-8 text"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        load(path)
    if kind == "run config":
        assert cli.main(["flops", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# -- checkpoints --------------------------------------------------------


def tiny_model_config():
    return ModelConfig(layout="ntu25", n_classes=3, frames=8,
                       channels=(4, 8), strides=(1, 2), tc_kernel=3,
                       aggregate_after=(1,), topology="context")


def test_checkpoint_round_trip_bit_exact_logits(tmp_path):
    model = build_model(tiny_model_config(), seed=4)
    # leave a mark in the running stats so buffers matter
    x = np.random.default_rng(0).standard_normal((4, 3, 8, 25)).astype(np.float32)
    model.train()
    from dyngcn.tensor import Tensor, no_grad

    with no_grad():
        model(Tensor(x))
    path = save_checkpoint(tmp_path / "m.ckpt", model, {"modality": "joint"})
    before = collect_logits(model, x[:, None])
    again, meta = load_checkpoint(path)
    after = collect_logits(again, x[:, None])
    assert np.array_equal(before, after)
    assert meta == {"modality": "joint"}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loaded_arrays_are_writeable_and_own_their_memory(tmp_path, dtype):
    # the arrays are copied out of the file's bytes, so training can go on
    # in place and the bytes can be freed
    model = build_model(tiny_model_config(), seed=4, dtype=dtype)
    again, _ = load_checkpoint(save_checkpoint(tmp_path / "m.ckpt", model))
    arrays = [p.data for p in again.parameters()] + [b for _, b in again.named_buffers()]
    assert len(arrays) == len(model.parameters()) + len(list(model.named_buffers()))
    for arr in arrays:
        assert arr.dtype == dtype and arr.flags.writeable and arr.flags.owndata


def test_checkpoint_rejects_corruption(tmp_path):
    model = build_model(tiny_model_config(), seed=1)
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)
    path2 = save_checkpoint(tmp_path / "n.ckpt", model)
    path2.write_bytes(path2.read_bytes()[:-16])
    with pytest.raises(ValueError, match=r"(truncated|buffer)"):
        load_checkpoint(path2)


def test_checkpoint_shorter_than_fixed_header_names_offset(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(b"DGCK\x01\x00")
    with pytest.raises(ValueError, match=r"short\.ckpt: truncated at byte offset 6"):
        load_checkpoint(path)


def test_checkpoint_array_past_end_names_array_and_offset(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))
    header, raw, offset = read_checkpoint_header(path)
    first = header["arrays"][0]
    path.write_bytes(raw[: offset + 4])
    with pytest.raises(ValueError, match=rf"m\.ckpt: truncated: array '{first['name']}' "
                                         rf"at byte offset {offset} needs"):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Write ``path`` back with its JSON header replaced by ``edit(header)`` bytes."""
    header, raw, offset = read_checkpoint_header(path)
    body = edit(header)
    path.write_bytes(raw[:4] + struct.pack("<HQ", 1, len(body)) + body + raw[offset:])


@pytest.mark.parametrize("key, value, problem", [
    ("modality", "hologram", r"unknown modality 'hologram', expected one of \("),
    ("modality", None, r"unknown modality None, expected one of \("),
    ("class_names", "abc", r"'class_names' is 'abc', expected a list of strings"),
    ("class_names", [1, 2], r"'class_names' is \[1, 2\], expected a list of strings"),
], ids=["unknown-modality", "null-modality", "string-names", "number-names"])
def test_save_checkpoint_refuses_the_meta_that_load_checkpoint_refuses(tmp_path, key, value,
                                                                      problem):
    model = build_model(tiny_model_config(), seed=1)
    meta = {"modality": "bone", "class_names": ["walk", "run"], key: value}
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {problem}.*"
                                         rf"; nothing written$"):
        save_checkpoint(path, model, meta)
    assert not path.exists()
    # the reader refuses the same meta with the same words
    save_checkpoint(path, model)
    rewrite_header(path, lambda header: json.dumps({**header, "meta": meta}).encode())
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: header at byte offset 14: "
                                         rf"{problem}"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_a_dtype_the_format_has_no_code_for(tmp_path):
    model = build_model(tiny_model_config(), seed=1)
    model.input_bn.running_mean = model.input_bn.running_mean.astype(np.float16)
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError) as raised:
        save_checkpoint(path, model)
    assert str(raised.value) == (f"{path}: array 'input_bn.running_mean' has unsupported "
                                 f"dtype float16; nothing written")
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex64])
def test_build_model_refuses_a_dtype_other_than_float32_or_float64(dtype):
    with pytest.raises(ValueError) as raised:
        build_model(tiny_model_config(), seed=1, dtype=dtype)
    assert str(raised.value) == (f"model dtype must be float32 or float64, "
                                 f"got {np.dtype(dtype)}")


def test_checkpoint_unsupported_dtype_names_array_and_offset(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))

    def to_int8(header):
        header["arrays"][1]["dtype"] = "int8"
        return json.dumps(header).encode()

    name = read_checkpoint_header(path)[0]["arrays"][1]["name"]
    rewrite_header(path, to_int8)
    with pytest.raises(ValueError, match=rf"m\.ckpt: header at byte offset 14: "
                                         rf"array '{name}' has unsupported dtype 'int8'"):
        load_checkpoint(path)


@pytest.mark.parametrize("body, problem", [
    (b"{not json", "not UTF-8 JSON"), (b"\xff\xfe{}", "not UTF-8 JSON"),
    (b"[]", "expected a JSON object, got list"),
], ids=["not-json", "not-utf8", "list"])
def test_checkpoint_unreadable_header_names_offset(tmp_path, body, problem):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))
    rewrite_header(path, lambda header: body)
    with pytest.raises(ValueError, match=rf"m\.ckpt: header at byte offset 14: {problem}"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [7, 0, None, True, 1.0, "1"])
def test_checkpoint_json_version_must_match_fixed_header(tmp_path, version):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))

    def set_version(header):
        if version is None:
            del header["version"]
        else:
            header["version"] = version
        return json.dumps(header).encode()

    rewrite_header(path, set_version)
    with pytest.raises(ValueError, match=r"m\.ckpt: header at byte offset 14: 'version' is "
                                         r".*, the fixed header says 1"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["config", "arrays"])
def test_checkpoint_header_missing_key_names_offset(tmp_path, key):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))

    def drop(header):
        del header[key]
        return json.dumps(header).encode()

    rewrite_header(path, drop)
    with pytest.raises(ValueError,
                       match=rf"m\.ckpt: header at byte offset 14: '{key}' is missing"):
        load_checkpoint(path)


def test_checkpoint_array_shape_mismatch_names_array_and_offset(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))
    entry = next(e for e in read_checkpoint_header(path)[0]["arrays"] if len(e["shape"]) == 1)

    def add_axis(header):
        # the same element count, so only the shape is wrong
        for e in header["arrays"]:
            if e["name"] == entry["name"]:
                e["shape"] = e["shape"] + [1]
        return json.dumps(header).encode()

    rewrite_header(path, add_axis)
    size = entry["shape"][0]
    with pytest.raises(ValueError, match=rf"m\.ckpt: header at byte offset 14: array "
                                         rf"'{entry['name']}' has shape \({size}, 1\), "
                                         rf"model expects \({size},\)$"):
        load_checkpoint(path)


def test_checkpoint_config_rejected_by_the_model_names_offset(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))
    raw = path.read_bytes()
    # one flipped bit: '5' (0x35) becomes '7' (0x37)
    path.write_bytes(raw.replace(b'"ntu25"', b'"ntu27"', 1))
    with pytest.raises(ValueError, match=r"m\.ckpt: header at byte offset 14: "
                                         r"bad config \(unknown layout 'ntu27'"):
        load_checkpoint(path)


def test_checkpoint_listing_an_array_twice_is_refused(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))
    header, raw, offset = read_checkpoint_header(path)
    first = header["arrays"][0]
    first_bytes = raw[offset : offset + 4 * math.prod(first["shape"])]

    def list_first_again(header):
        header["arrays"].append(dict(first))
        return json.dumps(header).encode()

    rewrite_header(path, list_first_again)
    path.write_bytes(path.read_bytes() + first_bytes)
    with pytest.raises(ValueError, match=rf"m\.ckpt: header at byte offset 14: "
                                         rf"array '{first['name']}' is listed twice$"):
        load_checkpoint(path)


def test_checkpoint_mixing_dtypes_is_refused(tmp_path):
    model = build_model(tiny_model_config(), seed=1)
    _, param = next(iter(model.named_parameters()))
    param.data = param.data.astype(np.float64)
    path = save_checkpoint(tmp_path / "m.ckpt", model)
    with pytest.raises(ValueError, match=r"m\.ckpt: header at byte offset 14: the arrays mix "
                                         r"dtypes \['float32', 'float64'\], a model has one$"):
        load_checkpoint(path)


def test_checkpoint_array_name_must_be_a_string(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", build_model(tiny_model_config(), seed=1))

    def name_as_list(header):
        header["arrays"][0]["name"] = [header["arrays"][0]["name"]]
        return json.dumps(header).encode()

    rewrite_header(path, name_as_list)
    with pytest.raises(ValueError, match=r"m\.ckpt: header at byte offset 14: array entry "
                                         r".* needs a name, a shape of sizes and a dtype$"):
        load_checkpoint(path)


# -- training harness ---------------------------------------------------


@pytest.fixture(scope="module")
def smoke_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    spec = SynthSpec(n_classes=2, samples_per_class=10, test_per_class=5,
                     layout="ntu25", frames=20, noise_sigma=0.05, seed=11)
    synth_generate(root / "data", spec)
    cfg = run_preset("smoke").with_overrides([
        f"train_manifest={root / 'data' / 'train.manifest'}",
        f"test_manifest={root / 'data' / 'test.manifest'}",
        f"out_dir={root / 'run'}",
        "seed=0",
    ])
    return root, cfg


@pytest.fixture(scope="module")
def smoke_run(smoke_setup):
    _, cfg = smoke_setup
    return train(cfg)


def test_smoke_run_loss_decreases(smoke_run):
    records = smoke_run.log.records
    assert len(records) == 3
    assert records[-1].train_loss < records[0].train_loss


def test_smoke_run_writes_artifacts(smoke_run):
    assert smoke_run.checkpoint_path.exists()
    assert smoke_run.metrics_path.exists()
    assert smoke_run.checkpoint_path.with_name("run.cfg").exists()


def test_identical_seed_runs_identical_metrics(smoke_setup, smoke_run, tmp_path):
    _, cfg = smoke_setup
    rerun = train(cfg.with_overrides([f"out_dir={tmp_path / 'rerun'}"]))
    assert rerun.metrics_path.read_bytes() == smoke_run.metrics_path.read_bytes()


def test_run_config_written_by_train_reads_back_and_drives_flops(smoke_setup, smoke_run,
                                                                 capsys):
    _, cfg = smoke_setup
    path = smoke_run.checkpoint_path.parent / "run.cfg"
    assert RunConfig.load(path) == cfg
    assert cli.main(["flops", "--config", str(path), "--with-cen"]) == 0
    assert capsys.readouterr().out == count_model_flops(cfg.model).as_text() + "\n\n"


def test_run_config_bad_line_names_file_and_line(smoke_run, tmp_path, capsys):
    lines = (smoke_run.checkpoint_path.parent / "run.cfg").read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("lr="))
    lines[lineno - 1] = "lr=fast"
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    message = rf"{re.escape(str(path))}: line {lineno}: bad value 'fast' for lr: "
    with pytest.raises(ValueError, match=rf"^{message}"):
        RunConfig.load(path)
    assert cli.main(["flops", "--config", str(path)]) == 2
    assert re.match(rf"error: {message}", capsys.readouterr().err)


def eval_command(checkpoint, manifest, batch_size=EVAL_BATCH_SIZE):
    """Run ``dyngcn eval`` as ``cli.main`` does, but let a refusal raise."""
    args = cli.build_parser().parse_args([
        "eval", "--checkpoint", str(checkpoint), "--manifest", str(manifest),
        "--batch-size", str(batch_size)])
    args.func(args)


def test_top5_never_below_top1(smoke_setup, smoke_run):
    root, cfg = smoke_setup
    (result,), _ = ensemble_checkpoints([smoke_run.checkpoint_path],
                                        root / "data" / "train.manifest")
    assert result.top5 >= result.top1
    assert result.count == 20


def test_ensemble_of_one_fuses_to_its_stream(smoke_setup, smoke_run):
    root, _ = smoke_setup
    manifest = root / "data" / "test.manifest"
    (single,), fused = ensemble_checkpoints([smoke_run.checkpoint_path], manifest)
    assert fused == single


def test_ensemble_duplicate_checkpoint_unchanged(smoke_setup, smoke_run, tmp_path):
    root, _ = smoke_setup
    manifest = root / "data" / "test.manifest"
    copy = tmp_path / "copy.ckpt"
    shutil.copyfile(smoke_run.checkpoint_path, copy)
    streams, fused = ensemble_checkpoints([smoke_run.checkpoint_path, copy], manifest)
    assert fused == streams[0] == streams[1]


def test_ensemble_class_count_mismatch(smoke_setup, smoke_run, tmp_path):
    root, _ = smoke_setup
    other = build_model(ModelConfig(layout="ntu25", n_classes=7, frames=16,
                                    channels=(8,), strides=(1,), tc_kernel=3,
                                    aggregate_after=()),
                        seed=0)
    path = save_checkpoint(tmp_path / "other.ckpt", other, {"modality": "joint"})
    with pytest.raises(ValueError, match="classes"):
        ensemble_checkpoints([smoke_run.checkpoint_path, path],
                             root / "data" / "test.manifest")


def test_empty_ensemble_is_refused_before_anything_is_read(tmp_path):
    with pytest.raises(ValueError, match="^an ensemble needs at least one checkpoint$"):
        ensemble_checkpoints([], tmp_path / "missing.manifest")


@pytest.mark.parametrize("entry", ["evaluate", "ensemble"])
def test_bad_eval_batch_size_is_refused_before_any_sequence_is_read(smoke_setup, smoke_run,
                                                                    monkeypatch, entry):
    root, _ = smoke_setup
    reads = []

    def counted(path):
        reads.append(path)
        return load_sequence(path)

    monkeypatch.setattr(dyngcn.train, "load_sequence", counted)
    manifest = root / "data" / "test.manifest"
    with pytest.raises(ValueError, match="^batch_size must be at least 1, got 0$"):
        if entry == "evaluate":
            eval_command(smoke_run.checkpoint_path, manifest, batch_size=0)
        else:
            ensemble_checkpoints([smoke_run.checkpoint_path], manifest, batch_size=0)
    assert reads == []


@pytest.mark.parametrize("entry", ["evaluate", "ensemble", "export"])
def test_manifest_declaring_another_layout_is_refused(smoke_setup, smoke_run, tmp_path, entry):
    root, _ = smoke_setup
    manifest = load_manifest(root / "data" / "test.manifest")
    manifest.entries = [(str(manifest.resolve(rel)), label) for rel, label in manifest.entries]
    manifest.layout_name = "kinect25"
    other = save_manifest(tmp_path / "kinect.manifest", manifest)
    ckpt = smoke_run.checkpoint_path
    call = {"evaluate": lambda: eval_command(ckpt, other),
            "ensemble": lambda: ensemble_checkpoints([ckpt], other),
            "export": lambda: export_topology(ckpt, other, 1, 0, tmp_path / "t")}[entry]
    with pytest.raises(ValueError, match=rf"kinect\.manifest: manifest declares layout "
                                         rf"'kinect25', checkpoint .*model\.ckpt was "
                                         rf"trained on 'ntu25'"):
        call()
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize("entry", ["train", "evaluate", "ensemble", "export"])
def test_manifest_with_another_class_table_is_refused(smoke_setup, smoke_run, tmp_path,
                                                       monkeypatch, entry):
    root, cfg = smoke_setup
    other = faulty_manifest(root, tmp_path, "classes")
    ckpt = smoke_run.checkpoint_path
    if entry == "train":
        # the train manifest's sequences are read before the test manifest
        source = rf"train manifest .*train\.manifest declares"
        call = lambda: train(cfg.with_overrides([f"test_manifest={other}",
                                                 f"out_dir={tmp_path / 'run'}"]))
    else:
        monkeypatch.setattr(dyngcn.train, "load_sequence", None)
        source = rf"checkpoint {re.escape(str(ckpt))} was trained on"
        call = {"evaluate": lambda: eval_command(ckpt, other),
                "ensemble": lambda: ensemble_checkpoints([ckpt], other),
                "export": lambda: export_topology(ckpt, other, 1, 0, tmp_path / "t")}[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(other))}: manifest declares classes "
                                         rf"\['pattern1', 'pattern0'\], {source} "
                                         rf"\['pattern0', 'pattern1'\]$"):
        call()
    assert not (tmp_path / "t.txt").exists() and not (tmp_path / "run").exists()


def test_checkpoint_without_class_names_reads_any_class_table(smoke_setup, smoke_run, tmp_path):
    root, _ = smoke_setup
    other = faulty_manifest(root, tmp_path, "classes")
    model, meta = load_checkpoint(smoke_run.checkpoint_path)
    del meta["class_names"]
    ckpt = save_checkpoint(tmp_path / "nameless.ckpt", model, meta)
    got = ensemble_checkpoints([ckpt], other)
    want = ensemble_checkpoints([smoke_run.checkpoint_path], root / "data" / "test.manifest")
    assert got == want
    logits = [collect_logits(model, x) for model, _, x, _ in (
        load_checkpoint_inputs(ckpt, other),
        load_checkpoint_inputs(smoke_run.checkpoint_path, root / "data" / "test.manifest"))]
    assert np.array_equal(*logits)


def faulty_manifest(root, tmp_path, fault):
    """The smoke test manifest, with absolute entry paths and one fault."""
    manifest = load_manifest(root / "data" / "test.manifest")
    manifest.entries = [(str(manifest.resolve(rel)), label) for rel, label in manifest.entries]
    if fault == "layout":
        manifest.layout_name = "kinect25"
    elif fault == "empty":
        manifest.entries = []
    elif fault == "classes":
        manifest.class_names.reverse()
    elif fault == "label":
        manifest.class_names += ["c2", "c3"]
        manifest.entries[-1] = (manifest.entries[-1][0], 3)
    else:
        # two coordinates per joint: in every sequence, or in the last only
        first = 0 if fault == "coords" else len(manifest.entries) - 1
        for i in range(first, len(manifest.entries)):
            path, label = manifest.entries[i]
            seq = load_sequence(path)
            seq.data = seq.data[..., :2].copy()
            manifest.entries[i] = (str(save_sequence(tmp_path / f"{fault}-{i}.skl", seq)), label)
    return save_manifest(tmp_path / f"{fault}.manifest", manifest)


# Fault -> the refusal, after the manifest (or sequence) path.
MANIFEST_REFUSALS = {
    "empty": "manifest lists no sequences",
    "label": "entry .* has label 3, the model has 2 classes",
    "coords": "sequences have 2 coordinates, the model takes 3 input channels",
    "mixed": "sequence has 2 coordinates, .* has 3",
}


@pytest.mark.parametrize("entry", ["train", "evaluate", "ensemble", "export"])
@pytest.mark.parametrize("fault", sorted(MANIFEST_REFUSALS))
def test_manifest_the_model_cannot_read_is_refused(smoke_setup, smoke_run, tmp_path,
                                                   monkeypatch, fault, entry):
    root, cfg = smoke_setup
    bad = faulty_manifest(root, tmp_path, fault)
    if fault in ("empty", "label"):
        # refused before any sequence file is read
        monkeypatch.setattr(dyngcn.train, "load_sequence", None)
    ckpt = smoke_run.checkpoint_path
    call = {"train": lambda: train(cfg.with_overrides([f"train_manifest={bad}",
                                                       f"out_dir={tmp_path / 'run'}"])),
            "evaluate": lambda: eval_command(ckpt, bad),
            "ensemble": lambda: ensemble_checkpoints([ckpt], bad),
            "export": lambda: export_topology(ckpt, bad, 1, 0, tmp_path / "t")}[entry]
    where = r"mixed-\d+\.skl" if fault == "mixed" else rf"{fault}\.manifest"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path))}/{where}: "
                                         rf"{MANIFEST_REFUSALS[fault]}"):
        call()
    assert not (tmp_path / "t.txt").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("modality", ["hologram", ["joint"]])
@pytest.mark.parametrize("entry", ["evaluate", "ensemble", "export"])
def test_checkpoint_with_an_unknown_modality_is_refused_before_any_sequence_is_read(
        smoke_setup, smoke_run, tmp_path, monkeypatch, entry, modality):
    root, _ = smoke_setup
    model, _ = load_checkpoint(smoke_run.checkpoint_path)
    # save_checkpoint refuses this meta, so it goes into a written header
    ckpt = save_checkpoint(tmp_path / "holo.ckpt", model)
    rewrite_header(ckpt, lambda header: json.dumps(
        {**header, "meta": {"modality": modality}}).encode())
    manifest = root / "data" / "test.manifest"
    monkeypatch.setattr(dyngcn.train, "load_sequence", None)
    call = {"evaluate": lambda: eval_command(ckpt, manifest),
            "ensemble": lambda: ensemble_checkpoints([ckpt], manifest),
            "export": lambda: export_topology(ckpt, manifest, 1, 0, tmp_path / "t")}[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(ckpt))}: header at byte offset 14: "
                                         rf"unknown modality {re.escape(repr(modality))}, "
                                         rf"expected one of "):
        call()
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize("class_names", [{"0": "c0"}, 3, None, "c0", ["c0", 1]],
                         ids=["object", "number", "null", "string", "non-string-item"])
def test_export_refuses_a_checkpoint_whose_class_names_is_not_a_list_of_strings(
        smoke_setup, smoke_run, tmp_path, class_names):
    root, _ = smoke_setup
    model, meta = load_checkpoint(smoke_run.checkpoint_path)
    # save_checkpoint refuses this meta, so it goes into a written header
    ckpt = save_checkpoint(tmp_path / "names.ckpt", model, meta)
    rewrite_header(ckpt, lambda header: json.dumps(
        {**header, "meta": {**meta, "class_names": class_names}}).encode())
    with pytest.raises(ValueError, match=rf"^{re.escape(str(ckpt))}: header at byte offset 14: "
                                         rf"'class_names' is {re.escape(repr(class_names))}, "
                                         rf"expected a list of strings$"):
        export_topology(ckpt, root / "data" / "test.manifest", 1, 0, tmp_path / "t")
    assert not (tmp_path / "t.txt").exists()


def test_train_refuses_an_empty_train_manifest(smoke_setup, tmp_path):
    _, cfg = smoke_setup
    with pytest.raises(ValueError, match="^no training manifest; pass --train-manifest"):
        train(cfg.with_overrides(["train_manifest=", f"out_dir={tmp_path / 'run'}"]))
    assert not (tmp_path / "run").exists()


def test_train_without_a_test_manifest_logs_nan_accuracy(smoke_setup, tmp_path):
    _, cfg = smoke_setup
    result = train(cfg.with_overrides(["test_manifest=", "total_epochs=1",
                                       f"out_dir={tmp_path / 'run'}"]))
    assert result.metrics_path.read_text().splitlines()[1].split()[3:5] == ["nan", "nan"]
    (record,) = MetricsLog.load(result.metrics_path).records
    assert math.isnan(record.top1) and math.isnan(record.top5)


def test_train_refuses_a_manifest_declaring_another_layout(smoke_setup, tmp_path, monkeypatch):
    root, cfg = smoke_setup
    bad = faulty_manifest(root, tmp_path, "layout")
    monkeypatch.setattr(dyngcn.train, "load_sequence", None)
    with pytest.raises(ValueError, match=r"layout\.manifest: manifest declares layout "
                                         r"'kinect25', model\.layout is 'ntu25'$"):
        train(cfg.with_overrides([f"train_manifest={bad}", f"out_dir={tmp_path / 'run'}"]))


def test_non_finite_loss_aborts(tmp_path):
    spec = SynthSpec(n_classes=2, samples_per_class=4, test_per_class=0,
                     layout="ntu25", frames=20, noise_sigma=0.05, seed=13)
    train_manifest, _ = synth_generate(tmp_path / "data", spec)
    # poison one sequence so the very first forward produces NaN: the loader
    # rejects NaN and inf, but finite float32 values near the maximum get in
    # and overflow the input batch norm's statistics
    from dyngcn.data import load_sequence, save_sequence

    victim = train_manifest.resolve(train_manifest.entries[0][0])
    seq = load_sequence(victim)
    seq.data[1:, 0, :, 0] = 3e38
    save_sequence(victim, seq)
    cfg = run_preset("smoke").with_overrides([
        f"train_manifest={tmp_path / 'data' / 'train.manifest'}",
        f"out_dir={tmp_path / 'hot'}",
        "total_epochs=2",
        "batch_size=8",
    ])
    with pytest.raises(RuntimeError, match="non-finite loss .* epoch 1"):
        train(cfg)


@pytest.fixture
def two_sequences(tmp_path):
    """A two-sample ntu25 manifest, and the sequence file of its first entry."""
    spec = SynthSpec(n_classes=2, samples_per_class=1, test_per_class=0,
                     layout="ntu25", frames=8, noise_sigma=0.05, seed=5)
    manifest, _ = synth_generate(tmp_path / "data", spec)
    return manifest, manifest.resolve(manifest.entries[0][0])


def poison(path, edit):
    from dyngcn.data import load_sequence, save_sequence

    seq = load_sequence(path)
    edit(seq.data)
    save_sequence(path, seq)


@pytest.mark.parametrize("modality, stage", [("joint", "centring"), ("bone", "the bone transform"),
                                             ("joint_motion", "the joint_motion transform")])
def test_dataset_overflow_names_file_and_stage(two_sequences, modality, stage):
    manifest, victim = two_sequences
    layout = build_layout("ntu25")
    center = layout.center_joint
    source, target = next((s, t) for s, t in layout.bone_pairs if center not in (s, t))

    def edit(data):
        if stage == "centring":
            data[0, 0, center, 0] = -3e38     # first-frame centre joint
            data[:, 0, target, 0] = 3e38
        elif modality == "bone":
            data[:, 0, source, 0] = -3e38
            data[:, 0, target, 0] = 3e38
        else:
            data[::2, 0, target, 0] = -3e38   # alternate frames: motion overflows
            data[1::2, 0, target, 0] = 3e38

    poison(victim, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=rf"{re.escape(str(victim))}: {stage} overflows float32"):
            load_dataset(manifest, 8, layout, modality)


def test_dataset_near_float32_max_that_does_not_overflow_loads(two_sequences):
    manifest, victim = two_sequences
    layout = build_layout("ntu25")
    poison(victim, lambda data: data.__setitem__((slice(None), 0, 3, 0), 3e38))
    x, _ = load_dataset(manifest, 8, layout, "joint")
    assert np.isfinite(x).all()


def test_dataset_refuses_sequences_without_the_score_channel(two_sequences, tmp_path):
    manifest, _ = two_sequences
    ntu = importlib.resources.files("dyngcn") / "layouts" / "ntu25.layout"
    path = tmp_path / "scored.layout"
    path.write_text(ntu.read_text() + "score_channel 7\n")
    first = manifest.resolve(manifest.entries[0][0])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(first))}: sequence has 3 coordinates, "
                                         rf"layout 'ntu25' puts its score in channel 7$"):
        load_dataset(manifest, 8, build_layout(str(path)), "joint")


def test_dataset_refuses_a_sequence_declaring_another_layout(two_sequences):
    manifest, victim = two_sequences
    seq = load_sequence(victim)
    seq.layout_name = "openpose18"      # same joint count as ntu25: only the name tells
    save_sequence(victim, seq)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(victim))}: sequence declares "
                                         rf"layout 'openpose18', expected 'ntu25'$"):
        load_dataset(manifest, 8, build_layout("ntu25"), "joint")


def test_dataset_loads_a_text_sequence_without_a_layout_line(two_sequences):
    manifest, victim = two_sequences
    layout = build_layout("ntu25")
    want, _ = load_dataset(manifest, 8, layout, "joint")
    text = format_sequence_text(load_sequence(victim))
    victim.write_text("".join(line for line in text.splitlines(keepends=True)
                              if not line.startswith("layout ")))
    assert load_sequence(victim).layout_name == ""
    got, _ = load_dataset(manifest, 8, layout, "joint")
    assert np.array_equal(got, want)


def test_dataset_joint_count_refusal_names_the_resolved_file(two_sequences):
    # an openpose18 text sequence with no layout line, so only its joint
    # count tells it from ntu25
    manifest, victim = two_sequences
    seq = load_sequence(victim)
    seq.data = seq.data[:, :, :18].copy()
    seq.layout_name = "openpose18"
    victim.write_text("".join(line for line in format_sequence_text(seq).splitlines(keepends=True)
                              if not line.startswith("layout ")))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(victim))}: sequence has 18 joints, "
                                         rf"layout 'ntu25' defines 25$"):
        load_dataset(manifest, 8, build_layout("ntu25"), "joint")


def _frozen_static_names(model):
    return [f"blocks.{i}.{name}"
            for i, block in enumerate(model.blocks)
            for name in [f"static_convs.{k}.weight" for k in range(block.topo.n_configs)]
            + [f"topo.mask.{k}" for k in range(block.topo.n_configs)]]


def test_lambda_zero_trains_with_the_static_route_frozen(smoke_setup, tmp_path):
    _, cfg = smoke_setup
    cfg = cfg.with_overrides(["model.lambda_static=0.0", "total_epochs=1",
                              f"out_dir={tmp_path / 'run'}"])
    model = build_model(cfg.model, seed=cfg.seed)
    fresh = dict(model.named_parameters())
    frozen = [name for name, p in fresh.items() if not p.requires_grad]
    assert sorted(frozen) == sorted(_frozen_static_names(model))
    result = train(cfg)
    for name, p in result.model.named_parameters():
        assert np.array_equal(p.data, fresh[name].data) == (name in frozen), name


def test_trainable_parameter_without_gradient_is_named(smoke_setup, tmp_path, monkeypatch):
    import dyngcn.train as d_train

    _, cfg = smoke_setup
    cfg = cfg.with_overrides(["model.lambda_static=0.0", f"out_dir={tmp_path / 'run'}"])
    model = build_model(cfg.model, seed=cfg.seed)
    # declared trainable, but the static route it belongs to never runs
    model.blocks[1].static_convs[2].weight.requires_grad = True
    monkeypatch.setattr(d_train, "build_model", lambda config, seed: model)
    with pytest.raises(RuntimeError, match=r"no gradient from the first batch: "
                                           r"blocks\.1\.static_convs\.2\.weight$"):
        train(cfg)


def test_train_frees_each_step_graph_and_its_scratch_pool(smoke_setup, tmp_path,
                                                          monkeypatch):
    import dyngcn.tensor
    import dyngcn.train as d_train

    _, cfg = smoke_setup
    cfg = cfg.with_overrides(["total_epochs=2", f"out_dir={tmp_path / 'run'}"])
    model = build_model(cfg.model, seed=cfg.seed)
    forward = model.forward
    # weak references to the outputs of every op behind the logits of each
    # train-mode forward; train() keeps only the logits and the loss bound
    # until the next step replaces them
    earlier = []
    steps = []

    def checked_forward(x):
        if model.training:
            assert [ref() for ref in earlier] == [None] * len(earlier)
        logits = forward(x)
        if model.training:
            seen, stack = set(), list(logits._prev)
            while stack:
                node = stack.pop()
                if id(node) not in seen and node._backward is not None:
                    seen.add(id(node))
                    earlier.append(weakref.ref(node.data))
                    stack.extend(node._prev)
            steps.append(len(seen))
        return logits

    model.forward = checked_forward
    monkeypatch.setattr(d_train, "build_model", lambda config, seed: model)
    train(cfg)
    assert len(steps) == 6  # 20 samples in batches of 8, two epochs
    assert min(steps) > 50
    assert dyngcn.tensor._SCRATCH == []


def test_a_run_that_raises_frees_its_scratch_arena(smoke_setup, tmp_path, monkeypatch):
    import dyngcn.tensor
    import dyngcn.train as d_train

    _, cfg = smoke_setup
    cfg = cfg.with_overrides([f"out_dir={tmp_path / 'run'}"])
    arena_held = []

    def nan_on_the_second_batch(logits, labels, original=d_train.softmax_cross_entropy):
        loss = original(logits, labels)
        arena_held.append(bool(dyngcn.tensor._SCRATCH))
        if len(arena_held) == 2:
            loss.data[...] = np.nan
        return loss

    monkeypatch.setattr(d_train, "softmax_cross_entropy", nan_on_the_second_batch)
    with pytest.raises(RuntimeError, match="non-finite loss nan at epoch 1, batch 1"):
        train(cfg)
    # the first batch's backward took the arena, and the raise dropped it
    assert arena_held == [False, True]
    assert not dyngcn.tensor._SCRATCH


@pytest.fixture(scope="module")
def five_class_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("five")
    spec = SynthSpec(n_classes=5, samples_per_class=8, test_per_class=8,
                     layout="ntu25", frames=20, noise_sigma=0.05, seed=21)
    synth_generate(root, spec)
    return root


def test_random_model_sits_at_chance(five_class_data):
    layout = build_layout("ntu25")
    manifest = load_manifest(five_class_data / "test.manifest")
    cfg = ModelConfig(layout="ntu25", n_classes=5, frames=16,
                      channels=(8, 16), strides=(1, 2), tc_kernel=5,
                      aggregate_after=(1,), topology="context")
    x, y = load_dataset(manifest, cfg.frames, layout, "joint")
    for seed in range(4):
        model = build_model(cfg, seed=seed)
        result = evaluate_arrays(model, x, y)
        assert 0.1 <= result.top1 <= 0.35
        assert result.top5 == 1.0  # five classes, top-5 covers everything
