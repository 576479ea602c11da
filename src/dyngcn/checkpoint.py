"""Checkpoint file format: model config, metadata, and raw arrays.

Layout on disk:

  magic ``DGCK`` | u16 version | u64 header length | UTF-8 JSON header
  | concatenated little-endian array buffers

The JSON header holds the model config, metadata (a modality and class
names, which ``save_checkpoint`` and ``load_checkpoint`` check, and
free-form keys such as the epoch), and an ordered array table (name,
shape, dtype) of one dtype.
Buffers are written raw, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .modality import refuse_unknown_modality
from .model import ModelConfig, build_model
from .skeleton import write_file

MAGIC = b"DGCK"
FORMAT_VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8"}

# The JSON header starts after the magic, the u16 version and the u64 length.
HEADER_OFFSET = len(MAGIC) + struct.calcsize("<HQ")


def _bad_header(path, message):
    return ValueError(f"{path}: header at byte offset {HEADER_OFFSET}: {message}")


def _model_arrays(model):
    for name, param in model.named_parameters():
        yield name, param.data
    for name, buf in model.named_buffers():
        yield name, buf


def _refuse_bad_meta(meta):
    """Raise unless ``meta`` names a known modality (none given reads as
    ``"joint"``) and its ``class_names``, if given, is a list of strings;
    the writer and the reader both ask."""
    refuse_unknown_modality(meta.get("modality", "joint"))
    class_names = meta.get("class_names", [])
    if not (isinstance(class_names, list) and all(isinstance(n, str) for n in class_names)):
        raise ValueError(f"'class_names' is {class_names!r}, expected a list of strings")


def save_checkpoint(path, model, meta=None):
    meta = dict(meta or {})
    try:
        _refuse_bad_meta(meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; nothing written") from None
    table = []
    buffers = []
    for name, arr in _model_arrays(model):
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise ValueError(f"array {name!r} has unsupported dtype {dtype}")
        table.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        buffers.append(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes())
    header = {
        "version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "meta": meta,
        "arrays": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return write_file(path, MAGIC, struct.pack("<HQ", FORMAT_VERSION, len(header_bytes)),
                      header_bytes, *buffers)


def read_checkpoint_header(path):
    """``load_checkpoint``'s header step; returns (header, raw bytes, the
    byte offset where the arrays start)."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {raw[:4]!r} at byte offset 0)")
    start = HEADER_OFFSET
    if len(raw) < start:
        raise ValueError(
            f"{path}: truncated at byte offset {len(raw)}: "
            f"the version and header length end at byte offset {start}"
        )
    version, header_len = struct.unpack_from("<HQ", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version} at byte offset 4")
    if start + header_len > len(raw):
        raise ValueError(
            f"{path}: truncated at byte offset {len(raw)}: "
            f"the header ends at byte offset {start + header_len}"
        )

    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _bad_header(path, f"not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise _bad_header(path, f"expected a JSON object, got {type(header).__name__}")
    for key, kind in (("config", dict), ("meta", dict), ("arrays", list)):
        if not isinstance(header.get(key), kind):
            what = "array" if kind is list else "object"
            raise _bad_header(path, f"{key!r} is missing or not a JSON {what}")
    json_version = header.get("version")
    if type(json_version) is not int or json_version != version:
        raise _bad_header(path, f"'version' is {json_version!r}, the fixed header says {version}")
    names = set()
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and {"name", "shape", "dtype"} <= entry.keys()
                and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
                and all(isinstance(d, int) and d >= 0 for d in entry["shape"])):
            raise _bad_header(path, f"array entry {entry!r} needs a name, a shape of sizes "
                                    f"and a dtype")
        if entry["dtype"] not in _DTYPES:
            raise _bad_header(path, f"array {entry['name']!r} has unsupported dtype "
                                    f"{entry['dtype']!r}, expected one of {sorted(_DTYPES)}")
        if entry["name"] in names:
            raise _bad_header(path, f"array {entry['name']!r} is listed twice")
        names.add(entry["name"])
    try:
        _refuse_bad_meta(header["meta"])
    except ValueError as exc:
        raise _bad_header(path, str(exc)) from None
    header["meta"].setdefault("modality", "joint")
    return header, raw, start + header_len


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes; returns (model, meta).

    The one gate between a checkpoint file and its readers: it refuses,
    naming the file and the header's byte offset, an array table that lists
    a name twice or mixes dtypes, an unknown modality and a ``class_names``
    that is not a list of strings, and fills in the ``"joint"`` modality.
    """
    header, raw, offset = read_checkpoint_header(path)
    dtypes = {entry["dtype"] for entry in header["arrays"]}
    if len(dtypes) > 1:
        raise _bad_header(path, f"the arrays mix dtypes {sorted(dtypes)}, a model has one")
    dtype = np.float64 if dtypes == {"float64"} else np.float32
    try:
        model = build_model(ModelConfig.from_dict(header["config"]), seed=0, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise _bad_header(path, f"bad config ({exc})") from None

    stored = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        item = np.dtype(_DTYPES[entry["dtype"]])
        if offset + count * item.itemsize > len(raw):
            raise ValueError(
                f"{path}: truncated: array {entry['name']!r} at byte offset {offset} "
                f"needs {count * item.itemsize} bytes, the file ends at byte offset {len(raw)}"
            )
        arr = np.frombuffer(raw, dtype=item, count=count, offset=offset)
        stored[entry["name"]] = arr.reshape(shape).astype(entry["dtype"])
        offset += arr.nbytes
    if offset != len(raw):
        raise ValueError(
            f"{path}: {len(raw) - offset} trailing bytes after the arrays end "
            f"at byte offset {offset}"
        )

    expected = dict(_model_arrays(model))
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise _bad_header(path, f"array set does not match the configured model "
                                f"(missing {missing[:3]}, unexpected {extra[:3]})")
    for name, target in expected.items():
        value = stored[name]
        if target.shape != value.shape:
            raise _bad_header(path, f"array {name!r} has shape {value.shape}, "
                                    f"model expects {target.shape}")
        target[...] = value
    return model, header["meta"]
