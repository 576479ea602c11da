"""Checkpoint file format: model config, metadata, and raw arrays.

Layout on disk:

  magic ``DGCK`` | u16 version | u64 header length | UTF-8 JSON header
  | concatenated little-endian array buffers

The JSON header holds the model config, free-form metadata (modality,
epoch, class names), and an ordered array table (name, shape, dtype).
Buffers are written raw, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .model import ModelConfig, build_model

MAGIC = b"DGCK"
FORMAT_VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8"}

# The JSON header starts after the magic, the u16 version and the u64 length.
HEADER_OFFSET = len(MAGIC) + struct.calcsize("<HQ")


def _model_arrays(model):
    for name, param in model.named_parameters():
        yield name, param.data
    for name, buf in model.named_buffers():
        yield name, buf


def save_checkpoint(path, model, meta=None):
    path = Path(path)
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
        "meta": dict(meta or {}),
        "arrays": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HQ", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in buffers:
            fh.write(blob)
    return path


def read_checkpoint_header(path):
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

    def bad_header(message):
        return ValueError(f"{path}: header at byte offset {start}: {message}")

    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise bad_header(f"not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise bad_header(f"expected a JSON object, got {type(header).__name__}")
    for key, kind in (("config", dict), ("meta", dict), ("arrays", list)):
        if not isinstance(header.get(key), kind):
            what = "array" if kind is list else "object"
            raise bad_header(f"{key!r} is missing or not a JSON {what}")
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and {"name", "shape", "dtype"} <= entry.keys()
                and isinstance(entry["shape"], list)
                and all(isinstance(d, int) and d >= 0 for d in entry["shape"])):
            raise bad_header(f"array entry {entry!r} needs a name, a shape of sizes and a dtype")
        if entry["dtype"] not in _DTYPES:
            raise bad_header(
                f"array {entry['name']!r} has unsupported dtype {entry['dtype']!r}, "
                f"expected one of {sorted(_DTYPES)}"
            )
    return header, raw, start + header_len


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes; returns (model, meta)."""
    header, raw, offset = read_checkpoint_header(path)
    dtypes = {entry["dtype"] for entry in header["arrays"]}
    dtype = np.float64 if dtypes == {"float64"} else np.float32
    try:
        model = build_model(ModelConfig.from_dict(header["config"]), seed=0, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: header at byte offset {HEADER_OFFSET}: bad config ({exc})"
        ) from None

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
        raise ValueError(
            f"{path}: header at byte offset {HEADER_OFFSET}: array set does not match "
            f"the configured model "
            f"(missing {missing[:3]}, unexpected {extra[:3]})"
        )
    for name, target in expected.items():
        value = stored[name]
        if target.shape != value.shape:
            raise ValueError(
                f"{path}: header at byte offset {HEADER_OFFSET}: array {name!r} has shape "
                f"{value.shape}, model expects {target.shape}"
            )
        target[...] = value
    return model, header["meta"]
