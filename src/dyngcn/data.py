"""Skeleton sequences: container, file formats, resizing, synthesis.

A sequence is a (T, M, N, D) float32 array: T frames, M persons (at most
two, absent persons all-zero), N joints, D coordinates per joint
(typically x, y, z or x, y, score).

Two on-disk formats carry the same payload:

  binary   magic ``SKSQ``, version, label, T, M, N, D, then the layout
           name and sample id as length-prefixed UTF-8, then T*M*N*D
           little-endian float32 values in (t, m, n, d) order; T is a
           u32 and the rest are u16, so ``save_sequence`` refuses a
           label, N, D or name length above 65535
  text     line-oriented, hand-writable; see ``parse_sequence_text``

Datasets are described by a manifest: a text file of ``path<TAB>label``
lines with a commented header naming the layout, split, and classes.
Every file is written by ``skeleton.write_file`` and every text is read by
``skeleton.read_utf8`` or ``decode_utf8``, so text is UTF-8 whatever the
locale.

A ``SkeletonSequence`` is the file edge: the readers and ``synth_generate``
build one, the writers take one.  The transforms to the model's input,
``resize_sequence`` and ``normalize_coords``, work on its (T, M, N, D) array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import refuse_non_finite
from .skeleton import build_layout, decode_utf8, read_utf8, write_file

MAGIC = b"SKSQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHIHHH")

MAX_PERSONS = 2

# The binary header holds the label, N, D and both string lengths as u16
# (T is a u32, and M is at most MAX_PERSONS).
_U16_MAX = 0xFFFF

# Byte offsets of T, M, N and D in the binary header.
_SHAPE_OFFSETS = (8, 12, 14, 16)


def _shape_problem(shape):
    """(axis, reason) for the first entry of a (T, M, N, D) shape that no
    sequence can have, or None."""
    t, m, n, d = shape
    for axis, ok, reason in (
        (0, t >= 1, "sequence needs at least one frame"),
        (1, 1 <= m <= MAX_PERSONS, f"person count must be 1..{MAX_PERSONS}, got {m}"),
        (2, n >= 1, f"joint count must be positive, got {n}"),
        (3, d >= 1, f"coordinate count must be positive, got {d}"),
    ):
        if not ok:
            return axis, reason
    return None


@dataclass
class SkeletonSequence:
    data: np.ndarray          # (T, M, N, D) float32
    label: int
    layout_name: str
    sample_id: str

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4:
            raise ValueError(f"sequence data must be (T, M, N, D), got shape {self.data.shape}")
        problem = _shape_problem(self.data.shape)
        if problem is not None:
            raise ValueError(problem[1])
        if self.label < 0:
            raise ValueError(f"label must be nonnegative, got {self.label}")
        found = _first_non_finite(self.data)
        if found is not None:
            raise ValueError(f"sequence {self.sample_id!r}: {found[1]}")


def _first_non_finite(data):
    """Flat position and description of the first NaN or +-inf, or None."""
    finite = np.isfinite(data)
    if finite.all():
        return None
    bad = np.flatnonzero(~finite)
    where = tuple(int(i) for i in np.unravel_index(bad[0], data.shape))
    return int(bad[0]), f"non-finite coordinate {data[where]} at (t, m, n, d) {where}"


def _check_finite(path, seq):
    """Refuse to write a sequence that ``load_sequence`` would reject."""
    found = _first_non_finite(seq.data)
    if found is not None:
        raise ValueError(f"{path}: {found[1]}; nothing written")


def save_sequence(path, seq):
    _check_finite(path, seq)
    try:
        layout_bytes, id_bytes = [name.encode("utf-8")
                                  for name in (seq.layout_name, seq.sample_id)]
    except UnicodeEncodeError as exc:
        raise ValueError(f"{path}: {exc}; nothing written") from None
    t, m, n, d = seq.data.shape
    for field, value in (("label", seq.label), ("joint count", n), ("coordinate count", d),
                         ("layout name's UTF-8 length", len(layout_bytes)),
                         ("sample id's UTF-8 length", len(id_bytes))):
        if value > _U16_MAX:
            raise ValueError(f"{path}: {field} {value} is above {_U16_MAX}, the most the "
                             "binary header holds; nothing written")
    return write_file(path, _HEADER.pack(MAGIC, FORMAT_VERSION, seq.label, t, m, n, d),
                      struct.pack("<H", len(layout_bytes)), layout_bytes,
                      struct.pack("<H", len(id_bytes)), id_bytes,
                      np.ascontiguousarray(seq.data, dtype="<f4"))


def _parse_binary(raw, path):
    """Decode ``raw``, which ``load_sequence`` found to start with ``MAGIC``."""
    def fail(offset, message):
        raise ValueError(f"{path}: byte {offset}: {message}")

    if len(raw) < _HEADER.size:
        fail(0, f"truncated header ({len(raw)} bytes, need {_HEADER.size})")
    _, version, label, t, m, n, d = _HEADER.unpack_from(raw, 0)
    if version != FORMAT_VERSION:
        fail(4, f"unsupported version {version}")
    problem = _shape_problem((t, m, n, d))
    if problem is not None:
        fail(_SHAPE_OFFSETS[problem[0]], problem[1])
    offset = _HEADER.size
    strings = []
    for what in ("layout name", "sample id"):
        if offset + 2 > len(raw):
            fail(offset, f"truncated {what} length")
        (length,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        if offset + length > len(raw):
            fail(offset, f"truncated {what}")
        try:
            strings.append(raw[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            fail(offset, f"{what} is not UTF-8 ({exc.reason} at byte {offset + exc.start})")
        offset += length
    payload = t * m * n * d * 4
    if len(raw) - offset != payload:
        fail(offset, f"payload holds {len(raw) - offset} bytes, header promises {payload} "
                     f"({t}x{m}x{n}x{d} float32)")
    data = np.frombuffer(raw, dtype="<f4", count=t * m * n * d, offset=offset)
    data = data.reshape(t, m, n, d)
    found = _first_non_finite(data)
    if found is not None:
        fail(offset + 4 * found[0], found[1])
    data = data.astype(np.float32)
    return SkeletonSequence(data, label, strings[0], strings[1])


def format_sequence_text(seq):
    t, m, n, d = seq.data.shape
    lines = [
        f"format skelseq {FORMAT_VERSION}",
        f"layout {seq.layout_name}",
        f"id {seq.sample_id}",
        f"label {seq.label}",
        f"shape {t} {m} {n} {d}",
    ]
    for ti in range(t):
        for mi in range(m):
            lines.append(f"frame {ti} {mi}")
            for ni in range(n):
                lines.append(" ".join(repr(float(v)) for v in seq.data[ti, mi, ni]))
    return "\n".join(lines) + "\n"


def save_sequence_text(path, seq):
    _check_finite(path, seq)
    # the text reader takes each of these as one token, cut at a '#'
    for field, value in (("layout name", seq.layout_name), ("sample id", seq.sample_id)):
        if value.split() != [value] or "#" in value:
            raise ValueError(f"{path}: {field} {value!r} is empty or holds whitespace "
                             "or '#'; nothing written")
    return write_file(path, format_sequence_text(seq))


def parse_sequence_text(text, path="<text>"):
    """Parse the hand-writable sequence format.

    Header lines ``format/layout/id/label/shape`` (each but ``format`` at
    most once) come first, then one ``frame <t> <m>`` marker per (frame, person)
    pair followed by exactly N joint lines of D floats.  ``#`` starts a comment.
    """
    header = {}
    first_line = {}
    label = shape = None
    blocks = {}
    current = None
    expect_joints = 0

    def fail(lineno, message):
        raise ValueError(f"{path}: line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if shape is None:
            if key == "format":
                if tokens[1:] != ["skelseq", str(FORMAT_VERSION)]:
                    fail(lineno, f"unsupported format declaration {line!r}")
            elif key in ("layout", "id", "label"):
                if len(tokens) != 2:
                    fail(lineno, f"{key} takes one value")
                if key in first_line:
                    fail(lineno, f"repeated {key} record (first on line {first_line[key]})")
                first_line[key] = lineno
                if key != "label":
                    header[key] = tokens[1]
                else:
                    try:
                        label = int(tokens[1])
                    except ValueError:
                        fail(lineno, f"bad label {tokens[1]!r}")
                    if label < 0:
                        fail(lineno, f"label must be nonnegative, got {label}")
            elif key == "shape":
                if len(tokens) != 5:
                    fail(lineno, "shape takes T M N D")
                try:
                    shape = tuple(int(v) for v in tokens[1:])
                except ValueError:
                    fail(lineno, f"bad shape entries {tokens[1:]}")
                problem = _shape_problem(shape)
                if problem is not None:
                    fail(lineno, problem[1])
            else:
                fail(lineno, f"unexpected {key!r} before shape line")
            continue
        if key == "frame":
            if current is not None and expect_joints:
                fail(lineno, f"frame {current[0]} person {current[1]} has "
                             f"{shape[2] - expect_joints} joints, expected {shape[2]}")
            if len(tokens) != 3:
                fail(lineno, "frame takes <frame> <person>")
            try:
                current = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                fail(lineno, f"bad frame indices {tokens[1:]}")
            if not (0 <= current[0] < shape[0] and 0 <= current[1] < shape[1]):
                fail(lineno, f"frame {current[0]} person {current[1]} outside shape {shape}")
            if current in blocks:
                fail(lineno, f"duplicate frame {current[0]} person {current[1]}")
            blocks[current] = []
            expect_joints = shape[2]
        else:
            if current is None:
                fail(lineno, "joint values before any frame marker")
            if expect_joints == 0:
                fail(lineno, f"frame {current[0]} person {current[1]} has more than "
                             f"{shape[2]} joints")
            try:
                values = np.array([float(v) for v in tokens])
            except ValueError:
                fail(lineno, f"bad float in {line!r}")
            if len(values) != shape[3]:
                fail(lineno, f"joint line has {len(values)} coordinates, expected {shape[3]}")
            with np.errstate(over="ignore"):
                values = values.astype(np.float32)
            if not np.isfinite(values).all():
                fail(lineno, f"non-finite coordinate (as float32) in {line!r}")
            blocks[current].append(values)
            expect_joints -= 1

    if shape is None:
        raise ValueError(f"{path}: missing shape line")
    if current is not None and expect_joints:
        raise ValueError(
            f"{path}: frame {current[0]} person {current[1]} has "
            f"{shape[2] - expect_joints} joints, expected {shape[2]}"
        )
    if label is None:
        raise ValueError(f"{path}: missing label")
    t, m, n, d = shape
    missing = t * m - len(blocks)   # blocks holds distinct in-range pairs
    if missing:
        # walks at most len(blocks) + 4 pairs, however large the declared shape
        gaps = []
        for i in range(t * m):
            pair = divmod(i, m)
            if pair not in blocks:
                gaps.append(pair)
                if len(gaps) == 4:
                    break
        raise ValueError(f"{path}: missing frame blocks {gaps}" + (" ..." if missing > 4 else "")
                         + f" ({missing} of {t * m} missing)")
    data = np.empty((t, m, n, d), dtype=np.float32)
    for (ti, mi), rows in blocks.items():
        data[ti, mi] = rows
    return SkeletonSequence(data, label, header.get("layout", ""), header.get("id", ""))


def load_sequence(path):
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] == MAGIC:
        return _parse_binary(raw, path)
    text = decode_utf8(raw, f"{path}: neither binary magic nor readable text")
    return parse_sequence_text(text, path=str(path))


# -- transforms ---------------------------------------------------------


def resize_sequence(data, t_target):
    """``data`` interpolated linearly onto ``t_target`` frames; itself if T is ``t_target``."""
    t = len(data)
    if t == t_target:
        return data
    positions = np.linspace(0.0, t - 1, t_target)
    lo = np.floor(positions).astype(int)
    hi = np.minimum(lo + 1, t - 1)
    w = (positions - lo).reshape(-1, 1, 1, 1)
    return (data[lo] * (1.0 - w) + data[hi] * w).astype(np.float32)


def normalize_coords(data, layout):
    """A new (T, M, N, D) array: ``data`` shifted so the first person's
    first-frame center joint sits at the origin.  The confidence channel,
    if the layout declares one, is left untouched."""
    center = data[0, 0, layout.center_joint].copy()
    if layout.score_channel is not None:
        center[layout.score_channel] = 0.0
    return data - center


# -- manifests ----------------------------------------------------------


@dataclass
class DatasetManifest:
    entries: list               # (relative path, label)
    class_names: list
    layout_name: str
    split: str
    root: Path = field(default_factory=Path)

    def __post_init__(self):
        self.root = Path(self.root)
        for rel, label in self.entries:
            if not 0 <= label < len(self.class_names):
                raise ValueError(
                    f"entry {rel!r} has label {label}, class table holds "
                    f"{len(self.class_names)} names"
                )

    def __len__(self):
        return len(self.entries)

    def resolve(self, rel):
        return self.root / rel


def save_manifest(path, manifest):
    """Write ``manifest`` as ``load_manifest`` reads it; refuses, before
    writing anything, what would not read back as it is."""
    for i, name in enumerate(manifest.class_names):
        if name.split() != [name]:
            raise ValueError(f"{path}: class {i} name {name!r} is empty or holds whitespace; "
                             "nothing written")
    for field, value in (("layout name", manifest.layout_name), ("split", manifest.split)):
        if value and value.split() != [value]:
            raise ValueError(f"{path}: {field} {value!r} holds whitespace; nothing written")
    for i, (rel, _) in enumerate(manifest.entries):
        # the reader strips each line, skips it after a '#' and cuts it at its tab
        rel = str(rel)
        if rel.splitlines() != [rel] or rel != rel.lstrip() or rel[0] == "#" or "\t" in rel:
            raise ValueError(f"{path}: entry {i} path {rel!r} is empty, starts with whitespace "
                             "or '#', or holds a tab or a line break; nothing written")
    lines = ["# skeleton dataset manifest",
             f"# layout {manifest.layout_name}",
             f"# split {manifest.split}"]
    for i, name in enumerate(manifest.class_names):
        lines.append(f"# class {i} {name}")
    for rel, label in manifest.entries:
        lines.append(f"{rel}\t{label}")
    return write_file(path, "\n".join(lines) + "\n")


def load_manifest(path):
    path = Path(path)
    header = {"layout": (None, ""), "split": (None, "")}   # record -> (line, value)
    class_names = {}
    entries = []
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if tokens[:1] in (["layout"], ["split"]) and len(tokens) == 2:
                first = header[tokens[0]][0]
                if first is not None:
                    raise ValueError(f"{path}: line {lineno}: repeated {tokens[0]} record "
                                     f"(first on line {first})")
                header[tokens[0]] = (lineno, tokens[1])
            elif tokens[:1] == ["class"]:
                if len(tokens) != 3:
                    raise ValueError(f"{path}: line {lineno}: class line takes an index and "
                                     f"one name without whitespace, got {line!r}")
                index = int(tokens[1]) if tokens[1].isdecimal() else None
                if index is None or index in class_names:
                    what = "bad" if index is None else "duplicate"
                    raise ValueError(f"{path}: line {lineno}: {what} class index {tokens[1]!r}")
                class_names[index] = (lineno, tokens[2])
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'path<TAB>label', got {line!r}")
        try:
            entries.append((lineno, parts[0], int(parts[1])))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad label {parts[1]!r}") from None
    for index, (lineno, _) in class_names.items():
        if index >= len(class_names):
            raise ValueError(f"{path}: line {lineno}: class index {index} leaves a gap in "
                             f"0..{len(class_names) - 1}")
    for lineno, _, label in entries:
        if not 0 <= label < len(class_names):
            raise ValueError(f"{path}: line {lineno}: label {label} outside the class table "
                             f"({len(class_names)} names)")
    names = [class_names[i][1] for i in range(len(class_names))]
    entries = [(rel, label) for _, rel, label in entries]
    return DatasetManifest(entries, names, header["layout"][1], header["split"][1],
                           root=path.parent)


# -- synthetic motion ---------------------------------------------------

# Peak displacement of a moving joint along its direction.
SYNTH_AMPLITUDE = 0.5


@dataclass
class SynthSpec:
    n_classes: int = 5
    samples_per_class: int = 40
    test_per_class: int = 20
    layout: str = "ntu25"
    frames: int = 32
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        refuse_non_finite(self)
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.n_classes > _U16_MAX + 1:
            raise ValueError(f"n_classes={self.n_classes} is above {_U16_MAX + 1}: a binary "
                             f"sequence's label is at most {_U16_MAX}")
        if self.samples_per_class < 1 or self.test_per_class < 0:
            raise ValueError("sample counts must be positive")
        if self.frames < 2:
            raise ValueError("need at least two frames")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")


def _class_programs(spec, layout, rng):
    """Each class moves its own joint subset at its own frequency/phase."""
    n = layout.n_joints
    subset_size = max(2, n // spec.n_classes)
    order = rng.permutation(n)
    programs = []
    for c in range(spec.n_classes):
        start = (c * subset_size) % n
        idx = np.sort(order[start : start + subset_size])
        if len(idx) < subset_size:  # wrap when classes exceed the joint budget
            idx = np.sort(np.concatenate([idx, order[: subset_size - len(idx)]]))
        directions = rng.standard_normal((subset_size, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        programs.append({
            "joints": idx,
            "directions": directions,
            "frequency": 2.0 + c,
            "phase": rng.uniform(0.0, 2.0 * np.pi),
        })
    return programs


def _synth_sample(spec, rest, program, sample_rng):
    t, n = spec.frames, rest.shape[0]
    phase_offset = sample_rng.uniform(0.0, 2.0 * np.pi)
    data = np.broadcast_to(rest, (t, n, 3)).copy()
    angles = (2.0 * np.pi * program["frequency"] * np.arange(t) / t
              + program["phase"] + phase_offset)
    wave = SYNTH_AMPLITUDE * np.sin(angles)                      # (T,)
    motion = wave[:, None, None] * program["directions"][None]   # (T, S, 3)
    data[:, program["joints"], :] += motion
    if spec.noise_sigma > 0:
        data += sample_rng.normal(0.0, spec.noise_sigma, data.shape)
    return data[:, None, :, :].astype(np.float32)                # (T, 1, N, 3)


def synth_generate(out_dir, spec):
    """Write a fully seeded synthetic dataset; returns (train, test) manifests.

    A shared rest pose plus per-class kinematic programs: each class
    oscillates its own subset of joints at a class-specific frequency
    and phase, so classes are told apart by which joints move together.
    Per-sample randomness (phase offset, coordinate noise) comes from a
    seed derived as (seed, split, class, index), making every file
    reproducible in isolation.
    """
    out_dir = Path(out_dir)
    layout = build_layout(spec.layout)
    master = np.random.default_rng(spec.seed)
    rest = master.uniform(-1.0, 1.0, (layout.n_joints, 3))
    programs = _class_programs(spec, layout, master)
    class_names = [f"pattern{c}" for c in range(spec.n_classes)]

    manifests = []
    splits = (("train", spec.samples_per_class), ("test", spec.test_per_class))
    for split_idx, (split, per_class) in enumerate(splits):
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        entries = []
        for c in range(spec.n_classes):
            for i in range(per_class):
                sample_rng = np.random.default_rng((spec.seed, split_idx, c, i))
                data = _synth_sample(spec, rest, programs[c], sample_rng)
                sample_id = f"{split}-c{c}-{i:03d}"
                seq = SkeletonSequence(data, c, layout.name, sample_id)
                rel = f"{split}/{sample_id}.skl"
                save_sequence(out_dir / rel, seq)
                entries.append((rel, c))
        manifest = DatasetManifest(entries, class_names, layout.name, split, root=out_dir)
        save_manifest(out_dir / f"{split}.manifest", manifest)
        manifests.append(manifest)
    return tuple(manifests)
