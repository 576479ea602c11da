"""Property tests of the binary readers (sequences and checkpoints): round
trips and corrupted files."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngcn.checkpoint import HEADER_OFFSET, load_checkpoint, read_checkpoint_header, save_checkpoint
from dyngcn.config import model_preset
from dyngcn.data import SkeletonSequence, load_sequence, save_sequence
from dyngcn.model import build_model
from dyngcn.topology import LEARNERS

FUZZ = settings(max_examples=150, deadline=None)

# Short names, including multi-byte UTF-8, so bit flips land in string bytes too.
names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6)


@st.composite
def sequences(draw):
    t = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=t * m * n * d, max_size=t * m * n * d))
    data = np.array(values, dtype=np.float32).reshape(t, m, n, d)
    return SkeletonSequence(data, draw(st.integers(0, 65535)), draw(names), draw(names))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


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
    back = load_sequence(save_sequence(work / "rt.skl", seq))
    assert back.data.tobytes() == seq.data.tobytes()
    assert (back.label, back.layout_name, back.sample_id) == (
        seq.label, seq.layout_name, seq.sample_id)


@FUZZ
@given(seq=sequences(), data=st.data())
def test_truncated_binary_loads_or_names_file(work, seq, data):
    raw = save_sequence(work / "cut.skl", seq).read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    (work / "cut.skl").write_bytes(raw[:cut])
    loads_or_names_file(work / "cut.skl")


@FUZZ
@given(seq=sequences(), data=st.data())
def test_bit_flip_in_header_or_strings_loads_or_names_file(work, seq, data):
    raw = bytearray(save_sequence(work / "flip.skl", seq).read_bytes())
    bit = data.draw(st.integers(0, 8 * string_end(seq) - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    (work / "flip.skl").write_bytes(bytes(raw))
    loads_or_names_file(work / "flip.skl")


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
    back, meta = load_checkpoint(save_checkpoint(work / "rt.ckpt", model, {"seed": seed}))
    assert meta == {"seed": seed}
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
    (work / "cut.ckpt").write_bytes(raw[:cut])
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
    (work / "flip.ckpt").write_bytes(bytes(raw))
    loads_or_names_file_and_offset(work / "flip.ckpt")
