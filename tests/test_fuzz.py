"""Property tests of the binary sequence reader: round trips and corrupted files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngcn.data import SkeletonSequence, load_sequence, save_sequence

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
