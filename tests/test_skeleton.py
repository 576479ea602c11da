import re

import numpy as np
import pytest

from dyngcn.skeleton import (
    SkeletonLayout,
    TopologySet,
    build_layout,
    normalize_adjacency,
    parse_layout,
    partition_spatial_configs,
    read_utf8,
    write_file,
)


def chain3():
    return SkeletonLayout(
        name="chain3",
        n_joints=3,
        edges=((0, 1), (1, 2)),
        center_joint=1,
        bone_pairs=((1, 0), (1, 2)),
    )


def test_builtin_ntu25():
    layout = build_layout("ntu25")
    assert layout.n_joints == 25
    assert len(layout.edges) == 24
    assert layout.center_joint == 1
    assert layout.score_channel is None
    assert len(layout.bone_pairs) == 24
    # the physical graph is a tree: edges = joints - 1 and connected
    dist = layout.hop_distances()
    assert (dist >= 0).all()


def test_builtin_openpose18():
    layout = build_layout("openpose18")
    assert layout.n_joints == 18
    assert len(layout.edges) == 17
    assert layout.center_joint == 1
    assert layout.score_channel == 2


def test_unknown_layout_name():
    with pytest.raises(ValueError, match="unknown layout"):
        build_layout("bogus99")


def test_layout_file_round_trip(tmp_path):
    path = tmp_path / "tiny.layout"
    path.write_text("joints 2\ncenter 0\nedge 0 1\nbone 0 1\n")
    layout = build_layout(str(path))
    assert layout.name == "tiny"
    assert layout.n_joints == 2


def test_parse_layout_errors_name_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_layout("joints 2\ncenter 0\nedge 0 x\nbone 0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_layout("joints 2\nwhatever 1 2 3\n")
    # int() quotes the bad token in its message; what the token spells must not matter
    with pytest.raises(ValueError, match="^line 3: malformed record 'edge 0 unrecognized'$"):
        parse_layout("joints 2\ncenter 0\nedge 0 unrecognized\nbone 0 1\n")


@pytest.mark.parametrize("record, first", [("name b", 1), ("joints 3", 2), ("center 1", 3),
                                           ("score_channel 0", 4)])
def test_parse_layout_refuses_a_repeated_record(record, first):
    # a second record used to win silently; edge and bone records add up
    text = "name a\njoints 2\ncenter 0\nscore_channel 2\nedge 0 1\nbone 0 1\n"
    key = record.split()[0]
    with pytest.raises(ValueError, match=rf"^line 7: repeated {key} record "
                                         rf"\(first on line {first}\)$"):
        parse_layout(text + record + "\n")


@pytest.mark.parametrize("text, message", [
    ("joints 2\ncenter 0\nbone 0 1\nedge 1 x\n", "line 4: malformed record 'edge 1 x'"),
    ("joints 3\ncenter 0\nedge 0 1\nbone 0 1\nbone 0 2\n", "edge list is not connected"),
    ("joints 2\ncenter 7\nedge 0 1\nbone 0 1\n", "center joint 7 out of range"),
    ("joints 99999999999\ncenter 0\nedge 0 1\nbone 0 1\n",
     "1 bone pairs for 99999999999 joints, expected 99999999998"),
    ("joints 2\ncenter 0\nedge 0 1\nbone 0 1\nscore_channel -1\n",
     "score channel -1 is negative"),
    ("joints 0\ncenter 0\n", "layout 'bad2': needs at least one joint"),
    ("joints 2\ncenter 0\nscore_channel 2\nedge 0 1\nbone 0 1\nscore_channel 0\n",
     "line 6: repeated score_channel record (first on line 3)"),
], ids=["junk edge", "disconnected", "center", "huge joint count", "negative score channel",
        "no joints", "second score channel"])
def test_layout_file_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad2.layout"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        build_layout(str(path))
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_layout_validation():
    with pytest.raises(ValueError, match="not connected"):
        SkeletonLayout("bad", 3, ((0, 1),), 0, ((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="center"):
        SkeletonLayout("bad", 2, ((0, 1),), 5, ((0, 1),))
    with pytest.raises(ValueError, match="self loop"):
        SkeletonLayout("bad", 2, ((0, 0),), 0, ((0, 1),))
    with pytest.raises(ValueError, match="bone targets"):
        SkeletonLayout("bad", 3, ((0, 1), (1, 2)), 1, ((1, 0), (1, 0)))


def test_single_joint_layout():
    layout = SkeletonLayout("dot", 1, (), 0, ())
    configs = partition_spatial_configs(layout)
    assert np.array_equal(configs[0], [[1.0]])
    assert configs[1:].sum() == 0.0


def test_partition_chain_hand_enumerated():
    configs = partition_spatial_configs(chain3())
    assert np.array_equal(configs[0], np.eye(3))
    centripetal = np.zeros((3, 3))
    centripetal[0, 1] = 1.0
    centripetal[2, 1] = 1.0
    centrifugal = np.zeros((3, 3))
    centrifugal[1, 0] = 1.0
    centrifugal[1, 2] = 1.0
    assert np.array_equal(configs[1], centripetal)
    assert np.array_equal(configs[2], centrifugal)


def adjacency(layout):
    """Symmetric physical adjacency of the layout's edges, without self loops."""
    a = np.zeros((layout.n_joints, layout.n_joints))
    for i, j in layout.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def test_partition_star_sums_to_identity_plus_adjacency():
    star = SkeletonLayout(
        "star5", 5, ((0, 1), (0, 2), (0, 3), (0, 4)), 0,
        ((0, 1), (0, 2), (0, 3), (0, 4)),
    )
    configs = partition_spatial_configs(star)
    assert np.array_equal(configs.sum(axis=0), np.eye(5) + adjacency(star))
    # every directed edge position appears exactly once across configs 2 and 3
    assert np.array_equal(configs[1] + configs[2], adjacency(star))


def test_partition_tie_break_goes_centripetal():
    triangle = SkeletonLayout(
        "tri", 3, ((0, 1), (1, 2), (2, 0)), 0, ((0, 1), (0, 2)),
    )
    configs = partition_spatial_configs(triangle)
    # joints 1 and 2 are both one hop from the center: their shared edge
    # contributes both directions to the centripetal matrix
    assert configs[1][1, 2] == 1.0 and configs[1][2, 1] == 1.0
    assert configs[2][1, 2] == 0.0 and configs[2][2, 1] == 0.0
    assert np.array_equal(configs.sum(axis=0), np.eye(3) + adjacency(triangle))


@pytest.mark.parametrize("layout_name", ["ntu25", "openpose18"])
def test_partition_builtin_covers_adjacency(layout_name):
    layout = build_layout(layout_name)
    configs = partition_spatial_configs(layout)
    assert np.array_equal(configs[0], np.eye(layout.n_joints))
    assert np.array_equal(configs[1] + configs[2], adjacency(layout))


def dense_normalize_oracle(a, alpha):
    d = np.diag((a.sum(axis=1) + alpha) ** -0.5)
    return d @ a @ d


@pytest.mark.parametrize("seed", range(5))
def test_normalize_adjacency_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    a = rng.uniform(0, 1, (n, n))
    a[rng.uniform(size=n) < 0.3] = 0.0  # include all-zero rows
    out = normalize_adjacency(a, 0.001)
    assert np.abs(out - dense_normalize_oracle(a, 0.001)).max() < 1e-12


def test_normalize_adjacency_two_joint_value():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = normalize_adjacency(a, 0.001)
    assert np.isclose(out[0, 1], 1.0 / 1.001)
    assert out[0, 0] == 0.0


def test_normalize_adjacency_symmetry_preserved():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, (6, 6))
    a = a + a.T
    out = normalize_adjacency(a, 0.001)
    assert np.abs(out - out.T).max() < 1e-12


def test_normalize_adjacency_finite_with_zero_rows():
    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    out = normalize_adjacency(a, 0.001)
    assert np.isfinite(out).all()


def test_topology_set_masks_start_at_zero():
    topo = TopologySet.from_layout(chain3(), 0.001)
    assert np.array_equal(topo.static_topology().data, topo.configs)


def test_topology_set_mask_is_additive():
    topo = TopologySet.from_layout(chain3(), 0.001)
    before = topo.static_topology().data[1].copy()
    topo.mask[1].data[0, 2] += 0.25
    after = topo.static_topology().data[1]
    delta = after - before
    assert np.isclose(delta[0, 2], 0.25)
    delta[0, 2] = 0.0
    assert np.abs(delta).max() == 0.0


def test_topology_set_configs_frozen():
    topo = TopologySet.from_layout(chain3(), 0.001)
    before = topo.configs.tobytes()
    with pytest.raises(ValueError):
        topo.configs[0, 0, 0] = 5.0
    topo.mask[0].data += 1.0
    assert topo.configs.tobytes() == before


def test_topology_set_self_loops_only():
    topo = TopologySet.self_loops_only(4, 0.001)
    assert topo.n_configs == 3 and topo.configs.shape[1] == 4
    graphs = topo.static_topology().data
    assert np.allclose(np.diag(graphs[0]), 1.0 / 1.001, atol=1e-6)
    assert graphs[1].sum() == 0.0


# -- file writer --------------------------------------------------------


def test_write_file_writes_str_as_utf8_and_bytes_as_they_are(tmp_path):
    target = tmp_path / "mixed.bin"
    assert write_file(str(target), "caf\u00e9\n", b"\x00\xff", bytearray(b"ok")) == target
    assert target.read_bytes() == b"caf\xc3\xa9\n\x00\xffok"
    assert write_file(target) == target and target.read_bytes() == b""


def test_write_file_encodes_every_chunk_before_opening(tmp_path):
    target = tmp_path / "kept.txt"
    write_file(target, "old\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(target))}: .*surrogates not allowed; "
                                         "nothing written$"):
        write_file(target, "new\n", "bad \udcff")
    assert read_utf8(target) == "old\n"
    with pytest.raises(ValueError, match="nothing written"):
        write_file(tmp_path / "fresh.txt", "\ud800")
    assert not (tmp_path / "fresh.txt").exists()
