"""Skeleton graph layouts and their spatial partitioning.

A layout names the joints of a skeleton: how many there are, which pairs
are physically connected, which joint is the body center, and the
directed source -> target pairs that define bone vectors.  Two layouts
ship with the package (``ntu25`` and ``openpose18``); arbitrary layouts
load from text files with the same record grammar (see ``parse_layout``).

The three spatial configurations follow the distance-partition rule:
self connections, links toward the center (centripetal), and links away
from it (centrifugal), with equal-distance neighbors assigned to the
centripetal set.  A matrix entry (i -> j) is stored at row i, column j,
and a graph product aggregates features of j into position i.

This module also holds the package's file I/O edge: ``write_file`` writes
every file the package makes, and ``read_utf8``/``decode_utf8`` decode every
text it reads, so text is UTF-8 on disk whatever the locale.
"""

from __future__ import annotations

import importlib.resources
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .layers import Module, Parameter
from .tensor import Tensor, add, concat, reshape

# Spatial configurations per graph: self links, centripetal, centrifugal.
N_SPATIAL_CONFIGS = 3


@dataclass(frozen=True)
class SkeletonLayout:
    name: str
    n_joints: int
    edges: tuple
    center_joint: int
    bone_pairs: tuple
    score_channel: int | None = None

    def __post_init__(self):
        n = self.n_joints
        if n < 1:
            raise ValueError(f"layout {self.name!r}: needs at least one joint")
        if len(self.bone_pairs) != n - 1:
            # checked first: n sizes the arrays built below
            raise ValueError(
                f"layout {self.name!r}: {len(self.bone_pairs)} bone pairs for {n} joints, "
                f"expected {n - 1}"
            )
        if self.score_channel is not None and self.score_channel < 0:
            raise ValueError(f"layout {self.name!r}: score channel {self.score_channel} "
                             f"is negative")
        if not 0 <= self.center_joint < n:
            raise ValueError(
                f"layout {self.name!r}: center joint {self.center_joint} out of range"
            )
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"layout {self.name!r}: edge ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"layout {self.name!r}: self loop at joint {i}")
        if len({frozenset(e) for e in self.edges}) != len(self.edges):
            raise ValueError(f"layout {self.name!r}: duplicate edge")
        if not (self.hop_distances() >= 0).all():
            raise ValueError(f"layout {self.name!r}: edge list is not connected")
        targets = [t for _, t in self.bone_pairs]
        expected = sorted(set(range(n)) - {self.center_joint})
        if sorted(targets) != expected:
            raise ValueError(
                f"layout {self.name!r}: bone targets must cover every "
                f"non-center joint exactly once"
            )
        for s, t in self.bone_pairs:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"layout {self.name!r}: bone ({s}, {t}) out of range")

    def hop_distances(self):
        """Shortest path length from every joint to the center joint."""
        dist = np.full(self.n_joints, -1, dtype=np.int64)
        dist[self.center_joint] = 0
        adj = [[] for _ in range(self.n_joints)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        queue = deque([self.center_joint])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


# Record keyword -> argument count.
_RECORD_ARITY = {"name": 1, "joints": 1, "center": 1, "score_channel": 1, "edge": 2, "bone": 2}


def parse_layout(text, name="layout"):
    """Parse the layout record grammar.

    One record per line; ``#`` starts a comment.  Records, each but ``edge``
    and ``bone`` at most once:

      name <str>            optional, overrides the default name
      joints <int>          required, joint count
      center <int>          required, center joint index
      score_channel <int>   optional, confidence channel position
      edge <i> <j>          undirected physical edge
      bone <source> <target> directed bone pair
    """
    found = {"name": name, "joints": None, "center": None, "score_channel": None,
             "edge": [], "bone": []}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        if _RECORD_ARITY.get(key) != len(args):
            raise ValueError(f"line {lineno}: unrecognized record {raw.strip()!r}")
        try:
            values = args if key == "name" else tuple(int(a) for a in args)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed record {raw.strip()!r}") from None
        if key in ("edge", "bone"):
            found[key].append(values)
        elif key in first_line:
            raise ValueError(f"line {lineno}: repeated {key} record "
                             f"(first on line {first_line[key]})")
        else:
            first_line[key] = lineno
            found[key] = values[0]
    if found["joints"] is None or found["center"] is None:
        raise ValueError("layout file must declare joints and center")
    return SkeletonLayout(
        name=found["name"],
        n_joints=found["joints"],
        edges=tuple(found["edge"]),
        center_joint=found["center"],
        bone_pairs=tuple(found["bone"]),
        score_channel=found["score_channel"],
    )


BUILTIN_LAYOUTS = ("ntu25", "openpose18")


def decode_utf8(raw, source):
    """``raw`` decoded as UTF-8.  Bytes that are not UTF-8 raise a ValueError
    that starts with ``source`` and gives the offset and value of the first
    bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: byte offset {exc.start}: byte 0x{raw[exc.start]:02x} "
                         f"is not UTF-8 text") from None


def read_utf8(path):
    """The text of ``path``, decoded as UTF-8 by ``decode_utf8``; an error
    names the file."""
    return decode_utf8(Path(path).read_bytes(), path)


def write_file(path, *chunks):
    """Write ``chunks`` to ``path`` and return ``Path(path)``: a str as UTF-8,
    any bytes-like chunk as it is.  All are encoded before the file is
    opened, so a str that is not UTF-8 text leaves no file."""
    path = Path(path)
    try:
        chunks = [c.encode("utf-8") if isinstance(c, str) else c for c in chunks]
    except UnicodeEncodeError as exc:
        raise ValueError(f"{path}: {exc}; nothing written") from None
    with open(path, "wb") as fh:
        fh.writelines(chunks)
    return path


def build_layout(name_or_path):
    """Load a built-in layout by name, or any layout file by path."""
    if name_or_path in BUILTIN_LAYOUTS:
        resource = importlib.resources.files("dyngcn") / "layouts" / f"{name_or_path}.layout"
        return parse_layout(decode_utf8(resource.read_bytes(), resource), name=name_or_path)
    path = Path(name_or_path)
    if path.is_file():
        text = read_utf8(path)
        try:
            return parse_layout(text, name=path.stem)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    raise ValueError(
        f"unknown layout {name_or_path!r}: not one of {BUILTIN_LAYOUTS} and not a file"
    )


def partition_spatial_configs(layout):
    """Split the skeleton graph into K=N_SPATIAL_CONFIGS matrices.

    Returns an array of shape (K, N, N): identity, centripetal links, and
    centrifugal links.  For each physical edge {i, j}, the directed entry
    (i -> j) lands in the centripetal matrix when j is closer to the
    center than i, in the centrifugal matrix when farther, and ties put
    both directions in the centripetal matrix.
    """
    n = layout.n_joints
    dist = layout.hop_distances()
    configs = np.zeros((N_SPATIAL_CONFIGS, n, n))
    configs[0] = np.eye(n)
    for i, j in layout.edges:
        for a, b in ((i, j), (j, i)):
            if dist[b] <= dist[a]:
                configs[1][a, b] = 1.0
            else:
                configs[2][a, b] = 1.0
    return configs


def normalize_adjacency(adjacency, alpha_degree):
    """Symmetric degree normalization with a degree offset.

    Given a nonnegative matrix A, the degree of node i is the i-th row
    sum plus ``alpha_degree``; the result is D^-1/2 A D^-1/2.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    degrees = a.sum(axis=1) + alpha_degree
    inv_sqrt = degrees ** -0.5
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


class TopologySet(Module):
    """Frozen normalized configuration matrices plus learnable masks.

    ``configs`` holds the K degree-normalized spatial configurations and
    is read-only after construction.  ``mask`` holds K zero-initialized
    additive matrices that training is free to adjust; the combined
    static topology for branch k is ``configs[k] + mask[k]``.
    """

    def __init__(self, raw_configs, alpha_degree, dtype=np.float32):
        super().__init__()
        raw = np.asarray(raw_configs, dtype=np.float64)
        normalized = np.stack(
            [normalize_adjacency(raw[k], alpha_degree) for k in range(raw.shape[0])]
        ).astype(dtype)
        normalized.flags.writeable = False
        self.configs = normalized
        self.mask = [Parameter(np.zeros(raw.shape[1:], dtype=dtype))
                     for _ in range(raw.shape[0])]

    @classmethod
    def from_layout(cls, layout, alpha_degree, dtype=np.float32):
        return cls(partition_spatial_configs(layout), alpha_degree, dtype)

    @classmethod
    def self_loops_only(cls, n_joints, alpha_degree, dtype=np.float32):
        """Degenerate set for graphs with no physical edges.

        Used after joint aggregation, where the projected joints have no
        defined physical connectivity: the first configuration is the
        identity and the rest start empty, leaving structure to the masks.
        """
        raw = np.zeros((N_SPATIAL_CONFIGS, n_joints, n_joints))
        raw[0] = np.eye(n_joints)
        return cls(raw, alpha_degree, dtype)

    @property
    def n_configs(self):
        return self.configs.shape[0]

    def static_topology(self):
        """All K combined static graphs ``configs[k] + mask[k]`` as one
        (K, N, N) tensor; graph k is ``static_topology().data[k]``."""
        masks = concat(self.mask, axis=0)   # (K * N, N)
        return add(Tensor(self.configs), reshape(masks, self.configs.shape))
