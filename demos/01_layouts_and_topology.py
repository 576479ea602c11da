#!/usr/bin/env python3
"""Skeleton layouts and the three-way static topology.

Every model starts from a named layout: joints, physical edges, and a
center joint. The layout expands into three normalized adjacency
matrices (self links, edges toward the center, edges away from it),
and each matrix gets a learnable additive mask.
"""

import numpy as np

from dyngcn.skeleton import build_layout, normalize_adjacency, partition_spatial_configs, TopologySet

layout = build_layout("ntu25")
print(f"layout {layout.name}: {layout.n_joints} joints, "
      f"{len(layout.edges)} edges, center joint {layout.center_joint}")

# The partition splits neighbors by their distance to the center joint.
parts = partition_spatial_configs(layout)
for name, mat in zip(("identity", "centripetal", "centrifugal"), parts):
    print(f"  {name:12s} nonzeros {int((mat != 0).sum()):3d}")

# Degree normalization keeps repeated graph multiplications from
# blowing up the activation scale: entries are scaled by 1/sqrt(degree)
# on both sides. High-degree joints (like the spine) shrink the most.
a = parts[1] + parts[2]
norm = normalize_adjacency(a, alpha_degree=0.001)
degrees = a.sum(axis=1)
busiest = int(degrees.argmax())
print(f"joint {busiest} has degree {degrees[busiest]:.0f}; its largest raw entry 1.0 "
      f"normalizes to {norm[busiest].max():.3f}")

# TopologySet bundles the three normalized matrices with their masks.
# Masks start at zero, so a freshly built set reproduces the static
# graphs exactly; training moves the masks away from zero.
topo = TopologySet.from_layout(layout, alpha_degree=0.001)
graphs = topo.static_topology().data
print(f"fresh mask zero: {np.array_equal(graphs, topo.configs)}")

topo.mask[1].data[3, 5] = 0.25
g1 = topo.static_topology().data[1]
print(f"after editing mask[1][3,5]: topology changed by "
      f"{np.abs(g1 - topo.configs[1]).max():.2f} at one entry")
