#!/usr/bin/env python3
"""Analytic cost accounting: where the multiply-adds go.

Walks the full-size model symbolically (no arrays are allocated) and
prints a per-layer FLOP budget, then compares the model with and
without topology learners. Convention: one multiply-accumulate counts
as two FLOPs; cheap elementwise work is tallied separately and kept
out of the headline number.
"""

from dataclasses import replace

from dyngcn.flops import count_learner_flops, count_model_flops, overhead_report
from dyngcn.model import ModelConfig

config = ModelConfig(layout="ntu25", n_classes=60)
report = count_model_flops(config, include_cen=True)

print(f"{report.label}: {report.total:,} FLOPs "
      f"(+ {report.minor_ops:,} minor elementwise ops)\n")

# Group the per-layer rows by block for a readable budget.
by_block = {}
for layer in report.entries:
    key = layer.name.split(".")[0]
    by_block[key] = by_block.get(key, 0) + layer.flops
width = max(len(k) for k in by_block)
for key, flops in by_block.items():
    share = 100.0 * flops / report.total
    print(f"  {key:{width}s}  {flops:14,}  {share:5.1f}%")

# The learners are cheap relative to the static graph convolutions.
without = count_model_flops(config, include_cen=False)
delta = overhead_report(without, report)
extra = delta.other_total - delta.base_total
print(f"\nstatic-only total {without.total:,}")
print(f"learner overhead  {extra:,} FLOPs ({delta.ratio:+.2%})")

# Single learner costs, standalone, for the first block's geometry:
for kind in ("context", "context-feature", "context-temporal", "nonlocal"):
    flops = count_learner_flops(kind, channels=64, frames=64, joints=25)
    print(f"  {kind:17s} learner at (C=64, T=64, N=25): {flops:12,} FLOPs")

# The paper's efficiency claim, priced by the same cost model. Everything
# but the schedule is held equal: 64 frames, the preset's widths, one
# person, one stream. The "-like" schedules are this package's
# configurations, not the published models (the non-local learner is an
# embedded-Gaussian graph, not 2s-AGCN's full adaptive graph).
schedules = (
    ("Dynamic GCN (CeN, joint aggregation)", config, True),
    ("Dynamic GCN without joint aggregation", replace(config, aggregate_after=()), True),
    ("ST-GCN-like (no learner, no aggregation)",
     replace(config, topology="none", aggregate_after=()), False),
    ("2s-AGCN-like (non-local, no aggregation)",
     replace(config, topology="nonlocal", aggregate_after=()), True),
)
print("\nGFLOP per stream at equal input (64 frames, one person):")
for name, schedule, include_cen in schedules:
    total = count_model_flops(schedule, include_cen=include_cen).total
    print(f"  {name:41s} {total / 1e9:6.3f}  {total / report.total:5.2f}x")
