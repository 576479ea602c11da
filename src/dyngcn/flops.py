"""Closed-form cost accounting for the graph-conv classifier.

Counts are analytical: pure functions of shapes, independent of data and
parameter values.  The convention is FLOPs = 2 x multiply-adds, per
body for the blocks and per sample for the classifier, which runs after
the person average.  Element-wise work (batch norm, ReLU, pooling, row
normalization, bias adds) is tallied separately as ``minor_ops`` -- one
count per output element -- and never enters the headline total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .skeleton import N_SPATIAL_CONFIGS, build_layout
from .topology import LEARNERS, context_stages, nonlocal_width


@dataclass(frozen=True)
class LayerCost:
    name: str
    in_shape: tuple
    out_shape: tuple
    flops: int


@dataclass
class CostReport:
    label: str
    entries: list = field(default_factory=list)
    minor_ops: int = 0

    @property
    def total(self):
        return sum(entry.flops for entry in self.entries)

    def add(self, name, in_shape, out_shape, flops):
        self.entries.append(LayerCost(name, tuple(in_shape), tuple(out_shape), int(flops)))

    def as_text(self):
        rows = [(e.name, _fmt_shape(e.in_shape), _fmt_shape(e.out_shape), f"{e.flops:,}")
                for e in self.entries]
        rows.append(("total", "", "", f"{self.total:,}"))
        rows.append(("minor ops (excluded)", "", "", f"{self.minor_ops:,}"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        header = f"cost report: {self.label}"
        lines = [header, "-" * len(header)]
        for name, i, o, f_ in rows:
            lines.append(f"{name:<{widths[0]}}  {i:>{widths[1]}}  {o:>{widths[2]}}  {f_:>{widths[3]}}")
        return "\n".join(lines)

    def as_kv(self):
        lines = [f"label={self.label}", f"layers={len(self.entries)}"]
        for i, e in enumerate(self.entries):
            lines.append(f"layer.{i}.name={e.name}")
            lines.append(f"layer.{i}.in={_fmt_shape(e.in_shape)}")
            lines.append(f"layer.{i}.out={_fmt_shape(e.out_shape)}")
            lines.append(f"layer.{i}.flops={e.flops}")
        lines.append(f"total={self.total}")
        lines.append(f"minor_ops={self.minor_ops}")
        return "\n".join(lines) + "\n"


def _fmt_shape(shape):
    return "x".join(str(s) for s in shape)


def count_conv_flops(in_shape, kernel_shape, stride=1, pad=0):
    """Cost of one convolution over a (time, joint) grid, per sample.

    ``in_shape`` is (C_in, T, N); ``kernel_shape`` is (C_out, C_in, k_t),
    a t x 1 kernel, the only kind ``tensor.conv2d`` runs.  Stride and
    padding apply to the time axis.
    """
    c_in, t, n = in_shape
    c_out, _, k_t = kernel_shape
    t_out = (t + 2 * pad - k_t) // stride + 1
    return 2 * c_in * c_out * k_t * t_out * n


def count_graph_mult_flops(n_joints, channels, frames, n_graphs=1):
    """Cost of aggregating (C, T, N) features with ``n_graphs`` N x N graphs."""
    return n_graphs * 2 * n_joints * n_joints * channels * frames


def count_learner_flops(kind, channels, frames, joints):
    """Conv and matmul work inside one topology learner, per sample."""
    c, t, n = channels, frames, joints
    if kind == "nonlocal":
        e = nonlocal_width(c)
        return 2 * (2 * c * e * t * n) + 2 * n * n * e
    axis, _ = LEARNERS[kind]
    return sum(2 * w_in * w_out * positions
               for w_in, w_out, positions in context_stages(axis, c, t, n))


def count_model_flops(config, persons=1):
    """Price each block of ``config.block_plan`` and sum per-layer costs.

    A learner runs unless ``config.topology`` is "none", the baseline whose
    learner and dynamic rows hold zero, so that the two reports align.
    Per-body rows count ``persons`` times; the classifier and its bias
    count once per sample, after the person average.
    """
    if persons < 1:
        raise ValueError("persons must be >= 1")

    layout = build_layout(config.layout)
    report = CostReport(f"{config.layout} {'without' if config.topology == 'none' else 'with'} learner")
    minor = config.in_channels * layout.n_joints * config.frames  # input norm

    plan = config.block_plan(layout.n_joints)
    for i, spec in enumerate(plan, start=1):
        c_in, out_c, joints = spec.in_channels, spec.out_channels, spec.in_joints
        frames, t_out = spec.in_frames, spec.out_frames
        in_shape = (c_in, frames, joints)
        fused_shape = (out_c, frames, joints)
        out_shape = (out_c, t_out, joints)

        static = 0
        if config.lambda_static != 0.0:
            static = count_graph_mult_flops(joints, c_in, frames, N_SPATIAL_CONFIGS)
            static += N_SPATIAL_CONFIGS * count_conv_flops(in_shape, (out_c, c_in, 1))
        report.add(f"block{i}.static", in_shape, fused_shape, static)

        learner = dynamic = 0
        if config.topology != "none":
            learner = count_learner_flops(config.topology, c_in, frames, joints)
            dynamic = count_graph_mult_flops(joints, c_in, frames)
            dynamic += count_conv_flops(in_shape, (out_c, c_in, 1))
            minor += joints * joints  # row normalization
        report.add(f"block{i}.learner", in_shape, (joints, joints), learner)
        report.add(f"block{i}.dynamic", in_shape, fused_shape, dynamic)

        tc = count_conv_flops(fused_shape, (out_c, out_c, spec.tc_kernel),
                              stride=spec.stride, pad=spec.tc_pad)
        report.add(f"block{i}.tc", fused_shape, out_shape, tc)

        if spec.has_shortcut_conv:
            shortcut = count_conv_flops(in_shape, (out_c, c_in, 1), stride=spec.stride)
            report.add(f"block{i}.shortcut", in_shape, out_shape, shortcut)
            minor += out_c * t_out * joints  # shortcut norm

        minor += 3 * out_c * frames * joints + 2 * out_c * t_out * joints  # norms, relus

        if spec.projects:
            proj = 2 * out_c * t_out * joints * spec.out_joints
            report.add(f"block{i}.project", out_shape, (out_c, t_out, spec.out_joints), proj)

    last = plan[-1]
    minor += last.out_channels * last.out_frames * last.out_joints  # global pool
    report.entries = [LayerCost(e.name, e.in_shape, e.out_shape, e.flops * persons)
                      for e in report.entries]
    report.minor_ops = minor * persons + config.n_classes  # bias, once per sample
    if persons > 1:
        report.minor_ops += last.out_channels  # person average
    report.add("classifier", (last.out_channels,), (config.n_classes,),
               2 * last.out_channels * config.n_classes)
    return report


@dataclass
class OverheadReport:
    base_label: str
    other_label: str
    rows: list          # (name, base flops, other flops, diff)
    base_total: int
    other_total: int

    @property
    def ratio(self):
        return (self.other_total - self.base_total) / self.base_total

    def as_text(self):
        header = f"overhead: {self.other_label} vs {self.base_label}"
        lines = [header, "-" * len(header)]
        name_w = max(len(r[0]) for r in self.rows + [("total",)])
        for name, base, other, diff in self.rows:
            if diff == 0:
                continue
            rel = f"{diff / base:+.4f}" if base else "      +"
            lines.append(f"{name:<{name_w}}  {base:>14,}  {other:>14,}  {rel}")
        lines.append(
            f"{'total':<{name_w}}  {self.base_total:>14,}  {self.other_total:>14,}  "
            f"{self.ratio:+.4f}"
        )
        return "\n".join(lines)


def overhead_report(base, other):
    """Per-layer and total cost deltas between two aligned reports."""
    rows = [
        (a.name, a.flops, b.flops, b.flops - a.flops)
        for a, b in zip(base.entries, other.entries)
    ]
    return OverheadReport(base.label, other.label, rows, base.total, other.total)
