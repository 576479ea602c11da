"""Command-line interface: synth, train, eval, ensemble, flops, export-topology."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .config import MODEL_PRESETS, RUN_PRESETS, RunConfig, model_preset, run_preset
from .data import SynthSpec, synth_generate
from .export import DEFAULT_THRESHOLD, export_topology
from .flops import count_model_flops, overhead_report
from .skeleton import write_file
from .train import EVAL_BATCH_SIZE, ensemble_checkpoints, train


def _cmd_synth(args):
    # each flag's dest is its SynthSpec field; a flag not given keeps the field's default
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)
                        if getattr(args, f.name, None) is not None})
    train_manifest, test_manifest = synth_generate(args.out, spec)
    out = Path(args.out)
    print(f"wrote {len(train_manifest)} train / {len(test_manifest)} test sequences")
    print(f"train manifest: {out / 'train.manifest'}")
    print(f"test manifest: {out / 'test.manifest'}")


def _load_run_config(args):
    if args.config:
        config = RunConfig.load(args.config)
    else:
        config = run_preset(args.preset)
    overrides = list(args.set or [])
    for name, flag in (("train_manifest", args.train_manifest),
                       ("test_manifest", args.test_manifest),
                       ("out_dir", args.out_dir)):
        if flag:
            overrides.append(f"{name}={flag}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.epochs is not None:
        overrides.append(f"total_epochs={args.epochs}")
    return config.with_overrides(overrides) if overrides else config


def _cmd_train(args):
    config = _load_run_config(args)
    result = train(config)
    last = result.log.records[-1]
    print(f"trained {last.epoch} epochs; final train loss {last.train_loss:.4f}, "
          f"train acc {last.train_acc:.4f}")
    if config.test_manifest:
        print(f"test top1 {last.top1:.4f}, top5 {last.top5:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")


def _cmd_eval(args):
    (result,), _ = ensemble_checkpoints([args.checkpoint], args.manifest,
                                        batch_size=args.batch_size)
    print(f"samples {result.count}")
    print(f"top1 {result.top1:.4f}")
    print(f"top5 {result.top5:.4f}")


def _cmd_ensemble(args):
    streams, fused = ensemble_checkpoints(args.checkpoints, args.manifest,
                                          batch_size=args.batch_size)
    for path, result in zip(args.checkpoints, streams):
        print(f"stream {path}: top1 {result.top1:.4f}, top5 {result.top5:.4f}")
    print(f"ensemble: top1 {fused.top1:.4f}, top5 {fused.top5:.4f}")


def _cmd_flops(args):
    if args.config:
        model_config = RunConfig.load(args.config).model
    else:
        model_config = model_preset(args.preset)
    reports = []
    if args.without_cen or not args.with_cen:
        reports.append(count_model_flops(replace(model_config, topology="none"),
                                         persons=args.persons))
    if args.with_cen or not args.without_cen:
        reports.append(count_model_flops(model_config, persons=args.persons))
    for report in reports:
        print(report.as_text())
        print()
    if len(reports) == 2:
        print(overhead_report(reports[0], reports[1]).as_text())
    if args.kv:
        write_file(args.kv, "\n".join(r.as_kv() for r in reports))
        print(f"wrote {args.kv}")


def _cmd_export_topology(args):
    matrix, txt_path, dot_path = export_topology(
        args.checkpoint, args.manifest, args.layer, args.class_id,
        args.out, threshold=args.threshold,
    )
    print(f"averaged {matrix.shape[0]}x{matrix.shape[1]} adjacency")
    print(f"matrix: {txt_path}")
    print(f"graph: {dot_path}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyngcn",
        description="Skeleton action classifier with learned dynamic topology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic skeleton dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", dest="n_classes", type=int)
    p.add_argument("--train-per-class", dest="samples_per_class", type=int)
    p.add_argument("--test-per-class", type=int)
    p.add_argument("--layout")
    p.add_argument("--frames", type=int)
    p.add_argument("--noise", dest="noise_sigma", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=RUN_PRESETS)
    source.add_argument("--config", help="run-config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--train-manifest")
    p.add_argument("--test-manifest")
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--batch-size", type=int, default=EVAL_BATCH_SIZE)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ensemble", help="sum logits across checkpoints")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--batch-size", type=int, default=EVAL_BATCH_SIZE)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("flops", help="closed-form cost report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=MODEL_PRESETS)
    source.add_argument("--config", help="run-config file (its model section)")
    p.add_argument("--with-cen", action="store_true",
                   help="report with the topology learner")
    p.add_argument("--without-cen", action="store_true",
                   help="report the config with topology=none, without a learner")
    p.add_argument("--persons", type=int, default=1)
    p.add_argument("--kv", help="also write the report(s) as key=value text")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("export-topology", help="average learned adjacency for a class")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--layer", type=int, required=True, help="1-based block index")
    p.add_argument("--class-id", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True,
                   help="output path prefix; writes <prefix>.txt and <prefix>.dot")
    p.set_defaults(func=_cmd_export_topology)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, TypeError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
