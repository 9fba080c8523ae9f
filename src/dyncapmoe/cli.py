"""Command-line interface.

Subcommands:

* ``gradcheck`` — finite-difference campaign plus the unbiasedness
  enumeration on a (default or JSON) model config; exit 1 if any block fails.
  ``--json PATH`` also writes the report as JSON for byte-for-byte diffs.
* ``train``     — plain-SGD run on the planted-signal task; writes
  ``loss.csv`` and ``trace.csv`` into ``--out``.
* ``analyze``   — activation proportions / expert-count histogram from a
  trace file.
* ``rope-dump`` — position-ID assignment for a segment spec, one JSON record
  per token.

Exit codes: 0 success, 1 check or run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import analytics as an
from . import harness as hn
from . import rope3d as rp

__all__ = ["main", "entrypoint"]


def _load_config(path: str | None, fallback) -> hn.ToyModelConfig:
    if path is None:
        return fallback()
    return hn.ToyModelConfig.from_json_file(path)


def _reseed(cfg: hn.ToyModelConfig, seed: int) -> hn.ToyModelConfig:
    return dataclasses.replace(cfg, seed=seed,
                               moe=dataclasses.replace(cfg.moe, seed=seed))


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config, hn.gradcheck_default_config)
    report = hn.grad_check(cfg, eps=args.eps, tol=args.tol)
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n",
                                   encoding="utf-8")
    for line in report.lines():
        print(line)
    if not report.passed:
        offenders = ", ".join(report.failed_blocks) or "unbiasedness sweep"
        print(f"gradcheck FAILED: {offenders}", file=sys.stderr)
        return 1
    print("gradcheck passed")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, hn.smoke_train_config)
    if args.seed is not None:
        cfg = _reseed(cfg, args.seed)
    if args.steps is not None:
        cfg = dataclasses.replace(cfg, steps=args.steps)
    try:
        result = hn.train(cfg)
    except hn.TrainingDivergedError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)  # made only for a finished run, so a failed one leaves none
    out.mkdir(parents=True, exist_ok=True)
    lines = ["step,loss"]
    lines += [f"{step},{repr(loss)}" for step, loss in enumerate(result.losses)]
    (out / "loss.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    an.export_trace(result.trace, out / "trace.csv", fmt="csv")
    if result.losses:
        print(f"{cfg.steps} steps: loss {result.losses[0]!r} -> {result.losses[-1]!r}")
    else:
        print("0 steps: nothing trained")
    print(f"wrote {out / 'loss.csv'} and {out / 'trace.csv'}")
    return 0


def cmd_analyze(args) -> int:
    trace = an.import_trace(args.trace)
    if args.group_by == "count":
        hist = an.expert_count_histogram(trace, args.layer)
        lines = ["layer,k,fraction"]
        lines += [f"{args.layer},{k},{repr(frac)}" for k, frac in hist.items()]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif args.group_by == "modality":
        groups = an.layer_modalities(trace, args.layer)
        if not groups:
            raise ValueError(f"no records for layer {args.layer}")
        reports = [an.activation_proportions(trace, args.layer, modality=m)
                   for m in groups]
        an.export_report(reports, args.out)
    else:  # "expert": one unfiltered report
        an.export_report([an.activation_proportions(trace, args.layer)], args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_rope_dump(args) -> int:
    spec = json.loads(Path(args.segments).read_text(encoding="utf-8"))
    if "segments" not in spec:
        raise ValueError("segment spec must contain a 'segments' list")
    segments = hn.segments_from_json(spec["segments"])
    theta = args.theta if args.theta is not None else spec.get("theta", 1)
    ids, tags = rp.assign_sequence_tagged(segments, theta)
    lines = [json.dumps({"index": i, "modality": tag,
                         "t": pid.t, "h": pid.h, "w": pid.w})
             for i, (pid, tag) in enumerate(zip(ids, tags))]
    text = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(ids)} tokens to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncapmoe",
        description="Dynamic-capacity MoE toy harness: gradient checks, "
                    "training runs, routing analytics and position-ID dumps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient campaign")
    p.add_argument("--config", help="model config JSON (default: built-in small config)")
    p.add_argument("--eps", type=float, default=1e-6, help="FD step (default 1e-6)")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="max rel-err per block (default 1e-4)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON (exact repr of every error)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train on the planted-signal task")
    p.add_argument("--config", help="model config JSON (default: built-in smoke config)")
    p.add_argument("--steps", type=int, help="override config step count")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--out", required=True,
                   help="output directory for loss.csv and trace.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="summarize a routing trace")
    p.add_argument("--trace", required=True, help="trace file (csv or jsonl)")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--group-by", choices=("expert", "modality", "count"),
                   default="expert")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rope-dump", help="dump 3D position IDs for a segment spec")
    p.add_argument("--segments", required=True,
                   help="JSON file: {theta, segments: [{kind, ...}]}")
    p.add_argument("--theta", type=int, help="position units per second "
                   "(overrides the spec file; default 1)")
    p.add_argument("--out", help="output JSONL path (default: stdout)")
    p.set_defaults(func=cmd_rope_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage text already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
