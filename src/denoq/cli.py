"""Command line entry points.

Subcommands:
    quantize        quantize a checkpoint, write a model file (+ report)
    eval            evaluate an exported model file against its checkpoint
    calibrate       run calibration capture and print activation statistics
    export-inspect  print a model file's header and per-layer summary

Exit codes: 0 success; 2 configuration or argument problems (and a
worker process that died without a result); 3 file and format problems;
4 numerical failures (non-finite values, headroom).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import (
    ConfigError,
    DenoqError,
    DimensionError,
    DomainError,
    FormatError,
    HeadroomError,
    IntegrityError,
    NumericalError,
)
from .modelfile import inspect_model
from .pipeline import Config, parse_config, quantize_to_file, run_eval
from .tensor import Rng
from .toydiff import collect_calibration, load_checkpoint


def _load_config(args) -> Config:
    cfg = parse_config(args.config)
    override = {}
    if getattr(args, "seed", None) is not None:
        override["seed"] = args.seed
    if getattr(args, "les", None) is not None:
        override["les"] = args.les == "on"
    if getattr(args, "pts", None) is not None:
        override["pts_layers"] = args.pts
    if getattr(args, "baseline", None) is not None:
        override["baseline"] = args.baseline
    if override:
        import dataclasses

        cfg = dataclasses.replace(cfg, **override)
    return cfg


def _cmd_quantize(args) -> int:
    cfg = _load_config(args)
    report = quantize_to_file(cfg, args.out, args.report)
    print(f"wrote {args.out}")
    print(f"endpoint_mse = {report.endpoint_mse!r}")
    if args.report:
        print(f"report: {args.report}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    report = run_eval(args.model, cfg)
    if args.report:
        report.write(args.report)
        print(f"report: {args.report}")
    else:
        print(report.to_text(), end="")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    if not cfg.checkpoint:
        raise ConfigError("config names no checkpoint")
    model, schedule = load_checkpoint(cfg.checkpoint)
    records = collect_calibration(
        model, schedule, cfg.T, cfg.n, Rng(cfg.seed).child("calib"), eta=cfg.eta
    )
    lines = ["layer\trows\tmax_abs\tmedian_abs_colmax\tmax_over_median"]
    for name in sorted(records):
        r = records[name]
        colmax = np.max(np.abs(r.activations), axis=0)
        med = float(np.median(colmax))
        ratio = float(np.max(colmax) / med) if med > 0 else float("inf")
        lines.append(
            f"{name}\t{r.activations.shape[0]}\t{float(np.max(colmax))!r}"
            f"\t{med!r}\t{ratio!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report: {args.report}")
    else:
        print(text, end="")
    return 0


def _cmd_inspect(args) -> int:
    print(inspect_model(args.model), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denoq", description="Post-training quantization for toy denoisers."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p, with_variants: bool):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if with_variants:
            p.add_argument("--les", choices=("on", "off"), default=None)
            p.add_argument("--pts", choices=("skip_only", "all", "none"), default=None)
            p.add_argument("--baseline", choices=("none", "smoothquant"), default=None)

    p = sub.add_parser("quantize", help="quantize a checkpoint into a model file")
    add_config_opts(p, True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--report", default=None, help="also write a text report here")
    p.set_defaults(fn=_cmd_quantize)

    p = sub.add_parser("eval", help="evaluate a model file against its checkpoint")
    add_config_opts(p, False)
    p.add_argument("--model", required=True, help="model file to evaluate")
    p.add_argument("--report", default=None, help="write the report here (else stdout)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("calibrate", help="capture activations and print statistics")
    add_config_opts(p, False)
    p.add_argument("--report", default=None, help="write the table here (else stdout)")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("export-inspect", help="print a model file summary")
    p.add_argument("--model", required=True, help="model file to inspect")
    p.set_defaults(fn=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, HeadroomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DenoqError as exc:  # anything newly added in the hierarchy
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
