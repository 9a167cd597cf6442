#!/usr/bin/env python3
"""Sweep the golden ordering over seeds: python3 scripts/ordering_sweep.py

Runs the three variants of scripts/regenerate_golden.py (plain MinMax,
learned scaling alone, learned scaling plus power-of-two rescue) on
configs/w4a8.cfg for each seed and activation width, and prints their
endpoint trajectory MSEs with the median of each variant. golden/ordering.txt
pins one seed; this shows how far that seed's ordering carries. It is a
view only: no test holds its figures to a bound.

Options:
  --seeds S [S ...]   seeds to run (default 0-9)
  --bits-a B [B ...]  activation widths (default 8 6, i.e. W4A8 and W4A6)

Seeds 0-9 at both widths take about a minute on 2 cores.
"""

import argparse
import dataclasses
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from denoq.pipeline import parse_config, run_quantize  # noqa: E402
from regenerate_golden import VARIANTS  # noqa: E402


def sweep(config_path, seeds, widths) -> dict:
    """{(bits_a, variant): [endpoint MSE of each seed]}."""
    base = parse_config(config_path)
    results = {}
    for bits_a in widths:
        for name, override in VARIANTS:
            results[(bits_a, name)] = [
                run_quantize(
                    dataclasses.replace(base, bits_a=bits_a, seed=seed, **override)
                )[1].endpoint_mse
                for seed in seeds
            ]
    return results


def table_lines(results: dict, seeds, widths, bits_w: int) -> list[str]:
    names = [name for name, _ in VARIANTS]
    row = "{:<8}" + "{:<22}" * len(names)
    lines = ["# endpoint trajectory MSE, quantized vs full precision, shared noise"]
    for bits_a in widths:
        lines += ["", f"W{bits_w}A{bits_a}", row.format("seed", *names).rstrip()]
        for i, seed in enumerate(seeds):
            values = [repr(results[(bits_a, n)][i]) for n in names]
            lines.append(row.format(seed, *values).rstrip())
        medians = [f"{statistics.median(results[(bits_a, n)]):.4f}" for n in names]
        lines.append(row.format("median", *medians).rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--bits-a", type=int, nargs="+", default=[8, 6])
    args = parser.parse_args(argv)
    config = ROOT / "configs" / "w4a8.cfg"
    results = sweep(config, args.seeds, args.bits_a)
    bits_w = parse_config(config).bits_w
    print("\n".join(table_lines(results, args.seeds, args.bits_a, bits_w)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
