#!/usr/bin/env python3
"""Regenerate the golden ordering report: python3 scripts/regenerate_golden.py

Runs three quantization variants of configs/w4a8.cfg on the bundled
checkpoint — the plain MinMax baseline, learned scaling alone, and learned
scaling plus power-of-two rescue — and records their endpoint trajectory
MSEs in golden/ordering.txt. Deterministic: rebuilding writes the same
bytes. The acceptance suite re-measures the same three numbers and checks
them against this file.

Options:
  --check   write nothing; print a unified diff of golden/ordering.txt
            against the rebuilt lines and exit 1 if they differ, 0 if not
"""

import argparse
import dataclasses
import difflib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from denoq.pipeline import parse_config, run_quantize  # noqa: E402

VARIANTS = (
    ("minmax", dict(les=False, pts_layers="none")),
    ("les_only", dict(les=True, pts_layers="none")),
    ("les_pts", dict(les=True, pts_layers="skip_only")),
)


def golden_lines(config_path) -> list[str]:
    base = parse_config(config_path)
    lines = [
        "# endpoint trajectory MSE, quantized vs full precision, shared noise",
        f"# config: {pathlib.Path(config_path).name}, seed = {base.seed}",
    ]
    results = {}
    for name, override in VARIANTS:
        cfg = dataclasses.replace(base, **override)
        _, report = run_quantize(cfg)
        results[name] = report.endpoint_mse
        skip = next(s for s in report.layer_summaries if s.name == "skip")
        lines.append(
            f"{name}: endpoint_mse = {report.endpoint_mse!r} "
            f"(skip: rescued={skip.rescued}, "
            f"tau_range=[{skip.tau_min:.4f}, {skip.tau_max:.4f}])"
        )
    lines.append(
        "ordering: les_pts < minmax is "
        + str(results["les_pts"] < results["minmax"]).lower()
    )
    lines.append(
        "ordering: les_pts <= les_only is "
        + str(results["les_pts"] <= results["les_only"]).lower()
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare with golden/ordering.txt instead of writing it",
    )
    args = parser.parse_args(argv)
    out = ROOT / "golden" / "ordering.txt"
    text = "\n".join(golden_lines(ROOT / "configs" / "w4a8.cfg")) + "\n"
    if args.check:
        old = out.read_text(encoding="utf-8") if out.is_file() else ""
        diff = difflib.unified_diff(
            old.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile=str(out), tofile="rebuilt",
        )
        sys.stdout.writelines(diff)
        print(f"{out}: {'reproduced' if old == text else 'differs'}")
        return 0 if old == text else 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(text, end="")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
