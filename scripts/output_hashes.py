#!/usr/bin/env python3
"""Hash what quantize and eval write: python3 scripts/output_hashes.py

For each config variant and seed, quantizes, exports and evaluates the
model, and prints one `sha256 name` line for each of the seven files it
writes: the DMQ1 model, the quantize report and the eval report, and each
report's two TSV tables. A report's `checkpoint =` line holds an absolute
path, so it is left out of the hash. Every file goes into a temporary
directory that is removed afterwards.

The variants are configs/w4a8.cfg and configs/w8a8.cfg, each as written
and with: the Adam optimizer, unsigned activations, 6-bit activations,
W3A5, propagated quantized inputs, 16/16 and 22/22 bits, W23A24 without
rescue, T = 2 (the LES descent then folds groups of 8 or more rows per
timestep) and alpha = 0 (every timestep weight is 1). 22/22 is the widest
width the headroom check accepts with D = 3: counted on the skip layer it
needs 53 bits, and every layer runs in the float64 tier. 23/24 with D = 0
exports every layer at a budget of exactly 53 bits. Running the script in
two checkouts and diffing the outputs shows whether a change moves any
output byte.

Options:
  --seeds S [S ...]   seeds to run (default 0 1)

Each seed takes about 4 s on 2 cores.
"""

import argparse
import dataclasses
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from denoq.pipeline import Config, parse_config, quantize_to_file, run_eval  # noqa: E402

VARIANTS = (
    ("default", {}),
    ("adam", dict(optimizer="adam")),
    ("act_unsigned", dict(act_unsigned=True)),
    ("A6", dict(bits_a=6)),
    ("W3A5", dict(bits_w=3, bits_a=5)),
    ("propagate", dict(propagate_quantized_inputs=True)),
    ("16_16", dict(bits_w=16, bits_a=16)),
    ("22_22", dict(bits_w=22, bits_a=22)),
    ("23_24", dict(bits_w=23, bits_a=24, D=0)),
    ("T2", dict(T=2)),
    ("alpha0", dict(alpha=0.0)),
)

FILES = (
    "model.dmq",
    "quantize.txt", "quantize_layers.tsv", "quantize_summary.tsv",
    "eval.txt", "eval_layers.tsv", "eval_summary.tsv",
)


def _digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(l for l in lines if not l.startswith(b"checkpoint = "))
    return hashlib.sha256(data).hexdigest()


def config_hashes(config: Config, label: str) -> list[str]:
    """Quantize, export and evaluate config in a temporary directory:
    one `sha256 label/file` line per written file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        quantize_to_file(config, out / "model.dmq", out / "quantize.txt")
        run_eval(out / "model.dmq", config).write(out / "eval.txt")
        return [f"{_digest(out / name)} {label}/{name}" for name in FILES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    for cfg_name in ("w4a8", "w8a8"):
        base = parse_config(ROOT / "configs" / f"{cfg_name}.cfg")
        for variant, override in VARIANTS:
            for seed in args.seeds:
                config = dataclasses.replace(base, seed=seed, **override)
                label = f"{cfg_name}/{variant}/seed{seed}"
                print("\n".join(config_hashes(config, label)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
