#!/usr/bin/env python3
"""Symmetric integer quantization from first principles.

Walks through the code grid, round-half-to-even, MinMax scale selection,
and what per-channel scales buy over a single per-tensor scale.
"""

import numpy as np

from denoq.quant import QuantParams, code_bounds, dequantize, minmax_scale, quantize
from denoq.tensor import Rng


def main():
    print("== the code grid ==")
    for bits, signed in ((4, True), (8, True), (8, False)):
        lo, hi = code_bounds(bits, signed)
        kind = "signed" if signed else "unsigned"
        print(f"  {bits}-bit {kind}: codes in [{lo}, {hi}]")

    print("\n== round half to even ==")
    params = QuantParams(1.0, 8, True)
    for v in (2.5, 3.5, -2.5, 0.49999):
        q = quantize(np.array([[v]]), params).codes[0, 0]
        print(f"  {v:+.5f} / scale 1.0 -> code {q:+d}")
    print("  (ties go to the even neighbour, so long sums carry no bias)")

    rng = Rng(0)
    x = rng.child("x").standard_normal((512, 8))
    x[:, 3] *= 40.0  # one hot channel, the classic failure mode

    print("\n== per-tensor MinMax on a tensor with one hot channel ==")
    p_tensor = minmax_scale(x, 8, signed=True)
    err_tensor = x - dequantize(quantize(x, p_tensor), p_tensor)
    print(f"  scale {p_tensor.scale:.5f} is set by the hot channel alone")
    per_channel_rmse = np.sqrt(np.mean(err_tensor**2, axis=0))
    print(f"  rmse of a typical channel: {np.median(per_channel_rmse):.5f}")
    print(f"  rmse of the hot channel:   {per_channel_rmse[3]:.5f}")

    print("\n== per-channel scales (axis=1) ==")
    p_chan = minmax_scale(x, 8, signed=True, axis=1)
    err_chan = x - dequantize(quantize(x, p_chan), p_chan)
    rmse_chan = np.sqrt(np.mean(err_chan**2, axis=0))
    print(f"  typical channel rmse drops to {np.median(rmse_chan):.5f}")
    print("  each channel now spends the full code range on itself.")
    print("\nActivations that feed an integer matmul cannot use a per-channel")
    print("scale along the reduction axis, which is exactly why the rest of")
    print("this toolkit exists: move the imbalance somewhere harmless first.")


if __name__ == "__main__":
    main()
