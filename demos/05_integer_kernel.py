#!/usr/bin/env python3
"""The pure-integer execution path, bit for bit.

Deployment never multiplies activations by 2^delta at run time: the
exponents are folded into the weight codes once, by left shift, and the
matmul runs on plain integers. This demo shows the fold, the 53-bit
accumulator budget, and bit-exact agreement with the real-arithmetic
reference.
"""

import numpy as np

from denoq.errors import HeadroomError
from denoq.igemm import dequantize_output, execute, shift_weights
from denoq.quant import (
    QuantParams,
    QuantizedLayer,
    activation_codes,
    minmax_scale,
    quantize,
    quantized_matmul_reference,
)
from denoq.tensor import IntTensor, Rng


def main():
    rng = Rng(11)
    c_in, c_out = 16, 8
    w = rng.child("w").standard_normal((c_in, c_out))
    wp = minmax_scale(w, 4, signed=True, axis=1)
    ap = QuantParams(0.04, 8, True)
    tau = np.exp(rng.child("t").uniform(-1, 1, c_in))
    delta = rng.child("d").integers(0, 4, c_in)
    layer = QuantizedLayer("demo", quantize(w, wp), wp, ap, tau * 0.04, delta)

    print("folding exponents into weight codes (row k <<= delta_k):")
    sw = shift_weights(layer.weight_codes, layer.pts_exponents)
    k = int(np.argmax(delta))
    print(f"  channel {k}: delta={delta[k]}, codes "
          f"{layer.weight_codes.codes[k, :4].tolist()} -> {sw.codes[k, :4].tolist()}")

    x = rng.child("x").standard_normal((6, c_in)) * 3.0
    xq = activation_codes(x, layer)
    acc = execute(xq, sw)
    got = dequantize_output(acc, layer.act_params.scale, layer.weight_scale_vector())
    want = quantized_matmul_reference(x, layer)
    print(f"\ninteger path == reference path, bit for bit: "
          f"{np.array_equal(got, want)}")
    print(f"  accumulator values up to {int(np.max(np.abs(acc.codes)))}: a "
          f"{layer.accumulator_budget}-bit budget, so the float32 tier holds "
          f"them exactly ({acc.codes.dtype} accumulator)")

    print("\nthe accumulator budget: bits_x + bits_w + max_shift + log2(C_in) <= 53")
    big = 1 << 15
    x16 = IntTensor(np.full((1, big), -(1 << 15), dtype=np.int64), 16)
    w16 = IntTensor(np.full((big, 1), -(1 << 15), dtype=np.int64), 16)
    worst = execute(x16, shift_weights(w16, np.full(big, 6, dtype=np.int64)))
    print(f"  16 + 16 + 6 + 15 = 53: accepted, worst-case sum = 2^51 "
          f"({int(worst.codes[0, 0]) == big * (1 << 15) * (1 << 21) == 1 << 51})")
    try:
        x17 = IntTensor(np.full((1, 2 * big), -(1 << 15), dtype=np.int64), 16)
        w17 = IntTensor(np.full((2 * big, 1), -(1 << 15), dtype=np.int64), 16)
        execute(x17, shift_weights(w17, np.full(2 * big, 6, dtype=np.int64)))
    except HeadroomError as exc:
        print(f"  one more channel doubling: rejected ({exc})")


if __name__ == "__main__":
    main()
