"""Binary container for quantized models.

Layout (integers and floats little-endian, no alignment padding):

    offset 0  magic, 4 bytes: "DMQ1"
    offset 4  version, u16 (currently 1)
    offset 6  weight bits, u8
    offset 7  activation bits, u8
    offset 8  flags, u8 (bit 0: activations signed; bits 1-7 must be 0)
    offset 9  layer count, u32
    then per layer, in model order:
        name length, u16; name, utf-8
        C_in, u32; C_out, u32
        activation scale, f64
        weight scales, f64 * C_out
        fused activation divisors (tau_c * activation scale), f64 * C_in
        power-of-two exponents, u8 * C_in
        weight codes, row-major [C_in x C_out]:
            4-bit:  two codes per byte, low nibble first, two's complement
                    nibbles sign-extended on read; odd counts pad the final
                    high nibble with zero
            8-bit:  one i8 per code
            16-bit: one i16 per code
            32-bit: one i32 per code

Scales are stored at full f64 width so that export -> import -> export is
byte-identical and a reloaded model runs bit-identical inference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DenoqError, DomainError, FormatError
from .igemm import headroom_problem
from .quant import MAX_BITS, QuantParams, QuantizedLayer
from .tensor import IntTensor

MODEL_MAGIC = b"DMQ1"
MODEL_VERSION = 1


def _storage_dtype(bits: int) -> np.dtype | None:
    """Narrowest storage lane for a code width; None means packed nibbles."""
    if bits <= 4:
        return None
    if bits <= 8:
        return np.dtype("<i1")
    if bits <= 16:
        return np.dtype("<i2")
    if bits <= 32:
        return np.dtype("<i4")
    raise DomainError(f"no storage encoding for {bits}-bit weight codes")


@dataclass(frozen=True)
class QuantizedModel:
    """Header fields plus the quantized layers, in checkpoint order.

    Every layer must run on the integer kernel: a layer whose shifted
    weights overflow the weight lane, or whose accumulator budget exceeds
    63 bits, is not a deployable model and is a FormatError.
    """

    bits_w: int
    bits_a: int
    act_signed: bool
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise DomainError("layer names must be unique")
        for l in self.layers:
            if l.weight_params.bits != self.bits_w or l.act_params.bits != self.bits_a:
                raise DomainError(
                    f"layer {l.name!r} bit-widths disagree with the model header"
                )
            problem = headroom_problem(
                l.act_params.bits, l.weight_codes.nominal_bits, l.max_shift, l.c_in
            )
            if problem is not None:
                raise FormatError(
                    f"layer {l.name!r} cannot run on the integer kernel: {problem}"
                )

    def layer(self, name: str) -> QuantizedLayer:
        for l in self.layers:
            if l.name == name:
                return l
        raise DomainError(f"no layer named {name!r}")


def pack_int4(codes: np.ndarray) -> bytes:
    """Pack signed 4-bit codes, two per byte, low nibble first."""
    flat = np.asarray(codes).reshape(-1)
    if flat.size and (flat.min() < -8 or flat.max() > 7):
        raise DomainError("4-bit codes must lie in [-8, 7]")
    nibbles = (flat & 0xF).astype(np.uint8)
    if nibbles.size % 2:
        nibbles = np.concatenate([nibbles, np.zeros(1, dtype=np.uint8)])
    return (nibbles[0::2] | (nibbles[1::2] << 4)).tobytes()


def unpack_int4(buf: bytes, count: int) -> np.ndarray:
    """Inverse of pack_int4: sign-extend count nibbles back to int64.

    An odd count leaves a pad nibble, which must be zero as pack_int4
    writes it; anything else would not survive a round trip."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.size * 2 < count:
        raise FormatError(f"4-bit block holds {raw.size * 2} codes, need {count}")
    if count % 2 and raw[count // 2] >> 4:
        raise FormatError("4-bit block: the pad nibble after the last code is not zero")
    lo = raw & 0xF
    hi = raw >> 4
    nibbles = np.empty(raw.size * 2, dtype=np.int64)
    nibbles[0::2] = lo
    nibbles[1::2] = hi
    nibbles = nibbles[:count]
    return np.where(nibbles >= 8, nibbles - 16, nibbles)


def _encode_codes(codes: np.ndarray, bits: int) -> bytes:
    dtype = _storage_dtype(bits)
    if dtype is None:
        return pack_int4(codes)
    return np.ascontiguousarray(codes, dtype=dtype).tobytes()


def _decode_codes(buf: bytes, bits: int, count: int) -> np.ndarray:
    dtype = _storage_dtype(bits)
    if dtype is None:
        return unpack_int4(buf, count)
    expected = count * dtype.itemsize
    if len(buf) < expected:
        raise FormatError(f"code block holds {len(buf)} bytes, need {expected}")
    return np.frombuffer(buf[:expected], dtype=dtype).astype(np.int64)


def _codes_nbytes(bits: int, count: int) -> int:
    dtype = _storage_dtype(bits)
    if dtype is None:
        return (count + 1) // 2
    return count * dtype.itemsize


def export_model(path, model: QuantizedModel) -> None:
    """Write the container; identical models produce identical bytes."""
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack(
        "<HBBBI",
        MODEL_VERSION,
        model.bits_w,
        model.bits_a,
        1 if model.act_signed else 0,
        len(model.layers),
    )
    for layer in model.layers:
        nb = layer.name.encode("utf-8")
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<II", layer.c_in, layer.c_out)
        out += struct.pack("<d", layer.act_params.scale)
        out += np.ascontiguousarray(layer.weight_scale_vector(), dtype="<f8").tobytes()
        out += np.ascontiguousarray(layer.fused_tau, dtype="<f8").tobytes()
        exps = layer.pts_exponents
        if exps.size and exps.max() > 255:
            raise DomainError("power-of-two exponents larger than 255 cannot be stored")
        out += np.ascontiguousarray(exps, dtype=np.uint8).tobytes()
        out += _encode_codes(layer.weight_codes.codes, model.bits_w)
    with open(path, "wb") as fh:
        fh.write(out)


class _Reader:
    """Cursor over the raw bytes that reports *where* parsing failed."""

    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path
        self.context = "header"

    def fail(self, why: str):
        raise FormatError(f"{self.path}: {why} (in {self.context}, offset {self.pos})")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            self.fail(f"truncated: wanted {n} bytes, {len(self.raw) - self.pos} left")
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def import_model(path) -> QuantizedModel:
    """Read a container back, validating as it goes.

    Any structural problem raises FormatError and names the record being
    parsed; integrity problems in otherwise well-formed records (scales not
    positive, codes out of range, a repeated layer name, a layer the
    integer kernel cannot run) surface the same way.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    r = _Reader(raw, path)
    if r.take(4) != MODEL_MAGIC:
        r.pos = 0
        r.fail("not a quantized model file (bad magic)")
    version, bits_w, bits_a, flags, count = r.unpack("<HBBBI")
    if version != MODEL_VERSION:
        r.fail(f"unsupported version {version}")
    for what, bits in (("weight", bits_w), ("activation", bits_a)):
        if not (2 <= bits <= MAX_BITS):
            r.fail(f"unsupported {what} bit-width {bits}")
    if flags & ~1:  # bit 0 (activations signed) is the only defined flag
        r.pos = 8
        r.fail(f"flags byte 0x{flags:02x} sets undefined bits")
    layers = []
    seen = set()
    for i in range(count):
        r.context = f"layer record {i}"
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            r.fail("layer name is not UTF-8")
        r.context = f"layer record {i} ({name!r})"
        if name in seen:
            r.fail("duplicate layer name")
        seen.add(name)
        c_in, c_out = r.unpack("<II")
        (act_scale,) = r.unpack("<d")
        w_scales = np.frombuffer(r.take(8 * c_out), dtype="<f8").copy()
        fused = np.frombuffer(r.take(8 * c_in), dtype="<f8").copy()
        exps = np.frombuffer(r.take(c_in), dtype=np.uint8).astype(np.int64)
        code_bytes = r.take(_codes_nbytes(bits_w, c_in * c_out))
        try:
            codes = _decode_codes(code_bytes, bits_w, c_in * c_out).reshape(c_in, c_out)
            layers.append(
                QuantizedLayer(
                    name,
                    IntTensor(codes, bits_w),
                    QuantParams(w_scales, bits_w, True, axis=1),
                    QuantParams(act_scale, bits_a, bool(flags & 1), axis=None),
                    fused,
                    exps,
                )
            )
        except DenoqError as exc:
            r.fail(f"invalid record contents: {exc}")
    if r.pos != len(raw):
        r.context = "trailer"
        r.fail(f"{len(raw) - r.pos} unexpected trailing bytes")
    try:
        return QuantizedModel(bits_w, bits_a, bool(flags & 1), tuple(layers))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def inspect_model(path) -> str:
    """Human-readable header and layer table, for the export-inspect command."""
    model = import_model(path)
    lines = [
        f"magic {MODEL_MAGIC.decode()} version {MODEL_VERSION}",
        f"weight bits {model.bits_w}, activation bits {model.bits_a}, "
        f"activations {'signed' if model.act_signed else 'unsigned'}",
        f"layers {len(model.layers)}",
    ]
    for l in model.layers:
        rescued = int(np.count_nonzero(l.pts_exponents))
        lines.append(
            f"  {l.name}: {l.c_in} x {l.c_out}, act scale {l.act_params.scale:.6e}, "
            f"{rescued} rescued channels"
            + (
                f" (max exponent {int(l.pts_exponents.max())})"
                if rescued
                else ""
            )
        )
    return "\n".join(lines) + "\n"
