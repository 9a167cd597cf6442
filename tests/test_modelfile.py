import struct

import numpy as np
import pytest

from denoq import cli
from denoq.errors import DomainError, FormatError
from denoq.modelfile import (
    QuantizedModel,
    _codes_nbytes,
    _storage_dtype,
    export_model,
    import_model,
    inspect_model,
    pack_int4,
    unpack_int4,
)
from denoq.quant import QuantParams, QuantizedLayer, minmax_scale, quantize
from denoq.tensor import Rng


def small_model(bits_w=4, bits_a=8, act_signed=True, seed=0, names=("alpha", "b")):
    rng = Rng(seed)
    layers = []
    for i, name in enumerate(names):
        c_in, c_out = 6 + i, 4
        w = rng.child(f"w{i}").standard_normal((c_in, c_out))
        wp = minmax_scale(w, bits_w, signed=True, axis=1)
        ap = QuantParams(0.03125, bits_a, act_signed)
        tau = np.exp(rng.child(f"t{i}").uniform(-1, 1, c_in))
        exps = rng.child(f"d{i}").integers(0, 4, c_in)
        layers.append(
            QuantizedLayer(name, quantize(w, wp), wp, ap, tau * ap.scale, exps)
        )
    return QuantizedModel(bits_w, bits_a, act_signed, tuple(layers))


class TestInt4Packing:
    def test_every_code_pair_round_trips(self):
        for a in range(-8, 8):
            for b in range(-8, 8):
                buf = pack_int4(np.array([a, b]))
                assert len(buf) == 1
                assert unpack_int4(buf, 2).tolist() == [a, b]

    def test_odd_count_pads_high_nibble(self):
        buf = pack_int4(np.array([-3]))
        assert len(buf) == 1
        assert unpack_int4(buf, 1).tolist() == [-3]
        # the pad nibble is zero, so the byte is fully determined
        assert buf == pack_int4(np.array([-3, 0]))

    def test_long_array_round_trip(self):
        codes = Rng(1).integers(-8, 8, 999)
        assert np.array_equal(unpack_int4(pack_int4(codes), 999), codes)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(DomainError):
            pack_int4(np.array([8]))
        with pytest.raises(DomainError):
            pack_int4(np.array([-9]))

    def test_short_buffer_rejected(self):
        with pytest.raises(FormatError):
            unpack_int4(b"\x00", 3)

    def test_nonzero_pad_nibble_rejected(self):
        with pytest.raises(FormatError, match="pad nibble"):
            unpack_int4(b"\x1d", 1)


def test_storage_lane_policy():
    assert _storage_dtype(2) is None and _storage_dtype(4) is None
    assert _storage_dtype(5) == np.dtype("<i1") and _storage_dtype(8) == np.dtype("<i1")
    assert _storage_dtype(9) == np.dtype("<i2") and _storage_dtype(16) == np.dtype("<i2")
    assert _storage_dtype(32) == np.dtype("<i4")
    with pytest.raises(DomainError):
        _storage_dtype(33)


class TestModelHeader:
    def test_duplicate_layer_names_rejected(self):
        m = small_model()
        with pytest.raises(DomainError):
            QuantizedModel(4, 8, True, (m.layers[0], m.layers[0]))

    def test_bit_width_mismatch_rejected(self):
        m = small_model(bits_w=4)
        with pytest.raises(DomainError):
            QuantizedModel(8, 8, True, m.layers)

    def test_layer_lookup(self):
        m = small_model()
        assert m.layer("alpha").name == "alpha"
        with pytest.raises(DomainError):
            m.layer("nope")


class TestContainerRoundTrip:
    @pytest.mark.parametrize("bits_w", [4, 8, 16])
    def test_export_import_export_is_byte_identical(self, tmp_path, bits_w):
        model = small_model(bits_w=bits_w, seed=bits_w)
        p1, p2 = tmp_path / "a.dmq", tmp_path / "b.dmq"
        export_model(p1, model)
        loaded = import_model(p1)
        export_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_fields_match(self, tmp_path):
        model = small_model(act_signed=False)
        p = tmp_path / "m.dmq"
        export_model(p, model)
        got = import_model(p)
        assert got.bits_w == 4 and got.bits_a == 8 and got.act_signed is False
        for orig, back in zip(model.layers, got.layers):
            assert back.name == orig.name
            assert np.array_equal(back.weight_codes.codes, orig.weight_codes.codes)
            assert np.array_equal(back.weight_params.scale, orig.weight_params.scale)
            assert back.act_params.scale == orig.act_params.scale
            assert np.array_equal(back.fused_tau, orig.fused_tau)
            assert np.array_equal(back.pts_exponents, orig.pts_exponents)

    def test_export_is_deterministic(self, tmp_path):
        model = small_model()
        p1, p2 = tmp_path / "a.dmq", tmp_path / "b.dmq"
        export_model(p1, model)
        export_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruptFiles:
    def write_good(self, tmp_path):
        p = tmp_path / "m.dmq"
        export_model(p, small_model(names=("a",)))
        return p

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.dmq"
        p.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            import_model(p)

    def test_bad_magic(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"WHAT"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            import_model(p)

    def test_bad_version(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (7).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            import_model(p)

    def test_truncated_layer_names_the_record(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="layer record 0"):
            import_model(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = self.write_good(tmp_path)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            import_model(p)

    @pytest.mark.parametrize("byte,what", [(6, "weight"), (7, "activation")])
    @pytest.mark.parametrize("bits", [1, 33, 200])
    def test_unsupported_bit_width_in_header(self, tmp_path, byte, what, bits):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[byte] = bits
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unsupported {what} bit-width {bits}"):
            import_model(p)

    def test_unsupported_bit_width_exits_3(self, tmp_path, capsys):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[6] = 200  # bits_w
        p.write_bytes(bytes(raw))
        assert cli.main(["export-inspect", "--model", str(p)]) == 3
        assert "unsupported weight bit-width 200" in capsys.readouterr().err

    def write_flags(self, tmp_path, flags):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        assert raw[8] == 0x01  # signed activations, nothing else
        raw[8] = flags
        p.write_bytes(bytes(raw))
        return p

    @pytest.mark.parametrize("flags", [0x83, 0x02, 0x80, 0xFE])
    def test_undefined_flag_bits_are_a_format_error(self, tmp_path, flags):
        p = self.write_flags(tmp_path, flags)
        with pytest.raises(
            FormatError, match=f"flags byte 0x{flags:02x} sets undefined bits.*offset 8"
        ):
            import_model(p)

    def test_undefined_flag_bits_exit_3(self, tmp_path, capsys):
        p = self.write_flags(tmp_path, 0x83)
        assert cli.main(["export-inspect", "--model", str(p)]) == 3
        assert "flags byte 0x83 sets undefined bits" in capsys.readouterr().err

    def write_duplicate_names(self, tmp_path):
        """A two-layer file whose second name is rewritten to the first."""
        one = tmp_path / "one.dmq"
        export_model(one, small_model(names=("a",)))
        p = tmp_path / "dup.dmq"
        export_model(p, small_model(names=("a", "b")))
        raw = bytearray(p.read_bytes())
        # layer 0 is the same record in both files, so layer 1's name byte
        # sits right after it and its u16 length.
        at = len(one.read_bytes()) + 2
        assert raw[at] == ord("b")
        raw[at] = ord("a")
        p.write_bytes(bytes(raw))
        return p

    def test_duplicate_layer_name_is_a_format_error(self, tmp_path):
        p = self.write_duplicate_names(tmp_path)
        with pytest.raises(FormatError, match=r"duplicate layer name.*layer record 1"):
            import_model(p)

    def test_duplicate_layer_name_exits_3(self, tmp_path, capsys):
        p = self.write_duplicate_names(tmp_path)
        assert cli.main(["export-inspect", "--model", str(p)]) == 3
        assert "duplicate layer name" in capsys.readouterr().err

    def write_non_utf8_name(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        # header is 13 bytes, then layer 0's u16 name length and its name "a"
        assert raw[15] == ord("a")
        raw[15] = 0xFF
        p.write_bytes(bytes(raw))
        return p

    def test_non_utf8_layer_name_is_a_format_error(self, tmp_path):
        p = self.write_non_utf8_name(tmp_path)
        with pytest.raises(FormatError, match="layer name is not UTF-8.*layer record 0"):
            import_model(p)

    def test_non_utf8_layer_name_exits_3(self, tmp_path, capsys):
        p = self.write_non_utf8_name(tmp_path)
        assert cli.main(["export-inspect", "--model", str(p)]) == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_invalid_scale_surfaces_as_format_error(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        # header is 13 bytes; layer "a": name_len u16 + 1 name byte + two u32
        # puts the f64 activation scale at offset 24. Zero it out.
        raw[24:32] = bytes(8)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="invalid record contents"):
            import_model(p)


def test_inspect_reports_header_and_layers(tmp_path):
    p = tmp_path / "m.dmq"
    export_model(p, small_model())
    text = inspect_model(p)
    assert text.endswith("\n")
    assert "weight bits 4" in text and "activation bits 8" in text
    assert "alpha" in text and "rescued" in text


def one_layer_file(path, bits_w, bits_a, c_in, exps=None, c_out=2):
    """A DMQ1 file written byte by byte, so it can hold what export_model
    refuses to write: one layer "a", zero weight codes."""
    exps = [0] * c_in if exps is None else exps
    raw = b"DMQ1" + struct.pack("<HBBBI", 1, bits_w, bits_a, 1, 1)
    raw += struct.pack("<H", 1) + b"a" + struct.pack("<II", c_in, c_out)
    raw += struct.pack("<d", 0.5) + struct.pack(f"<{c_out}d", *[0.25] * c_out)
    raw += struct.pack(f"<{c_in}d", *[0.5] * c_in) + bytes(exps)
    raw += bytes(_codes_nbytes(bits_w, c_in * c_out))
    path.write_bytes(raw)
    return path


class TestIntegerKernelHeadroom:
    """A model must run on the integer kernel: shifted weights within the
    32-bit lane, and bits_a + bits_w + max shift + ceil(log2 C_in) <= 63."""

    def test_a_fitting_hand_written_file_imports(self, tmp_path):
        # 24 + 24 + 3 + log2(64) = 57 bits
        p = one_layer_file(tmp_path / "ok.dmq", 24, 24, 64, exps=[3] + [0] * 63)
        assert import_model(p).layers[0].shifted_weights.max_shift == 3

    def test_a_budget_past_63_bits_is_a_format_error(self, tmp_path):
        # 32 + 32 + 0 + log2(64) = 70 bits
        p = one_layer_file(tmp_path / "wide.dmq", 32, 32, 64)
        with pytest.raises(FormatError, match=r"wide\.dmq.*'a'.*70 > 63"):
            import_model(p)

    def test_a_budget_past_63_bits_exits_3(self, tmp_path, capsys):
        p = one_layer_file(tmp_path / "wide.dmq", 32, 32, 64)
        assert cli.main(["export-inspect", "--model", str(p)]) == 3
        assert "70 > 63" in capsys.readouterr().err

    def test_an_exponent_past_the_weight_lane_is_a_format_error(self, tmp_path):
        p = one_layer_file(tmp_path / "e40.dmq", 4, 8, 6, exps=[0, 40, 0, 0, 0, 0])
        with pytest.raises(FormatError, match=r"e40\.dmq.*'a'.*weight lane"):
            import_model(p)

    def test_an_exported_exponent_set_to_40_exits_3(self, tmp_path, capsys):
        p = tmp_path / "m.dmq"
        model = small_model(names=("a",))
        export_model(p, model)
        raw = bytearray(p.read_bytes())
        layer = model.layers[0]
        # header 13 bytes, name length and "a", C_in and C_out, the
        # activation scale, then weight scales and divisors in f64
        at = 13 + 2 + 1 + 8 + 8 + 8 * layer.c_out + 8 * layer.c_in
        assert list(raw[at : at + layer.c_in]) == layer.pts_exponents.tolist()
        raw[at] = 40
        p.write_bytes(bytes(raw))
        assert cli.main(["export-inspect", "--model", str(p)]) == 3
        assert "weight lane" in capsys.readouterr().err

    def test_quantized_model_refuses_a_budget_past_63_bits(self):
        rng = Rng(3)
        w = rng.standard_normal((64, 2))
        wp = minmax_scale(w, 32, signed=True, axis=1)
        ap = QuantParams(0.5, 32, True)
        layer = QuantizedLayer("wide", quantize(w, wp), wp, ap, np.full(64, 0.5))
        with pytest.raises(FormatError, match="'wide'.*70 > 63"):
            QuantizedModel(32, 32, True, (layer,))
