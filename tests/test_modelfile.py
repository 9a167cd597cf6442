import numpy as np
import pytest

from denoq import cli
from denoq.errors import DomainError, FormatError
from denoq.modelfile import (
    QuantizedModel,
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
