"""Both binary parsers against mutated copies of valid files.

A truncation, a flip of one to four bytes, or a splice of a valid DMQ1 model
file or TDN1 checkpoint has exactly two acceptable outcomes:
- the parser raises FormatError itself (not a subclass, not another
  DenoqError, not any other exception);
- it returns a model that writes back to exactly the mutated bytes, so
  nothing in the file was ignored or normalised on the way in.

A mutation is drawn as a recipe and applied to the file bytes inside the
test, so that mutants found by the search can be pinned with @example.
Warnings are errors here: a parser refuses a file without printing one.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denoq.errors import FormatError
from denoq.modelfile import QuantizedModel, export_model, import_model
from denoq.quant import QuantParams, QuantizedLayer, minmax_scale, quantize
from denoq.tensor import Rng
from denoq.toydiff import NoiseSchedule, ToyDenoiser, load_checkpoint, save_checkpoint

_INDEX = st.integers(0, 2**16)


def mutations():
    """(kind, arguments) recipes; positions are reduced modulo the file."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 1), _INDEX),
        st.tuples(
            st.just("flip"),
            st.integers(0, 1),
            st.lists(st.tuples(_INDEX, st.integers(1, 255)), min_size=1, max_size=4),
        ),
        st.tuples(
            st.just("splice"),
            st.integers(0, 1),
            st.integers(0, 1),
            st.tuples(_INDEX, _INDEX),
            st.tuples(_INDEX, _INDEX),
        ),
    )


def mutate(files, recipe) -> bytes:
    """Apply a recipe to one of the valid files."""
    kind, which, *args = recipe
    raw = files[which % len(files)]
    if kind == "truncate":
        return raw[: args[0] % len(raw)]
    if kind == "flip":
        out = bytearray(raw)
        for at, mask in args[0]:
            out[at % len(raw)] ^= mask
        return bytes(out)
    donor = files[args[0] % len(files)]
    i, j = sorted(v % (len(raw) + 1) for v in args[1])
    k, l = sorted(v % (len(donor) + 1) for v in args[2])
    return raw[:i] + donor[k:l] + raw[j:]


def dmq1_model(bits_w, act_signed, shapes, seed):
    rng = Rng(seed)
    layers = []
    for i, (c_in, c_out) in enumerate(shapes):
        w = rng.child(f"w{i}").standard_normal((c_in, c_out))
        wp = minmax_scale(w, bits_w, signed=True, axis=1)
        ap = QuantParams(0.03125, 8, act_signed)
        tau = np.exp(rng.child(f"t{i}").uniform(-1, 1, c_in))
        exps = rng.child(f"d{i}").integers(0, 3, c_in)
        layers.append(QuantizedLayer(f"l{i}", quantize(w, wp), wp, ap, tau * ap.scale, exps))
    return QuantizedModel(bits_w, 8, act_signed, tuple(layers))


def tdn1_model(seed):
    rng = Rng(seed)
    t_max, hidden, embed = 3, 2, 2
    params = {
        "embed": rng.child("e").standard_normal((t_max + 1, embed)),
        "stem_w": rng.child("s").standard_normal((2 + embed, hidden)),
        "stem_b": rng.child("sb").standard_normal(hidden),
        "gain": np.array([1.0, 64.0]),
        "head_w": rng.child("h").standard_normal((hidden, 2)),
        "head_b": rng.child("hb").standard_normal(2),
    }
    for name in ("res1_w", "res2_w", "skip_w", "mid_w"):
        params[name] = rng.child(name).standard_normal((hidden, hidden))
    return ToyDenoiser(params), NoiseSchedule.linear(t_max)


@dataclass
class Corpus:
    dir: Path
    files: dict = field(repr=False)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Scratch directory plus the valid files of each format, as bytes.

    DMQ1: one 3 x 3 layer of 4-bit codes (an odd count, so the last byte
    carries a pad nibble) with signed activations, and two 8-bit layers
    with unsigned activations. TDN1: two tiny checkpoints of one shape.
    """
    d = tmp_path_factory.mktemp("mutants")
    dmq1 = []
    for n, model in enumerate(
        (dmq1_model(4, True, [(3, 3)], 0), dmq1_model(8, False, [(2, 3), (3, 1)], 1))
    ):
        export_model(d / f"valid{n}.dmq", model)
        dmq1.append((d / f"valid{n}.dmq").read_bytes())
    tdn1 = []
    for n in range(2):
        save_checkpoint(d / f"valid{n}.ckpt", *tdn1_model(n))
        tdn1.append((d / f"valid{n}.ckpt").read_bytes())
    assert len(dmq1[0]) == 89  # the pinned examples below flip its last byte
    return Corpus(d, {"dmq1": dmq1, "tdn1": tdn1})


def assert_format_error_or_round_trip(raw, path, read, write):
    path.write_bytes(raw)
    try:
        loaded = read(path)
    except FormatError as exc:
        assert type(exc) is FormatError, f"{type(exc).__name__}: {exc}"
        return
    again = path.with_suffix(".again")
    write(again, loaded)
    assert again.read_bytes() == raw


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(recipe=mutations())
@example(recipe=("flip", 0, [(8, 0x82)]))  # flags 0x01 -> 0x83
@example(recipe=("flip", 0, [(88, 0x10)]))  # the last byte's pad nibble
def test_dmq1_mutants_are_refused_or_round_trip(corpus, recipe):
    assert_format_error_or_round_trip(
        mutate(corpus.files["dmq1"], recipe), corpus.dir / "mutant.dmq", import_model, export_model
    )


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(recipe=mutations())
def test_tdn1_mutants_are_refused_or_round_trip(corpus, recipe):
    assert_format_error_or_round_trip(
        mutate(corpus.files["tdn1"], recipe),
        corpus.dir / "mutant.ckpt",
        load_checkpoint,
        lambda path, loaded: save_checkpoint(path, *loaded),
    )
