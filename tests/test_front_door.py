"""The command line as a front door: whatever the config values and flags,
a run either exits 0 with nothing on stderr, or prints exactly one
`error:` line and exits 2, 3 or 4. A traceback or a warning fails it."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denoq import cli

CHECKPOINT = Path(__file__).resolve().parent.parent / "checkpoints" / "toy2d.ckpt"

# Tiny n, T and iterations keep a run to a few milliseconds.
_BASE = {"n": "2", "T": "2", "iterations": "2", "B": "4", "D": "2", "seed": "0"}

_EDGES = st.sampled_from([-1.0, 0.0, 5e-324, 1.0, 1e308, math.inf, -math.inf, math.nan])
# 20 and 22 sit on both sides of the 53-bit budget: with D = 2 counted
# on the skip layer, 22/22 needs 52 bits and 24/22 needs 54.
_BITS = st.one_of(st.integers(2, 16), st.sampled_from([1, 20, 22, 24, 31, 32, 33]))
_FIELDS = {
    "bits_w": _BITS,
    "bits_a": _BITS,
    "T": st.integers(0, 3),
    "n": st.integers(0, 3),
    "B": st.integers(0, 8),
    "iterations": st.integers(0, 3),
    "alpha": st.one_of(st.floats(0.0, 4.0), _EDGES),
    "kappa": st.one_of(st.floats(0.0, 1.0), _EDGES),
    "xi": st.one_of(st.floats(0.0, 1.0), _EDGES),
    "lr": st.one_of(st.floats(1e-6, 10.0), _EDGES),
    "eta": st.one_of(st.floats(0.0, 1.0), _EDGES),
    "D": st.integers(-1, 17),
    "pts_layers": st.sampled_from(["skip_only", "all", "none", "some"]),
    "les": st.booleans(),
    "baseline": st.sampled_from(["none", "smoothquant", "awq"]),
    "seed": st.integers(-3, 2**40),
    "optimizer": st.sampled_from(["gd", "adam", "sgd"]),
    "scale_refresh": st.integers(0, 3),
    "propagate_quantized_inputs": st.booleans(),
    "act_unsigned": st.booleans(),
}
# A few fields at a time, so that most runs get past the config check.
_VALUES = st.lists(st.sampled_from(sorted(_FIELDS)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _FIELDS[k] for k in keys})
)
_FLAGS = st.fixed_dictionaries(
    {},
    optional={
        "--seed": st.integers(-3, 5),
        "--les": st.sampled_from(["on", "off"]),
        "--pts": st.sampled_from(["skip_only", "all", "none"]),
        "--baseline": st.sampled_from(["none", "smoothquant"]),
    },
)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _main(argv) -> tuple:
    """cli.main(argv) with every warning an error: (exit code, stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


def _assert_front_door(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 3, 4)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=_VALUES, flags=_FLAGS)
@example(values={"seed": -1}, flags={})
@example(values={}, flags={"--seed": -1})
@example(values={"lr": math.inf}, flags={})
@example(values={"lr": 1e308}, flags={})
@example(values={"alpha": math.inf}, flags={})
def test_every_run_exits_0_or_prints_one_error_line(values, flags):
    fields = dict(_BASE, **{k: _text(v) for k, v in values.items()})
    fields["checkpoint"] = str(CHECKPOINT)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        opts = [str(a) for kv in flags.items() for a in kv]
        model = str(Path(tmp) / "m.dmq")
        code, err = _main(["quantize", "--config", str(cfg), "--out", model] + opts)
        _assert_front_door(code, err)
        if code == 0:
            seed = ["--seed", str(flags["--seed"])] if "--seed" in flags else []
            _assert_front_door(*_main(["eval", "--config", str(cfg), "--model", model] + seed))


@pytest.mark.parametrize("bits_w,code", [(22, 0), (24, 2)])
def test_the_53_bit_budget_at_the_front_door(tmp_path, bits_w, code):
    """With 22-bit activations and D = 2 counted on the skip layer, 22-bit
    weights need 52 bits and run; 24-bit weights need 54 and are refused
    with one error line."""
    fields = dict(_BASE, bits_w=bits_w, bits_a=22, checkpoint=CHECKPOINT)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    got, err = _main(["quantize", "--config", str(cfg), "--out", str(tmp_path / "m.dmq")])
    _assert_front_door(got, err)
    assert got == code
    assert ("'skip'" in err and "54 > 53" in err) if code else err == ""


@pytest.mark.parametrize(
    "line,flags",
    [("seed = -1", []), ("seed = 0", ["--seed", "-1"])],
    ids=["config key", "flag"],
)
def test_a_negative_seed_exits_2(tmp_path, line, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"checkpoint = {CHECKPOINT}\nn = 2\nT = 2\niterations = 2\n{line}\n")
    code, err = _main(["quantize", "--config", str(cfg), "--out", str(tmp_path / "m.dmq")] + flags)
    assert (code, err) == (2, "error: seed must be >= 0, got -1\n")
