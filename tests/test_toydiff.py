import hashlib
import importlib.util
import struct
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from denoq.errors import DimensionError, DomainError, FormatError, NumericalError
from denoq.pipeline import _layer_runner
from denoq.quant import QuantizedLayer, minmax_scale, quantize, quantized_matmul_reference
from denoq.tensor import Rng
from denoq.toydiff import (
    NoiseSchedule,
    ToyDenoiser,
    Trajectory,
    _silu,
    collect_calibration,
    ddim_step,
    ddim_timesteps,
    forward_noise,
    load_checkpoint,
    perturbation_sensitivity,
    ring_data,
    sample,
    save_checkpoint,
)

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "checkpoints" / "toy2d.ckpt"
# sha256 of the file scripts/make_checkpoint.py writes (seed 1337).
CHECKPOINT_SHA256 = "b39ec81d30819a94d569b40dfc738cee973297a669bc5e126e34d61083fd6783"


def offset_fields(raw: bytes) -> list[int]:
    """Byte position of each checkpoint table entry's u64 data offset."""
    (count,) = struct.unpack_from("<I", raw, 6)
    pos, fields = 10, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2 + name_len
        pos += 1 + 4 * raw[pos]
        fields.append(pos)
        pos += 8
    return fields


@pytest.fixture(scope="module")
def bundled():
    return load_checkpoint(CHECKPOINT)


def tiny_model(t_max=5, hidden=4, embed=3, seed=0):
    rng = Rng(seed)
    params = {
        "embed": rng.child("e").standard_normal((t_max + 1, embed)),
        "stem_w": rng.child("s").standard_normal((2 + embed, hidden)),
        "stem_b": rng.child("sb").standard_normal((hidden,)) * 0.1,
        "gain": np.ones(hidden),
        "res1_w": rng.child("r1").standard_normal((hidden, hidden)) * 0.5,
        "res2_w": rng.child("r2").standard_normal((hidden, hidden)) * 0.5,
        "skip_w": rng.child("sk").standard_normal((hidden, hidden)) * 0.5,
        "mid_w": rng.child("m").standard_normal((hidden, hidden)) * 0.5,
        "head_w": rng.child("h").standard_normal((hidden, 2)) * 0.5,
        "head_b": np.zeros(2),
    }
    return ToyDenoiser(params), NoiseSchedule.linear(t_max)


def load_script(name):
    """Import scripts/<name>.py as a module; its main() does not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The trainer keeps the SiLU formula the bundled checkpoint was trained with.
_trainer = load_script("make_checkpoint")


def old_silu(v):
    """The three-branch formula the trainer's _silu replaced, kept as its
    oracle."""
    ev = np.exp(-np.abs(v))
    sig = np.where(v >= 0, 1.0 / (1.0 + ev), ev / (1.0 + ev))
    return v * sig


def old_silu_prime(v):
    ev = np.exp(-np.abs(v))
    sig = np.where(v >= 0, 1.0 / (1.0 + ev), ev / (1.0 + ev))
    return sig * (1.0 + v * (1.0 - sig))


def new_silu(v):
    """The sampler's formula, written out in plain numpy."""
    with np.errstate(over="ignore"):
        return v / (1.0 + np.exp(-v))


def ulp_error(got: float, v: float, mpmath) -> float:
    """|got - silu(v)| in units in the last place of silu(v), exact silu
    from mpmath at 60 digits."""
    with mpmath.workdps(60):
        mv = mpmath.mpf(v)
        exact = mv / (1 + mpmath.exp(-mv))
        return float(abs(mpmath.mpf(got) - exact) / np.spacing(abs(float(exact))))


class TestSilu:
    EDGES = np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
         1e-300, -1e-300, 800.0, -800.0, 36.0, -36.0, 745.0, -745.0, 1.0, -1.0]
    )
    TRAINER = [(_trainer._silu, old_silu), (_trainer._silu_prime, old_silu_prime)]

    @staticmethod
    def batch(seed):
        rng = Rng(seed)
        return rng.standard_normal((257, 64)) * 10.0 ** rng.uniform(-3, 2, (257, 64))

    @pytest.mark.parametrize("fn,oracle", TRAINER)
    def test_edges_match_the_old_formula_bit_for_bit(self, fn, oracle):
        assert fn(self.EDGES).tobytes() == oracle(self.EDGES).tobytes()
        assert fn(self.EDGES[None, :]).tobytes() == oracle(self.EDGES[None, :]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fn,oracle", TRAINER)
    def test_random_batches_match_the_old_formula_bit_for_bit(self, seed, fn, oracle):
        v = self.batch(seed)
        before = v.copy()
        assert fn(v).tobytes() == oracle(v).tobytes()
        assert np.array_equal(v, before)  # the input is left alone

    def test_edges_match_the_formula_bit_for_bit(self):
        assert _silu(self.EDGES).tobytes() == new_silu(self.EDGES).tobytes()
        assert _silu(self.EDGES[None, :]).tobytes() == new_silu(self.EDGES[None, :]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches_match_the_formula_bit_for_bit(self, seed):
        v = self.batch(seed)
        assert _silu(v).tobytes() == new_silu(v).tobytes()
        out, ev = np.empty_like(v), np.empty_like(v)
        assert _silu(v, out, ev) is out
        assert out.tobytes() == new_silu(v).tobytes()

    def test_within_two_ulp_of_the_exact_value(self):
        mpmath = pytest.importorskip("mpmath")
        rng = Rng(7)
        mags = 10.0 ** rng.uniform(-8, np.log10(709.0), 3000)
        v = np.concatenate([mags, -mags, self.EDGES[self.EDGES >= -709.0], [-709.0, 709.0]])
        got = _silu(v)
        worst = max(ulp_error(g, x, mpmath) for g, x in zip(got, v) if x != 0.0)
        assert worst <= 2.0, worst
        assert got[v == 0.0].tobytes() == v[v == 0.0].tobytes()  # signed zeros kept

    @pytest.mark.parametrize("floating", [{}, {"all": "raise"}], ids=["default", "raise"])
    def test_far_below_the_overflow_point_gives_negative_zero_silently(self, floating):
        v = np.array([-709.79, -710.0, -745.0, -800.0, -1e300, -np.finfo(np.float64).max])
        with warnings.catch_warnings(), np.errstate(**floating):
            warnings.simplefilter("error")
            got = _silu(v)
        assert np.all(got == 0.0) and np.all(np.signbit(got))

    def test_input_is_left_alone_unless_it_is_out(self):
        v = self.batch(9)
        before = v.copy()
        want = new_silu(v).tobytes()
        assert _silu(v).tobytes() == want
        assert _silu(v, np.empty_like(v)).tobytes() == want
        assert _silu(v, None, np.empty_like(v)).tobytes() == want
        ev = np.empty_like(v)
        assert _silu(v, ev, ev).tobytes() == want  # the denominator may share out
        assert v.tobytes() == before.tobytes()
        assert _silu(v, v, np.empty_like(v)) is v
        assert v.tobytes() == want


class TestSchedule:
    def test_alpha_bar_starts_at_one_and_decreases(self):
        sched = NoiseSchedule.linear(1000)
        assert sched.alphas_cumprod[0] == 1.0
        assert np.all(np.diff(sched.alphas_cumprod) < 0)
        assert sched.t_max == 1000
        assert 0.0 < sched.alpha_bar(1000) < sched.alpha_bar(1)

    def test_rejects_betas_outside_open_interval(self):
        with pytest.raises(DomainError):
            NoiseSchedule(np.array([0.0, 0.01]))
        with pytest.raises(DomainError):
            NoiseSchedule(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            NoiseSchedule(np.array([]))

    def test_alpha_bar_range_check(self):
        sched = NoiseSchedule.linear(10)
        with pytest.raises(DomainError):
            sched.alpha_bar(-1)
        with pytest.raises(DomainError):
            sched.alpha_bar(11)


class TestForwardNoise:
    def test_t_zero_is_identity(self):
        sched = NoiseSchedule.linear(50)
        x0 = Rng(0).standard_normal((7, 2))
        out = forward_noise(sched, x0, 0, Rng(1))
        assert np.array_equal(out, x0)

    def test_variance_matches_closed_form(self):
        """Monte Carlo second moment of the diffused data must track
        alpha_bar * var(x0) + (1 - alpha_bar) per dimension."""
        sched = NoiseSchedule.linear(1000)
        rng = Rng(42)
        x0 = ring_data(rng.child("data"), 10_000)
        v0 = np.var(x0, axis=0)
        for t in (10, 500, 1000):
            xt = forward_noise(sched, x0, t, rng.child(f"noise-{t}"))
            ab = sched.alpha_bar(t)
            want = ab * v0 + (1.0 - ab)
            got = np.var(xt, axis=0)
            assert np.all(np.abs(got - want) / want < 0.05), (t, got, want)


class TestDdim:
    def test_grid_shape_and_bounds(self):
        grid = ddim_timesteps(1000, 20)
        assert grid[0] == 0 and grid[-1] == 1000
        assert len(grid) == 21
        assert np.all(np.diff(grid) > 0)

    def test_grid_degenerate_and_invalid(self):
        assert np.array_equal(ddim_timesteps(100, 1), [0, 100])
        with pytest.raises(DomainError):
            ddim_timesteps(100, 0)
        with pytest.raises(DomainError):
            ddim_timesteps(100, 101)

    def test_single_step_inverts_forward_noising(self):
        """Feeding the true noise back through one deterministic update to
        t_prev = 0 recovers the clean data to round-off."""
        sched = NoiseSchedule.linear(100)
        rng = Rng(3)
        x0 = rng.child("x0").standard_normal((9, 2))
        eps = rng.child("eps").standard_normal((9, 2))
        ab = sched.alpha_bar(60)
        x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        back = ddim_step(x_t, eps, 60, 0, sched)
        assert np.allclose(back, x0, atol=1e-12)

    def test_step_validation(self):
        sched = NoiseSchedule.linear(10)
        x = np.zeros((2, 2))
        with pytest.raises(DomainError):
            ddim_step(x, x, 3, 3, sched)
        with pytest.raises(DomainError):
            ddim_step(x, x, 3, 5, sched)
        with pytest.raises(DomainError):
            ddim_step(x, x, 5, 3, sched, eta=1.5)
        with pytest.raises(DomainError):
            ddim_step(x, x, 5, 3, sched, eta=0.5)  # stochastic but no noise
        with pytest.raises(DimensionError):
            ddim_step(np.zeros((2, 2)), np.zeros((3, 2)), 5, 3, sched)
        with pytest.raises(DomainError, match="eps_hat contains non-finite values"):
            ddim_step(x, np.full((2, 2), np.nan), 5, 3, sched)


class TestSample:
    def test_deterministic_under_a_seed(self):
        model, sched = tiny_model()
        t1 = sample(model, sched, 5, 6, Rng(11))
        t2 = sample(model, sched, 5, 6, Rng(11))
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.timesteps, t2.timesteps)

    def test_trajectory_layout(self):
        model, sched = tiny_model()
        traj = sample(model, sched, 5, 3, Rng(0))
        assert traj.states.shape == (6, 3, 2)
        assert np.array_equal(traj.endpoint, traj.states[-1])
        # model evaluations walk the grid from t_max down to the first hop
        assert np.array_equal(traj.timesteps, [5, 4, 3, 2, 1])

    def test_explicit_grid_and_x_init(self):
        model, sched = tiny_model(t_max=100)
        xi = Rng(5).standard_normal((4, 2))
        traj = sample(model, sched, np.array([0, 50, 100]), 4, Rng(6), x_init=xi)
        assert np.array_equal(traj.states[0], xi)
        # the same walk spelled out by hand
        e1 = model.forward(xi, 100)
        x1 = ddim_step(xi, e1, 100, 50, sched)
        e2 = model.forward(x1, 50)
        x2 = ddim_step(x1, e2, 50, 0, sched)
        assert np.array_equal(traj.states[1], x1)
        assert np.array_equal(traj.states[2], x2)

    def test_grid_validation(self):
        model, sched = tiny_model(t_max=100)
        with pytest.raises(DomainError):
            sample(model, sched, np.array([10, 50, 100]), 2, Rng(0))
        with pytest.raises(DomainError):
            sample(model, sched, np.array([0, 50, 50, 100]), 2, Rng(0))
        with pytest.raises(DomainError):
            sample(model, sched, np.array([0, 100, 50]), 2, Rng(0))

    def test_x_init_must_match_the_batch(self):
        model, sched = tiny_model(t_max=100)
        for shape in [(3, 2), (5, 2), (4, 3), (8,)]:
            with pytest.raises(DimensionError, match="x_init"):
                sample(model, sched, 5, 4, Rng(6), x_init=np.zeros(shape))

    def test_eta_adds_seeded_stochasticity(self):
        model, sched = tiny_model(t_max=50)
        xi = Rng(7).standard_normal((4, 2))
        a = sample(model, sched, 5, 4, Rng(8), eta=0.5, x_init=xi)
        b = sample(model, sched, 5, 4, Rng(8), eta=0.5, x_init=xi)
        c = sample(model, sched, 5, 4, Rng(8), eta=0.0, x_init=xi)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.endpoint, c.endpoint)

    def test_trajectory_shape_contract(self):
        with pytest.raises(DimensionError):
            Trajectory(np.zeros((3, 2, 2)), np.zeros(1, dtype=np.int64), 0.0)

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_rows_run_their_trajectories_of_the_whole_batch(self, eta):
        """Rows cut at multiples of 64, as the row shares are."""
        model, sched = tiny_model(t_max=20)
        rng = Rng(9)
        whole = sample(model, sched, 5, 192, rng, eta=eta)
        after = rng.standard_normal(4)
        for rows in (slice(0, 64), slice(64, 192), slice(128, 192)):
            rng = Rng(9)
            part = sample(model, sched, 5, 192, rng, eta=eta, rows=rows)
            assert part.states.tobytes() == whole.states[:, rows].tobytes()
            assert np.array_equal(part.timesteps, whole.timesteps)
            assert np.array_equal(rng.standard_normal(4), after)

    def test_rows_must_be_a_contiguous_part_of_the_batch(self):
        model, sched = tiny_model()
        for rows in (slice(2, 2), slice(0, 4, 2), slice(None, 2), slice(1, 5)):
            with pytest.raises(DomainError, match="rows"):
                sample(model, sched, 5, 4, Rng(0), rows=rows)

    def test_a_non_finite_model_output_names_its_step(self):
        model, sched = tiny_model(t_max=20)
        calls = []

        def mid(a):
            calls.append(1)
            out = a @ model.params["mid_w"]
            return out * np.inf if len(calls) == 3 else out

        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalError,
            match=r"^sampler step 3 of 5 \(t = 12\): the model output contains "
            "non-finite values$",
        ):
            sample(model, sched, 5, 4, Rng(0), overrides={"mid": mid})


class TestModel:
    def test_requires_all_parameters(self):
        model, _ = tiny_model()
        broken = dict(model.params)
        del broken["mid_w"]
        with pytest.raises(DomainError, match="mid_w"):
            ToyDenoiser(broken)

    def test_shape_and_gain_validation(self):
        model, _ = tiny_model()
        bad = dict(model.params)
        bad["res1_w"] = np.zeros((3, 4))
        with pytest.raises(DimensionError):
            ToyDenoiser(bad)
        bad = dict(model.params)
        bad["gain"] = np.array([1.0, 1.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            ToyDenoiser(bad)

    def test_forward_validation(self):
        model, _ = tiny_model(t_max=5)
        with pytest.raises(DomainError):
            model.forward(np.zeros((2, 2)), 6)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 3)), 1)

    def test_skip_layer_is_tagged(self):
        model, _ = tiny_model()
        tags = {s.name: s.tags for s in model.quantizable_layers()}
        assert tags["skip"] == ("skip_connection",)
        assert tags["res1"] == ()
        with pytest.raises(DomainError):
            model.layer_weight("stem")

    def test_overrides_replace_a_matmul(self):
        model, _ = tiny_model()
        x = Rng(1).standard_normal((3, 2))
        base = model.forward(x, 2)
        zeroed = model.forward(
            x, 2, overrides={"mid": lambda a: np.zeros((a.shape[0], model.hidden))}
        )
        assert not np.allclose(base, zeroed)
        # with the mid product zeroed, silu(0) = 0 leaves only the head bias
        assert np.allclose(zeroed, model.params["head_b"][None, :], atol=1e-15)


class TestCalibration:
    def test_row_counts_and_timesteps(self):
        model, sched = tiny_model(t_max=20)
        records = collect_calibration(model, sched, 4, 6, Rng(0))
        assert set(records) == {"res1", "res2", "skip", "mid"}
        grid = ddim_timesteps(20, 4)
        for rec in records.values():
            assert rec.activations.shape == (6 * 4, model.hidden)
            assert set(rec.timesteps) == set(grid[1:].tolist())
        assert np.array_equal(records["skip"].weight, model.params["skip_w"])

    def test_rejects_empty_run(self):
        model, sched = tiny_model()
        with pytest.raises(DomainError):
            collect_calibration(model, sched, 4, 0, Rng(0))

    def test_named_layers_record_the_same_rows(self):
        model, sched = tiny_model(t_max=20)
        full = collect_calibration(model, sched, 4, 6, Rng(0), eta=0.5)
        some = collect_calibration(model, sched, 4, 6, Rng(0), eta=0.5, layers=["mid", "res1"])
        assert set(some) == {"res1", "mid"}
        for name, rec in some.items():
            assert rec.activations.tobytes() == full[name].activations.tobytes()
            assert np.array_equal(rec.timesteps, full[name].timesteps)
        with pytest.raises(DomainError, match="stem"):
            collect_calibration(model, sched, 4, 6, Rng(0), layers=["stem"])

    def test_rows_are_laid_out_step_by_step(self):
        """Row step * n + r holds trajectory r at the step-th timestep."""
        model, sched = tiny_model(t_max=20)
        records = collect_calibration(model, sched, 4, 6, Rng(0), layers=["res1"])
        seen = []

        def keep(a):
            seen.append(a.copy())
            return a @ model.layer_weight("res1")

        traj = sample(model, sched, 4, 6, Rng(0), overrides={"res1": keep})
        rec = records["res1"]
        assert rec.activations.tobytes() == np.concatenate(seen).tobytes()
        assert rec.timesteps.tolist() == [t for t in traj.timesteps.tolist() for _ in range(6)]
        assert rec.timesteps.tolist() == np.repeat([20, 15, 10, 5], 6).tolist()


class TestCheckpointFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        model, sched = tiny_model(seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, sched)
        m2, s2 = load_checkpoint(p1)
        save_checkpoint(p2, m2, s2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(s2.betas, sched.betas.astype(np.float32))
        for k, v in m2.params.items():
            assert v.dtype == np.float64
            assert np.array_equal(v, model.params[k].astype(np.float32))

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(p)

    def test_rejects_unknown_version(self, tmp_path):
        model, sched = tiny_model()
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, model, sched)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(p)

    def test_rejects_truncated_tensor_data(self, tmp_path):
        model, sched = tiny_model()
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, model, sched)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(p)

    def test_rejects_truncated_table(self, tmp_path):
        model, sched = tiny_model()
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, model, sched)
        p.write_bytes(p.read_bytes()[:12])
        with pytest.raises(FormatError, match="table entry"):
            load_checkpoint(p)

    def test_rejects_non_utf8_tensor_name(self, tmp_path):
        """Byte 12 is the first byte of the first tensor name."""
        raw = bytearray(CHECKPOINT.read_bytes())
        raw[12] ^= 0x80
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_checkpoint(p)

    def test_rejects_tensor_name_past_the_end(self, tmp_path):
        model, sched = tiny_model()
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, model, sched)
        raw = p.read_bytes()
        name_len = int.from_bytes(raw[10:12], "little")
        p.write_bytes(raw[: 12 + name_len - 1])
        with pytest.raises(FormatError, match="table entry 0"):
            load_checkpoint(p)


    def test_rejects_trailing_bytes(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(CHECKPOINT.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="2 unexpected trailing bytes"):
            load_checkpoint(p)

    def test_rejects_repeated_tensor_name(self, tmp_path):
        # the table precedes the data, so the first match is head_w's name
        raw = CHECKPOINT.read_bytes().replace(b"head_w", b"head_b", 1)
        p = tmp_path / "x.ckpt"
        p.write_bytes(raw)
        with pytest.raises(FormatError, match="'head_b' appears twice"):
            load_checkpoint(p)

    @pytest.mark.parametrize("entry,shift", [(0, 4), (1, -4), (1, 4), (10, -4)])
    def test_rejects_records_that_do_not_tile_the_data(self, tmp_path, entry, shift):
        """A gap before a record, or an overlap with the one before it."""
        raw = bytearray(CHECKPOINT.read_bytes())
        field = offset_fields(raw)[entry]
        (offset,) = struct.unpack_from("<Q", raw, field)
        struct.pack_into("<Q", raw, field, offset + shift)
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="no gap or overlap"):
            load_checkpoint(p)

    def test_rejects_dims_past_the_file(self, tmp_path):
        """embed is 2-d; dims whose product overflows int64 are still too big."""
        raw = bytearray(CHECKPOINT.read_bytes())
        field = offset_fields(raw)[1]
        assert raw[field - 9] == 2
        raw[field - 8 : field] = b"\xff" * 8
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="'embed' data truncated"):
            load_checkpoint(p)


def write_tensors(path, tensors):
    """A well-framed checkpoint holding exactly these tensors."""
    params = {k: v for k, v in tensors.items() if k != "betas"}
    save_checkpoint(path, SimpleNamespace(params=params), SimpleNamespace(betas=tensors["betas"]))


def bad_contents():
    """A change to the tiny model's tensors and what the error names."""
    def nan_weight(t):
        t["res1_w"][1, 2] = np.nan

    def misshapen(t):
        t["stem_b"] = t["stem_b"][None, :]

    def short_bias(t):
        t["head_b"] = t["head_b"][:1]

    def zero_gain(t):
        t["gain"][0] = 0.0

    def bad_betas(t):
        t["betas"][2] = 1.5

    def nan_betas(t):
        t["betas"][0] = np.nan

    def missing(t):
        del t["mid_w"]

    return [
        pytest.param(nan_weight, "res1_w contains non-finite values", id="nan_weight"),
        pytest.param(misshapen, "stem_b must be 1-d", id="misshapen"),
        pytest.param(short_bias, "head_b must have 2 entries", id="short_bias"),
        pytest.param(zero_gain, "gain factors must be strictly positive", id="zero_gain"),
        pytest.param(bad_betas, "betas must lie strictly inside", id="bad_betas"),
        pytest.param(nan_betas, "betas contains non-finite values", id="nan_betas"),
        pytest.param(missing, "mid_w", id="missing"),
    ]


def write_bad_checkpoint(path, change):
    model, sched = tiny_model()
    tensors = {k: v.copy() for k, v in model.params.items()}
    tensors["betas"] = sched.betas.copy()
    change(tensors)
    write_tensors(path, tensors)


class TestCheckpointContents:
    """A well-framed file whose tensors make no model is a format error."""

    @pytest.mark.parametrize("change,why", bad_contents())
    def test_bad_contents_are_format_errors(self, tmp_path, change, why):
        p = tmp_path / "bad.ckpt"
        write_bad_checkpoint(p, change)
        with pytest.raises(FormatError, match="invalid checkpoint contents") as info:
            load_checkpoint(p)
        assert why in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_a_signalling_nan_is_refused_without_a_warning(self, tmp_path):
        """The float32 record is checked before it is widened, and widening
        a signalling NaN is what would warn."""
        model, sched = tiny_model()
        p = tmp_path / "snan.ckpt"
        save_checkpoint(p, model, sched)
        raw = bytearray(p.read_bytes())
        raw[-4:] = struct.pack("<I", 0x7FA00000)  # last value of stem_w
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="stem_w contains non-finite values"):
            load_checkpoint(p)

    def test_untouched_tensors_still_load(self, tmp_path):
        p = tmp_path / "ok.ckpt"
        write_bad_checkpoint(p, lambda t: None)
        model, sched = load_checkpoint(p)
        assert sched.t_max == 5 and model.hidden == 4


class TestBundledCheckpoint:
    def test_bytes_match_the_pinned_sha256(self):
        """A retrained or corrupted checkpoint fails here by name."""
        assert hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest() == CHECKPOINT_SHA256

    def test_loads_and_matches_schedule(self, bundled):
        model, sched = bundled
        assert model.t_table_max == sched.t_max == 1000
        assert model.dim == 2

    def test_skip_branch_carries_manufactured_outliers(self, bundled):
        """The shipped model has a skip input whose widest channel dwarfs the
        typical one — the pathology the scaling stages exist to fix."""
        model, sched = bundled
        records = collect_calibration(model, sched, 20, 16, Rng(0))
        colmax = np.max(np.abs(records["skip"].activations), axis=0)
        ratio = colmax.max() / np.median(colmax)
        assert ratio > 10.0, ratio
        assert np.max(model.params["gain"]) > 100.0

    def test_few_step_endpoint_tracks_dense_endpoint(self, bundled):
        model, sched = bundled
        xi = Rng(5).standard_normal((8, 2))
        fast = sample(model, sched, 20, 8, Rng(6), x_init=xi)
        dense = sample(model, sched, 1000, 8, Rng(6), x_init=xi)
        gap = float(np.mean((fast.endpoint - dense.endpoint) ** 2))
        assert gap < 0.05, gap

    def test_perturbation_sensitivity_reports_both_ends(self, bundled):
        model, sched = bundled
        out = perturbation_sensitivity(model, sched, 10, 4, Rng(1))
        assert set(out) == {"early", "late"}
        assert all(np.isfinite(v) and v >= 0 for v in out.values())


def served_layers(model, sched, budget):
    """A QuantizedLayer per quantizable layer of the bundled model whose
    accumulator budget is exactly `budget` bits: 8-bit activations, 7-bit
    weights, 64 channels (6 bits) and rescue exponents up to budget - 21."""
    records = collect_calibration(model, sched, 5, 4, Rng(1))
    shift = budget - 21
    layers = {}
    for spec in model.quantizable_layers():
        rng = Rng(budget).child(spec.name)
        record = records[spec.name]
        tau = np.exp(rng.uniform(-0.5, 0.5, spec.c_in))
        act = minmax_scale(record.activations / tau, 8)
        w_hat = record.weight * tau[:, None]
        wp = minmax_scale(w_hat, 7, axis=1)
        delta = rng.integers(0, shift + 1, spec.c_in)
        delta[0] = shift
        layer = QuantizedLayer(
            spec.name, quantize(w_hat, wp), wp, act, tau * act.scale, delta
        )
        assert layer.accumulator_budget == budget
        layers[spec.name] = layer
    return layers


class TestServedForward:
    """sample() hands every forward call of a run one set of buffers; the
    quantized layers run on activation_codes -> execute -> dequantize_output,
    in float32 codes up to 24 bits and int64 codes above."""

    @pytest.mark.parametrize("budget", [24, 25])
    def test_integer_runners_equal_the_reference_path(self, bundled, budget):
        model, sched = bundled
        layers = served_layers(model, sched, budget)
        xi = Rng(2).standard_normal((64, 2))

        def run(overrides):
            return sample(model, sched, 20, 64, Rng(3), overrides=overrides, x_init=xi)

        served = run({n: _layer_runner(l) for n, l in layers.items()})
        ref = run({n: (lambda a, l=l: quantized_matmul_reference(a, l)) for n, l in layers.items()})
        assert served.states.tobytes() == ref.states.tobytes()
        assert not np.array_equal(served.endpoint, run(None).endpoint)

    def test_alternating_batch_sizes_repeat_bit_for_bit(self, bundled):
        model, sched = bundled
        overrides = {n: _layer_runner(l) for n, l in served_layers(model, sched, 24).items()}
        runs = [
            sample(model, sched, 10, batch, Rng(batch), overrides=overrides).states.tobytes()
            for batch in (3, 40, 3, 40, 3)
        ]
        assert runs[0] == runs[2] == runs[4] and runs[1] == runs[3]

    def test_forward_writes_no_array_it_did_not_make(self, bundled):
        """x and every override's product are left as they were, also
        through later calls that reuse the buffers."""
        model, _ = bundled
        x = Rng(4).standard_normal((5, 2))
        x_before = x.copy()
        products = []

        def product(name):
            def run(a):
                out = a @ model.layer_weight(name)
                products.append((out, out.copy()))
                return out
            return run

        overrides = {s.name: product(s.name) for s in model.quantizable_layers()}
        buffers = model.forward_buffers(5)
        for t in (7, 3, 11):
            eps = model.forward(x, t, overrides=overrides, buffers=buffers)
            assert eps.tobytes() == model.forward(x, t).tobytes()
        assert x.tobytes() == x_before.tobytes()
        assert len(products) == 12
        assert all(a.tobytes() == kept.tobytes() for a, kept in products)

    @pytest.mark.parametrize("overridden", [(), ("res2",), ("res1", "mid"), ("skip",)])
    def test_products_in_buffers_equal_the_plain_forward(self, bundled, overridden):
        """Layer products written into the shared buffers give the bits of
        the architecture written out with fresh arrays, whichever layers an
        override takes, over calls that reuse the buffers."""
        model, _ = bundled
        p = model.params
        x = Rng(6).standard_normal((7, 2))
        overrides = {
            name: (lambda a, name=name: a @ model.layer_weight(name) * 1.0)
            for name in overridden
        }

        def plain(t):
            h1 = _silu(np.concatenate([x, np.tile(p["embed"][t], (7, 1))], 1) @ p["stem_w"]
                       + p["stem_b"])
            r = _silu(h1 @ p["res1_w"]) @ p["res2_w"]
            h4 = _silu(r + (h1 * p["gain"]) @ p["skip_w"])
            return _silu(h4 @ p["mid_w"]) @ p["head_w"] + p["head_b"]

        buffers = model.forward_buffers(7)
        for t in (9, 2, 14, 2):
            got = model.forward(x, t, overrides=overrides, buffers=buffers)
            assert got.tobytes() == plain(t).tobytes()

    def test_buffers_must_match_the_batch(self, bundled):
        model, _ = bundled
        with pytest.raises(DimensionError):
            model.forward(np.zeros((4, 2)), 3, buffers=model.forward_buffers(5))


def test_ring_data_statistics():
    pts = ring_data(Rng(0), 4000)
    assert pts.shape == (4000, 2)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert 1.2 < np.mean(radii) < 1.6
    assert np.all(np.abs(np.mean(pts, axis=0)) < 0.1)
