"""A tiny 2-d denoising diffusion testbed with a deliberately ugly layer.

The quantization machinery in this package needs a subject that is cheap
enough to sample hundreds of times in a test run yet still shows the failure
mode it was built for: activation channels whose magnitudes dwarf the rest
of the tensor. This module provides that subject:

* a cosine-free linear noise schedule with alpha_bar(0) = 1,
* a small MLP noise predictor over 2-d points with a learned timestep
  embedding table, one residual block, and a skip branch whose input is
  intentionally un-normalized: a per-channel feature gain blows a few
  channels up by large recorded factors (the consumer's weight rows are
  divided by the same factors, so the function is unchanged but the
  activation statistics are pathological),
* a deterministic DDIM-style sampler with one per-layer hook (overrides)
  and calibration capture built on it; sample_endpoint splits a large run,
  capture included, by trajectories into row shares over the usable CPUs
  (see _row_shares), with the bits of one whole run,
* a documented binary checkpoint format so a trained model can be committed
  and reloaded byte for byte (scripts/make_checkpoint.py trains the bundled
  one).

Checkpoint format (all integers little-endian):

    offset 0   magic, 4 bytes: "TDN1"
    offset 4   version, u16 (currently 1)
    offset 6   tensor count, u32
    offset 10  table, one entry per tensor:
                   name length, u16
                   name, utf-8 bytes
                   ndim, u8
                   dims, u32 each
                   data offset, u64 (absolute, points into the data region)
    data       float32 values, row-major, at the recorded offsets; the
               records follow each other in table order from the end of
               the table to the end of the file, with no gap or overlap

Weights live in the file as float32; everything is widened to float64 on
load and math runs in float64 throughout.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import DenoqError, DimensionError, DomainError, FormatError, NumericalError
from .les import LayerCalibRecord
from .tensor import Rng, as_real

CHECKPOINT_MAGIC = b"TDN1"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Noise schedule and forward process
# ---------------------------------------------------------------------------


class NoiseSchedule:
    """Variance schedule beta_1..beta_T and the cumulative alpha_bar curve.

    alpha_bar(0) is pinned to exactly 1 so that integer timestep 0 means
    "clean data". alpha_bar is strictly decreasing because every factor
    (1 - beta_t) lies strictly inside (0, 1).
    """

    def __init__(self, betas):
        betas = as_real(betas, "betas").reshape(-1)
        if betas.size < 1:
            raise DomainError("a schedule needs at least one step")
        if np.any((betas <= 0.0) | (betas >= 1.0)):
            raise DomainError("all betas must lie strictly inside (0, 1)")
        self.betas = betas
        self.alphas_cumprod = np.concatenate([[1.0], np.cumprod(1.0 - betas)])

    @classmethod
    def linear(cls, t_max: int, beta_start: float = 1e-4, beta_end: float = 0.02):
        if t_max < 1:
            raise DomainError("t_max must be >= 1")
        return cls(np.linspace(beta_start, beta_end, t_max))

    @property
    def t_max(self) -> int:
        return self.betas.shape[0]

    def alpha_bar(self, t: int) -> float:
        if not (0 <= t <= self.t_max):
            raise DomainError(f"timestep {t} outside [0, {self.t_max}]")
        return float(self.alphas_cumprod[t])


def forward_noise(schedule: NoiseSchedule, x0, t: int, rng: Rng) -> np.ndarray:
    """Diffuse clean data to timestep t:

        x_t = sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * noise

    with noise drawn fresh from rng. t = 0 returns x0 unchanged.
    """
    x0 = as_real(x0, "x0")
    ab = schedule.alpha_bar(t)
    eps = rng.standard_normal(x0.shape)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


# ---------------------------------------------------------------------------
# The denoiser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """Metadata for one matmul site the pipeline may quantize."""

    name: str
    c_in: int
    c_out: int
    tags: tuple = ()


_PARAM_SHAPES = (
    "betas",
    "embed",
    "stem_w",
    "stem_b",
    "gain",
    "res1_w",
    "res2_w",
    "skip_w",
    "mid_w",
    "head_w",
    "head_b",
)


def _silu(v, out=None, ev=None):
    """silu(v) = v / (1 + exp(-v)) in four passes, into out (which may be v)
    or a new array; ev (not v) takes the denominator. Within 2 ulp for
    v >= -709. Below -709.78, exp(-v) overflows to inf without a warning
    and the result is -0.0; the true value is under 2e-306 in magnitude.
    """
    ev = np.negative(v, out=ev)
    with np.errstate(over="ignore"):
        np.exp(ev, out=ev)
    np.add(ev, 1.0, out=ev)
    return np.divide(v, ev, out=out)


class _ForwardBuffers:
    """The arrays one ToyDenoiser.forward writes, for a batch of B rows.

    sample() makes one set per call and hands it to every forward of that
    call, so a trajectory does not allocate these per step and nothing
    outlives the call. forward writes only into these arrays, and each
    layer product without an override is written straight into one:
        h0      the stem input [x, embed[t]];
        h       the stem activation, then the skip input, then the mid
                product and its activation;
        r       the res1 product and its activation, then the skip
                product, the residual sum and its activation;
        s       the res2 product;
        ev      SiLU's denominator 1 + exp(-v).
    """

    def __init__(self, batch: int, width: int, hidden: int):
        self.batch = batch
        self.h0 = np.empty((batch, width))
        self.h, self.r, self.s, self.ev = (np.empty((batch, hidden)) for _ in range(4))


class ToyDenoiser:
    """Noise predictor eps(x_t, t) over 2-d points.

    Architecture (H hidden units, E embedding width):

        h0 = concat(x, embed[t])                    stem input
        h1 = silu(h0 @ stem_w + stem_b)             full precision stem
        r  = silu(h1 @ res1_w)                      quantizable "res1"
        r  = r @ res2_w                             quantizable "res2"
        sk = (h1 * gain) @ skip_w                   quantizable "skip",
                                                    tagged skip_connection
        h4 = silu(r + sk)
        m  = silu(h4 @ mid_w)                       quantizable "mid"
        out = m @ head_w + head_b                   full precision head

    The quantizable sites carry no biases. gain is the recorded vector of
    manufactured per-channel factors on the skip branch input; it is all
    ones straight out of training.
    """

    dim = 2

    def __init__(self, params: dict):
        missing = [k for k in _PARAM_SHAPES if k != "betas" and k not in params]
        if missing:
            raise DomainError(f"model parameters missing: {missing}")
        p = {k: as_real(v, k) for k, v in params.items() if k != "betas"}
        for name in _PARAM_SHAPES:
            want = 1 if name in ("stem_b", "gain", "head_b") else 2
            if name != "betas" and p[name].ndim != want:
                raise DimensionError(f"{name} must be {want}-d, got shape {p[name].shape}")
        hidden = p["stem_w"].shape[1]
        embed_dim = p["embed"].shape[1]
        if p["stem_w"].shape[0] != self.dim + embed_dim:
            raise DimensionError("stem width does not match x + embedding")
        for name in ("res1_w", "res2_w", "skip_w", "mid_w"):
            if p[name].shape != (hidden, hidden):
                raise DimensionError(f"{name} must be [{hidden} x {hidden}]")
        for name in ("stem_b", "gain"):
            if p[name].shape != (hidden,):
                raise DimensionError(f"{name} must have one entry per hidden unit")
        if np.any(p["gain"] <= 0):
            raise DomainError("gain factors must be strictly positive")
        if p["head_w"].shape != (hidden, self.dim):
            raise DimensionError(f"head_w must be [{hidden} x {self.dim}]")
        if p["head_b"].shape != (self.dim,):
            raise DimensionError(f"head_b must have {self.dim} entries")
        self.params = p
        self.hidden = hidden
        self.embed_dim = embed_dim

    @property
    def t_table_max(self) -> int:
        return self.params["embed"].shape[0] - 1

    def quantizable_layers(self) -> tuple[LayerSpec, ...]:
        h = self.hidden
        return (
            LayerSpec("res1", h, h),
            LayerSpec("res2", h, h),
            LayerSpec("skip", h, h, tags=("skip_connection",)),
            LayerSpec("mid", h, h),
        )

    def layer_weight(self, name: str) -> np.ndarray:
        key = f"{name}_w"
        if key not in self.params or name not in {s.name for s in self.quantizable_layers()}:
            raise DomainError(f"unknown quantizable layer {name!r}")
        return self.params[key]

    def parameter_count(self) -> int:
        return sum(v.size for v in self.params.values())

    def forward_buffers(self, batch: int) -> _ForwardBuffers:
        """Buffers for forward calls on batches of `batch` rows."""
        return _ForwardBuffers(batch, self.dim + self.embed_dim, self.hidden)

    def forward(self, x, t: int, overrides=None, buffers=None) -> np.ndarray:
        """Predict the noise in x at timestep t, as a new array.

        overrides maps a quantizable layer name to a callable replacing its
        matmul (input activation in, product out); a caller that watches a
        layer, to record or score it, does so in one. buffers, from
        forward_buffers(len(x)), receives the intermediate activations, so a
        caller that runs many steps allocates them once; without it the
        call makes its own. A layer without an override writes its product
        into one of these buffers too, so only the head's output is a new
        array. An override's input is one of these buffers, rewritten later
        in the call or by the next call that shares them, so an override
        that keeps its input copies it. The call writes into no other
        array: not x, not an override's product.
        """
        x = as_real(x, "x")
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionError(f"x must be [B x {self.dim}]")
        t = int(t)
        if not (0 <= t <= self.t_table_max):
            raise DomainError(f"timestep {t} outside the embedding table")
        overrides = overrides or {}
        b = buffers if buffers is not None else self.forward_buffers(x.shape[0])
        if b.batch != x.shape[0]:
            raise DimensionError(f"buffers hold {b.batch} rows, x has {x.shape[0]}")

        def run(name, a, out):
            fn = overrides.get(name)
            return fn(a) if fn is not None else np.matmul(a, self.params[f"{name}_w"], out=out)

        p = self.params
        b.h0[:, : self.dim] = x
        b.h0[:, self.dim :] = p["embed"][t]
        h1 = np.matmul(b.h0, p["stem_w"], out=b.h)
        np.add(h1, p["stem_b"], out=h1)
        _silu(h1, h1, b.ev)
        r = _silu(run("res1", h1, b.r), b.r, b.ev)
        r = run("res2", r, b.s)
        # Each buffer is rewritten only once every product of it has run.
        sk = run("skip", np.multiply(h1, p["gain"], out=b.h), b.r)
        h4 = _silu(np.add(r, sk, out=b.r), b.r, b.ev)
        m = _silu(run("mid", h4, b.h), b.h, b.ev)
        return m @ p["head_w"] + p["head_b"]


# ---------------------------------------------------------------------------
# DDIM-style sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """One sampling run: states[0] is the initial noise, states[-1] the
    endpoint; timesteps[i] is where the model was evaluated to move
    states[i] -> states[i+1]."""

    states: np.ndarray
    timesteps: np.ndarray
    eta: float

    def __post_init__(self):
        if self.states.shape[0] != self.timesteps.shape[0] + 1:
            raise DimensionError("a trajectory has one more state than timesteps")

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def ddim_timesteps(t_max: int, steps: int) -> np.ndarray:
    """Ascending step grid 0 = g_0 < g_1 < ... < g_steps = t_max."""
    if not (1 <= steps <= t_max):
        raise DomainError(f"steps must lie in [1, {t_max}]")
    return np.unique(np.rint(np.linspace(0.0, t_max, steps + 1)).astype(np.int64))


def ddim_step(
    x_t,
    eps_hat,
    t: int,
    t_prev: int,
    schedule: NoiseSchedule,
    eta: float = 0.0,
    noise=None,
) -> np.ndarray:
    """One deterministic (eta = 0) or partially stochastic update t -> t_prev.

    Reconstructs the clean-data estimate from the predicted noise, then
    re-noises it to the target step:

        x0_est = (x_t - sqrt(1 - ab_t) * eps_hat) / sqrt(ab_t)
        x_prev = sqrt(ab_prev) * x0_est
                 + sqrt(1 - ab_prev - sigma^2) * eps_hat + sigma * noise

    with sigma = eta * sqrt((1-ab_prev)/(1-ab_t)) * sqrt(1 - ab_t/ab_prev).
    At t_prev = 0 both noise terms vanish and the update returns x0_est.
    """
    x_t = as_real(x_t, "x_t")
    eps_hat = as_real(eps_hat, "eps_hat")
    if x_t.shape != eps_hat.shape:
        raise DimensionError("x_t and eps_hat must have the same shape")
    if not (schedule.t_max >= t > t_prev >= 0):
        raise DomainError(f"need t_max >= t > t_prev >= 0, got t={t}, t_prev={t_prev}")
    if not (0.0 <= eta <= 1.0):
        raise DomainError("eta must lie in [0, 1]")
    ab_t = schedule.alpha_bar(t)
    ab_p = schedule.alpha_bar(t_prev)
    x0_est = (x_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    sigma = eta * np.sqrt((1.0 - ab_p) / (1.0 - ab_t)) * np.sqrt(1.0 - ab_t / ab_p)
    dir_sq = 1.0 - ab_p - sigma * sigma
    x_prev = np.sqrt(ab_p) * x0_est + np.sqrt(max(dir_sq, 0.0)) * eps_hat
    if sigma > 0.0:
        if noise is None:
            raise DomainError("eta > 0 requires a noise draw")
        x_prev = x_prev + sigma * as_real(noise, "noise")
    return x_prev


def _grid(schedule: NoiseSchedule, steps) -> np.ndarray:
    """sample's step grid: a step count or an explicit ascending grid."""
    if isinstance(steps, (int, np.integer)):
        return ddim_timesteps(schedule.t_max, int(steps))
    grid = np.asarray(steps, dtype=np.int64)
    if grid.ndim != 1 or grid[0] != 0 or grid[-1] != schedule.t_max:
        raise DomainError("an explicit grid must ascend from 0 to t_max")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("an explicit grid must be strictly ascending")
    return grid


def sample(
    model: ToyDenoiser,
    schedule: NoiseSchedule,
    steps,
    batch: int,
    rng: Rng,
    *,
    eta: float = 0.0,
    overrides=None,
    x_init=None,
    rows=None,
) -> Trajectory:
    """Run the sampler from pure noise down to data.

    steps is either a step count (a uniform grid is built) or an explicit
    ascending grid starting at 0. The same rng drives the initial noise and
    any eta > 0 injections, so a seed pins the whole trajectory. x_init,
    when given, replaces the initial noise and must be [batch x dim].
    overrides go to every forward call, step by step; since every forward
    call of the run writes into one set of buffers, made here for the batch
    and freed on return, an override that keeps its input copies it.

    rows, a slice of range(batch), runs only those trajectories: the
    initial noise and every injection are still drawn for the whole batch,
    so each row is the trajectory the whole batch gives it, and the states
    hold only those rows. A non-finite model output is a NumericalError
    naming the step. The model runs with numpy's overflow and invalid-value
    warnings off, since that error is what reports an overflow.
    """
    grid = _grid(schedule, steps)
    if x_init is None:
        x = rng.standard_normal((batch, model.dim))
    else:
        x = as_real(x_init, "x_init")
        if x.shape != (batch, model.dim):
            raise DimensionError(
                f"x_init must be {batch} x {model.dim} for batch {batch}, "
                f"got shape {x.shape}"
            )
    if rows is None:
        rows = slice(0, batch)
    elif rows.indices(batch) != (rows.start, rows.stop, 1) or rows.start >= rows.stop:
        raise DomainError(f"rows must be a non-empty slice of range({batch})")
    x = x[rows]
    buffers = model.forward_buffers(x.shape[0])
    states = [x]
    for i in range(len(grid) - 1, 0, -1):
        t, t_prev = int(grid[i]), int(grid[i - 1])
        with np.errstate(over="ignore", invalid="ignore"):
            eps_hat = model.forward(x, t, overrides=overrides, buffers=buffers)
        if not np.all(np.isfinite(eps_hat)):
            raise NumericalError(
                f"sampler step {len(grid) - i} of {len(grid) - 1} (t = {t}): "
                "the model output contains non-finite values"
            )
        noise = rng.standard_normal((batch, model.dim))[rows] if eta > 0.0 else None
        x = ddim_step(x, eps_hat, t, t_prev, schedule, eta=eta, noise=noise)
        states.append(x)
    return Trajectory(np.array(states), grid[:0:-1].copy(), float(eta))


# A sampler run splits into row shares only while every share keeps at
# least this many trajectory steps (rows x steps): 512 trajectories of 20
# steps, about 19 ms of sampling, against a fork round trip of about 2 ms.
# So a configs/w4a8.cfg run (n = 64) stays whole and n = 1024 splits in two.
_SHARE_ROW_STEPS = 512 * 20
# Every share boundary is a multiple of this many rows. BLAS works a
# product's rows in blocks, and a row's bits can depend on where in a block
# it falls: trajectories cut at 1, 2, 3, 5, 6, 7 or 333 rows differed from
# the whole run in their last bits, cuts at multiples of 4 did not
# (OpenBLAS 0.3.31, Haswell kernels). 64 leaves room for wider blocks.
_ROW_QUANTUM = 64


def _row_shares(n: int, steps: int) -> list:
    """Row slices of an n-trajectory, steps-step run: one per usable CPU
    while each keeps _SHARE_ROW_STEPS, cut at multiples of _ROW_QUANTUM."""
    quanta = -(-n // _ROW_QUANTUM)
    k = max(1, min(workers.usable_cpus(), quanta, n * steps // _SHARE_ROW_STEPS))
    cuts = [min(n, quanta * i // k * _ROW_QUANTUM) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def sample_endpoint(
    model: ToyDenoiser,
    schedule: NoiseSchedule,
    steps,
    batch: int,
    rng: Rng,
    *,
    eta: float = 0.0,
    overrides=None,
    x_init=None,
    what: str = "sampler worker",
) -> np.ndarray:
    """sample(...).endpoint, bit for bit, in row shares over the usable CPUs
    (see _row_shares): the one place a sampler run is split. overrides is
    forward's mapping, or a callable of a share's row slice that returns
    the share's mapping, whose overrides may write into its rows of a
    workers.shared_arrays table. what names a dying share's work.

    Each share starts from rng's state: the first, which this process runs
    last, takes rng itself, so rng ends where one whole run leaves it; the
    others take copies. The first error in share order is raised: one whole
    run's, unless shares' rows fail differently (it may name a later step)."""
    share_overrides = overrides if callable(overrides) else lambda rows: overrides
    parts = workers.run_shares(
        lambda rows: sample(
            model, schedule, steps, batch, rng if rows.start == 0 else copy.deepcopy(rng),
            eta=eta, overrides=share_overrides(rows), x_init=x_init, rows=rows,
        ).endpoint,
        _row_shares(batch, len(_grid(schedule, steps)) - 1),
        lambda rows: f"{what} for rows {rows.start}-{rows.stop - 1}",
    )
    return np.concatenate(parts)


def _recorder(slots, weight, product=None):
    """An override that copies each call's input into the next of slots and
    returns product(input), or without product forward's input @ weight."""
    slots = iter(slots)

    def record(a):
        next(slots)[...] = a
        return a @ weight if product is None else product(a)

    return record


def collect_calibration(
    model: ToyDenoiser,
    schedule: NoiseSchedule,
    steps: int,
    n: int,
    rng: Rng,
    *,
    eta: float = 0.0,
    overrides=None,
    layers=None,
    out=None,
) -> dict[str, LayerCalibRecord]:
    """Capture quantizable layers' inputs across n sampling runs.

    Returns one record per layer with n * steps rows, each tagged with the
    timestep it was captured at: row step * n + r is trajectory r at the
    step-th timestep the sampler visits. layers names the layers to record
    (default: all of them); the trajectories do not depend on it. overrides
    is for the propagated-inputs mode, where layers already quantized run
    quantized during capture; leave it unset for plain full-precision
    calibration.

    The activations live in one workers.shared_arrays mapping, and the run
    goes in row shares through sample_endpoint, whose endpoint is dropped.
    A recorded layer runs under an override (_recorder) that copies each
    step's input straight into its rows of the record, then runs the
    caller's override or the matmul. The records are the same bits as one
    whole run's.

    out, when given, holds one distinct array per recorded layer, in
    checkpoint order, from an earlier call's records that the caller no
    longer needs: the capture overwrites every row of them and returns them
    as its records' activations, and no new mapping is made. An array of
    the wrong shape is a DimensionError; one outside a shared_arrays
    mapping, which a forked share could not write into, is a DomainError.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    specs = model.quantizable_layers()
    if layers is not None:
        unknown = set(layers) - {spec.name for spec in specs}
        if unknown:
            raise DomainError(f"unknown quantizable layers {sorted(unknown)}")
        specs = [spec for spec in specs if spec.name in layers]
    grid = ddim_timesteps(schedule.t_max, steps)
    timesteps = np.repeat(grid[:0:-1], n)  # sampler visit order
    shapes = [(timesteps.size, spec.c_in) for spec in specs]
    if out is None:
        activations = workers.shared_arrays(shapes)
    else:
        activations = list(out)
        if [a.shape for a in activations] != shapes:
            raise DimensionError(
                f"out holds arrays of shapes {[a.shape for a in activations]}, "
                f"the capture records {shapes}"
            )
        if not all(workers.is_shared(a) for a in activations):
            raise DomainError("out must hold arrays from workers.shared_arrays")
    overrides = overrides or {}

    def recording(rows):
        share = dict(overrides)
        for spec, a in zip(specs, activations):
            share[spec.name] = _recorder(
                a.reshape(len(grid) - 1, n, spec.c_in)[:, rows],
                model.layer_weight(spec.name),
                overrides.get(spec.name),
            )
        return share

    sample_endpoint(
        model, schedule, steps, n, rng, eta=eta, overrides=recording, what="capture worker"
    )
    return {
        spec.name: LayerCalibRecord(spec.name, a, timesteps, model.layer_weight(spec.name))
        for spec, a in zip(specs, activations)
    }


class _BumpedModel:
    """A model whose noise prediction at one timestep gets a fixed offset."""

    def __init__(self, model: ToyDenoiser, t: int, bump: np.ndarray):
        self.dim = model.dim
        self.forward_buffers = model.forward_buffers
        self._model, self._t, self._bump = model, t, bump

    def forward(self, x, t: int, overrides=None, buffers=None) -> np.ndarray:
        eps_hat = self._model.forward(x, t, overrides=overrides, buffers=buffers)
        return eps_hat + self._bump if t == self._t else eps_hat


def perturbation_sensitivity(
    model: ToyDenoiser,
    schedule: NoiseSchedule,
    steps: int,
    n: int,
    rng: Rng,
    *,
    magnitude: float = 0.05,
) -> dict[str, float]:
    """Endpoint damage from a one-step nudge early vs late in the trajectory.

    Runs a clean trajectory, then two more from the same initial noise with
    magnitude-scaled noise added to the model output at the first step
    (earliest, largest t) and at the last step respectively. Returns the
    endpoint mean squared deviations {"early": ..., "late": ...}. Measured
    and reported only; which side is larger is an empirical question the
    caller may inspect, not an invariant.
    """
    grid = ddim_timesteps(schedule.t_max, steps)
    x_init = rng.child("perturb-init").standard_normal((n, model.dim))
    bumps = {
        name: rng.child(f"perturb-{name}").standard_normal((n, model.dim)) * magnitude
        for name in ("early", "late")
    }

    def endpoint(m):
        return sample(m, schedule, grid, n, rng, x_init=x_init).endpoint

    clean = endpoint(model)
    early = endpoint(_BumpedModel(model, int(grid[-1]), bumps["early"]))
    late = endpoint(_BumpedModel(model, int(grid[1]), bumps["late"]))
    return {
        "early": float(np.mean((early - clean) ** 2)),
        "late": float(np.mean((late - clean) ** 2)),
    }


# ---------------------------------------------------------------------------
# Training data
# ---------------------------------------------------------------------------


def ring_data(rng: Rng, n: int, modes: int = 8, radius: float = 1.4,
              spread: float = 0.1) -> np.ndarray:
    """Mixture of small Gaussians on a circle; per-dimension variance near 1."""
    which = rng.integers(0, modes, n)
    angles = 2.0 * np.pi * which / modes
    centers = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    return centers + spread * rng.standard_normal((n, 2))


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: ToyDenoiser, schedule: NoiseSchedule) -> None:
    """Write model + schedule in the binary format documented above."""
    tensors = dict(model.params)
    tensors["betas"] = schedule.betas
    names = sorted(tensors)
    table = bytearray()
    entries = []
    offset_fixup = []
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        entry = struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
        entry += b"".join(struct.pack("<I", d) for d in arr.shape)
        offset_fixup.append(len(table) + len(entry))
        entry += struct.pack("<Q", 0)  # patched once the layout is known
        table += entry
        entries.append(arr)
    header = CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(names))
    data_start = len(header) + len(table)
    blob = bytearray()
    for fix, arr in zip(offset_fixup, entries):
        struct.pack_into("<Q", table, fix, data_start + len(blob))
        blob += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table)
        fh.write(blob)


def load_checkpoint(path) -> tuple[ToyDenoiser, NoiseSchedule]:
    """Read a checkpoint back; rejects bad magic, versions, truncation,
    repeated tensor names, data that does not tile the rest of the file, and
    contents that make no model: a non-finite value, a missing or misshapen
    tensor, a gain <= 0, or betas outside (0, 1). Every one is a FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    pos = 10
    entries = {}
    for i in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            if len(raw) < pos + name_len:
                raise struct.error
            name = raw[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            dims = struct.unpack_from(f"<{ndim}I", raw, pos) if ndim else ()
            pos += 4 * ndim
            (offset,) = struct.unpack_from("<Q", raw, pos)
            pos += 8
        except struct.error as exc:
            raise FormatError(
                f"{path}: truncated table entry {i} at offset {pos}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: tensor name of table entry {i} at offset {pos} "
                "is not UTF-8"
            ) from exc
        if name in entries:
            raise FormatError(f"{path}: tensor {name!r} appears twice in the table")
        entries[name] = (dims, offset)
    # The data records tile [end of table, end of file) in table order.
    tensors = {}
    for name, (dims, offset) in entries.items():
        if offset != pos:
            raise FormatError(
                f"{path}: tensor {name!r} data starts at offset {offset}, "
                f"expected {pos} (records must follow each other with no gap "
                "or overlap)"
            )
        end = offset + 4 * math.prod(dims)
        if end > len(raw):
            raise FormatError(
                f"{path}: tensor {name!r} data truncated "
                f"(needs bytes up to {end}, file has {len(raw)})"
            )
        stored = np.frombuffer(raw[offset:end], dtype="<f4")
        # Checked before widening: widening a signalling NaN warns.
        if not np.all(np.isfinite(stored)):
            raise FormatError(
                f"{path}: invalid checkpoint contents: {name} contains non-finite values"
            )
        tensors[name] = stored.astype(np.float64).reshape(dims)
        pos = end
    if pos != len(raw):
        raise FormatError(f"{path}: {len(raw) - pos} unexpected trailing bytes")
    if "betas" not in tensors:
        raise FormatError(f"{path}: checkpoint carries no schedule")
    try:
        schedule = NoiseSchedule(tensors.pop("betas"))
        model = ToyDenoiser(tensors)
    except DenoqError as exc:
        raise FormatError(f"{path}: invalid checkpoint contents: {exc}") from exc
    if model.t_table_max != schedule.t_max:
        raise FormatError(
            f"{path}: embedding table covers {model.t_table_max} steps "
            f"but the schedule has {schedule.t_max}"
        )
    return model, schedule
