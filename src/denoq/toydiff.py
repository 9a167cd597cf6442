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
* a deterministic DDIM-style sampler plus calibration capture,
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

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DenoqError, DimensionError, DomainError, FormatError
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


def _sigmoid(v, out=None, den=None):
    """sigmoid(v) from exp(-|v|), which cannot overflow.

    The numerator is 1 for v >= 0 and exp(-|v|) below zero; since
    exp(-|v|) <= 1, np.maximum(ev, v >= 0) picks exactly that. The result
    goes into out and the denominator into den, arrays of v's shape other
    than v; each is a new array when not given.
    """
    ev = np.abs(v, out=out)
    np.negative(ev, out=ev)
    np.exp(ev, out=ev)
    den = np.add(ev, 1.0, out=den)
    np.maximum(ev, v >= 0, out=ev)
    return np.divide(ev, den, out=ev)


def _silu(v, out=None, ev=None, den=None):
    """silu(v) = v * sigmoid(v), into out (which may be v itself) or a new
    array; ev and den are _sigmoid's buffers."""
    sig = _sigmoid(v, ev, den)
    return np.multiply(v, sig, out=sig if out is None else out)


class _ForwardBuffers:
    """The arrays one ToyDenoiser.forward writes, for a batch of B rows.

    sample() makes one set per call and hands it to every forward of that
    call, so a trajectory does not allocate these per step and nothing
    outlives the call. forward writes only into these arrays:
        h0      the stem input [x, embed[t]];
        h       the stem activation, then the skip input, then the mid
                activation;
        r       the residual activation, then the residual sum and its
                activation;
        ev, den SiLU's exp(-|v|) and denominator.
    """

    def __init__(self, batch: int, width: int, hidden: int):
        self.batch = batch
        self.h0 = np.empty((batch, width))
        self.h, self.r, self.ev, self.den = (np.empty((batch, hidden)) for _ in range(4))


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

    def forward(
        self, x, t: int, overrides=None, capture=None, buffers=None
    ) -> np.ndarray:
        """Predict the noise in x at timestep t, as a new array.

        overrides maps a quantizable layer name to a callable replacing its
        matmul (input activation in, product out). capture maps layer names
        to lists that receive (input activation, t) pairs. buffers, from
        forward_buffers(len(x)), receives the intermediate activations, so a
        caller that runs many steps allocates them once; without it the
        call makes its own. An override's input is one of these buffers,
        rewritten later in the call or by the next call that shares them,
        so an override that keeps its input copies it (capture does). The
        call writes into no other array: not x, not an override's product.
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

        def run(name, a):
            if capture is not None and name in capture:
                capture[name].append((a.copy(), t))
            fn = overrides.get(name)
            return fn(a) if fn is not None else a @ self.params[f"{name}_w"]

        p = self.params
        b.h0[:, : self.dim] = x
        b.h0[:, self.dim :] = p["embed"][t]
        h1 = np.matmul(b.h0, p["stem_w"], out=b.h)
        np.add(h1, p["stem_b"], out=h1)
        _silu(h1, h1, b.ev, b.den)
        r = _silu(run("res1", h1), b.r, b.ev, b.den)
        r = run("res2", r)
        # Each buffer is rewritten only once every product of it has run.
        sk = run("skip", np.multiply(h1, p["gain"], out=b.h))
        h4 = _silu(np.add(r, sk, out=b.r), b.r, b.ev, b.den)
        m = _silu(run("mid", h4), b.h, b.ev, b.den)
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
    grid = np.unique(np.rint(np.linspace(0.0, t_max, steps + 1)).astype(np.int64))
    return grid


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


def sample(
    model: ToyDenoiser,
    schedule: NoiseSchedule,
    steps,
    batch: int,
    rng: Rng,
    *,
    eta: float = 0.0,
    overrides=None,
    capture=None,
    x_init=None,
) -> Trajectory:
    """Run the sampler from pure noise down to data.

    steps is either a step count (a uniform grid is built) or an explicit
    ascending grid starting at 0. The same rng drives the initial noise and
    any eta > 0 injections, so a seed pins the whole trajectory. Every
    forward call of the run writes into one set of buffers, made here for
    the batch and freed on return.
    """
    if isinstance(steps, (int, np.integer)):
        grid = ddim_timesteps(schedule.t_max, int(steps))
    else:
        grid = np.asarray(steps, dtype=np.int64)
        if grid.ndim != 1 or grid[0] != 0 or grid[-1] != schedule.t_max:
            raise DomainError("an explicit grid must ascend from 0 to t_max")
        if np.any(np.diff(grid) <= 0):
            raise DomainError("an explicit grid must be strictly ascending")
    if x_init is None:
        x = rng.standard_normal((batch, model.dim))
    else:
        x = as_real(x_init, "x_init")
    buffers = model.forward_buffers(x.shape[0])
    states = [x]
    evaluated = []
    for i in range(len(grid) - 1, 0, -1):
        t, t_prev = int(grid[i]), int(grid[i - 1])
        eps_hat = model.forward(
            x, t, overrides=overrides, capture=capture, buffers=buffers
        )
        noise = rng.standard_normal(x.shape) if eta > 0.0 else None
        x = ddim_step(x, eps_hat, t, t_prev, schedule, eta=eta, noise=noise)
        states.append(x)
        evaluated.append(t)
    return Trajectory(np.array(states), np.array(evaluated, dtype=np.int64), float(eta))


class _RowSink:
    """Capture target for one layer: copies each step's input rows into
    preallocated arrays, so no per-step copies pile up to be concatenated."""

    def __init__(self, rows: int, width: int):
        self.activations = np.empty((rows, width))
        self.timesteps = np.empty(rows, dtype=np.int64)
        self._filled = 0

    def append(self, pair) -> None:
        a, t = pair
        end = self._filled + a.shape[0]
        self.activations[self._filled : end] = a
        self.timesteps[self._filled : end] = t
        self._filled = end


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
) -> dict[str, LayerCalibRecord]:
    """Capture quantizable layers' inputs across n sampling runs.

    Returns one record per layer with n * steps rows, each tagged with the
    timestep it was captured at. layers names the layers to record (default:
    all of them); the trajectories do not depend on it. overrides is for
    the propagated-inputs mode, where layers already quantized run quantized
    during capture; leave it unset for plain full-precision calibration.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    specs = model.quantizable_layers()
    if layers is not None:
        unknown = set(layers) - {spec.name for spec in specs}
        if unknown:
            raise DomainError(f"unknown quantizable layers {sorted(unknown)}")
        specs = [spec for spec in specs if spec.name in layers]
    rows = n * (len(ddim_timesteps(schedule.t_max, steps)) - 1)
    capture = {spec.name: _RowSink(rows, spec.c_in) for spec in specs}
    sample(
        model, schedule, steps, n, rng, eta=eta, overrides=overrides, capture=capture
    )
    return {
        spec.name: LayerCalibRecord(
            spec.name,
            capture[spec.name].activations,
            capture[spec.name].timesteps,
            model.layer_weight(spec.name),
        )
        for spec in specs
    }


class _BumpedModel:
    """A model whose noise prediction at one timestep gets a fixed offset."""

    def __init__(self, model: ToyDenoiser, t: int, bump: np.ndarray):
        self.dim = model.dim
        self.forward_buffers = model.forward_buffers
        self._model, self._t, self._bump = model, t, bump

    def forward(
        self, x, t: int, overrides=None, capture=None, buffers=None
    ) -> np.ndarray:
        eps_hat = self._model.forward(
            x, t, overrides=overrides, capture=capture, buffers=buffers
        )
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
