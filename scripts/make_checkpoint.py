#!/usr/bin/env python3
"""Train the bundled toy denoiser checkpoint from scratch.

Deterministic given the seed: rebuilding produces a byte-identical
checkpoints/toy2d.ckpt. Takes under a minute on one CPU core.

The trainer lives here rather than in the package because nothing else
runs it: denoq.toydiff holds the model, the sampler and the checkpoint
format, and this script fits the model with a hand-differentiated copy of
its forward pass.

Usage: python3 scripts/make_checkpoint.py [--out checkpoints/toy2d.ckpt]
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from denoq.errors import DimensionError, DomainError  # noqa: E402
from denoq.tensor import Rng  # noqa: E402
from denoq.toydiff import (  # noqa: E402
    NoiseSchedule,
    ToyDenoiser,
    collect_calibration,
    ring_data,
    sample,
    save_checkpoint,
)

SEED = 1337


# The trainer keeps the SiLU the bundled checkpoint was trained with. The
# sampler's cheaper v / (1 + exp(-v)) (denoq.toydiff._silu) differs from it
# in the last bits, and the checkpoint's bytes depend on every one of them.
def _sigmoid(v):
    """sigmoid(v) from exp(-|v|), which cannot overflow.

    The numerator is 1 for v >= 0 and exp(-|v|) below zero; since
    exp(-|v|) <= 1, np.maximum(ev, v >= 0) picks exactly that.
    """
    ev = np.exp(-np.abs(v))
    den = ev + 1.0
    return np.maximum(ev, v >= 0) / den


def _silu(v):
    return v * _sigmoid(v)


def _silu_prime(v):
    sig = _sigmoid(v)
    return sig * (1.0 + v * (1.0 - sig))


def _sinusoidal_table(t_max: int, width: int) -> np.ndarray:
    t = np.arange(t_max + 1, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * np.arange(width // 2) / max(width // 2 - 1, 1))
    ang = t * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)[:, :width]


def fit_toy_denoiser(
    rng: Rng,
    *,
    t_max: int = 1000,
    hidden: int = 64,
    embed_dim: int = 16,
    train_steps: int = 6000,
    batch: int = 256,
    lr: float = 2e-3,
    outlier_channels: tuple | None = None,
    outlier_gains: tuple = (64.0, 32.0, 256.0),
) -> tuple[ToyDenoiser, NoiseSchedule]:
    """Train the denoiser on ring data, then manufacture skip outliers.

    Training minimizes ||eps_pred - eps||^2 with Adam, all in numpy. After
    training, selected skip-branch channels are scaled by the listed gains
    and skip_w's matching rows divided by them, so the network function is
    unchanged while the captured skip input develops the large inter-channel
    spread the scaling and rescue machinery exists to handle. The gains stay
    in the checkpoint as the "gain" tensor, so tests can assert the
    pathology is really there.

    outlier_channels=None (the default) picks channels from a probe batch so
    the two pathology shapes both occur. All but the last gain land on
    active channels whose magnitudes vary the most across samples — these
    split per-sample exponent votes and are the learned factors' natural
    targets. The last gain lands on the channel whose magnitude is most
    uniform across samples (typically one pinned near the silu negative
    plateau), which votes coherently and is the power-of-two rescue's
    natural target. Pass explicit indices to zip channels with gains
    directly.
    """
    if outlier_channels is not None and len(outlier_channels) != len(outlier_gains):
        raise DimensionError("one gain per outlier channel required")
    schedule = NoiseSchedule.linear(t_max)
    data_rng = rng.child("data")
    noise_rng = rng.child("noise")
    init = rng.child("init")

    def he(shape, fan_in):
        return init.standard_normal(shape) * np.sqrt(2.0 / fan_in)

    in_dim = 2 + embed_dim
    params = {
        "embed": _sinusoidal_table(t_max, embed_dim),
        "stem_w": he((in_dim, hidden), in_dim),
        "stem_b": np.zeros(hidden),
        "gain": np.ones(hidden),
        "res1_w": he((hidden, hidden), hidden),
        "res2_w": he((hidden, hidden), hidden) * 0.5,
        "skip_w": he((hidden, hidden), hidden) * 0.5,
        "mid_w": he((hidden, hidden), hidden),
        "head_w": he((hidden, 2), hidden),
        "head_b": np.zeros(2),
    }
    trainable = [k for k in params if k != "gain"]
    m_state = {k: np.zeros_like(params[k]) for k in trainable}
    v_state = {k: np.zeros_like(params[k]) for k in trainable}
    b1, b2, eps_adam = 0.9, 0.999, 1e-8
    sqrt_ab = np.sqrt(schedule.alphas_cumprod)
    sqrt_1mab = np.sqrt(1.0 - schedule.alphas_cumprod)

    for step in range(1, train_steps + 1):
        x0 = ring_data(data_rng, batch)
        ts = noise_rng.integers(1, t_max + 1, batch)
        eps = noise_rng.standard_normal((batch, 2))
        x_t = sqrt_ab[ts, None] * x0 + sqrt_1mab[ts, None] * eps

        emb = params["embed"][ts]
        h0 = np.concatenate([x_t, emb], axis=1)
        a1 = h0 @ params["stem_w"] + params["stem_b"]
        h1 = _silu(a1)
        ar1 = h1 @ params["res1_w"]
        h2 = _silu(ar1)
        ar2 = h2 @ params["res2_w"]
        ask = h1 @ params["skip_w"]
        h3 = ar2 + ask
        h4 = _silu(h3)
        am = h4 @ params["mid_w"]
        h5 = _silu(am)
        out = h5 @ params["head_w"] + params["head_b"]

        g_out = 2.0 * (out - eps) / out.size
        grads = {
            "head_w": h5.T @ g_out,
            "head_b": g_out.sum(axis=0),
        }
        g_h5 = g_out @ params["head_w"].T
        g_am = g_h5 * _silu_prime(am)
        grads["mid_w"] = h4.T @ g_am
        g_h4 = g_am @ params["mid_w"].T
        g_h3 = g_h4 * _silu_prime(h3)
        grads["res2_w"] = h2.T @ g_h3
        g_h2 = g_h3 @ params["res2_w"].T
        g_ar1 = g_h2 * _silu_prime(ar1)
        grads["res1_w"] = h1.T @ g_ar1
        grads["skip_w"] = h1.T @ g_h3
        g_h1 = g_ar1 @ params["res1_w"].T + g_h3 @ params["skip_w"].T
        g_a1 = g_h1 * _silu_prime(a1)
        grads["stem_w"] = h0.T @ g_a1
        grads["stem_b"] = g_a1.sum(axis=0)
        g_h0 = g_a1 @ params["stem_w"].T
        g_embed = np.zeros_like(params["embed"])
        np.add.at(g_embed, ts, g_h0[:, 2:])
        grads["embed"] = g_embed

        for k in trainable:
            m_state[k] = b1 * m_state[k] + (1 - b1) * grads[k]
            v_state[k] = b2 * v_state[k] + (1 - b2) * grads[k] ** 2
            m_hat = m_state[k] / (1 - b1**step)
            v_hat = v_state[k] / (1 - b2**step)
            params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps_adam)

    if outlier_channels is None and outlier_gains:
        # Rank channels on the distribution quantization will actually see:
        # the skip input captured along sampling trajectories.
        probe_model = ToyDenoiser({k: v.copy() for k, v in params.items()})
        probe = collect_calibration(
            probe_model, schedule, 20, 16, rng.child("probe"), layers=["skip"]
        )
        mags = np.abs(probe["skip"].activations)
        colmax = np.max(mags, axis=0)
        uniformity = np.where(
            colmax > 1e-3, np.median(mags, axis=0) / np.maximum(colmax, 1e-12), 0.0
        )
        pinned = int(np.argsort(-uniformity, kind="stable")[0])
        active = colmax >= np.median(colmax)
        spread_order = [
            int(c)
            for c in np.argsort(uniformity, kind="stable")
            if active[c] and c != pinned
        ]
        outlier_channels = tuple(spread_order[: len(outlier_gains) - 1]) + (pinned,)
    elif outlier_channels is None:
        outlier_channels = ()

    for c, f in zip(outlier_channels, outlier_gains):
        if not (0 <= c < hidden):
            raise DomainError(f"outlier channel {c} outside [0, {hidden})")
        if f <= 0:
            raise DomainError("outlier gains must be positive")
        params["gain"][c] *= f
        params["skip_w"][c, :] /= f

    return ToyDenoiser(params), schedule


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="checkpoints/toy2d.ckpt")
    args = parser.parse_args()

    rng = Rng(SEED)
    model, schedule = fit_toy_denoiser(rng.child("train"))
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, model, schedule)
    print(f"wrote {out} ({model.parameter_count()} parameters, t_max={schedule.t_max})")

    # quick quality readout: sampled endpoints should land near the ring
    traj = sample(model, schedule, 20, 512, rng.child("check"))
    pts = traj.endpoint
    radii = np.hypot(pts[:, 0], pts[:, 1])
    target = ring_data(rng.child("ref"), 512)
    t_rad = np.hypot(target[:, 0], target[:, 1])
    print(
        f"sampled radius mean {radii.mean():.3f} (data {t_rad.mean():.3f}), "
        f"std {radii.std():.3f} (data {t_rad.std():.3f})"
    )
    gain = model.params["gain"]
    print(f"skip gains at channels {np.flatnonzero(gain != 1.0)}: "
          f"{gain[gain != 1.0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
