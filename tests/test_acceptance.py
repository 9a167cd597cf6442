"""Acceptance checks, one per shipped guarantee, each printing a verdict line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Every test measures the guarantee at its stated tolerance and prints exactly
one [criterion NN] PASS/FAIL line with the observed numbers.
"""

import dataclasses
import itertools
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from denoq.errors import FormatError, HeadroomError
from denoq.igemm import dequantize_output, execute, shift_weights
from denoq.les import LayerCalibRecord, _scaled_pair, fuse, les_grad, les_loss, optimize_layer
from denoq.modelfile import QuantizedModel, export_model, import_model, pack_int4, unpack_int4
from denoq.pipeline import Config, parse_config, quantize_to_file, run_quantize
from denoq.pts import vote
from denoq.quant import (
    QuantParams,
    QuantizedLayer,
    activation_codes,
    minmax_scale,
    quantize,
    quantized_matmul_reference,
)
from denoq.tensor import IntTensor, Rng, matmul
from denoq.timestep_weighting import TimestepWeighter
from denoq.toydiff import NoiseSchedule, forward_noise, ring_data

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "checkpoints" / "toy2d.ckpt"
CONFIG = ROOT / "configs" / "w4a8.cfg"
GOLDEN = ROOT / "golden" / "ordering.txt"


def _report(num: int, title: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {title}: {detail}"


def test_c01_scaling_identity_is_numerically_lossless():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = Rng(7000 + i)
        n = int(rng.child("n").integers(1, 65))
        k = int(rng.child("k").integers(1, 65))
        m = int(rng.child("m").integers(1, 65))
        amp = float(np.exp(rng.child("amp").uniform(-2, 2, ())))
        x = rng.child("x").standard_normal((n, k)) * amp
        w = rng.child("w").standard_normal((k, m))
        tau = np.exp(rng.child("tau").uniform(-3, 3, k))
        ref = matmul(x, w)
        got = matmul(x / tau, w * tau[:, None])
        bound = 1e-10 * np.max(np.abs(ref)) + 1e-12
        err = float(np.max(np.abs(got - ref)))
        worst = max(worst, err / bound)
        if err > bound:
            break
    dt = time.perf_counter() - t0
    _report(
        1,
        "scaling identity, 200 instances",
        worst <= 1.0 and dt < 5.0,
        f"worst err/bound = {worst:.3e}, {dt:.2f}s",
    )


def test_c02_factor_fusion_is_bit_exact():
    """The layer fuse exports quantizes x against the fused divisor tau * s,
    bit for bit. Dividing by tau and then by s rounds twice, so those codes
    may differ, by one code and only where the quotient (x / tau) / s sits
    at a half-code boundary; the last instance is such a case (77, not 76)."""
    instances = []
    for i in range(100):
        rng = Rng(8000 + i)
        n = int(rng.child("n").integers(1, 48))
        k = int(rng.child("k").integers(1, 48))
        amp = float(np.exp(rng.child("amp").uniform(-2, 2, ())))
        x = rng.child("x").standard_normal((n, k)) * amp
        tau = np.exp(rng.child("tau").uniform(-3, 3, k))
        s = float(np.exp(rng.child("s").uniform(-5, 0, ())))
        instances.append((x, tau, s))
    instances.append(
        (np.array([[11.446379747706697]]), np.array([2.7567499587661204]), 0.054276188008708544)
    )
    fused_mismatches = two_step_diffs = off_boundary = beyond_one = 0
    for x, tau, s in instances:
        act = QuantParams(s, 8, True)
        fused, w_scaled = fuse(tau, act, np.ones((x.shape[1], 2)))
        wgt = minmax_scale(w_scaled, 4, signed=True, axis=1)
        layer = QuantizedLayer("l", quantize(w_scaled, wgt), wgt, act, fused)
        codes = activation_codes(x, layer).codes
        direct = quantize(x, QuantParams(tau * s, 8, True, axis=1)).codes
        fused_mismatches += int(np.count_nonzero(codes != direct))
        two_step = quantize(x / tau, act).codes
        q = (x / tau) / s
        at_half = np.abs(q - (np.floor(q) + 0.5)) <= 4 * np.spacing(np.abs(q))
        differ = two_step != codes
        two_step_diffs += int(np.count_nonzero(differ))
        off_boundary += int(np.count_nonzero(differ & ~at_half))
        beyond_one += int(np.count_nonzero(np.abs(two_step - codes) > 1))
    _report(
        2,
        "fused layer codes == fused-divisor codes; two-step codes differ only "
        "at half-code boundaries, by one; 101 instances",
        fused_mismatches == 0 and two_step_diffs >= 1 and off_boundary == 0 and beyond_one == 0,
        f"{fused_mismatches} fused mismatches, {two_step_diffs} two-step differences, "
        f"{off_boundary} off a boundary, {beyond_one} by more than one code",
    )


def _random_w4a8_layer(seed: int):
    rng = Rng(seed)
    c_in = int(rng.child("ci").integers(2, 24))
    c_out = int(rng.child("co").integers(1, 12))
    w = rng.child("w").standard_normal((c_in, c_out))
    wp = minmax_scale(w, 4, signed=True, axis=1)
    s = float(np.exp(rng.child("s").uniform(-4, -1, ())))
    ap = QuantParams(s, 8, True)
    tau = np.exp(rng.child("t").uniform(-1, 1, c_in))
    delta = rng.child("d").integers(0, 4, c_in)
    layer = QuantizedLayer("l", quantize(w, wp), wp, ap, tau * s, delta)
    x = rng.child("x").standard_normal((12, c_in)) * 4.0
    return layer, x


def test_c03_bit_shift_kernel_matches_reference_path():
    bad = 0
    for i in range(100):
        layer, x = _random_w4a8_layer(9000 + i)
        xq = activation_codes(x, layer)
        sw = shift_weights(layer.weight_codes, layer.pts_exponents)
        acc = execute(xq, sw)
        got = dequantize_output(acc, layer.act_params.scale, layer.weight_scale_vector())
        want = quantized_matmul_reference(x, layer)
        if not np.array_equal(got, want):
            bad += 1
    # accumulator headroom boundary: the exact worst case at a 53-bit budget
    # (16 + 16 + 6 + 15) is accepted and bit-exact against arbitrary-precision
    # integers; one more input channel doubling is rejected.
    c_in = 1 << 15
    x16 = IntTensor(np.full((1, c_in), -(1 << 15), dtype=np.int64), 16)
    w16 = IntTensor(np.full((c_in, 1), -(1 << 15), dtype=np.int64), 16)
    sw16 = shift_weights(w16, np.full(c_in, 6, dtype=np.int64))
    acc = execute(x16, sw16)
    boundary_ok = int(acc.codes[0, 0]) == c_in * (1 << 15) * (1 << 21) == 1 << 51
    with pytest.raises(HeadroomError, match="54 > 53"):
        execute(
            IntTensor(np.full((1, 2 * c_in), -(1 << 15), dtype=np.int64), 16),
            shift_weights(
                IntTensor(np.full((2 * c_in, 1), -(1 << 15), dtype=np.int64), 16),
                np.full(2 * c_in, 6, dtype=np.int64),
            ),
        )
    _report(
        3,
        "integer shift kernel bit-exact vs real-arithmetic path, 100 layers",
        bad == 0 and boundary_ok,
        f"{bad} mismatched layers; 53-bit boundary case exact and 54-bit rejected",
    )


def _oracle_vote(votes: np.ndarray, kappa: float):
    """Independent brute-force voting: Counter per column, smallest exponent
    among the most common, rescue only on a strict majority share."""
    n, c = votes.shape
    exps, agree = [], []
    for j in range(c):
        counts = Counter(int(v) for v in votes[:, j])
        best = max(counts.values())
        mode = min(d for d, k in counts.items() if k == best)
        share = best / n
        agree.append(share)
        exps.append(mode if share > kappa else 0)
    return np.array(exps), np.array(agree)


def test_c04_vote_matches_brute_force_exhaustively():
    t0 = time.perf_counter()
    kappas = (0.25, 0.5, 0.6, 0.75, 1.0)
    checked = 0

    def check(matrix, kappa):
        nonlocal checked
        got = vote(matrix, kappa)
        want_e, want_a = _oracle_vote(matrix, kappa)
        assert np.array_equal(got.exponents, want_e), (matrix, kappa)
        assert np.array_equal(got.agreement, want_a), (matrix, kappa)
        checked += 1

    # every single-column vote set with N <= 6 votes over exponents {0,1,2}
    for n in range(1, 7):
        for col in itertools.product(range(3), repeat=n):
            m = np.array(col, dtype=np.int64).reshape(n, 1)
            for kappa in kappas:
                check(m, kappa)
    # every multi-column matrix small enough to enumerate outright
    for n, c in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        for flat in itertools.product(range(3), repeat=n * c):
            m = np.array(flat, dtype=np.int64).reshape(n, c)
            for kappa in kappas:
                check(m, kappa)
    for flat in itertools.product(range(3), repeat=9):  # N=3, C=3
        m = np.array(flat, dtype=np.int64).reshape(3, 3)
        for kappa in (0.5, 0.6):
            check(m, kappa)

    # tabulated examples
    unanimous = vote(np.full((4, 1), 2), 0.6)
    ex1 = unanimous.exponents[0] == 2 and unanimous.agreement[0] == 1.0
    half = vote(np.array([[1], [1], [0], [0]]), 0.5)
    ex2 = half.exponents[0] == 0 and half.agreement[0] == 0.5
    threeq = vote(np.array([[2], [2], [2], [0]]), 0.6)
    ex3 = threeq.exponents[0] == 2 and threeq.agreement[0] == 0.75
    dt = time.perf_counter() - t0
    _report(
        4,
        "exponent voting vs brute force",
        ex1 and ex2 and ex3 and dt < 10.0,
        f"{checked} enumerated matrices, 3 tabulated examples, {dt:.2f}s",
    )


def test_c05_timestep_weighting_closed_forms():
    # alpha = 0 disables weighting entirely
    w0 = TimestepWeighter([1, 2], alpha=0.0)
    w0.update(1, 5.0)
    w0.update(2, 50.0)
    flat = w0.weight(1) == 1.0 and w0.weight(2) == 1.0

    # running averages {1, 3} at alpha = 1 give weights {0.75, 0.25}
    w1 = TimestepWeighter([1, 2], alpha=1.0)
    w1.update(1, 1.0)
    w1.update(2, 3.0)
    closed = abs(w1.weight(1) - 0.75) < 1e-12 and abs(w1.weight(2) - 0.25) < 1e-12

    # momentum: 0.95 * 2 + 0.05 * 4 = 2.1
    w2 = TimestepWeighter([9], alpha=1.0, xi=0.95)
    w2.update(9, 2.0)
    w2.update(9, 4.0)
    momentum = abs(w2.running_average(9) - 2.1) < 1e-12

    # anti-monotone in the running average, 1000 random states
    rng = Rng(123)
    violations = 0
    for k in range(1000):
        m = int(rng.child(f"m{k}").integers(2, 7))
        alpha = float(rng.child(f"a{k}").uniform(0.0, 4.0, ()))
        avgs = np.exp(rng.child(f"l{k}").uniform(-3, 3, m))
        w = TimestepWeighter(list(range(1, m + 1)), alpha=alpha)
        for t in range(1, m + 1):
            w.update(t, float(avgs[t - 1]))
        weights = [w.weight(t) for t in range(1, m + 1)]
        for i in range(m):
            for j in range(m):
                if avgs[i] < avgs[j] and weights[i] < weights[j]:
                    violations += 1
    _report(
        5,
        "focal weight closed forms and anti-monotonicity",
        flat and closed and momentum and violations == 0,
        f"closed forms to 1e-12; {violations} ordering violations in 1000 states",
    )


def _boundary_distance(x, w, tau, act_p, wgt_p) -> float:
    x_hat, w_hat = _scaled_pair(x, w, tau)
    dists = []
    for v, p in ((x_hat, act_p), (w_hat, wgt_p)):
        lo, hi = p.bounds
        r = v / p.scale_for(v.shape)
        dists.append(float(np.min(np.abs(r - lo))))
        dists.append(float(np.min(np.abs(r - hi))))
    return min(dists)


def test_c06_straight_through_gradient_matches_finite_differences():
    h = 5e-7
    worst = 0.0
    layers = 0
    for seed in range(50):
        rng = Rng(1000 + seed)
        c_in = int(rng.child("ci").integers(3, 9))
        c_out = int(rng.child("co").integers(3, 7))
        n = int(rng.child("n").integers(16, 41))
        x = rng.child("x").standard_normal((n, c_in)) * 2.0
        w = rng.child("w").standard_normal((c_in, c_out))
        tau_ref = np.exp(rng.child("ref").uniform(-0.5, 0.5, c_in))
        x_ref, w_ref = _scaled_pair(x, w, tau_ref)
        act_p = minmax_scale(x_ref, 8)
        wgt_p = minmax_scale(w_ref, 4, axis=1)
        for attempt in range(12):
            tau = tau_ref * np.exp(
                rng.child(f"tau{attempt}").uniform(-0.05, 0.05, c_in)
            )
            if _boundary_distance(x, w, tau, act_p, wgt_p) >= 1e-4:
                break
        else:
            raise AssertionError(f"seed {seed}: no point clear of clamp kinks")

        got = les_grad(x, w, tau, act_p, wgt_p, rounded=False)
        log_tau = np.log(tau)
        want = np.zeros(c_in)
        for c in range(c_in):
            up, dn = log_tau.copy(), log_tau.copy()
            up[c] += h
            dn[c] -= h
            f_up = float(np.mean(les_loss(x, w, np.exp(up), 8, 4, act_p, wgt_p, rounded=False)))
            f_dn = float(np.mean(les_loss(x, w, np.exp(dn), 8, 4, act_p, wgt_p, rounded=False)))
            want[c] = (f_up - f_dn) / (2 * h)
        floor = 1e-3 * max(float(np.max(np.abs(want))), 1e-6)
        rel = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))
        worst = max(worst, rel)
        layers += 1
    _report(
        6,
        "analytic gradient vs central differences, 50 layers",
        layers == 50 and worst < 1e-3,
        f"worst relative deviation {worst:.3e}",
    )


def test_c07_learned_scaling_beats_identity_and_tracks_grid_oracle():
    t0 = time.perf_counter()
    data_rng = Rng(42)
    x = data_rng.child("x").standard_normal((256, 16))
    x[:, 5] *= 100.0
    w = data_rng.child("w").standard_normal((16, 16)) * 0.5
    record = LayerCalibRecord("hot", x, np.full(256, 10, dtype=np.int64), w)

    def full_loss(tau):
        return float(np.mean(les_loss(x, w, tau, 8, 4)))

    base = full_loss(np.ones(16))

    # coordinate-descent oracle over the power-of-two grid 2^-4 .. 2^4
    grid = np.exp2(np.arange(-4.0, 5.0))
    tau_star = np.ones(16)
    best = base
    for _ in range(8):
        changed = False
        for c in range(16):
            for g in grid:
                cand = tau_star.copy()
                cand[c] = g
                loss = full_loss(cand)
                if loss < best - 1e-15:
                    best, tau_star, changed = loss, cand, True
        if not changed:
            break
    oracle = best

    result = optimize_layer(
        record,
        TimestepWeighter([10], alpha=0.0),
        Rng(7),
        iterations=1000,
        lr=0.1,
        batch_size=256,
        optimizer="adam",
    )
    dt = time.perf_counter() - t0
    improved = result.final_loss < base
    near_oracle = result.final_loss <= 1.1 * oracle
    _report(
        7,
        "descent on a 100x outlier layer",
        improved and near_oracle and dt < 60.0,
        f"identity {base:.4e} -> learned {result.final_loss:.4e}, "
        f"grid oracle {oracle:.4e}, gap {(result.final_loss / oracle - 1) * 100:+.1f}%, {dt:.1f}s",
    )


def test_c08_end_to_end_ordering_and_golden_report():
    t0 = time.perf_counter()
    # The config names the checkpoint relative to its own directory, so this
    # resolves to CHECKPOINT from any cwd.
    base = parse_config(CONFIG)
    assert base.checkpoint == str(CHECKPOINT)
    variants = {
        "minmax": dict(les=False, pts_layers="none"),
        "les_only": dict(les=True, pts_layers="none"),
        "les_pts": dict(les=True, pts_layers="skip_only"),
    }
    mses = {}
    for name, override in variants.items():
        cfg = dataclasses.replace(base, **override)
        _, report = run_quantize(cfg)
        mses[name] = report.endpoint_mse
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        m = re.match(r"(\w+): endpoint_mse = ([^ ]+) ", line)
        if m:
            golden[m.group(1)] = m.group(2)
    ordering = mses["les_pts"] < mses["minmax"] and mses["les_pts"] <= mses["les_only"]
    differ = [k for k in variants if repr(mses[k]) != golden.get(k)]
    dt = time.perf_counter() - t0
    # The ordering as measured, highest error first.
    ranked = sorted(variants, key=lambda k: -mses[k])
    measured = f"{ranked[0]} {mses[ranked[0]]:.4f}"
    for hi, lo in zip(ranked, ranked[1:]):
        measured += f" {'>' if mses[hi] > mses[lo] else '='} {lo} {mses[lo]:.4f}"
    golden_note = (
        f"golden file differs for {', '.join(differ)}" if differ else "golden file reproduced"
    )
    _report(
        8,
        "endpoint MSE ordering at W4A8, 20 sampler steps",
        ordering and not differ and dt < 300.0,
        f"{measured}; {golden_note}; {dt:.1f}s",
    )


def test_c09_quantization_is_deterministic(tmp_path):
    cfg = Config(
        checkpoint=str(CHECKPOINT), T=8, n=4, B=16, iterations=20, D=3, seed=11
    )
    blobs, texts = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.dmq"
        rep = tmp_path / f"{tag}.txt"
        quantize_to_file(cfg, out, rep)
        blobs.append(out.read_bytes())
        texts.append(
            rep.read_text()
            + (tmp_path / f"{tag}_layers.tsv").read_text()
            + (tmp_path / f"{tag}_summary.tsv").read_text()
        )
    _report(
        9,
        "repeated runs byte-identical",
        blobs[0] == blobs[1] and texts[0] == texts[1],
        f"model files {len(blobs[0])} bytes equal, reports equal",
    )


def test_c10_model_container_round_trip(tmp_path):
    def build(bits_w, seed):
        rng = Rng(seed)
        layers = []
        for i, name in enumerate(("one", "two")):
            c_in, c_out = 7 + i, 5
            w = rng.child(f"w{i}").standard_normal((c_in, c_out))
            wp = minmax_scale(w, bits_w, signed=True, axis=1)
            ap = QuantParams(0.02, 8, True)
            tau = np.exp(rng.child(f"t{i}").uniform(-1, 1, c_in))
            exps = rng.child(f"d{i}").integers(0, 4, c_in)
            layers.append(
                QuantizedLayer(name, quantize(w, wp), wp, ap, tau * 0.02, exps)
            )
        return QuantizedModel(bits_w, 8, True, tuple(layers))

    round_trips = 0
    for bits_w in (4, 8, 16):
        model = build(bits_w, 40 + bits_w)
        p1, p2 = tmp_path / f"{bits_w}a.dmq", tmp_path / f"{bits_w}b.dmq"
        export_model(p1, model)
        export_model(p2, import_model(p1))
        assert p1.read_bytes() == p2.read_bytes(), f"{bits_w}-bit round trip drifted"
        round_trips += 1

    pairs_ok = all(
        unpack_int4(pack_int4(np.array([a, b])), 2).tolist() == [a, b]
        for a in range(-8, 8)
        for b in range(-8, 8)
    )
    odd_ok = unpack_int4(pack_int4(np.array([5])), 1).tolist() == [5]

    good = tmp_path / "good.dmq"
    export_model(good, build(4, 99))
    raw = good.read_bytes()
    corrupt_cases = [
        b"XXXX" + raw[4:],              # magic
        raw[:4] + b"\x63\x00" + raw[6:],  # version 99
        raw[: len(raw) // 2],           # truncation
        raw + b"\x00",                  # trailing bytes
    ]
    rejected = 0
    for i, blob in enumerate(corrupt_cases):
        p = tmp_path / f"bad{i}.dmq"
        p.write_bytes(blob)
        with pytest.raises(FormatError):
            import_model(p)
        rejected += 1
    _report(
        10,
        "container round-trip, nibble packing, corruption rejection",
        round_trips == 3 and pairs_ok and odd_ok and rejected == 4,
        f"{round_trips} widths byte-identical, 256 nibble pairs exact, "
        f"{rejected}/4 corruptions rejected",
    )


def test_c11_forward_noising_variance():
    sched = NoiseSchedule.linear(1000)
    rng = Rng(42)
    x0 = ring_data(rng.child("data"), 10_000)
    v0 = np.var(x0, axis=0)
    worst = 0.0
    for t in (10, 500, 1000):
        xt = forward_noise(sched, x0, t, rng.child(f"noise-{t}"))
        ab = sched.alpha_bar(t)
        want = ab * v0 + (1.0 - ab)
        dev = float(np.max(np.abs(np.var(xt, axis=0) - want) / want))
        worst = max(worst, dev)
    _report(
        11,
        "forward noising variance vs closed form, 3 timesteps x 10^4 draws",
        worst < 0.05,
        f"max relative deviation {worst:.3%} (tolerance 5%)",
    )
