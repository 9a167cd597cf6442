"""Forked workers beyond LES: the fork helper's contract, the PTS vote in
channel shares, and propagate mode's report-row and full-precision endpoint
workers.

CPU counts are forced through workers.usable_cpus, and the PTS size rule
(pts._SHARE_ELEMENTS) is lowered where a small tensor has to split. The
checks: output bytes never depend on either, every worker that dies or
fails surfaces as a DenoqError in the order a sequential run would meet it,
a fork that cannot start runs its work in the parent, and no child is left
behind.
"""

import dataclasses
import errno
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from denoq import cli, pipeline, pts, workers
from denoq.errors import DenoqError, DomainError, NumericalError
from denoq.pipeline import parse_config, quantize_to_file, run_eval
from denoq.pts import calibrate_activation_scaling
from denoq.tensor import Rng
from denoq.toydiff import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent
W4A8 = ROOT / "configs" / "w4a8.cfg"
CHECKPOINT = ROOT / "checkpoints" / "toy2d.ckpt"
SPECS = load_checkpoint(CHECKPOINT)[0].quantizable_layers()
LAYERS = [s.name for s in SPECS]
OUTPUTS = (
    "model.dmq", "report.txt", "report_layers.tsv", "report_summary.tsv",
    "eval.txt", "eval_layers.tsv", "eval_summary.tsv",
)
# rescue_wide's overrides on a small calibration set, and propagate mode
# with LES on.
RESCUE_WIDE = {"les": False, "pts_layers": "all", "propagate_quantized_inputs": True}
PROPAGATE_LES = {"pts_layers": "all", "propagate_quantized_inputs": True}


def small_w4a8(**kw):
    """configs/w4a8.cfg with a small calibration set and few iterations."""
    return dataclasses.replace(parse_config(W4A8), n=8, T=6, iterations=24, **kw)


@pytest.fixture(autouse=True)
def no_child_is_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made in this process; the real fork still runs."""
    made = []
    real_fork = os.fork

    def counting_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def cpus(monkeypatch, count):
    monkeypatch.setattr(workers, "usable_cpus", lambda: count)


def split_small_tensors(monkeypatch):
    monkeypatch.setattr(pts, "_SHARE_ELEMENTS", 1)


def in_a_child(action):
    """A function that runs action() in a forked worker and nothing here."""
    parent = os.getpid()

    def maybe(*args, **kwargs):
        if os.getpid() != parent:
            action()

    return maybe


def die():
    os._exit(3)


# ---------------------------------------------------------------------------
# The fork helper
# ---------------------------------------------------------------------------


def test_a_job_returns_what_its_work_returned(monkeypatch, forks):
    cpus(monkeypatch, 2)
    job = workers.start(lambda: (np.arange(5) * 2, os.getpid()), "doubling")
    values, pid = job.result()
    assert len(forks) == 1 and pid != os.getpid()
    assert values.tolist() == [0, 2, 4, 6, 8]
    assert job.result()[1] == pid  # joined once, kept


def test_a_job_raises_what_its_work_raised(monkeypatch, forks):
    cpus(monkeypatch, 2)

    def fail():
        raise DomainError("out of range")

    job = workers.start(fail, "failing work")
    assert isinstance(job.outcome(), DomainError)
    with pytest.raises(DomainError, match="out of range"):
        job.result()
    assert len(forks) == 1


def test_one_usable_cpu_runs_the_work_here(monkeypatch, forks):
    cpus(monkeypatch, 1)
    ran = []
    job = workers.start(lambda: ran.append(os.getpid()) or 7, "work")
    assert ran == [os.getpid()] and forks == []
    assert job.result() == 7


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_worker_that_cannot_start_runs_here_at_once(call, monkeypatch):
    cpus(monkeypatch, 2)

    def refuse():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    ran = []
    job = workers.start(lambda: ran.append(os.getpid()) or "done", "work")
    assert ran == [os.getpid()]  # before the result is asked for
    assert job.result() == "done"


@pytest.mark.parametrize(
    "end, how",
    [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ],
)
def test_a_child_that_dies_is_a_denoq_error_naming_its_work(end, how, monkeypatch):
    cpus(monkeypatch, 2)
    job = workers.start(end, "the test worker")
    with pytest.raises(DenoqError) as info:
        job.result()
    assert type(info.value) is DenoqError
    assert str(info.value) == f"the test worker ended without a result ({how})"


def test_shares_come_back_in_share_order(monkeypatch, forks):
    cpus(monkeypatch, 4)

    def work(share):
        if share == 2:
            raise NumericalError("share 2")
        return share * 10, os.getpid()

    outcomes = workers.run_shares(work, [0, 1, 2, 3], lambda share: f"share {share}")
    assert len(forks) == 3
    assert [o[0] for o in (outcomes[0], outcomes[1], outcomes[3])] == [0, 10, 30]
    assert outcomes[0][1] == os.getpid() and outcomes[1][1] != os.getpid()
    assert isinstance(outcomes[2], NumericalError)


# ---------------------------------------------------------------------------
# The PTS vote in channel shares
# ---------------------------------------------------------------------------


def test_the_size_rule_keeps_a_w4a8_layer_whole_and_splits_a_rescue_wide_one(monkeypatch):
    cpus(monkeypatch, 2)
    assert pts._channel_shares(64 * 20, 64) == [slice(0, 64)]
    assert pts._channel_shares(1024 * 20, 64) == [slice(0, 32), slice(32, 64)]


def test_channel_shares_cover_the_channels_in_order(monkeypatch):
    rule = pts._SHARE_ELEMENTS
    cpus(monkeypatch, 4)
    # Below the rule for two shares: whole. At it: two. Far above: one per CPU.
    assert len(pts._channel_shares(2 * rule // 7 - 1, 7)) == 1
    assert pts._channel_shares(2 * rule // 7 + 1, 7) == [slice(0, 3), slice(3, 7)]
    assert pts._channel_shares(rule, 7) == [
        slice(0, 1), slice(1, 3), slice(3, 5), slice(5, 7)
    ]
    # Never more shares than channels.
    assert pts._channel_shares(rule, 3) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    cpus(monkeypatch, 1)
    assert pts._channel_shares(rule, 64) == [slice(0, 64)]


def activations(n, c, seed=5):
    """Noise with outlier channels, half-steps of the candidate grids and a
    constant column: the vote's ties and rescues all occur."""
    rng = Rng(seed)
    x = rng.standard_normal((n, c))
    x[:, [1, c // 2]] = 12.0 + rng.standard_normal((n, 2))
    x[: n // 2, ::3] = (rng.integers(-20, 20, (n // 2, len(range(0, c, 3)))) + 0.5) * 0.125
    x[:, -1] = 3.0
    return x


def calibrated_bytes(x, **kw):
    base, f = calibrate_activation_scaling(x, bits=4, max_exponent=3, kappa=0.5, **kw)
    return np.float64(base).tobytes(), f.exponents.tobytes(), f.agreement.tobytes()


@pytest.mark.parametrize(
    "c, count",
    [(9, 2), (9, 9), (3, 4), (64, 3)],
    ids=["odd-C", "one-column-shares", "more-CPUs-than-channels", "uneven"],
)
@pytest.mark.parametrize("signed", [True, False])
def test_calibration_is_the_same_in_channel_shares(c, count, signed, monkeypatch, forks):
    x = activations(90, c)
    cpus(monkeypatch, 1)
    whole = calibrated_bytes(x, signed=signed)
    split_small_tensors(monkeypatch)
    cpus(monkeypatch, count)
    forks.clear()
    assert calibrated_bytes(x, signed=signed) == whole
    assert len(forks) == min(count, c) - 1
    exps = np.frombuffer(whole[1], dtype=np.int64)
    assert exps.any()  # the case rescues something


def test_a_tensor_splits_only_at_the_size_rule(monkeypatch, forks):
    """The module's own rule, on both sides of two shares' worth."""
    cpus(monkeypatch, 2)
    c = 64
    rows = 2 * pts._SHARE_ELEMENTS // c
    x = activations(rows, c, seed=9)
    split = calibrated_bytes(x)
    assert len(forks) == 1
    forks.clear()
    calibrated_bytes(x[1:])
    assert forks == []
    cpus(monkeypatch, 1)
    assert calibrated_bytes(x) == split


def test_a_share_error_is_raised_after_the_parents_own(monkeypatch):
    """Share 0 runs here and comes first in channel order."""
    cpus(monkeypatch, 2)
    split_small_tensors(monkeypatch)
    real = pts._ladder_votes
    parent = os.getpid()

    def ladder_votes(x, *args):
        if os.getpid() == parent:
            raise DomainError("own share")
        raise NumericalError("child share")

    monkeypatch.setattr(pts, "_ladder_votes", ladder_votes)
    with pytest.raises(DomainError, match="own share"):
        calibrate_activation_scaling(activations(10, 4), bits=4, max_exponent=2, kappa=0.5)

    def child_fails(x, *args):
        if os.getpid() != parent:
            raise NumericalError("child share")
        return real(x, *args)

    monkeypatch.setattr(pts, "_ladder_votes", child_fails)
    with pytest.raises(NumericalError, match="child share"):
        calibrate_activation_scaling(activations(10, 4), bits=4, max_exponent=2, kappa=0.5)


# ---------------------------------------------------------------------------
# Propagate mode's workers
# ---------------------------------------------------------------------------


def run_bytes(config, out: Path) -> list:
    out.mkdir()
    quantize_to_file(config, out / "model.dmq", out / "report.txt")
    run_eval(out / "model.dmq", config).write(out / "eval.txt")
    return [(out / name).read_bytes() for name in OUTPUTS]


@pytest.mark.parametrize("kw", [RESCUE_WIDE, PROPAGATE_LES], ids=["rescue_wide", "les"])
@pytest.mark.parametrize("seed", [0, 1])
def test_propagate_outputs_do_not_depend_on_the_worker_count(
    kw, seed, tmp_path, monkeypatch, forks
):
    split_small_tensors(monkeypatch)
    config = small_w4a8(seed=seed, **kw)
    outputs = {}
    for count in (1, 2, 4):
        cpus(monkeypatch, count)
        forks.clear()
        outputs[count] = run_bytes(config, tmp_path / str(count))
        # The endpoint worker, a row worker per layer, and PTS shares.
        pts_forks = sum(min(count, s.c_in) - 1 for s in SPECS)
        assert len(forks) == (0 if count == 1 else 1 + len(LAYERS) + pts_forks)
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]


def test_a_fork_that_fails_in_propagate_mode_runs_its_work_here(tmp_path, monkeypatch):
    split_small_tensors(monkeypatch)
    config = small_w4a8(**RESCUE_WIDE)
    cpus(monkeypatch, 1)
    sequential = run_bytes(config, tmp_path / "sequential")
    calls = []
    real_fork = os.fork

    def every_other_fork_fails():
        calls.append(1)
        if len(calls) % 2 == 0:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", every_other_fork_fails)
    cpus(monkeypatch, 2)
    assert run_bytes(config, tmp_path / "some") == sequential
    assert len(calls) > 2


WORKER_KINDS = {
    "pts": (pts, "_ladder_votes", "PTS worker for channels 32-63"),
    "rows": (pipeline, "_layer_rows", f"report-row worker for layer {LAYERS[0]}"),
    "endpoint": (pipeline, "_endpoint", "full-precision endpoint worker"),
}


def small_propagate_cfg_file(tmp_path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(
        f"checkpoint = {CHECKPOINT}\nn = 8\nT = 6\nles = false\n"
        "pts_layers = all\npropagate_quantized_inputs = true\n"
    )
    return path


@pytest.mark.parametrize("kind", sorted(WORKER_KINDS))
def test_a_dying_worker_of_each_kind_names_its_work(kind, tmp_path, capsys, monkeypatch):
    owner, name, what = WORKER_KINDS[kind]
    real = getattr(owner, name)
    dies = in_a_child(die)

    def dying(*args, **kwargs):
        dies()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, dying)
    split_small_tensors(monkeypatch)
    cpus(monkeypatch, 2)
    with pytest.raises(DenoqError) as info:
        pipeline.run_quantize(small_w4a8(**RESCUE_WIDE))
    assert str(info.value) == f"{what} ended without a result (exit status 3)"

    cfgp = small_propagate_cfg_file(tmp_path)
    rc = cli.main(["quantize", "--config", str(cfgp), "--out", str(tmp_path / "m.dmq")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {what} ended without a result (exit status 3)\n"


def failing(owner, name, monkeypatch, when, error):
    """Make owner.name raise error where when(*args) holds."""
    real = getattr(owner, name)

    def fn(*args, **kwargs):
        if when(*args, **kwargs):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fn)


def rows_of(layer):
    return lambda name, *args: name == layer


def full_precision(model, schedule, config, root, overrides=None, capture=None):
    return overrides is None


def quantized(*args, **kwargs):
    return not full_precision(*args, **kwargs)


def pts_of_layer(index):
    """Holds for calibrate_activation_scaling's call on the index-th layer."""
    seen = []

    def when(*args, **kwargs):
        seen.append(1)
        return len(seen) == index + 1

    return when


# Each case: the failures to install, as (owner, name, when, error), and
# the error a sequential run raises. Built per run, since pts_of_layer counts.
ORDER_CASES = {
    "rows-before-the-next-layer": lambda: (
        [
            (pipeline, "_layer_rows", rows_of(LAYERS[0]), DomainError("rows of res1")),
            (pipeline, "calibrate_activation_scaling", pts_of_layer(1), NumericalError("pts")),
        ],
        (DomainError, "rows of res1"),
    ),
    "a-layer-before-the-endpoint": lambda: (
        [
            (pipeline, "_endpoint", full_precision, NumericalError("fp")),
            (pipeline, "calibrate_activation_scaling", pts_of_layer(2), DomainError("pts")),
        ],
        (DomainError, "pts"),
    ),
    "the-last-rows-before-the-endpoint": lambda: (
        [
            (pipeline, "_endpoint", full_precision, NumericalError("fp")),
            (pipeline, "_layer_rows", rows_of(LAYERS[-1]), DomainError("rows of mid")),
        ],
        (DomainError, "rows of mid"),
    ),
    "full-precision-before-quantized": lambda: (
        [
            (pipeline, "_endpoint", quantized, NumericalError("quantized")),
            (pipeline, "_endpoint", full_precision, DomainError("fp")),
        ],
        (DomainError, "fp"),
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_errors_surface_in_the_order_a_sequential_run_meets_them(case, monkeypatch):
    raised = {}
    for count in (1, 2):
        failures, expected = ORDER_CASES[case]()
        with pytest.MonkeyPatch.context() as mp:
            for owner, name, when, error in failures:
                failing(owner, name, mp, when, error)
            cpus(mp, count)
            with pytest.raises(DenoqError) as info:
                pipeline.run_quantize(small_w4a8(**RESCUE_WIDE))
            raised[count] = (type(info.value), str(info.value))
    assert raised[2] == raised[1] == expected
