"""Shares beyond LES: the contract of workers.run_shares, the PTS vote in
channel shares, report rows in timestep shares, and sampler runs in row
shares.

CPU counts are forced through workers.usable_cpus, and the size rules
(workers._SHARE_ELEMENTS, toydiff._SHARE_ROW_STEPS) are lowered where a
small run has to split. The checks: output bytes never depend on any of
them, every share that dies or fails surfaces as a DenoqError in the order
a sequential run would meet it, and a fork that cannot start runs its
share in the parent. conftest.py checks that no child is left behind.
"""

import dataclasses
import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from denoq import cli, pipeline, pts, toydiff, workers
from denoq.errors import DenoqError, DimensionError, DomainError, NumericalError
from denoq.pipeline import parse_config, quantize_to_file, run_eval
from denoq.pts import calibrate_activation_scaling
from denoq.tensor import Rng
from denoq.toydiff import collect_calibration, load_checkpoint, sample, sample_endpoint

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
    return dataclasses.replace(parse_config(W4A8), **{"n": 8, "T": 6, "iterations": 24, **kw})


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
    monkeypatch.setattr(workers, "_SHARE_ELEMENTS", 1)


def split_small_runs(monkeypatch):
    monkeypatch.setattr(toydiff, "_SHARE_ROW_STEPS", 1)


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
    outcomes = workers.run_shares(
        lambda share: (np.arange(5) * share, os.getpid()), [1, 2], lambda share: f"{share}"
    )
    assert len(forks) == 1
    (ones, here), (twos, there) = outcomes
    assert here == os.getpid() and there != os.getpid()
    assert ones.tolist() == [0, 1, 2, 3, 4] and twos.tolist() == [0, 2, 4, 6, 8]


def test_a_job_raises_what_its_work_raised(monkeypatch, forks):
    cpus(monkeypatch, 2)

    def work(share):
        if share == 1:
            raise DomainError("out of range")
        return share

    with pytest.raises(DomainError, match="out of range"):
        workers.run_shares(work, [0, 1], lambda share: f"share {share}")
    assert len(forks) == 1


def test_one_usable_cpu_runs_the_work_here(monkeypatch, forks):
    cpus(monkeypatch, 1)
    ran = []
    outcomes = workers.run_shares(
        lambda share: ran.append(share) or os.getpid(), [0, 1, 2], lambda share: f"{share}"
    )
    assert outcomes == [os.getpid()] * 3 and forks == []
    assert ran == [1, 2, 0]  # the first share last, as with forks


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_worker_that_cannot_start_runs_here_at_once(call, monkeypatch):
    cpus(monkeypatch, 2)

    def refuse():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    ran = []
    outcomes = workers.run_shares(
        lambda share: ran.append(share) or os.getpid(), [0, 1, 2], lambda share: f"{share}"
    )
    assert ran == [1, 2, 0]  # each refused share before the first one
    assert outcomes == [os.getpid()] * 3


@pytest.mark.parametrize(
    "end, how",
    [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ],
)
def test_a_child_that_dies_is_a_denoq_error_naming_its_work(end, how, monkeypatch):
    cpus(monkeypatch, 2)

    def work(share):
        if share == 1:
            end()
        return share

    with pytest.raises(DenoqError) as info:
        workers.run_shares(work, [0, 1], lambda share: f"the test worker {share}")
    assert type(info.value) is DenoqError
    assert str(info.value) == f"the test worker 1 ended without a result ({how})"


def test_shared_arrays_carry_a_childs_writes(monkeypatch):
    cpus(monkeypatch, 2)
    rows, table = workers.shared_arrays([(3, 5), (4, 2)])
    assert rows.shape == (3, 5) and table.shape == (4, 2)
    assert not rows.any() and not table.any()
    assert rows.ctypes.data % 64 == 0 and table.ctypes.data % 64 == 0

    def fill(share):
        if share == 1:
            rows[1] = 7.0
            table[:] = np.arange(8.0).reshape(4, 2)
        return os.getpid()

    here, there = workers.run_shares(fill, [0, 1], lambda share: f"{share}")
    assert there != here
    assert rows.tolist() == [[0.0] * 5, [7.0] * 5, [0.0] * 5]
    assert table.ravel().tolist() == list(range(8))


def test_shares_come_back_in_share_order(monkeypatch, forks):
    cpus(monkeypatch, 4)
    outcomes = workers.run_shares(
        lambda share: (share * 10, os.getpid()), [0, 1, 2, 3], lambda share: f"share {share}"
    )
    assert len(forks) == 3
    assert [value for value, _ in outcomes] == [0, 10, 20, 30]
    assert outcomes[0][1] == os.getpid()
    assert len({pid for _, pid in outcomes}) == 4


@pytest.mark.parametrize("first", [0, 1])
def test_the_first_error_in_share_order_is_raised_once_every_child_is_reaped(
    first, monkeypatch, forks
):
    """Shares from `first` on fail: share 2's child dies and the others
    raise. The error raised is the first share's, and conftest.py checks
    that every child was reaped."""
    cpus(monkeypatch, 4)

    def work(share):
        if share == 2:
            die()
        if share >= first:
            raise NumericalError(f"share {share}")
        return share

    with pytest.raises(NumericalError, match=f"^share {first}$"):
        workers.run_shares(work, [0, 1, 2, 3], lambda share: f"share {share}")
    assert len(forks) == 3


_BLAS_THREADS_SCRIPT = """
import numpy  # before denoq, with no BLAS variable set
from denoq import workers
from denoq.errors import NumericalError

threads = workers._blas_thread_calls()[0]

def fail(share):
    raise NumericalError(share)

before = threads()
seen = workers.run_shares(lambda share: threads(), [0, 1], str)
after = threads()
try:
    workers.run_shares(fail, [0, 1], str)
except NumericalError:
    pass
print(before, *seen, after, threads())
"""


def test_shares_run_one_blas_thread_whatever_the_import_order():
    """With numpy imported first, OpenBLAS starts one thread per CPU. Both
    shares read 1 thread, and the parent gets its count back after
    run_shares returns and after it raises."""
    if workers._blas_thread_calls() is None or workers.usable_cpus() < 2:
        pytest.skip("needs numpy's bundled OpenBLAS thread setter and 2 usable CPUs")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
        env=env, check=True, timeout=60, capture_output=True, text=True,
    )
    before, first, second, after, after_raising = map(int, done.stdout.split())
    assert before > 1
    assert (first, second) == (1, 1)
    assert after == after_raising == before


# ---------------------------------------------------------------------------
# The PTS vote in channel shares
# ---------------------------------------------------------------------------


def test_the_size_rule_keeps_a_w4a8_layer_whole_and_splits_a_rescue_wide_one(monkeypatch):
    """A layer's PTS vote in channel shares, and its report rows in timestep
    shares: the records are 64 x 20 x 64 on w4a8, 1024 x 20 x 64 on
    rescue_wide."""
    cpus(monkeypatch, 2)
    assert workers.share_slices(64, 64 * 20 * 64) == [slice(0, 64)]
    assert workers.share_slices(64, 1024 * 20 * 64) == [slice(0, 32), slice(32, 64)]
    assert workers.share_slices(20, 64 * 20 * 64) == [slice(0, 20)]
    assert workers.share_slices(20, 1024 * 20 * 64) == [slice(0, 10), slice(10, 20)]


def test_channel_shares_cover_the_channels_in_order(monkeypatch):
    rule = workers._SHARE_ELEMENTS
    cpus(monkeypatch, 4)
    # Below the rule for two shares: whole. At it: two. Far above: one per CPU.
    assert len(workers.share_slices(7, 2 * rule - 1)) == 1
    assert workers.share_slices(7, 2 * rule) == [slice(0, 3), slice(3, 7)]
    assert workers.share_slices(7, 7 * rule) == [
        slice(0, 1), slice(1, 3), slice(3, 5), slice(5, 7)
    ]
    # Never more shares than items.
    assert workers.share_slices(3, 3 * rule) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    cpus(monkeypatch, 1)
    assert workers.share_slices(64, 64 * rule) == [slice(0, 64)]


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


def test_every_share_votes_on_its_columns_in_place(monkeypatch, forks):
    """No share copies its columns, and a strided view walked in blocks of
    two rows gives the bits of the whole tensor voted in one process."""
    x = activations(90, 9)
    cpus(monkeypatch, 1)
    whole = calibrated_bytes(x)
    real = pts._ladder_votes

    def in_place(cols, *args):
        assert np.shares_memory(cols, x) and not cols.flags.c_contiguous
        return real(cols, *args)

    monkeypatch.setattr(pts, "_ladder_votes", in_place)
    monkeypatch.setattr(pts, "_BLOCK_BYTES", 7 * 5 * 8 * 2)  # D = 3: 7 planes
    split_small_tensors(monkeypatch)
    cpus(monkeypatch, 2)
    forks.clear()
    assert calibrated_bytes(x) == whole
    assert len(forks) == 1


def test_a_tensor_splits_only_at_the_size_rule(monkeypatch, forks):
    """The module's own rule, on both sides of two shares' worth."""
    cpus(monkeypatch, 2)
    c = 64
    rows = 2 * workers._SHARE_ELEMENTS // c
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
# Whole quantize runs, and report rows in timestep shares
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
        # PTS shares and report-row shares; at n = 8 no sampler run splits.
        pts_forks = sum(min(count, s.c_in) - 1 for s in SPECS)
        row_forks = len(LAYERS) * (min(count, config.T) - 1)
        assert len(forks) == pts_forks + row_forks
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


def always(*args, **kwargs):
    return True


def full_precision_sampler_run(*args, overrides=None, capture=None, **kwargs):
    return overrides is None and capture is None


# Each kind: the function that dies in a child, where it dies, and the
# share it names. At n = 128 and T = 6 the second share holds channels
# 32-63, timesteps 500, 333 and 167, and trajectories 64-127.
WORKER_KINDS = {
    "pts": (pts, "_ladder_votes", always, "PTS worker for channels 32-63"),
    "rows": (
        pipeline, "_layer_rows", always,
        f"report-row worker for layer {LAYERS[0]} at timesteps 500-167",
    ),
    "endpoint": (
        toydiff, "sample", full_precision_sampler_run, "sampler worker for rows 64-127"
    ),
}


def small_propagate_cfg_file(tmp_path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(
        f"checkpoint = {CHECKPOINT}\nn = 128\nT = 6\nles = false\n"
        "pts_layers = all\npropagate_quantized_inputs = true\n"
    )
    return path


@pytest.mark.parametrize("kind", sorted(WORKER_KINDS))
def test_a_dying_worker_of_each_kind_names_its_work(kind, tmp_path, capsys, monkeypatch):
    owner, name, when, what = WORKER_KINDS[kind]
    real = getattr(owner, name)
    dies = in_a_child(die)

    def dying(*args, **kwargs):
        if when(*args, **kwargs):
            dies()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, dying)
    split_small_tensors(monkeypatch)
    split_small_runs(monkeypatch)
    cpus(monkeypatch, 2)
    with pytest.raises(DenoqError) as info:
        pipeline.run_quantize(small_w4a8(n=128, **RESCUE_WIDE))
    assert str(info.value) == f"{what} ended without a result (exit status 3)"

    cfgp = small_propagate_cfg_file(tmp_path)
    rc = cli.main(["quantize", "--config", str(cfgp), "--out", str(tmp_path / "m.dmq")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {what} ended without a result (exit status 3)\n"


@pytest.mark.parametrize("propagate", [False, True])
def test_report_rows_are_the_same_in_timestep_shares(propagate, monkeypatch, forks):
    """No LES and no PTS, so the report rows are all that splits."""
    config = small_w4a8(les=False, pts_layers="none", propagate_quantized_inputs=propagate)
    split_small_tensors(monkeypatch)
    reports = {}
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        forks.clear()
        reports[count] = pipeline.run_quantize(config)[1].to_text()
        assert len(forks) == len(LAYERS) * (count - 1)
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]


def test_a_dying_row_share_names_its_layer(monkeypatch):
    """At three CPUs both children of the skip layer's rows die; the error
    names the layer and the first of their shares."""
    real = pipeline._layer_rows
    dies = in_a_child(die)

    def layer_rows(name, *args):
        if name == "skip":
            dies()
        return real(name, *args)

    monkeypatch.setattr(pipeline, "_layer_rows", layer_rows)
    split_small_tensors(monkeypatch)
    cpus(monkeypatch, 3)
    with pytest.raises(DenoqError) as info:
        pipeline.run_quantize(small_w4a8(les=False))
    assert type(info.value) is DenoqError
    assert str(info.value) == (
        "report-row worker for layer skip at timesteps 667-500 "
        "ended without a result (exit status 3)"
    )


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


# ---------------------------------------------------------------------------
# Sampler runs in row shares
# ---------------------------------------------------------------------------


def test_the_row_rule_keeps_w4a8_whole_and_splits_rescue_wide(monkeypatch):
    cpus(monkeypatch, 2)
    assert toydiff._row_shares(64, 20) == [slice(0, 64)]
    assert toydiff._row_shares(1000, 20) == [slice(0, 1000)]
    assert toydiff._row_shares(1024, 20) == [slice(0, 512), slice(512, 1024)]
    assert toydiff._row_shares(1030, 20) == [slice(0, 512), slice(512, 1030)]
    cpus(monkeypatch, 1)
    assert toydiff._row_shares(1 << 20, 20) == [slice(0, 1 << 20)]


def test_row_shares_are_cut_at_multiples_of_64(monkeypatch):
    split_small_runs(monkeypatch)
    cpus(monkeypatch, 3)
    assert toydiff._row_shares(1000, 1) == [slice(0, 320), slice(320, 640), slice(640, 1000)]
    assert toydiff._row_shares(100, 1) == [slice(0, 64), slice(64, 100)]
    assert toydiff._row_shares(64, 1) == [slice(0, 64)]
    cpus(monkeypatch, 4)
    assert toydiff._row_shares(256, 1) == [
        slice(0, 64), slice(64, 128), slice(128, 192), slice(192, 256)
    ]


@pytest.fixture(scope="module")
def bundled():
    return load_checkpoint(CHECKPOINT)


@pytest.fixture(scope="module")
def quantized_runners():
    """Integer-path runners of every layer of a small quantize."""
    qmodel, _ = pipeline.run_quantize(small_w4a8(les=False))
    return {l.name: pipeline._layer_runner(l) for l in qmodel.layers}


def capture_and_endpoint(bundled, n, eta, overrides):
    """Bytes of every record of a capture, and of an endpoint, at 5 steps."""
    model, schedule = bundled
    records = collect_calibration(
        model, schedule, 5, n, Rng(3).child("calib"), eta=eta, overrides=overrides
    )
    init = Rng(4).standard_normal((n, model.dim))
    endpoint = sample_endpoint(
        model, schedule, 5, n, Rng(5), eta=eta, overrides=overrides, x_init=init
    )
    return [r.activations.tobytes() + r.timesteps.tobytes() for r in records.values()] + [
        endpoint.tobytes()
    ]


@pytest.mark.parametrize("n", [1024, 1000, 1030])
@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("precision", ["full", "quantized"])
def test_runs_in_row_shares_are_bit_identical(
    n, eta, precision, bundled, quantized_runners, monkeypatch, forks
):
    overrides = quantized_runners if precision == "quantized" else None
    model, schedule = bundled
    cpus(monkeypatch, 1)
    whole = capture_and_endpoint(bundled, n, eta, overrides)
    init = Rng(4).standard_normal((n, model.dim))
    one_run = sample(model, schedule, 5, n, Rng(5), eta=eta, overrides=overrides, x_init=init)
    assert whole[-1] == one_run.endpoint.tobytes()
    split_small_runs(monkeypatch)
    for count in (2, 3):
        cpus(monkeypatch, count)
        forks.clear()
        assert capture_and_endpoint(bundled, n, eta, overrides) == whole
        assert len(forks) == 2 * (count - 1)


@pytest.mark.parametrize("layers", [None, ["skip"]], ids=["all", "one"])
@pytest.mark.parametrize("count", [1, 2])
def test_a_capture_into_spent_records_is_a_fresh_capture(
    count, layers, bundled, quantized_runners, monkeypatch, forks
):
    """out= takes the activations of an earlier capture and overwrites them
    with the bits of a capture of its own, in row shares too."""
    model, schedule = bundled
    split_small_runs(monkeypatch)
    cpus(monkeypatch, count)

    def capture(seed, overrides, out=None):
        return collect_calibration(
            model, schedule, 5, 256, Rng(seed), eta=0.5, overrides=overrides,
            layers=layers, out=out,
        )

    spent = [r.activations for r in capture(1, None).values()]
    fresh = capture(3, quantized_runners)
    forks.clear()
    reused = capture(3, quantized_runners, out=spent)
    assert len(forks) == count - 1
    assert list(reused) == list(fresh)
    for name, array in zip(reused, spent):
        assert reused[name].activations is array
        assert reused[name].activations.tobytes() == fresh[name].activations.tobytes()
        assert reused[name].timesteps.tobytes() == fresh[name].timesteps.tobytes()


def test_a_capture_refuses_arrays_it_cannot_fill(bundled, monkeypatch):
    model, schedule = bundled
    cpus(monkeypatch, 2)

    def capture(out):
        return collect_calibration(model, schedule, 5, 64, Rng(0), layers=["res1"], out=out)

    spent = capture(None)["res1"].activations
    before = spent.tobytes()
    rows, c = spent.shape
    (wide,) = workers.shared_arrays([(rows, c + 1)])
    with pytest.raises(DimensionError, match="shapes"):
        capture([wide])
    with pytest.raises(DimensionError, match="shapes"):
        capture([spent, spent])
    with pytest.raises(DomainError, match="shared_arrays"):
        capture([spent.copy()])  # a child's rows would never arrive
    with pytest.raises(DomainError, match="shared_arrays"):
        capture([wide[:, :c]])  # a strided view
    assert spent.tobytes() == before


def test_propagate_mode_maps_one_record_for_all_its_captures(monkeypatch):
    made = []
    real = workers.shared_arrays

    def shared_arrays(shapes):
        made.append(shapes)
        return real(shapes)

    monkeypatch.setattr(workers, "shared_arrays", shared_arrays)
    pipeline.run_quantize(small_w4a8(**RESCUE_WIDE))
    assert len(made) == 1


def test_a_share_starts_from_the_runs_own_noise(bundled, monkeypatch):
    """Share 1 runs here when its fork fails, before share 0: both still
    start from the rng's state, and the rng ends where one run leaves it."""
    model, schedule = bundled
    cpus(monkeypatch, 1)
    rng = Rng(8)
    whole = sample(model, schedule, 4, 128, rng, eta=1.0).endpoint
    after = rng.standard_normal(3)

    def refuse():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    split_small_runs(monkeypatch)
    cpus(monkeypatch, 2)
    rng = Rng(8)
    assert sample_endpoint(model, schedule, 4, 128, rng, eta=1.0).tobytes() == whole.tobytes()
    assert rng.standard_normal(3).tolist() == after.tolist()


def propagate_forks(count: int) -> int:
    """Forks of a propagate-mode quantize and eval at n >= 256 and count
    CPUs: a row share per extra CPU (up to four shares) in each layer's
    capture and in both endpoint halves of quantize and of eval. The PTS
    vote and the report rows stay whole."""
    return (len(LAYERS) + 4) * (min(count, 4) - 1)


@pytest.mark.parametrize(
    "kw",
    [dict(n=256, **RESCUE_WIDE), dict(n=256, **PROPAGATE_LES), dict(n=1000, eta=0.5, **RESCUE_WIDE)],
    ids=["rescue_wide", "les", "rescue_wide-n1000-eta0.5"],
)
def test_quantize_outputs_do_not_depend_on_row_shares(kw, tmp_path, monkeypatch, forks):
    """n = 256 is four 64-row quanta, and n = 1000 is sixteen, the last one
    short; the size rule is lowered so that each CPU up to four takes a
    share. The eval report's bytes are compared too."""
    split_small_runs(monkeypatch)
    config = small_w4a8(**kw)
    outputs = {}
    for count in (1, 2, 3, 4):
        cpus(monkeypatch, count)
        forks.clear()
        outputs[count] = run_bytes(config, tmp_path / str(count))
        assert len(forks) == propagate_forks(count)
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    assert outputs[4] == outputs[1]


def test_quantize_without_propagation_splits_its_capture_and_endpoint(
    tmp_path, monkeypatch, forks
):
    split_small_runs(monkeypatch)
    config = small_w4a8(n=256)
    cpus(monkeypatch, 1)
    whole = run_bytes(config, tmp_path / "1")
    cpus(monkeypatch, 2)
    forks.clear()
    assert run_bytes(config, tmp_path / "2") == whole
    # One LES share, one capture share, and one share of each endpoint half
    # in quantize and in eval.
    assert len(forks) == 6


def sample_of_row(row: int, error):
    """toydiff.sample, raising error in the run that holds trajectory row."""
    real = toydiff.sample

    def fn(*args, rows=None, **kwargs):
        if rows is not None and rows.start <= row < rows.stop:
            raise error
        return real(*args, rows=rows, **kwargs)

    return fn


@pytest.mark.parametrize("phase", ["capture", "endpoint"])
def test_a_share_that_raises_is_the_error_of_the_whole_run(phase, monkeypatch):
    """The failing row sits in the last share; every share's child is
    reaped (see no_child_is_left)."""
    split_small_runs(monkeypatch)
    model, schedule = load_checkpoint(CHECKPOINT)
    monkeypatch.setattr(toydiff, "sample", sample_of_row(200, NumericalError("row 200")))
    raised = {}
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        with pytest.raises(DenoqError) as info:
            if phase == "capture":
                collect_calibration(model, schedule, 4, 256, Rng(0))
            else:
                sample_endpoint(model, schedule, 4, 256, Rng(0))
        raised[count] = (type(info.value), str(info.value))
    assert raised[1] == raised[2] == raised[3] == (NumericalError, "row 200")


def test_the_first_share_in_row_order_raises_first(monkeypatch):
    split_small_runs(monkeypatch)
    cpus(monkeypatch, 2)
    model, schedule = load_checkpoint(CHECKPOINT)

    def fn(*args, rows=None, **kwargs):
        raise DomainError(f"rows from {rows.start}")

    monkeypatch.setattr(toydiff, "sample", fn)
    with pytest.raises(DomainError, match="^rows from 0$"):
        collect_calibration(model, schedule, 4, 256, Rng(0))


# A capture passes the sampler no x_init; an endpoint half does. Eval's
# quantized half is the only run of eval with overrides.
ROW_WORKERS = {
    "capture": (lambda kwargs: kwargs.get("x_init") is None, "capture worker"),
    "endpoint": (lambda kwargs: kwargs.get("x_init") is not None, "sampler worker"),
    "eval": (lambda kwargs: kwargs.get("overrides") is not None, "sampler worker"),
}


@pytest.mark.parametrize("kind", sorted(ROW_WORKERS))
def test_a_dying_row_share_names_its_rows(kind, tmp_path, capsys, monkeypatch):
    when, what = ROW_WORKERS[kind]
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(
        f"checkpoint = {CHECKPOINT}\nn = 256\nT = 6\nles = false\n"
        "pts_layers = all\npropagate_quantized_inputs = true\n"
    )
    model = tmp_path / "m.dmq"
    if kind == "eval":
        # The model to evaluate, made before the sampler is patched.
        assert cli.main(["quantize", "--config", str(cfgp), "--out", str(model)]) == 0
        run = lambda: run_eval(model, parse_config(cfgp))  # noqa: E731
        argv = ["eval", "--config", str(cfgp), "--model", str(model)]
    else:
        run = lambda: pipeline.run_quantize(small_w4a8(n=256, **RESCUE_WIDE))  # noqa: E731
        argv = ["quantize", "--config", str(cfgp), "--out", str(model)]
    capsys.readouterr()
    real = toydiff.sample
    dies = in_a_child(die)

    def dying(*args, **kwargs):
        if when(kwargs):
            dies()
        return real(*args, **kwargs)

    monkeypatch.setattr(toydiff, "sample", dying)
    split_small_runs(monkeypatch)
    cpus(monkeypatch, 2)
    message = f"{what} for rows 128-255 ended without a result (exit status 3)"
    with pytest.raises(DenoqError) as info:
        run()
    assert type(info.value) is DenoqError
    assert str(info.value) == message
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
