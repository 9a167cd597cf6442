"""LES learned side by side in forked processes.

run_quantize learns the layers' factors in one share per usable CPU; these
tests force that count through workers.usable_cpus and check that the
output bytes never depend on it, that a failing or dying worker surfaces
as the right DenoqError, that a fork which cannot start falls back to the
parent, and that no child is left behind.
"""

import dataclasses
import errno
import os
import weakref
from pathlib import Path

import pytest

from denoq import cli, pipeline, workers
from denoq.errors import DenoqError, DomainError, NumericalError
from denoq.pipeline import parse_config, quantize_to_file
from denoq.toydiff import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent
W4A8 = ROOT / "configs" / "w4a8.cfg"
CHECKPOINT = ROOT / "checkpoints" / "toy2d.ckpt"
LAYERS = [s.name for s in load_checkpoint(CHECKPOINT)[0].quantizable_layers()]
OUTPUTS = ("model.dmq", "report.txt", "report_layers.tsv", "report_summary.tsv")


def small_w4a8(**kw):
    """configs/w4a8.cfg with a small calibration set and few iterations."""
    return dataclasses.replace(parse_config(W4A8), n=8, T=6, iterations=24, **kw)


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


def small_cfg_file(tmp_path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(f"checkpoint = {CHECKPOINT}\nn = 8\nT = 6\niterations = 24\n")
    return path


def quantize_bytes(config, out: Path) -> list:
    out.mkdir()
    quantize_to_file(config, out / "model.dmq", out / "report.txt")
    return [(out / name).read_bytes() for name in OUTPUTS]


def test_the_toy_model_has_four_layers():
    # The share counts below (1, 2 and 4 CPUs) are chosen for four layers.
    assert len(LAYERS) == 4


@pytest.mark.parametrize("seed", [0, 1])
def test_worker_count_does_not_change_output(seed, tmp_path, monkeypatch, forks):
    config = small_w4a8(seed=seed)
    outputs = {}
    for count in (1, 2, 4):
        cpus(monkeypatch, count)
        forks.clear()
        outputs[count] = quantize_bytes(config, tmp_path / str(count))
        assert len(forks) == count - 1
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]


@pytest.mark.parametrize(
    "kw",
    [
        {"propagate_quantized_inputs": True},
        {"les": False},
        {"baseline": "smoothquant"},
    ],
)
def test_runs_without_independent_les_do_not_fork(kw, tmp_path, monkeypatch, forks):
    """No LES worker is forked, and at n = 8 every capture, endpoint half,
    PTS vote and set of report rows is too small to split."""
    cpus(monkeypatch, 4)
    quantize_bytes(small_w4a8(**kw), tmp_path / "out")
    assert forks == []


def test_one_usable_cpu_does_not_fork(tmp_path, monkeypatch, forks):
    cpus(monkeypatch, 1)
    quantize_bytes(small_w4a8(), tmp_path / "out")
    assert forks == []


def test_usable_cpus_is_at_least_one():
    assert workers.usable_cpus() >= 1


def fail_in(monkeypatch, layer, action):
    """Make optimize_layer run action() instead of learning `layer`."""
    real = pipeline.optimize_layer

    def optimize_layer(record, *args, **kwargs):
        if record.name == layer:
            action()
        return real(record, *args, **kwargs)

    monkeypatch.setattr(pipeline, "optimize_layer", optimize_layer)


def raise_domain_error():
    raise DomainError("tau went nowhere")


def test_an_error_in_a_child_share_reaches_the_caller(monkeypatch, forks):
    # Two shares deal LAYERS[1] to the child.
    fail_in(monkeypatch, LAYERS[1], raise_domain_error)
    raised = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(DomainError) as info:
            pipeline.run_quantize(small_w4a8())
        raised[count] = (type(info.value), str(info.value))
    assert len(forks) == 1
    assert raised[2] == raised[1] == (DomainError, "tau went nowhere")


def test_errors_surface_in_checkpoint_order(monkeypatch):
    """A learning error is raised where a sequential run would reach its
    layer: here the rescue of LAYERS[2] fails before LAYERS[3]'s learning
    error, which two shares deal to the child, is reached."""
    assert LAYERS[2] == "skip"  # the one layer rescued under skip_only

    def rescue_fails(*args, **kwargs):
        raise NumericalError("rescue failed")

    monkeypatch.setattr(pipeline, "calibrate_activation_scaling", rescue_fails)
    fail_in(monkeypatch, LAYERS[3], raise_domain_error)
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(NumericalError, match="rescue failed"):
            pipeline.run_quantize(small_w4a8())



def raise_numerical_error():
    raise NumericalError("later layer failed")


LATER_FAILURES = {
    "les-of-mid": lambda mp: fail_in(mp, LAYERS[3], raise_numerical_error),
    "pts-of-skip": lambda mp: mp.setattr(
        pipeline, "calibrate_activation_scaling",
        lambda *args, **kwargs: raise_numerical_error(),
    ),
}


@pytest.mark.parametrize("later", sorted(LATER_FAILURES))
def test_a_rows_error_comes_before_a_later_layers_error(later, monkeypatch):
    """Without propagated inputs each layer's report rows are scored as
    soon as the layer is quantized (pipeline._layer_rows), so a sequential
    run meets an error in LAYERS[0]'s rows before the rescue of LAYERS[2]
    or the learning of LAYERS[3], which two shares deal to the child."""
    assert LAYERS[0] == "res1" and LAYERS[2] == "skip" and LAYERS[3] == "mid"
    real = pipeline._layer_rows

    def layer_rows(name, *args):
        if name == LAYERS[0]:
            raise DomainError("rows of res1")
        return real(name, *args)

    monkeypatch.setattr(pipeline, "_layer_rows", layer_rows)
    LATER_FAILURES[later](monkeypatch)
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(DomainError, match="rows of res1"):
            pipeline.run_quantize(small_w4a8())

def test_the_cli_exits_as_a_sequential_run_would(tmp_path, capsys, monkeypatch):
    cfgp = small_cfg_file(tmp_path)
    fail_in(monkeypatch, LAYERS[3], raise_domain_error)
    seen = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        rc = cli.main(["quantize", "--config", str(cfgp), "--out", str(tmp_path / "m.dmq")])
        seen[count] = (rc, capsys.readouterr().err)
    assert seen[2] == seen[1] == (2, "error: tau went nowhere\n")


def test_a_child_that_dies_names_its_layers_and_status(tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def die_in_the_child():
        if os.getpid() != parent:
            os._exit(3)

    fail_in(monkeypatch, LAYERS[1], die_in_the_child)
    cpus(monkeypatch, 2)
    with pytest.raises(DenoqError) as info:
        pipeline.run_quantize(small_w4a8())
    message = str(info.value)
    assert LAYERS[1] in message and LAYERS[3] in message
    assert LAYERS[0] not in message
    assert "exit status 3" in message
    assert info.value.__context__ is None and info.value.__cause__ is None

    cfgp = small_cfg_file(tmp_path)
    rc = cli.main(["quantize", "--config", str(cfgp), "--out", str(tmp_path / "m.dmq")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: LES worker for layers") and "exit status 3" in err
    assert "EOFError" not in err and "Traceback" not in err


def test_a_fork_that_fails_runs_its_share_in_the_parent(tmp_path, monkeypatch):
    config = small_w4a8()
    cpus(monkeypatch, 1)
    sequential = quantize_bytes(config, tmp_path / "sequential")

    calls = []
    real_fork = os.fork

    def second_fork_fails():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    cpus(monkeypatch, 4)
    assert quantize_bytes(config, tmp_path / "some") == sequential
    assert len(calls) == 3

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert quantize_bytes(config, tmp_path / "none") == sequential


def test_propagate_mode_frees_each_record_before_the_next_capture(monkeypatch):
    """Propagate mode learns each layer inline; no name may keep the last
    layer's record alive while the next layer's capture runs."""
    real = pipeline.collect_calibration
    alive = []

    def collect_calibration(*args, **kwargs):
        assert all(ref() is None for ref in alive)
        records = real(*args, **kwargs)
        alive.extend(weakref.ref(r) for r in records.values())
        return records

    monkeypatch.setattr(pipeline, "collect_calibration", collect_calibration)
    pipeline.run_quantize(small_w4a8(propagate_quantized_inputs=True))
    assert len(alive) == len(LAYERS)
