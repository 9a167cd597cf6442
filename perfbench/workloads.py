"""The three benchmark workloads, their set-up and their output checks.

- w4a8_quantize: the README quick start. Each operation is quantize_to_file
  on configs/w4a8.cfg followed by repeated run_eval on the exported file.
- rescue_wide: quantize_to_file with LES off, rescue on every layer,
  n = 1024 and propagated quantized inputs, then run_eval on the export.
- int_serve: one client in a closed loop. Each request samples
  Sizes.serve_points points with every quantized layer run as
  activation_codes -> igemm.execute on shift-folded weights ->
  dequantize_output, on the DMQ1 file the w4a8 quantize exports (built
  untimed by fixture.py). Every serve_eval_every requests, run_eval checks
  the served file against its checkpoint.

Operation i of a quantize workload uses config seed `seed * 1000 + i`, so
seed 0 starts with the golden run. Request i of int_serve draws its initial
noise from Rng(seed).child("request-i").

Each operation is timed by hostspeed.Clock: its wall time (`quantize_s`,
`request_s`), the CPU time of this process (`op_cpu_s`) and its wall time
scaled to a reference host speed (`op_scaled_s`), the one that is gated.

Checks (each failure counts once in `failed`):
- w4a8 at config seed 0: endpoint_mse equals the les_pts line of
  golden/ordering.txt.
- every run_eval's endpoint_mse equals that of the quantize_to_file that
  wrote the file, bit for bit (for int_serve: equals the golden value).
- every served trajectory equals, bit for bit, the trajectory of the same
  noise through quant.quantized_matmul_reference. This runs outside the
  timed interval.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from denoq import igemm, modelfile, pipeline, quant, toydiff
from denoq.tensor import Rng

import fixture
import hostspeed

WORKLOADS = ("w4a8_quantize", "rescue_wide", "int_serve")


@dataclass(frozen=True)
class Sizes:
    """How much work one operation is; FULL is what the benchmark measures."""

    config: dict = field(default_factory=dict)  # overrides on configs/w4a8.cfg
    rescue_n: int = 1024
    serve_points: int = 256
    min_requests: int = 100  # so that p90 has ten requests beyond it
    min_quantize_ops: int = 5
    evals: dict = field(default_factory=lambda: {"w4a8_quantize": 5, "rescue_wide": 1})
    serve_eval_every: int = 8  # requests between two evals of the served file


FULL = Sizes()


@dataclass
class Run:
    """Inputs of one benchmark run."""

    served_model: Path | None
    golden: float | None  # les_pts endpoint_mse of configs/w4a8.cfg at seed 0
    seed: int
    workdir: Path
    sizes: Sizes = FULL
    # applied to each served trajectory before its check; the self-test
    # uses it to prove that a wrong output is caught
    perturb: Callable | None = None
    clock: hostspeed.Clock = field(default_factory=hostspeed.Clock)


@dataclass
class State:
    name: str
    config: pipeline.Config
    model: toydiff.ToyDenoiser
    schedule: toydiff.NoiseSchedule
    serve: dict | None = None
    reference: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    samples: dict = field(default_factory=lambda: defaultdict(list))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def read_golden(path: Path) -> float:
    """The les_pts endpoint_mse recorded in golden/ordering.txt."""
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("les_pts: endpoint_mse = "):
            return float(line.split("=", 1)[1].split()[0])
    raise ValueError(f"{path} has no les_pts line")


def _int_runner(layer):
    shifted = igemm.shift_weights(layer.weight_codes, layer.pts_exponents)
    scales = layer.weight_scale_vector()

    def run(a):
        acc = igemm.execute(quant.activation_codes(a, layer), shifted)
        return igemm.dequantize_output(acc, layer.act_params.scale, scales)

    return run


def _reference_runner(layer):
    return lambda a: quant.quantized_matmul_reference(a, layer)


def setup(name: str, root: Path, checkpoint: Path, served_model: Path | None) -> State:
    """What a user pays before the first operation; timed as setup_s."""
    config = pipeline.parse_config(root / fixture.BASE_CONFIG)
    config = dataclasses.replace(config, checkpoint=str(checkpoint))
    if name == "rescue_wide":
        config = dataclasses.replace(
            config, les=False, pts_layers="all", propagate_quantized_inputs=True
        )
    fixture.verify_checkpoint(checkpoint)
    model, schedule = toydiff.load_checkpoint(checkpoint)
    state = State(name, config, model, schedule)
    if name == "int_serve":
        layers = modelfile.import_model(served_model).layers
        state.serve = {l.name: _int_runner(l) for l in layers}
        state.reference = {l.name: _reference_runner(l) for l in layers}
    return state


def _no_region(name):
    return contextlib.nullcontext()


def _quantize_op(state: State, run: Run, i: int, region, record: bool):
    sizes = run.sizes
    config = dataclasses.replace(state.config, seed=run.seed * 1000 + i, **sizes.config)
    if state.name == "rescue_wide":
        config = dataclasses.replace(config, n=sizes.rescue_n)
    path = run.workdir / f"op{i}.dmq"
    with region("bench.quantize"), run.clock.timed() as timing:
        report = pipeline.quantize_to_file(config, path)
    evals = []
    for _ in range(sizes.evals[state.name]):
        with region("bench.eval"):
            t0 = time.perf_counter()
            mse = pipeline.run_eval(path, config).endpoint_mse
            evals.append((mse, time.perf_counter() - t0))
    path.unlink()

    def checks(tally: Tally):
        tally.attempted += 1  # the quantize itself; it fails by raising
        if state.name == "w4a8_quantize" and config.seed == 0 and run.golden is not None:
            tally.check(
                report.endpoint_mse == run.golden,
                f"seed 0 endpoint_mse {report.endpoint_mse!r} != golden {run.golden!r}",
            )
        for mse, _ in evals:
            tally.check(
                mse == report.endpoint_mse,
                f"run_eval endpoint_mse {mse!r} != quantize {report.endpoint_mse!r}",
            )
        if record:
            _record(tally, "quantize_s", timing)
            tally.samples["eval_s"] += [s for _, s in evals]
            tally.samples["endpoint_mse"].append(report.endpoint_mse)

    return timing.wall_s + sum(s for _, s in evals), checks


def _request_op(state: State, run: Run, i: int, region, record: bool):
    points = run.sizes.serve_points
    T = run.sizes.config.get("T", state.config.T)
    rng = Rng(run.seed).child(f"request-{i}")
    x0 = rng.standard_normal((points, state.model.dim))
    with region("bench.request"), run.clock.timed() as timing:
        traj = toydiff.sample(
            state.model, state.schedule, T, points, rng, overrides=state.serve, x_init=x0
        )

    def checks(tally: Tally):
        ref = toydiff.sample(
            state.model, state.schedule, T, points, rng, overrides=state.reference, x_init=x0
        )
        got = traj.states if run.perturb is None else run.perturb(traj.states)
        tally.check(
            got.tobytes() == ref.states.tobytes(),
            f"request {i}: integer trajectory differs from the reference path",
        )
        if record:
            _record(tally, "request_s", timing)

    return timing.wall_s, checks


def _record(tally: Tally, wall_key: str, timing: hostspeed.Timing) -> None:
    tally.samples[wall_key].append(timing.wall_s)
    tally.samples["op_cpu_s"].append(timing.cpu_s)
    tally.samples["op_scaled_s"].append(timing.scaled_s)


def _serve_eval(state: State, run: Run, tally: Tally) -> None:
    """run_eval on the served file at its own seed, between requests."""
    config = dataclasses.replace(state.config, seed=0)
    t0 = time.perf_counter()
    mse = _guarded(tally, lambda: pipeline.run_eval(run.served_model, config).endpoint_mse)
    tally.samples["eval_s"].append(time.perf_counter() - t0)
    if mse is not None:
        tally.check(
            run.golden is None or mse == run.golden,
            f"served model endpoint_mse {mse!r} != golden {run.golden!r}",
        )


def _guarded(tally: Tally, fn):
    """Run fn; an exception is a failed operation, not the end of the run."""
    try:
        return fn()
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        return None


def _attempt(tally: Tally, op) -> float:
    """Run one operation, then its checks; returns the operation's timed seconds."""
    t0 = time.perf_counter()
    done = _guarded(tally, op)
    if done is None:
        return time.perf_counter() - t0
    timed, checks = done
    checks(tally)
    return timed


def measure(state: State, run: Run, seconds: float, tracer=None) -> Tally:
    """Run operations for `seconds` of wall time, and at least the minimum count.

    The machine's speed drifts over tens of seconds, so samples are spread
    over the whole interval: evals follow each quantize, and on int_serve
    one eval runs every serve_eval_every requests. Output checks run
    between operations, outside the timed intervals and outside tracing.

    With a tracer, each operation runs twice on the same inputs: untraced,
    then traced. The difference of the two is the tracing overhead.
    """
    tally = Tally()
    serve = state.name == "int_serve"
    op = _request_op if serve else _quantize_op
    min_ops = run.sizes.min_requests if serve else run.sizes.min_quantize_ops
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or tally.ops < min_ops:
        i = tally.ops
        if serve and tracer is None and i % run.sizes.serve_eval_every == 0:
            _serve_eval(state, run, tally)
        untraced = _attempt(tally, lambda: op(state, run, i, _no_region, True))
        if tracer is not None:

            def traced_op():
                with tracer.active(i):
                    return op(state, run, i, tracer.region, False)

            tally.samples["overhead_s"].append(_attempt(tally, traced_op) - untraced)
        tally.ops += 1
    return tally
