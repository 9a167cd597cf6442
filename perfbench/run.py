#!/usr/bin/env python3
"""denoq benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

NAME is w4a8_quantize, rescue_wide or int_serve (see workloads.py and
BENCHMARK.json for what each runs and why). The run measures operations
for S seconds of wall time, checks every output, and prints a readable
table followed, as its last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
    setup_s           median set-up time of SETUP_PROBES fresh interpreters
    op_scaled_p50_ms  median time of one operation: a quantize_to_file call
                      on the quantize workloads, one request on int_serve
    peak_rss_mb       peak resident set of this process (fixtures and set-up
                      probes run in child processes and are not counted)
Both times are wall times scaled to a reference host speed: the host of a
virtual machine changes this process's speed by up to 2x for minutes at a
time, and hostspeed.py takes that out by timing a fixed reference kernel
during each operation. The readable table before the JSON line also gives
the raw wall and CPU times and the figures too seed-dependent to gate on:
setup_wall_s, setup_cpu_s, op_cpu_p50_ms, quantize_s, request_p50_ms,
request_p90_ms, serve_points_per_s, eval_s, endpoint_mse and error_rate.
A figure reads NaN in the table and null in the JSON line when no
operation succeeded.
--trace 1 reports the per-layer metrics instead, from a separate run in
which every operation runs once untraced and once traced (spans.py). They
describe one set-up plus one operation. Spans are written to
perfbench/.cache/trace-NAME.tsv.

The BLAS thread count is pinned to BLAS_THREADS before numpy loads; the
machine, library versions and the pinned count precede every result.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
repository to measure is not there.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("w4a8_quantize", "rescue_wide", "int_serve")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170
REQUIRED = ("src/denoq/__init__.py", "configs/w4a8.cfg", "golden/ordering.txt", "BENCHMARK.json")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def _setup_probes(name, ckpt, served) -> list:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), name, str(ckpt)]
    if served is not None:
        cmd.append(str(served))
    probes = defaultdict(list)
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        for key, value in json.loads(done.stdout.strip().splitlines()[-1]).items():
            probes[key].append(value)
    return probes


def _median(values) -> float:
    """Median, or NaN when no operation succeeded."""
    return statistics.median(values) if values else math.nan


def _spread(values) -> str:
    """Sample count and quartiles, for the note beside a median."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def _table(name, probes, tally, rss_mb, points) -> list:
    """Every figure of one workload, gated or not, as (name, value, unit, note)."""
    s = tally.samples
    scaled_ms = [1e3 * v for v in s["op_scaled_s"]]
    cpu_ms = [1e3 * v for v in s["op_cpu_s"]]
    rows = [
        ("setup_s", _median(probes["scaled_s"]), "s", _spread(probes["scaled_s"])),
        ("setup_wall_s", _median(probes["wall_s"]), "s", _spread(probes["wall_s"])),
        ("setup_cpu_s", _median(probes["cpu_s"]), "s", _spread(probes["cpu_s"])),
        ("op_scaled_p50_ms", _median(scaled_ms), "ms", _spread(scaled_ms)),
        ("op_cpu_p50_ms", _median(cpu_ms), "ms", _spread(cpu_ms)),
    ]
    if name == "int_serve":
        req = s["request_s"]
        ms = [1e3 * v for v in req]
        rows += [
            ("eval_s", _median(s["eval_s"]), "s", _spread(s["eval_s"])),
            ("serve_points_per_s", points * len(req) / sum(req) if req else math.nan, "points/s",
             f"{len(req)} requests of {points} points"),
            ("request_p50_ms", _median(ms), "ms", _spread(ms)),
            ("request_p90_ms", statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else math.nan,
             "ms", f"{len(req) - int(0.9 * len(req))} requests beyond"),
        ]
    else:
        rows += [
            ("quantize_s", _median(s["quantize_s"]), "s", _spread(s["quantize_s"])),
            ("eval_s", _median(s["eval_s"]), "s", _spread(s["eval_s"])),
            ("endpoint_mse", _median(s["endpoint_mse"]), "mse",
             f"median over {len(s['endpoint_mse'])} config seeds"),
        ]
    rows += [
        ("peak_rss_mb", rss_mb, "MB", "this process"),
        ("error_rate", tally.failed / tally.attempted, "ratio", f"{tally.failed} of {tally.attempted}"),
    ]
    return rows


def _declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_package():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import denoq

    where = Path(denoq.__file__).resolve().parent
    if where != (ROOT / "src" / "denoq").resolve():
        raise ImportError(f"denoq imported from {where}, not from {ROOT / 'src'}")


def run_workload(name, seed, seconds, trace, golden, sizes=None, perturb=None):
    """Measure one workload; returns (tally, metric values, readable rows).

    golden is the les_pts value of golden/ordering.txt, or None to skip the
    checks against it. sizes and perturb are there for the self-test.
    """
    _import_package()
    import fixture
    import hostspeed
    import workloads

    ckpt, served = fixture.ensure(ROOT, dict(os.environ), serve=name == "int_serve")
    probes = {} if trace else _setup_probes(name, ckpt, served)

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        with tracer.active(spans.SETUP), tracer.region("bench.setup"):
            state = workloads.setup(name, ROOT, ckpt, served)
    else:
        state = workloads.setup(name, ROOT, ckpt, served)

    fixture.CACHE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=fixture.CACHE))
    try:
        clock = hostspeed.Clock(sample=not trace)
        run = workloads.Run(served, golden, seed, workdir, sizes or workloads.FULL, perturb, clock)
        tally = workloads.measure(state, run, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        overhead = _median(tally.samples["overhead_s"])
        values = tracer.per_layer(tally.ops, overhead)
        tracer.write_tsv(fixture.CACHE / f"trace-{name}.tsv")
        return tally, values, []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = _table(name, probes, tally, rss_mb, run.sizes.serve_points)
    values = {key: value for key, value, _, _ in rows}
    return tally, values, rows


def run_one(args) -> int:
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine()))
    import workloads

    golden = workloads.read_golden(ROOT / "golden" / "ordering.txt")
    tally, values, rows = run_workload(args.workload, args.seed, args.seconds, args.trace, golden)
    declared = _declared(args.trace)
    if args.trace:
        print(f"# {args.workload} seed {args.seed}: per-layer metrics for one set-up plus one operation")
        rows = [(key, values[key], unit, "") for key, unit in declared.items()]
    else:
        print(f"# {args.workload} seed {args.seed}, one client, closed loop")
    for key, value, unit, note in rows:
        print(f"{key:40s} {value:<12.6g} {unit:9s} {note}".rstrip())
    outcome = result(tally, values, declared)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def result(tally, values, declared) -> dict:
    """The JSON result line; a metric no operation measured is null."""
    metrics = {
        key: {"value": None if math.isnan(values[key]) else values[key], "unit": unit}
        for key, unit in declared.items()
    }
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode == 2:
            return 2
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit status {done.returncode})")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
