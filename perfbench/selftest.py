#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (under a minute).

Usage, from the repository root: python3 perfbench/selftest.py

Checks that
- every workload, traced and untraced, reports every metric BENCHMARK.json
  declares and every readable metric of its table, with no failed check;
- a wrong golden value is counted as a failure, both for the w4a8 seed 0
  run and for the served model's eval (from a corrupted golden file);
- a perturbed int_serve trajectory is counted as a failure;
- an operation that always raises is counted as a failure, and the result
  line still comes out, with null timings.
Exits 0 when all hold, 1 otherwise.
"""

import contextlib
import json
import math
import sys

import run  # pins the BLAS threads before numpy loads

run._import_package()
import numpy as np  # noqa: E402

import fixture  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    config={"n": 4, "T": 4, "iterations": 4},
    rescue_n=16,
    serve_points=8,
    min_requests=3,
    min_quantize_ops=2,
    evals={"w4a8_quantize": 2, "rescue_wide": 1},
    serve_eval_every=2,
)
SECONDS = 0.01
TABLE = {
    "w4a8_quantize": ("quantize_s", "eval_s", "endpoint_mse"),
    "rescue_wide": ("quantize_s", "eval_s", "endpoint_mse"),
    "int_serve": ("eval_s", "serve_points_per_s", "request_p50_ms", "request_p90_ms"),
}
COMMON = ("setup_s", "setup_wall_s", "setup_cpu_s", "op_scaled_p50_ms", "op_cpu_p50_ms", "peak_rss_mb", "error_rate")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny(name, trace, golden, perturb=None):
    return run.run_workload(name, 0, SECONDS, trace, golden, sizes=TINY, perturb=perturb)


def nudge(states):
    out = states.copy()
    out[-1, 0, 0] = np.nextafter(out[-1, 0, 0], np.inf)
    return out


@contextlib.contextmanager
def broken(owner, attr):
    """owner.attr raises for the duration of the block."""
    original = getattr(owner, attr)

    def fail(*args, **kwargs):
        raise RuntimeError(f"{attr} broken by the self-test")

    setattr(owner, attr, fail)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden_path = run.ROOT / "golden" / "ordering.txt"
    golden = workloads.read_golden(golden_path)
    expect(np.isfinite(golden) and golden > 0, f"golden les_pts value parses ({golden!r})")

    # The golden file holds the full-size w4a8 result; at tiny sizes the
    # seed 0 check compares against the tiny run's own first result instead.
    tally, _, _ = tiny("w4a8_quantize", 0, None)
    tiny_golden = tally.samples["endpoint_mse"][0]
    goldens = {"w4a8_quantize": tiny_golden, "rescue_wide": golden, "int_serve": golden}

    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            tally, values, rows = tiny(name, trace, goldens[name])
            missing = [m["name"] for m in spec[kind] if m["name"] not in values]
            expect(not missing, f"{name} trace={trace}: every {kind} metric reported {missing or ''}")
            expect(tally.failed == 0 and tally.attempted > 0,
                   f"{name} trace={trace}: {tally.failed}/{tally.attempted} checks failed")
            if not trace:
                shown = {row[0] for row in rows}
                absent = [k for k in TABLE[name] + COMMON if k not in shown]
                expect(not absent, f"{name}: readable table complete {absent or ''}")

    tally, _, _ = tiny("w4a8_quantize", 0, np.nextafter(tiny_golden, np.inf))
    expect(tally.failed == 1, f"w4a8: golden value one ulp off counted ({tally.failed} failed)")

    corrupt = fixture.CACHE / "selftest-golden.txt"
    corrupt.write_text(
        golden_path.read_text(encoding="utf-8").replace(repr(golden), repr(golden * 1.001)),
        encoding="utf-8",
    )
    try:
        bad = workloads.read_golden(corrupt)
    finally:
        corrupt.unlink()
    tally, _, _ = tiny("int_serve", 0, bad)
    expect(tally.failed == len(tally.samples["eval_s"]) >= 1,
           f"int_serve: corrupted golden file counted ({tally.failed} failed)")

    tally, _, _ = tiny("int_serve", 0, golden, perturb=nudge)
    served = len(tally.samples["request_s"])
    expect(tally.failed == served >= TINY.min_requests,
           f"int_serve: perturbed trajectories counted ({tally.failed}/{served})")

    declared = run._declared(0)
    for name, owner, attr, key, minimum in (
        ("w4a8_quantize", workloads.pipeline, "quantize_to_file", "quantize_s", TINY.min_quantize_ops),
        ("int_serve", workloads.igemm, "execute", "request_p50_ms", TINY.min_requests),
    ):
        with broken(owner, attr):
            tally, values, _ = tiny(name, 0, goldens[name])
        line = json.loads(json.dumps(run.result(tally, values, declared)))
        expect(
            tally.failed >= minimum and not line["correct"] and math.isnan(values[key])
            and line["metrics"]["op_scaled_p50_ms"]["value"] is None,
            f"{name}: {attr} always raising counted ({tally.failed}/{tally.attempted} failed)",
        )

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
