"""Span tracing of denoq's layers, from outside the package.

The tracer replaces each public function with a timing wrapper at the place
where its caller looks it up: the name a module imported (denoq.pipeline's
optimize_layer, denoq.les's matmul), the module attribute the benchmark
calls through (denoq.igemm.execute), or the class attribute of a method
(ToyDenoiser.forward). Nothing inside src/ changes, and `active()` restores
every original on exit, so untraced code runs exactly as it does without
this module.

Each span records its name, start, end, parent span and the operation it
belongs to (-1 for set-up). Counters record call counts and computed work
(flops, MACs, bytes) at the same boundaries. Spans stay in memory until
`write_tsv`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np
from denoq import igemm, les, modelfile, pipeline, pts, quant, tensor, toydiff
from denoq.igemm import _ceil_log2
from denoq.timestep_weighting import TimestepWeighter

SETUP = -1  # the operation id of set-up work


def _phase(op: int) -> str:
    return "setup" if op == SETUP else "ops"


def _matmul_flops(t, args, kwargs, out, name):
    a, b = args[0], args[1]
    t.add(name + ".flops", 2.0 * a.shape[0] * a.shape[1] * b.shape[1])


def _loss_ratio(t, args, kwargs, out):
    t.add("les.optimize_layer.ratio_sum", out.final_loss / out.initial_loss)


def _rescued(t, args, kwargs, out):
    factors = out[1]
    t.add("pts.rescued", np.count_nonzero(factors.exponents))
    t.add("pts.voted", factors.exponents.size)


def _elements(t, args, kwargs, out):
    max_exponent = args[2] if len(args) > 2 else kwargs["max_exponent"]
    t.add("pts.per_sample_matrix.elements", args[0].size * (max_exponent + 1))


def _calib_rows(t, args, kwargs, out):
    t.add("toydiff.collect_calibration.rows", sum(r.activations.shape[0] for r in out.values()))


def _reference_rows(t, args, kwargs, out):
    t.add("quant.quantized_matmul_reference.rows", args[0].shape[0])


def _igemm_work(t, args, kwargs, out):
    x, w = args[0], args[1]
    b, c_in = x.codes.shape
    c_out = w.codes.shape[1]
    t.add("igemm.execute.macs", b * c_in * c_out)
    # int64 operands in, int64 accumulator out; computed, not measured
    t.add("igemm.execute.bytes", 8 * (x.codes.size + w.codes.size + b * c_out))
    budget = x.nominal_bits + w.source_bits + w.max_shift + _ceil_log2(c_in)
    t.headroom_bits = max(t.headroom_bits, budget)


def _export_bytes(t, args, kwargs, out):
    t.add("modelfile.export_model.bytes", os.path.getsize(args[0]))


# (span name, [(owner, attribute), ...], work hook)
_SPANS = (
    ("pipeline.run_quantize", [(pipeline, "run_quantize")], None),
    ("pipeline.run_eval", [(pipeline, "run_eval")], None),
    ("les.optimize_layer", [(pipeline, "optimize_layer")], _loss_ratio),
    ("les.les_loss", [(les, "les_loss")], None),
    ("les.les_grad", [(les, "les_grad")], None),
    ("timestep_weighting.weighted_mean", [(TimestepWeighter, "weighted_mean")], None),
    ("pts.calibrate_activation_scaling", [(pipeline, "calibrate_activation_scaling")], _rescued),
    ("pts.per_sample_matrix", [(pts, "per_sample_matrix")], _elements),
    ("pts.vote", [(pts, "vote")], None),
    ("toydiff.load_checkpoint", [(pipeline, "load_checkpoint"), (toydiff, "load_checkpoint")], None),
    ("toydiff.collect_calibration", [(pipeline, "collect_calibration")], _calib_rows),
    ("toydiff.sample", [(pipeline, "sample"), (toydiff, "sample")], None),
    ("toydiff.forward", [(toydiff.ToyDenoiser, "forward")], None),
    (
        "quant.quantized_matmul_reference",
        [(pipeline, "quantized_matmul_reference"), (quant, "quantized_matmul_reference")],
        _reference_rows,
    ),
    ("quant.activation_codes", [(quant, "activation_codes")], None),
    ("quant.quantize", [(quant, "quantize"), (pipeline, "quantize"), (pts, "quantize")], None),
    ("igemm.execute", [(igemm, "execute")], _igemm_work),
    ("igemm.dequantize_output", [(igemm, "dequantize_output")], None),
    ("igemm.shift_weights", [(igemm, "shift_weights")], None),
    ("modelfile.export_model", [(pipeline, "export_model")], _export_bytes),
    ("modelfile.import_model", [(pipeline, "import_model"), (modelfile, "import_model")], None),
)

# Hot helpers that get a call counter only: a span each would cost more
# than the work they do.
_COUNTERS = (
    (
        "tensor.as_real",
        [(tensor, "as_real"), (les, "as_real"), (pts, "as_real"), (quant, "as_real"), (toydiff, "as_real")],
    ),
    ("timestep_weighting.weight", [(TimestepWeighter, "weight")]),
    (
        "quant.minmax_scale",
        [(quant, "minmax_scale"), (les, "minmax_scale"), (pipeline, "minmax_scale"), (pts, "minmax_scale")],
    ),
)

SPAN_NAMES = tuple(name for name, _, _ in _SPANS) + ("tensor.matmul", "les.matmul")


class Tracer:
    """In-memory spans and counters, split into set-up and per-operation work."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.counts = {"setup": defaultdict(float), "ops": defaultdict(float)}
        self.headroom_bits = 0
        self._stack = []
        self._op = SETUP
        self._patches = self._build_patches()

    # -- recording --------------------------------------------------------

    def add(self, key: str, amount=1.0) -> None:
        self.counts[_phase(self._op)][key] += amount

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _span(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.add(name + ".errors")
                raise
            finally:
                tracer._close(idx)
            tracer.add(name + ".calls")
            if work is not None:
                work(tracer, args, kwargs, out)
            return out

        return traced

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(name + ".calls")
            return fn(*args, **kwargs)

        return counted

    def _build_patches(self):
        patches = []
        for name, sites, work in _SPANS:
            wrapped = self._span(name, getattr(*sites[0]), work)
            patches += [(owner, attr, wrapped) for owner, attr in sites]
        for name, sites in _COUNTERS:
            wrapped = self._counter(name, getattr(*sites[0]))
            patches += [(owner, attr, wrapped) for owner, attr in sites]
        # les.matmul wraps tensor.matmul: a matmul called from les is a
        # tensor.matmul span inside a les.matmul span, with flops at both.
        tensor_matmul = self._span(
            "tensor.matmul", tensor.matmul,
            functools.partial(_matmul_flops, name="tensor.matmul"),
        )
        les_matmul = self._span(
            "les.matmul", tensor_matmul, functools.partial(_matmul_flops, name="les.matmul")
        )
        patches += [
            (tensor, "matmul", tensor_matmul),
            (pipeline, "matmul", tensor_matmul),
            (les, "matmul", les_matmul),
        ]
        return patches

    @contextlib.contextmanager
    def active(self, op: int):
        """Install every wrapper for the duration of one operation (or set-up)."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        self._op = op
        for owner, attr, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            self._op = SETUP

    # -- summarising ------------------------------------------------------

    def totals(self):
        """Inclusive and self seconds per phase ("setup", "ops") and span name."""
        n = len(self.names)
        dur = np.array(self.ends[:n]) - np.array(self.starts[:n])
        child = np.zeros(n)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        incl = {"setup": defaultdict(float), "ops": defaultdict(float)}
        own = {"setup": defaultdict(float), "ops": defaultdict(float)}
        for i, name in enumerate(self.names):
            incl[_phase(self.ops[i])][name] += dur[i]
            own[_phase(self.ops[i])][name] += dur[i] - child[i]
        return incl, own

    def per_layer(self, n_ops: int, overhead_s: float) -> dict:
        """Metrics for one set-up plus one operation (operation totals / n_ops).

        Ratios are over the whole traced run and read 0 when their base is 0,
        that is, when the layer did not run.
        """
        incl, own = self.totals()
        counts = self.counts

        def per(table, key):
            return table["setup"][key] + table["ops"][key] / n_ops

        def whole(table, key):
            return table["setup"][key] + table["ops"][key]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in SPAN_NAMES:
            m[f"{name}.s"] = per(incl, name)
            m[f"{name}.calls"] = per(counts, name + ".calls")
            m[f"{name}.errors"] = per(counts, name + ".errors")
        for name, _ in _COUNTERS:
            m[f"{name}.calls"] = per(counts, name + ".calls")
        for key in (
            "les.matmul.flops", "pts.per_sample_matrix.elements",
            "toydiff.collect_calibration.rows", "quant.quantized_matmul_reference.rows",
            "igemm.execute.macs", "igemm.execute.bytes", "modelfile.export_model.bytes",
        ):
            m[key] = per(counts, key)
        m["les.loss_ratio"] = ratio(
            whole(counts, "les.optimize_layer.ratio_sum"), whole(counts, "les.optimize_layer.calls")
        )
        m["tensor.matmul.gflops"] = ratio(
            whole(counts, "tensor.matmul.flops") / 1e9, whole(incl, "tensor.matmul")
        )
        m["pts.rescued_share"] = ratio(whole(counts, "pts.rescued"), whole(counts, "pts.voted"))
        m["igemm.execute.gmacs_per_s"] = ratio(
            whole(counts, "igemm.execute.macs") / 1e9, whole(incl, "igemm.execute")
        )
        m["igemm.headroom_bits"] = float(self.headroom_bits)
        for name in ("pipeline.run_quantize", "pipeline.run_eval"):
            m[f"{name}.self_s"] = per(own, name)
        ops = incl["ops"]
        m["les.share_of_quantize"] = ratio(ops["les.optimize_layer"], ops["bench.quantize"])
        m["pts.share_of_quantize"] = ratio(ops["pts.calibrate_activation_scaling"], ops["bench.quantize"])
        m["igemm.execute.share_of_request"] = ratio(ops["igemm.execute"], ops["bench.request"])
        m["trace.overhead_s"] = overhead_s
        m["trace.ops"] = float(n_ops)
        return m

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.ops[i]}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
