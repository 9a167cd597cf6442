"""End-to-end quantization runs: config, calibration, export, evaluation.

A run is driven entirely by a flat key-value config file plus a seed, and is
deterministic given both: two runs with the same config and seed write
byte-identical model files and byte-identical reports.

Config file format: one `key = value` per line, `#` starts a comment, keys
are exactly the Config field names below, unknown keys are fatal. Every
field has a default; `checkpoint` is the one field with no useful default,
so in practice a config file names at least that. A relative `checkpoint`
in a config file is relative to that file's directory.

By default every layer is calibrated against full-precision inputs, so no
layer's learned factors read another layer's result: LES learns the layers
side by side (_learn_layers), and the rest of quantization then runs layer
by layer in checkpoint order. With propagate_quantized_inputs on,
calibration activations are re-captured before each layer with all
previously quantized layers running quantized, so later layers see the
inputs they will actually receive at inference time; each layer's capture
and factors then depend on the layers before it, and that chain runs in
order.

Both modes use the other usable CPUs in one way: a large piece of work is
split into shares that workers.run_shares runs side by side, and the run
goes on once every share is back. So run_quantize is sequential code, and
it raises errors in the order a sequential run meets them. The shares are:
the layers of independent LES; the trajectories of every calibration
capture and of every endpoint half (toydiff.sample_endpoint), cut at
multiples of 64 rows so that BLAS gives each row the bits of the whole run
(see toydiff._ROW_QUANTUM); the channels of a large layer's PTS vote
(pts.calibrate_activation_scaling); and the timesteps of a large layer's
report rows. Every report MSE is one sum over its block's per-row squared
errors (_row_errors, _mean_error), and a row's sum depends on that row
alone, so the share count never changes an output byte.

Quantized layers run, in quantize and in eval alike, on the deployed
integer path: activation codes against the layer's prepared shift-folded
weights in igemm.execute, then one dequantization. So a report measures
the model that is exported. A run refuses, before any calibration, a
configuration whose model the integer kernel could not run (see
_check_headroom). quant.quantized_matmul_reference stays as the test
oracle for that path.
"""

from __future__ import annotations

import dataclasses
import io
import os
from dataclasses import dataclass

import numpy as np

from . import igemm, quant, workers
from .errors import ConfigError, DomainError, NumericalError
from .les import LesResult, fuse, optimize_layer, smoothquant_tau
from .modelfile import QuantizedModel, export_model, import_model
from .pts import calibrate_activation_scaling
from .quant import QuantParams, QuantizedLayer, minmax_scale, quantize
from .tensor import Rng, matmul
from .timestep_weighting import TimestepWeighter
from .toydiff import collect_calibration, ddim_timesteps, load_checkpoint, sample_endpoint
# Unused here; kept because the benchmark's span tracer (perfbench/spans.py)
# patches these names.
from .quant import quantized_matmul_reference  # noqa: F401
from .toydiff import sample  # noqa: F401

_PTS_CHOICES = ("skip_only", "all", "none")
_BASELINE_CHOICES = ("none", "smoothquant")
_OPTIMIZER_CHOICES = ("gd", "adam")


@dataclass(frozen=True)
class Config:
    """One quantization run, fully specified.

    Field notes:
        bits_w, bits_a: 2..16 are the supported storage widths; up to 32
            is accepted when the integer kernel has the headroom (see
            _check_headroom): 22/22 fits (53 bits on 64 channels with D = 3),
            24/24 does not (54 bits even unrescued).
        T: sampler steps, which is also the calibration timestep subset.
        n: trajectories collected for calibration (and used for evaluation).
        B: optimization batch size. iterations: optimization steps per layer.
        alpha: timestep weight damping exponent (0 disables weighting).
        kappa: vote agreement threshold. xi: loss running-average momentum.
        D: largest power-of-two rescue exponent (0 disables rescue).
        pts_layers: which layers get rescue: skip_only (tagged layers), all,
            or none. les: learn channel scaling factors or leave tau = 1.
        baseline: "smoothquant" swaps learned factors for the closed-form
            magnitude-migration rule (tau from activation/weight maxima).
        eta: sampler stochasticity for calibration and evaluation runs.
        optimizer / lr / scale_refresh: scaling-factor training knobs.
        propagate_quantized_inputs: see the module docstring.
        act_unsigned: quantize activations to an unsigned range.
    """

    checkpoint: str = ""
    bits_w: int = 4
    bits_a: int = 8
    T: int = 20
    n: int = 16
    B: int = 32
    iterations: int = 200
    alpha: float = 1.0
    kappa: float = 0.6
    xi: float = 0.95
    lr: float = 1e-2
    D: int = 3
    pts_layers: str = "skip_only"
    les: bool = True
    baseline: str = "none"
    seed: int = 0
    eta: float = 0.0
    optimizer: str = "gd"
    scale_refresh: int = 10
    propagate_quantized_inputs: bool = False
    act_unsigned: bool = False

    def __post_init__(self):
        def need(cond, msg):
            if not cond:
                raise ConfigError(msg)

        for name, v in vars(self).items():
            need(not isinstance(v, float) or np.isfinite(v), f"{name} must be finite, got {v!r}")
        need(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        need(2 <= self.bits_w <= 32, f"bits_w out of range: {self.bits_w}")
        need(2 <= self.bits_a <= 32, f"bits_a out of range: {self.bits_a}")
        need(self.T >= 1, "T must be >= 1")
        need(self.n >= 1, "n must be >= 1")
        need(self.B >= 1, "B must be >= 1")
        need(self.iterations >= 1, "iterations must be >= 1")
        need(self.alpha >= 0.0, "alpha must be >= 0")
        need(0.0 < self.kappa <= 1.0, "kappa must lie in (0, 1]")
        need(0.0 <= self.xi < 1.0, "xi must lie in [0, 1)")
        need(self.lr > 0.0, "lr must be positive")
        need(0 <= self.D <= 16, "D must lie in [0, 16]")
        need(self.pts_layers in _PTS_CHOICES, f"pts_layers must be one of {_PTS_CHOICES}")
        need(self.baseline in _BASELINE_CHOICES, f"baseline must be one of {_BASELINE_CHOICES}")
        need(self.optimizer in _OPTIMIZER_CHOICES, f"optimizer must be one of {_OPTIMIZER_CHOICES}")
        need(0.0 <= self.eta <= 1.0, "eta must lie in [0, 1]")
        need(self.scale_refresh >= 1, "scale_refresh must be >= 1")

    def echo(self) -> tuple:
        """Canonical (key, value) text pairs, sorted, for reports."""
        pairs = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = repr(v)
            else:
                text = str(v)
            pairs.append((f.name, text))
        return tuple(pairs)


_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True,
    "false": False, "off": False, "no": False, "0": False,
}


def _convert(name: str, kind, text: str):
    if kind is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ConfigError(f"{name}: expected a boolean, got {text!r}")
        return _BOOL_WORDS[text.lower()]
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {text!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> Config:
    """Parse the flat key-value format. Unknown keys are fatal."""
    fields = {f.name: f.type for f in dataclasses.fields(Config)}
    kinds = {"str": str, "int": int, "float": float, "bool": bool}
    values = {}
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in fields:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        kind = kinds[str(fields[key])] if str(fields[key]) in kinds else fields[key]
        values[key] = _convert(key, kind, val)
    return Config(**values)


def parse_config(path) -> Config:
    """Parse a config file; a relative checkpoint path is taken relative to
    the directory of the config file, not to the working directory. A file
    that is not UTF-8 is a ConfigError naming the first bad byte."""
    try:
        # One read decodes the whole file, so exc.start is a file offset.
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    config = parse_config_text(text, source=str(path))
    if config.checkpoint and not os.path.isabs(config.checkpoint):
        checkpoint = os.path.join(os.path.dirname(str(path)), config.checkpoint)
        config = dataclasses.replace(config, checkpoint=os.path.normpath(checkpoint))
    return config


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSummary:
    name: str
    tau_min: float
    tau_max: float
    rescued: int
    delta_max: int
    agreement_min: float | None = None
    initial_loss: float | None = None
    final_loss: float | None = None


@dataclass(frozen=True)
class EvalReport:
    """Structured result of a quantize or eval run.

    rows holds (layer, timestep, mean squared layer output error); there is
    exactly one row per quantized layer per sampler timestep. endpoint_mse
    compares quantized and full-precision trajectory endpoints started from
    shared noise.
    """

    config_echo: tuple
    phase: str
    rows: tuple
    endpoint_mse: float
    layer_summaries: tuple

    def to_text(self) -> str:
        out = [f"# quantization report ({self.phase})", "", "[config]"]
        out += [f"{k} = {v}" for k, v in self.config_echo]
        out += ["", "[layers]"]
        for s in self.layer_summaries:
            bits = [
                f"{s.name}: tau in [{s.tau_min:.6g}, {s.tau_max:.6g}]",
                f"rescued {s.rescued}",
            ]
            if s.rescued:
                bits.append(f"max exponent {s.delta_max}")
            if s.agreement_min is not None:
                bits.append(f"min agreement {s.agreement_min:.4f}")
            if s.initial_loss is not None:
                bits.append(
                    f"loss {s.initial_loss:.6e} -> {s.final_loss:.6e}"
                )
            out.append("  " + ", ".join(bits))
        out += ["", "[error by layer and timestep]"]
        out.append("layer\ttimestep\tmse")
        for name, t, mse in self.rows:
            out.append(f"{name}\t{t}\t{mse!r}")
        out += ["", f"endpoint_mse = {self.endpoint_mse!r}", ""]
        return "\n".join(out)

    def write(self, path) -> None:
        """Write the text report plus machine-readable TSV tables.

        path gets the text; two sibling files get the tables:
        <stem>_layers.tsv (layer, timestep, mse) and <stem>_summary.tsv.
        """
        path = str(path)
        stem = path.rsplit(".", 1)[0] if "." in path.rsplit("/", 1)[-1] else path
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())
        with open(stem + "_layers.tsv", "w", encoding="utf-8") as fh:
            fh.write("layer\ttimestep\tmse\n")
            for name, t, mse in self.rows:
                fh.write(f"{name}\t{t}\t{mse!r}\n")
        with open(stem + "_summary.tsv", "w", encoding="utf-8") as fh:
            fh.write(
                "layer\ttau_min\ttau_max\trescued\tdelta_max"
                "\tagreement_min\tinitial_loss\tfinal_loss\n"
            )
            for s in self.layer_summaries:
                fh.write(
                    "\t".join(
                        [
                            s.name,
                            repr(s.tau_min),
                            repr(s.tau_max),
                            str(s.rescued),
                            str(s.delta_max),
                            "-" if s.agreement_min is None else repr(s.agreement_min),
                            "-" if s.initial_loss is None else repr(s.initial_loss),
                            "-" if s.final_loss is None else repr(s.final_loss),
                        ]
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Quantize
# ---------------------------------------------------------------------------


def _layer_runner(qlayer: QuantizedLayer):
    """The deployed execution of one layer, on its prepared weights.

    igemm and quant are looked up at call time, where the benchmark's span
    tracer patches them.
    """
    shifted = qlayer.shifted_weights
    act_scale = qlayer.act_params.scale
    weight_scales = qlayer.weight_scale_vector()

    def run(a):
        acc = igemm.execute(quant.activation_codes(a, qlayer), shifted)
        return igemm.dequantize_output(acc, act_scale, weight_scales)

    return run


def _rescued(config: Config, spec) -> bool:
    """Whether the config gives a layer power-of-two channel rescue."""
    return config.D > 0 and (
        config.pts_layers == "all"
        or (config.pts_layers == "skip_only" and "skip_connection" in spec.tags)
    )


def _check_headroom(config: Config, specs) -> None:
    """Refuse a config whose model the integer kernel could not run.

    Each layer's worst case is its widest possible rescue: D when the
    layer is rescued, else 0.
    """
    for spec in specs:
        shift = config.D if _rescued(config, spec) else 0
        problem = igemm.headroom_problem(config.bits_a, config.bits_w, shift, spec.c_in)
        if problem is not None:
            raise ConfigError(
                f"layer {spec.name!r} cannot run on the integer kernel: {problem}"
            )


def _row_errors(x, w, q) -> np.ndarray:
    """Per-row sums of squared error of q against x @ w, each row's alone."""
    d = matmul(x, w) - q
    return np.einsum("ij,ij->i", d, d)


def _mean_error(row_sums: np.ndarray, c_out: int) -> float:
    """A block's mean squared error from all its rows' _row_errors."""
    return float(np.sum(row_sums) / (row_sums.size * c_out))


def _visit_order(schedule, config: Config) -> list:
    """The timesteps the sampler evaluates, in the order it visits them."""
    return [int(t) for t in ddim_timesteps(schedule.t_max, config.T)[:0:-1]]


def _learn(config: Config, name: str, record, root: Rng, tset_desc: list) -> LesResult:
    """Learn one layer's LES factors from its calibration record."""
    return optimize_layer(
        record,
        TimestepWeighter(tset_desc, alpha=config.alpha, xi=config.xi),
        root.child(f"les-{name}"),
        bits_a=config.bits_a,
        bits_w=config.bits_w,
        iterations=config.iterations,
        lr=config.lr,
        batch_size=config.B,
        optimizer=config.optimizer,
        scale_refresh=config.scale_refresh,
        act_signed=not config.act_unsigned,
    )


def _learn_share(config: Config, names, records, root: Rng, tset_desc: list) -> dict:
    """{name: LesResult} for the named layers, in order. A layer whose
    learning raises maps to the exception, and the share stops there: the
    quantize loop raises it on reaching that layer, as a sequential run
    would."""
    learned = {}
    for name in names:
        try:
            learned[name] = _learn(config, name, records[name], root, tset_desc)
        except Exception as exc:
            learned[name] = exc
            break
    return learned


def _learn_layers(config: Config, names, records, root: Rng, tset_desc: list) -> dict:
    """Learn every layer's LES factors, side by side.

    The layers are dealt round-robin into one share per usable CPU (at most
    one per layer), and workers.run_shares learns them. Returns
    _learn_share's mapping for all the layers; it is the same whatever the
    share count.
    """
    k = min(len(names), workers.usable_cpus())
    learned = {}
    for part in workers.run_shares(
        lambda share: _learn_share(config, share, records, root, tset_desc),
        [names[i::k] for i in range(k)],
        lambda share: f"LES worker for layers {', '.join(share)}",
    ):
        learned.update(part)
    return learned


def _layer_rows(name: str, record, run, tset_desc: list) -> list:
    """(layer, timestep, mse) rows of one layer runner on its calibration
    record, in sampler order."""
    return [
        (name, t, _mean_error(_row_errors(x, record.weight, run(x)), record.weight.shape[1]))
        for t in tset_desc
        for x in (record.activations[record.timesteps == t],)
    ]


def _quantize_layer(
    config: Config, spec, record, les_result: LesResult | None, tset_desc: list
) -> tuple[QuantizedLayer, LayerSummary, list]:
    """Quantize one layer from its calibration record.

    Takes the learned channel scaling factors (les_result, when the run
    learns them) or looks them up, picks the activation scale and any
    power-of-two rescue exponents on the scaled activations, fuses factors
    into divisors and weights and quantizes the weights. Returns the layer,
    its summary and its (layer, timestep, mse) rows on the record; a large
    record is scored in timestep shares (workers.share_slices), with the
    same bits.
    """
    act_signed = not config.act_unsigned
    c_in = record.activations.shape[1]
    initial_loss = final_loss = None
    if config.baseline == "smoothquant":
        tau = smoothquant_tau(record.activations, record.weight)
    elif config.les:
        tau = les_result.tau
        initial_loss, final_loss = les_result.initial_loss, les_result.final_loss
    else:
        tau = np.ones(c_in)
    # Without factors x / 1.0 would be x bit for bit: no scaled copy is made.
    scaled = config.baseline == "smoothquant" or config.les
    x_hat = record.activations / tau[None, :] if scaled else record.activations
    if _rescued(config, spec):
        base_scale, factors = calibrate_activation_scaling(
            x_hat,
            bits=config.bits_a,
            signed=act_signed,
            max_exponent=config.D,
            kappa=config.kappa,
        )
        delta = factors.exponents
        agreement_min = float(factors.agreement.min())
    else:
        base_scale = minmax_scale(x_hat, config.bits_a, signed=act_signed).scale
        delta = np.zeros(c_in, dtype=np.int64)
        agreement_min = None
    act_params = QuantParams(base_scale, config.bits_a, act_signed)
    fused, w_scaled = fuse(tau, act_params, record.weight)
    w_params = minmax_scale(w_scaled, config.bits_w, signed=True, axis=1)
    qlayer = QuantizedLayer(
        spec.name, quantize(w_scaled, w_params), w_params, act_params, fused, delta
    )
    summary = LayerSummary(
        spec.name,
        float(tau.min()),
        float(tau.max()),
        int(np.count_nonzero(delta)),
        int(delta.max()) if delta.size else 0,
        agreement_min,
        initial_loss,
        final_loss,
    )
    run = _layer_runner(qlayer)
    parts = workers.run_shares(
        lambda steps: _layer_rows(spec.name, record, run, tset_desc[steps]),
        workers.share_slices(len(tset_desc), record.activations.size),
        lambda steps: f"report-row worker for layer {spec.name} at timesteps "
        f"{tset_desc[steps.start]}-{tset_desc[steps.stop - 1]}",
    )
    return qlayer, summary, [row for part in parts for row in part]


def run_quantize(config: Config) -> tuple[QuantizedModel, EvalReport]:
    """Quantize the configured checkpoint; returns the model and its report.

    Stages: refuse a model the integer kernel could not run; capture
    calibration activations along sampler trajectories; quantize each layer
    in checkpoint order (_quantize_layer); finally measure calibration-set
    error per layer per timestep and the endpoint deviation of a fresh
    paired trajectory run.
    """
    if not config.checkpoint:
        raise ConfigError("config names no checkpoint")
    model, schedule = load_checkpoint(config.checkpoint)
    specs = model.quantizable_layers()
    _check_headroom(config, specs)
    root = Rng(config.seed)
    tset_desc = _visit_order(schedule, config)
    propagate = config.propagate_quantized_inputs

    def capture(tag: str, overrides, layers=None, out=None):
        return collect_calibration(
            model, schedule, config.T, config.n, root.child(tag),
            eta=config.eta, overrides=overrides or None, layers=layers, out=out,
        )

    records = capture("calib", None, [specs[0].name] if propagate else None)
    learns = config.les and config.baseline == "none"
    if learns and not propagate:
        learned = _learn_layers(config, [s.name for s in specs], records, root, tset_desc)
    overrides = {}
    qlayers = []
    summaries = []
    rows = []
    for idx, spec in enumerate(specs):
        # With propagated inputs every layer reads a capture of its own that
        # records only that layer. It is written into the activations of the
        # layer before, whose record is dead by then (every quantizable layer
        # takes the model's hidden width): one mapping serves every capture,
        # so no capture pays its page faults again.
        if propagate and overrides:
            records = capture(f"calib-{idx}", overrides, [spec.name], [spent])
        if not learns:
            les_result = None
        elif propagate:
            les_result = _learn(config, spec.name, records[spec.name], root, tset_desc)
        else:
            les_result = learned.pop(spec.name)
            if isinstance(les_result, Exception):
                raise les_result
        # Popped in the call, so no name holds the record into the next
        # capture; only its activations are kept, for that capture to reuse.
        spent = records[spec.name].activations
        qlayer, summary, layer_rows = _quantize_layer(
            config, spec, records.pop(spec.name), les_result, tset_desc
        )
        qlayers.append(qlayer)
        overrides[spec.name] = _layer_runner(qlayer)
        summaries.append(summary)
        rows += layer_rows
    endpoint = _paired_endpoint_mse(model, schedule, config, overrides, root)
    qmodel = QuantizedModel(
        config.bits_w, config.bits_a, not config.act_unsigned, tuple(qlayers)
    )
    report = EvalReport(config.echo(), "quantize", tuple(rows), endpoint, tuple(summaries))
    return qmodel, report


def _endpoint(model, schedule, config: Config, root: Rng, overrides=None):
    """Endpoint of the evaluation trajectory, full precision or, with
    overrides (as toydiff.sample_endpoint takes them), quantized, in row
    shares. Every call draws the same noise, so two pair."""
    init = root.child("eval-init").standard_normal((config.n, model.dim))
    return sample_endpoint(
        model, schedule, config.T, config.n, root.child("eval-noise"),
        eta=config.eta, overrides=overrides, x_init=init,
    )


def _paired_endpoint_mse(model, schedule, config: Config, overrides, root: Rng) -> float:
    """Endpoint MSE between quantized and full-precision trajectories that
    share initial noise (and, when eta > 0, the injected noise sequence)."""
    full = _endpoint(model, schedule, config, root)
    quantized = _endpoint(model, schedule, config, root, overrides)
    if not np.all(np.isfinite(quantized)):
        raise NumericalError("quantized trajectory endpoint contains non-finite values")
    return float(np.mean((quantized - full) ** 2))


# ---------------------------------------------------------------------------
# Evaluate
# ---------------------------------------------------------------------------


def _scorer(run, weight: np.ndarray, slots):
    """An override that runs a layer on its runner run, once per call, and
    writes the product's _row_errors against weight's into the next slot."""
    slots = iter(slots)

    def score(a):
        q = run(a)
        next(slots)[...] = _row_errors(a, weight, q)
        return q

    return score


def run_eval(model_path, config: Config) -> EvalReport:
    """Evaluate an exported model file against its full-precision source.

    Runs paired trajectories from shared noise, the quantized one on the
    integer path, and reports the endpoint MSE and the per-layer
    per-timestep mean squared output error measured on the quantized
    trajectory's own layer inputs. Each layer's override scores its product
    as the sampler makes it (_scorer), so every quantized product runs once
    and eval holds no layer's inputs across timesteps, only each step's row
    sums, in a [steps x n] workers.shared_arrays table per layer; rows come
    out layer by layer, each layer's in sampler order. A config whose
    bit-widths or activation signedness disagree with the header is a
    ConfigError.
    """
    if not config.checkpoint:
        raise ConfigError("config names no checkpoint")
    qmodel = import_model(model_path)
    header = (qmodel.bits_w, qmodel.bits_a, qmodel.act_signed)
    wanted = (config.bits_w, config.bits_a, not config.act_unsigned)
    if header != wanted:
        raise ConfigError(
            f"model file {model_path} has (bits_w, bits_a, act_signed) = {header}, "
            f"the config {wanted}"
        )
    model, schedule = load_checkpoint(config.checkpoint)
    specs = {s.name: s for s in model.quantizable_layers()}
    missing = [l.name for l in qmodel.layers if l.name not in specs]
    if missing:
        raise DomainError(f"model file has layers the checkpoint lacks: {missing}")
    absent = [n for n in specs if n not in {l.name for l in qmodel.layers}]
    if absent:
        raise DomainError(f"model file misses quantizable layers: {absent}")
    root = Rng(config.seed)
    tset_desc = _visit_order(schedule, config)
    runners = {l.name: _layer_runner(l) for l in qmodel.layers}
    tables = dict(zip(runners, workers.shared_arrays([(len(tset_desc), config.n)] * len(runners))))

    def scored(rows):
        return {
            name: _scorer(run, model.layer_weight(name), tables[name][:, rows])
            for name, run in runners.items()
        }

    endpoint = _paired_endpoint_mse(model, schedule, config, scored, root)
    rows = [
        (name, t, _mean_error(sums, specs[name].c_out))
        for name, table in tables.items() for t, sums in zip(tset_desc, table)
    ]
    summaries = tuple(
        LayerSummary(
            l.name,
            float((l.fused_tau / l.act_params.scale).min()),
            float((l.fused_tau / l.act_params.scale).max()),
            int(np.count_nonzero(l.pts_exponents)),
            int(l.pts_exponents.max()) if l.pts_exponents.size else 0,
        )
        for l in qmodel.layers
    )
    return EvalReport(config.echo(), "eval", tuple(rows), endpoint, summaries)


def quantize_to_file(config: Config, out_path, report_path=None) -> EvalReport:
    """run_quantize plus export; writes the report when a path is given."""
    qmodel, report = run_quantize(config)
    export_model(out_path, qmodel)
    if report_path is not None:
        report.write(report_path)
    return report
