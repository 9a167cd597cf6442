import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from denoq import cli, igemm, pipeline, quant, toydiff, workers
from denoq.errors import ConfigError, DomainError, HeadroomError, NumericalError
from denoq.modelfile import QuantizedModel, export_model, import_model
from denoq.pipeline import (
    Config,
    parse_config,
    parse_config_text,
    quantize_to_file,
    run_eval,
    run_quantize,
)
from denoq.tensor import Rng
from denoq.toydiff import load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "checkpoints" / "toy2d.ckpt"


def tiny_config(**kw):
    base = dict(
        checkpoint=str(CHECKPOINT), T=4, n=2, B=8, iterations=4, D=2, seed=3
    )
    base.update(kw)
    return Config(**base)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = Config()
        assert cfg.bits_w == 4 and cfg.bits_a == 8 and cfg.les

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bits_w", 1),
            ("bits_a", 33),
            ("T", 0),
            ("n", 0),
            ("B", 0),
            ("iterations", 0),
            ("alpha", -0.5),
            ("kappa", 0.0),
            ("kappa", 1.5),
            ("xi", 1.0),
            ("lr", 0.0),
            ("D", 17),
            ("pts_layers", "some"),
            ("baseline", "awq"),
            ("optimizer", "sgd"),
            ("eta", 2.0),
            ("scale_refresh", 0),
            ("seed", -1),
            ("alpha", float("inf")),
            ("lr", float("inf")),
            ("lr", float("nan")),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ConfigError):
            Config(**{field: value})

    def test_echo_is_sorted_and_typed(self):
        pairs = Config(les=False, lr=0.5).echo()
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        d = dict(pairs)
        assert d["les"] == "false" and d["lr"] == "0.5" and d["bits_w"] == "4"

    def test_echo_round_trips_through_the_parser(self):
        cfg = Config(checkpoint="x.ckpt", lr=0.037, les=False, D=5, eta=0.25)
        text = "\n".join(f"{k} = {v}" for k, v in cfg.echo())
        assert parse_config_text(text) == cfg


class TestConfigParsing:
    def test_comments_and_blanks_are_ignored(self):
        cfg = parse_config_text("# top\n\nT = 7  # trailing\n  \nn = 3\n")
        assert cfg.T == 7 and cfg.n == 3

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'bogus'"):
            parse_config_text("T = 5\n\nbogus = 1\n", source="cfg")

    def test_duplicate_key_names_the_line(self):
        with pytest.raises(ConfigError, match=r":2: duplicate key 'T'"):
            parse_config_text("T = 5\nT = 6\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
            parse_config_text("just words\n")

    def test_bad_value_types(self):
        with pytest.raises(ConfigError, match="expected int"):
            parse_config_text("T = soon\n")
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config_text("les = maybe\n")

    def test_boolean_words(self):
        for word, want in (("on", True), ("yes", True), ("0", False), ("Off", False)):
            assert parse_config_text(f"les = {word}\n").les is want


class TestConfigCheckpointPath:
    """A relative checkpoint in a config file resolves against the file's
    directory, so a config works from any working directory."""

    def test_bundled_config_works_from_another_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(ROOT / "configs" / "w4a8.cfg")
        assert cfg.checkpoint == str(CHECKPOINT)

    def test_bundled_config_echoes_the_repo_relative_path(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert parse_config("configs/w4a8.cfg").checkpoint == "checkpoints/toy2d.ckpt"

    def test_relative_to_the_config_directory(self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "run.cfg").write_text("checkpoint = ../ck/a.ckpt\n")
        monkeypatch.chdir(tmp_path)
        assert parse_config("sub/run.cfg").checkpoint == "ck/a.ckpt"
        monkeypatch.chdir(tmp_path / "sub")
        assert parse_config("run.cfg").checkpoint == os.path.join("..", "ck", "a.ckpt")

    def test_absolute_and_empty_paths_are_kept(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "run.cfg"
        p.write_text(f"checkpoint = {CHECKPOINT}\n")
        assert parse_config(p).checkpoint == str(CHECKPOINT)
        p.write_text("T = 5\n")
        assert parse_config(p).checkpoint == ""

    def test_text_parser_keeps_the_path_as_written(self):
        assert parse_config_text("checkpoint = ../x.ckpt\n").checkpoint == "../x.ckpt"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two identical quantize runs plus an eval of the first output."""
    d = tmp_path_factory.mktemp("pipe")
    cfg = tiny_config()
    paths = {}
    for tag in ("one", "two"):
        out = d / f"{tag}.dmq"
        rep = d / f"{tag}.txt"
        report = quantize_to_file(cfg, out, rep)
        paths[tag] = (out, rep, report)
    eval_report = run_eval(paths["one"][0], cfg)
    return cfg, paths, eval_report


class TestQuantizeRun:
    def test_repeat_runs_are_byte_identical(self, runs):
        _, paths, _ = runs
        (m1, r1, _), (m2, r2, _) = paths["one"], paths["two"]
        assert m1.read_bytes() == m2.read_bytes()
        assert r1.read_text() == r2.read_text()

    def test_report_shape(self, runs):
        cfg, paths, _ = runs
        report = paths["one"][2]
        assert report.phase == "quantize"
        names = {s.name for s in report.layer_summaries}
        assert names == {"res1", "res2", "skip", "mid"}
        assert len(report.rows) == 4 * cfg.T
        assert np.isfinite(report.endpoint_mse)
        for _, t, mse in report.rows:
            assert 1 <= t <= 1000 and mse >= 0

    def test_report_files_include_tsv_tables(self, runs):
        _, paths, _ = runs
        rep = paths["one"][1]
        layers = rep.with_name(rep.stem + "_layers.tsv")
        summary = rep.with_name(rep.stem + "_summary.tsv")
        ltext = layers.read_text().splitlines()
        stext = summary.read_text().splitlines()
        assert ltext[0] == "layer\ttimestep\tmse"
        assert len(ltext) == 1 + len(paths["one"][2].rows)
        assert stext[0].startswith("layer\ttau_min")
        assert len(stext) == 1 + 4

    def test_eval_reproduces_the_quantize_endpoint(self, runs):
        """The endpoint statistic must survive the export/import boundary
        bit-for-bit. The per-layer rows are a different measurement on each
        side (calibration capture vs the quantized trajectory's own inputs),
        so only their shape is shared."""
        cfg, paths, eval_report = runs
        q_report = paths["one"][2]
        assert eval_report.phase == "eval"
        assert repr(eval_report.endpoint_mse) == repr(q_report.endpoint_mse)
        assert len(eval_report.rows) == len(q_report.rows) == 4 * cfg.T
        rerun = run_eval(paths["one"][0], cfg)
        assert rerun == eval_report

    def test_model_file_contents(self, runs):
        _, paths, _ = runs
        model = import_model(paths["one"][0])
        assert model.bits_w == 4 and model.bits_a == 8
        assert [l.name for l in model.layers] == ["res1", "res2", "skip", "mid"]
        for layer in model.layers:
            assert layer.c_in == layer.c_out == 64

    def test_eval_rejects_layer_name_mismatch(self, runs, tmp_path):
        cfg, paths, _ = runs
        model = import_model(paths["one"][0])
        short = QuantizedModel(
            model.bits_w, model.bits_a, model.act_signed, model.layers[:-1]
        )
        p = tmp_path / "short.dmq"
        export_model(p, short)
        with pytest.raises(DomainError, match="mid"):
            run_eval(p, cfg)
        renamed = QuantizedModel(
            model.bits_w,
            model.bits_a,
            model.act_signed,
            (dataclasses.replace(model.layers[0], name="zzz"),) + model.layers[1:],
        )
        p2 = tmp_path / "renamed.dmq"
        export_model(p2, renamed)
        with pytest.raises(DomainError):
            run_eval(p2, cfg)

    def test_eval_scores_layer_inputs_as_they_arrive(self, runs):
        """Eval keeps no captured layer inputs: at n = 256 over 20 steps its
        peak stays below what one layer's inputs alone would take, while
        its rows still come layer by layer, each in sampler order."""
        import tracemalloc

        cfg, paths, _ = runs
        cfg = dataclasses.replace(cfg, n=256, T=20)
        tracemalloc.start()
        try:
            report = run_eval(paths["one"][0], cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.n * cfg.T * 64 * 8
        names = ["res1", "res2", "skip", "mid"]
        assert [name for name, _, _ in report.rows] == [
            name for name in names for _ in range(cfg.T)
        ]
        steps = [t for _, t, _ in report.rows[: cfg.T]]
        assert steps == sorted(steps, reverse=True)
        assert [t for _, t, _ in report.rows] == steps * len(names)

    def test_eval_runs_each_quantized_product_once(self, runs, monkeypatch):
        """A layer's score reuses the product its quantized trajectory runs:
        one activation_codes call per layer per sampler step."""
        cfg, paths, _ = runs
        real = quant.activation_codes
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(quant, "activation_codes", counted)
        report = run_eval(paths["one"][0], cfg)
        assert len(report.rows) == len(calls) == 4 * cfg.T


class TestVariants:
    def test_minmax_only_leaves_tau_at_one(self):
        model, report = run_quantize(tiny_config(les=False, pts_layers="none"))
        for s in report.layer_summaries:
            assert s.tau_min == s.tau_max == 1.0
            assert s.rescued == 0
            assert s.initial_loss is None and s.final_loss is None
        for layer in model.layers:
            assert np.all(layer.pts_exponents == 0)

    def test_smoothquant_baseline_moves_tau(self):
        model, report = run_quantize(tiny_config(baseline="smoothquant", les=False))
        spread = [s for s in report.layer_summaries if s.tau_max > s.tau_min]
        assert spread, "closed-form migration should vary tau across channels"

    def test_rescue_only_fires_on_tagged_layers(self):
        model, report = run_quantize(tiny_config(les=False, pts_layers="skip_only", D=3))
        by_name = {s.name: s for s in report.layer_summaries}
        for name in ("res1", "res2", "mid"):
            assert by_name[name].rescued == 0
            assert by_name[name].agreement_min is None
        assert by_name["skip"].agreement_min is not None

    def test_propagated_inputs_mode_runs(self):
        model, report = run_quantize(tiny_config(propagate_quantized_inputs=True))
        assert np.isfinite(report.endpoint_mse)

    def test_unsigned_activations_quantize_and_evaluate(self, tmp_path):
        cfg = tiny_config(act_unsigned=True, pts_layers="all")
        out = tmp_path / "u.dmq"
        report = quantize_to_file(cfg, out)
        assert out.read_bytes()[8] & 1 == 0  # DMQ1 flags: unsigned activations
        model = import_model(out)
        assert model.act_signed is False
        for layer in model.layers:
            assert layer.act_params.signed is False
        assert np.isfinite(report.endpoint_mse)
        again = run_eval(out, cfg)
        assert repr(again.endpoint_mse) == repr(report.endpoint_mse)

    def test_missing_checkpoint_fails_cleanly(self):
        with pytest.raises(OSError):
            run_quantize(tiny_config(checkpoint="nowhere/else.ckpt"))

    def test_rescuing_export_is_pinned(self, tmp_path, monkeypatch):
        """The bundled config with rescue on every layer and propagated
        inputs rescues one channel of skip at seed 0. Its model file and
        report are pinned byte for byte, so a drift in exponent selection
        on a rescuing layer fails here, not only in the golden run."""
        monkeypatch.chdir(ROOT)  # the report echoes the checkpoint path
        cfg = dataclasses.replace(
            parse_config("configs/w4a8.cfg"),
            pts_layers="all",
            propagate_quantized_inputs=True,
            seed=0,
        )
        out, rep = tmp_path / "rescue.dmq", tmp_path / "rescue.txt"
        report = quantize_to_file(cfg, out, rep)
        rescued = {s.name: s.rescued for s in report.layer_summaries}
        assert rescued == {"res1": 0, "res2": 0, "skip": 1, "mid": 0}
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()  # noqa: E731
        assert digest(out) == (
            "bca82bb6dc9c16303d8052b72ec4d866ed022fe22e1e516789e156d57d5836c4"
        )
        assert digest(rep) == (
            "0ba5547397d5a56287f8a09d6b0f594cfdc037b5a46e9416799ff7e9a72bff7b"
        )

    @pytest.mark.parametrize(
        "overrides,model_sha,report_sha",
        [
            (
                dict(pts_layers="none"),
                "3a1d1c896f061ab404c32b09a3eac68f830cc29a342fd8cb12eefcbb7191cdb9",
                "1da22974fe7ffe9ef15f3db1b09b28e9b3dfea380c6efa782ac03a44d157a260",
            ),
            (
                dict(optimizer="adam"),
                "b5b430019f67dcc2dfa3f3ffc98c8920c85dbb9d539cf558d5cb4091d1561255",
                "ec2bdafcbaca12f8061f07f2c72227f59e39c038d290873a7d36bbba32c55c9b",
            ),
            (
                dict(act_unsigned=True),
                "a789500c0647e9e93d90cfcc6674cf6c74dd64381572c313446dcf4900192ae0",
                "1d52452ef135cb7998a9dca4d579d99fe0a593f6b6a67926809a2f99a5dd9dcb",
            ),
        ],
        ids=["pts_none", "adam", "act_unsigned"],
    )
    def test_les_outcome_is_pinned(self, tmp_path, monkeypatch, overrides, model_sha, report_sha):
        """The bundled config at seed 0 with LES on: without rescue, with
        Adam, and with unsigned activations. Model file and report are
        pinned byte for byte, so a change to the LES descent or to its
        keep-best check that moves one learned factor fails here."""
        monkeypatch.chdir(ROOT)  # the report echoes the checkpoint path
        cfg = dataclasses.replace(parse_config("configs/w4a8.cfg"), seed=0, **overrides)
        out, rep = tmp_path / "les.dmq", tmp_path / "les.txt"
        quantize_to_file(cfg, out, rep)
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()  # noqa: E731
        assert digest(out) == model_sha
        assert digest(rep) == report_sha


def write_cfg(tmp_path, **kw):
    """tiny_config(**kw) as a config file."""
    cfg = tiny_config(**kw)
    lines = [f"{k} = {v}" for k, v in cfg.echo()]
    p = tmp_path / "run.cfg"
    p.write_text("\n".join(lines) + "\n")
    return p


def _no_capture(*args, **kwargs):
    raise AssertionError("calibration capture ran before the headroom check")


class TestHeadroomRefusal:
    """run_quantize refuses, before any calibration, a config whose model
    the integer kernel could not run; the checkpoint's layers are 64 wide."""

    @pytest.mark.parametrize(
        "kw,what",
        [
            (dict(bits_w=32, bits_a=32), "70 > 53"),  # the old 32/32 mode
            (dict(bits_w=22, bits_a=24, D=2), "'skip'.*54 > 53"),  # D counts on skip
            (dict(bits_w=31, D=2), "weight lane"),  # 31 + 2 > 32 on skip
            (dict(bits_w=30, D=3, pts_layers="all"), "'res1'.*weight lane"),
        ],
    )
    def test_refused_before_capture(self, monkeypatch, kw, what):
        monkeypatch.setattr(pipeline, "collect_calibration", _no_capture)
        with pytest.raises(ConfigError, match=what):
            run_quantize(tiny_config(**kw))

    def test_unrescued_layers_count_no_shift(self, tmp_path):
        """With no layer rescued D adds nothing: 31-bit weights fit the lane,
        the model quantizes, exports, and evaluates on the integer path."""
        cfg = tiny_config(bits_w=31, D=2, pts_layers="none")
        out = tmp_path / "w31.dmq"
        report = quantize_to_file(cfg, out)
        assert repr(run_eval(out, cfg).endpoint_mse) == repr(report.endpoint_mse)

    def test_22_bit_mode_fits(self, tmp_path):
        """22/22 with D = 3 counted on the skip layer needs exactly 53 bits:
        the model quantizes, exports, and evaluates on the integer path."""
        cfg = tiny_config(bits_w=22, bits_a=22, D=3)
        out = tmp_path / "b22.dmq"
        report = quantize_to_file(cfg, out)
        assert repr(run_eval(out, cfg).endpoint_mse) == repr(report.endpoint_mse)

    def test_refusal_exits_2(self, tmp_path, capsys, monkeypatch):
        """24/24 needs 54 bits even on an unrescued layer: one error line,
        exit 2, no model file."""
        monkeypatch.setattr(pipeline, "collect_calibration", _no_capture)
        cfgp = write_cfg(tmp_path, bits_w=24, bits_a=24)
        rc = cli.main(
            ["quantize", "--config", str(cfgp), "--out", str(tmp_path / "x.dmq")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "cannot run on the integer kernel" in err and "54 > 53" in err
        assert not (tmp_path / "x.dmq").exists()

    def test_eval_of_a_file_past_the_lane_exits_3(self, runs, tmp_path, capsys):
        """One rescue exponent set to 40 in an exported file: 4 + 40 bits do
        not fit the weight lane, so the file is refused, not evaluated."""
        _, paths, _ = runs
        raw = bytearray(paths["one"][0].read_bytes())
        model = import_model(paths["one"][0])
        layer = model.layers[0]
        # header, u16 name length, name, C_in and C_out, activation scale,
        # weight scales and divisors, then the exponents
        at = 13 + 2 + len(layer.name) + 8 + 8 + 8 * layer.c_out + 8 * layer.c_in
        raw[at] = 40
        p = tmp_path / "e40.dmq"
        p.write_bytes(bytes(raw))
        cfgp = write_cfg(tmp_path)
        rc = cli.main(["eval", "--config", str(cfgp), "--model", str(p)])
        assert rc == 3
        assert "weight lane" in capsys.readouterr().err


def test_a_26_bit_model_runs_in_the_float64_tier_end_to_end(tmp_path, monkeypatch):
    """bits_w = 8 and bits_a = 12 on 64 channels put every layer in the
    float64 tier of the code product (26 bits, 29 on the rescued layer):
    eval reproduces the quantize endpoint bit for bit, codes and
    accumulators are float64, and the served trajectory equals the one of
    the reference oracle bit for bit."""
    cfg = dataclasses.replace(
        parse_config(ROOT / "configs" / "w4a8.cfg"), bits_w=8, bits_a=12, n=64, T=10,
        iterations=20,
    )
    out = tmp_path / "b26.dmq"
    report = quantize_to_file(cfg, out)
    layers = import_model(out).layers
    assert all(26 <= layer.accumulator_budget <= 53 for layer in layers)
    seen, execute = [], igemm.execute

    def spy(x, w):
        acc = execute(x, w)
        seen.append((x.codes.dtype, acc.codes.dtype))
        return acc

    monkeypatch.setattr(igemm, "execute", spy)
    assert repr(run_eval(out, cfg).endpoint_mse) == repr(report.endpoint_mse)
    assert seen and all(x == np.float64 and acc == np.float64 for x, acc in seen)
    model, schedule = load_checkpoint(CHECKPOINT)
    served = {layer.name: pipeline._layer_runner(layer) for layer in layers}
    reference = {
        layer.name: (lambda a, layer=layer: quant.quantized_matmul_reference(a, layer))
        for layer in layers
    }
    x0 = Rng(7).standard_normal((64, model.dim))
    got, want = (
        toydiff.sample(model, schedule, cfg.T, 64, Rng(7), overrides=o, x_init=x0).states
        for o in (served, reference)
    )
    assert got.tobytes() == want.tobytes()


class TestCli:
    def write_cfg(self, tmp_path, **kw):
        return write_cfg(tmp_path, **kw)

    def test_quantize_eval_inspect_flow(self, tmp_path, capsys):
        cfgp = self.write_cfg(tmp_path)
        out = tmp_path / "m.dmq"
        rep = tmp_path / "m.txt"
        rc = cli.main(
            ["quantize", "--config", str(cfgp), "--out", str(out), "--report", str(rep)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "endpoint_mse" in stdout and str(out) in stdout
        assert out.exists() and rep.exists()

        rc = cli.main(["export-inspect", "--model", str(out)])
        assert rc == 0
        assert "weight bits 4" in capsys.readouterr().out

        erep = tmp_path / "e.txt"
        rc = cli.main(
            ["eval", "--config", str(cfgp), "--model", str(out), "--report", str(erep)]
        )
        assert rc == 0
        assert "endpoint_mse = " in erep.read_text()

    def test_calibrate_writes_statistics(self, tmp_path, capsys):
        cfgp = self.write_cfg(tmp_path)
        rc = cli.main(["calibrate", "--config", str(cfgp)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("layer\trows\t")
        assert "skip\t" in out

    def test_variant_flags_override_the_config(self, tmp_path, capsys):
        cfgp = self.write_cfg(tmp_path)
        out = tmp_path / "mm.dmq"
        rc = cli.main(
            [
                "quantize", "--config", str(cfgp), "--out", str(out),
                "--les", "off", "--pts", "none", "--seed", "3",
            ]
        )
        assert rc == 0
        model = import_model(out)
        assert all(np.all(l.pts_exponents == 0) for l in model.layers)

    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        rc = cli.main(
            ["quantize", "--config", str(tmp_path / "no.cfg"), "--out", "x.dmq"]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_config_content_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("volume = 11\n")
        rc = cli.main(["quantize", "--config", str(p), "--out", "x.dmq"])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"T = 4\xff\n")
        rc = cli.main(["quantize", "--config", str(p), "--out", str(tmp_path / "x.dmq")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {p}: not UTF-8 at byte offset 5\n"

    def test_non_utf8_checkpoint_name_exits_3(self, tmp_path, capsys):
        raw = bytearray(CHECKPOINT.read_bytes())
        raw[12] ^= 0x80  # first byte of the first tensor name
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(bytes(raw))
        cfgp = self.write_cfg(tmp_path, checkpoint=str(ckpt))
        rc = cli.main(
            ["quantize", "--config", str(cfgp), "--out", str(tmp_path / "x.dmq")]
        )
        assert rc == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_checkpoint_with_trailing_bytes_exits_3(self, tmp_path, capsys):
        ckpt = tmp_path / "long.ckpt"
        ckpt.write_bytes(CHECKPOINT.read_bytes() + b"\x00\x00")
        cfgp = self.write_cfg(tmp_path, checkpoint=str(ckpt))
        rc = cli.main(
            ["quantize", "--config", str(cfgp), "--out", str(tmp_path / "x.dmq")]
        )
        assert rc == 3
        assert "trailing bytes" in capsys.readouterr().err

    def test_checkpoint_with_a_nan_weight_exits_3(self, tmp_path, capsys):
        """A well-framed checkpoint whose contents make no model."""
        model, sched = load_checkpoint(CHECKPOINT)
        params = {k: v.copy() for k, v in model.params.items()}
        params["res1_w"][0, 0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, SimpleNamespace(params=params), sched)
        cfgp = self.write_cfg(tmp_path, checkpoint=str(ckpt))
        rc = cli.main(
            ["quantize", "--config", str(cfgp), "--out", str(tmp_path / "x.dmq")]
        )
        assert rc == 3
        assert "res1_w contains non-finite values" in capsys.readouterr().err

    def test_garbage_model_file_exits_3(self, tmp_path, capsys):
        p = tmp_path / "junk.dmq"
        p.write_bytes(b"this is not a model")
        rc = cli.main(["export-inspect", "--model", str(p)])
        assert rc == 3
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kw,config_side",
        [
            (dict(bits_a=6), "(4, 6, True)"),
            (dict(bits_w=8), "(8, 8, True)"),
            (dict(act_unsigned=True), "(4, 8, False)"),
        ],
    )
    def test_eval_with_a_config_that_disagrees_with_the_model_exits_2(
        self, kw, config_side, tmp_path, capsys
    ):
        """A W4A8 signed model evaluated under another width or signedness
        is refused, naming both sides, where it used to report the wrong
        widths."""
        out = tmp_path / "m.dmq"
        cfgp = self.write_cfg(tmp_path)
        assert cli.main(["quantize", "--config", str(cfgp), "--out", str(out)]) == 0
        capsys.readouterr()
        other = tmp_path / "other"
        other.mkdir()
        rc = cli.main(
            ["eval", "--config", str(self.write_cfg(other, **kw)), "--model", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: model file {out} has (bits_w, bits_a, act_signed) = "
            f"(4, 8, True), the config {config_side}\n"
        )

    def test_numerical_failures_exit_4(self, tmp_path, capsys, monkeypatch):
        cfgp = self.write_cfg(tmp_path)
        for exc in (NumericalError("values exploded"), HeadroomError("too wide")):
            def boom(*a, _exc=exc, **kw):
                raise _exc
            monkeypatch.setattr(cli, "quantize_to_file", boom)
            rc = cli.main(
                ["quantize", "--config", str(cfgp), "--out", str(tmp_path / "x.dmq")]
            )
            assert rc == 4
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_model_that_overflows_in_sampling_exits_4(
        self, count, tmp_path, capsys, monkeypatch
    ):
        """Finite float32 weights whose float64 products overflow; with two
        CPUs the capture runs in two row shares. No numpy warning comes
        before the error: the suite turns warnings into errors."""
        model, sched = load_checkpoint(CHECKPOINT)
        params = {k: v.copy() for k, v in model.params.items()}
        params["mid_w"] *= 1e36
        params["stem_w"] *= 1e30
        params["head_w"] *= 1e30
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, SimpleNamespace(params=params), sched)
        cfgp = self.write_cfg(tmp_path, checkpoint=str(ckpt), n=128)
        monkeypatch.setattr(toydiff, "_SHARE_ROW_STEPS", 1)
        monkeypatch.setattr(workers, "usable_cpus", lambda: count)
        rc = cli.main(["quantize", "--config", str(cfgp), "--out", str(tmp_path / "x.dmq")])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: sampler step 4 of 4 (t = 250): the model output contains "
            "non-finite values\n"
        )


_QUANTIZE_SCRIPT = """
import sys
from denoq.pipeline import Config, quantize_to_file, run_eval
out = sys.argv[1]
cfg = Config(checkpoint=sys.argv[2], T=4, n=32, B=8, iterations=4, D=2, seed=3)
quantize_to_file(cfg, out + "/model.dmq", out + "/report.txt")
run_eval(out + "/model.dmq", cfg).write(out + "/eval.txt")
"""


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Code products may run on BLAS, so the same run with one and with two
    BLAS threads must write the same model and report bytes, and the eval
    of that model, on the integer path, the same eval report bytes. 128
    calibration rows against 64x64 weights is large enough for OpenBLAS to
    split."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        subprocess.run(
            [sys.executable, "-c", _QUANTIZE_SCRIPT, str(out), str(CHECKPOINT)],
            env=env, check=True, timeout=120,
        )
        outputs.append(
            [(out / name).read_bytes() for name in
             ("model.dmq", "report.txt", "report_layers.tsv", "report_summary.tsv",
              "eval.txt", "eval_layers.tsv", "eval_summary.tsv")]
        )
    assert outputs[0] == outputs[1]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_vars(**set_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(set_vars)
    return env


@pytest.mark.parametrize("user_value", [None, "2"])
def test_import_defaults_blas_threads_to_one(user_value):
    """import denoq sets each BLAS thread variable to 1 where it is unset,
    and keeps a value the user set."""
    env = _env_without_blas_vars(
        **({var: user_value for var in _BLAS_VARS} if user_value else {})
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, denoq; print(' '.join(os.environ[v] for v in %r))" % (_BLAS_VARS,)],
        env=env, check=True, timeout=60, capture_output=True, text=True,
    )
    assert done.stdout.split() == [user_value or "1"] * 3


def test_cli_quantize_with_blas_vars_unset_matches_one_thread(tmp_path):
    """python -m denoq quantize with no BLAS variable set writes the bytes
    of a run pinned to one OpenBLAS thread."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"checkpoint = {CHECKPOINT}\nn = 8\nT = 6\niterations = 24\n")
    outputs = []
    for tag, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / tag
        out.mkdir()
        subprocess.run(
            [sys.executable, "-m", "denoq", "quantize", "--config", str(cfg),
             "--out", str(out / "model.dmq"), "--report", str(out / "report.txt")],
            env=_env_without_blas_vars(**extra), check=True, timeout=120,
            capture_output=True,
        )
        outputs.append(
            [(out / name).read_bytes() for name in
             ("model.dmq", "report.txt", "report_layers.tsv", "report_summary.tsv")]
        )
    assert outputs[0] == outputs[1]


_GOLDEN_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from regenerate_golden import golden_lines
sys.stdout.write("\\n".join(golden_lines(sys.argv[2])) + "\\n")
"""


def test_golden_file_reproduces_at_one_blas_thread():
    """The benchmark pins BLAS to one thread, so golden/ordering.txt must
    come out of scripts/regenerate_golden.py byte for byte at that count."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT, str(ROOT / "scripts"),
         str(ROOT / "configs" / "w4a8.cfg")],
        env=env, check=True, timeout=300, capture_output=True,
    )
    assert done.stdout == (ROOT / "golden" / "ordering.txt").read_bytes()


def test_regenerate_golden_check_writes_nothing(tmp_path, monkeypatch, capsys):
    """--check exits 0 on a file that matches the rebuilt lines and 1 with
    a diff on one that does not; neither it nor --help or a typo writes
    the file."""
    spec = importlib.util.spec_from_file_location(
        "regenerate_golden", ROOT / "scripts" / "regenerate_golden.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = ["# a header", "minmax: endpoint_mse = 0.5", "ordering: x is true"]
    monkeypatch.setattr(script, "golden_lines", lambda config_path: lines)
    monkeypatch.setattr(script, "ROOT", tmp_path)
    golden = tmp_path / "golden" / "ordering.txt"
    golden.parent.mkdir()
    good = ("\n".join(lines) + "\n").encode()
    golden.write_bytes(good)
    assert script.main(["--check"]) == 0
    bad = good.replace(b"0.5", b"0.25")
    golden.write_bytes(bad)
    assert script.main(["--check"]) == 1
    assert "-minmax: endpoint_mse = 0.25\n+minmax: endpoint_mse = 0.5\n" in capsys.readouterr().out
    for argv in (["--help"], ["--chek"]):
        with pytest.raises(SystemExit):
            script.main(argv)
    assert golden.read_bytes() == bad
    assert script.main([]) == 0
    assert golden.read_bytes() == good


def test_ordering_sweep_seed_0_agrees_with_the_golden_file():
    """scripts/ordering_sweep.py runs the golden variants per seed; its
    W4A8 seed-0 les_pts figure is the one golden/ordering.txt records."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ordering_sweep.py"),
         "--seeds", "0", "--bits-a", "8"],
        env=env, check=True, timeout=300, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    assert lines[2] == "W4A8" and lines[3].split() == ["seed", "minmax", "les_only", "les_pts"]
    seed0 = lines[4].split()
    assert seed0[0] == "0" and lines[5].startswith("median")
    golden = (ROOT / "golden" / "ordering.txt").read_text(encoding="utf-8")
    assert f"les_pts: endpoint_mse = {seed0[3]} " in golden


def test_output_hashes_are_the_same_on_a_second_run(tmp_path):
    """scripts/output_hashes.py hashes the seven files of one config the
    same way twice, also when the checkpoint sits at another path, whose
    report line it leaves out."""
    spec = importlib.util.spec_from_file_location(
        "output_hashes", ROOT / "scripts" / "output_hashes.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    moved = tmp_path / "copy.ckpt"
    moved.write_bytes(CHECKPOINT.read_bytes())
    first = script.config_hashes(tiny_config(), "tiny")
    second = script.config_hashes(tiny_config(checkpoint=str(moved)), "tiny")
    assert first == second
    assert [line.split()[1] for line in first] == [f"tiny/{f}" for f in script.FILES]
    assert len(first) == 7 and all(len(line.split()[0]) == 64 for line in first)
    assert list(tmp_path.iterdir()) == [moved]
