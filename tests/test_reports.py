"""CSV/SVG/JSON emission: golden texts, roundtrips, and file inventories."""

import json
import math
import os
import re
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from muonlab.errors import ConfigError
from muonlab.harness import (
    ABLATION_CELLS,
    EvalRow,
    RunRecord,
    SweepResult,
    TelescopeGrid,
    TelescopeResult,
    TelescopeStage,
    TrainConfig,
    ablate,
    batch_sweep,
    telescope_sweep,
    train,
)
from muonlab import reports
from muonlab.optim import OptimizerSpec
from muonlab.reports import (
    RUN_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    _xml_escape,
    emit_reports,
    format_value,
    read_run_csv,
    run_csv_text,
    summary_csv_text,
    svg_line_plot,
    write_run_csv,
)
from muonlab.tasks import MlpSpec, QuadraticSpec


def demo_record(rows):
    cfg = TrainConfig(task=QuadraticSpec(),
                      optimizer=OptimizerSpec(kind="muon", eta0=0.02),
                      batch_size=32, total_steps=10, eval_every=10)
    return RunRecord(run_id="demo", optimizer="muon", batch_size=32,
                     rows=tuple(rows), tokens_to_target=None,
                     terminated="completed", loss_spike_count=0,
                     final_val_loss=rows[-1].val_loss,
                     state_scalar_count=128, config=cfg)


class TestFormatValue:
    def test_none_is_empty(self):
        assert format_value(None) == ""

    def test_bools_are_lowercase_words(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_ints_plain(self):
        assert format_value(7) == "7"
        import numpy as np
        assert format_value(np.int64(7)) == "7"

    def test_floats_round_trip(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1.0) == "1.0"
        assert format_value(1e-300) == "1e-300"
        assert float(format_value(math.pi)) == math.pi

    def test_nonfinite_floats(self):
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"

    def test_strings_pass_through(self):
        assert format_value("target-reached") == "target-reached"


class TestCsvText:
    def test_column_orders(self):
        assert RUN_CSV_COLUMNS == (
            "run_id", "optimizer", "batch_size", "step", "tokens_seen",
            "train_loss", "val_loss", "grad_global_norm", "update_rms",
            "eta_t", "wall_ms")
        assert SUMMARY_CSV_COLUMNS == (
            "run_id", "optimizer", "batch_size", "tokens_to_target",
            "terminated", "loss_spike_count", "final_val_loss",
            "state_scalar_count")

    def test_golden_run_csv(self):
        rec = demo_record([
            EvalRow(step=0, tokens_seen=0, train_loss=1.5, val_loss=1.25,
                    grad_global_norm=2.0, update_rms=0.0, eta_t=0.0,
                    wall_ms=0.0),
            EvalRow(step=10, tokens_seen=320, train_loss=0.5, val_loss=0.625,
                    grad_global_norm=1.0, update_rms=0.2, eta_t=0.01,
                    wall_ms=0.0),
        ])
        expected = (
            "run_id,optimizer,batch_size,step,tokens_seen,train_loss,"
            "val_loss,grad_global_norm,update_rms,eta_t,wall_ms\n"
            "demo,muon,32,0,0,1.5,1.25,2.0,0.0,0.0,0.0\n"
            "demo,muon,32,10,320,0.5,0.625,1.0,0.2,0.01,0.0\n"
        )
        assert run_csv_text(rec) == expected

    def test_golden_summary_csv(self):
        rec = demo_record([
            EvalRow(step=0, tokens_seen=0, train_loss=1.5, val_loss=1.25,
                    grad_global_norm=2.0, update_rms=0.0, eta_t=0.0,
                    wall_ms=0.0),
        ])
        expected = (
            "run_id,optimizer,batch_size,tokens_to_target,terminated,"
            "loss_spike_count,final_val_loss,state_scalar_count\n"
            "demo,muon,32,,completed,0,1.25,128\n"
        )
        assert summary_csv_text([rec]) == expected

    def test_roundtrip_including_nonfinite(self, tmp_path):
        rows = [
            EvalRow(step=0, tokens_seen=0, train_loss=0.3, val_loss=0.7,
                    grad_global_norm=math.pi, update_rms=1e-17, eta_t=0.02,
                    wall_ms=0.0),
            EvalRow(step=10, tokens_seen=320, train_loss=float("inf"),
                    val_loss=float("nan"), grad_global_norm=0.0,
                    update_rms=0.0, eta_t=0.0, wall_ms=0.0),
        ]
        path = str(tmp_path / "run.csv")
        write_run_csv(demo_record(rows), path)
        run_id, optimizer, batch_size, parsed = read_run_csv(path)
        assert (run_id, optimizer, batch_size) == ("demo", "muon", 32)
        assert parsed[0] == rows[0]
        assert parsed[1].train_loss == math.inf
        assert math.isnan(parsed[1].val_loss)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,loss\n0,1.0\n")
        with pytest.raises(ConfigError):
            read_run_csv(str(path))

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="unexpected run CSV header"):
            read_run_csv(str(path))

    @pytest.mark.parametrize("row, problem", [
        ("demo,muon,32,10,320,0.5,0.625,1.0,0.2,0.01", "10 cells, expected 11"),
        ("demo,muon,32,10,320,0.5,0.625,1.0,0.2,0.01,0.0,7", "12 cells"),
        ("demo,muon,32,ten,320,0.5,0.625,1.0,0.2,0.01,0.0", "'ten'"),
        ("demo,muon,32,10,320,0.5,,1.0,0.2,0.01,0.0", "''"),
    ])
    def test_read_rejects_malformed_row(self, tmp_path, row, problem):
        good = "demo,muon,32,0,0,1.5,1.25,2.0,0.0,0.0,0.0"
        path = tmp_path / "run.csv"
        path.write_text("\n".join([",".join(RUN_CSV_COLUMNS), good, row, good])
                        + "\n")
        match = f"{re.escape(str(path))} line 3: .*{re.escape(problem)}"
        with pytest.raises(ConfigError, match=match):
            read_run_csv(str(path))


class TestSvgLinePlot:
    def test_basic_polyline_and_labels(self):
        svg = svg_line_plot({"muon": ([0.0, 1.0, 2.0], [2.0, 1.0, 0.5])},
                            title="loss", x_label="tokens", y_label="val")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline points=" in svg
        assert ">muon</text>" in svg
        assert ">tokens</text>" in svg
        assert ">val</text>" in svg

    def test_escapes_markup_in_text(self):
        svg = svg_line_plot({"a<b": ([0.0, 1.0], [0.0, 1.0])},
                            title="x & y", x_label="<t>", y_label="v")
        assert "x &amp; y" in svg
        assert "a&lt;b" in svg
        assert "&lt;t&gt;" in svg
        assert "<t>" not in svg

    @given(st.text(alphabet="&<>;amp gtl", max_size=24))
    def test_local_escape_matches_saxutils(self, text):
        assert _xml_escape(text) == escape(text)

    def test_empty_series_says_no_data(self):
        svg = svg_line_plot({}, title="t", x_label="x", y_label="y")
        assert "no data" in svg
        assert "<polyline" not in svg
        nonfinite = svg_line_plot(
            {"s": ([0.0, 1.0], [float("nan"), float("inf")])},
            title="t", x_label="x", y_label="y")
        assert "no data" in nonfinite

    def test_deterministic_text(self):
        args = ({"a": ([0.0, 1.0], [1.0, 2.0]),
                 "b": ([0.0, 1.0], [2.0, 1.0])},
                "t", "x", "y")
        assert svg_line_plot(*args) == svg_line_plot(*args)

    def test_constant_series_still_renders(self):
        svg = svg_line_plot({"flat": ([1.0, 1.0], [3.0, 3.0])},
                            title="t", x_label="x", y_label="y")
        assert "<polyline points=" in svg


class TestEmitReports:
    def quad_target_base(self, **overrides):
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        spec = QuadraticSpec()
        obj = QuadraticTask.generate(spec, Rng(42).child("data")).optimum_loss()
        defaults = dict(
            task=spec,
            optimizer=OptimizerSpec(kind="muon", eta0=0.02, weight_decay=0.1),
            batch_size=32, total_steps=200, eval_every=10, seed=42,
            target_loss=1.1 * obj, stop_rule="tokens-to-target")
        defaults.update(overrides)
        return TrainConfig(**defaults)

    def assert_clean_dir(self, out_dir, paths):
        listed = sorted(os.path.join(out_dir, n) for n in os.listdir(out_dir))
        assert listed == sorted(paths)
        assert not any(".tmp" in p for p in listed)

    def test_run_emits_run_and_summary(self, tmp_path):
        rec = train(self.quad_target_base())
        out = str(tmp_path / "out")
        paths = emit_reports(rec, out)
        assert [os.path.basename(p) for p in paths] == \
            [f"run_{rec.run_id}.csv", "summary.csv"]
        self.assert_clean_dir(out, paths)
        assert read_run_csv(paths[0])[3] == rec.rows

    def test_val_only_run_round_trips(self, tmp_path):
        # val-only rows leave train_loss and grad_global_norm None, which
        # the run CSV writes as empty cells
        cfg = TrainConfig(task=MlpSpec(n_samples=256, input_dim=8, hidden=(16,),
                                       classes=4, val_fraction=0.125),
                          optimizer=OptimizerSpec(kind="muon", eta0=0.05),
                          batch_size=32, total_steps=20, eval_every=10, seed=42)
        (rec,) = train([cfg], val_only=True)
        paths = emit_reports(rec, str(tmp_path / "out"))
        with open(paths[0], encoding="utf-8") as fh:
            assert fh.read().splitlines()[1].split(",")[5:8:2] == ["", ""]
        assert read_run_csv(paths[0]) == ("mlp-muon-b32-s42", "muon", 32,
                                          rec.rows)
        assert all(r.train_loss is None and r.grad_global_norm is None
                   for r in rec.rows)

    def test_emission_is_byte_stable(self, tmp_path):
        rec = train(self.quad_target_base())
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        pa = emit_reports(rec, out_a)
        pb = emit_reports(rec, out_b)
        for p, q in zip(pa, pb):
            with open(p, "rb") as fh_p, open(q, "rb") as fh_q:
                assert fh_p.read() == fh_q.read()

    def test_sweep_file_inventory(self, tmp_path):
        res = batch_sweep(self.quad_target_base(total_steps=400), (32, 128))
        out = str(tmp_path / "sweep")
        paths = emit_reports(res, out)
        names = [os.path.basename(p) for p in paths]
        assert names == [
            "run_muon-b32.csv", "run_adamw-b32.csv",
            "run_muon-b128.csv", "run_adamw-b128.csv",
            "summary.csv", "ratio_vs_batch.svg", "loss_vs_tokens.svg",
            "sweep_report.json",
        ]
        self.assert_clean_dir(out, paths)
        with open(os.path.join(out, "summary.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 4
        # The loss plot draws the largest batch size's two runs only.
        with open(os.path.join(out, "loss_vs_tokens.svg")) as fh:
            svg = fh.read()
        assert svg.count("<polyline") == 2
        assert re.findall(r">(\w+ \(B=\d+\))</text>", svg) == [
            "muon (B=128)", "adamw (B=128)"]
        assert "B=32" not in svg

    def test_empty_sweep_emits_header_only_summary(self, tmp_path):
        res = SweepResult(batch_grid=(), target_loss=1.0, cells=(),
                          ratios={}, ratio_monotone_nondecreasing=None,
                          records={}, provenance={})
        out = str(tmp_path / "empty")
        paths = emit_reports(res, out)
        names = [os.path.basename(p) for p in paths]
        assert names == ["summary.csv", "ratio_vs_batch.svg",
                         "loss_vs_tokens.svg", "sweep_report.json"]
        with open(os.path.join(out, "summary.csv")) as fh:
            assert fh.read() == ",".join(SUMMARY_CSV_COLUMNS) + "\n"
        with open(os.path.join(out, "loss_vs_tokens.svg")) as fh:
            assert "no data" in fh.read()

    def test_ablation_file_inventory(self, tmp_path):
        spec = QuadraticSpec(n_rows=8, in_dim=16, out_dim=8, lambda_reg=0.1,
                             reg_in_gradient=False, target_noise=0.5,
                             init_scale=1.0)
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        obj = QuadraticTask.generate(spec, Rng(42).child("data")).optimum_loss()
        base = TrainConfig(task=spec,
                           optimizer=OptimizerSpec(kind="muon", eta0=0.05,
                                                   weight_decay=0.1),
                           batch_size=32, total_steps=200, eval_every=10,
                           seed=42, target_loss=2.0 * obj)
        table = ablate(base)
        out = str(tmp_path / "ablate")
        paths = emit_reports(table, out)
        names = [os.path.basename(p) for p in paths]
        assert names[:len(ABLATION_CELLS)] == \
            [f"run_ablate-{c}.csv" for c in ABLATION_CELLS]
        assert names[len(ABLATION_CELLS):] == [
            "summary.csv", "ablation_table.csv",
            "ablation_loss_vs_tokens.svg"]
        self.assert_clean_dir(out, paths)
        with open(os.path.join(out, "ablation_table.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ("cell,run_id,batch_size,final_val_loss,"
                            "steps_to_target,loss_spike_count,"
                            "state_scalar_count,terminated")
        assert len(lines) == 1 + len(ABLATION_CELLS)

    def test_telescope_file_inventory(self, tmp_path):
        base = TrainConfig(
            task=MlpSpec(n_samples=256, input_dim=8, hidden=(16,), classes=4,
                         val_fraction=0.125),
            optimizer=OptimizerSpec(kind="muon", eta0=0.05, weight_decay=0.1),
            batch_size=32, total_steps=60, eval_every=10, seed=42)
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1, points=3)
        res = telescope_sweep(base, 16, 32, grid)
        out = str(tmp_path / "tele")
        paths = emit_reports(res, out)
        names = [os.path.basename(p) for p in paths]
        assert names == ["telescope_stages.csv", "telescope_path.svg",
                         "telescope_report.json"]
        self.assert_clean_dir(out, paths)
        with open(os.path.join(out, "telescope_stages.csv")) as fh:
            lines = fh.read().splitlines()
        # 2 stages x 3x3 grid, plus the header
        assert len(lines) == 1 + 2 * 9
        assert sum(line.endswith(",true") for line in lines) == 2

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        rec = demo_record([EvalRow(0, 0, 1.0, 1.0, 0.5, 0.0, 0.02, 0.0)])
        with pytest.raises(OSError, match="replace refused"):
            emit_reports(rec, str(tmp_path))
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]

    def test_every_text_is_built_before_the_first_write(self, tmp_path,
                                                          monkeypatch):
        res = batch_sweep(self.quad_target_base(total_steps=40), (32, 128))

        def refuse(*args, **kwargs):
            raise RuntimeError("no plot")

        monkeypatch.setattr(reports, "svg_line_plot", refuse)
        out = tmp_path / "sweep"
        with pytest.raises(RuntimeError, match="no plot"):
            emit_reports(res, str(out))
        assert not out.exists() or not os.listdir(out)

    def test_report_keys(self, tmp_path):
        sweep = SweepResult(batch_grid=(32,), target_loss=1.0, cells=(),
                            ratios={32: 1.5}, ratio_monotone_nondecreasing=None,
                            records={}, provenance={"seed": 0})
        stage = TelescopeStage(width=16, etas=(0.1,), lambdas=(0.2,),
                               val_losses=((0.5,),), best_eta=0.1,
                               best_lambda=0.2, best_val_loss=0.5)
        tele = TelescopeResult(start_width=16, end_width=32, stages=(stage,),
                               provenance={"seed": 0})
        (sweep_json,) = [p for p in emit_reports(sweep, str(tmp_path / "s"))
                         if p.endswith(".json")]
        (tele_json,) = [p for p in emit_reports(tele, str(tmp_path / "t"))
                        if p.endswith(".json")]
        with open(sweep_json, encoding="utf-8") as fh:
            report = json.load(fh)
        assert list(report) == ["batch_grid", "provenance",
                                "ratio_monotone_nondecreasing", "ratios",
                                "target_loss"]
        assert report["ratios"] == {"32": 1.5}
        with open(tele_json, encoding="utf-8") as fh:
            report = json.load(fh)
        assert list(report) == ["end_width", "provenance", "stages",
                                "start_width"]
        assert report["stages"] == [{
            "best_eta": 0.1, "best_lambda": 0.2, "best_val_loss": 0.5,
            "etas": [0.1], "lambdas": [0.2], "val_losses": [[0.5]],
            "width": 16}]

    def test_unknown_result_type_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_reports({"not": "a result"}, str(tmp_path))
