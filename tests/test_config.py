"""Strict JSON config parsing: defaults, aliases, and rejection paths."""

import json

import pytest

from muonlab.config import (
    StrictSection,
    load_config,
    parse_ablate_config,
    parse_sweep_config,
    parse_telescope_config,
    parse_train_config,
)
from muonlab.errors import ConfigError
from muonlab.harness import TrainConfig
from muonlab.optim import OptimizerSpec
from muonlab.tasks import MlpSpec, QuadraticSpec


def full_train_doc():
    return {
        "task": {
            "kind": "quadratic",
            "n_rows": 64,
            "in_dim": 16,
            "out_dim": 8,
            "lambda_reg": 0.05,
            "noise_sigma": 0.1,
            "reg_in_gradient": False,
            "target_noise": 0.25,
            "design_scale": 2.0,
            "init_scale": 1.0,
        },
        "optimizer": {
            "kind": "muon",
            "eta0": 0.03,
            "lambda": 0.2,
            "beta": 0.95,
            "k_iters": 7,
            "coeffs": "taylor",
        },
        "schedule": {
            "kind": "inverse-sqrt",
            "warmup_fraction": 0.0,
        },
        "batch_size": 16,
        "total_steps": 120,
        "eval_every": 12,
        "seed": 3,
        "target_loss": 1.5,
        "stop_rule": "tokens-to-target",
        "smooth_window": 3,
        "out_dir": "results",
    }


class TestStrictSection:
    def test_requires_object(self):
        with pytest.raises(ConfigError, match="<root>"):
            StrictSection([1, 2])

    def test_take_marks_and_types(self):
        sec = StrictSection({"a": 1, "b": "x"})
        assert sec.take("a", kind=int) == 1
        assert sec.take("b", kind=str) == "x"
        sec.finish()

    def test_missing_required_key_names_path(self):
        sec = StrictSection({"inner": {}}, path="outer")
        with pytest.raises(ConfigError) as exc:
            sec.take("gone")
        assert exc.value.key_path == "outer.gone"

    def test_finish_reports_first_unknown(self):
        sec = StrictSection({"zeta": 1, "alpha": 2})
        with pytest.raises(ConfigError) as exc:
            sec.finish()
        assert exc.value.key_path == "alpha"

    def test_bool_is_not_an_int(self):
        sec = StrictSection({"n": True})
        with pytest.raises(ConfigError, match="integer"):
            sec.take("n", kind=int)

    def test_int_accepted_as_number(self):
        sec = StrictSection({"x": 2})
        assert sec.take("x", kind=float) == 2


class TestParseTrain:
    def test_full_document(self):
        cfg, out_dir = parse_train_config(full_train_doc())
        assert out_dir == "results"
        assert isinstance(cfg.task, QuadraticSpec)
        assert cfg.task.n_rows == 64
        assert cfg.task.lambda_reg == 0.05
        assert cfg.task.reg_in_gradient is False
        assert cfg.task.init_scale == 1.0
        assert cfg.optimizer.kind == "muon"
        assert cfg.optimizer.weight_decay == 0.2  # JSON spells it "lambda"
        assert cfg.optimizer.k_iters == 7
        assert cfg.optimizer.coeffs == "taylor"
        assert cfg.schedule_kind == "inverse-sqrt"
        assert cfg.warmup_fraction == 0.0
        assert cfg.batch_size == 16
        assert cfg.total_steps == 120
        assert cfg.eval_every == 12
        assert cfg.seed == 3
        assert cfg.target_loss == 1.5
        assert cfg.stop_rule == "tokens-to-target"
        assert cfg.smooth_window == 3

    def test_minimal_document_uses_defaults(self):
        cfg, out_dir = parse_train_config({"task": {"kind": "quadratic"}})
        assert out_dir == "out"
        assert cfg.task == QuadraticSpec()
        assert cfg.optimizer.kind == "muon"
        assert cfg.optimizer.eta0 == 0.02
        assert cfg.optimizer.weight_decay == 0.1
        assert cfg.batch_size == 32
        assert cfg.schedule_kind == "cosine-with-linear-warmup"
        assert cfg.target_loss is None
        assert cfg.optimizer == OptimizerSpec()
        assert cfg == TrainConfig(task=QuadraticSpec(), optimizer=OptimizerSpec())
        cfg, _ = parse_train_config({"task": {"kind": "mlp"}})
        assert cfg.task == MlpSpec()
        assert cfg == TrainConfig(task=MlpSpec(), optimizer=OptimizerSpec())

    def test_mlp_task_document(self):
        doc = {"task": {"kind": "mlp", "hidden": [32, 16], "classes": 4,
                        "input_dim": 8, "n_samples": 128}}
        cfg, _ = parse_train_config(doc)
        assert isinstance(cfg.task, MlpSpec)
        assert cfg.task.hidden == (32, 16)
        assert cfg.task.classes == 4

    def test_mlp_hidden_must_be_ints(self):
        doc = {"task": {"kind": "mlp", "hidden": [32, "16"]}}
        with pytest.raises(ConfigError) as exc:
            parse_train_config(doc)
        assert exc.value.key_path == "task.hidden"

    def test_task_kind_required(self):
        with pytest.raises(ConfigError) as exc:
            parse_train_config({"task": {}})
        assert exc.value.key_path == "task.kind"

    def test_task_section_required(self):
        with pytest.raises(ConfigError) as exc:
            parse_train_config({})
        assert exc.value.key_path == "task"

    def test_unknown_task_kind(self):
        with pytest.raises(ConfigError) as exc:
            parse_train_config({"task": {"kind": "transformer"}})
        assert exc.value.key_path == "task.kind"

    def test_unknown_key_dotted_path(self):
        doc = {"task": {"kind": "quadratic", "rows": 4}}
        with pytest.raises(ConfigError) as exc:
            parse_train_config(doc)
        assert exc.value.key_path == "task.rows"

    def test_unknown_top_level_key(self):
        doc = {"task": {"kind": "quadratic"}, "epochs": 3}
        with pytest.raises(ConfigError) as exc:
            parse_train_config(doc)
        assert exc.value.key_path == "epochs"

    def test_type_mismatch_names_key(self):
        doc = {"task": {"kind": "quadratic"}, "batch_size": "32"}
        with pytest.raises(ConfigError) as exc:
            parse_train_config(doc)
        assert exc.value.key_path == "batch_size"

    def test_bool_rejected_where_int_expected(self):
        doc = {"task": {"kind": "quadratic"}, "seed": True}
        with pytest.raises(ConfigError) as exc:
            parse_train_config(doc)
        assert exc.value.key_path == "seed"

    def test_overrides_win(self):
        cfg, out_dir = parse_train_config(
            full_train_doc(), overrides={"seed": 99, "out": "elsewhere",
                                         "precision": "f32"})
        assert cfg.seed == 99
        assert cfg.precision == "f32"
        assert out_dir == "elsewhere"

    def test_schedule_section_unknown_key(self):
        doc = {"task": {"kind": "quadratic"},
               "schedule": {"kind": "constant", "gamma": 0.9}}
        with pytest.raises(ConfigError) as exc:
            parse_train_config(doc)
        assert exc.value.key_path == "schedule.gamma"


QUADRATIC = {"kind": "quadratic"}
MLP = {"kind": "mlp"}
TELESCOPE = {"start_width": 8, "end_width": 16, "grid": {}}


class TestNull:
    """``null`` is rejected by key everywhere but ``target_loss``."""

    @pytest.mark.parametrize("parse, doc, key_path", [
        # these wrote into ./None/ or run_None.csv, or raised a TypeError
        (parse_train_config, {"task": QUADRATIC, "out_dir": None}, "out_dir"),
        (parse_train_config, {"task": QUADRATIC, "run_id": None}, "run_id"),
        (parse_train_config, {"task": QUADRATIC, "batch_size": None},
         "batch_size"),
        (parse_train_config, {"task": QUADRATIC, "seed": None}, "seed"),
        (parse_train_config, {"task": QUADRATIC, "full_batch": None},
         "full_batch"),
        (parse_train_config, {"task": QUADRATIC, "optimizer": {"eta0": None}},
         "optimizer.eta0"),
        (parse_train_config, {"task": QUADRATIC, "optimizer": {"lambda": None}},
         "optimizer.lambda"),
        (parse_train_config, {"task": QUADRATIC, "optimizer": {"kind": None}},
         "optimizer.kind"),
        (parse_train_config, {"task": QUADRATIC, "schedule": {"kind": None}},
         "schedule.kind"),
        (parse_train_config, {"task": {"kind": None}}, "task.kind"),
        (parse_train_config, {"task": {"kind": "quadratic", "n_rows": None}},
         "task.n_rows"),
        (parse_train_config, {"task": {"kind": "mlp", "hidden": None}},
         "task.hidden"),
        (parse_sweep_config, {"task": QUADRATIC, "sweep": {"batch_grid": None}},
         "sweep.batch_grid"),
        (parse_ablate_config, {"task": QUADRATIC, "ablate": {"axes": None}},
         "ablate.axes"),
        (parse_telescope_config, {"task": MLP, "telescope": dict(
            TELESCOPE, start_width=None)}, "telescope.start_width"),
        (parse_telescope_config, {"task": MLP, "telescope": dict(
            TELESCOPE, grid={"eta_center": None})}, "telescope.grid.eta_center"),
        (parse_telescope_config, {"task": MLP, "telescope": dict(
            TELESCOPE, grid={"points": None})}, "telescope.grid.points"),
    ])
    def test_null_exits_naming_key(self, parse, doc, key_path):
        with pytest.raises(ConfigError, match="must not be null") as exc:
            parse(doc)
        assert exc.value.key_path == key_path

    def test_null_target_loss_is_no_target(self):
        cfg, _ = parse_train_config({"task": QUADRATIC, "target_loss": None})
        assert cfg.target_loss is None


class TestSchema:
    """The accepted keys, section by section, written out: a key that
    appears here without being accepted, or is accepted without appearing
    here, fails."""

    QUADRATIC_TASK = {
        "kind": "quadratic", "n_rows": 8, "in_dim": 4, "out_dim": 2,
        "lambda_reg": 0.5, "noise_sigma": 0.1, "reg_in_gradient": False,
        "target_noise": 0.2, "design_scale": 2.0, "init_scale": 1.0}
    MLP_TASK = {
        "kind": "mlp", "n_samples": 64, "input_dim": 4, "hidden": [8],
        "classes": 3, "activation": "relu", "val_fraction": 0.2,
        "cluster_spread": 2.0, "sample_noise": 0.5, "noise_sigma": 0.1}
    OPTIMIZER = {
        "kind": "adamw", "eta0": 0.01, "lambda": 0.2, "beta": 0.8,
        "k_iters": 3, "coeffs": "taylor", "rms_factor": 0.3,
        "rms_matching": False, "rms_dim": "max", "exact_msign": True,
        "momentum_only": True, "dynamic_rms": True, "beta1": 0.8,
        "beta2": 0.99, "eps": 1e-6}
    SCHEDULE = {"kind": "inverse-sqrt", "warmup_fraction": 0.02,
                "eta_min_fraction": 0.01}
    TOP_LEVEL = {
        "batch_size": 4, "total_steps": 20, "seed": 1, "precision": "f32",
        "target_loss": 1.0, "stop_rule": "tokens-to-target", "eval_every": 5,
        "full_batch": True, "smooth_window": 2, "spike_ratio": 2.0,
        "clip_norm": 2.0, "record_wall_time": True, "run_id": "r",
        "out_dir": "o"}
    COMMANDS = {
        "sweep": {"batch_grid": [4, 8]},
        "ablate": {"axes": ["full"]},
        "telescope": {"start_width": 8, "end_width": 16, "grid": {
            "eta_center": 0.1, "lambda_center": 0.2, "eta_extent": 0.25,
            "lambda_extent": 0.25, "points": 2}},
    }
    PARSERS = {"train": parse_train_config, "sweep": parse_sweep_config,
               "ablate": parse_ablate_config,
               "telescope": parse_telescope_config}

    @staticmethod
    def paths(section, prefix=""):
        """Every key of a nested document as a dotted path."""
        for key, value in section.items():
            yield prefix + key
            if isinstance(value, dict):
                yield from TestSchema.paths(value, f"{prefix}{key}.")

    @pytest.mark.parametrize("command", ["train", "sweep", "ablate", "telescope"])
    @pytest.mark.parametrize("task", ["quadratic", "mlp"])
    def test_every_key_and_nothing_else(self, monkeypatch, command, task):
        doc = {"task": self.QUADRATIC_TASK if task == "quadratic" else self.MLP_TASK,
               "optimizer": self.OPTIMIZER, "schedule": self.SCHEDULE,
               **self.TOP_LEVEL}
        if command != "train":
            doc[command] = self.COMMANDS[command]
        # every key a parse asks its sections about, present or not
        asked = set()
        for name in ("take", "section"):
            def ask(sec, key, *args, _method=getattr(StrictSection, name), **kw):
                asked.add(sec._child_path(key))
                return _method(sec, key, *args, **kw)
            monkeypatch.setattr(StrictSection, name, ask)
        self.PARSERS[command](json.loads(json.dumps(doc)))
        assert asked == set(self.paths(doc))

class TestParseSweep:
    def test_batch_grid(self):
        doc = {"task": {"kind": "quadratic"}, "target_loss": 2.0,
               "sweep": {"batch_grid": [32, 128, 512]}}
        cfg, grid, out_dir = parse_sweep_config(doc)
        assert grid == [32, 128, 512]
        assert cfg.target_loss == 2.0

    def test_sweep_section_required(self):
        with pytest.raises(ConfigError) as exc:
            parse_sweep_config({"task": {"kind": "quadratic"}})
        assert exc.value.key_path == "sweep"

    def test_grid_entries_must_be_ints(self):
        # a repeated batch size would train its cells twice and write each
        # of their files twice; an empty grid has no cell, a size below 1
        # no batch
        for grid in ([32, 64.0], [32, 128, 32], [], [0, 32], [-4]):
            doc = {"task": {"kind": "quadratic"}, "sweep": {"batch_grid": grid}}
            with pytest.raises(ConfigError) as exc:
                parse_sweep_config(doc)
            assert exc.value.key_path == "sweep.batch_grid"


class TestParseAblate:
    def test_axes_optional(self):
        doc = {"task": {"kind": "quadratic"}, "target_loss": 2.0}
        cfg, axes, _ = parse_ablate_config(doc)
        assert axes is None

    def test_axes_subset(self):
        doc = {"task": {"kind": "quadratic"}, "target_loss": 2.0,
               "ablate": {"axes": ["full", "no-weight-decay"]}}
        _, axes, _ = parse_ablate_config(doc)
        assert axes == ["full", "no-weight-decay"]

    def test_unknown_axis_rejected(self):
        for axes in (["full", "fp16"], ["full", "full"], []):
            doc = {"task": {"kind": "quadratic"}, "ablate": {"axes": axes}}
            with pytest.raises(ConfigError) as exc:
                parse_ablate_config(doc)
            assert exc.value.key_path == "ablate.axes"


class TestParseTelescope:
    def test_defaults_inherit_optimizer_centers(self):
        doc = {"task": {"kind": "mlp"},
               "optimizer": {"eta0": 0.07, "lambda": 0.3},
               "telescope": {"start_width": 16, "end_width": 64, "grid": {}}}
        cfg, start, end, grid, _ = parse_telescope_config(doc)
        assert (start, end) == (16, 64)
        assert grid.eta_center == 0.07
        assert grid.lambda_center == 0.3
        assert grid.points == 3
        assert grid.eta_extent == 0.5

    def test_explicit_grid(self):
        doc = {"task": {"kind": "mlp"},
               "telescope": {"start_width": 8, "end_width": 16,
                             "grid": {"eta_center": 0.01,
                                      "lambda_center": 0.05,
                                      "points": 5, "eta_extent": 1.0}}}
        _, _, _, grid, _ = parse_telescope_config(doc)
        assert grid.points == 5
        assert grid.eta_extent == 1.0

    def test_grid_section_required(self):
        doc = {"task": {"kind": "mlp"},
               "telescope": {"start_width": 8, "end_width": 16}}
        with pytest.raises(ConfigError) as exc:
            parse_telescope_config(doc)
        assert exc.value.key_path == "telescope.grid"


class TestLoadConfig:
    def test_reads_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": {"kind": "quadratic"}}))
        assert load_config(str(path)) == {"task": {"kind": "quadratic"}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))
