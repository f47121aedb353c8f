"""End-to-end command-line behavior via in-process main(argv), plus the
BLAS thread and malloc defaults that importing the CLI sets in a fresh
interpreter."""

import json
import math
import os
import subprocess
import sys

import pytest

import muonlab
from muonlab.cli import main
from muonlab.linalg import Rng
from muonlab.reports import read_run_csv
from muonlab.tasks import QuadraticSpec, QuadraticTask


TELESCOPE_AUDIT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "audit_telescope.py")


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def quad_target_loss(seed=42, factor=1.1):
    task = QuadraticTask.generate(QuadraticSpec(), Rng(seed).child("data"))
    return factor * task.optimum_loss()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def fresh_interpreter_output(code, unset=(), **env_vars):
    """stdout of ``python -c code`` with this checkout's package on the path,
    the variables named in ``unset`` removed and ``env_vars`` added."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(env_vars)
    src = os.path.dirname(os.path.dirname(os.path.abspath(muonlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestBlasThreadDefault:
    """Importing the CLI pins OpenBLAS to one thread unless the user chose."""

    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @classmethod
    def openblas_threads_after_import(cls, **thread_vars):
        code = ("import muonlab.cli, os; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        return fresh_interpreter_output(code, cls.THREAD_VARS, **thread_vars)

    def test_unset_defaults_to_one_thread(self):
        assert self.openblas_threads_after_import() == "1"

    def test_openblas_variable_wins(self):
        assert self.openblas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"

    def test_omp_variable_leaves_openblas_unset(self):
        assert self.openblas_threads_after_import(OMP_NUM_THREADS="2") == "None"


def test_import_loads_no_network_modules():
    # `xml.sax.saxutils` would bring in urllib.request, http.client,
    # email and ssl; `concurrent.futures` belongs to no code path, since
    # sweeps, ablations and telescopes train their groups in this process,
    # one after another
    code = ("import sys, muonlab.cli; print(sorted({'xml.sax', 'urllib.request', "
            "'http.client', 'email', 'ssl', 'concurrent.futures'} "
            "& set(sys.modules)))")
    assert fresh_interpreter_output(code) == "[]"


def _is_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _is_glibc(), reason="malloc tuning applies to glibc")
class TestHeapStaysMapped:
    """Importing the CLI keeps freed heap pages mapped unless the user chose:
    a repeated 1843x128 f64 temporary (the MLP eval's train activations) is
    then served from pages already faulted in."""

    MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                   "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")
    CODE = (
        "import resource, muonlab.cli, numpy as np\n"
        "h = np.full((1843, 128), 0.5)\n"
        "for _ in range(5):\n"
        "    1.0 - h * h\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    1.0 - h * h\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )

    @classmethod
    def minor_faults(cls, **malloc_vars):
        return int(fresh_interpreter_output(cls.CODE, cls.MALLOC_VARS,
                                            **malloc_vars))

    def test_default_reuses_mapped_pages(self):
        assert self.minor_faults() < 2_000

    def test_glibc_variable_wins(self):
        assert self.minor_faults(MALLOC_TRIM_THRESHOLD_="131072") > 20_000


class TestBenchTracingSeams:
    """The benchmark's tracer (`bench/tracing.py`) wraps private names of
    the package from outside it; a traced sweep and telescope must still
    summarize (`bench/metrics.summarize_trace`), which fails when no
    `harness.train` span is recorded, when `harness._clip_grad_arrays` is
    gone, or when its pre-clip norm stops being one float per run."""

    BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
    CODE = """
import json, sys, time
sys.path.insert(0, {bench!r})
import metrics, tracing
import muonlab.cli as cli
tracer = tracing.Tracer()
tracing.install(tracer, cli)
start = time.perf_counter()
codes = [cli.main(["sweep", "--config", {sweep!r}]),
         cli.main(["telescope", "--config", {telescope!r}])]
summary = metrics.summarize_trace(tracer.spans(), dict(tracer.notes),
                                  time.perf_counter() - start, 1)
print(json.dumps(dict(summary, codes=codes)))
"""

    def test_traced_sweep_and_telescope_summarize(self, tmp_path):
        sweep = write_json(tmp_path, "sweep.json", {
            "task": {"kind": "quadratic"},
            "optimizer": {"kind": "muon", "eta0": 0.02, "lambda": 0.1},
            "total_steps": 40, "seed": 42, "target_loss": quad_target_loss(),
            "stop_rule": "tokens-to-target", "sweep": {"batch_grid": [32, 128]},
            "out_dir": str(tmp_path / "sweep")})
        telescope = write_json(tmp_path, "telescope.json", {
            "task": {"kind": "mlp", "n_samples": 128, "input_dim": 8,
                     "hidden": [16], "classes": 4},
            "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
            "total_steps": 20, "seed": 42,
            "telescope": {"start_width": 16, "end_width": 32, "grid": {}},
            "out_dir": str(tmp_path / "telescope")})
        code = self.CODE.format(bench=self.BENCH, sweep=sweep, telescope=telescope)
        summary = json.loads(fresh_interpreter_output(code).splitlines()[-1])
        assert summary["codes"] == [0, 0]
        # one span per lockstep group: 4 sweep cells and 2 telescope stages
        assert summary["harness.train.calls"] == 6
        assert summary["msign.ns.calls"] > 0
        assert 0.0 < summary["optim.clip.fired_share"] <= 1.0


class TestMsignCheck:
    def test_standard_normal_band_violations_exit_1(self, capsys):
        code = main(["msign-check", "--shape", "64x64", "--k", "5",
                     "--trials", "20"])
        out = capsys.readouterr().out
        assert code == 1
        assert "20 of 20 trials violated" in out
        assert "worst trial:" in out

    def test_taylor_high_k_lands_inside_band(self, capsys):
        code = main(["msign-check", "--preset", "taylor", "--k", "30",
                     "--shape", "8x8", "--trials", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 50 trials inside" in out
        assert "max relative deviation" in out

    def test_zero_trials_usage_error(self, capsys):
        code = main(["msign-check", "--trials", "0"])
        assert code == 2
        assert "--trials" in capsys.readouterr().err

    def test_malformed_shape(self, capsys):
        code = main(["msign-check", "--shape", "64", "--trials", "1"])
        assert code == 2
        assert "shape" in capsys.readouterr().err

    def test_unknown_preset_rejected_by_parser(self, capsys):
        code = main(["msign-check", "--preset", "cubic"])
        assert code == 2

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2


class TestTrainCommand:
    def doc(self, out_dir, **extra):
        doc = {
            "task": {"kind": "quadratic"},
            "optimizer": {"kind": "muon", "eta0": 0.02, "lambda": 0.1},
            "batch_size": 32,
            "total_steps": 100,
            "eval_every": 10,
            "seed": 5,
            "out_dir": out_dir,
        }
        doc.update(extra)
        return doc

    def test_train_writes_reports(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_json(tmp_path, "train.json", self.doc(out))
        code = main(["train", "--config", cfg])
        stdout = capsys.readouterr().out
        assert code == 0
        assert os.path.exists(os.path.join(out, "run_quadratic-muon-b32-s5.csv"))
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert stdout.count("wrote ") == 2
        assert "terminated=completed" in stdout

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        cfg_a = write_json(tmp_path, "a.json", self.doc(out_a))
        cfg_b = write_json(tmp_path, "b.json", self.doc(out_b))
        assert main(["train", "--config", cfg_a]) == 0
        assert main(["train", "--config", cfg_b]) == 0
        name = "run_quadratic-muon-b32-s5.csv"
        assert read_bytes(os.path.join(out_a, name)) == \
            read_bytes(os.path.join(out_b, name))
        assert read_bytes(os.path.join(out_a, "summary.csv")) == \
            read_bytes(os.path.join(out_b, "summary.csv"))

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "train.json", self.doc(str(tmp_path / "x")))
        out = str(tmp_path / "override")
        code = main(["train", "--config", cfg, "--seed", "99", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "run_quadratic-muon-b32-s99.csv"))
        assert not os.path.exists(str(tmp_path / "x"))
        capsys.readouterr()

    def test_divergence_exit_3(self, tmp_path, capsys):
        out = str(tmp_path / "div")
        doc = self.doc(out, optimizer={"kind": "adamw", "eta0": 50.0},
                       total_steps=400, clip_norm=1e9)
        cfg = write_json(tmp_path, "div.json", doc)
        code = main(["train", "--config", cfg])
        assert code == 3
        assert "terminated=diverged" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_config_error_exit_2_names_key(self, tmp_path, capsys):
        doc = self.doc(str(tmp_path / "out"), epochs=3)
        cfg = write_json(tmp_path, "bad.json", doc)
        code = main(["train", "--config", cfg])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["muon", "adamw"])
    @pytest.mark.parametrize("key, value", [
        ("beta1", 1.0), ("beta2", 1.0), ("beta2", -0.5),
        ("beta1", 1.5), ("eps", 0.0), ("eps", -1e-8),
    ])
    def test_out_of_range_adamw_hyper_exit_2_names_key(self, tmp_path, capsys,
                                                        kind, key, value):
        # each of these once trained to the end or was reported as diverged
        out = tmp_path / "out"
        doc = self.doc(str(out), optimizer={"kind": kind, "eta0": 0.02, key: value})
        code = main(["train", "--config", write_json(tmp_path, "bad.json", doc)])
        assert code == 2
        assert f"optimizer.{key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, optimizer", [
        ("optimizer.eta0", {"kind": "muon", "eta0": 1e39}),
        ("optimizer.lambda", {"kind": "adamw", "eta0": 0.02, "lambda": 1e39}),
    ])
    def test_f32_overflowing_hyper_exit_2_names_key(self, tmp_path, capsys,
                                                    key, optimizer):
        # cast to f32 the value overflows to inf; f64 holds it, and the
        # same config trains (and diverges)
        out = tmp_path / "out"
        doc = self.doc(str(out), optimizer=optimizer, total_steps=20)
        cfg = write_json(tmp_path, "big.json", doc)
        assert main(["train", "--config", cfg, "--precision", "f32"]) == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not out.exists()
        assert main(["train", "--config", cfg]) == 3
        assert "terminated=diverged" in capsys.readouterr().out

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err


class TestSweepCommand:
    def doc(self, out_dir):
        return {
            "task": {"kind": "quadratic"},
            "optimizer": {"kind": "muon", "eta0": 0.02, "lambda": 0.1},
            "batch_size": 32,
            "total_steps": 400,
            "eval_every": 10,
            "seed": 42,
            "target_loss": quad_target_loss(),
            "stop_rule": "tokens-to-target",
            "sweep": {"batch_grid": [32, 128]},
            "out_dir": out_dir,
        }

    def test_sweep_emits_ratios(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        cfg = write_json(tmp_path, "sweep.json", self.doc(out))
        code = main(["sweep", "--config", cfg])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "ratio B=32:" in stdout
        assert "ratio B=128:" in stdout
        assert "ratio nondecreasing in B:" in stdout
        report = json.loads(read_bytes(os.path.join(out, "sweep_report.json")))
        assert set(report["ratios"]) == {"32", "128"}

    def test_f32_overflowing_tuning_eta_exit_2_names_key(self, tmp_path, capsys):
        # f32 holds eta0 1e38 but not the 4x tuning run's 4e38
        out = tmp_path / "sweep"
        doc = self.doc(str(out))
        doc.update(precision="f32", optimizer={"kind": "muon", "eta0": 1e38})
        cfg = write_json(tmp_path, "sweep.json", doc)
        assert main(["sweep", "--config", cfg]) == 2
        assert "optimizer.eta0: " in capsys.readouterr().err
        assert not out.exists()


class TestAblateCommand:
    def doc(self, out_dir, axes):
        spec = QuadraticSpec(n_rows=8, in_dim=16, out_dim=8, lambda_reg=0.1,
                             reg_in_gradient=False, target_noise=0.5,
                             init_scale=1.0)
        obj = QuadraticTask.generate(spec, Rng(42).child("data")).optimum_loss()
        return {
            "task": {
                "kind": "quadratic", "n_rows": 8, "in_dim": 16, "out_dim": 8,
                "lambda_reg": 0.1, "reg_in_gradient": False,
                "target_noise": 0.5, "init_scale": 1.0,
            },
            "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
            "batch_size": 32,
            "total_steps": 200,
            "eval_every": 10,
            "seed": 42,
            "target_loss": 2.0 * obj,
            "ablate": {"axes": axes},
            "out_dir": out_dir,
        }

    def test_subset_cells_run_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "ablate")
        cfg = write_json(tmp_path, "ablate.json",
                         self.doc(out, ["full", "batch-1x"]))
        code = main(["ablate", "--config", cfg])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "cell full:" in stdout
        assert "cell batch-1x:" in stdout
        full_rows = read_run_csv(os.path.join(out, "run_ablate-full.csv"))[3]
        unit_rows = read_run_csv(os.path.join(out, "run_ablate-batch-1x.csv"))[3]
        assert full_rows == unit_rows

    def test_unknown_axis_exit_2(self, tmp_path, capsys):
        doc = self.doc(str(tmp_path / "o"), ["full", "fp16"])
        cfg = write_json(tmp_path, "bad.json", doc)
        code = main(["ablate", "--config", cfg])
        assert code == 2
        assert "ablate.axes" in capsys.readouterr().err


class TestTelescopeCommand:
    def doc(self, out_dir):
        return {
            "task": {"kind": "mlp", "n_samples": 256, "input_dim": 8,
                     "hidden": [16], "classes": 4, "val_fraction": 0.125},
            "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
            "batch_size": 32,
            "total_steps": 60,
            "eval_every": 10,
            "seed": 42,
            "telescope": {"start_width": 16, "end_width": 32,
                          "grid": {"eta_center": 0.05, "lambda_center": 0.1,
                                   "points": 3}},
            "out_dir": out_dir,
        }

    def test_telescope_reports_stage_winners(self, tmp_path, capsys):
        out = str(tmp_path / "tele")
        cfg = write_json(tmp_path, "tele.json", self.doc(out))
        code = main(["telescope", "--config", cfg])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "width 16: best_eta=" in stdout
        assert "width 32: best_eta=" in stdout
        for name in ("telescope_stages.csv", "telescope_path.svg",
                     "telescope_report.json"):
            assert os.path.exists(os.path.join(out, name))
        report = json.loads(read_bytes(os.path.join(out,
                                                    "telescope_report.json")))
        assert [s["width"] for s in report["stages"]] == [16, 32]

    @pytest.mark.parametrize("key, grid", [
        # the first grid's top point: lambda 3.2e40
        ("telescope.grid.lambda_center", {"lambda_center": 1e40}),
        # the first grid tops out at 3.2e38, which f32 holds, but a second
        # stage recentered there reaches 5.6e38
        ("telescope.grid.eta_center", {"eta_center": 1e38}),
    ])
    def test_f32_overflowing_grid_exit_2_names_key(self, tmp_path, capsys,
                                                   key, grid):
        out = tmp_path / "tele"
        doc = self.doc(str(out))
        doc["telescope"]["grid"].update(grid)
        cfg = write_json(tmp_path, "tele.json", doc)
        assert main(["telescope", "--config", cfg, "--precision", "f32"]) == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not out.exists()
        assert main(["telescope", "--config", cfg]) == 0
        capsys.readouterr()
        assert out.exists()

    def test_diverging_grid_ranks_every_run_as_inf(self, tmp_path, capsys):
        # f32 etas from 158 to 1.6e5: every run blows past 10x the initial
        # loss, overflows to inf, or goes non-finite in a step before its
        # first eval row and keeps only its step-0 row. A diverged run
        # ranks as +inf whatever its last row logged, so no stage has a
        # finite winner, and the ties resolve to each grid's first cell.
        out = str(tmp_path / "tele")
        doc = self.doc(out)
        doc["precision"] = "f32"
        doc["telescope"]["grid"].update(eta_center=5000.0, eta_extent=1.5)
        cfg = write_json(tmp_path, "tele.json", doc)
        assert main(["telescope", "--config", cfg]) == 0
        capsys.readouterr()
        stages = read_bytes(os.path.join(out, "telescope_stages.csv"))
        assert b",inf," in stages
        report = json.loads(read_bytes(os.path.join(out,
                                                    "telescope_report.json")))
        for stage in report["stages"]:
            assert [v for row in stage["val_losses"] for v in row] == \
                [math.inf] * 9
            assert stage["best_val_loss"] == math.inf
            assert (stage["best_eta"], stage["best_lambda"]) == \
                (stage["etas"][0], stage["lambdas"][0])
        audit = subprocess.run([sys.executable, TELESCOPE_AUDIT, out],
                               capture_output=True, text=True, timeout=120)
        assert audit.returncode == 0, audit.stdout
