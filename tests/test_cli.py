import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import ulhedge as uh
from ulhedge.cli import main
from ulhedge.config_io import config_hash, load_config, parse_config
from ulhedge.csvio import (
    export_bundle,
    export_hedge_report,
    export_pde_solution,
    export_projection_series,
    read_matrix,
)
from ulhedge.filtering import run_filter
from ulhedge.hedging import backtest, hedge_paths
from ulhedge.pde import solve_g, solve_gtilde, solve_phi
from ulhedge.simulate import simulate_paths

SMALL_CONFIG = """
[run]
seed = 77
n_steps = 40
n_paths = 60
n_particles = 50
s0 = 1.0
x0 = 0.05
c_bound = 5.0

[price]
sigma = 0.25
m0 = 0.02
m1 = 0.8
rho = 0.4

[factor]
family = cir
kappa = 1.0
xbar = 0.05
a = 0.2

[gamma]
family = affine
gamma0 = 0.02
gamma1 = 1.0

[contract]
maturity = 1.0
survival_payoff = call
strike = 1.0
death_recovery = linear
recovery_slope = 0.2

[pde_grid]
n_s = 150
n_x = 40
s_max = 6.0
x_min = -0.08
x_max = 0.5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfigIO:
    def test_parse_and_validate(self, config_file):
        cfg = load_config(config_file)
        assert cfg.seed == 77
        assert uh.validate(cfg).ok
        assert isinstance(cfg.coefficients.factor, uh.CIRFactor)

    def test_unknown_key_rejected(self):
        with pytest.raises(uh.ConfigError):
            parse_config(SMALL_CONFIG + "\n[run]\nbogus = 1\n")
        with pytest.raises(uh.ConfigError):
            parse_config(SMALL_CONFIG.replace("[price]", "[prices]"))

    def test_missing_section_rejected(self):
        text = SMALL_CONFIG.replace("[factor]", "[gamma]").replace("family = cir", "family = constant")
        with pytest.raises(uh.ConfigError):
            parse_config(text)


class TestArtifacts:
    def test_bundle_round_trip(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        bundle = simulate_paths(cfg, "P")
        files = export_bundle(bundle, tmp_path)
        for f in files:
            h, cols, data = read_matrix(f)
            assert h == config_hash(cfg)
        _, _, s_back = read_matrix(os.path.join(tmp_path, "paths_S.csv"))
        assert np.allclose(s_back, bundle.S, rtol=0, atol=0)

    def test_projection_series_round_trip(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG).with_updates(n_paths=3)
        bundle = simulate_paths(cfg, "P")
        series = run_filter(cfg, bundle.S, world_indices=bundle.path_indices)
        files = export_projection_series(series, cfg, tmp_path)
        _, _, hz = read_matrix(os.path.join(tmp_path, "filter_hazard.csv"))
        assert np.allclose(hz, series.estimates["hazard"], rtol=0, atol=0)
        assert any(f.endswith("_se.csv") for f in files)

    def test_hedge_report_round_trip(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        report = backtest(cfg, out_dir=tmp_path)
        files = export_hedge_report(report, tmp_path)
        _, _, theta = read_matrix(os.path.join(tmp_path, "hedge_theta_star.csv"))
        # the report keeps no series: hedge the same worlds again
        series = hedge_paths(cfg, simulate_paths(cfg, "P"), solve_g(cfg))
        assert np.allclose(theta, series.theta_star, rtol=0, atol=0)
        assert os.path.exists(os.path.join(tmp_path, "hedge_summary.csv"))
        assert len(files) == 9


def _loaded_by_import(module: str, names) -> str:
    """Which of ``names`` a fresh interpreter has loaded after importing ``module``."""
    probe = (f"import sys, {module}; print(','.join(m for m in {tuple(names)!r}"
             " if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(uh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


class TestCli:
    def test_simulate_writes_manifest(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", config_file, "--out-dir", str(out), "--quiet"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).exists(), name
        cfg = load_config(config_file)
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == cfg.seed

    def test_solve_and_filter_and_closed_form(self, config_file, tmp_path):
        assert main(["solve", config_file, "--out-dir", str(tmp_path / "a"),
                     "--quiet"]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["pde"]["factor_nnz"] > 0
        assert 0.0 <= manifest["pde"]["max_principle_gap"] < 1e-6
        # solve keeps only t = 0 of each solution; its report and its files
        # equal those of the full surfaces
        cfg = load_config(config_file)
        full = solve_g(cfg)
        assert manifest["pde"] == full.health()
        for name, sol in (("g", full), ("gtilde", solve_gtilde(cfg)), ("phi", solve_phi(cfg))):
            reference = export_pde_solution(sol, cfg, str(tmp_path), name)
            with open(reference, "rb") as want, \
                    open(tmp_path / "a" / f"{name}_t0.csv", "rb") as got:
                assert got.read() == want.read()
        assert main(["filter", config_file, "--paths", "2",
                     "--out-dir", str(tmp_path / "b"), "--quiet"]) == 0
        # closed-form refuses the correlated scenario with exit code 2
        assert main(["closed-form", config_file,
                     "--out-dir", str(tmp_path / "c"), "--quiet"]) == 2

    def test_hedge_zero_paths_is_config_error(self, config_file, tmp_path, capsys):
        code = main(["hedge", config_file, "--paths", "0",
                     "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2
        assert "n_paths must be >= 1" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run\nseed")
        assert main(["simulate", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # PDE domain far too small in s, then in x: paths or particles leave
        # it and the hedge run aborts, naming the step and the world
        for old, new in (("s_max = 6.0", "s_max = 1.2"), ("x_max = 0.5", "x_max = 0.051")):
            path = tmp_path / "tight.ini"
            path.write_text(SMALL_CONFIG.replace(old, new))
            code = main(["hedge", str(path), "--out-dir", str(tmp_path), "--quiet"])
            assert code == 3
            err = capsys.readouterr().err
            assert "hedge" in err
            assert re.search(r"step k=\d+, path \d+: [sx]-coordinate", err), err
            # a failed backtest leaves no part files in the output directory
            assert os.listdir(tmp_path) == ["tight.ini"]

    def test_worker_count_leaves_outputs_identical(self, config_file, tmp_path):
        outs = []
        for tag, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / tag
            assert main(["hedge", config_file, "--out-dir", str(out),
                         "--workers", workers, "--quiet"]) == 0
            outs.append(out)
        assert sorted(os.listdir(outs[0])) == sorted(os.listdir(outs[1]))
        for name in sorted(os.listdir(outs[0])):
            if name == "manifest.json":
                continue
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_manifest_records_peak_memory_per_stage(self, config_file, tmp_path):
        out = tmp_path / "h"
        assert main(["hedge", config_file, "--out-dir", str(out),
                     "--workers", "2", "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        peaks = manifest["peak_rss_mb"]
        assert set(peaks) == set(manifest["timings"]) == {"backtest", "total"}
        # the parent, and the two pool workers it reaped after the backtest
        assert set(peaks["backtest"]) == {"process", "workers"}
        assert all(v > 0 for v in peaks["backtest"].values())

    def test_cli_import_leaves_verify_modules_unloaded(self):
        # only verify needs the acceptance suite and its scipy oracles
        assert _loaded_by_import("ulhedge.cli", (
            "ulhedge.acceptance", "ulhedge.oracles", "scipy.stats", "scipy.integrate")) == ""

    def test_acceptance_import_leaves_scipy_stats_unloaded(self):
        # the oracles' normal CDF is scipy.special.ndtr, and their affine
        # transforms are closed forms, not Riccati integrations
        assert _loaded_by_import("ulhedge.acceptance", ("scipy.stats", "scipy.integrate")) == ""

    def test_every_exported_name_exists(self):
        # a stale __all__ entry survives a deletion until someone star-imports
        for info in pkgutil.iter_modules(uh.__path__):
            module = importlib.import_module(f"ulhedge.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"ulhedge.{info.name}.{name}"

    def test_benchmark_tracer_finds_every_name_it_wraps(self, tmp_path):
        # perfbench/layers.py looks the package's names up with getattr: a
        # deleted or renamed one breaks its install, and every traced run
        root = os.path.join(os.path.dirname(__file__), "..")
        probe = ("import sys; sys.path[:0] = sys.argv[1:3]; import layers;"
                 " layers.install(layers.Tracer(sys.argv[3]))")
        done = subprocess.run([sys.executable, "-c", probe, os.path.join(root, "perfbench"),
                               os.path.join(root, "src"), str(tmp_path)],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_hedge_emits_summary(self, config_file, tmp_path):
        out = tmp_path / "h"
        assert main(["hedge", config_file, "--out-dir", str(out), "--quiet"]) == 0
        assert (out / "hedge_summary.csv").exists()
        # the same pde block as solve writes, for the g the worlds were hedged against
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["pde"]) == {"factor_nnz", "max_principle_gap"}
        assert manifest["pde"] == solve_g(load_config(config_file)).health()

    def test_summary_values_are_plain_floats(self, config_file, tmp_path):
        out = tmp_path / "h"
        assert main(["hedge", config_file, "--out-dir", str(out), "--quiet"]) == 0
        lines = (out / "hedge_summary.csv").read_text().splitlines()[2:]
        values = [line.split(",", 1)[1] for line in lines
                  if not line.startswith("test_")]
        assert len(values) == 8 * 9 + 10 + 2
        for value in values:
            float(value)

    def test_byte_identical_reruns(self, config_file, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert main(["simulate", config_file, "--out-dir", str(out),
                         "--quiet"]) == 0
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            if name == "manifest.json":  # carries wall-clock timings
                continue
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, name

    def test_closed_form_on_uncorrelated_config(self, tmp_path):
        text = SMALL_CONFIG.replace("rho = 0.4", "rho = 0.0")
        path = tmp_path / "u.ini"
        path.write_text(text)
        out = tmp_path / "cf"
        assert main(["closed-form", str(path), "--out-dir", str(out),
                     "--quiet"]) == 0
        assert (out / "closed_form_theta_star.csv").exists()

    def test_closed_form_refuses_a_call_death_benefit(self, tmp_path, capsys):
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "uncorrelated.ini")
        with open(shipped, encoding="utf-8") as fh:
            text = fh.read()
        linear = "death_recovery = linear\nrecovery_slope = 0.2"
        assert linear in text
        path = tmp_path / "call-benefit.ini"
        path.write_text(text.replace(linear, "death_recovery = call\nrecovery_strike = 2.5"))
        assert main(["closed-form", str(path), "--paths", "2",
                     "--out-dir", str(tmp_path / "cf"), "--quiet"]) == 2
        assert "death benefit" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_wiring_and_exit_codes(self, config_file, tmp_path, monkeypatch):
        # the full criteria run in test_acceptance; here the command wiring is
        # exercised against stub criteria so both exit branches are covered
        from ulhedge import acceptance
        from ulhedge.acceptance import CriterionResult

        def passing(seed):
            return CriterionResult(1, "stub", True, 0.0, ["ok  stub"])

        def failing(seed):
            return CriterionResult(2, "stub-fail", False, 0.0, ["BAD stub"])

        monkeypatch.setattr(acceptance, "CRITERIA", [passing])
        out = tmp_path / "v1"
        assert main(["verify", config_file, "--out-dir", str(out), "--quiet"]) == 0
        summary = (out / "acceptance_summary.txt").read_text()
        assert "[PASS] criterion 1: stub" in summary

        monkeypatch.setattr(acceptance, "CRITERIA", [passing, failing])
        assert main(["verify", config_file, "--out-dir", str(tmp_path / "v2"),
                     "--quiet"]) == 1


class TestClosedFormVersusHedge:
    def test_pipelines_agree(self, tmp_path):
        text = SMALL_CONFIG.replace("rho = 0.4", "rho = 0.0") \
                           .replace("family = affine", "family = linear") \
                           .replace("n_particles = 50", "n_particles = 3000") \
                           .replace("n_paths = 60", "n_paths = 30") \
                           .replace("n_steps = 40", "n_steps = 80") \
                           .replace("n_s = 150", "n_s = 400")
        cfg = parse_config(text)
        bundle = simulate_paths(cfg, "P")
        from ulhedge.hedging import closed_form_theta, hedge_paths
        from ulhedge.pde import solve_g, solve_gtilde, solve_phi
        series = hedge_paths(cfg, bundle, solve_g(cfg))
        th_cf, _, _ = closed_form_theta(cfg, bundle)
        mask = bundle.alive_mask() > 0
        rel = np.abs(series.theta_star - th_cf)[mask] \
            / np.maximum(np.abs(th_cf[mask]), 0.05)
        assert rel.max() <= 0.02
