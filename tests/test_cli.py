import dataclasses
import hashlib
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
from ulhedge.pde import solve_g, solve_gtilde, solve_phi, stretched_s_grid
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
        assert cfg.coefficients.factor.square_root

    def test_unknown_key_rejected(self):
        with pytest.raises(uh.ConfigError, match=re.escape("key 'bogus' in [run] is not read")):
            parse_config(SMALL_CONFIG.replace("seed = 77\n", "seed = 77\nbogus = 1\n"))
        with pytest.raises(uh.ConfigError, match=re.escape("unknown config section [prices]")):
            parse_config(SMALL_CONFIG.replace("[price]", "[prices]"))

    def test_missing_section_rejected(self):
        factor = "[factor]\nfamily = cir\nkappa = 1.0\nxbar = 0.05\na = 0.2\n"
        text = SMALL_CONFIG.replace(factor, "")
        assert "[factor]" not in text
        with pytest.raises(uh.ConfigError, match=re.escape("missing config section [factor]")):
            parse_config(text)

    @pytest.mark.parametrize("family, params", [
        ("constant", (0.02, 0.0)), ("linear", (0.0, 1.0)), ("affine", (0.02, 1.0))])
    def test_gamma_families_parse_to_one_affine_intensity(self, family, params):
        # gamma1 is read by affine only, gamma0 by constant and affine
        text = SMALL_CONFIG.replace("family = affine", f"family = {family}")
        if family != "affine":
            text = text.replace("gamma1 = 1.0\n", "")
        if family == "linear":
            text = text.replace("gamma0 = 0.02\n", "")
        assert parse_config(text).coefficients.gamma == uh.AffineGamma(*params)

    @pytest.mark.parametrize("family, factor", [
        ("frozen", uh.AffineFactor()),
        ("ou", uh.AffineFactor(1.0, 0.05, 0.2)),
        ("cir", uh.AffineFactor(1.0, 0.05, 0.2, square_root=True))])
    def test_factor_families_parse_to_one_affine_factor(self, family, factor):
        # frozen reads none of kappa, xbar and a
        text = SMALL_CONFIG.replace("family = cir", f"family = {family}")
        if family == "frozen":
            text = text.replace("kappa = 1.0\nxbar = 0.05\na = 0.2\n", "")
        assert parse_config(text).coefficients.factor == factor

    def test_unknown_factor_family_rejected(self):
        with pytest.raises(uh.ConfigError, match="unknown factor family 'heston'"):
            parse_config(SMALL_CONFIG.replace("family = cir", "family = heston"))

    def test_unknown_gamma_family_rejected(self):
        with pytest.raises(uh.ConfigError, match="unknown gamma family 'quadratic'"):
            parse_config(SMALL_CONFIG.replace("family = affine", "family = quadratic"))

    @pytest.mark.parametrize("prefix", ["", "recovery_"])
    @pytest.mark.parametrize("kind, key, payoff", [
        ("constant", "level", uh.Payoff(level=0.5)),
        ("linear", "slope", uh.Payoff(slope=0.5)),
        ("call", "strike", uh.Payoff(strike=0.5)),
        ("put", "strike", uh.Payoff(level=0.5, slope=-1.0, strike=0.5))],
        ids=["constant-level-ConstantPayoff", "linear-slope-LinearPayoff",
             "call-strike-CallPayoff", "put-strike-PutPayoff"])
    def test_payoff_missing_key_named(self, kind, key, payoff, prefix):
        leg = "death_recovery" if prefix else "survival_payoff"
        text = re.sub(r"\[contract\][^\[]*",
                      f"[contract]\nmaturity = 1.0\n{leg} = {kind}\n\n", SMALL_CONFIG)
        with pytest.raises(uh.ConfigError,
                           match=re.escape(f"{kind} payoff needs '{prefix}{key}'")):
            parse_config(text)
        contract = parse_config(text.replace(f"{leg} = {kind}\n",
                                             f"{leg} = {kind}\n{prefix}{key} = 0.5\n")).contract
        assert (contract.death_recovery if prefix else contract.survival_payoff) == payoff

    @pytest.mark.parametrize("spelling, textbook", [
        ("zero", lambda s: np.zeros_like(s)),
        ("constant\nlevel = 0.7", lambda s: np.full_like(s, 0.7)),
        ("linear\nslope = 0.3", lambda s: 0.3 * s),
        ("call\nstrike = 1.3", lambda s: np.maximum(s - 1.3, 0.0)),
        ("put\nstrike = 1.3", lambda s: np.maximum(1.3 - s, 0.0))],
        ids=["zero", "constant", "linear", "call", "put"])
    def test_payoff_spelling_has_the_bits_of_its_formula(self, spelling, textbook):
        text = SMALL_CONFIG.replace("survival_payoff = call\nstrike = 1.0",
                                    f"survival_payoff = {spelling}")
        payoff = parse_config(text).contract.survival_payoff
        draws = np.random.default_rng(27).uniform(0.0, 6.0, 10_000)
        s = np.concatenate([[0.0, 1.3], stretched_s_grid(150, 6.0, 1.3),
                            np.linspace(0.0, 6.0, 151), draws])
        assert np.array_equal(payoff(s), textbook(s))

    @pytest.mark.parametrize("old, new, key, section", [
        ("family = cir", "family = frozen", "kappa", "factor"),
        ("strike = 1.0", "strike = 1.0\nlevel = 7.0", "level", "contract"),
        ("death_recovery = linear", "death_recovery = zero", "recovery_slope", "contract"),
        ("seed = 77", "seed = 77\nlabel = smoke", "label", "run")],
        ids=["frozen-kappa", "call-level", "zero-recovery_slope", "label"])
    def test_key_the_spelling_does_not_read_is_refused(self, tmp_path, capsys,
                                                       old, new, key, section):
        path = tmp_path / "unread.ini"
        path.write_text(SMALL_CONFIG.replace(old, new))
        code = main(["hedge", str(path), "--paths", "2", "--particles", "2",
                     "--out-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert f"key '{key}' in [{section}] is not read" in capsys.readouterr().err

    def test_hash_reads_the_scenario_not_its_spelling(self):
        # a call and a put at one strike are different numbers
        call = parse_config(SMALL_CONFIG)
        put = parse_config(SMALL_CONFIG.replace("payoff = call", "payoff = put"))
        assert config_hash(call) != config_hash(put)
        # zero, constant 0 and linear 0 build the same Payoff
        recovery = "death_recovery = linear\nrecovery_slope = 0.2"
        zeros = [parse_config(SMALL_CONFIG.replace(recovery, spelling)) for spelling in (
            "death_recovery = zero", "death_recovery = constant\nrecovery_level = 0",
            "death_recovery = linear\nrecovery_slope = 0")]
        assert len({config_hash(cfg) for cfg in zeros}) == 1
        # frozen and ou with kappa = xbar = a = 0 build the same AffineFactor
        cir = "family = cir\nkappa = 1.0\nxbar = 0.05\na = 0.2"
        frozen = parse_config(SMALL_CONFIG.replace(cir, "family = frozen"))
        ou = parse_config(SMALL_CONFIG.replace(cir, "family = ou\nkappa = 0\nxbar = 0\na = 0"))
        assert config_hash(frozen) == config_hash(ou)
        # a refactor that moves the hash of an unchanged scenario must do so on purpose
        assert config_hash(call) == "dac9361465d8"


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
        cfg = dataclasses.replace(parse_config(SMALL_CONFIG), n_paths=3)
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
        assert manifest["config"]["seed"] == cfg.seed

    def test_manifest_config_hashes_to_its_config_hash(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", config_file, "--paths", "3", "--seed", "5",
                     "--out-dir", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        record = manifest["config"]
        assert (record["n_paths"], record["seed"]) == (3, 5)
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest[:12] == manifest["config_hash"]

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

    def test_hedge_one_path_is_config_error(self, config_file, tmp_path, capsys):
        # every statistic of the summary is taken across at least two worlds
        code = main(["hedge", config_file, "--paths", "1",
                     "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2
        assert "n_paths >= 2" in capsys.readouterr().err
        assert not (tmp_path / "hedge_summary.csv").exists()
        assert main(["simulate", config_file, "--paths", "1",
                     "--out-dir", str(tmp_path), "--quiet"]) == 0

    def test_filter_one_particle_is_config_error(self, config_file, tmp_path, capsys):
        # the filter's standard errors are taken across at least two particles
        out = tmp_path / "out"
        code = main(["filter", config_file, "--paths", "2", "--particles", "1",
                     "--out-dir", str(out), "--quiet"])
        assert code == 2
        assert "n_particles >= 2" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_hedge_nonpositive_workers_is_config_error(self, config_file, tmp_path, capsys,
                                                       workers):
        code = main(["hedge", config_file, "--workers", workers,
                     "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "hedge_summary.csv").exists()

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
        # the smallest survival mass any world's cloud reached, next to its
        # floor, and the widest window of x nodes any world needed, next to
        # the number of x nodes
        health = manifest["filter"]
        assert set(health) == {"min_survival_mass", "survival_floor",
                               "max_window_nodes", "x_nodes"}
        assert health["survival_floor"] == load_config(config_file).survival_floor
        assert health["survival_floor"] <= health["min_survival_mass"] < 1.0
        assert health["x_nodes"] == load_config(config_file).pde_grid.n_x + 1
        assert isinstance(health["max_window_nodes"], int)
        assert 2 <= health["max_window_nodes"] <= health["x_nodes"]

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
                           .replace("family = affine\ngamma0 = 0.02\ngamma1 = 1.0",
                                    "family = linear") \
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
