"""CSV artifacts and the run manifest.

Every emitted file starts with a single comment line carrying the config
hash and column units, so artifacts are self-identifying and diffable; the
manifest lists every file a run produced together with timings.  Readers
round-trip everything the writers emit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config_io import config_hash
from .errors import ConfigError
from .filtering import ProjectionSeries
from .hedging import HedgeReport
from .models import ScenarioConfig
from .pde import PdeSolution
from .simulate import PathBundle

__all__ = ["write_matrix", "read_matrix", "export_bundle", "export_projection_series",
           "export_pde_solution", "export_hedge_report", "RunManifest"]


def write_matrix(path, matrix: np.ndarray, columns, cfg_hash: str, meta: str = "") -> None:
    matrix = np.atleast_2d(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ulhedge config={cfg_hash} {meta}".rstrip() + "\n")
        fh.write(",".join(str(c) for c in columns) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix(path):
    """Read a matrix CSV back: (config_hash, column labels, array)."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().strip()
        if not head.startswith("# ulhedge config="):
            raise ConfigError(f"{path} does not look like a ulhedge artifact")
        cfg_hash = head.split("config=", 1)[1].split()[0]
        columns = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return cfg_hash, columns, data


def _time_columns(t_grid) -> list[str]:
    return [f"t={t:.10g}" for t in t_grid]


def export_bundle(bundle: PathBundle, out_dir, prefix: str = "paths") -> list[str]:
    """One file per quantity, one row per path, header = grid times."""
    h = config_hash(bundle.config)
    cols = _time_columns(bundle.t_grid)
    written = []
    for name in ("S", "X", "W", "B", "Y", "Gamma", "H"):
        path = os.path.join(out_dir, f"{prefix}_{name}.csv")
        write_matrix(path, getattr(bundle, name), cols, h,
                     meta=f"quantity={name} measure={bundle.measure}")
        written.append(path)
    path = os.path.join(out_dir, f"{prefix}_tau.csv")
    write_matrix(path, bundle.tau[:, None], ["tau"], h,
                 meta=f"quantity=tau measure={bundle.measure} inf=no-death")
    written.append(path)
    return written


def export_projection_series(series: ProjectionSeries, config: ScenarioConfig,
                             out_dir, prefix: str = "filter") -> list[str]:
    h = config_hash(config)
    cols = _time_columns(series.t_grid)
    written = []
    for name in series.names():
        for tag, table in (("", series.estimates), ("_se", series.std_errors)):
            path = os.path.join(out_dir, f"{prefix}_{name}{tag}.csv")
            write_matrix(path, table[name], cols, h, meta=f"quantity={name}{tag}")
            written.append(path)
    return written


def export_pde_solution(sol: PdeSolution, config: ScenarioConfig, out_dir,
                        name: str, k: int = 0) -> str:
    """Write the time-k slice of a solution as a CSV grid."""
    h = config_hash(config)
    header, rows = sol.to_csv_rows(k)
    path = os.path.join(out_dir, f"{name}_t{sol.t_grid[k]:.6g}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ulhedge config={h} solution={name} kind={sol.kind}"
                 f" t={sol.t_grid[k]:.10g}\n")
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")
    return path


def export_hedge_report(report: HedgeReport, out_dir, prefix: str = "hedge") -> list[str]:
    """Per-path series plus a summary file with the test statistics."""
    cfg = report.config
    h = config_hash(cfg)
    s = report.series
    cols = _time_columns(s.t_grid)
    cols_left = cols[:-1]
    written = []
    for name, arr, cc in (
        ("theta_star", s.theta_star, cols_left),
        ("theta_full", s.theta_full, cols_left),
        ("pfs_mu", s.pfs_mu, cols_left),
        ("V", s.V, cols),
        ("C", report.C, cols),
        ("C_full", report.C_full, cols),
        ("N", s.N, cols),
        ("S_stopped", report.S_stopped, cols),
    ):
        path = os.path.join(out_dir, f"{prefix}_{name}.csv")
        write_matrix(path, arr, cc, h, meta=f"quantity={name}")
        written.append(path)

    summary = report.summary
    path = os.path.join(out_dir, f"{prefix}_summary.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ulhedge config={h} quantity=backtest-summary\n")
        fh.write("statistic,value\n")
        for i, t in enumerate(summary.checkpoint_times):
            for name in ("cost_mean", "cost_se", "cost_z", "cov_price", "cov_price_se",
                         "cov_price_z", "cov_mart", "cov_mart_se", "cov_mart_z"):
                fh.write(f"{name}[t={t:.6g}],{float(getattr(summary, name)[i])!r}\n")
        for name in ("price_lhs", "price_lhs_se", "price_rhs", "price_rhs_se",
                     "zeta0_pde", "cost_var_partial", "cost_var_full",
                     "terminal_gap_max", "v_terminal_max", "price_z"):
            fh.write(f"{name},{float(getattr(summary, name))!r}\n")
        for name, z in (("cost_mean_zero", summary.cost_z),
                        ("orthogonal_to_price", summary.cov_price_z),
                        ("orthogonal_to_martingale", summary.cov_mart_z),
                        ("price_identity", np.array([summary.price_z]))):
            verdict = "pass" if np.all(np.abs(z) < 3.0) else "fail"
            fh.write(f"test_{name},{verdict}\n")
        fh.write(f"n_paths,{summary.n_paths}\n")
        fh.write(f"n_particles,{summary.n_particles}\n")
    written.append(path)
    return written


@dataclass
class RunManifest:
    """Inventory of one CLI run: config identity, outputs, wall-clock timings."""

    config_hash: str
    seed: int
    command: str
    grids: dict
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter)

    @classmethod
    def start(cls, config: ScenarioConfig, command: str) -> "RunManifest":
        g = config.pde_grid
        return cls(
            config_hash=config_hash(config),
            seed=config.seed,
            command=command,
            grids={"n_steps": config.n_steps, "n_paths": config.n_paths,
                   "n_particles": config.n_particles, "n_s": g.n_s, "n_x": g.n_x,
                   "s_max": g.s_max, "x_min": g.x_min, "x_max": g.x_max},
        )

    def mark(self, label: str) -> None:
        self.timings[label] = round(time.perf_counter() - self._t0, 6)

    def add_outputs(self, paths) -> None:
        self.outputs.extend(os.path.basename(p) for p in paths)

    def write(self, out_dir) -> str:
        self.mark("total")
        path = os.path.join(out_dir, "manifest.json")
        payload = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "command": self.command,
            "grids": self.grids,
            "outputs": self.outputs,
            "timings": self.timings,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
