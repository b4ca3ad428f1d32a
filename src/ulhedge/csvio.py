"""CSV artifacts and the run manifest.

Every emitted file starts with a single comment line carrying the config
hash and column units, so artifacts are self-identifying and diffable; the
manifest lists every file a run produced together with timings and peak
memory.  The matrix CSVs (``paths_*``, ``filter_*``, the per-path
``hedge_*`` series and ``closed_form_theta_star.csv``) hold the shortest
round-trip text of each double, so ``read_matrix`` returns exactly the
doubles that were written; ``hedge_summary.csv`` writes its floats the same
way.  The PDE surface files (``export_pde_solution``, the t = 0 slice of a
solution) keep 12 significant digits of each value and 10 of each grid
coordinate, so they do not round-trip exactly; that function is the one
place their format is written.

``write_rows`` is the one formatter of matrix rows (``repr`` of each float,
formed by the numpy kernel in ``floatfmt``).
The eight per-path hedge series (``HEDGE_SERIES``) exist only inside the
backtest's chunks, which use it to write their rows to part files;
``assemble_hedge_series`` writes each series' header and appends the parts in
world order, and these files are then the only copy of the series.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import floatfmt
from .config_io import config_hash
from .errors import ConfigError
from .models import ScenarioConfig

if TYPE_CHECKING:   # annotations only: hedging imports this module
    from .filtering import ProjectionSeries
    from .hedging import HedgeReport, HedgeSeries
    from .pde import PdeSolution
    from .simulate import PathBundle

__all__ = ["HEDGE_SERIES", "write_rows", "write_matrix", "read_matrix", "export_bundle",
           "export_projection_series", "export_pde_solution", "write_hedge_parts",
           "assemble_hedge_series", "export_hedge_report", "RunManifest"]

# the exported fields of hedging.HedgeSeries, in file order; the first three are
# interval-left (one column per step), the rest have one column per grid time
HEDGE_SERIES = ("theta_star", "theta_full", "pfs_mu", "V", "C", "C_full", "N", "S_stopped")
_INTERVAL_LEFT = frozenset(HEDGE_SERIES[:3])
# values formatted per call of floatfmt.format_rows: 4-8k were fastest on a
# backtest chunk's series (its temporaries, ~0.15 kB a value, stay in cache;
# fewer values pay more per-call overhead), 1k and 32k were ~1.5x slower
_BLOCK_VALUES = 8192


def _header(columns, cfg_hash: str, meta: str = "") -> str:
    return (f"# ulhedge config={cfg_hash} {meta}".rstrip() + "\n"
            + ",".join(str(c) for c in columns) + "\n")


def write_rows(fh, matrix: np.ndarray) -> None:
    """Write a 2-D array as CSV rows, each value the ``repr`` of its float.

    The text is ``",".join(map(repr, row)) + "\\n"`` per row, byte for
    byte, formed by ``floatfmt.format_rows`` a block of rows at a time: a
    numpy kernel that derives the shortest round-trip digits of most values
    with certified error bounds and hands every value it cannot certify
    (non-finite, subnormal, |x| < 1e-280 or >= 1e16, a power of two, or a
    rounding decision within the kernel's error bound) to ``repr``.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows = max(1, _BLOCK_VALUES // max(1, matrix.shape[1]))
    for start in range(0, matrix.shape[0], rows):
        fh.write(floatfmt.format_rows(matrix[start:start + rows]))


def write_matrix(path, matrix: np.ndarray, columns, cfg_hash: str, meta: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(columns, cfg_hash, meta))
        write_rows(fh, np.atleast_2d(matrix))


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
                             out_dir) -> list[str]:
    h = config_hash(config)
    cols = _time_columns(series.t_grid)
    written = []
    for name in series.estimates:
        for tag, table in (("", series.estimates), ("_se", series.std_errors)):
            path = os.path.join(out_dir, f"filter_{name}{tag}.csv")
            write_matrix(path, table[name], cols, h, meta=f"quantity={name}{tag}")
            written.append(path)
    return written


def export_pde_solution(sol: PdeSolution, config: ScenarioConfig, out_dir,
                        name: str) -> str:
    """Write the t = 0 slice of a solution as a CSV grid: one row per s (2D,
    one column per x) or per grid point (1D)."""
    h = config_hash(config)
    t0, values = sol.t_grid[0], sol.values[0]
    if sol.kind == "sx":
        header = "s\\x," + ",".join(f"{x:.10g}" for x in sol.x_grid)
        rows = [f"{s:.10g}," + ",".join(f"{v:.12g}" for v in row)
                for s, row in zip(sol.s_grid, values)]
    else:
        header = f"{sol.kind},value"
        grid = sol.s_grid if sol.kind == "s" else sol.x_grid
        rows = [f"{q:.10g},{v:.12g}" for q, v in zip(grid, values)]
    path = os.path.join(out_dir, f"{name}_t{t0:.6g}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ulhedge config={h} solution={name} kind={sol.kind} t={t0:.10g}\n")
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")
    return path


def _part_path(part_dir, name: str, first_world: int) -> str:
    return os.path.join(part_dir, f"{name}.{first_world}")


def write_hedge_parts(part_dir, first_world: int, series: HedgeSeries) -> None:
    """Write one chunk's rows of each hedge series to its own part file."""
    for name in HEDGE_SERIES:
        with open(_part_path(part_dir, name, first_world), "w", encoding="utf-8") as fh:
            write_rows(fh, getattr(series, name))


def assemble_hedge_series(config: ScenarioConfig, part_dir, first_worlds,
                          out_dir) -> list[str]:
    """Write each hedge series' header, then append its parts in the given order."""
    h = config_hash(config)
    cols = _time_columns(config.t_grid())
    written = []
    for name in HEDGE_SERIES:
        path = os.path.join(out_dir, f"hedge_{name}.csv")
        header = _header(cols[:-1] if name in _INTERVAL_LEFT else cols, h,
                         meta=f"quantity={name}")
        with open(path, "wb") as out:
            out.write(header.encode("utf-8"))
            for first in first_worlds:
                with open(_part_path(part_dir, name, first), "rb") as part:
                    shutil.copyfileobj(part, out)
        written.append(path)
    return written


def export_hedge_report(report: HedgeReport, out_dir) -> list[str]:
    """The summary file with the test statistics, plus the per-path series.

    The series files are the ones ``backtest(..., out_dir=...)`` assembled;
    the returned list names them and the summary.
    """
    if not report.series_files:
        raise ValueError("the per-path series are written by backtest(..., out_dir=...)")
    h = config_hash(report.config)
    written = list(report.series_files)

    summary = report.summary
    path = os.path.join(out_dir, "hedge_summary.csv")
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


def _peak_rss_mb() -> dict:
    """Peak resident set so far of this process and of its reaped children
    (the pool workers), in MB; Linux reports ``ru_maxrss`` in KiB."""
    return {who: round(resource.getrusage(which).ru_maxrss / 1024.0, 1)
            for who, which in (("process", resource.RUSAGE_SELF),
                               ("workers", resource.RUSAGE_CHILDREN))}


@dataclass
class RunManifest:
    """Inventory of one CLI run: config identity, outputs, wall-clock timings,
    the peak resident set at the end of each timed stage (``peak_rss_mb``,
    for the process and for its reaped pool workers), and named blocks of
    numerical-health counters (``blocks[name]`` is written as the top-level
    object ``name``)."""

    config_hash: str
    seed: int
    command: str
    grids: dict
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    peak_rss_mb: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)
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
        self.peak_rss_mb[label] = _peak_rss_mb()

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
            "peak_rss_mb": self.peak_rss_mb,
            **self.blocks,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
