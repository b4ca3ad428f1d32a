"""Command-line orchestration.

Subcommands simulate / solve / filter / hedge / closed-form run the pipeline
stages on a configuration file and emit CSV artifacts plus a manifest;
verify runs the acceptance suite.  Exit codes: 0 success, 2 configuration
problems, 3 numerical failures (the failing stage is named on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import csvio
from .config_io import config_hash, load_config
from .errors import ConfigError, NumericalError
from .filtering import run_filter
from .hedging import backtest, closed_form_theta
from .models import validate
from .pde import solve_g, solve_gtilde, solve_phi
from .simulate import simulate_paths

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulhedge",
        description="Locally risk-minimizing hedging of unit-linked life insurance",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "simulate Monte Carlo worlds and export the path bundle"),
        ("solve", "solve the value PDEs and export the surfaces"),
        ("filter", "run the particle filter along simulated paths"),
        ("hedge", "run the full hedging backtest"),
        ("closed-form", "run the uncorrelated closed-form strategy pipeline"),
        ("verify", "run the acceptance suite (exit nonzero on failure)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario configuration file (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--particles", type=int, default=None, help="override n_particles")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--quiet", action="store_true")
        if name in ("hedge", "solve"):   # perfbench/run.py passes it to solve too
            p.add_argument("--workers", type=int, default=1,
                           help="processes running the backtest's chunks (solve ignores it)")
    return parser


def _load(args):
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    if args.particles is not None:
        overrides["n_particles"] = args.particles
    if overrides:
        config = config.with_updates(**overrides)
    report = validate(config)
    if not report.ok:
        raise ConfigError(str(report))
    return config


def _say(args, *message) -> None:
    if not args.quiet:
        print(*message)


def cmd_simulate(args) -> int:
    config = _load(args)
    manifest = csvio.RunManifest.start(config, "simulate")
    for measure in ("P", "P_hat"):
        bundle = simulate_paths(config, measure)
        manifest.mark(f"simulate_{measure}")
        prefix = "paths" if measure == "P" else "paths_hat"
        manifest.add_outputs(csvio.export_bundle(bundle, args.out_dir, prefix=prefix))
    path = manifest.write(args.out_dir)
    _say(args, f"wrote {len(manifest.outputs)} path files and {os.path.basename(path)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config = _load(args)
    manifest = csvio.RunManifest.start(config, "solve")
    g_sol = solve_g(config, surface=False)   # the t = 0 slice is all solve reports
    manifest.mark("solve_g")
    manifest.blocks["pde"] = g_sol.health()
    outputs = [csvio.export_pde_solution(g_sol, config, args.out_dir, "g")]
    gtilde = solve_gtilde(config, surface=False)
    outputs.append(csvio.export_pde_solution(gtilde, config, args.out_dir, "gtilde"))
    phi = solve_phi(config, surface=False)
    outputs.append(csvio.export_pde_solution(phi, config, args.out_dir, "phi"))
    manifest.mark("solve_1d")
    manifest.add_outputs(outputs)
    manifest.write(args.out_dir)
    value0 = float(g_sol.value(0, s=np.array([config.s0]), x=np.array([config.x0]))[0])
    _say(args, f"initial contract value g(0, s0, x0) = {value0:.6f}")
    return EXIT_OK


def cmd_filter(args) -> int:
    config = _load(args)
    manifest = csvio.RunManifest.start(config, "filter")
    bundle = simulate_paths(config, "P")
    manifest.mark("simulate")
    series = run_filter(config, bundle.S, world_indices=bundle.path_indices)
    manifest.mark("filter")
    manifest.add_outputs(csvio.export_projection_series(series, config, args.out_dir))
    manifest.write(args.out_dir)
    _say(args, f"filtered {bundle.n_paths} path(s) with {config.n_particles} particles")
    return EXIT_OK


def cmd_hedge(args) -> int:
    config = _load(args)
    manifest = csvio.RunManifest.start(config, "hedge")
    report = backtest(config, workers=args.workers, out_dir=args.out_dir)
    manifest.mark("backtest")
    manifest.blocks["pde"] = report.pde_health
    manifest.add_outputs(csvio.export_hedge_report(report, args.out_dir))
    manifest.write(args.out_dir)
    s = report.summary
    _say(args, f"price: P-side {s.price_lhs:.6f} +- {s.price_lhs_se:.6f} |"
               f" Phat-side {s.price_rhs:.6f} +- {s.price_rhs_se:.6f} |"
               f" PDE {s.zeta0_pde:.6f}")
    _say(args, f"max |z|: cost {np.abs(s.cost_z).max():.2f},"
               f" cov(dC,dS) {np.abs(s.cov_price_z).max():.2f},"
               f" cov(dC,dM) {np.abs(s.cov_mart_z).max():.2f},"
               f" price {abs(s.price_z):.2f}")
    return EXIT_OK


def cmd_closed_form(args) -> int:
    config = _load(args)
    manifest = csvio.RunManifest.start(config, "closed-form")
    bundle = simulate_paths(config, "P")
    theta, gtilde, phi = closed_form_theta(config, bundle)
    manifest.mark("closed_form")
    path = os.path.join(args.out_dir, "closed_form_theta_star.csv")
    csvio.write_matrix(path, theta, [f"t={t:.10g}" for t in bundle.t_grid[:-1]],
                       config_hash(config), meta="quantity=theta_star pipeline=closed-form")
    outputs = [path,
               csvio.export_pde_solution(gtilde, config, args.out_dir, "gtilde"),
               csvio.export_pde_solution(phi, config, args.out_dir, "phi")]
    manifest.add_outputs(outputs)
    manifest.write(args.out_dir)
    _say(args, f"closed-form strategy written for {bundle.n_paths} path(s)")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance   # it pulls in the oracles, which only verify needs

    config = _load(args)
    out = None if args.quiet else sys.stdout
    results = acceptance.run_all(seed=config.seed, out=out)
    passed = all(r.passed for r in results)
    summary_path = os.path.join(args.out_dir, "acceptance_summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(r.line() + "\n")
            for d in r.details:
                fh.write(f"    {d}\n")
    _say(args, f"acceptance summary written to {summary_path}")
    return EXIT_OK if passed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "filter": cmd_filter,
    "hedge": cmd_hedge,
    "closed-form": cmd_closed_form,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
