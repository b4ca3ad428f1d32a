"""Per-layer tracing of ulhedge, applied from outside the package.

``install`` replaces names such as ``ulhedge.hedging.interp_rows`` and
``ParticleCloud.step`` with wrappers that time every call and count the work
it did; nothing under ``src/`` changes.  Spans stay in memory: each layer
label keeps its inclusive time, its self time (inclusive minus the traced
spans it caused) and its call count.  ``layer_metrics`` turns those totals
into the per-layer metrics named in BENCHMARK.json.

Span labels reuse the ``RunManifest.mark`` stage names where they overlap
(``backtest``, ``solve_g``, ``solve_1d``).

Pool workers that ``simulate_paths`` forks inherit the wrappers.  A worker
writes its own totals to ``<worker_dir>/<pid>.json`` each time its outermost
span ends, and ``merge_workers`` adds them to the parent's totals.  Worker time
is busy time that overlaps the parent's ``simulate.simulate_paths`` span, so
it counts towards layer totals but never towards the parent's self times.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    """Span and count totals for one process."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self._reset()

    def _reset(self) -> None:
        self.stack = []      # [label, time of traced children] per open span
        self.spans = {}      # label -> [inclusive_s, self_s, calls]
        self.counts = {}     # counter -> total

    def wrap(self, owner, attr: str, label: str, count=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper recording under ``label``.

        ``count(args, kwargs, result)`` returns counters to add after a call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:      # first call in a forked worker
                self.pid = os.getpid()
                self._reset()
            frame = [label, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                total = self.spans.setdefault(label, [0.0, 0.0, 0])
                total[0] += elapsed
                total[1] += elapsed - frame[1]
                total[2] += 1
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            if not self.stack and self.pid != self.main_pid:
                self.write(os.path.join(self.worker_dir, f"{self.pid}.json"))
            return result

        setattr(owner, attr, traced)

    def totals(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (the names the callers look up)."""
    import ulhedge.cli as cli
    from ulhedge import csvio, filtering, hedging, pde, rng, simulate

    def exported(values=None):
        def count(args, kwargs, result):
            paths = [result] if isinstance(result, str) else result
            counts = {"csvio.bytes": sum(os.path.getsize(p) for p in paths)}
            if values is not None:
                counts["csvio.values"] = values(args)
            return counts
        return count

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "backtest", "hedging.backtest")
    for module in (cli, hedging):
        w(module, "solve_g", "pde.solve_g",
          count=lambda a, k, r: {"pde.surface_bytes": r.values.nbytes})
        w(module, "simulate_paths", "simulate.simulate_paths",
          count=lambda a, k, r: {"simulate.paths": r.n_paths})
    w(pde, "_solve_1d", "pde.solve_1d")
    w(pde, "_assemble_2d", "pde.assemble")
    w(pde, "splu", "pde.factor")
    w(simulate, "draw_brownian_increments", "simulate.draw")
    w(simulate, "draw_death_exponentials", "simulate.draw")
    w(simulate, "advance_market", "simulate.advance")
    w(rng, "stream", "rng.stream", count=lambda a, k, r: {"rng.streams": 1})
    w(filtering.ParticleCloud, "__init__", "filtering.init")
    w(filtering.ParticleCloud, "step", "filtering.step",
      count=lambda a, k, r: {"filtering.particle_steps": a[0].n_worlds * a[0].n_particles})
    w(filtering.ParticleCloud, "projected_drift", "filtering.projected_drift")
    w(hedging, "hedge_paths", "hedging.hedge_paths")
    w(hedging, "theta_full", "hedging.theta_full")
    w(hedging, "interp_rows", "pde.interp_rows")
    w(pde.PdeSolution, "slice_at_s", "pde.slice_at_s")
    for name in ("value", "value_ds", "value_dx"):
        w(pde.PdeSolution, name, "pde.lookup")
    for name in ("export_bundle", "export_projection_series", "export_hedge_report"):
        w(csvio, name, "csvio.export", count=exported())
    # a PDE export writes one time slice of the surface
    w(csvio, "export_pde_solution", "csvio.export",
      count=exported(values=lambda a: a[0].values[0].size))
    w(csvio, "write_matrix", "csvio.write_matrix",
      count=lambda a, k, r: {"csvio.values": a[1].size})


def merge_workers(totals: dict, worker_dir: str) -> dict:
    """Add the totals pool workers wrote to ``totals`` (in place) and return it."""
    names = sorted(os.listdir(worker_dir)) if os.path.isdir(worker_dir) else []
    for name in names:
        with open(os.path.join(worker_dir, name), encoding="utf-8") as fh:
            worker = json.load(fh)
        for label, (inclusive, _self, calls) in worker["spans"].items():
            # worker time overlaps the parent's spans: no self time in the parent
            total = totals["spans"].setdefault(label, [0.0, 0.0, 0])
            total[0] += inclusive
            total[2] += calls
        for key, n in worker["counts"].items():
            totals["counts"][key] = totals["counts"].get(key, 0) + n
    return totals


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric values from one traced run's merged totals.

    A layer the workload never calls reads 0 (for example the filter in
    ``solve``).  ``trace.unattributed_s`` is the self time of ``cli.main``:
    the part of the traced wall time that no layer span covers, so the self
    times of the layers plus it add up to the traced wall time.
    """
    spans, counts = totals["spans"], totals["counts"]

    def inclusive(label):
        return spans.get(label, [0.0, 0.0, 0])[0]

    def own(label):
        return spans.get(label, [0.0, 0.0, 0])[1]

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    particle_steps = counts.get("filtering.particle_steps", 0)
    csv_bytes = counts.get("csvio.bytes", 0)
    export_s = inclusive("csvio.export")
    return {
        "rng.streams": counts.get("rng.streams", 0),
        "rng.stream_s": inclusive("rng.stream"),
        "simulate.simulate_paths_s": inclusive("simulate.simulate_paths"),
        "simulate.paths": counts.get("simulate.paths", 0),
        "simulate.draw_s": inclusive("simulate.draw"),
        "simulate.advance_s": inclusive("simulate.advance"),
        "filtering.init_s": inclusive("filtering.init"),
        "filtering.step_s": inclusive("filtering.step"),
        "filtering.particle_steps": particle_steps,
        "filtering.step_ns_per_particle_step": per(inclusive("filtering.step"),
                                                   particle_steps, 1e9),
        "filtering.projected_drift_s": inclusive("filtering.projected_drift"),
        "pde.interp_rows_s": inclusive("pde.interp_rows"),
        "pde.interp_rows_calls": spans.get("pde.interp_rows", [0.0, 0.0, 0])[2],
        "pde.slice_at_s_s": inclusive("pde.slice_at_s"),
        "pde.lookup_s": inclusive("pde.lookup"),
        "pde.solve_g_s": inclusive("pde.solve_g"),
        "pde.assemble_s": inclusive("pde.assemble"),
        "pde.factor_s": inclusive("pde.factor"),
        "pde.factorizations": spans.get("pde.factor", [0.0, 0.0, 0])[2],
        "pde.march_s": own("pde.solve_g"),
        "pde.solve_1d_s": inclusive("pde.solve_1d"),
        "pde.surface_mb": counts.get("pde.surface_bytes", 0) / 1e6,
        "hedging.backtest_s": inclusive("hedging.backtest"),
        "hedging.hedge_paths_s": inclusive("hedging.hedge_paths"),
        "hedging.ns_per_particle_step": per(inclusive("hedging.hedge_paths"),
                                            particle_steps, 1e9),
        "hedging.self_s": own("hedging.hedge_paths"),
        "hedging.theta_full_s": inclusive("hedging.theta_full"),
        "hedging.summary_s": own("hedging.backtest"),
        "csvio.export_s": export_s,
        "csvio.bytes": csv_bytes,
        "csvio.values": counts.get("csvio.values", 0),
        "csvio.mb_per_s": per(csv_bytes / 1e6, export_s),
        "trace.unattributed_s": own("cli.main"),
    }
