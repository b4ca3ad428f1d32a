"""The ulhedge benchmark: end-to-end cost of CLI runs, checked, and per-layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/ulhedge``
of that checkout.  Each sample is one ``ulhedge`` CLI run, forked from an
interpreter that has just imported ``ulhedge.cli`` (perfbench/child.py), one
at a time: a closed loop with one client.  Set-up is timed in fresh
interpreters first; then samples repeat while the next one is expected to end
within S seconds of the start.  Every sample's
artifacts are checked by value (see ``check_hedge`` and ``check_solve``);
a sample that exits nonzero or fails a check counts as failed.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics of BENCHMARK.json as medians over the samples; with ``--trace 1``
untraced and traced samples alternate and it reports the per-layer metrics.
The line before it holds the details: machine facts, every sample, the
artifact digests and the known defects the checks report but do not gate on.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass

from layers import layer_metrics, merge_workers

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"          # scratch space inside the checkout, removed after each sample
RUN_LIMIT_S = 170               # a whole run; the benchmark must end within 180 s
SAMPLE_TIMEOUT_S = 150          # a lone sample (the self-test)
SETUP_SAMPLES = 5               # fresh interpreters that only set up, besides the sampler
PRICE_Z_LIMIT = 4.0             # price legs vs. zeta0 in combined standard errors
G0_REL_TOL = 1e-9

# g(0, s0, x0) recorded at the seed commit; the PDE draws no random numbers
G0_SMOKE_GRID = 0.10558969851163405     # configs/smoke.ini grid, from hedge_summary.csv
G0_FINE_GRID = 0.10558257368261326      # perfbench/solve-fine.ini, bilinear from g_t0.csv

HEDGE_FILES = frozenset(f"hedge_{name}.csv" for name in (
    "theta_star", "theta_full", "pfs_mu", "V", "C", "C_full", "N", "S_stopped", "summary"))
SOLVE_FILES = frozenset(("g_t0.csv", "gtilde_t0.csv", "phi_t0.csv"))
# bytes a data row of a matrix or surface CSV may hold: finite floats only
NUMERIC_BYTES = b"0123456789.eE+-,\n"
NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


@dataclass(frozen=True)
class Workload:
    command: str            # ulhedge subcommand
    config: str             # INI path relative to the checkout root
    options: tuple = ()     # further CLI flags
    workers: int = 1
    g0: float | None = None


def workloads(nproc: int) -> dict:
    """The benchmark's workloads; why each was chosen is in README.md."""
    wide_workers = min(2, nproc)
    return {
        "smoke-hedge": Workload("hedge", "configs/smoke.ini", ("--paths", "500"),
                                g0=G0_SMOKE_GRID),
        "wide-hedge": Workload("hedge", "configs/smoke.ini",
                               ("--paths", "2500", "--particles", "16"),
                               workers=wide_workers, g0=G0_SMOKE_GRID),
        "solve-fine": Workload("solve", "perfbench/solve-fine.ini", g0=G0_FINE_GRID),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_numeric_csv(path: str, problems: list) -> None:
    """A comment line, a header line, then rows of finite numbers only."""
    with open(path, "rb") as fh:
        head = fh.readline()
        fh.readline()
        body = fh.read()
    name = os.path.basename(path)
    if not head.startswith(b"# ulhedge config="):
        problems.append(f"{name}: missing the config comment line")
    if not body.strip():
        problems.append(f"{name}: no data rows")
    elif body.translate(None, NUMERIC_BYTES):
        problems.append(f"{name}: holds a non-finite or non-numeric value")


def parse_number(text: str):
    """A float from a plain repr or a numpy-2 repr; (value, was_numpy_repr)."""
    match = NUMPY_REPR.match(text)
    if match:
        return float(match.group(1)), True
    return float(text), False


def read_summary(path: str):
    """hedge_summary.csv as {statistic: float or verdict string}, numpy-repr count."""
    values, numpy_reprs = {}, 0
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[2:]:
        key, _, text = line.partition(",")
        if key.startswith("test_"):
            values[key] = text
            continue
        values[key], was_numpy = parse_number(text)
        numpy_reprs += was_numpy
    return values, numpy_reprs


def check_hedge(wl: Workload, out: str, problems: list, defects: list) -> None:
    for name in sorted(HEDGE_FILES - {"hedge_summary.csv"}):
        check_numeric_csv(os.path.join(out, name), problems)
    summary, numpy_reprs = read_summary(os.path.join(out, "hedge_summary.csv"))
    numbers = {k: v for k, v in summary.items() if not k.startswith("test_")}
    if not all(math.isfinite(v) for v in numbers.values()):
        problems.append("hedge_summary.csv: non-finite statistic")
    zeta0 = numbers["zeta0_pde"]
    if wl.g0 is not None and abs(zeta0 - wl.g0) > G0_REL_TOL * abs(wl.g0):
        problems.append(f"zeta0_pde {zeta0!r} differs from the reference {wl.g0!r}")
    combined_se = math.hypot(numbers["price_lhs_se"], numbers["price_rhs_se"])
    for leg in ("price_lhs", "price_rhs"):
        if abs(numbers[leg] - zeta0) > PRICE_Z_LIMIT * combined_se:
            problems.append(f"{leg} {numbers[leg]!r} is more than {PRICE_Z_LIMIT} combined"
                            f" standard errors ({combined_se:.3g}) from zeta0_pde {zeta0!r}")
    if numbers["v_terminal_max"] != 0.0:
        problems.append(f"v_terminal_max is {numbers['v_terminal_max']!r}, not 0")
    # known defects: reported, never gated on
    for test, prefix in (("test_orthogonal_to_price", "cov_price_z"),
                         ("test_orthogonal_to_martingale", "cov_mart_z")):
        if summary.get(test) != "pass":
            worst = max(abs(v) for k, v in numbers.items() if k.startswith(prefix + "["))
            defects.append(f"{test} {summary.get(test)}: max |z| {worst:.2f}")
    if numpy_reprs:
        defects.append(f"hedge_summary.csv writes {numpy_reprs} numpy reprs (np.float64(...))")


def surface_value(path: str, s0: float, x0: float) -> float:
    """Bilinear value of an (s, x) surface CSV at (s0, x0)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    x_grid = [float(v) for v in lines[1].split(",")[1:]]
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    s_grid = [row[0] for row in rows]
    i = min(max(bisect_right(s_grid, s0) - 1, 0), len(s_grid) - 2)
    j = min(max(bisect_right(x_grid, x0) - 1, 0), len(x_grid) - 2)
    ws = (s0 - s_grid[i]) / (s_grid[i + 1] - s_grid[i])
    wx = (x0 - x_grid[j]) / (x_grid[j + 1] - x_grid[j])
    lo, hi = rows[i][1:], rows[i + 1][1:]
    return ((1 - ws) * ((1 - wx) * lo[j] + wx * lo[j + 1])
            + ws * ((1 - wx) * hi[j] + wx * hi[j + 1]))


def check_solve(wl: Workload, out: str, config: str, problems: list) -> None:
    for name in sorted(SOLVE_FILES):
        check_numeric_csv(os.path.join(out, name), problems)
    run = configparser.ConfigParser(interpolation=None)
    run.read(config, encoding="utf-8")
    g0 = surface_value(os.path.join(out, "g_t0.csv"),
                       float(run["run"]["s0"]), float(run["run"]["x0"]))
    if wl.g0 is not None and abs(g0 - wl.g0) > G0_REL_TOL * abs(wl.g0):
        problems.append(f"g(0, s0, x0) {g0!r} differs from the reference {wl.g0!r}")


def check_outputs(wl: Workload, out: str, config: str, wall_s: float) -> dict:
    """Value checks on one run's artifacts.

    Returns the problems found (empty when the run is correct), the known
    defects seen, the artifacts' sha256 digests and the manifest timings.
    """
    problems, defects = [], []
    expected = (HEDGE_FILES if wl.command == "hedge" else SOLVE_FILES) | {"manifest.json"}
    found = set(os.listdir(out))
    if found != expected:
        problems.append(f"artifacts {sorted(found ^ expected)} missing or unexpected")
        return {"problems": problems, "defects": defects}
    try:
        if wl.command == "hedge":
            check_hedge(wl, out, problems, defects)
        else:
            check_solve(wl, out, config, problems)
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        timings = json.load(fh).get("timings", {})
    total = timings.get("total", -1.0)
    # the manifest clock starts after the config load and stops before its own write
    if not 0.0 < total <= wall_s or wall_s - total > 0.5 + 0.05 * wall_s:
        problems.append(f"manifest total {total} s does not match the measured {wall_s:.3f} s")
    digests = {name: sha256(os.path.join(out, name)) for name in sorted(found)
               if name != "manifest.json"}     # the manifest records timings
    return {"problems": problems, "defects": defects, "sha256": digests,
            "manifest": timings}


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), TMPDIR=os.path.join(root, OUT_DIR),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1")
    return env


class Sampler:
    """A child.py process that forks one checked CLI run per ``sample`` call.

    The sampler runs in its own process group; ``close`` stops the whole
    group, pool workers included, and waits for it.  A sampler that does not
    answer by ``deadline`` (a ``time.perf_counter`` value) is stopped, and
    every later sample fails at once.
    """

    def __init__(self, root: str, wl: Workload, tag: str, deadline: float):
        self.root, self.wl, self.deadline = root, wl, deadline
        self.work = os.path.join(root, OUT_DIR, tag)
        os.makedirs(self.work, exist_ok=True)
        self.log_path = os.path.join(self.work, "log.txt")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), os.path.join(root, wl.config)],
                cwd=root, env=child_env(root), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, start_new_session=True)
        try:
            self.setup = self._reply()
            if self.setup is None:
                raise RuntimeError(f"set-up failed: {self.log_tail(0, 2000)}")
            expected = os.path.join(root, "src", "ulhedge", "cli.py")
            if self.setup["ulhedge"] != expected:
                raise RuntimeError(f"imported {self.setup['ulhedge']}, not {expected}")
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def _reply(self):
        """The sampler's next JSON line; None once it has ended or timed out."""
        timeout = max(0.0, self.deadline - time.perf_counter())
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.close()
            return None
        return json.loads(line)

    def log_tail(self, offset: int, limit: int) -> str:
        with open(self.log_path, "rb") as fh:
            fh.seek(offset)
            return fh.read().decode("utf-8", "replace")[-limit:].strip()

    def sample(self, seed: int, traced: bool, tag: str) -> dict:
        """One checked CLI run; returns its record (``ok`` False when it failed)."""
        wl, root = self.wl, self.root
        work = os.path.join(self.work, tag)
        out, trace_dir = os.path.join(work, "artifacts"), os.path.join(work, "workers")
        os.makedirs(out)
        os.makedirs(trace_dir)
        config = os.path.join(root, wl.config)
        result = os.path.join(work, "child.json")
        request = {"result": result, "trace": trace_dir if traced else None,
                   "argv": [wl.command, config, "--seed", str(seed), "--out-dir", out,
                            "--workers", str(wl.workers), "--quiet", *wl.options]}
        record = {"traced": traced, "exit": None, "ok": False, "problems": [],
                  "defects": []}
        offset = os.path.getsize(self.log_path)
        try:
            reply = None
            if self.alive:
                try:
                    self.proc.stdin.write((json.dumps(request) + "\n").encode("utf-8"))
                    self.proc.stdin.flush()
                    reply = self._reply()
                except OSError:
                    self.close()
            if reply is None:
                record["problems"].append(f"the sampler ended or hung: "
                                          f"{self.log_tail(offset, 500)}")
                return record
            record["exit"] = code = reply["exit"]
            if os.path.exists(result):
                with open(result, encoding="utf-8") as fh:
                    record.update(json.load(fh))
            if code != 0 or "wall_s" not in record:
                record["problems"].append(f"exit {code}: {self.log_tail(offset, 500)}")
                return record
            record.update(check_outputs(wl, out, config, record["wall_s"]))
            record["ok"] = not record["problems"]
            if traced:
                record["layers"] = layer_metrics(merge_workers(record.pop("trace"), trace_dir))
                record["trace_workers"] = len(os.listdir(trace_dir))
            return record
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def close(self) -> None:
        """End the sampler and everything it started; wait for all of it."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()         # end of input: the sampler exits
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)     # anything left behind
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def setup_sample(root: str, wl: Workload, tag: str, deadline: float) -> dict:
    """Set-up in a fresh interpreter that runs no CLI command."""
    try:
        with Sampler(root, wl, tag, deadline) as sampler:
            return sampler.setup
    finally:
        shutil.rmtree(os.path.join(root, OUT_DIR, tag), ignore_errors=True)


def run_sample(root: str, wl: Workload, seed: int, traced: bool, tag: str) -> dict:
    """One checked CLI run from a sampler of its own."""
    try:
        with Sampler(root, wl, tag, time.perf_counter() + SAMPLE_TIMEOUT_S) as sampler:
            return sampler.sample(seed, traced, "sample")
    finally:
        shutil.rmtree(os.path.join(root, OUT_DIR, tag), ignore_errors=True)


def measure(root: str, wl: Workload, seed: int, seconds: float, trace: bool):
    """Set-up samples, then CLI samples while the next round is expected to
    end within ``seconds`` of the start.

    The CLI samples come from one sampler, one at a time.  There is at least
    one round: one sample, or one of each kind when traced.  Returns the run
    records and the set-up records.
    """
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setup_sample(root, wl, "warmup", deadline)      # fills bytecode and file caches
    setups = [setup_sample(root, wl, f"setup-{i}", deadline) for i in range(SETUP_SAMPLES)]
    runs = []
    try:
        with Sampler(root, wl, "sampler", deadline) as sampler:
            setups.append(sampler.setup)
            first = time.perf_counter()
            rounds = 0
            while sampler.alive:
                kinds = (False, True) if trace else (False,)
                if trace and rounds % 2 == 1:      # alternate which kind goes first
                    kinds = (True, False)
                for traced in kinds:
                    runs.append(sampler.sample(seed, traced, f"sample-{len(runs)}"))
                rounds += 1
                now = time.perf_counter()
                if now - start + (now - first) / rounds > seconds:
                    break
    finally:
        shutil.rmtree(os.path.join(root, OUT_DIR, "sampler"), ignore_errors=True)
    return runs, setups


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def summarize(runs: list, setups: list, trace: bool, units: dict):
    """The result line: correct / attempted / failed and the metric medians."""
    ok = [r for r in runs if r["ok"]]
    failed = len(runs) - len(ok)
    if trace:
        values = {"cli.import_s": median_of(setups, "import_s"),
                  "config_io.load_s": median_of(setups, "load_s")}
        plain = [r for r in ok if not r["traced"]]
        traced = [r for r in ok if r["traced"]]
        if traced:
            for name in traced[0]["layers"]:
                values[name] = statistics.median(r["layers"][name] for r in traced)
        for stage in ("backtest", "solve_g", "solve_1d", "total"):
            stage_times = [r["manifest"].get(stage, 0.0) for r in plain]
            values[f"manifest.{stage}_s"] = statistics.median(stage_times) if plain else None
        if plain and traced:
            base = median_of(plain, "wall_s")
            values["trace.overhead_frac"] = median_of(traced, "wall_s") / base - 1.0
    else:
        values = {"wall_s": median_of(ok, "wall_s"), "setup_s": median_of(setups, "setup_s"),
                  "cpu_s": median_of(ok, "cpu_s"), "peak_rss_mb": median_of(ok, "peak_rss_mb"),
                  "ok_frac": len(ok) / len(runs)}
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    missing = sorted(name for name, m in metrics.items() if m["value"] is None)
    result = {"correct": failed == 0 and not missing, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    return result, missing


def machine_facts(nproc: int, setups: list) -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    first = setups[0] if setups else {}
    return {"nproc": nproc, "cpu_model": model, "python": platform.python_version(),
            "numpy": first.get("numpy"), "scipy": first.get("scipy"),
            "threads": "BLAS/OpenMP pinned to 1 per process",
            "artifacts": f"{OUT_DIR}/ in the checkout, deleted after each sample"}


def benchmark_units(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through Sampler.close, which stops the samples
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    nproc = len(os.sched_getaffinity(0))
    table = workloads(nproc)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    wl = table[args.workload]
    for needed in ("src/ulhedge/cli.py", wl.config, "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"not a ulhedge checkout: {needed} is missing under {root}", file=sys.stderr)
            return 2
    units = benchmark_units(root, bool(args.trace))
    try:
        runs, setups = measure(root, wl, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(root, OUT_DIR), ignore_errors=True)
    if not any(r["ok"] for r in runs):
        print("every sample failed:", [r["problems"] for r in runs], file=sys.stderr)
        return 1

    result, missing = summarize(runs, setups, bool(args.trace), units)
    digests = [r["sha256"] for r in runs if r.get("sha256")]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": [wl.command, wl.config, "--workers", str(wl.workers),
                                      *wl.options],
        "machine": machine_facts(nproc, setups),
        "samples": [{k: r.get(k) for k in ("traced", "ok", "exit", "wall_s", "cpu_s",
                                           "peak_rss_mb", "setup_s", "manifest",
                                           "trace_workers", "problems")}
                    for r in runs],
        "setup_samples": [r["setup_s"] for r in setups],
        "counts": {"runs": len(runs), "ok": sum(r["ok"] for r in runs),
                   "setup": len(setups)},
        "sha256": digests[0] if digests else {},
        "outputs_identical": all(d == digests[0] for d in digests),
        "known_defects": sorted({d for r in runs for d in r["defects"]}),
        "missing_metrics": missing,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
