"""A sampling process: set up ulhedge once, then fork one CLI run per request.

    python3 perfbench/child.py CONFIG

Set-up is timed first: the import of ``ulhedge.cli`` and the load and
validation of CONFIG.  Its record is the first JSON line on standard output.
Then each line read from standard input is a JSON request
``{"result": PATH, "trace": DIR or null, "argv": [ULHEDGE-ARGS...]}``.  For
each, the process forks; the fork runs ``ulhedge.cli.main(argv)`` and times
it, with the CPU time and peak resident set of the fork and of the pool
workers it reaped, writes that record to PATH and exits with the CLI's code.
The sampler answers with one JSON line ``{"exit": CODE}``.  At end of input
it exits 0, so with empty input only set-up runs.

Every CLI run starts from the same state: a fresh interpreter that has
imported ``ulhedge.cli`` and nothing more, as a user's ``ulhedge`` command
would, without paying the import again.  Nothing one run leaves in memory
reaches the next.  With a trace DIR the layers are wrapped in the fork (see
layers.py) before ``main`` runs and their totals are recorded; pool workers
write theirs under DIR.  Anything the CLI prints goes to standard error.
The runner pins BLAS/OpenMP to one thread, so the sampler has no threads
when it forks.
"""

import json
import os
import resource
import sys
import time
import traceback


def run_cli(cli, request: dict) -> int:
    """The body of one forked sample; returns the CLI's exit code."""
    tracer = None
    if request.get("trace"):
        from layers import Tracer, install
        tracer = Tracer(request["trace"])
        install(tracer)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(request["argv"])
    wall = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (own.ru_utime + own.ru_stime - before.ru_utime - before.ru_stime
           + workers.ru_utime + workers.ru_stime)
    record = {"exit": code, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0}
    if tracer is not None:
        record["trace"] = tracer.totals()
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


def fork_sample(cli, request: dict) -> int:
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = run_cli(cli, request)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:       # the fork must never return into the sampler's loop
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def main(argv) -> int:
    config_path = argv[0]
    # the protocol owns the real standard output; the CLI's prints go to stderr
    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    t0 = time.perf_counter()
    import ulhedge.cli as cli
    t1 = time.perf_counter()
    from ulhedge.config_io import load_config
    from ulhedge.errors import ConfigError
    from ulhedge.models import validate
    try:
        validate(load_config(config_path))
    except ConfigError:
        pass            # a CLI run reports it through its exit code
    t2 = time.perf_counter()

    import numpy
    import scipy
    setup = {"import_s": t1 - t0, "load_s": t2 - t1, "setup_s": t2 - t0,
             "ulhedge": os.path.abspath(cli.__file__),
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    reply.write(json.dumps(setup) + "\n")
    reply.flush()
    for line in sys.stdin:
        code = fork_sample(cli, json.loads(line))
        reply.write(json.dumps({"exit": code}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
