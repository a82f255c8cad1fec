"""Benchmark runner for spinmagic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, and the program exits with code 2 if it is not there.
Each workload is a closed loop with one client: an operation starts when the
previous one ends, and a new one starts only while the median operation still
fits in ``--seconds``.  A warm-up operation at a smaller size runs first.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
``cpu_s`` (median CPU time of an operation), ``setup_s`` (median CPU time of
a fresh interpreter importing ``spinmagic`` and ``spinmagic.cli``, over
imports spread through the run) and ``peak_rss_mb``; wall times are
recorded next to them (see ``clock``).  With ``--trace 1`` each round runs
the operation untraced, then traced on the same inputs; the outputs of the
two must agree, and the last line holds the per-layer metrics (medians over
the traced operations) and the tracing overhead in CPU time.  Spans are
written to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.  Every
operation's outputs are checked; an operation that raises or fails a check
counts in ``failed``.  The line before the last records the machine and
library versions.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 16
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads(env):
    """One BLAS/OpenMP thread: the workloads' parallelism is ``--workers``
    (at most nproc = 2 threads), and OpenBLAS threads spinning on the 2^11
    vectors of the eigensolver made an h* search at L = 11 twice as slow and
    its times twice as spread on a 2-core machine."""
    for var in THREAD_VARS:
        env[var] = "1"


def environment_record():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def clock():
    """(wall, CPU) seconds.  CPU is user + system time of this process and its
    reaped children; with paravirtual time accounting it leaves out the time
    the hypervisor gave to other guests (steal), which made wall times of the
    same code differ by up to 45 % between two sets of runs on a shared
    2-core machine."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def since(start):
    wall, cpu = clock()
    return wall - start[0], cpu - start[1]


def measure_setup():
    """(wall, CPU) seconds of one fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = clock()
    subprocess.run([sys.executable, "-c", "import spinmagic, spinmagic.cli"],
                   env=env, cwd=ROOT, check=True)
    return since(start)


def attempt(workload, inputs):
    """Run and check one operation: ((wall, CPU) seconds, outputs, problems)."""
    start = clock()
    try:
        outputs = workload.run(inputs)
    except Exception:
        return since(start), None, [traceback.format_exc()]
    elapsed = since(start)
    try:
        problems = workload.check(inputs, outputs)
    except Exception:
        problems = [traceback.format_exc()]
    return elapsed, outputs, problems


def closed_loop(seconds, round_fn):
    """Call ``round_fn`` until the median round no longer fits in ``seconds``
    (at least once)."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        round_fn()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)


def run_plain(workload, rng, seconds, tally):
    """End-to-end metrics with tracing off.  The SETUP_REPEATS imports of
    ``setup_s`` are spread evenly over the run, between operations: imports
    made back to back varied together with the machine's load over a few
    seconds, so their median was no steadier than a single one."""
    times, setup = [], []
    start = time.perf_counter()

    def one_round():
        while len(setup) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setup.append(measure_setup())
        elapsed, _, problems = attempt(workload, workload.make_inputs(rng))
        times.append(elapsed)
        tally.record(workload.name, problems)

    closed_loop(seconds, one_round)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"cpu_s": statistics.median(cpu for _, cpu in times),
               "setup_s": statistics.median(cpu for _, cpu in setup),
               "peak_rss_mb": peak_kb / 1024.0}
    detail = {"wall_cpu_samples": times, "setup_wall_cpu_samples": setup}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, detail


def run_traced(workload, rng, seconds, tally, spans_path):
    """Per-layer metrics: each round runs the same inputs untraced and traced."""
    from tracing import Tracer, layer_metrics
    from workloads import same_outputs

    untraced, traced, per_op, all_spans = [], [], [], []

    def one_round():
        inputs = workload.make_inputs(rng)
        elapsed, plain_out, problems = attempt(workload, inputs)
        untraced.append(elapsed)
        tally.record(f"{workload.name} untraced", problems)
        with Tracer() as tracer:
            elapsed, traced_out, problems = attempt(workload, inputs)
        traced.append(elapsed)
        if plain_out is not None and traced_out is not None:
            problems = problems + same_outputs(plain_out, traced_out)
        tally.record(f"{workload.name} traced", problems)
        per_op.append(layer_metrics(tracer.spans))
        all_spans.append(tracer.spans)

    closed_loop(seconds, one_round)
    metrics = {}
    for name in per_op[0]:
        values = [op[name] for op in per_op]
        if name.endswith(".s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
    metrics["pauli.fwht.bytes_computed"]["unit"] = "B"
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(cpu for _, cpu in traced)
        / statistics.median(cpu for _, cpu in untraced) - 1.0,
        "unit": "ratio"}
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as f:
        for op, spans in enumerate(all_spans):
            for span in spans:
                f.write(json.dumps({"op": op, **asdict(span)}) + "\n")
    detail = {"untraced_wall_cpu": untraced, "traced_wall_cpu": traced,
              "counts_repeat": all(op[k] == per_op[0][k] for op in per_op
                                   for k in op if not k.endswith(".s"))}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinmagic" / "__init__.py").is_file():
        print(f"error: no spinmagic sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads(os.environ)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import spinmagic
    from workloads import WORKLOADS

    if Path(spinmagic.__file__).resolve().parent != SRC / "spinmagic":
        print(f"error: imported spinmagic from {spinmagic.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    workload.warmup()
    tally = Tally()
    if args.trace:
        spans_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-{args.seed}.jsonl"
        metrics, detail = run_traced(workload, rng, args.seconds, tally, spans_path)
    else:
        metrics, detail = run_plain(workload, rng, args.seconds, tally)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "env": environment_record(), **detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
