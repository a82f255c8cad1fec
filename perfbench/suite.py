"""Run every workload through run.py and print each metric by name and unit.

    python3 perfbench/suite.py [--seeds 1,2,3] [--trace 0|1]

Each workload in BENCHMARK.json runs once per seed for its ``run_seconds``.
For each workload and metric it prints the median over the seeds, the
quartiles, the spread (q3 - q1) / median, and the workload's failure rate
(failed / attempted operations over all runs).  The last two output lines of
every run are also written to ``.perfbench_out/suite-trace<0|1>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs):
    """{metric: (unit, median, q1, q3)} over a workload's runs."""
    out = {}
    for name, m in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = (m["unit"], statistics.median(values), q1, q3)
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    everything = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_one(workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
        everything[workload] = runs
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failure_rate = {failed}/{attempted} "
              f"= {failed / attempted:g}")
        for name, (unit, med, q1, q3) in summarize(runs).items():
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:30s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.3f}")
        sys.stdout.flush()
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"suite-trace{args.trace}.json").write_text(json.dumps(everything, indent=1) + "\n")
    ok = all(r["result"]["correct"] for runs in everything.values() for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
