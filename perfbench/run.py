"""Repository benchmark: one workload per call, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are listed in BENCHMARK.json at the repository
root and described in perfbench/README.md.  The workload runs in a fresh
interpreter (perfbench/worker.py) with BLAS and OpenMP pools pinned to
one thread.  With ``--trace 0`` the result carries the end-to-end
metrics, on some workloads scaled to a reference host (see
``common.probe``).  With ``--trace 1`` the workload runs untraced and
then traced, each in its own interpreter, and the result carries the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result; the line before it holds the details (input
digest, environment, host speed, unscaled timings, operation counts,
gates, serving ladder).  A failed correctness gate makes the exit
code 1.
"""

import argparse
import json
import os
import subprocess
import sys

from common import REFERENCE_S, median
from worker import HERE, ROOT, WORKLOADS, plain

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every call must end within 180 s.
TIMEOUT_S = 170.0


class WorkloadError(RuntimeError):
    """The worker crashed, timed out or printed no result."""


def run_worker(args, trace, timeout):
    """Run the workload in a fresh interpreter; returns its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update((name, "1") for name in THREAD_VARIABLES)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as error:
        raise WorkloadError(
            "no result within {:.0f} s".format(timeout)) from error
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkloadError(
            "worker exited with code {}".format(done.returncode))
    return json.loads(lines[-1])


def host_speed(run):
    """How much faster than the reference host the run's host ran.

    Only workloads whose operations are made of the probe's kind of work
    run it (see ``common.probe``); the others are not scaled.
    """
    return REFERENCE_S / median(run["probe_s"]) if "probe_s" in run else 1.0


def end_to_end(spec, run):
    """The run's timings scaled to the reference host, and its memory."""
    speed = host_speed(run)
    values = {name: value * speed for name, value in run["e2e"].items()}
    values.update(ops_per_s=run["e2e"]["ops_per_s"] / speed,
                  peak_rss_mb=run["peak_rss_mb"])
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec["end_to_end"]}


def per_layer(spec, untraced, traced):
    """Span figures of the traced run, counts of the untraced one.

    A layer the workload does not run reads 0.
    """
    values = dict(untraced["counters"])
    values.update(traced["layers"])
    values.update(("trace." + key, traced["trace"][key])
                  for key in ("spans", "bench_self_frac"))
    # Busy time per operation of each run, at the reference host's speed.
    untraced_s, traced_s = (run["busy_s"] / run["busy_ops"] * host_speed(run)
                            for run in (untraced, traced))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    unknown = set(values) - {metric["name"] for metric in spec["per_layer"]}
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: {}".format(
            sorted(unknown)))
    return {metric["name"]: {"value": values.get(metric["name"], 0.0),
                             "unit": metric["unit"]}
            for metric in spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: the library sources (src/repro) are "
                         "missing; run from a full checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        runs = [run_worker(args, 0, TIMEOUT_S / (1 + args.trace))]
        if args.trace:
            runs.append(run_worker(args, 1, TIMEOUT_S / 2))
    except WorkloadError as error:
        sys.stderr.write("perfbench: {}: {}\n".format(args.workload, error))
        return 1
    measured = runs[-1]
    metrics = per_layer(spec, *runs) if args.trace \
        else end_to_end(spec, measured)
    correct = all(all(run["gates"].values()) for run in runs)
    details = {key: measured[key] for key in
               ("workload", "seed", "digest", "env", "ops", "gates", "detail")}
    details.update(host_speed=host_speed(measured), measured=measured["e2e"])
    # The workload's headline figures under their own names, such as
    # serve_p99_ms or fed_rounds_per_s.
    named = dict(measured["named"], setup_s=(measured["e2e"]["setup_s"], "s"),
                 peak_rss_mb=(measured["peak_rss_mb"], "MB"))
    details["named"] = {name: {"value": value, "unit": unit}
                        for name, (value, unit) in named.items()}
    if args.trace:
        details["trace"] = measured["trace"]
    print(json.dumps(details, default=plain))
    print(json.dumps({"correct": correct,
                      "attempted": measured["ops"]["attempted"],
                      "failed": measured["ops"]["failed"],
                      "metrics": metrics}, default=plain))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
