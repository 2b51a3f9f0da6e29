"""Run one workload once in this interpreter and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this in a fresh interpreter for each run, so warm
caches and peak memory belong to that run alone.  With ``--trace 1``
the workload's layer calls are shimmed and the spans are written as
JSON lines to ``perfbench/out/``.
"""

import argparse
import importlib
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = {"serve-openloop": "wl_serve", "train-ondevice": "wl_train",
             "fedavg-chaos": "wl_fedavg", "fleet-1m": "wl_fleet"}


def plain(value):
    """JSON fallback for numpy scalars."""
    return value.item()


def peak_rss_mb():
    """Resident-set high-water mark (VmHWM) of this interpreter."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def pin_to_quietest_cpu(trials=3):
    """Pin this process to the usable CPU where a fixed loop runs fastest.

    On a shared host the hardware sibling of one CPU may stay busy for
    minutes and slow whatever runs there by half, so a run would measure
    where it was scheduled more than the code.  Returns the chosen CPU
    and each CPU's best loop time in milliseconds.
    """
    best = {cpu: float("inf") for cpu in sorted(os.sched_getaffinity(0))}
    for _ in range(trials):
        for cpu in best:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            sum(i * i for i in range(100_000))
            best[cpu] = min(best[cpu], 1000.0 * (time.perf_counter() - started))
    chosen = min(best, key=best.get)
    os.sched_setaffinity(0, {chosen})
    return chosen, best


def environment():
    """What the numbers were measured on."""
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "{} {}".format(blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS")}


def trace_summary(tracer, wall):
    """Span count and the benchmark's own share of the traced wall time.

    The benchmark's share is the self time of its root spans: the time
    no shimmed layer accounts for.
    """
    table = tracer.self_times()
    roots = {span[0] for span in tracer.spans if span[3] < 0}
    return {"spans": len(tracer.spans),
            "bench_self_frac": sum(table[name][2] for name in roots) / wall}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment()
    env["pinned_cpu"], env["cpu_loop_ms"] = pin_to_quietest_cpu()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracing import Tracer

    workload = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(OUT, exist_ok=True)
    inputs = workload.make_inputs(args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    result = workload.run(inputs, args.seconds, tracer, OUT)
    result.update(workload=args.workload, seed=args.seed,
                  digest=inputs["digest"], peak_rss_mb=peak_rss_mb(), env=env)
    if tracer is not None:
        path = os.path.join(OUT, "spans-{}-{}.jsonl".format(args.workload,
                                                            args.seed))
        tracer.dump(path)
        result["trace"] = dict(trace_summary(tracer, result["wall_s"]),
                               path=os.path.relpath(path, ROOT))
    print(json.dumps(result, default=plain))


if __name__ == "__main__":
    main()
