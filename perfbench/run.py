"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload vanilla-book|stream-book|oracle-audit
                             --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it reports the per-layer metrics
from a separate traced pass, plus the tracing overhead.  Either way the
outputs are checked outside the timed region, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Generated configs, the full result with its environment record, and the
traced spans go to .perfbench_out/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import env
import speed

SETUP_REPEATS = 7
SETUP_VECTOR_SHARE = 0.5  # fitted like workloads.VECTOR_SHARE (see speed.py)
# The kernels run in the same interpreter right after the timed import: the
# host's vCPUs change speed independently, so a sample taken in the parent
# can be on the wrong one.
SETUP_SNIPPET = """\
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import robust_rates
from robust_rates.config import load_config
for path in sys.argv[3:]:
    load_config(path)
elapsed = time.process_time() - start
sys.path.insert(0, sys.argv[2])
import speed
print(elapsed, *speed.Clock().sample())
"""

END_TO_END_UNITS = {
    "setup_s": "s", "book_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "peak_rss_mb": "MB", "ref_err_max": "per_notional",
}


def setup_seconds(paths: list[str]) -> tuple[float, list[float]]:
    """Median over fresh interpreters of the CPU seconds to import robust_rates
    and load_config every config, each rescaled by the kernels run right
    after it in the same interpreter; and the measured seconds of each."""
    scaled, raw = [], []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, env.SRC, here, *paths],
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, *sample = map(float, done.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed / speed.Clock.slowdown(sample, sample, SETUP_VECTOR_SHARE))
    return statistics.median(scaled), raw


def timed_passes(wl, seconds: float, min_passes: int, outputs,
                 clock) -> tuple[list[float], list[float], list[float]]:
    """Rescaled CPU, measured CPU and wall seconds per pass, until `seconds`
    have elapsed and at least min_passes ran.

    A timed pass runs on one thread, so its CPU time is its wall time less
    the time the host kept the process off the CPU (steal, on a shared
    virtual machine).  The clock rescales it for the host's speed, running
    its kernels between operations; wall time includes the kernels.
    """
    cpu, raw, walls = [], [], []
    begin = perf_counter()
    while len(cpu) < min_passes or perf_counter() - begin < seconds:
        clock.start()
        start = perf_counter()
        outputs.add(wl.run_pass(wl.threads, clock=clock))
        walls.append(perf_counter() - start)
        scaled, measured = clock.stop()
        cpu.append(scaled)
        raw.append(measured)
    return cpu, raw, walls


def percentile(samples: list[float], q: float) -> float:
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(q * 10) - 1]


def end_to_end(wl, seconds: float, outputs, clock) -> tuple[dict, dict]:
    setup_s, setup_raw = setup_seconds(wl.config_paths())
    cpu, raw, walls = timed_passes(wl, seconds, wl.min_passes, outputs, clock)
    latencies = clock.latencies
    tail = percentile(latencies, wl.tail_percentile)
    info = {"passes": len(cpu), "latency_samples": len(latencies),
            "tail_percentile": wl.tail_percentile,
            "tail_beyond": sum(x > tail for x in latencies),
            "book_cpu_s": statistics.median(raw),
            "book_wall_s": statistics.median(walls),
            "book_s_all": cpu, "book_cpu_s_all": raw, "book_wall_s_all": walls,
            "setup_cpu_s_all": setup_raw, "kernel_s_all": clock.kernel_s}
    metrics = {
        "setup_s": setup_s,
        "book_s": statistics.median(cpu),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
    }
    return metrics, info


def per_layer(wl, seconds: float, out_dir: str, outputs, clock) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics

    from robust_rates import config

    untraced, _, _ = timed_passes(wl, seconds / 2, 1, outputs, clock)
    tracer = Tracer().install()
    traced, per_pass = [], []
    try:
        for path in wl.config_paths():
            config.load_config(path)
        load_s = layer_metrics(tracer.spans, 1.0, 1)["config.load_s"]
        begin = perf_counter()
        while not traced or perf_counter() - begin < seconds / 2:
            tracer.spans = []
            clock.start()
            start = perf_counter()
            outputs.add(wl.run_pass(wl.threads, tracer=tracer, clock=clock))
            per_pass.append(layer_metrics(tracer.spans, perf_counter() - start, wl.threads))
            traced.append(clock.stop()[0])
        spans = tracer.spans
        if wl.pool_threads:
            tracer.spans = []
            start = perf_counter()
            output = wl.run_pass(wl.pool_threads, tracer=tracer)
            pool_wall = perf_counter() - start
            outputs.add(output)
            pool = layer_metrics(tracer.spans, pool_wall, wl.pool_threads)
    finally:
        tracer.uninstall()
    tracer.spans = spans
    tracer.write(os.path.join(out_dir, "spans.csv.gz"))
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["config.load_s"] = load_s
    info = {"untraced_passes": untraced, "traced_passes": traced, "spans": len(spans)}
    if wl.pool_threads:
        metrics["cli.thread_efficiency"] = pool["cli.thread_efficiency"]
        info["traced_pool_pass_s"] = pool_wall
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="robust-rates benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not env.add_src_to_path():
        print(f"perfbench: no program to measure: {env.PACKAGE} is missing", file=sys.stderr)
        return 2
    import books
    import workloads
    from spans import UNITS

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(env.OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, reference)
    outputs = workloads.Outputs()
    if wl.warm_up:
        outputs.add(wl.run_pass(wl.threads))
    clock = speed.Clock()
    if args.trace:
        metrics, info = per_layer(wl, args.seconds, out_dir, outputs, clock)
        units = UNITS
    else:
        metrics, info = end_to_end(wl, args.seconds, outputs, clock)
        # Read before the gate, which prices references of its own.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    failed_per_pass, ref_err = wl.check(outputs)
    if not args.trace:
        metrics["ref_err_max"] = ref_err
    attempted = wl.size * len(failed_per_pass)
    failed = sum(failed_per_pass)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "parameters": books.PARAMETERS[args.workload],
              "env": env.record(), "info": info, "result": result}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"env {json.dumps(record['env'])}")
    print(f"info {json.dumps({k: v for k, v in info.items() if not isinstance(v, list)})}")
    for k in units:
        print(f"{k:32s} {metrics[k]:.6g} {units[k]}")
    print(f"failed {failed} of {attempted} operations; ref_err_max {ref_err:.3g} per unit notional")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
