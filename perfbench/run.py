#!/usr/bin/env python3
"""Host-time benchmark over the paper's own experiment harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the simulator libraries and the
g5r-perfbench binary from source (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload for the given host seconds, checks every
job's output, and prints one JSON result object as the last line of stdout.

Workloads (see BENCHMARK.json for why each is there):
  fig7_dse      Fig. 7 DSE columns: 1, 2 and 4 NVDLA instances, every DRAM
                technology, both accelerator memory paths (direct, DMA + SPM)
  table2_pmu    Table 2 rows: sort benchmark on an OoO core, without the PMU,
                with it gated and ungated, and attached but idle
  table3_nvdla  Table 3 rows: Sanity3 + GoogleNet on the full SoC, gated and
                ungated, plus the standalone-model baseline

A job calls the experiment harness (experiments::runNvdlaDse,
runPmuSortExperiment) once per point; all jobs of a run simulate the same
points, in an order drawn from --seed.

--trace 0 reports the end-to-end metrics:
  job_ms    host milliseconds per job, harness calls from start to result
  setup_s   host seconds per job the harness spends before simulating:
            the same calls with a zero-tick budget
Each is the sum over the job's points of that point's fastest time among
the run's jobs. On a shared host, contention only ever slows a point, and in
bursts of a few seconds; the fastest repetition is the steadiest estimate of
the code's own cost (see CHANGES.md for the measured spreads).
--trace 1 rotates jobs over three observer settings (harness defaults plus
the profiler, request trace only, none) and reports:
  <layer>_ms, <layer>_events  host time and dispatched events per simulator
            layer, from the HostProfiler (event_loop is the time no
            handler claimed; driver is the NVDLA host, SPM prefetcher and
            PMU observer software)
  events, ns_per_event        all dispatched events, and host time per event
            inside Simulation::run() with the profiler sampling
  reqtrace_cost_pct, profiler_cost_pct  extra job time with an in-memory
            request trace / with the profiler on
  setup_ms, run_ms, teardown_ms  a job split into set-up, Simulation::run()
            and result collection (the rest), with the harness defaults
  standalone_ms               the NVDLA traces on the bare model, no
            simulator around it (Table 3's baseline; 0 elsewhere)
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_dse", "table2_pmu", "table3_nvdla")
LAYERS = ("event_loop", "xbar", "dram", "dma_spm", "rtl", "cpu", "cache", "driver")
# Longest a run may take once built; g5r-perfbench stops on its own after
# --seconds plus one job, so hitting this means it hung.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build g5r-perfbench; return (build dir, binary)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "g5r-perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir, os.path.join(build_dir, "g5r-perfbench")


def run_jobs(build_dir, binary, args):
    """Run g5r-perfbench; return its per-job records."""
    # The simulator reads GEM5RTL_* overlays and G5R_MODEL_DIR from the
    # environment; none may leak in and change what is measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GEM5RTL_") and k != "G5R_MODEL_DIR"}
    work = os.path.join(build_dir, "run")
    os.makedirs(work, exist_ok=True)
    proc = subprocess.run(
        [binary, args.workload, str(args.seed), str(args.seconds), str(args.trace)],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def fastest(jobs, key):
    """Per-point minimum over the jobs' `key` timings, summed over points."""
    return sum(min(times) for times in zip(*(j[key] for j in jobs)))


def job_s(job):
    return sum(job["point_s"])


def median_of(jobs, fn):
    return statistics.median(fn(j) for j in jobs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs):
    return {
        "job_ms": metric(1e3 * fastest(jobs, "point_s"), "ms"),
        "setup_s": metric(fastest(jobs, "setup_point_s"), "s"),
    }


def per_layer(jobs):
    by_variant = {}
    for j in jobs:
        by_variant.setdefault(j["variant"], []).append(j)
    profiled = by_variant["profiled"]
    reqtrace = by_variant["reqtrace"]
    bare = by_variant["bare"]
    out = {}
    for layer in LAYERS:
        out[layer + "_ms"] = metric(median_of(profiled, lambda j: 1e3 * j["layer_s"][layer]),
                                    "ms")
    for layer in LAYERS[1:]:
        out[layer + "_events"] = metric(profiled[0]["layer_events"][layer], "count")
    out["events"] = metric(profiled[0]["events"], "count")
    out["ns_per_event"] = metric(median_of(profiled, lambda j: 1e9 * j["run_s"] / j["events"]),
                                 "ns")
    # Observer prices, from interleaved jobs of identical simulated work. The
    # profiled jobs keep the harness's own request-trace setting.
    bare_s = fastest(bare, "point_s")
    reqtrace_s = fastest(reqtrace, "point_s")
    out["reqtrace_cost_pct"] = metric(100.0 * (reqtrace_s / bare_s - 1.0), "%")
    base_s = reqtrace_s if profiled[0]["traced"] else bare_s
    out["profiler_cost_pct"] = metric(
        100.0 * (fastest(profiled, "point_s") / base_s - 1.0), "%")
    setup = median_of(profiled, lambda j: sum(j["setup_point_s"]))
    run = median_of(profiled, lambda j: j["run_s"])
    rest = median_of(profiled, lambda j: job_s(j) - j["run_s"] - j["standalone_s"])
    out["setup_ms"] = metric(1e3 * setup, "ms")
    out["run_ms"] = metric(1e3 * run, "ms")
    out["teardown_ms"] = metric(1e3 * max(0.0, rest - setup), "ms")
    out["standalone_ms"] = metric(median_of(jobs, lambda j: 1e3 * j["standalone_s"]), "ms")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build_dir, binary = build()
        jobs = run_jobs(build_dir, binary, args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    attempted = sum(j["points"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    correct = attempted > 0 and failed == 0
    metrics = per_layer(jobs) if args.trace else end_to_end(jobs)

    print(f"# {args.workload} seed={args.seed}: {len(jobs)} jobs, "
          f"{attempted} simulations, {failed} failed")
    for name, m in metrics.items():
        print(f"#   {name:20s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
