#!/usr/bin/env python3
"""Time-to-answer benchmark: build perfbench, run one workload, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: lse_jit_cold, lse_eager_1e7, lse_trials (see README.md in
this directory).  The script configures and builds perfbench/CMakeLists.txt
into .bench_build/perfbench on first use, runs the perfbench binary, checks
every instance's answer, and prints:

  * a header line (nproc, executor width, POPS_EPOCH_SHARDS, compiler,
    build type) so results are compared like with like;
  * one line per metric with its value and unit;
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics.

--trace 0 reports the end-to-end metrics; --trace 1 runs instance seeds
twice each, untraced and traced, and reports the per-layer metrics computed
from the traced rounds' spans, plus the tracing overhead.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("lse_jit_cold", "lse_eager_1e7", "lse_trials")
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "time_to_answer_s": "s",
    "setup_s": "s",
    "interactions_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def answer_ok(workload, header, output):
    """The workload's answer check on one instance's common output."""
    if workload == "lse_jit_cold":
        # Theorem 3.1: the estimate is within 5.7 of log2 n.
        return abs(output - math.log2(header["n"])) <= 5.7
    # The small and tiny presets saturate: the estimate is the cap plus one.
    return output == header["geometric_cap"] + 1


def count_instances(workload, doc, problems):
    attempted = failed = 0
    for rnd in doc["rounds"]:
        for inst in rnd["instances"]:
            attempted += 1
            if not inst["answered"] or not answer_ok(workload, doc["header"], inst["output"]):
                failed += 1
    if attempted == 0:
        problems.append("no instance ran")
    return attempted, failed


def end_to_end(doc):
    rounds = doc["rounds"]
    interactions = sum(i["interactions"] for r in rounds for i in r["instances"])
    answer_s = sum(r["answer_s"] for r in rounds)
    return {
        # Rounds differ in trajectory (the protocols' convergence time is
        # random), so the mean over a run's rounds is the steadier figure.
        "time_to_answer_s": sum(r["setup_s"] + r["answer_s"] for r in rounds) / len(rounds),
        "setup_s": statistics.median(doc["setup_samples"]),
        "interactions_per_s": interactions / answer_s,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def layer_self_times(spans):
    """Self time per layer in thread-seconds.

    A span's self time is its duration minus its children's.  A fan-out
    span (width > 1) owns width x duration thread-seconds, minus every
    child whatever thread it ran on; what remains is the fan-out's idle
    tail.  JIT time aggregated on sim.advance moves from sim to jit.  The
    root span's self time is benchmark glue between layer calls: the
    unaccounted remainder.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    layer = {"compile": "compile", "sim": "sim", "check": "harness",
             "harness": "exec", "exec": "exec", "bench": "unaccounted"}
    selfs = defaultdict(float)
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = children[s["id"]]
        if s["width"] > 1:
            own = s["width"] * dur - sum(k["end_ns"] - k["start_ns"] for k in kids)
        else:
            own = dur - sum(k["end_ns"] - k["start_ns"] for k in kids
                            if k["thread"] == s["thread"])
        own -= s["jit_ns"]
        selfs["jit"] += s["jit_ns"]
        selfs[layer[s["name"].split(".")[0]]] += own
    return defaultdict(float, {k: v * 1e-9 for k, v in selfs.items()})


def per_layer(doc, trace, problems):
    """Per-layer metrics of a traced run, summed over its traced rounds."""
    plain = {r["instance_seed"]: r for r in doc["rounds"] if not r["traced"]}
    traced = [r for r in doc["rounds"] if r["traced"]]
    for r in traced:
        twin = plain[r["instance_seed"]]
        for key in ("interactions", "ptime"):
            if [i[key] for i in twin["instances"]] != [i[key] for i in r["instances"]]:
                problems.append(f"traced round's {key} differ from the untraced round's")
        if r["jit_pairs"] != r["lazy_pairs"] or r["jit_states"] != r["lazy_states"]:
            problems.append("the timed JIT wrapper did not forward exactly")

    spans = trace["spans"]

    def total(name, field=None):
        sel = [s for s in spans if s["name"] == name]
        if field:
            return sum(s[field] for s in sel)
        return sum(s["end_ns"] - s["start_ns"] for s in sel) * 1e-9

    def durations(name):
        return [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans if s["name"] == name]

    insts = [i for r in traced for i in r["instances"]]
    interactions = sum(i["interactions"] for i in insts)
    jit_pairs = sum(r["jit_pairs"] for r in traced)
    jit_s = total("sim.advance", "jit_ns") * 1e-9
    sim_self = total("sim.advance") - jit_s
    trials = durations("exec.trial")
    fanout = [s for s in spans if s["name"] == "harness.trials"]
    fanout_capacity = sum((s["end_ns"] - s["start_ns"]) * 1e-9 * s["width"] for s in fanout)
    wall = total("bench.round")
    selfs = layer_self_times(spans)
    thread_s = sum(selfs.values())
    untraced_tta = sum(plain[r["instance_seed"]]["setup_s"] + plain[r["instance_seed"]]["answer_s"]
                       for r in traced)
    traced_tta = sum(r["setup_s"] + r["answer_s"] for r in traced)
    metrics = {
        "compile.eager_s": total("compile.eager"),
        "compile.states": traced[0]["compile_states"],
        "compile.transitions": traced[0]["compile_transitions"],
        "jit.compile_s": jit_s,
        "jit.pairs": jit_pairs,
        "jit.states": sum(r["jit_states"] for r in traced),
        "jit.us_per_pair": 1e6 * jit_s / jit_pairs if jit_pairs else 0.0,
        "sim.build_s": total("sim.build"),
        "sim.self_s": sim_self,
        "sim.ns_per_interaction": 1e9 * sim_self / interactions,
        "sim.interactions": interactions,
        "sim.ptime": sum(i["ptime"] for i in insts) / len(insts),
        "sim.occupancy_max": max(i["occupancy_max"] for i in insts),
        "check.s": total("check.answer"),
        "check.calls": len(durations("check.answer")),
        "exec.busy_s": sum(trials),
        "exec.utilization": sum(trials) / fanout_capacity if fanout_capacity else 0.0,
        "exec.trial_s_max": max(trials, default=0.0),
        "exec.cpu_per_wall": sum(r["cpu_s"] for r in traced) / sum(r["answer_s"] for r in traced),
        "self.compile_s": selfs["compile"],
        "self.jit_s": selfs["jit"],
        "self.sim_s": selfs["sim"],
        "self.harness_s": selfs["harness"],
        "self.exec_s": selfs["exec"],
        "trace.wall_s": wall,
        "trace.thread_s": thread_s,
        "trace.unaccounted_s": selfs["unaccounted"],
        "trace.unaccounted_frac": selfs["unaccounted"] / thread_s,
        "trace.overhead_frac": traced_tta / untraced_tta - 1.0,
    }
    return metrics


LAYER_UNITS = {
    "compile.eager_s": "s", "compile.states": "count", "compile.transitions": "count",
    "jit.compile_s": "s", "jit.pairs": "count", "jit.states": "count",
    "jit.us_per_pair": "us", "sim.build_s": "s", "sim.self_s": "s",
    "sim.ns_per_interaction": "ns", "sim.interactions": "count", "sim.ptime": "ptime",
    "sim.occupancy_max": "count", "check.s": "s", "check.calls": "count",
    "exec.busy_s": "s", "exec.utilization": "ratio", "exec.trial_s_max": "s",
    "exec.cpu_per_wall": "ratio", "self.compile_s": "s", "self.jit_s": "s",
    "self.sim_s": "s", "self.harness_s": "s", "self.exec_s": "s",
    "trace.wall_s": "s", "trace.thread_s": "s", "trace.unaccounted_s": "s",
    "trace.unaccounted_frac": "ratio", "trace.overhead_frac": "ratio",
}


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; print its header and metric lines.

    Returns (attempted, failed, problems, metrics, units), or None when the
    binary did not produce a result.
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    trace_path = BUILD / f"trace-{workload}-{seed}.json"
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=True)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: run failed: {err}")
        return None
    doc = json.loads(proc.stdout)
    header = doc["header"]

    problems = []
    if header["executor_width"] != header["nproc"]:
        problems.append("executor width is not pinned to nproc")
    attempted, failed = count_instances(workload, doc, problems)
    if trace:
        with open(trace_path) as f:
            metrics = per_layer(doc, json.load(f), problems)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(doc)
        units = END_TO_END_UNITS
    for p in problems:
        log(f"perfbench: {workload}: check failed: {p}")

    # fail_frac is printed, not put in the result's metrics: it reads 0
    # when every instance answers, and the result carries attempted/failed.
    print(json.dumps({"header": header, "rounds": len(doc["rounds"])}))
    rows = dict(metrics, fail_frac=failed / attempted if attempted else 1.0)
    for name, value in rows.items():
        print(f"{workload:16s} {name:24s} {value:>16.6g} {units.get(name, 'ratio')}")
    return attempted, failed, problems, metrics, units


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    ok = True
    result = {}
    for workload in workloads:
        out = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        if out is None:
            return 1
        a, f, problems, metrics, units = out
        attempted += a
        failed += f
        ok = ok and not problems
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, value in metrics.items():
            result[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
