"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-small --seed 1 \\
        --seconds 30 --trace 0

The workload's inputs are derived from ``--seed``.  Setup runs several
times and its median is ``setup_s``; then whole passes over the inputs
run until ``--seconds`` would be exceeded (at least one), and ``wall_s``
is the fastest of them.  Every verdict
is checked afterwards; a violation counts as a failed operation and
makes the run exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
of ``--seconds`` on untraced passes (per-layer counters read from each
record's own stats, and the baseline for ``trace.overhead``), then makes
one pass with spans installed and reports calls and self time per span
and per layer.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report (provenance, instance list, every span) and the raw
spans of a traced pass are written under ``.perfbench_out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(mode):
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json declares, in its order."""
    with open(BENCHMARK) as handle:
        declared = json.load(handle)[mode]
    return {metric["name"]: metric["unit"] for metric in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_commit():
    """HEAD's commit if the checkout is a git work tree, else ``None``."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the paths and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload, seed):
    uname = os.uname()
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": uname.machine,
        "host": uname.nodename,
        "kernel": "%s %s" % (uname.sysname, uname.release),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "instances": workload.instance_names(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def run_passes(workload, budget_s):
    """Whole untraced passes until the next would overrun ``budget_s``."""
    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass(len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > budget_s:
            return passes


def record_metrics(ops):
    """Per-layer counters summed from the engine stats of one pass."""
    from repro.core.config import Manthan3Config
    from repro.core.result import Status

    cap = Manthan3Config().max_repair_iterations
    runs = [op for op in ops if "phases" in op.stats]
    metrics = {}
    for phase in ("sample", "preprocess", "learn", "order",
                  "verify_repair"):
        metrics["phase.%s_s" % phase] = sum(
            op.stats["phases"].get(phase, 0.0) for op in runs)
    capped = [op for op in runs if op.status == Status.UNKNOWN
              and op.stats.get("repair_iterations", 0) >= cap]
    iterations = sum(op.stats.get("repair_iterations", 0) for op in runs)
    useful = sum(op.stats.get("repair_iterations", 0)
                 for op in runs if op.decided)
    metrics.update({
        "repair.iterations": iterations,
        "repair.iterations_decided": useful,
        "repair.useful_ratio": useful / iterations if iterations else None,
        "repair.cap_hits": len(capped),
        "repair.cap_hit_s": sum(op.stats.get("wall_time", 0.0)
                                for op in capped),
    })
    counters = {}
    encode = [0, 0]
    bitops = 0
    for op in runs:
        oracle = op.stats.get("oracle", {})
        for name in ("verifier", "matrix", "sampler"):
            block = oracle.get(name, {})
            calls = sum(v for k, v in block.items()
                        if k == "calls" or k.startswith("calls_"))
            for key, value in (("calls", calls),
                               ("conflicts", block.get("conflicts", 0))):
                label = "oracle.%s.%s" % (name, key)
                counters[label] = counters.get(label, 0) + value
        verifier = oracle.get("verifier", {})
        encode[0] += verifier.get("encode_hits", 0)
        encode[1] += verifier.get("encode_misses", 0)
        bitops += op.stats.get("learning", {}).get("bitops", 0)
    metrics.update(counters)
    metrics["tseitin.hit_ratio"] = encode[0] / sum(encode) \
        if sum(encode) else None
    metrics["learn.bitops"] = bitops
    return metrics


def trace_metrics(summary, traced_wall_s, untraced_wall_s):
    from perfbench.tracing import SAT_SPLIT

    metrics = {}
    for name, entry in summary["spans"].items():
        metrics[name + ".calls"] = entry["calls"]
        metrics[name + ".self_s"] = entry["self_s"]
    for name, entry in summary["sat_split"].items():
        metrics[name + ".calls"] = entry["calls"]
        metrics[name + ".self_s"] = entry["self_s"]
    for name in SAT_SPLIT:
        metrics.setdefault("sat.solve.in.%s.calls" % name, 0)
        metrics.setdefault("sat.solve.in.%s.self_s" % name, 0.0)
    for layer, entry in summary["layers"].items():
        metrics["layer.%s.calls" % layer] = entry["calls"]
        metrics["layer.%s.self_s" % layer] = entry["self_s"]
    metrics["trace.overhead"] = traced_wall_s / untraced_wall_s - 1
    metrics["trace.uncovered_share"] = summary["uncovered_share"]
    metrics["trace.sat_share"] = \
        summary["layers"]["sat"]["self_s"] / traced_wall_s
    return metrics


def reset_peak_rss():
    """Restart the kernel's peak-resident-memory mark (``VmHWM``), so
    that the peak read after the passes does not include the setup."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb():
    """Peak resident memory since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def format_value(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: no src/repro under %s; run from a full "
                 "checkout of the repository" % ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        return measure(args, workloads.WORKLOADS[args.workload](), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir):
    from perfbench import tracing, workloads

    # Every setup and pass starts from a collected heap, so that garbage
    # left by the previous one does not trigger collections inside it.
    setup_times = []
    for _ in range(workload.setups):
        gc.collect()
        started = time.perf_counter()
        workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - started)
    reset_peak_rss()

    if args.trace:
        passes = run_passes(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        gc.collect()
        try:
            traced = workload.run_pass(len(passes), tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
    else:
        passes = run_passes(workload, args.seconds)

    rss_mb = peak_rss_mb()  # before the checks allocate their own
    ops = [op for one in passes for op in one.ops]
    for op in ops:
        violation = workloads.known_answer_violation(op.name, op.status)
        if violation:
            op.violations.append(violation)
        workload.check(op)
    failed = [op for op in ops if op.violations]
    untraced = [one for one in passes if not one.traced]
    # The fastest pass: contention from other processes on the machine
    # only ever lengthens a pass.
    untraced_wall = min(one.wall_s for one in untraced)
    untraced_ops = [op for one in untraced for op in one.ops]

    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": untraced_wall,
        "op_p50_s": statistics.median(op.latency_s for op in untraced_ops),
        "decided_share": sum(op.decided for op in untraced_ops)
        / len(untraced_ops),
        "peak_rss_mb": rss_mb,
    }
    metrics.update(record_metrics(untraced[0].ops))
    report = {
        "workload": workload.name,
        "provenance": provenance(workload, args.seed),
        "seconds": args.seconds,
        "setup_s_runs": setup_times,
        "pass_wall_s": [one.wall_s for one in passes],
        "pass_traced": [one.traced for one in passes],
        "ops_per_pass": len(passes[0].ops),
        "extras": workload.extras(passes),
        "failures": [{"op": op.name, "violations": op.violations}
                     for op in failed],
    }
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (workload.name, args.seed, args.trace))
    if args.trace:
        summary = tracer.summary(traced.wall_s)
        metrics.update(trace_metrics(summary, traced.wall_s,
                                     untraced_wall))
        report["trace"] = summary
        tracer.write(stem + ".spans.json")
        wanted = metric_units("per_layer")
    else:
        wanted = metric_units("end_to_end")
    report["metrics"] = metrics
    with open(stem + ".report.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    print_report(workload, report, metrics, wanted, args.trace)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


def print_report(workload, report, metrics, wanted, traced):
    prov = report["provenance"]
    print("perfbench %s seed=%d commit=%s src=%s python=%s nproc=%d "
          "machine=%s" % (workload.name, prov["seed"], prov["commit"],
                          prov["src_sha256"][:12], prov["python"],
                          prov["nproc"], prov["machine"]))
    print("  passes: %s" % ", ".join(
        "%.3fs%s" % (wall, " (traced)" if t else "")
        for wall, t in zip(report["pass_wall_s"], report["pass_traced"])))
    for name, value in sorted(report["extras"].items()):
        if isinstance(value, dict):
            print("  %-28s %s %s" % (name, format_value(value["value"]),
                                     value["unit"]))
        else:
            print("  %-28s %s" % (name, value))
    for name, unit in wanted.items():
        print("  %-28s %s %s" % (name, format_value(metrics[name]), unit))
    if traced:
        trace = report["trace"]
        wall_s = report["pass_wall_s"][-1]
        for title, table in (("span", trace["spans"]),
                             ("sat.solve by enclosing span",
                              trace["sat_split"]),
                             ("layer", trace["layers"])):
            print("  %-36s %9s %10s %7s" % (title, "calls", "self_s",
                                            "share"))
            for name, entry in sorted(table.items(),
                                      key=lambda item: -(item[1]["self_s"]
                                                         or 0.0)):
                self_s = entry["self_s"]
                print("  %-36s %9d %10s %7s" % (
                    name, entry["calls"],
                    "-" if self_s is None else "%.4f" % self_s,
                    "-" if self_s is None else "%.1f%%"
                    % (100 * self_s / wall_s)))
        for name in trace["counted_only"]:
            print("  %s: calls counted, not timed; their time is in the "
                  "self time of the calling spans" % name)
    for failure in report["failures"]:
        print("  FAILED %s: %s" % (failure["op"],
                                   "; ".join(failure["violations"])))


if __name__ == "__main__":
    sys.exit(main())
