"""The flowswitch benchmark.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
    figures     reproduce-figure cells: instance building, bulk engine, costing
    audit       run and opt with the DP and dual oracles, trace CSV round trips,
                general-size SRPT runs and the batch horizon search
    stochastic  CTMC simulations against closed forms, alg3, analytic costs

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
several fresh processes), the median pass wall time and per-op latency
percentiles, both in seconds and in ``cal`` units (op time over a fixed
calibration loop timed beside it, which cancels drift in the host's CPU
speed; see ``worker.calibration_loop``), peak RSS, the op counts and, for
``stochastic``, the projected time to a 1% confidence interval. With ``--trace 1`` it prints the per-layer table from
traced passes and the tracing overhead, and writes the spans as JSON lines
under ``.perfbench_out/``. Every op's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run it from the root of a source checkout: it
imports flowswitch from ``src/`` and exits non-zero without a result when
that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("figures", "audit", "stochastic")
SETUP_PROCESSES = 2  # set-up-only processes; the measuring one adds a sample
DEADLINE_S = 170.0   # whole run, set-up processes included
# The end-to-end metrics of BENCHMARK.json. Op times are gated in cal units
# (see worker.calibration_loop) because raw seconds drift with the host.
E2E_METRICS = ("setup_s", "wall_cal", "op_p50_cal", "op_p90_cal", "peak_rss_mb")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402  (no flowswitch import: safe without src/)


def spawn(args, mode: str, timeout: float, spans: Path | None = None):
    """Run one worker; returns (seconds from start to 'ready', result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = None
        result = None
        for line in proc.stdout:
            if line.strip() == "ready" and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (mode == "run" and result is None):
        raise RuntimeError(f"worker ({mode}) exited with code {code}")
    return ready, result


def provenance(args) -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "not installed"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "blas_threads": "1 (OMP/OPENBLAS/MKL/BLIS/NUMEXPR_NUM_THREADS=1)",
        "git_commit": git_commit(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    if not (ROOT / "src" / "flowswitch" / "__init__.py").is_file():
        print(f"error: no flowswitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROCESSES):
                setups.append(spawn(args, "setup", deadline - time.perf_counter())[0])
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
        ready, result = spawn(args, "run", deadline - time.perf_counter(), spans)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    prov = provenance(args)
    record = {"provenance": prov, "setup_samples_s": setups, **result}
    print("provenance: " + json.dumps(prov))
    print(f"digest {args.workload} seed={args.seed}: {result['digest']} "
          f"({result['reference']})")
    print(f"passes: {result['passes']}, ops per pass: {result['ops_per_pass']}")
    for failure in result["failures"]:
        print(f"FAILED op {failure['op']} ({failure['name']}): "
              + "; ".join(failure["problems"]))

    if args.trace:
        metrics = dict(result["layer"])
        metrics["setup.import_s"] = result["setup"]["import_s"]
        metrics["setup.inputs_s"] = result["setup"]["inputs_s"]
        print(tracing.format_report(metrics))
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass, median "
              f"traced minus median untraced wall_s (traced passes "
              f"{[round(w, 3) for w in result['traced_wall_s_passes']]}, untraced "
              f"{[round(w, 3) for w in result['wall_s_passes']]})")
        if spans is not None:
            print(f"spans written to {spans.relative_to(ROOT)}")
        out_metrics = {name: {"value": metrics[name], "unit": tracing.metric_unit(name)}
                       for name in tracing.metric_names()}
    else:
        passes = f"median of {result['passes']['untraced']} passes"
        samples = f"n={result['latency_samples']}"
        tail = f"{samples}, {result['beyond_p90']} beyond"
        table = [
            ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} processes"),
            ("wall_s", result["wall_s"], "s", passes),
            ("op_p50_ms", result["op_p50_ms"], "ms", samples),
            ("op_p90_ms", result["op_p90_ms"], "ms", tail),
            ("wall_cal", result["wall_cal"], "cal", passes),
            ("op_p50_cal", result["op_p50_cal"], "cal", samples),
            ("op_p90_cal", result["op_p90_cal"], "cal", tail),
            ("peak_rss_mb", result["peak_rss_mb"], "MB", "measuring process"),
            ("ops", result["attempted"], "count", "attempted"),
            ("ops_failed", result["failed"], "count", "raised, non-zero exit or failed check"),
        ]
        if "time_to_1pct_s" in result:
            table.append(("time_to_1pct_s", result["time_to_1pct_s"], "s",
                          "projected, summed over configurations"))
        for name, value, unit, note in table:
            print(f"{name:16} {value:14.6g} {unit:6} {note}")
        print("cal: one run of the calibration loop timed beside each op "
              "(see worker.calibration_loop)")
        out_metrics = {name: {"value": value, "unit": unit}
                       for name, value, unit, _ in table if name in E2E_METRICS}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
