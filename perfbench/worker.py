"""One workload process: import flowswitch, build the op list, run passes.

Started by ``run.py``; not meant to be run by hand. It prints ``ready``
once the op list is built (the launcher times process start to that line
as set-up), and with ``--mode run`` it then makes passes over the op list
until ``--seconds`` have gone by and prints one ``RESULT {json}`` line.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
numbers come from the traced passes and the tracing overhead is the
difference between the two kinds of pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--spans")
    args = parser.parse_args()

    for var in PIN_VARS:  # BLAS reads these once, at numpy import
        os.environ[var] = "1"
    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import flowswitch
    if Path(flowswitch.__file__).resolve().parent != (src / "flowswitch").resolve():
        print(f"flowswitch imported from {flowswitch.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - started

    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        started = time.perf_counter()
        ops = workloads.OP_LISTS[args.workload](args.seed, workdir)
        inputs_s = time.perf_counter() - started
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(args, ops, root)
        result["setup"] = {"import_s": import_s, "inputs_s": inputs_s}
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference(root: Path, workload: str, seed: int) -> list[str] | None:
    path = root / "perfbench" / "reference_digests.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


_CAL_RNG = random.Random(0)
_CAL_TABLE = list(range(100_000))  # a few MB: larger than L2, like the ops' data
_CAL_READS = [_CAL_RNG.randrange(len(_CAL_TABLE)) for _ in range(4_000)]


def calibration_loop() -> int:
    """Fixed pure-Python work timed beside every op: the unit ``cal``.

    On a shared virtual machine the CPU speed can drift by up to a factor
    of two within minutes, as other load comes and goes on the physical
    cores. An op's duration divided by this loop's duration, measured next
    to it, cancels most of that drift. The loop mixes interpreter
    arithmetic with scattered reads, because the ops slow down under
    contention for execution units and for cache alike. It takes about
    1.5 ms on an uncontended 2.0 GHz Xeon core.
    """
    total = 0
    for i in range(10_000):
        total += i * i % 7
    table = _CAL_TABLE
    for j in _CAL_READS:
        total += table[j]
    return total


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def run_pass(ops, tracer, traced: bool):
    """One pass: per-op seconds, per-op cal units, and the op outputs."""
    latencies, probes, outputs = [], [_timed(calibration_loop)], []
    gc.collect()
    tracer.active = traced
    for index, op in enumerate(ops):
        tracer.op = index
        started = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - started)
        outputs.append((out, error))
        probes.append(_timed(calibration_loop))
    tracer.active = False
    # each op is scaled by the median probe of its neighbourhood: one probe
    # is short enough for a timer tick or an interrupt to skew it
    scaled = [lat / statistics.median(probes[max(0, i - 2):i + 4])
              for i, lat in enumerate(latencies)]
    return latencies, scaled, outputs


def check_pass(ops, outputs, deep: bool, expected: list[str] | None):
    """Digest and check every op's outputs; returns digests and failures."""
    import workloads

    digests, failures, halfwidths = [], [], []
    for index, (op, (out, error)) in enumerate(zip(ops, outputs)):
        problems = [f"raised: {error.strip()}"] if error else []
        text = ""
        if out is not None:
            try:
                text, found = op.check(out, deep)
                problems += found
            except Exception:
                problems.append("check raised: " + traceback.format_exc(limit=3))
        digest = workloads.digest_of(text) if not problems else "failed"
        if expected is not None and not problems and \
                (index >= len(expected) or expected[index] != digest):
            problems.append(f"digest {digest} differs from the reference "
                            f"{expected[index] if index < len(expected) else None}")
        digests.append(digest)
        halfwidths.append(out.get("halfwidth") if out else None)
        if problems:
            failures.append({"op": index, "name": op.name, "problems": problems})
    return digests, failures, halfwidths


def measure(args, ops, root: Path) -> dict:
    import tracing
    import workloads

    expected = load_reference(root, args.workload, args.seed)
    if args.workload in workloads.REFERENCE_WORKLOADS and expected is None:
        expected_note = "no reference at this seed: invariant checks only"
    else:
        expected_note = "compared with the reference" if expected else \
            "not gated (no reference for this workload)"
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    walls = {False: [], True: []}
    walls_cal: list[float] = []
    latencies: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    halfwidths: list[list[float]] = [[] for _ in ops]
    failures = []
    check_s: list[float] = []
    first_digests = None
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        lat, cal, outputs = run_pass(ops, tracer, traced)
        started = time.perf_counter()
        digests, failed, hws = check_pass(ops, outputs, deep=passes == 0,
                                          expected=expected)
        check_s.append(time.perf_counter() - started)
        del outputs  # keep one pass of outputs alive at a time: peak RSS
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            changed = [i for i, (a, b) in enumerate(zip(digests, first_digests))
                       if a != b]
            failed += [{"op": i, "name": ops[i].name,
                        "problems": ["output differs from the first pass"]}
                       for i in changed if all(f["op"] != i for f in failed)]
        failures += [dict(f, passes=passes) for f in failed]
        attempted += len(ops)
        walls[traced].append(sum(lat))
        if not traced:
            walls_cal.append(sum(cal))
            for i in range(len(ops)):
                latencies[i].append(lat[i])
                scaled[i].append(cal[i])
                if hws[i] is not None:
                    halfwidths[i].append(hws[i])
        passes += 1
        if time.perf_counter() >= deadline and (not args.trace or passes >= 2):
            break
    tracer.uninstall()

    def percentiles(per_op):
        samples = [t for values in per_op for t in values]
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        return cuts[49], cuts[89], len(samples), sum(t > cuts[89] for t in samples)

    p50, p90, n_samples, beyond = percentiles(latencies)
    p50_cal, p90_cal, _, _ = percentiles(scaled)
    result = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "digest": workloads.digest_of(",".join(first_digests)),
        "reference": expected_note,
        "wall_s": statistics.median(walls[False]),
        "wall_cal": statistics.median(walls_cal),
        "wall_s_passes": walls[False],
        "wall_cal_passes": walls_cal,
        "check_s_passes": check_s,
        "op_p50_ms": 1e3 * p50, "op_p90_ms": 1e3 * p90,
        "op_p50_cal": p50_cal, "op_p90_cal": p90_cal,
        "latency_samples": n_samples, "beyond_p90": beyond,
        "op_latencies": [{"op": op.name, "ms": [1e3 * t for t in lat], "cal": cal}
                         for op, lat, cal in zip(ops, latencies, scaled)],
    }
    if args.workload == "stochastic":
        result["time_to_1pct_s"] = workloads.time_to_1pct(ops, latencies, halfwidths)
    if args.trace:
        n_traced = len(walls[True])
        layer = tracing.layer_metrics(tracer.totals(), n_traced)
        layer["trace.overhead_s"] = statistics.median(walls[True]) - result["wall_s"]
        result["traced_wall_s_passes"] = walls[True]
        result["layer"] = layer
        if args.spans:
            tracer.write(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
