"""Record the reference digests that gate the figures and audit workloads.

    python3 perfbench/record_reference.py            # seeds 0..15

Runs one pass of each gated workload per seed, checks every invariant, and
writes the per-op digests to ``perfbench/reference_digests.json``. Re-record
only when a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(16)

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402  (stdlib only: BLAS is pinned before numpy loads)

os.environ.update({var: "1" for var in worker.PIN_VARS})

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, list[str]]] = {}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    for workload in workloads.REFERENCE_WORKLOADS:
        reference[workload] = {}
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=out)
            try:
                ops = workloads.OP_LISTS[workload](seed, workdir)
                _, _, outputs = worker.run_pass(ops, tracing.Tracer(), False)
                digests, failures, _ = worker.check_pass(ops, outputs, True, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failures:
                print(f"{workload} seed {seed}: {failures}", file=sys.stderr)
                return 1
            reference[workload][str(seed)] = digests
            print(f"{workload} seed {seed}: {workloads.digest_of(','.join(digests))}")
    with open(HERE / "reference_digests.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
