"""The names the benchmark in ``perfbench/`` looks up in the package.

The bench wraps package functions at the names their callers look them up
under, then drives the lab through three op lists. This suite installs
those wrappers and runs the first op of each kind, so that a change which
drops or renames a name the bench uses fails here, not only in the bench.
"""

import re
import sys
from pathlib import Path

import pytest

from flowswitch import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def first_of_each_kind(ops, workdir):
    """The first op of each kind: ops whose names differ only in numbers
    (sizes, seeds, rates, file names) are of one kind."""
    kinds = {}
    for op in ops:
        kinds.setdefault(re.sub(r"\d+", "#", op.name.replace(workdir, "")), op)
    return list(kinds.values())


@pytest.mark.parametrize("workload", sorted(workloads.OP_LISTS))
def test_first_ops_pass_their_checks_under_the_tracer(workload, tmp_path):
    ops = first_of_each_kind(workloads.OP_LISTS[workload](0, str(tmp_path)),
                             str(tmp_path))
    main = cli.main
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        outputs = [op.run() for op in ops]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert cli.main is main
    for op, out in zip(ops, outputs):
        text, problems = op.check(out, True)
        assert text and problems == [], op.name
    assert tracing.layer_metrics(tracer.totals(), 1)["cli.main.calls"] >= 1
