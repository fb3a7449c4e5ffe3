"""One pass of every benchmark workload verifies against the benchmark's golden digests.

perfbench/workloads.py drives charvar through its public calls (compute_invariant,
build_group, character_table, point_count_bridge, the in-process CLI), so a
change that breaks one of those calls, or the bytes of a document, fails here
rather than only in a benchmark run.  The module is read as source and executed,
as tests/test_trace_sites.py reads the tracer, so nothing is written under
perfbench/; each workload's set-up works under tmp_path.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import charvar.invariants as invariants

_DIR = Path(__file__).resolve().parents[1] / "perfbench"
workloads = types.ModuleType("perfbench_workloads")
sys.modules[workloads.__name__] = workloads  # its dataclasses look their module up
exec(compile((_DIR / "workloads.py").read_text(), str(_DIR / "workloads.py"), "exec"),
     workloads.__dict__)
GOLDEN = {k: v["sha256"] for k, v in json.loads((_DIR / "golden.json").read_text()).items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_the_workload_verifies(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workload.inputs(0), tmp_path)
    try:
        workload.before_pass(state)
        attempted, failed = workload.verify(state, workload.run_pass(state), GOLDEN)
    finally:
        workload.teardown(state)
        invariants.clear_memo()
    assert attempted > 0 and failed == 0
