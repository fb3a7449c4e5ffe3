"""Self-test of the benchmark at a tiny size; takes about half a minute.

    python3 perfbench/selftest.py

Checks that
* every workload, traced and untraced, prints a last line with exactly the
  result keys, a verified non-zero operation count, and every metric that
  BENCHMARK.json names, with its unit, present or marked absent;
* traced call counts are exact (one per call, however many wrappers);
* a corrupted golden digest makes operations fail (fail rate > 0): the gate bites;
* a traced name that disappears is reported absent instead of crashing;
* without src/ the benchmark exits non-zero and prints no result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def run(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def result_of(workload, trace, *extra):
    proc = run(workload, trace, *extra)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(workload, trace, result):
    where = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    check(type(result["attempted"]) is int and result["attempted"] >= 1, f"{where}: attempted")
    check(result["failed"] == 0 and result["correct"] is True, f"{where}: failures on seed code")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{where}: metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
        if got.get("absent"):
            check(got["value"] is None, f"{where}: absent {m['name']} carries a value")
        else:
            check(isinstance(got["value"], (int, float)), f"{where}: value of {m['name']}")


def check_counts(traced):
    """Exact per-pass counts each wrapper must see once per call, not once per wrapper."""
    sweep = traced["hqt-sweep"]["metrics"]
    check(sweep["series.extract_layers.calls"]["value"] == len(workloads.TINY["hqt-sweep"].ops),
          "hqt-sweep: one extraction per n")
    served = traced["cache-serve"]["metrics"]
    check(served["invariants.compute_invariant.calls"]["value"] == len(workloads.TINY["cache-serve"].grid),
          "cache-serve: one compute_invariant per served key")


def check_corrupt_golden():
    golden = json.loads((HERE / "golden.json").read_text())
    key = workloads.doc_key(*workloads.TINY["hqt-sweep"].ops[-1])
    golden[key]["sha256"] = "0" * 64
    corrupt = WORK / "selftest-golden.json"
    corrupt.write_text(json.dumps(golden))
    result = result_of("hqt-sweep", 0, "--golden", str(corrupt))
    check(result["failed"] > 0 and result["correct"] is False,
          "a corrupted golden digest left fail_rate at 0")


def check_absent_name():
    import charvar.series

    saved = charvar.series.adams
    del charvar.series.adams
    traced = tracer.Tracer()
    try:
        traced.install()
    finally:
        traced.uninstall()
        charvar.series.adams = saved
    metrics = tracer.layer_metrics(traced.take(), [traced.take()], traced.hooked)
    check(metrics["polynomials.adams.s"].get("absent") is True, "a missing name is not absent")
    check(metrics["polynomials.cancel.s"]["value"] == 0.0, "an installed name is marked absent")


def check_without_src():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("hqt-sweep", 0, cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "ran without src/")


def main():
    WORK.mkdir(exist_ok=True)
    traced = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = result_of(name, trace)
            check_schema(name, trace, result)
            if trace:
                traced[name] = result
    check_counts(traced)
    check_corrupt_golden()
    check_absent_name()
    check_without_src()
    print("selftest passed")


if __name__ == "__main__":
    main()
