"""charvar benchmark: end-to-end metrics per workload, or a separate traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library and
``src/``.  Every workload runs in fresh child processes (child.py):

* ``--trace 0``: SETUP_REPS children are started one after another.  Each sets
  up the workload; the last one then repeats timed passes for S seconds.
  Reported: ``wall_s`` (the mean pass, scaled to the reference machine speed,
  see below), ``setup_s`` (median over the children of the time from
  process start until the workload is ready, scaled by the probes timed right
  after it) and ``peak_rss_mb`` (the timing child's peak resident memory).
* ``--trace 1``: one child whose passes alternate untraced and traced for S
  seconds.  Reported: every per-layer metric of tracer.LAYER_METRICS, averaged
  over the traced passes, and ``trace.overhead`` = median traced / median
  untraced pass - 1 (the alternation gives both sides the same machine).

Why wall_s is scaled.  On a shared machine the speed of a vCPU swings by up to
2x within a second and stays 1.6x slow for minutes at a time, so raw pass
times moved by 20-40% from run to run whatever statistic was taken of them.
After every pass the child times a fixed probe, so the mean pass and the mean
probe average the same stretch of machine speed, and wall_s = mean pass *
REF_PROBE_S / mean probe is seconds at the reference speed.  Across ten runs
its spread stayed near 3%, in fast and in slow spells; the fastest pass, the
median pass and their probe-scaled forms each reached 10-40% in one of them.
The raw pass and probe times are in the record.

Each pass's outputs are verified outside the timed region (workloads.py): a
wrong document digest, a failing attached check, an oracle disagreement or a
raised error counts as a failed operation.  ``attempted`` and ``failed`` in
the last stdout line are those counts; ``correct`` is ``failed == 0``.  The
environment, the inputs and every child's report are written beside the
result to ``perfbench/.work/<workload>-seed<N>-trace<k>.json``.

``--size tiny`` and ``--golden`` exist for selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPS = 3
DEADLINE_S = 170  # the whole run must end within 180 s
# child.probe()'s time on the machine this benchmark was defined on (a 2-vCPU
# Intel Xeon VM at 2.0 GHz, Python 3.11) at its fastest; wall_s reads as seconds there.
REF_PROBE_S = 0.004

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, inputs):
    sources = sorted((ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sources),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": inputs,
    }


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode, seconds, index, deadline):
    workdir = WORK / f"tmp-{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--workdir", str(workdir), "--size", args.size, "--golden", args.golden]
    if mode == "trace":
        cmd += ["--trace-out", str(WORK / f"{args.workload}-seed{args.seed}-spans.json")]
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, deadline):
    """Children and metrics of one run; raises ChildFailed."""
    if args.trace:
        traced = run_child(args, "trace", args.seconds, 0, deadline)
        children = [traced]
        metrics = dict(traced["layers"])
        overhead = statistics.median(traced["traced_s"]) / statistics.median(traced["pass_s"]) - 1
        metrics["trace.overhead"] = metric(overhead, "ratio")
    else:
        children = [run_child(args, "setup", 0, k, deadline) for k in range(SETUP_REPS - 1)]
        timed = run_child(args, "measure", args.seconds, SETUP_REPS - 1, deadline)
        children.append(timed)
        metrics = {
            "wall_s": metric(statistics.mean(timed["pass_s"]) * REF_PROBE_S
                             / statistics.mean(timed["probe_s"]), "s"),
            "setup_s": metric(statistics.median(
                c["setup_s"] * REF_PROBE_S / statistics.mean(c["setup_probe_s"]) for c in children), "s"),
            "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
        }
    return children, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "charvar").is_dir():
        print(f"perfbench: no charvar sources under {ROOT / 'src'}; no result", file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    workload = (workloads.TINY if args.size == "tiny" else workloads.WORKLOADS)[args.workload]
    inputs = workload.inputs(args.seed)
    try:
        children, metrics = measure(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return 1
    attempted = sum(c.get("attempted", 0) for c in children)
    failed = sum(c.get("failed", 0) for c in children)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"environment": environment(args, inputs), "children": children, "result": result}
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
