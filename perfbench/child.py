"""One benchmark child process: set up a workload, time passes, verify, report.

run.py starts it as

    python3 perfbench/child.py --workload W --seed N --seconds S --mode M
        --t-spawn T --workdir D [--size full|tiny] [--golden PATH] [--trace-out PATH]

with M one of ``setup`` (set up, report set-up time, stop), ``measure``
(untraced timed passes) or ``trace`` (set-up with tracer.py's wrappers
installed, then timed passes that alternate untraced and traced).  T is the parent's ``time.monotonic()`` just before
the start, so set-up time counts interpreter start, ``import charvar`` and the
workload's own set-up.  Right after set-up and after each timed pass the
child times ``probe()``, so run.py can scale set-up and pass times by the
machine speed seen at the time.  The
child prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (after the path set-up above)


# A fixed sparse product of tuple-keyed dicts of ints: the kind of work that
# dominates charvar, frozen here so that no change to charvar can move it.
_PROBE_A = {(i, j): 7 * i - j for i in range(24) for j in range(8)}
_PROBE_B = {(i, j): i + 3 * j for i in range(16) for j in range(6)}


SETUP_PROBES = 25  # timed right after set-up, to scale setup_s as passes are scaled


def probe():
    """Seconds for one fixed unit of work: samples the machine's current speed."""
    t0 = time.perf_counter()
    out = {}
    get = out.get
    for (a0, a1), ca in _PROBE_A.items():
        for (b0, b1), cb in _PROBE_B.items():
            key = (a0 + b0, a1 + b1)
            out[key] = get(key, 0) + ca * cb
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = (workloads.TINY if args.size == "tiny" else workloads.WORKLOADS)[args.workload]
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workload.inputs(args.seed)
    state = workload.setup(inputs, args.workdir)
    setup_s = time.monotonic() - args.t_spawn
    setup_probe_s = [probe() for _ in range(SETUP_PROBES)]
    if args.mode == "setup":
        workload.teardown(state)
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0
    setup_record = tracer.take() if tracer else None

    golden = {k: v["sha256"] for k, v in json.loads(Path(args.golden).read_text()).items()}
    pass_s, traced_s, probe_s, records = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # Traced passes alternate with untraced ones, so that trace.overhead
        # compares passes that ran in the same minutes of a shared machine.
        traced = tracer is not None and len(pass_s) > len(traced_s)
        workload.before_pass(state)
        if tracer:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            tracer.take()  # drop whatever the untimed steps between passes recorded
        t0 = time.perf_counter()
        outputs = workload.run_pass(state)
        (traced_s if traced else pass_s).append(time.perf_counter() - t0)
        if traced:
            records.append(tracer.take())
        done, bad = workload.verify(state, outputs, golden)
        attempted += done
        failed += bad
        del outputs
        probe_s.append(probe())
        # Stop when another pass would likely end more than half a pass past the budget.
        typical = statistics.median(pass_s + traced_s)
        if time.perf_counter() - start + typical / 2 >= args.seconds and (traced_s or not tracer):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.teardown(state)

    report = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
              "pass_s": pass_s, "probe_s": probe_s,
              "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.uninstall()
        report["traced_s"] = traced_s
        report["layers"] = tracing.layer_metrics(setup_record, records, tracer.hooked)
        report["missing_sites"] = sorted(s for s, ok in tracer.sites.items() if not ok)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(
                {"sites": tracer.sites, "setup": setup_record, "passes": records}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
