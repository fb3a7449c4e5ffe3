"""The four benchmark workloads: inputs from a seed, set-up, one timed pass, checks.

A workload is driven by ``child.py`` in this order:

    inputs = w.inputs(seed)                     # plain data, recorded beside the results
    state = w.setup(inputs, workdir)            # counted in setup_s
    loop:  w.before_pass(state)                 # untimed (drops the in-process memo)
           outputs = w.run_pass(state)          # timed: one pass time
           w.verify(state, outputs, golden)     # untimed: (attempted, failed)
    w.teardown(state)

Every call into charvar goes through a module attribute at call time
(``charvar.invariants.compute_invariant``, not a name bound at import), so the
traced run's wrappers, installed after import, see the benchmark's own calls.

Why these four (each one moves where another stays flat):

* ``hqt-sweep``  Hqt n = 1..3 at g = 3 in order from a cold memo.  Heavy on the
  polynomial kernels, and it re-extracts the layers for every n, so an
  incremental sweep shows here.
* ``hxy-point``  one cold Hxy n = 3 at g = 2.  Same kernels, three variables,
  one extraction: a kernel change moves it, an incremental-sweep change leaves
  it flat.
* ``group-oracle``  brute-force vs. character-table tuple counts on SL(2,3),
  GL(2,3) and SL(2,5), and the GL(2,3) <-> E_2 bridge.  Bypasses the
  polynomial stack almost entirely.
* ``cache-serve``  set-up fills a disk cache with a grid of documents; a pass
  serves the whole grid through the in-process CLI.  The read path beside the
  write path, where a verifying cache would show its cost.

Passes are kept to a few tenths of a second, so that a 20 s run holds many of
them and many of the speed probes timed between them (run.py says why).  With
the 4-12 s passes of Hqt n <= 5, Hxy n = 4 and GL(2,7) that the sizes were
first drawn from, a run held two or three passes and wall_s moved by 20-30%
from run to run.  The groups stay small for the same reason, and because the
multiplication tables of SL(2,7), GL(2,5) and GL(2,7) outgrow the caches:
under a neighbour's load they slowed 1.4x where the probe slowed 1.2x.
"""

from __future__ import annotations

import hashlib
import io
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path


def _charvar():
    import charvar.bridge
    import charvar.characters
    import charvar.cli
    import charvar.groups
    import charvar.invariants

    return charvar


def document_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def doc_key(kind: str, n: int, g: int) -> str:
    """Golden-file key; the same spelling as the cache file stem."""
    cv = _charvar()
    return f"{cv.invariants.parse_kind(kind).value}_n{n}_g{g}"


def result_digest(result) -> str:
    inv = _charvar().invariants
    return document_digest(inv.document_bytes(inv.polynomial_document(result)))


@dataclass
class Failure:
    """An operation that raised instead of returning; always fails verification."""

    error: str


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a broken program must count as failed, not stop the run
        print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
        return Failure(repr(exc))


def _verify_documents(keys, results, golden):
    """One operation per key: the document digest matches and every attached check passed."""
    failed = 0
    for key, result in zip(keys, results):
        if isinstance(result, Failure):
            ok = False
        else:
            ok = result_digest(result) == golden.get(key) and result.checks.all_passed
        if not ok:
            print(f"perfbench: verification failed for {key}", file=sys.stderr)
            failed += 1
    return len(keys), failed


class Workload:
    """What the workloads below share; each overrides what it does differently."""

    def setup(self, inputs, workdir):
        _charvar()
        return inputs

    def before_pass(self, state):
        _charvar().invariants.clear_memo()

    def teardown(self, state):
        pass


# -- polynomial workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Invariants(Workload):
    """compute_invariant on each (kind, n, g) of ``ops`` in order, from a cold memo.

    The order is part of the workload (later ops may reuse the memo), so the
    seed does not permute it.
    """

    name: str
    ops: tuple

    def inputs(self, seed):
        return [list(op) for op in self.ops]

    def run_pass(self, state):
        inv = _charvar().invariants
        return [_attempt(inv.compute_invariant, k, n, g) for k, n, g in state]

    def verify(self, state, outputs, golden):
        return _verify_documents([doc_key(*op) for op in state], outputs, golden)


def hqt_sweep(nmax=3, g=3):
    return Invariants("hqt-sweep", tuple(("hqt", n, g) for n in range(1, nmax + 1)))


def hxy_point(n=3, g=2):
    return Invariants("hxy-point", (("hxy", n, g),))


# -- finite-group oracle ------------------------------------------------------------


@dataclass(frozen=True)
class GroupOracle(Workload):
    groups: tuple = (("SL", 3, (1, 2, 3)), ("GL", 3, (1, 2, 3)), ("SL", 5, (1, 2, 3)))  # (family, q, genera)
    bridges: tuple = ((3, 1), (3, 2), (3, 3))
    name: str = "group-oracle"

    def inputs(self, seed):
        ops = [["count", family, q, list(genera)] for family, q, genera in self.groups]
        ops += [["bridge", q, g] for q, g in self.bridges]
        random.Random(seed).shuffle(ops)
        return ops

    def run_pass(self, state):
        return [_attempt(self._run_op, op) for op in state]

    @staticmethod
    def _run_op(op):
        cv = _charvar()
        if op[0] == "bridge":
            return cv.bridge.point_count_bridge(op[1], op[2]).ratio
        _, family, q, genera = op
        # A fresh group per pass: its tables are cached on the object.
        group = cv.groups.build_group(family, 2, q)
        xi = group.central_of_order(2)
        table = cv.characters.character_table(group)
        return [
            (cv.groups.tuple_count(group, g, xi),
             cv.characters.frobenius_sums(table, g, xi).tuple_prediction)
            for g in genera
        ]

    def verify(self, state, outputs, golden):
        attempted = failed = 0
        for op, out in zip(state, outputs):
            if op[0] == "bridge":
                checks = [not isinstance(out, Failure) and out == 1]
            elif isinstance(out, Failure):
                checks = [False] * len(op[3])
            else:
                checks = [brute == character for brute, character in out]
            attempted += len(checks)
            if not all(checks):
                print(f"perfbench: oracle disagreement in {op}", file=sys.stderr)
            failed += checks.count(False)
        return attempted, failed


# -- cache serving --------------------------------------------------------------------


def _full_grid():
    grid = [["E", n, g] for n in range(1, 7) for g in range(5)]
    grid += [["pp", n, g] for n in range(1, 6) for g in range(5)]
    grid += [["hqt", n, g] for n in range(1, 5) for g in range(4)]
    grid += [["hxy", n, g] for n in range(1, 4) for g in range(4)]
    return tuple(tuple(k) for k in grid)


@dataclass
class CacheState:
    keys: list
    cache_dir: Path
    argvs: list


@dataclass(frozen=True)
class CacheServe(Workload):
    grid: tuple = field(default_factory=_full_grid)
    name: str = "cache-serve"

    def inputs(self, seed):
        keys = [list(k) for k in self.grid]
        random.Random(seed).shuffle(keys)
        return keys

    def setup(self, inputs, workdir):
        """Fill a fresh cache directory through the library's write path.

        The fill runs in grid order, not in the seeded serving order, because
        the order decides how much of the layer memo later keys reuse.
        """
        inv = _charvar().invariants
        cache_dir = Path(workdir) / "cache"
        if cache_dir.exists():
            shutil.rmtree(cache_dir)
        cache = inv.InvariantCache(cache_dir)
        for kind, n, g in self.grid:
            inv.compute_invariant(kind, n, g, cache=cache)
        argvs = [
            ["compute", "--kind", kind, "--n", str(n), "--g", str(g),
             "--format", "json", "--cache-dir", str(cache_dir)]
            for kind, n, g in inputs
        ]
        return CacheState(inputs, cache_dir, argvs)

    def run_pass(self, state):
        cli = _charvar().cli
        out = []
        saved = sys.stdout
        try:
            for argv in state.argvs:
                buf = io.BytesIO()
                sys.stdout = io.TextIOWrapper(buf, encoding="utf-8")
                code = _attempt(cli.main, argv)
                sys.stdout.flush()
                out.append((code, buf.getvalue()))
        finally:
            sys.stdout = saved
        return out

    def verify(self, state, outputs, golden):
        failed = 0
        for (kind, n, g), (code, raw) in zip(state.keys, outputs):
            key = doc_key(kind, n, g)
            if code != 0 or document_digest(raw) != golden.get(key):
                print(f"perfbench: served document for {key} is wrong (exit {code!r})",
                      file=sys.stderr)
                failed += 1
        return len(state.keys), failed

    def teardown(self, state):
        shutil.rmtree(state.cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (hqt_sweep(), hxy_point(), GroupOracle(), CacheServe())}

# Seconds-scale versions of the same workloads for selftest.py; every document
# they produce is also produced by a full workload, so golden.json covers them.
TINY = {
    w.name: w
    for w in (
        hqt_sweep(nmax=2),
        hxy_point(n=2, g=2),
        GroupOracle(groups=(("GL", 3, (1, 2)),), bridges=((3, 1),)),
        CacheServe(grid=(("E", 1, 2), ("E", 2, 1), ("hqt", 2, 1), ("pp", 2, 2))),
    )
}
