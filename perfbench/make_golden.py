"""Regenerate golden.json: SHA-256 of the canonical document of every polynomial operation.

    python3 perfbench/make_golden.py

Every document the workloads produce is computed once, and each is
cross-checked against the independent oracles that apply before its digest is
written:

* its attached checks (degrees, duality, positivity, ...) all pass;
* the printed closed forms E2, H2, H3 and PP3 (g >= 1);
* Hqt at t = -1 equals E, and Hxy at x = y = t equals Hqt, at the same (n, g).

The script refuses to write anything if one cross-check fails.  Run it only
when the canonical document format changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

from charvar import invariants as inv  # noqa: E402

CLOSED_FORMS = {("E", 2): "E2", ("Hqt", 2): "H2", ("Hqt", 3): "H3", ("PP", 3): "PP3"}
SPECIALIZATIONS = {"Hqt": ("to_E", "E"), "Hxy": ("xy_to_qt", "Hqt")}


def document_keys():
    keys = set()
    for w in workloads.WORKLOADS.values():
        if isinstance(w, workloads.Invariants):
            keys.update(w.ops)
        elif isinstance(w, workloads.CacheServe):
            keys.update(w.grid)
    return sorted({(inv.parse_kind(k).value, n, g) for k, n, g in keys})


def oracles(result):
    """Names of the oracles that confirmed the result; raises if one disagrees."""
    kind, n, g = result.kind.value, result.n, result.g
    confirmed = []
    if not result.checks.all_passed:
        raise AssertionError(f"attached checks fail for {kind} n={n} g={g}")
    confirmed.append("attached_checks")
    form = CLOSED_FORMS.get((kind, n))
    if form and g >= 1:
        if result.polynomial != inv.closed_form(form, g).as_polynomial():
            raise AssertionError(f"{kind} n={n} g={g} differs from closed form {form}")
        confirmed.append(f"closed_form_{form}")
    if kind in SPECIALIZATIONS:
        target, other = SPECIALIZATIONS[kind]
        expected = inv.compute_invariant(other, n, g).polynomial
        if inv.specialize_invariant(result, target) != expected:
            raise AssertionError(f"{kind} n={n} g={g}: {target} differs from {other}")
        confirmed.append(f"{target}_matches_{other}")
    return confirmed


def main():
    golden = {}
    for kind, n, g in document_keys():
        result = inv.compute_invariant(kind, n, g)
        golden[workloads.doc_key(kind, n, g)] = {
            "sha256": workloads.result_digest(result),
            "oracles": oracles(result),
        }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests")


if __name__ == "__main__":
    main()
