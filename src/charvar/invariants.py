"""Named invariants of the character varieties, their checks, and caching.

Four invariant kinds are computed from the rank layers of the generating
functions (see charvar.series):

  E    one-variable point-count polynomial E_n(q)
  Hqt  two-variable mixed Hodge polynomial H_n(q,t)
  Hxy  three-variable refinement H_n(q,x,y)
  PP   pure-part Poincare polynomial PP_n(t)

None of the implemented formulas depend on the coprime twisting degree, so no
degree label appears in any signature.  A result is (kind, n, g, polynomial)
and derives the rest: 2N and a CheckReport with the self-contained conjecture
checks for its kind (degrees, positivity, curious duality, Euler characteristic,
...).  The check suites are one table, SUITES (see run_check); the duality,
euler and pp suites read the attached reports, the cross-invariant checks
trigger further computations.

Results are memoized in-process and can additionally be cached on disk as
canonical JSON documents (one per (kind, n, g)).  One renderer writes a
document, InvariantResult.canonical_bytes; the document as a dict is its parse.
A cache hit has one rule: the result is rebuilt for the requested key from the
stored terms alone (dimension and attached checks recomputed), and it is served
only when its canonical document equals the stored bytes.  So a hit reads the
file, parses it, rebuilds the polynomial, recomputes the checks, renders once
and compares: about 0.14 ms per key over the 83 documents of the benchmark's
cache-serve grid (2-vCPU Xeon VM, Python 3.11).
"""

from __future__ import annotations

import functools
import json
import operator
import os
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import prod
from pathlib import Path

from .errors import CharvarError, KindMismatch, UnsupportedGenus
from .groups import _clear_groups, _prime_factors
from .polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FLAVOR_XY,
    FactoredFraction,
    SparsePoly,
    _gl_key,
    binomial_product,
    frac_sum,
    poly_text,
)
from .series import extract_layers, invariant_from_layer

DOCUMENT_VERSION = 1


class InvariantKind(Enum):
    E = "E"
    HQT = "Hqt"
    HXY = "Hxy"
    PP = "PP"

    @property
    def flavor(self):
        return _KIND_FLAVOR[self]


_KIND_FLAVOR = {
    InvariantKind.E: FLAVOR_E,
    InvariantKind.HQT: FLAVOR_QT,
    InvariantKind.HXY: FLAVOR_XY,
    InvariantKind.PP: FLAVOR_PURE,
}


def parse_kind(text) -> InvariantKind:
    if isinstance(text, InvariantKind):
        return text
    try:
        return {"e": InvariantKind.E, "hqt": InvariantKind.HQT,
                "hxy": InvariantKind.HXY, "pp": InvariantKind.PP}[text.lower()]
    except KeyError:
        raise KindMismatch(f"unknown invariant kind {text!r}") from None


@dataclass(frozen=True)
class CheckEntry:
    """One named check outcome; failures always carry a witness."""

    passed: bool
    witness: str | None = None
    detail: str = ""

    def __post_init__(self):
        if not self.passed and not self.witness:
            raise ValueError("failing check entries must carry a witness")


@dataclass
class CheckReport:
    entries: dict[str, CheckEntry] = field(default_factory=dict)

    def add(self, name: str, entry: CheckEntry):
        self.entries[name] = entry

    def merge(self, other: "CheckReport"):
        self.entries.update(other.entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def to_json(self) -> dict:
        return {
            name: {"passed": e.passed, "witness": e.witness, "detail": e.detail}
            for name, e in sorted(self.entries.items())
        }


@dataclass(frozen=True)
class InvariantResult:
    """A computed invariant; its dimension and attached check report derive from it."""

    kind: InvariantKind
    n: int
    g: int
    polynomial: SparsePoly
    dimension: int = field(init=False)  # dimension_2n(kind, n, g)
    checks: CheckReport = field(init=False)  # attached_checks(kind, n, g, polynomial)

    def __post_init__(self):  # module-level names, looked up at call time
        kind, n, g = self.kind, self.n, self.g
        object.__setattr__(self, "dimension", dimension_2n(kind, n, g))
        object.__setattr__(self, "checks", attached_checks(kind, n, g, self.polynomial))

    @functools.cached_property
    def canonical_bytes(self) -> bytes:
        """The canonical JSON document, rendered once per result; the one
        renderer.  The small parts go through document_bytes, the terms, in
        graded-lex order, through one template per arity, and the whole equals
        document_bytes of the document's dict."""
        poly = self.polynomial
        term = b'{"c":"%d","e":[' + b",".join([b"%d"] * len(poly.vars)) + b"]}"
        meta = {"checks": self.checks.to_json(), "dim2N": self.dimension}
        head = document_bytes({"g": self.g, "kind": self.kind.value, "meta": meta, "n": self.n})
        tail = document_bytes({"vars": list(poly.vars), "version": DOCUMENT_VERSION})
        terms = b",".join([term % (c, *e) for e, c in poly.sorted_terms()])
        return head[:-2] + b',"terms":[' + terms + b"]," + tail[1:]  # "}\n" and "{" cut


def moebius(n: int) -> int:
    """(-1)^k for squarefree n with k prime factors, 0 otherwise."""
    if n < 1:
        raise ValueError("moebius wants a positive integer")
    primes = _prime_factors(n)
    return (-1) ** len(primes) if prod(primes) == n else 0


def dimension_2n(kind: InvariantKind, n: int, g: int) -> int:
    """2N, the top degree of E and Hqt (twice the dimension); for PP its degree bound."""
    if kind is InvariantKind.PP:
        return 2 * n * (n - 1) * (g - 1)
    return (n * n - 1) * (2 * g - 2)


# -- computation with memoization ---------------------------------------------

_memo_lock = threading.Lock()
_layer_memo: dict = {}
_result_memo: dict = {}
_NO_LAYERS = (None, None, ())


def _layers(flavor, g: int, nmax: int):
    key = (flavor.name, g)
    with _memo_lock:
        entry = _layer_memo.get(key, _NO_LAYERS)
    if len(entry[2]) < nmax:
        entry = extract_layers(flavor, g, nmax, start=entry)
        with _memo_lock:
            if len(_layer_memo.get(key, _NO_LAYERS)[2]) < nmax:
                _layer_memo[key] = entry
    return entry[2][:nmax]


def clear_memo():
    """Drop the in-process memo (used by tests that time cold runs): the layers,
    the results and the enumerated groups that build_group keeps (one per
    (family, q), tables included, at most 7), so the next build_group
    enumerates afresh."""
    with _memo_lock:
        _layer_memo.clear()
        _result_memo.clear()
    _clear_groups()


def compute_invariant(kind, n: int, g: int, *, cache=None) -> InvariantResult:
    """Compute one invariant, with in-process memoization and optional disk cache.

    Polynomiality or integrality failures surface as NotPolynomial /
    NonIntegerCoefficient: those are conjecture-falsification diagnostics, not
    ordinary errors, and are never swallowed.
    """
    kind = parse_kind(kind)
    n, g = operator.index(n), operator.index(g)  # before the memo: 2.0 is no key
    if n < 1 or g < 0:
        raise ValueError("need n >= 1 and g >= 0")
    key = (kind, n, g)
    with _memo_lock:
        hit = _result_memo.get(key)
    if hit is not None:
        if cache is not None and cache.load_bytes(kind, n, g) != hit.canonical_bytes:
            cache.store(hit)
        return hit
    if cache is not None:
        stored = cache.load(kind, n, g)
        if stored is not None:
            with _memo_lock:
                _result_memo.setdefault(key, stored)
            return stored
    layer = _layers(kind.flavor, g, n)[n - 1]
    result = InvariantResult(kind, n, g, invariant_from_layer(kind.flavor, n, g, layer))
    with _memo_lock:
        _result_memo.setdefault(key, result)
    if cache is not None:
        cache.store(result)
    return result


# -- individual checks ---------------------------------------------------------


def _pairing_entry(poly: SparsePoly, partner, detail: str) -> CheckEntry:
    """The coefficient at every exponent e equals the one at partner(e).  The witness
    is the graded-lex lowest failing e, each monomial as v^k over poly.vars joined by '*'."""
    terms = poly.terms
    bad = [e for e, c in terms.items() if terms.get(partner(e), 0) != c]
    if not bad:
        return CheckEntry(True, detail=detail)
    e = min(bad, key=_gl_key)
    dual = partner(e)
    at, at2 = ("*".join(f"{v}^{k}" for v, k in zip(poly.vars, x)) for x in (e, dual))
    witness = f"coefficient {terms[e]} at {at} vs {terms.get(dual, 0)} at {at2}"
    return CheckEntry(False, witness=witness)


def palindrome_entry(poly: SparsePoly, two_n: int) -> CheckEntry:
    """q^{2N} * f(1/q) == f(q), coefficientwise."""
    return _pairing_entry(poly, lambda e: (two_n - e[0],), f"palindromic about q^{two_n}/2")


def curious_duality_entry(poly: SparsePoly, big_n: int) -> CheckEntry:
    """Weight-shifted palindromicity of a two-variable polynomial.

    Pairs the coefficient of q^a t^b with that of q^{2N-a} t^{b+2(N-a)}:
    reflecting the q-exponent about N shifts the t-exponent by twice as much,
    which is the coefficient shadow of the hard-Lefschetz-type pairing.
    """
    return _pairing_entry(
        poly, lambda e: (2 * big_n - e[0], e[1] + 2 * (big_n - e[0])),
        f"curious duality with N={big_n}")


def _top_degree_entry(poly: SparsePoly, d: int, detail: str, mono: str) -> CheckEntry:
    """Each variable has degree d, and the coefficient at mono = (vars)^d is 1."""
    if poly.is_zero():
        return CheckEntry(True, detail="zero polynomial (degenerate genus)")
    degrees = [poly.degree_in(v) for v in poly.vars]
    top = poly.coefficient((d,) * len(degrees))
    if degrees != [d] * len(degrees) or top != 1:
        shown = ", ".join(f"{v}-degree {k}" for v, k in zip(poly.vars, degrees))
        return CheckEntry(False, witness=f"{shown}, coefficient {top} at {mono}")
    return CheckEntry(True, detail=detail)


def positivity_entry(poly: SparsePoly) -> CheckEntry:
    bad = [e for e, c in poly.terms.items() if c < 0]
    if bad:
        e = min(bad, key=_gl_key)
        mono = poly_text(SparsePoly.monomial(poly.vars, e, 1))
        return CheckEntry(False, witness=f"coefficient {poly.terms[e]} at {mono}")
    return CheckEntry(True, detail="all coefficients non-negative")


def euler_entry(n: int, g: int, poly: SparsePoly) -> CheckEntry:
    """E_n(1) == moebius(n) * n^(2g-3), where _euler_unsupported allows it."""
    value = sum(poly.terms.values())  # E_n(1)
    expected = moebius(n) * n ** (2 * g - 3)
    if value != expected:
        return CheckEntry(False, witness=f"E_{n}(1) = {value}, expected {expected}")
    return CheckEntry(True, detail=f"E_{n}(1) = {expected} = mu({n})*{n}^{2 * g - 3}")


def xy_symmetry_entry(poly: SparsePoly) -> CheckEntry:
    """H_n(1,x,y) is symmetric under swapping x and y; q = 1 adds up the terms
    that differ only in the power of q."""
    at_q1 = {}
    for (_, b, c), coeff in poly.terms.items():
        at_q1[b, c] = at_q1.get((b, c), 0) + coeff
    return _pairing_entry(
        SparsePoly(poly.vars[1:], at_q1), lambda e: (e[1], e[0]), "x<->y symmetric at q=1")


def _euler_unsupported(n: int, g: int) -> str | None:
    """Why E_n(1) = moebius(n) * n^(2g-3) is not checked at (n, g), if it is not."""
    if g < 2:
        return "euler wants g >= 2 (the Euler-characteristic identity)"
    return None


def attached_checks(kind: InvariantKind, n: int, g: int, poly: SparsePoly) -> CheckReport:
    """The self-contained checks recorded on every computed result."""
    report = CheckReport()
    d = dimension_2n(kind, n, g)
    if kind is InvariantKind.E:
        report.add("degrees", _top_degree_entry(poly, d, f"degree {d}, monic top", f"q^{d}"))
        report.add("duality", palindrome_entry(poly, d))
        if _euler_unsupported(n, g) is None:
            report.add("euler", euler_entry(n, g, poly))
    elif kind is InvariantKind.HQT:
        report.add("degrees", _top_degree_entry(
            poly, d, f"q- and t-degree {d}, (qt)^{d} monic", f"(qt)^{d}"))
        report.add("duality", curious_duality_entry(poly, d // 2))
        report.add("positivity", positivity_entry(poly))
    elif kind is InvariantKind.HXY:
        report.add("positivity", positivity_entry(poly))
        report.add("xy_symmetry_at_q1", xy_symmetry_entry(poly))
    elif kind is InvariantKind.PP:
        # PP_n is a polynomial of degree d, monic there, with non-negative coefficients
        entry = positivity_entry(poly)
        if entry.passed:
            entry = _top_degree_entry(poly, d, f"degree {d}, leading coefficient 1", f"t^{d}")
        report.add("pp_properties", entry)
    return report


# -- specializations ------------------------------------------------------------


# target -> (kind it applies to, assignment); the assignment None is
# pure_extract, which keeps the monomials q^i t^{2i} as t^{2i}
_TARGETS = {
    "poincare": (InvariantKind.HQT, {"q": 1}),
    "to_E": (InvariantKind.HQT, {"t": -1}),
    "pure_extract": (InvariantKind.HQT, None),
    "xy_to_qt": (InvariantKind.HXY, {"x": "t", "y": "t"}),
    "ygenus": (InvariantKind.HXY, {"q": 1, "x": -1}),
}


def specialize_invariant(result: InvariantResult, target: str) -> SparsePoly:
    """The specialization of result named by a target of _TARGETS."""
    try:
        kind, assignment = _TARGETS[target]
    except KeyError:
        raise KindMismatch(f"unknown specialization target {target!r}") from None
    if result.kind is not kind:
        raise KindMismatch(f"{target} wants kind {kind.value}, got {result.kind.value}")
    poly = result.polynomial
    if assignment is None:
        return SparsePoly(("t",), {(b,): c for (a, b), c in poly.terms.items() if b == 2 * a})
    return poly.specialize(assignment)  # every target keeps a variable: never a scalar


# -- printed closed forms --------------------------------------------------------
#
# A closed form is the sum of its rows divided by their common denominator D.
# Each printed term is one row (scalar, mono, factors): the integer scalar
# (D times the printed one) times x^(mono*(g-1)) times the binomial_product of
# (1 + c*x^e)^(a*g + b) over the (c, e, (a, b)) of factors.  A printed
# denominator q^a*t^b - 1 is written -(1 - q^a*t^b), so each one flips the
# sign of its row's scalar.  The printed trinomials are ratios of binomials:
#
#   q^2t^2 - qt + 1 = (1 + q^3t^3) / (1 + qt)    q^2 + q + 1 = (1 - q^3) / (1 - q)
#   q^2t^4 + qt^2 + 1 = (1 - q^3t^6) / (1 - qt^2)  t^4 + t^2 + 1 = (1 - t^6) / (1 - t^2)


def _ratio(num, den):
    """The factors of prod (1 + x^e)^(2g) over num, over prod (1 - x^e) over den."""
    return tuple((1, e, (2, 0)) for e in num) + tuple((-1, e, (0, -1)) for e in den)


# closed form -> (its variables, its common denominator D, its rows)
_FORM_ROWS = {
    "E2": (FLAVOR_E.variables, 2, (  # (q^2 - 1)^(2g-2) = (1 - q^2)^(2g-2), and so on
        (2, (0,), ((-1, (2,), (2, -2)),)),
        (2, (2,), ((-1, (2,), (2, -2)),)),
        (-1, (2,), ((-1, (1,), (2, -2)),)),
        (-1, (2,), ((1, (1,), (2, -2)),)),
    )),
    "H2": (FLAVOR_QT.variables, 2, (
        (2, (0, 0), _ratio([(2, 3)], [(2, 2), (2, 4)])),
        (2, (2, 4), _ratio([(2, 1)], [(2, 0), (2, 2)])),
        (-1, (2, 4), _ratio([(1, 1)], [(1, 2), (1, 0)])),
        (-1, (2, 4),
         ((-1, (1, 1), (2, 0)), (1, (1, 0), (0, -1)), (1, (1, 2), (0, -1)))),
    )),
    "H3": (FLAVOR_QT.variables, 3, (
        (3, (0, 0), _ratio([(3, 5), (2, 3)], [(3, 6), (3, 4), (2, 4), (2, 2)])),
        (3, (6, 12), _ratio([(3, 1), (2, 1)], [(3, 2), (3, 0), (2, 2), (2, 0)])),
        (3, (4, 8), _ratio([(3, 3), (1, 1)], [(3, 4), (3, 2), (1, 2), (1, 0)])),
        (1, (6, 12), _ratio([(1, 1), (1, 1)], [(1, 2), (1, 2), (1, 0), (1, 0)])),
        # (q^2t^2 - qt + 1)^(2g) / ((q^2t^4 + qt^2 + 1)(q^2 + q + 1))
        (-1, (6, 12), _ratio([(3, 3)], [(3, 6), (3, 0)])
         + ((1, (1, 1), (-2, 0)), (-1, (1, 2), (0, 1)), (-1, (1, 0), (0, 1)))),
        (-3, (4, 8), _ratio([(2, 3), (1, 1)], [(2, 4), (2, 2), (1, 2), (1, 0)])),
        (-3, (6, 12), _ratio([(2, 1), (1, 1)], [(2, 2), (2, 0), (1, 2), (1, 0)])),
    )),
    "PP3": (FLAVOR_PURE.variables, 3, (
        (3, (0,), _ratio([], [(6,), (4,)])),
        (3, (12,), ()),
        (3, (8,), _ratio([], [(2,)])),
        (1, (12,), _ratio([], [(2,), (2,)])),
        (-1, (12,), ((-1, (6,), (0, -1)), (-1, (2,), (0, 1)))),  # 1/(t^4+t^2+1)
        (-3, (8,), _ratio([], [(4,), (2,)])),
        (-3, (12,), _ratio([], [(2,)])),
    )),
}


def _ygenus_rows(n: int, g: int):
    """The y-genus's rows over D = n: one for each squarefree m dividing n,
    with k = n/m, the printed mu(m)/m times n,

        mu(m)*k * [ (1 - (-y)^n)/(1 + y) * m*(-y)^(n(n-k)) prod_(0<i<k) (1 - (-y)^(mi))^2 ]^(g-1)
    """
    rows = []
    for m in range(1, n + 1):
        mu = 0 if n % m else moebius(m)
        if mu:
            k = n // m
            scalar = mu * k * ((-1) ** (n * (n - k)) * m) ** (g - 1)
            factors = [(-((-1) ** n), (n,), (1, -1)), (1, (1,), (-1, 1))]
            factors += [(-((-1) ** (m * i)), (m * i,), (2, -2)) for i in range(1, k)]
            rows.append((scalar, (n * (n - k),), factors))
    return rows


def closed_form(which: str, g: int, n: int | None = None) -> FactoredFraction:
    """A printed closed form, E2, H2, H3, PP3 or ygenus(n): the sum of its
    integer rows divided once by their common denominator D, exactly
    (NonIntegerCoefficient otherwise).

    ygenus wants g >= 2 (UnsupportedGenus otherwise) and n >= 1 (ValueError),
    the others g >= 1.
    """
    if which not in _FORM_ROWS and which != "ygenus":
        raise KindMismatch(f"unknown closed form {which!r}")
    minimum = 2 if which == "ygenus" else 1
    if g < minimum:
        raise UnsupportedGenus(f"closed form {which} wants g >= {minimum}, got {g}")
    if which == "ygenus":
        if n is None or n < 1:
            raise ValueError(f"ygenus closed form needs n >= 1, got {n}")
        variables, denominator, rows = ("y",), n, _ygenus_rows(n, g)
    else:
        variables, denominator, rows = _FORM_ROWS[which]
    terms = [
        binomial_product(variables, [(c, e, a * g + b) for c, e, (a, b) in factors])
        .shift(tuple(k * (g - 1) for k in mono))
        .scale(scalar)
        for scalar, mono, factors in rows
    ]
    return frac_sum(terms, variables).scale(Fraction(1, denominator))


# -- cross-invariant checks and the check suites -----------------------------------


# n -> the printed closed forms of that rank, with the kind each one gives
_PRINTED = {
    2: (("E2", InvariantKind.E), ("H2", InvariantKind.HQT)),
    3: (("H3", InvariantKind.HQT), ("PP3", InvariantKind.PP)),
}


def _closed_form_unsupported(n: int, g: int) -> str | None:
    if n not in _PRINTED or g < 1:
        ranks = " and ".join(f"n = {k}" for k in _PRINTED)
        return f"closed forms are printed only for {ranks}, at g >= 1"
    return None


def closed_form_checks(n: int, g: int, *, cache=None) -> CheckReport:
    """Compare extracted invariants against every printed closed form for n (n in _PRINTED)."""
    detail = "extraction equals the printed closed form"
    report = CheckReport()
    for which, kind in _PRINTED[n]:
        poly = compute_invariant(kind, n, g, cache=cache).polynomial
        form = closed_form(which, g).as_polynomial()
        report.add(f"closed_form_{which}", _poly_equal_entry(poly, form, detail))
    if g >= 2:
        hxy = compute_invariant(InvariantKind.HXY, n, g, cache=cache)
        ygen = specialize_invariant(hxy, "ygenus")
        form = closed_form("ygenus", g, n=n).as_polynomial()
        report.add("closed_form_ygenus", _poly_equal_entry(ygen, form, detail))
    return report


def specialization_checks(n: int, g: int, *, cache=None) -> CheckReport:
    """Cross-kind consistency: Hqt(t=-1) = E, and for n <= 3 Hxy(t,t) = Hqt."""
    report = CheckReport()
    hqt = compute_invariant(InvariantKind.HQT, n, g, cache=cache)
    e = compute_invariant(InvariantKind.E, n, g, cache=cache)
    report.add(
        "to_E_match",
        _poly_equal_entry(specialize_invariant(hqt, "to_E"), e.polynomial),
    )
    if n <= 3:
        hxy = compute_invariant(InvariantKind.HXY, n, g, cache=cache)
        report.add(
            "xy_to_qt_match",
            _poly_equal_entry(specialize_invariant(hxy, "xy_to_qt"), hqt.polynomial),
        )
    return report


def pure_part_checks(n: int, g: int, *, cache=None) -> CheckReport:
    """The checks attached to PP_n, and PP_n against the pure extract of H_n."""
    pp = compute_invariant(InvariantKind.PP, n, g, cache=cache)
    hqt = compute_invariant(InvariantKind.HQT, n, g, cache=cache)
    report = CheckReport(dict(pp.checks.entries))
    extract = specialize_invariant(hqt, "pure_extract")
    report.add("pure_vs_extract", _poly_equal_entry(extract, pp.polynomial))
    return report


def _poly_equal_entry(a: SparsePoly, b: SparsePoly, detail="exact match") -> CheckEntry:
    if a == b:
        return CheckEntry(True, detail=detail)
    diff = a - b
    e, c = diff.sorted_terms()[0]
    mono = poly_text(SparsePoly.monomial(diff.vars, e, 1))
    return CheckEntry(False, witness=f"difference has coefficient {c} at {mono}")


def _attached(kind: InvariantKind, name: str | None = None):
    """A suite made of the checks attached to one kind's result (all, or one entry)."""

    def checks(n: int, g: int, *, cache=None) -> CheckReport:
        entries = compute_invariant(kind, n, g, cache=cache).checks.entries
        return CheckReport({name: entries[name]} if name else dict(entries))

    return checks


# suite -> (its checks at (n, g), the reason it does not apply at (n, g) or None)
SUITES = {
    "duality": (_attached(InvariantKind.HQT), lambda n, g: None),
    "euler": (_attached(InvariantKind.E, "euler"), _euler_unsupported),
    "specialization": (specialization_checks, lambda n, g: None),
    "closedform": (closed_form_checks, _closed_form_unsupported),
    "pp": (pure_part_checks, lambda n, g: None),
}


def run_check(suite: str, n: int, g: int, *, cache=None) -> CheckReport:
    """Run one check suite of SUITES at (n, g), or every suite that applies ("all").

    duality, euler and the pp_properties entry are read from the reports
    attached to the computed (or cache-served) results.  A named suite that
    does not apply at (n, g) raises UnsupportedGenus; an unknown name raises
    KindMismatch.
    """
    if suite == "all":
        names = [name for name, (_, unsupported) in SUITES.items() if not unsupported(n, g)]
    elif suite in SUITES:
        reason = SUITES[suite][1](n, g)
        if reason:
            raise UnsupportedGenus(reason)
        names = [suite]
    else:
        raise KindMismatch(f"unknown check {suite!r}")
    report = CheckReport()
    for name in names:
        report.merge(SUITES[name][0](n, g, cache=cache))
    return report


# -- canonical documents and the disk cache ----------------------------------------


def polynomial_document(result: InvariantResult) -> dict:
    """The canonical JSON document for one computed invariant as a dict: the
    parse of result.canonical_bytes, the one renderer."""
    return json.loads(result.canonical_bytes)


def document_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


class InvariantCache:
    """One canonical JSON document per (kind, n, g) under a cache directory.

    Writes are atomic (temp file + rename), so concurrent writers of the same
    key degrade to last-writer-wins with intact documents.
    """

    def __init__(self, root):
        self.root = Path(root)

    def _path(self, kind: InvariantKind, n: int, g: int) -> Path:
        return self.root / f"{kind.value}_n{n}_g{g}.json"

    def load_bytes(self, kind, n, g):
        kind = parse_kind(kind)
        try:
            return self._path(kind, n, g).read_bytes()
        except FileNotFoundError:
            return None

    def load(self, kind, n, g) -> InvariantResult | None:
        """The cached result for a key, or None for a miss.

        A hit has one rule: the result is rebuilt for the requested key from
        the stored terms alone (exponents and coefficients read as integers,
        dim2N and the attached checks recomputed), and it is served only when
        its canonical document equals the stored bytes.  A stored report that
        records a failed check reproduces, so it is served.  A document of an
        older format version is a silent miss.  Anything else (not JSON, not
        the document schema, another key, edited values, or bytes that are
        not canonical) is a miss with one warning line on stderr, and the
        caller recomputes and overwrites it.
        """
        kind = parse_kind(kind)
        raw = self.load_bytes(kind, n, g)
        if raw is None:
            return None
        try:
            doc = json.loads(raw)
            if doc.get("version") != DOCUMENT_VERSION:
                return None  # stale format: treat as a miss and recompute
            terms = {tuple(map(int, t["e"])): int(t["c"]) for t in doc["terms"]}
            result = InvariantResult(kind, n, g, SparsePoly(kind.flavor.variables, terms))
            if result.canonical_bytes == raw:
                return result
            reason = f"it is not the canonical {kind.value} n={n} g={g} document of its terms"
        except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError,
                RecursionError, CharvarError) as exc:
            reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"warning: ignoring cache document {self._path(kind, n, g)} "
              f"({reason}); recomputing", file=sys.stderr)
        return None

    def store(self, result: InvariantResult) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(result.kind, result.n, result.g)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(result.canonical_bytes)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    def entries(self):
        """Sorted (kind, n, g) keys of the cached documents: regular files only."""
        if not self.root.is_dir():
            return []
        out = []
        for path in self.root.glob("*_n*_g*.json"):
            try:
                kind_text, n_text, g_text = path.stem.split("_")
                key = (parse_kind(kind_text), int(n_text[1:]), int(g_text[1:]))
            except (KindMismatch, ValueError):
                continue  # not a <kind>_n<N>_g<G> name
            if key[1] >= 1 and key[2] >= 0 and self._path(*key) == path and path.is_file():
                out.append(key)
        return sorted(out, key=lambda kng: (kng[0].value, kng[1], kng[2]))

    def clear(self):
        """Delete the cached documents: exactly the files that entries() lists."""
        for key in self.entries():
            self._path(*key).unlink()
