"""Bridge between finite-group tuple counts and the extracted E-polynomial.

For GL(2,q) with the central involution as target, the brute-force count of
commutator-product tuples is compared against |PGL(2,q)| * (q-1)^{2g} * E_2(q)
(free conjugation orbits times the scalar-twist fiber).  The measured ratio is
always reported: if it is not exactly 1 the bridge fails loudly rather than
silently adopting a different normalization.  The character-formula value
tuples/|G| is reported alongside; with ratio 1 it equals (q-1)^{2g-1} E_2(q),
one factor (q-1) below the orbit count.

With no group given, the bridge counts in build_group's GL(2,q), the one
enumerated group per (family, q) that the process keeps, tables included,
until invariants.clear_memo (at most 7 such groups); so calls at several
genera, and any other caller of build_group("GL", 2, q), share one
enumeration and one commutator distribution.  A group that is not GL(2,q) is
refused with a ValueError rather than reported as a failed bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import MatrixGroup, build_group, tuple_count
from .invariants import InvariantKind, compute_invariant


@dataclass(frozen=True)
class BridgeReport:
    q: int
    g: int
    tuples: int
    expected: int
    ratio: Fraction
    point_formula_value: Fraction  # tuples / |GL|, the character-formula value
    normalization: str

    @property
    def passed(self) -> bool:
        return self.ratio == 1


def point_count_bridge(q: int, g: int, *, group: MatrixGroup | None = None) -> BridgeReport:
    """Measure tuple_count(GL(2,q), g, -Id) against |PGL|*(q-1)^{2g}*E_2(q).

    Without `group`, GL(2,q) is build_group's, enumerated on the first call
    and kept until invariants.clear_memo().  A `group` that is not
    GL(2,q) raises ValueError naming both.
    """
    if group is None:
        group = build_group("GL", 2, q)
    elif group.family != "GL" or group.q != q or group.order != q * (q * q - 1) * (q - 1):
        raise ValueError(f"point_count_bridge(q={q}) needs GL(2,{q}), got {group!r}")
    xi = group.central_of_order(2)
    tuples = tuple_count(group, g, xi)
    e2 = compute_invariant(InvariantKind.E, 2, g).polynomial
    e2_at_q = e2.specialize({"q": q})
    pgl_order = group.order // (q - 1)
    expected = pgl_order * (q - 1) ** (2 * g) * e2_at_q
    ratio = Fraction(tuples, expected)
    normalization = (
        "tuples = |PGL|*(q-1)^(2g)*E_n(q)"
        if ratio == 1
        else f"unrecognized (ratio {ratio})"
    )
    return BridgeReport(
        q=q,
        g=g,
        tuples=tuples,
        expected=expected,
        ratio=ratio,
        point_formula_value=Fraction(tuples, group.order),
        normalization=normalization,
    )
