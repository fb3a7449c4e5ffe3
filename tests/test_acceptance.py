"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one "ACCEPTANCE nn <name>: PASS/FAIL" line (visible with
pytest -s, and in the captured output on failure).  All equalities are exact;
the only tolerances are the stated wall-clock bounds, measured from a cleared
in-process memo where a criterion carries its own runtime budget.
"""

import functools
import time
from fractions import Fraction

from conftest import e2_g3_poly, h2_g3_poly, poincare2_g3_poly, pp2_g3_poly
from charvar.bridge import point_count_bridge
from charvar.characters import character_table, frobenius_sums, verify_orthogonality
from charvar.groups import (
    build_group,
    commutator_distribution,
    diagonal_group,
    tuple_count,
)
from charvar.invariants import (
    InvariantKind,
    clear_memo,
    closed_form,
    compute_invariant,
    curious_duality_entry,
    moebius,
    specialize_invariant,
)
from charvar.polynomials import SparsePoly


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL [{exc}]")
                raise
            print(
                f"ACCEPTANCE {num:02d} {name}: PASS"
                + (f" [{detail}]" if detail else "")
            )

        return wrapper

    return decorate


@criterion(1, "closed-form E match")
def test_criterion_01_closed_form_e():
    clear_memo()
    start = time.perf_counter()
    for g in (2, 3, 4):
        computed = compute_invariant(InvariantKind.E, 2, g)
        assert computed.polynomial == closed_form("E2", g).as_polynomial(), g
    assert compute_invariant(InvariantKind.E, 2, 3).polynomial == e2_g3_poly()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    return f"{elapsed:.2f}s"


@criterion(2, "closed-form H match, n=2")
def test_criterion_02_closed_form_h2():
    clear_memo()
    start = time.perf_counter()
    for g in (2, 3):
        computed = compute_invariant(InvariantKind.HQT, 2, g)
        assert computed.polynomial == closed_form("H2", g).as_polynomial(), g
    assert compute_invariant(InvariantKind.HQT, 2, 3).polynomial == h2_g3_poly()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    return f"{elapsed:.2f}s"


@criterion(3, "closed-form H match, n=3")
def test_criterion_03_closed_form_h3():
    clear_memo()
    start = time.perf_counter()
    for g in (2, 3):
        computed = compute_invariant(InvariantKind.HQT, 3, g)
        assert computed.polynomial == closed_form("H3", g).as_polynomial(), g
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"
    return f"{elapsed:.2f}s"


@criterion(4, "Poincare specialization")
def test_criterion_04_poincare():
    result = compute_invariant(InvariantKind.HQT, 2, 3)
    assert specialize_invariant(result, "poincare") == poincare2_g3_poly()


@criterion(5, "E-specialization for n <= 4, g <= 3")
def test_criterion_05_e_specialization():
    for n in range(1, 5):
        for g in range(4):
            hqt = compute_invariant(InvariantKind.HQT, n, g)
            e = compute_invariant(InvariantKind.E, n, g)
            assert specialize_invariant(hqt, "to_E") == e.polynomial, (n, g)


@criterion(6, "polynomiality, degrees, positivity, curious duality")
def test_criterion_06_comb_properties():
    clear_memo()
    heavy = None
    for n in range(1, 5):
        for g in (2, 3):
            start = time.perf_counter()
            result = compute_invariant(InvariantKind.HQT, n, g)
            elapsed = time.perf_counter() - start
            if (n, g) == (4, 3):
                heavy = elapsed
                assert elapsed < 900.0, f"n=4 g=3 took {elapsed:.2f}s, budget 900s"
            poly = result.polynomial
            two_n = (n * n - 1) * (2 * g - 2)
            assert not poly.is_zero()
            assert all(type(c) is int for c in poly.terms.values()), (n, g)
            assert all(c >= 0 for c in poly.terms.values()), (n, g)
            assert poly.degree_in("q") == poly.degree_in("t") == two_n, (n, g)
            assert poly.coefficient((two_n, two_n)) == 1, (n, g)
            entry = curious_duality_entry(poly, (n * n - 1) * (g - 1))
            assert entry.passed, (n, g, entry.witness)
    return f"n=4 g=3 in {heavy:.2f}s"


@criterion(7, "degenerate genera g=0 and g=1")
def test_criterion_07_degenerate_genera():
    one = SparsePoly.one(("q", "t"))
    for n in range(1, 5):
        assert compute_invariant(InvariantKind.HQT, n, 1).polynomial == one, n
    assert compute_invariant(InvariantKind.HQT, 1, 0).polynomial == one
    for n in range(2, 5):
        assert compute_invariant(InvariantKind.HQT, n, 0).polynomial.is_zero(), n


@criterion(8, "Euler characteristic mu(n) n^(2g-3)")
def test_criterion_08_euler():
    for g in (2, 3, 4):
        for n in range(1, 7):
            e = compute_invariant(InvariantKind.E, n, g)
            value = e.polynomial.specialize({"q": 1})
            assert value == moebius(n) * n ** (2 * g - 3), (n, g, value)
    special = compute_invariant(InvariantKind.E, 2, 3).polynomial.specialize({"q": 1})
    assert special == -8


@criterion(9, "(x,y) flavor: fusion, symmetry, y-genus")
def test_criterion_09_xy_flavor():
    for n in range(1, 4):
        for g in range(4):
            hxy = compute_invariant(InvariantKind.HXY, n, g)
            hqt = compute_invariant(InvariantKind.HQT, n, g)
            assert specialize_invariant(hxy, "xy_to_qt") == hqt.polynomial, (n, g)
            at_q1 = hxy.polynomial.specialize({"q": 1})
            for (a, b), c in at_q1.terms.items():
                assert at_q1.coefficient((b, a)) == c, (n, g, a, b)
    for n in (2, 3):
        for g in (2, 3):
            hxy = compute_invariant(InvariantKind.HXY, n, g)
            ygen = specialize_invariant(hxy, "ygenus")
            assert ygen == closed_form("ygenus", g, n=n).as_polynomial(), (n, g)
            assert ygen.specialize({"y": -1}) == moebius(n) * n ** (2 * g - 3), (n, g)
            at_one = ygen.specialize({"y": 1})
            expected = moebius(n) * n ** (g - 2) if n == 3 else 0
            assert at_one == expected, (n, g, at_one)


@criterion(10, "pure part PP_n")
def test_criterion_10_pure_part():
    for g in (2, 3):
        pp3 = compute_invariant(InvariantKind.PP, 3, g)
        assert pp3.polynomial == closed_form("PP3", g).as_polynomial(), g
    for n in range(1, 4):
        for g in range(4):
            hqt = compute_invariant(InvariantKind.HQT, n, g)
            pp = compute_invariant(InvariantKind.PP, n, g)
            assert specialize_invariant(hqt, "pure_extract") == pp.polynomial, (n, g)
    assert compute_invariant(InvariantKind.PP, 2, 3).polynomial == pp2_g3_poly()
    for n in (1, 2, 3):
        for g in (2, 3):
            poly = compute_invariant(InvariantKind.PP, n, g).polynomial
            degree = 2 * n * (n - 1) * (g - 1)
            assert poly.degree_in("t") == degree, (n, g)
            assert poly.coefficient((degree,)) == 1, (n, g)
            assert all(c >= 0 for c in poly.terms.values()), (n, g)


@criterion(11, "group oracle equivalence")
def test_criterion_11_group_oracle():
    start = time.perf_counter()
    for family, q in (("SL", 3), ("GL", 3), ("SL", 5)):
        group = build_group(family, 2, q)
        table = character_table(group)
        verify_orthogonality(table)
        for g in (1, 2):
            for xi in group.center():
                brute = tuple_count(group, g, xi)
                predicted = frobenius_sums(table, g, xi).tuple_prediction
                assert brute == predicted, (family, q, g, xi, brute, predicted)
    diag = diagonal_group(3)
    commutators = commutator_distribution(diag)
    assert commutators.at_element(diag.identity) == diag.order**2
    for g in (1, 2):
        assert tuple_count(diag, g, diag.identity) == diag.order ** (2 * g)
        for xi in diag.center():
            if xi != diag.identity:
                assert tuple_count(diag, g, xi) == 0, (g, xi)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    return f"{elapsed:.2f}s"


@criterion(12, "point-count bridge GL(2,3) <-> E_2")
def test_criterion_12_point_count_bridge():
    group = build_group("GL", 2, 3)
    details = []
    for g in (1, 2):
        report = point_count_bridge(3, g, group=group)
        assert report.ratio == 1, (
            f"g={g}: measured ratio {report.ratio} against |PGL|*(q-1)^(2g)*E_2(q) "
            f"(tuples={report.tuples}, expected={report.expected}); the counts do "
            f"not support the expected normalization"
        )
        if g == 1:
            # E_2 = 1 at genus 1, so the bridge pins the raw orbit volume
            assert report.tuples == (group.order // 2) * (3 - 1) ** 2 * 1
        details.append(f"g={g}: tuples={report.tuples}")
    # the character-formula value tuples/|GL| sits one (q-1) below the
    # PGL-orbit count; record that the measured counts support the latter
    report = point_count_bridge(3, 2, group=group)
    e2_at_3 = compute_invariant(InvariantKind.E, 2, 2).polynomial.specialize({"q": 3})
    assert report.point_formula_value == Fraction((3 - 1) ** 3 * e2_at_3, 1)
    assert report.normalization == "tuples = |PGL|*(q-1)^(2g)*E_n(q)"
    return "; ".join(details)
