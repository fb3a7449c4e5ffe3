"""Invariant computation, closed forms, checks, specializations, caching."""

import json

import pytest

from conftest import e2_g3_poly, h2_g3_poly, poincare2_g3_poly, pp2_g3_poly
import charvar.invariants as invariants
from charvar.errors import KindMismatch, NonIntegerCoefficient, UnsupportedGenus
from charvar.invariants import (
    _TARGETS,
    InvariantCache,
    InvariantKind,
    attached_checks,
    clear_memo,
    closed_form,
    compute_invariant,
    curious_duality_entry,
    document_bytes,
    moebius,
    palindrome_entry,
    parse_kind,
    polynomial_document,
    positivity_entry,
    run_check,
    specialize_invariant,
    xy_symmetry_entry,
)
from charvar.polynomials import SparsePoly


class TestComputeInvariant:
    def test_e_2_3_matches_printed_polynomial(self):
        result = compute_invariant("E", 2, 3)
        assert result.polynomial == e2_g3_poly()
        assert result.dimension == 12
        assert result.checks.all_passed

    def test_hqt_2_3_matches_printed_polynomial(self):
        result = compute_invariant("hqt", 2, 3)
        assert result.polynomial == h2_g3_poly()
        assert result.checks.all_passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_genus_one_collapses_to_one(self, n):
        result = compute_invariant(InvariantKind.HQT, n, 1)
        assert result.polynomial == SparsePoly.one(("q", "t"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_genus_zero_vanishes(self, n):
        assert compute_invariant(InvariantKind.HQT, n, 0).polynomial.is_zero()

    def test_genus_zero_rank_one_is_one(self):
        assert compute_invariant(InvariantKind.HQT, 1, 0).polynomial == SparsePoly.one(
            ("q", "t")
        )

    def test_kind_parsing(self):
        assert parse_kind("E") is InvariantKind.E
        assert parse_kind("HQT") is InvariantKind.HQT
        with pytest.raises(KindMismatch):
            parse_kind("nope")

    def test_memoization_returns_identical_object(self):
        a = compute_invariant("E", 2, 3)
        b = compute_invariant("E", 2, 3)
        assert a is b

    @pytest.mark.parametrize("n, g", [(2, 2.0), (2.0, 2)])
    def test_a_float_rank_or_genus_is_a_type_error_cold_and_warm(self, n, g):
        """n and g are read through operator.index before the memo, so a float
        never finds the result that its int value memoized."""
        clear_memo()
        with pytest.raises(TypeError):
            compute_invariant("E", n, g)
        compute_invariant("E", 2, 2)
        with pytest.raises(TypeError):
            compute_invariant("E", n, g)


class TestClosedForms:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_e2(self, g):
        assert closed_form("E2", g).as_polynomial() == compute_invariant(
            "E", 2, g
        ).polynomial

    @pytest.mark.parametrize("g", [1, 2])
    def test_h2(self, g):
        assert closed_form("H2", g).as_polynomial() == compute_invariant(
            "hqt", 2, g
        ).polynomial

    def test_h3_genus_two(self):
        assert closed_form("H3", 2).as_polynomial() == compute_invariant(
            "hqt", 3, 2
        ).polynomial

    def test_pp3_genus_two(self):
        assert closed_form("PP3", 2).as_polynomial() == compute_invariant(
            "pp", 3, 2
        ).polynomial

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_ygenus_value_at_minus_one(self, g):
        poly = closed_form("ygenus", g, n=2).as_polynomial()
        assert poly.specialize({"y": -1}) == moebius(2) * 2 ** (2 * g - 3)

    def test_unsupported_genus(self):
        with pytest.raises(UnsupportedGenus):
            closed_form("E2", 0)
        with pytest.raises(UnsupportedGenus):
            closed_form("ygenus", 1, n=2)

    def test_unknown_form(self):
        with pytest.raises(KindMismatch):
            closed_form("H4", 2)

    @pytest.mark.parametrize("which", ["E2", "H2", "H3", "PP3"])
    def test_rows_over_a_wrong_denominator_are_refused(self, which, monkeypatch):
        """The rows' sum is divided by D exactly: over D + 1 it is not."""
        variables, denominator, rows = invariants._FORM_ROWS[which]
        monkeypatch.setitem(invariants._FORM_ROWS, which, (variables, denominator + 1, rows))
        for g in (1, 2):
            with pytest.raises(NonIntegerCoefficient):
                closed_form(which, g)

    @pytest.mark.parametrize("n", [None, 0, -2])
    def test_ygenus_wants_a_positive_n(self, n):
        with pytest.raises(ValueError):
            closed_form("ygenus", 2, n=n)


class TestSpecializeInvariant:
    def test_poincare(self):
        h = compute_invariant("hqt", 2, 3)
        assert specialize_invariant(h, "poincare") == poincare2_g3_poly()

    def test_to_e(self):
        h = compute_invariant("hqt", 2, 3)
        assert specialize_invariant(h, "to_E") == e2_g3_poly()

    def test_pure_extract(self):
        h = compute_invariant("hqt", 2, 3)
        assert specialize_invariant(h, "pure_extract") == pp2_g3_poly()

    def test_xy_to_qt(self):
        hxy = compute_invariant("hxy", 2, 2)
        hqt = compute_invariant("hqt", 2, 2)
        assert specialize_invariant(hxy, "xy_to_qt") == hqt.polynomial

    @pytest.mark.parametrize("target", sorted(_TARGETS))
    def test_every_target_returns_a_poly_in_its_variables(self, target):
        """No target specializes every variable away, H_1 = 1 included."""
        kind, _ = _TARGETS[target]
        variables = {"poincare": ("t",), "to_E": ("q",), "pure_extract": ("t",),
                     "xy_to_qt": ("q", "t"), "ygenus": ("y",)}[target]
        for n in range(1, 4):
            for g in range(4):
                got = specialize_invariant(compute_invariant(kind, n, g), target)
                assert type(got) is SparsePoly and got.vars == variables, (n, g)

    def test_kind_mismatch(self):
        e = compute_invariant("E", 2, 3)
        with pytest.raises(KindMismatch):
            specialize_invariant(e, "poincare")
        h = compute_invariant("hqt", 2, 3)
        with pytest.raises(KindMismatch):
            specialize_invariant(h, "ygenus")


class TestChecks:
    def test_duality_witness_pairs_from_the_table(self):
        poly = h2_g3_poly()
        assert poly.coefficient((0, 0)) == poly.coefficient((12, 12)) == 1
        assert poly.coefficient((2, 2)) == poly.coefficient((10, 10)) == 1
        assert curious_duality_entry(poly, 6).passed

    def test_duality_pairs_off_diagonal(self):
        poly = h2_g3_poly()
        # q^10 t^11 must pair with q^2 t^3 under (a,b) -> (2N-a, b+2(N-a))
        assert poly.coefficient((10, 11)) == poly.coefficient((2, 3)) == 6

    def test_duality_counterexample_fails_with_witness(self):
        bad = SparsePoly(("q",), {(0,): 1, (1,): 1})
        entry = palindrome_entry(bad, 2)
        assert not entry.passed
        assert "q^0" in entry.witness and "q^2" in entry.witness

    # Each polynomial lists a failing monomial above the lowest one first, so a
    # witness taken in dict order would name the higher one.
    @pytest.mark.parametrize(
        "entry,witness",
        [
            (
                lambda: palindrome_entry(SparsePoly(("q",), {(3,): 5, (0,): 1}), 4),
                "coefficient 1 at q^0 vs 0 at q^4",
            ),
            (
                lambda: curious_duality_entry(
                    SparsePoly(("q", "t"), {(2, 2): 5, (0, 0): 1}), 1
                ),
                "coefficient 1 at q^0*t^0 vs 5 at q^2*t^2",
            ),
            (
                lambda: xy_symmetry_entry(
                    SparsePoly(("q", "x", "y"), {(0, 2, 0): 3, (0, 0, 1): 2})
                ),
                "coefficient 2 at x^0*y^1 vs 0 at x^1*y^0",
            ),
            (
                lambda: positivity_entry(
                    SparsePoly(("q", "t"), {(2, 1): -3, (1, 0): 2, (0, 1): -1})
                ),
                "coefficient -1 at t",
            ),
        ],
        ids=["palindrome", "curious_duality", "xy_symmetry", "positivity"],
    )
    def test_witness_is_lowest_failing_monomial(self, entry, witness):
        result = entry()
        assert not result.passed
        assert result.witness == witness

    # At n = 2, g = 2 the top degree is 6 for E and Hqt and 4 for PP.
    @pytest.mark.parametrize(
        "kind,terms,name,witness",
        [
            ("E", {(0,): 1, (8,): 1}, "degrees", "q-degree 8, coefficient 0 at q^6"),
            ("E", {(0,): 1, (6,): 2}, "degrees", "q-degree 6, coefficient 2 at q^6"),
            (
                "Hqt", {(0, 0): 1, (6, 7): 1}, "degrees",
                "q-degree 6, t-degree 7, coefficient 0 at (qt)^6",
            ),
            ("PP", {(0,): 1, (6,): 1}, "pp_properties", "t-degree 6, coefficient 0 at t^4"),
            ("PP", {(0,): 1, (4,): 3}, "pp_properties", "t-degree 4, coefficient 3 at t^4"),
            ("PP", {(0,): 1, (2,): -1, (4,): 1}, "pp_properties", "coefficient -1 at t^2"),
        ],
        ids=["E-degree", "E-monic", "Hqt-degree", "PP-degree", "PP-monic", "PP-negative"],
    )
    def test_top_degree_witness(self, kind, terms, name, witness):
        kind = parse_kind(kind)
        poly = SparsePoly(kind.flavor.variables, terms)
        entry = attached_checks(kind, 2, 2, poly).entries[name]
        assert not entry.passed
        assert entry.witness == witness

    def test_euler_at_2_3(self):
        report = run_check("euler", 2, 3)
        entry = report.entries["euler"]
        assert entry.passed and "-8" in entry.detail

    @pytest.mark.parametrize("n,g", [(2, 2), (2, 3), (3, 2)])
    def test_suites_pass(self, n, g):
        for suite in ("duality", "specialization", "closedform", "pp"):
            assert run_check(suite, n, g).all_passed, (suite, n, g)

    def test_unknown_suite(self):
        with pytest.raises(KindMismatch):
            run_check("bogus", 2, 2)

    @pytest.mark.parametrize(
        "suite,n,g,entry",
        [("euler", 2, 1, "euler"), ("closedform", 4, 2, "closed_form"),
         ("closedform", 2, 0, "closed_form")],
    )
    def test_suite_that_does_not_apply(self, suite, n, g, entry):
        """A named suite raises; "all" leaves it out."""
        with pytest.raises(UnsupportedGenus):
            run_check(suite, n, g)
        names = run_check("all", n, g).entries
        assert names and not [name for name in names if name.startswith(entry)]


class TestCrossInvariantIdentities:
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pure_extract_equals_pp(self, n, g):
        h = compute_invariant("hqt", n, g)
        pp = compute_invariant("pp", n, g)
        assert specialize_invariant(h, "pure_extract") == pp.polynomial

    @pytest.mark.parametrize(
        "n, g", [(n, g) for n in (1, 2, 3) for g in (0, 1, 2, 3)] + [(4, 2), (4, 3)]
    )
    def test_xy_specializes_to_qt(self, n, g):
        hxy = compute_invariant("hxy", n, g)
        hqt = compute_invariant("hqt", n, g)
        assert specialize_invariant(hxy, "xy_to_qt") == hqt.polynomial

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_xy_symmetry_check_attached(self, n, g):
        result = compute_invariant("hxy", n, g)
        assert result.checks.entries["xy_symmetry_at_q1"].passed

    @pytest.mark.parametrize("g", [2, 3])
    def test_euler_characteristic_small(self, g):
        for n in (1, 2, 3, 4):
            e = compute_invariant("E", n, g)
            assert e.polynomial.specialize({"q": 1}) == moebius(n) * n ** (2 * g - 3)

    @pytest.mark.parametrize("kind", ["E", "hqt", "hxy", "pp"])
    def test_attached_reports_pass(self, kind):
        for n in (1, 2, 3):
            for g in (0, 1, 2, 3):
                result = compute_invariant(kind, n, g)
                assert result.checks.all_passed, (kind, n, g, result.checks.to_json())


def test_moebius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 8: 0, 9: 0, 12: 0, 30: -1, 36: 0}
    for n, mu in expected.items():
        assert moebius(n) == mu
    # sum of mu(d) over the divisors d of n is 1 at n = 1 and 0 above
    for n in range(1, 501):
        assert sum(moebius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1), n
    with pytest.raises(ValueError):
        moebius(0)


class TestCacheAndDocuments:
    def test_document_round_trip(self, tmp_path):
        result = compute_invariant("E", 2, 3)
        cache = InvariantCache(tmp_path)
        cache.store(result)
        back = cache.load("E", 2, 3)
        assert back.polynomial == result.polynomial
        assert back.kind is result.kind and back.dimension == result.dimension
        assert back.checks.to_json() == result.checks.to_json()

    def test_cache_hit_is_byte_identical(self, tmp_path):
        cache = InvariantCache(tmp_path)
        result = compute_invariant("hqt", 2, 2)
        cache.store(result)
        raw = cache.load_bytes("hqt", 2, 2)
        assert raw == document_bytes(polynomial_document(result))
        loaded = cache.load("hqt", 2, 2)
        assert loaded.polynomial == result.polynomial

    def test_cache_listing_and_clear(self, tmp_path):
        cache = InvariantCache(tmp_path)
        assert cache.entries() == []
        cache.store(compute_invariant("E", 2, 2))
        cache.store(compute_invariant("pp", 2, 2))
        assert cache.entries() == [
            (InvariantKind.E, 2, 2),
            (InvariantKind.PP, 2, 2),
        ]
        cache.clear()
        assert cache.entries() == []

    def test_stale_format_version_is_a_miss(self, tmp_path):
        cache = InvariantCache(tmp_path)
        result = compute_invariant("E", 2, 2)
        cache.store(result)
        path = cache._path(InvariantKind.E, 2, 2)
        doc = json.loads(path.read_text())
        doc["version"] = 0
        path.write_text(json.dumps(doc))
        assert cache.load("E", 2, 2) is None
        # a compute against the stale cache refreshes the document
        compute_invariant("E", 2, 2, cache=cache)
        assert cache.load("E", 2, 2) is not None

    def test_memo_hit_compares_bytes_and_stores_only_on_a_difference(
        self, tmp_path, monkeypatch
    ):
        from charvar import invariants as inv

        cache = InvariantCache(tmp_path)
        inv.clear_memo()
        result = compute_invariant("hqt", 2, 2, cache=cache)
        path = cache._path(InvariantKind.HQT, 2, 2)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(inv, "attached_checks", lambda *args: calls.append(args))
            patch.setattr(InvariantCache, "store", lambda self, r: calls.append(r))
            assert compute_invariant("hqt", 2, 2, cache=cache) is result
        assert calls == []  # an intact file is left alone, and no check reruns
        path.unlink()
        assert compute_invariant("hqt", 2, 2, cache=cache) is result
        assert path.read_bytes() == document_bytes(polynomial_document(result))

    def test_compute_uses_cache(self, tmp_path):
        from charvar import invariants as inv

        cache = InvariantCache(tmp_path)
        result = compute_invariant("E", 3, 2, cache=cache)
        assert cache.load_bytes("E", 3, 2) is not None
        inv.clear_memo()
        again = compute_invariant("E", 3, 2, cache=cache)
        assert again.polynomial == result.polynomial


def test_concurrent_computation_is_safe():
    import threading

    from charvar import invariants as inv

    inv.clear_memo()
    results = [None] * 8
    errors = []

    def work(i):
        try:
            kind = ["E", "hqt", "pp", "hxy"][i % 4]
            results[i] = compute_invariant(kind, 2, 2)
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results[0].polynomial == results[4].polynomial


def test_sweep_extends_the_layer_memo(monkeypatch):
    """A sweep n = 1, 2, 3 builds each partition's hook term once: 1 + 1 + 2 + 3."""
    from charvar import invariants as inv
    from charvar import series

    calls = []
    real = series.hook_term

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "hook_term", counted)
    inv.clear_memo()
    for n in (1, 2, 3):
        compute_invariant("hqt", n, 2)
    assert len(calls) == 7


def test_concurrent_sweeps_extend_one_memo_entry():
    """Eight threads sweep Hqt n = 1..4 at g = 2 in mixed orders over one memo entry."""
    import sys
    import threading

    from charvar import invariants as inv

    ranks = (1, 2, 3, 4)
    inv.clear_memo()
    expected = {n: compute_invariant("hqt", n, 2).polynomial for n in ranks}
    inv.clear_memo()
    results = {}
    errors = []

    def work(i):
        order = ranks[i % 4 :] + ranks[: i % 4]
        try:
            for n in order if i < 4 else order[::-1]:
                results[i, n] = compute_invariant("hqt", n, 2).polynomial
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == {(i, n): expected[n] for i in range(8) for n in ranks}
    assert len(inv._layer_memo[("qt", 2)][2]) == 4
