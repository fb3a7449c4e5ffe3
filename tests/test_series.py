"""Series log/exp, layer extraction, and invariant normalization tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import h2_g3_poly
from charvar import polynomials, series
from charvar.errors import (
    ConstantTermNotOne,
    NonIntegerCoefficient,
    NotDivisible,
    NotPolynomial,
)
from charvar.invariants import clear_memo, compute_invariant
from charvar.partitions import Partition, hook_term, partitions_of
from charvar.polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FLAVOR_XY,
    FactoredFraction,
    SparsePoly,
    adams,
    adams_poly,
    divide_exact,
    frac_sum,
)
from charvar.series import (
    TruncatedSeries,
    extract_layers,
    hook_sum_series,
    invariant_from_layer,
    series_log,
)
from oracles import (
    binomial_factor,
    divided_by,
    jet_by_pass,
    plethystic_exp_of_layers,
    series_exp,
)

Q = ("q",)
QT = ("q", "t")
FLAVORS = (FLAVOR_E, FLAVOR_QT, FLAVOR_XY, FLAVOR_PURE)


def const_series(flavor, values):
    coeffs = tuple(
        FactoredFraction.from_poly(SparsePoly.constant(flavor.variables, v))
        for v in values
    )
    return TruncatedSeries(flavor, coeffs)


class TestHookSumSeries:
    def test_order_zero_is_one(self):
        s = hook_sum_series(FLAVOR_QT, 3, 0)
        assert s.coeffs[0] == 1 and s.order == 0

    def test_weight_one_coefficient(self):
        s = hook_sum_series(FLAVOR_E, 2, 1)
        assert s.coeffs[0] == 1
        assert s.coeffs[1] == SparsePoly(Q, {(0,): 1, (1,): -2, (2,): 1})

    def test_weight_two_coefficient_matches_direct_sum(self):
        s = hook_sum_series(FLAVOR_E, 2, 2)
        # hooks of (2): {2,1} with legs 0; hooks of (1,1): {2,1} with legs 1,0
        h2 = SparsePoly(Q, {(0,): 1, (2,): -1}) * SparsePoly(Q, {(0,): 1, (1,): -1})
        h11 = h2.shift((-1,))
        assert s.coeffs[2] == FactoredFraction.from_poly(h2 * h2 + h11 * h11)

    @pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.name)
    def test_tree_sum_equals_flat_sum(self, flavor):
        """The pairwise tree of hook terms has the value of their flat sum."""
        g = 2
        s = hook_sum_series(flavor, g, 5)
        for m in range(6):
            flat = frac_sum([hook_term(flavor, p, g) for p in partitions_of(m)])
            assert s.coeffs[m] == flat, m


class TestSeriesLog:
    def test_log_of_one(self):
        s = const_series(FLAVOR_E, [1, 0, 0])
        assert all(c.is_zero() for c in series_log(s).coeffs)

    def test_log_of_one_plus_at(self):
        a = FactoredFraction.from_poly(SparsePoly(Q, {(0,): 1, (1,): 1}))
        s = TruncatedSeries(FLAVOR_E, (FactoredFraction.one(Q), a, FactoredFraction.zero(Q)))
        log = series_log(s)
        assert log.coeffs[1] == a
        assert log.coeffs[2] == -(a * a)

    def test_log_of_geometric_series_is_powers(self):
        # S = 1/(1 - aT): T*d/dT log S = sum a^m T^m, so W_m = a^m
        a = SparsePoly(Q, {(0,): 2, (1,): -1})
        powers = [FactoredFraction.from_poly(a**m) for m in range(5)]
        log = series_log(TruncatedSeries(FLAVOR_E, tuple(powers)))
        assert log.coeffs[1:] == tuple(powers[1:])

    def test_constant_term_must_be_one(self):
        with pytest.raises(ConstantTermNotOne):
            series_log(const_series(FLAVOR_E, [2, 0]))

    def test_exp_inverts_log_on_hook_series(self):
        s = hook_sum_series(FLAVOR_QT, 2, 3)
        assert series_exp(series_log(s)) == s
        # The dataclass's equality compares the flavor and each coefficient by
        # value; a series is unhashable, as its coefficients are.
        rebuilt = TruncatedSeries(s.flavor, tuple(c.scale(1) for c in s.coeffs))
        shorter = TruncatedSeries(s.flavor, s.coeffs[:-1])
        for other, equal in ((rebuilt, True), (shorter, False), (s.coeffs, False)):
            assert (s == other) is equal and (other == s) is equal
        with pytest.raises(TypeError):
            hash(s)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_exp_log_round_trip_on_random_series(tail):
    s = const_series(FLAVOR_E, [1] + tail)
    assert series_exp(series_log(s)) == s


class TestExtractLayers:
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_first_layer_is_the_single_cell_term(self, g):
        for flavor in FLAVORS:
            (v1,) = extract_layers(flavor, g, 1)
            assert v1 == hook_term(flavor, Partition((1,)), g)

    def test_qt_genus_one_first_layer(self):
        (v1,) = extract_layers(FLAVOR_QT, 1, 1)
        expected = FactoredFraction.from_poly(
            SparsePoly(QT, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
        )
        expected = divided_by(expected, SparsePoly(QT, {(0, 0): 1, (1, 2): -1}))
        expected = divided_by(expected, SparsePoly(QT, {(0, 0): 1, (1, 0): -1}))
        assert v1 == expected

    @pytest.mark.parametrize(
        "flavor,g,nmax",
        [
            (FLAVOR_E, 2, 4),
            (FLAVOR_E, 0, 3),
            (FLAVOR_QT, 2, 3),
            (FLAVOR_QT, 1, 3),
            (FLAVOR_PURE, 3, 3),
            (FLAVOR_XY, 2, 2),
        ],
    )
    def test_reassembly_round_trip(self, flavor, g, nmax):
        layers = extract_layers(flavor, g, nmax)
        assert plethystic_exp_of_layers(flavor, layers, nmax) == hook_sum_series(
            flavor, g, nmax
        )

    @pytest.mark.parametrize("flavor", [FLAVOR_E, FLAVOR_QT])
    @pytest.mark.parametrize("g", [2, 3])
    def test_extraction_stable_under_higher_truncation(self, flavor, g):
        small = extract_layers(flavor, g, 3)
        large = extract_layers(flavor, g, 4)
        for a, b in zip(small, large):
            assert a == b


def _parts(fracs):
    return [(fr.num.terms, fr.den) for fr in fracs]


@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.name)
def test_continued_extraction_matches_scratch(flavor):
    """Extending rank by rank gives the from-scratch S, W and X exactly."""
    nmax = 3 if flavor is FLAVOR_XY else 4
    for g in range(4):
        entry = (None, None, ())
        for n in range(1, nmax + 1):
            entry = extract_layers(flavor, g, n, start=entry)
        s = hook_sum_series(flavor, g, nmax)
        scratch = (s.coeffs, series_log(s).coeffs, extract_layers(flavor, g, nmax))
        continued = (entry[0].coeffs, entry[1].coeffs, entry[2])
        for ours, ref in zip(continued, scratch):
            assert _parts(ours) == _parts(ref), g


def reference_adams(fr, r, flavor):
    """Reference: the numerator's image over each factor's image, read off
    the terms of the factor's substituted polynomial, cancelled."""
    den = {}
    for f, m in fr.den.items():
        image = binomial_factor(adams_poly(f.as_poly(), r, flavor))
        den[image] = den.get(image, 0) + m
    return FactoredFraction(adams_poly(fr.num, r, flavor), den)


@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.name)
def test_adams_matches_reference_on_layers(flavor):
    """On the layers at g = 0..3, and on fractions over 1 + u*v, 1 - u^3 and
    1 + v, with v twisted where the flavor twists a variable: an even Adams
    image flips the sign of a factor with an odd twisted exponent."""
    nmax = 2 if flavor is FLAVOR_XY else 3
    fracs = [layer for g in range(4) for layer in extract_layers(flavor, g, nmax)]
    variables = flavor.variables
    u = SparsePoly.variable(variables, variables[0])
    v = SparsePoly.variable(variables, variables[-1]) ** (1 if len(variables) > 1 else 2)
    others = [1 + u * v, 1 - u**3, 1 + v]
    for d in others:
        fracs.append(divided_by(FactoredFraction.from_poly(v + 3), d))
        fracs.append(divided_by(FactoredFraction.from_poly(u - 1), d, 2))
    fracs.append(divided_by(divided_by(FactoredFraction.from_poly(v), others[0]), others[2]))
    for fr in fracs:
        for r in range(2, 5):
            ours, ref = adams(fr, r, flavor), reference_adams(fr, r, flavor)
            assert (ours.num.terms, ours.den) == (ref.num.terms, ref.den), (fr, r)


@pytest.mark.parametrize("r", [0, -1])
def test_adams_refuses_r_below_one_before_it_reads_a_factor(r):
    """The arguments are checked first: an image factor 1 +- x^(r*e) would
    have a zero or negative exponent vector and raise an error of its own."""
    term = hook_term(FLAVOR_QT, Partition((2,)), 2)
    assert term.den
    with pytest.raises(ValueError, match="Adams operations want r >= 1"):
        adams(term, r, FLAVOR_QT)


@pytest.mark.parametrize("flavor, nmax", [(FLAVOR_QT, 4), (FLAVOR_XY, 3)],
                         ids=lambda v: getattr(v, "name", v))
def test_an_adams_image_is_reduced_as_built(flavor, nmax):
    """adams builds its image without a cancel, so cancelling it removes nothing."""
    for layer in extract_layers(flavor, 2, nmax):
        for r in (2, 3):
            image = adams(layer, r, flavor)
            assert FactoredFraction(image.num, image.den).den == image.den, (layer, r)


@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.name)
def test_layer_pipeline_numerators_are_integer(flavor):
    nmax = 2 if flavor is FLAVOR_XY else 3
    for g in range(4):
        s = hook_sum_series(flavor, g, nmax)
        layers = extract_layers(flavor, g, nmax)
        fracs = (*s.coeffs, *series_log(s).coeffs, *layers)
        assert all(type(c) is int for fr in fracs for c in fr.num.terms.values())


class TestInvariantFromLayer:
    @pytest.mark.parametrize("g", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.name)
    def test_rank_one_invariant_is_one(self, flavor, g):
        (v1,) = extract_layers(flavor, g, 1)
        one = SparsePoly.one(flavor.variables)
        assert invariant_from_layer(flavor, 1, g, v1) == one

    def test_rank_two_genus_three_matches_printed_polynomial(self):
        layers = extract_layers(FLAVOR_QT, 3, 2)
        assert invariant_from_layer(FLAVOR_QT, 2, 3, layers[1]) == h2_g3_poly()

    def test_non_integer_coefficient_is_detected(self):
        layer = FactoredFraction.from_poly(SparsePoly.constant(("t",), 3))
        with pytest.raises(NonIntegerCoefficient) as err:
            invariant_from_layer(FLAVOR_PURE, 2, 1, layer)
        assert str(err.value) == "coefficient 3/2 of exponent (0,) in 3/2 - 3/2*t^2"

    def test_division_by_rank_must_be_exact(self):
        layer = FactoredFraction.one(("t",))
        with pytest.raises(NonIntegerCoefficient) as err:
            invariant_from_layer(FLAVOR_PURE, 2, 1, layer)
        assert str(err.value) == "coefficient 1/2 of exponent (0,) in 1/2 - 1/2*t^2"

    def test_not_polynomial_is_detected(self):
        layer = divided_by(FactoredFraction.one(("t",)), SparsePoly(("t",), {(0,): 1, (4,): -1}))
        with pytest.raises(NotPolynomial):
            invariant_from_layer(FLAVOR_PURE, 1, 1, layer)

    def test_a_laurent_layer_names_its_lowest_exponents(self):
        # (1 - q)^2 q^-3 over the rank-one term (1 - q)^2 at g = 2 leaves q^-3
        layer = FactoredFraction.from_poly(SparsePoly(("q",), {(-3,): 1, (-2,): -2, (-1,): 1}))
        with pytest.raises(NotPolynomial) as err:
            invariant_from_layer(FLAVOR_E, 1, 2, layer)
        assert str(err.value) == "normalized layer is Laurent, lowest exponents (-3,)"
        assert err.value.factor == (-3,)


@pytest.mark.parametrize(
    "kind, n, g, walks, failed", [
        ("hxy", 2, 2, 14, 5),
        ("hqt", 2, 3, 16, 5),
        ("hqt", 4, 2, 45, 16),
        ("pp", 6, 2, 28, 8),
    ],
    ids=["hxy-2-2", "hqt-2-3", "hqt-4-2", "pp-6-2"],
)
def test_a_cold_compute_walks_a_fixed_number_of_long_divisions(
    monkeypatch, kind, n, g, walks, failed
):
    """The pre-test reads only carried values, so the walks are pinned.

    hook_term gives its numerator jets at its denominator's points, and the
    quotients and sums built from it carry theirs; a trial whose numerator
    has no carried value goes straight to the long division, so a lost jet
    shows here as one more failed walk.  Computing missing values by a pass
    over the terms instead made 36 passes over 480 terms (Hxy n=2 g=2) and
    35 over 519 (Hqt n=2 g=3), and then 11 and 13 walks, none failing.
    """
    done, numerators = [], []
    real_walk, real_hook_term = polynomials._divide_two_term, series.hook_term

    def counted(*args):
        out = real_walk(*args)
        done.append(out is not None)
        return out

    def recorded(*args):
        out = real_hook_term(*args)
        numerators.append(out)
        return out

    monkeypatch.setattr(polynomials, "_divide_two_term", counted)
    monkeypatch.setattr(series, "hook_term", recorded)
    clear_memo()
    compute_invariant(kind, n, g)
    clear_memo()
    assert numerators
    for term in numerators:  # each carries the reference value at its factors' points
        for f in term.den:
            if f._point is not None:
                assert term.num._values[f._point][0] == jet_by_pass(term.num, f._point)[0]
    assert (len(done), done.count(False)) == (walks, failed)


@pytest.mark.parametrize(
    "kind, n, g, walked", [
        ("hqt", 3, 3, (18, 9, 7954, 3043)),
        ("hxy", 3, 2, (16, 9, 10812, 3874)),
    ],
    ids=["hqt-3-3", "hxy-3-2"],
)
def test_a_cold_compute_lifts_no_factor_that_a_walk_divides_back_out(
    monkeypatch, kind, n, g, walked
):
    """Successful and failed long divisions, and the numerator terms they walk.

    A sum lifts its summands to the lcm of their denominators on each line,
    and the formal log's products go into their sum uncancelled.  Lifting to
    the multiset maximum instead walked 24 successes over 11,161 terms (Hqt
    n=3 g=3) and 22 over 16,806 (Hxy n=3 g=2); cancelling each product of
    the log as well failed 6 more walks on each.
    """
    done = []
    real = polynomials._divide_two_term

    def counted(rem, *args):
        size = len(rem)
        out = real(rem, *args)
        done.append((out is not None, size))
        return out

    monkeypatch.setattr(polynomials, "_divide_two_term", counted)
    clear_memo()
    compute_invariant(kind, n, g)
    clear_memo()
    found = [size for ok, size in done if ok]
    failed = [size for ok, size in done if not ok]
    assert (len(found), len(failed), sum(found), sum(failed)) == walked


@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.name)
def test_every_log_coefficient_is_reduced(flavor):
    """The log's products are summed uncancelled; the sum's cancel reduces W_m."""
    for fr in series_log(hook_sum_series(flavor, 2, 2 if flavor is FLAVOR_XY else 3)).coeffs:
        for factor, _ in fr.denominator_factors():
            with pytest.raises(NotDivisible):
                divide_exact(fr.num, factor.as_poly())
