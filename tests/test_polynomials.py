"""Unit and property tests for the exact sparse-polynomial kernel."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charvar.errors import (
    ContextError,
    NegativeExponentAtZero,
    NotDivisible,
    NotPolynomial,
)
from charvar.polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FactoredFraction,
    SparsePoly,
    adams,
    adams_poly,
    divide_exact,
    frac_sum,
    normalize_factor,
    poly_text,
)

Q = ("q",)
QT = ("q", "t")


def p(vars_, terms):
    return SparsePoly(vars_, terms)


def one(vars_=Q):
    return SparsePoly.one(vars_)


class TestPolyArithmetic:
    def test_add_cancels(self):
        assert p(Q, {(0,): 1, (1,): -1}) + p(Q, {(1,): 1}) == one()

    def test_mul_difference_of_squares(self):
        lhs = p(Q, {(0,): 1, (1,): -1}) * p(Q, {(0,): 1, (1,): 1})
        assert lhs == p(Q, {(0,): 1, (2,): -1})

    def test_pow_binomial(self):
        base = p(QT, {(0, 0): 1, (1, 1): 1})
        assert base**2 == p(QT, {(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_pow_matches_repeated_mul(self):
        base = p(QT, {(0, 0): 1, (1, 0): -2, (0, 1): 3})
        assert base**3 == base * base * base

    def test_context_mismatch(self):
        with pytest.raises(ContextError):
            one(Q) + one(QT)

    def test_zero_normalization(self):
        assert p(Q, {(1,): 0}).is_zero()
        assert (p(Q, {(1,): 1}) - p(Q, {(1,): 1})).is_zero()

    def test_fraction_coefficients_normalize_to_int(self):
        q = p(Q, {(1,): Fraction(4, 2)})
        assert q.terms[(1,)] == 2
        assert isinstance(q.terms[(1,)], int)


class TestDivideExact:
    def test_geometric_factor(self):
        num = p(Q, {(0,): 1, (2,): -1})
        div = p(Q, {(0,): 1, (1,): -1})
        assert divide_exact(num, div) == p(Q, {(0,): 1, (1,): 1})

    def test_two_variable_geometric_factor(self):
        num = p(QT, {(0, 0): 1, (3, 3): -1})
        div = p(QT, {(0, 0): 1, (1, 1): -1})
        assert divide_exact(num, div) == p(QT, {(0, 0): 1, (1, 1): 1, (2, 2): 1})

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact(p(Q, {(0,): 1, (1,): 1}), p(Q, {(0,): 1, (1,): -1}))

    def test_laurent_division(self):
        num = p(Q, {(-1,): 1, (1,): -1})  # q^-1 - q = q^-1 (1 - q^2)
        div = p(Q, {(0,): 1, (1,): -1})
        assert divide_exact(num, div) == p(Q, {(-1,): 1, (0,): 1})

    def test_three_term_divisor(self):
        div = p(Q, {(0,): 1, (1,): 1, (2,): 1})
        num = div * p(Q, {(0,): 2, (3,): -5})
        assert divide_exact(num, div) == p(Q, {(0,): 2, (3,): -5})


class TestFractions:
    def test_add_additive_inverse(self):
        f = FactoredFraction.one(Q).divided_by_poly(p(Q, {(0,): 1, (1,): -1}))
        assert (f + (-f)).is_zero()

    def test_add_no_spurious_cancellation(self):
        one_minus_q = p(Q, {(0,): 1, (1,): -1})
        a = FactoredFraction.one(Q).divided_by_poly(one_minus_q)
        b = FactoredFraction.from_poly(p(Q, {(1,): 1})).divided_by_poly(one_minus_q)
        total = a + b
        assert total.num == p(Q, {(0,): 1, (1,): 1})
        assert len(total.denominator_factors()) == 1

    def test_mul_cancels_via_exact_division(self):
        one_minus_q = p(QT, {(0, 0): 1, (1, 0): -1})
        one_minus_qt = p(QT, {(0, 0): 1, (1, 1): -1})
        a = FactoredFraction.from_poly(p(QT, {(0, 0): 1, (2, 0): -1}))
        a = a.divided_by_poly(one_minus_qt)
        b = FactoredFraction.one(QT).divided_by_poly(one_minus_q)
        out = a * b
        assert out.num == divide_exact(p(QT, {(0, 0): 1, (2, 0): -1}), one_minus_q)
        assert [f.as_poly() for f, _ in out.denominator_factors()] == [one_minus_qt]

    def test_common_denominator_is_multiset_max(self):
        one_minus_q = p(Q, {(0,): 1, (1,): -1})
        a = FactoredFraction.one(Q).divided_by_poly(one_minus_q, 2)
        b = FactoredFraction.one(Q).divided_by_poly(one_minus_q)
        total = a + b
        assert dict(total.denominator_factors()).popitem()[1] == 2
        assert total.num == p(Q, {(0,): 2, (1,): -1})

    def test_value_equality_across_representations(self):
        one_minus_q2 = p(Q, {(0,): 1, (2,): -1})
        one_minus_q = p(Q, {(0,): 1, (1,): -1})
        one_plus_q = p(Q, {(0,): 1, (1,): 1})
        a = FactoredFraction.one(Q).divided_by_poly(one_minus_q2)
        b = (
            FactoredFraction.one(Q)
            .divided_by_poly(one_minus_q)
            .divided_by_poly(one_plus_q)
        )
        assert a == b

    def test_normalize_factor_sign_and_shift(self):
        factor, shift, scale = normalize_factor(p(Q, {(1,): 1, (0,): -1}))  # q - 1
        assert factor.as_poly() == p(Q, {(0,): 1, (1,): -1})
        assert shift == (0,) and scale == -1
        factor, shift, scale = normalize_factor(p(QT, {(2, 2): 1, (1, 1): -1}))
        assert factor.as_poly() == p(QT, {(0, 0): 1, (1, 1): -1})
        assert shift == (1, 1) and scale == -1


class TestAsPolynomial:
    def test_geometric(self):
        f = FactoredFraction.from_poly(p(Q, {(0,): 1, (2,): -1}))
        f = f.divided_by_poly(p(Q, {(0,): 1, (1,): -1}))
        assert f.as_polynomial() == p(Q, {(0,): 1, (1,): 1})

    def test_sign_paired_cancellation(self):
        num = p(QT, {(1, 2): 1, (0, 0): -1}) * p(QT, {(1, 0): 1, (0, 0): -1})
        f = FactoredFraction.from_poly(num)
        f = f.divided_by_poly(p(QT, {(0, 0): 1, (1, 2): -1}))
        f = f.divided_by_poly(p(QT, {(0, 0): 1, (1, 0): -1}))
        assert f.as_polynomial() == SparsePoly.one(QT)

    def test_not_polynomial_carries_factor(self):
        f = FactoredFraction.from_poly(p(Q, {(0,): 1, (1,): 1}))
        f = f.divided_by_poly(p(Q, {(0,): 1, (1,): -1}))
        with pytest.raises(NotPolynomial) as err:
            f.as_polynomial()
        assert err.value.factor == p(Q, {(0,): 1, (1,): -1})


class TestAdams:
    def test_identity(self):
        f = FactoredFraction.from_poly(p(QT, {(1, 1): 1}))
        assert adams(f, 1, FLAVOR_QT) is f

    def test_even_twist_flips_sign(self):
        f = FactoredFraction.from_poly(p(QT, {(1, 1): 1}))  # q*t
        assert adams(f, 2, FLAVOR_QT).num == p(QT, {(2, 2): -1})

    def test_odd_twist_keeps_sign(self):
        f = FactoredFraction.from_poly(p(QT, {(0, 1): 1}))  # t
        assert adams(f, 3, FLAVOR_QT).num == p(QT, {(0, 3): 1})

    def test_denominator_renormalized(self):
        # 1/(1+qt) under r=2 becomes 1/(1-q^2 t^2)
        f = FactoredFraction.one(QT).divided_by_poly(p(QT, {(0, 0): 1, (1, 1): 1}))
        out = adams(f, 2, FLAVOR_QT)
        ((factor, mult),) = out.denominator_factors()
        assert factor.as_poly() == p(QT, {(0, 0): 1, (2, 2): -1}) and mult == 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_composition_sign_identity_qt(self, r, s):
        t_mono = p(QT, {(0, 1): 1})
        assert adams_poly(adams_poly(t_mono, s, FLAVOR_QT), r, FLAVOR_QT) == adams_poly(
            t_mono, r * s, FLAVOR_QT
        )


class TestSpecialize:
    def test_value(self):
        f = p(QT, {(0, 0): 1, (1, 2): 1})
        assert f.specialize({"t": -1}) == p(Q, {(0,): 1, (1,): 1})

    def test_drop_variable(self):
        f = p(QT, {(2, 4): 1})
        assert f.specialize({"q": 1}) == p(("t",), {(4,): 1})

    def test_variable_fusion(self):
        f = p(("q", "x", "y"), {(0, 0, 0): 1, (1, 1, 2): 1})
        assert f.specialize({"x": "t", "y": "t"}) == p(QT, {(0, 0): 1, (1, 3): 1})

    def test_negative_exponent_at_zero(self):
        f = p(Q, {(-1,): 1})
        with pytest.raises(NegativeExponentAtZero):
            f.specialize({"q": 0})

    def test_full_specialization_returns_scalar(self):
        f = p(QT, {(1, 1): 2, (0, 0): 1})
        assert f.specialize({"q": 2, "t": Fraction(1, 2)}) == 3

    def test_unknown_variable(self):
        with pytest.raises(ContextError):
            one().specialize({"t": 1})


class TestRendering:
    def test_spec_example(self):
        f = p(Q, {(0,): 1, (2,): -4, (4,): 6})
        assert poly_text(f) == "1 - 4*q^2 + 6*q^4"

    def test_unit_coefficients_and_exponent_one(self):
        f = p(QT, {(12, 0): 1, (1, 1): -1, (0, 0): 1})
        assert poly_text(f) == "1 - q*t + q^12"

    def test_zero(self):
        assert poly_text(SparsePoly.zero(Q)) == "0"

    def test_leading_negative(self):
        assert poly_text(p(Q, {(1,): -2})) == "-2*q"


# -- property tests -----------------------------------------------------------

_coeffs = st.integers(min_value=-6, max_value=6)
_exps_qt = st.tuples(
    st.integers(min_value=-3, max_value=4), st.integers(min_value=-3, max_value=4)
)


@st.composite
def sparse_polys(draw, vars_=QT, exps=_exps_qt, min_terms=0):
    terms = draw(st.dictionaries(exps, _coeffs, min_size=min_terms, max_size=5))
    return SparsePoly(vars_, terms)


_denominator_pool = [
    SparsePoly(QT, {(0, 0): 1, (1, 0): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 1): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 2): -1}),
    SparsePoly(QT, {(0, 0): 1, (2, 2): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 1): 1}),
]


@st.composite
def fractions(draw):
    num = draw(sparse_polys())
    out = FactoredFraction.from_poly(num)
    for idx in draw(st.lists(st.integers(0, len(_denominator_pool) - 1), max_size=3)):
        out = out.divided_by_poly(_denominator_pool[idx])
    return out


@given(fractions(), fractions())
@settings(max_examples=60, deadline=None)
def test_frac_add_commutative(a, b):
    assert (a + b) == (b + a)


@given(fractions(), fractions(), fractions())
@settings(max_examples=40, deadline=None)
def test_frac_add_associative(a, b, c):
    assert ((a + b) + c) == (a + (b + c))


@given(fractions(), fractions(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_adams_is_ring_morphism(a, b, r):
    assert adams(a * b, r, FLAVOR_QT) == adams(a, r, FLAVOR_QT) * adams(b, r, FLAVOR_QT)
    assert adams(a + b, r, FLAVOR_QT) == adams(a, r, FLAVOR_QT) + adams(b, r, FLAVOR_QT)


@given(
    sparse_polys(vars_=Q, exps=st.tuples(st.integers(min_value=0, max_value=5))),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_adams_composition_untwisted(f, r, s):
    assert adams_poly(adams_poly(f, s, FLAVOR_E), r, FLAVOR_E) == adams_poly(
        f, r * s, FLAVOR_E
    )
    g = SparsePoly(("t",), dict(f.terms))
    assert adams_poly(adams_poly(g, s, FLAVOR_PURE), r, FLAVOR_PURE) == adams_poly(
        g, r * s, FLAVOR_PURE
    )


def naive_product_terms(a, b):
    """Reference for SparsePoly.__mul__: every term pair, then drop zeros."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: int(c) if c.denominator == 1 else c for e, c in out.items() if c}


_mul_coeffs = st.one_of(
    st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4)
).filter(bool)


@st.composite
def polys_with_constant(draw, max_terms):
    """Laurent polys in q, t; the constant term is absent, 1, or another number."""
    nonconstant = _exps_qt.filter(any)
    terms = draw(st.dictionaries(nonconstant, _mul_coeffs, max_size=max_terms))
    constants = [None, 1, 1, -1, 3, Fraction(1, 2), Fraction(-5, 3)]
    constant = draw(st.sampled_from(constants))
    if constant is not None:
        terms[(0, 0)] = constant
    return SparsePoly(QT, terms)


@given(polys_with_constant(3), polys_with_constant(6))
@example(p(QT, {(0, 0): 1, (1, 0): -1}), p(QT, {(0, 0): 1, (1, 0): 1}))
@example(p(QT, {(0, 0): 2, (0, 1): 1}), p(QT, {(0, 0): 1, (0, -1): Fraction(1, 2)}))
@example(p(QT, {(0, 0): Fraction(1, 2), (1, -1): 1}), p(QT, {(0, 0): 2, (3, 1): 4}))
@settings(max_examples=150, deadline=None)
def test_mul_matches_naive_double_loop(a, b):
    for x, y in ((a, b), (b, a)):
        got = (x * y).terms
        want = naive_product_terms(x, y)
        assert got == want
        assert [type(got[e]) for e in want] == [type(c) for c in want.values()]


def fraction_specialize(f, assignment):
    """Reference for SparsePoly.specialize: every value goes through Fraction."""
    new_vars = [v for v in f.vars if v not in assignment]
    for v in f.vars:
        t = assignment.get(v)
        if isinstance(t, str) and t not in new_vars:
            new_vars.append(t)
    out = {}
    for e, c in f.terms.items():
        coeff = c
        new_e = [0] * len(new_vars)
        for v, k in zip(f.vars, e):
            t = assignment.get(v, v)
            if isinstance(t, str):
                new_e[new_vars.index(t)] += k
            elif k:
                t = Fraction(t)
                if not t:
                    if k < 0:
                        raise NegativeExponentAtZero(f"{v}^{k} evaluated at {v} = 0")
                    coeff = 0
                    break
                coeff = coeff * t**k
        if coeff:
            key = tuple(new_e)
            out[key] = out.get(key, 0) + coeff
    out = {e: int(c) if c.denominator == 1 else c for e, c in out.items() if c}
    if not new_vars:
        return out.get((), 0)
    return SparsePoly(tuple(new_vars), out)


QTX = ("q", "t", "x")
_targets = st.sampled_from(
    [0, 1, -1, 3, -2, Fraction(1, 2), Fraction(-2, 3), "q", "t", "x", "u", "u"]
)


@st.composite
def specialize_cases(draw):
    exps = st.tuples(*[st.integers(min_value=-3, max_value=4)] * 3)
    f = SparsePoly(QTX, draw(st.dictionaries(exps, _mul_coeffs, max_size=6)))
    chosen = draw(st.lists(st.sampled_from(QTX), unique=True, min_size=1))
    return f, {v: draw(_targets) for v in chosen}


@given(specialize_cases())
@example((p(("x", "y"), {(1, 2): 1}), {"x": "y"}))
@example((p(QT, {(-1, 0): 2, (0, 1): 1}), {"q": 0}))
@example((p(QT, {(2, 1): 3, (0, -2): Fraction(1, 2)}), {"q": 3, "t": -2}))
@example((p(QTX, {(1, 1, 0): 1, (0, 1, 1): -1, (2, 0, 0): 4}), {"t": "u", "x": "u", "q": -1}))
@settings(max_examples=200, deadline=None)
def test_specialize_matches_fraction_path(case):
    f, assignment = case
    try:
        want = fraction_specialize(f, assignment)
    except NegativeExponentAtZero:
        with pytest.raises(NegativeExponentAtZero):
            f.specialize(assignment)
        return
    got = f.specialize(assignment)
    assert type(got) is type(want)
    if isinstance(want, SparsePoly):
        assert got.vars == want.vars and got.terms == want.terms
        assert [type(got.terms[e]) for e in want.terms] == [
            type(c) for c in want.terms.values()
        ]
    else:
        assert got == want


@given(sparse_polys(min_terms=1), st.integers(0, len(_denominator_pool) - 1))
@settings(max_examples=60, deadline=None)
def test_divide_exact_inverts_multiplication(a, idx):
    b = _denominator_pool[idx]
    assert divide_exact(a * b, b) == a


# Divisors beyond the denominator pool: a direction with mixed signs (t - q),
# a plus sign, three variables, 1 + q^2 (every exponent even, so the modular
# pre-test has no point to evaluate at), a coefficient that is not a unit,
# q - t^2 (direction (-1, 2): the exponent the long division buckets by is not
# the first), 2*q*t - 3 (a negative, non-unit low coefficient) and the Laurent
# t^-1 - q.  The coefficient 1/(2^61 - 1) has no value modulo the pre-test's
# prime.
_wide_divisors = [
    SparsePoly(QT, {(0, 1): 1, (1, 0): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 2): 1}),
    SparsePoly(("q", "x", "y"), {(0, 0, 0): 1, (1, 1, 2): -1}),
    SparsePoly(Q, {(0,): 1, (2,): 1}),
    SparsePoly(Q, {(0,): 2, (1,): -1}),
    SparsePoly(QT, {(1, 0): 1, (0, 2): -1}),
    SparsePoly(QT, {(1, 1): 2, (0, 0): -3}),
    SparsePoly(QT, {(0, -1): 1, (1, 0): -1}),
]
_rationals = st.one_of(
    _coeffs,
    st.fractions(-6, 6, max_denominator=12),
    st.just(Fraction(1, (1 << 61) - 1)),
)


@st.composite
def wide_division_cases(draw):
    b = draw(st.sampled_from(_wide_divisors))
    exps = st.tuples(*[st.integers(min_value=-3, max_value=4)] * len(b.vars))
    a = SparsePoly(b.vars, draw(st.dictionaries(exps, _rationals, max_size=6)))
    m = SparsePoly.monomial(b.vars, draw(exps), draw(_rationals.filter(bool)))
    return a, b, m


@given(wide_division_cases())
@settings(max_examples=150, deadline=None)
def test_divide_exact_decides_wide_divisors(case):
    a, b, m = case
    assert divide_exact(a * b, b) == a
    with pytest.raises(NotDivisible):
        divide_exact(a * b + m, b)


_assignments = [{"q": 1}, {"t": -1}, {"t": 1}, {"q": 2}, {"t": "q"}, {"q": -1, "t": 2}]


@st.composite
def built_fractions(draw):
    """Fractions from products, sums, divided_by_poly and specialize."""
    out = draw(fractions())
    for _ in range(draw(st.integers(0, 2))):
        other = draw(fractions())
        out = out * other if draw(st.booleans()) else out + other
    if draw(st.booleans()):
        try:
            out = out.specialize(draw(st.sampled_from(_assignments)))
        except ZeroDivisionError:
            pass  # a denominator factor vanished there
    return out


@given(built_fractions())
@settings(max_examples=100, deadline=None)
def test_no_denominator_factor_divides_the_numerator(f):
    """Every fraction is reduced, which is why as_polynomial needs no division."""
    for factor, _ in f.denominator_factors():
        with pytest.raises(NotDivisible):
            divide_exact(f.num, factor.as_poly())


@given(sparse_polys())
@settings(max_examples=60, deadline=None)
def test_as_polynomial_of_embedded_polynomial(f):
    assert FactoredFraction.from_poly(f).as_polynomial() == f


@given(st.lists(fractions(), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_frac_sum_matches_pairwise_addition(items):
    total = items[0]
    for item in items[1:]:
        total = total + item
    assert frac_sum(items, QT) == total
